(* Table 4: TCB analysis.

   The paper reports the data plane adding 5K SLoC / 42.5 KB to the TCB,
   16% of the whole OP-TEE TEE binary, with the control plane and
   commodity libraries staying untrusted.  Here we partition this
   repository the same way and count source lines (non-blank, non-comment)
   per component, plus the TCB interface (the four SMC entries). *)

let is_source f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

(* Files that end inside a comment or a string: their later lines would
   silently go uncounted, so [print] refuses to report. *)
let ends_open = ref []

(* Source lines of one file: non-blank lines outside comments.  Comment
   delimiters are counted per line, and, as in the OCaml lexer, not
   inside string literals (escapes included) or the char literal '"' —
   in code and in comments alike. *)
let sloc_of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let count = ref 0 in
      let in_comment = ref 0 in
      let in_string = ref false in
      (try
         while true do
           let line = String.trim (input_line ic) in
           let n = String.length line in
           let opens = ref 0 and closes = ref 0 in
           let i = ref 0 in
           while !i < n do
             let c = line.[!i] and next = if !i + 1 < n then line.[!i + 1] else ' ' in
             if !in_string then begin
               if c = '\\' then incr i else if c = '"' then in_string := false
             end
             else if c = '"' then in_string := true
             else if c = '\'' && next = '"' && !i + 2 < n && line.[!i + 2] = '\'' then i := !i + 2
             else if c = '\'' && next = '\\' && !i + 3 < n && line.[!i + 3] = '\'' then i := !i + 3
             else if c = '(' && next = '*' then incr opens
             else if c = '*' && next = ')' then incr closes;
             incr i
           done;
           let was_in_comment = !in_comment > 0 in
           in_comment := max 0 (!in_comment + !opens - !closes);
           if
             line <> ""
             && (not was_in_comment)
             && not (n >= 2 && String.sub line 0 2 = "(*" && !in_comment = 0)
           then incr count
         done
       with End_of_file -> ());
      if !in_comment > 0 || !in_string then ends_open := path :: !ends_open;
      !count)

let rec sloc_of_dir path =
  if not (Sys.file_exists path) then 0
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> acc + sloc_of_dir (Filename.concat path entry))
      0 (Sys.readdir path)
  else if is_source path then sloc_of_file path
  else 0

type component = { name : string; dirs : string list; trusted : bool }

(* The partition mirrors the paper's Table 4: trusted primitives + memory
   management + attestation codec + the data-plane module form the TCB;
   everything else (control plane, operators, workloads, tests,
   baselines) stays out.  Every directory under lib/ must appear in some
   component: [print] exits nonzero on one that does not, so a new
   library cannot fall outside both totals. *)
let components =
  [
    { name = "Trusted primitives"; dirs = [ "lib/prim" ]; trusted = true };
    { name = "Memory management"; dirs = [ "lib/umem" ]; trusted = true };
    { name = "Crypto"; dirs = [ "lib/crypto" ]; trusted = true };
    {
      name = "Audit log + codec";
      dirs = [ "lib/attest" ];
      trusted = true
      (* the verifier runs on the cloud, but ships in this directory; the
         split is refined below *);
    };
    { name = "TEE model (TrustZone)"; dirs = [ "lib/tz" ]; trusted = true };
    { name = "Control plane + operators"; dirs = [ "lib/core" ]; trusted = false };
    { name = "Simulator"; dirs = [ "lib/sim" ]; trusted = false };
    { name = "Transport"; dirs = [ "lib/net" ]; trusted = false };
    { name = "Workloads"; dirs = [ "lib/workloads" ]; trusted = false };
    { name = "Baselines"; dirs = [ "lib/baselines" ]; trusted = false };
    { name = "Fault injection"; dirs = [ "lib/fault" ]; trusted = false };
    { name = "Fleet"; dirs = [ "lib/fleet" ]; trusted = false };
    { name = "Observability"; dirs = [ "lib/obs" ]; trusted = false };
    { name = "Recovery (seal, codec, store)"; dirs = [ "lib/recovery" ]; trusted = false };
    { name = "Tests"; dirs = [ "test" ]; trusted = false };
    { name = "Bench + tools + examples"; dirs = [ "bench"; "bin"; "examples" ]; trusted = false };
  ]

(* The data-plane side of lib/core (dataplane.ml/.mli, opaque.ml/.mli,
   event.ml/.mli) is TCB; the control plane (runtime, session, multi,
   runner, pipeline, ir, udf) is not.  Counted separately for the
   headline number. *)
let dataplane_core_files =
  [
    "lib/core/dataplane.ml"; "lib/core/dataplane.mli";
    "lib/core/opaque.ml"; "lib/core/opaque.mli";
    "lib/core/event.ml"; "lib/core/event.mli";
  ]

(* The verifier is cloud-side, not TCB. *)
let verifier_files = [ "lib/attest/verifier.ml"; "lib/attest/verifier.mli" ]

(* lib/ directories no component names. *)
let unassigned_lib_dirs () =
  let named = List.concat_map (fun c -> c.dirs) components in
  Sys.readdir "lib" |> Array.to_list |> List.sort compare
  |> List.map (Filename.concat "lib")
  |> List.filter (fun d -> Sys.is_directory d && not (List.mem d named))

let print () =
  if not (Sys.file_exists "lib") then
    print_endline
      "  (source tree not found - run from the repository root for the SLoC breakdown)"
  else begin
    (match unassigned_lib_dirs () with
    | [] -> ()
    | missing ->
        Printf.eprintf "table4: lib directories in no component: %s\n"
          (String.concat " " missing);
        exit 1);
    let sloc_of_files = List.fold_left (fun acc f -> acc + (if Sys.file_exists f then sloc_of_file f else 0)) 0 in
    let rows = List.map (fun c -> (c, List.fold_left (fun acc d -> acc + sloc_of_dir d) 0 c.dirs)) components in
    let dp_core = sloc_of_files dataplane_core_files in
    let verifier = sloc_of_files verifier_files in
    (match !ends_open with
    | [] -> ()
    | files ->
        Printf.eprintf "table4: files ending inside a comment or string: %s\n"
          (String.concat " " (List.sort compare files));
        exit 1);
    Printf.printf "  %-30s %10s  %s\n" "component" "SLoC" "TCB?";
    let trusted_total = ref 0 and untrusted_total = ref 0 in
    List.iter
      (fun (c, sloc) ->
        if c.trusted then trusted_total := !trusted_total + sloc
        else untrusted_total := !untrusted_total + sloc;
        Printf.printf "  %-30s %10d  %s\n" c.name sloc (if c.trusted then "yes" else "no"))
      rows;
    trusted_total := !trusted_total + dp_core - verifier;
    untrusted_total := !untrusted_total - dp_core + verifier;
    Printf.printf "  %-30s %10d  yes (dataplane/opaque/event)\n" "Data plane (lib/core subset)" dp_core;
    Printf.printf "  %-30s %10d  no (cloud-side)\n" "Verifier (moved out of TCB)" verifier;
    Printf.printf "  %-30s %10d\n" "TCB total" !trusted_total;
    Printf.printf "  %-30s %10d\n" "untrusted total" !untrusted_total;
    Printf.printf "  TCB fraction of engine source: %.0f%%  (paper: data plane = 5K of 12.4K new SLoC)\n"
      (100.0
      *. float_of_int !trusted_total
      /. float_of_int (max 1 (!trusted_total + !untrusted_total)));
    Printf.printf "  TCB interface: %d SMC entries (" Sbt_tz.Smc.entry_count;
    List.iter
      (fun e -> Printf.printf "%s " (Sbt_tz.Smc.entry_name e))
      [ Sbt_tz.Smc.Init; Sbt_tz.Smc.Finalize; Sbt_tz.Smc.Debug; Sbt_tz.Smc.Invoke ];
    Printf.printf ") - all %d primitives share the invoke entry\n" Sbt_prim.Primitive.count
  end
