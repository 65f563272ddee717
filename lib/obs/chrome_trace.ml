let us ns = ns /. 1e3

let json_of_arg = function
  | Tracer.Int i -> Json.num_of_int i
  | Tracer.Float f -> Json.Num f
  | Tracer.Str s -> Json.Str s

let json_of_args args = Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)

let json_of_event = function
  | Tracer.Complete { name; cat; ts_ns; dur_ns; pid; tid; args } ->
      Json.Obj
        ([
           ("name", Json.Str name);
           ("cat", Json.Str cat);
           ("ph", Json.Str "X");
           ("ts", Json.Num (us ts_ns));
           ("dur", Json.Num (us dur_ns));
           ("pid", Json.num_of_int pid);
           ("tid", Json.num_of_int tid);
         ]
        @ if args = [] then [] else [ ("args", json_of_args args) ])
  | Tracer.Instant { name; cat; ts_ns; pid; tid; args } ->
      Json.Obj
        ([
           ("name", Json.Str name);
           ("cat", Json.Str cat);
           ("ph", Json.Str "i");
           ("s", Json.Str "t");
           ("ts", Json.Num (us ts_ns));
           ("pid", Json.num_of_int pid);
           ("tid", Json.num_of_int tid);
         ]
        @ if args = [] then [] else [ ("args", json_of_args args) ])
  | Tracer.Counter_sample { name; ts_ns; pid; tid; series } ->
      Json.Obj
        [
          ("name", Json.Str name);
          ("ph", Json.Str "C");
          ("ts", Json.Num (us ts_ns));
          ("pid", Json.num_of_int pid);
          ("tid", Json.num_of_int tid);
          ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) series));
        ]

let metadata_event pid name =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("ts", Json.Num 0.0);
      ("pid", Json.num_of_int pid);
      ("tid", Json.num_of_int 0);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let process_names = [ (0, "normal-world"); (1, "secure-world") ]

let to_json tracer =
  let events =
    List.map (fun (pid, name) -> metadata_event pid name) process_names
    @ List.map json_of_event (Tracer.events tracer)
  in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ])

let write_file tracer ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json tracer))
