type result = {
  rate_eps : float;
  delay_at_rate_ns : float;
  utilization : float;
  evals : int;
}

(* The bisection stops at this relative width. *)
let tolerance = 0.02

(* The long-run sustainable rate can never exceed the analytic compute
   capacity (events / (total cost / cores)); on a finite workload the
   delay criterion alone can transiently admit higher rates (the backlog
   simply hasn't grown long enough), so the search treats capacity as the
   ceiling and the delay bound as a constraint that can only push the
   result below it.  This keeps results monotone in cores and consistent
   across workload lengths. *)
let max_rate ~trace ~cores ~target_delay_ns () =
  let evals = ref 0 in
  let eval rate =
    incr evals;
    Trace.replay trace ~cores ~rate_eps:rate
  in
  let feasible r = r.Trace.max_delay_ns <= target_delay_ns in
  let total_events = Trace.total_events trace in
  let total_cost = Trace.total_cost_ns trace in
  let capacity =
    if total_cost <= 0.0 then 1e9
    else float_of_int total_events /. (total_cost /. float_of_int cores /. 1e9)
  in
  let floor_rate = Float.min 1_000.0 (capacity /. 2.0) in
  let floor_result = eval floor_rate in
  if not (feasible floor_result) then
    {
      rate_eps = 0.0;
      delay_at_rate_ns = floor_result.Trace.max_delay_ns;
      utilization = 0.0;
      evals = !evals;
    }
  else begin
    let cap_result = eval capacity in
    if feasible cap_result then
      {
        rate_eps = capacity;
        delay_at_rate_ns = cap_result.Trace.max_delay_ns;
        utilization = cap_result.Trace.utilization;
        evals = !evals;
      }
    else begin
      (* Delay-limited below capacity: bisect. *)
      let lo = ref floor_rate and lo_result = ref floor_result in
      let hi = ref capacity in
      while (!hi -. !lo) /. !hi > tolerance do
        let mid = sqrt (!lo *. !hi) in
        let r = eval mid in
        if feasible r then begin
          lo := mid;
          lo_result := r
        end
        else hi := mid
      done;
      {
        rate_eps = !lo;
        delay_at_rate_ns = !lo_result.Trace.max_delay_ns;
        utilization = !lo_result.Trace.utilization;
        evals = !evals;
      }
    end
  end
