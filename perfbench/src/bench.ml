(* The repository benchmark. Run from the repository root:

     bench.exe --workload flow|service_mix
               --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. Workload
   parameters live in perfbench/workloads.json.

     bench.exe --breakdown add16x48,parity_deep --jobs 2

   prints the one-off traced per-layer breakdown of full-manifest
   circuits instead, one JSON line per circuit. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let breakdown = ref "" and jobs = ref 2 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the service workload's inputs");
      ("--seconds", Arg.Set_float seconds, "S measured window of service_mix; a flow run makes one sweep");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--breakdown", Arg.Set_string breakdown, "C1,C2 traced breakdown of full-manifest circuits");
      ("--jobs", Arg.Set_int jobs, "N pool width of --breakdown");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  if !breakdown <> "" then Flows.breakdown ~jobs:!jobs (String.split_on_char ',' !breakdown)
  else begin
    Common.check_declarations ();
    match !workload with
    | "flow" ->
      let cfg = Common.workload_config !workload in
      if traced then Flows.run_traced cfg else Flows.run cfg
    | "service_mix" ->
      Service.run ~seed:!seed ~seconds:!seconds ~trace:traced (Common.workload_config !workload)
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  end
