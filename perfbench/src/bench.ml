(* perfbench: run one workload and print its metrics.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one line per metric, then as its last line a JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with [--trace 0], the per-layer ones with [--trace 1].  A traced run
   also writes its spans (Chrome trace_event format) and its per-layer
   self-time table under [_perfbench/]. *)

open Perfbench
module J = Autocfd_obs.Json

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let root = "_perfbench"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Work.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Work.names) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let c, iters =
    Runner.run ~root ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:traced ()
  in
  let metrics =
    if traced then Runner.per_layer c ~iters else Runner.end_to_end c
  in
  if traced then begin
    let base = Filename.concat root !workload in
    write_file (base ^ "-spans.json")
      (J.to_string (Spans.chrome (Spans.spans c.Runner.sp)));
    let table = Runner.self_table c ~iters in
    write_file (base ^ "-selftime.txt") table;
    print_string table
  end;
  let ck = c.Runner.ck in
  List.iter (fun n -> prerr_endline ("perfbench: FAILED " ^ n)) (List.rev ck.Work.notes);
  Printf.printf "workload %s seed %d: %d iteration(s), %d operations, %d failed, error_rate %g\n"
    !workload !seed iters ck.Work.attempted ck.Work.failed
    (float_of_int ck.Work.failed /. float_of_int (max 1 ck.Work.attempted));
  List.iter
    (fun (m : Runner.metric) ->
      Printf.printf "%-28s %16.9g %-10s (%s)\n" m.Runner.m_name m.Runner.m_value
        m.Runner.m_unit m.Runner.m_note)
    metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (ck.Work.failed = 0));
            ("attempted", J.Int ck.Work.attempted);
            ("failed", J.Int ck.Work.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (m : Runner.metric) ->
                     ( m.Runner.m_name,
                       J.Obj
                         [
                           ("value", J.Float m.Runner.m_value);
                           ("unit", J.Str m.Runner.m_unit);
                         ] ))
                   metrics) );
          ]))
