(* Tests of the benchmark itself: its order statistics, its span
   arithmetic, and the exact counts it reports, on a shrunk instance of
   every workload. *)

open Perfbench

let close = Alcotest.float 1e-12

(* reference values from Python's statistics.quantiles(data, n=4) *)
let test_quantiles () =
  let q xs = Stats.quantiles ~n:4 xs in
  Alcotest.(check (list close))
    "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (list close)) "three" [ 1.0; 2.0; 3.0 ] (q [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (list close))
    "five unsorted" [ 1.625; 5.5; 8.375 ]
    (q [ 5.5; 1.25; 9.0; 2.0; 7.75 ]);
  Alcotest.(check (list close))
    "two" [ 0.1875; 0.375; 0.5625 ] (q [ 0.5; 0.25 ]);
  Alcotest.check_raises "one sample"
    (Invalid_argument "Stats.quantiles: need at least two samples") (fun () ->
      ignore (q [ 1.0 ]))

let test_median_p90 () =
  Alcotest.check close "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 0.375 (Stats.median [ 0.5; 0.25 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.(check (option close))
    "p90 needs ten samples beyond it" None
    (Stats.p90 (List.init 99 float_of_int));
  Alcotest.(check (option close))
    "p90 of 1..100" (Some 90.9)
    (Stats.p90 (List.init 100 (fun i -> float_of_int (i + 1))))

let span id name parent t0 t1 = { Spans.id; name; parent; t0; t1 }

let test_self_time () =
  (* a root with two overlapping children and one child that pokes out
     of it; only the covered part of the root's interval is subtracted *)
  let spans =
    [
      span 0 "core.run" (-1) 0.0 10.0;
      span 1 "fortran.parse" 0 1.0 4.0;
      span 2 "analysis.sldp" 0 3.0 5.0;
      span 3 "codegen.emit" 0 9.0 12.0;
      span 4 "fortran.inline" 1 2.0 3.0;
    ]
  in
  let self = Spans.self_times spans in
  let of_id i =
    snd (List.find (fun ((s : Spans.span), _) -> s.Spans.id = i) self)
  in
  Alcotest.check close "root" 5.0 (of_id 0);
  Alcotest.check close "parse minus inline" 2.0 (of_id 1);
  Alcotest.check close "leaf" 2.0 (of_id 2);
  Alcotest.check close "leaf past the root" 3.0 (of_id 3);
  Alcotest.(check (list (pair string close)))
    "per layer"
    [ ("analysis", 2.0); ("codegen", 3.0); ("core", 5.0); ("fortran", 3.0) ]
    (Spans.layer_self spans);
  Alcotest.check close "union" 5.0
    (Spans.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 5.0); (9.0, 12.0) ])

let test_recorder () =
  let r = Spans.create ~enabled:true in
  let v =
    Spans.with_span r "core.a" (fun () ->
        let b = Spans.with_span r "core.b" (fun () -> 1) in
        b + Spans.with_span r "core.c" (fun () -> 2))
  in
  Alcotest.(check int) "value" 3 v;
  let parents =
    List.map (fun (s : Spans.span) -> (s.Spans.name, s.Spans.parent)) (Spans.spans r)
  in
  Alcotest.(check (list (pair string int)))
    "parents" [ ("core.b", 0); ("core.c", 0); ("core.a", -1) ] parents;
  let off = Spans.create ~enabled:false in
  ignore (Spans.with_span off "core.a" (fun () -> ()));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off))

(* ------------------------------------------------------------------ *)
(* Exact counts on shrunk instances                                    *)
(* ------------------------------------------------------------------ *)

let traced workload ~seed ~iterations =
  let c, iters =
    Runner.run ~root:"_perfbench_test" ~shrunk:true ~iterations ~workload ~seed
      ~seconds:0 ~trace:true ()
  in
  let ck = c.Runner.ck in
  Alcotest.(check (list string))
    (workload ^ ": every check passes") [] (List.rev ck.Work.notes);
  Alcotest.(check bool) (workload ^ ": operations attempted") true
    (ck.Work.attempted > 0);
  Runner.per_layer c ~iters

let value metrics name =
  (List.find (fun (m : Runner.metric) -> m.Runner.m_name = name) metrics)
    .Runner.m_value

let exact_names = List.map (fun (n, _, _) -> n) Runner.exact_counts

let test_exact workload () =
  (* two iterations: the run itself checks every count repeats *)
  let a = traced workload ~seed:1 ~iterations:2 in
  let b = traced workload ~seed:2 ~iterations:1 in
  List.iter
    (fun n ->
      Alcotest.(check (float 0.0))
        (n ^ " repeats in another run, for another seed")
        (value a n) (value b n))
    exact_names;
  Alcotest.(check bool) "the program does work" true
    (value a "interp.seq_flops" > 0.0 && value a "mpsim.messages" > 0.0);
  Alcotest.(check int) "every per-layer metric is reported"
    (List.length Runner.per_layer_names) (List.length a)

(* BENCHMARK.json must declare exactly the metrics the benchmark prints,
   with the same unit and direction *)
let test_catalogue () =
  let module J = Autocfd_obs.Json in
  let doc =
    In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
    |> J.of_string
  in
  let declared key =
    match J.member key doc with
    | Some (J.List l) ->
        List.map
          (fun m ->
            let str k =
              match J.member k m with Some (J.Str s) -> s | _ -> "?"
            in
            (str "name", str "unit", str "better"))
          l
    | _ -> []
  in
  let mine l =
    List.map
      (fun (n, u, b) ->
        (n, u, match b with Runner.Lower -> "lower" | Runner.Higher -> "higher"))
      l
  in
  let t = Alcotest.(list (triple string string string)) in
  Alcotest.check t "end_to_end" (mine Runner.end_to_end_names)
    (declared "end_to_end");
  Alcotest.check t "per_layer" (mine Runner.per_layer_names)
    (declared "per_layer");
  Alcotest.(check (list string))
    "workloads" Work.names
    (match J.member "workloads" doc with
    | Some (J.List l) ->
        List.map
          (fun w ->
            match J.member "name" w with Some (J.Str s) -> s | _ -> "?")
          l
    | _ -> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "median and p90" `Quick test_median_p90;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick test_catalogue ]);
      ( "exact counts",
        List.map
          (fun w -> Alcotest.test_case w `Quick (test_exact w))
          Work.names );
    ]
