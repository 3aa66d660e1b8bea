(** The sweep wiring, table renderers and CI gates behind the [tables],
    [tune] and [bench] verbs of {!Autocfd_cli}.

    Table output goes to stdout and is byte-identical for any [--jobs]
    value, over the in-process pool or the fabric, and for cold vs warm
    caches; scheduler, cache and fabric statistics go to stderr.  Every
    gate prints an [OK ...] line and returns, or prints a [FAIL ...]
    line to stderr and exits 1. *)

module E = Autocfd.Experiments
module D = Autocfd.Driver
module S = Autocfd_syncopt
module Sched = Autocfd_sched
module Json = Autocfd_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt
let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))

let shape parts =
  String.concat " x " (Array.to_list (Array.map string_of_int parts))

(* ------------------------------------------------------------------ *)
(* Sweep setup and teardown                                            *)
(* ------------------------------------------------------------------ *)

(* the sweep options every table-regenerating verb shares *)
type sweep_opts = {
  jobs : int;
  workers : int;  (** fabric worker processes; 0 stays in-process *)
  cache : bool;
  cache_dir : string;
}

let default_cache_dir = "_autocfd_cache"

let open_cache dir =
  try Sched.Cache.create ~dir ()
  with Sys_error msg ->
    Printf.eprintf "autocfd: unusable cache directory: %s\n" msg;
    exit 1

(* a gate's private, emptied cache: [suffix] keeps it apart from the
   user's default cache unless --cache-dir names one explicitly *)
let scratch_cache so suffix =
  let dir =
    if so.cache_dir = default_cache_dir then default_cache_dir ^ suffix
    else so.cache_dir
  in
  let cache = open_cache dir in
  Sched.Cache.clear cache;
  cache

(* a fabric master listening on a private unix socket, with [n] worker
   processes re-execing this very binary's [worker] verb *)
let make_fabric ?cfg n =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocfd-fabric-%d.sock" (Unix.getpid ()))
  in
  let fb = Sched.Fabric.create ?cfg ~listen:(Sched.Fabric.Unix_path sock) () in
  let addr = Sched.Fabric.addr_to_string (Sched.Fabric.addr fb) in
  for _ = 1 to n do
    ignore
      (Sched.Fabric.spawn_worker fb
         ~argv:[| Sys.executable_name; "worker"; "--connect"; addr |])
  done;
  fb

(* run [f] over a sweep with the persistent cache (unless disabled) and,
   with [workers > 0], the distributed fabric; then report the
   scheduler and fabric statistics and shut the fabric down *)
let with_sweep so f =
  let cache = if so.cache then Some (open_cache so.cache_dir) else None in
  let fabric = if so.workers > 0 then Some (make_fabric so.workers) else None in
  let sw = E.sweep ~jobs:so.jobs ?cache ?fabric () in
  let result = f sw in
  let stats = E.sweep_stats sw in
  if stats <> [] then
    prerr_string
      (Autocfd.Report.sched_summary ~stale:(E.sweep_stale sw) stats);
  Option.iter
    (fun fb ->
      prerr_string (Autocfd.Report.fabric_summary (Sched.Fabric.stats fb));
      Sched.Fabric.shutdown fb)
    fabric;
  result

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(* Ablation: the paper's optimal combining (Fig. 6(b)) vs the
   suboptimal first-fit strategy (Fig. 6(c)) *)
let ablation () =
  let open Autocfd_util.Table in
  let table =
    create
      ~title:
        "Ablation: optimal combining (Fig. 6(b)) vs first-fit (Fig. 6(c))"
      ~headers:
        [ "program"; "partition"; "before"; "optimal after";
          "first-fit after" ]
  in
  let run src name partitions =
    let t = D.load src in
    List.iter
      (fun parts ->
        let opt = D.plan ~spec:(parts_spec parts) t in
        let ff =
          D.plan
            ~spec:
              (Autocfd.Runspec.with_combine S.Optimizer.First_fit
                 (parts_spec parts))
            t
        in
        add_row table
          [
            name;
            shape parts;
            cell_int opt.D.opt.S.Optimizer.before;
            cell_int opt.D.opt.S.Optimizer.after;
            cell_int ff.D.opt.S.Optimizer.after;
          ])
      partitions
  in
  run (Autocfd_apps.Aerofoil.source ()) "aerofoil"
    [ [| 4; 1; 1 |]; [| 4; 4; 1 |]; [| 2; 2; 2 |] ];
  run (Autocfd_apps.Sprayer.source ()) "sprayer"
    [ [| 4; 1 |]; [| 4; 4 |] ];
  render table

(* Partition advisor: the paper's volume heuristic vs the full model *)
let advisor () =
  let open Autocfd_util.Table in
  let module M = Autocfd_perfmodel.Model in
  let table =
    create
      ~title:
        "Partition advisor: minimal-communication choice (paper 4.1) vs \
         model-predicted best"
      ~headers:
        [ "program"; "procs"; "volume choice"; "model choice";
          "volume time (s)"; "model time (s)" ]
  in
  let run name src nprocs_list =
    let t = D.load src in
    List.iter
      (fun nprocs ->
        let pv = D.auto_parts t ~nprocs in
        let pm = D.auto_parts_by_model t ~nprocs in
        let time parts =
          let plan = D.plan ~spec:(parts_spec parts) t in
          (M.predict_parallel E.machine ~gi:t.D.gi ~topo:plan.D.topo
             plan.D.spmd)
            .M.time
        in
        add_row table
          [
            name; cell_int nprocs; shape pv; shape pm;
            cell_float ~decimals:0 (time pv);
            cell_float ~decimals:0 (time pm);
          ])
      nprocs_list
  in
  run "aerofoil"
    (Autocfd_apps.Aerofoil.source ~ntime:E.aerofoil_frames ())
    [ 4; 6 ];
  run "sprayer"
    (Autocfd_apps.Sprayer.source ~ntime:E.sprayer_frames ())
    [ 4; 6 ];
  render table

(* the pooled tables, in print order: what the determinism gates compare *)
let sweep_tables =
  [
    ("1", fun sw -> E.render_table1 (E.table1 ~sweep:sw ()));
    ( "2",
      fun sw ->
        E.render_perf
          ~title:
            "Table 2: overall performance of case study 1 (aerofoil, \
             99 x 41 x 13; ours vs paper)"
          (E.table2 ~sweep:sw ()) );
    ( "3",
      fun sw ->
        E.render_perf
          ~title:
            "Table 3: overall performance of case study 2 (sprayer, \
             300 x 100; ours vs paper)"
          (E.table3 ~sweep:sw ()) );
    ("4", fun sw -> E.render_table4 (E.table4 ~sweep:sw ()));
    ("5", fun sw -> E.render_table5 (E.table5 ~sweep:sw ()));
    ("validate", fun sw -> E.render_validation (E.validate_model ~sweep:sw ()));
  ]

(* every renderer [tables WHICH] can name; "all" prints them in order,
   separated by blank lines *)
let tables =
  sweep_tables
  @ [ ("ablation", fun _ -> ablation ()); ("advisor", fun _ -> advisor ()) ]

let render_all renderers sw =
  String.concat "\n" (List.map (fun (_, render) -> render sw) renderers)

let render_tunes results =
  String.concat "\n" (List.map Autocfd.Tune.render results)

(* ------------------------------------------------------------------ *)
(* The three-pass determinism gate of tables --check and tune --check  *)
(*   0. serial, no cache            — the reference rendering           *)
(*   1. parallel, cold cache        — must render byte-identically      *)
(*   2. parallel, warm cache        — byte-identical and 100% hits      *)
(* [render] returns a value and its rendering; the result is pass 0's   *)
(* value, the warm pass's hit count and the cold and warm pass times.   *)
(* ------------------------------------------------------------------ *)

let three_pass ~what ~jobs ~cache render =
  let pass label sweep =
    Printf.eprintf "pass %s...\n%!" label;
    let t0 = Unix.gettimeofday () in
    let v, out = render sweep in
    (v, out, Unix.gettimeofday () -. t0, E.sweep_stats sweep)
  in
  let v0, out0, _, _ = pass "0 (serial, no cache)" (E.sweep ()) in
  let _, out1, t_cold, _ =
    pass
      (Printf.sprintf "1 (parallel --jobs %d, cold cache)" jobs)
      (E.sweep ~jobs ~cache ())
  in
  let _, out2, t_warm, stats2 =
    pass
      (Printf.sprintf "2 (parallel --jobs %d, warm cache)" jobs)
      (E.sweep ~jobs ~cache ())
  in
  if out1 <> out0 then
    fail "FAIL: cold parallel %s diverged from the serial rendering" what;
  if out2 <> out0 then
    fail "FAIL: warm-cache %s diverged from the serial rendering" what;
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, (s : Sched.Pool.stats)) ->
        (h + s.Sched.Pool.ps_hits, m + s.Sched.Pool.ps_misses))
      (0, 0) stats2
  in
  if misses > 0 then
    fail "FAIL: warm pass had %d cache misses (%d hits) — expected 100%% hits"
      misses hits;
  (v0, hits, t_cold, t_warm)

(* tables --check: the CI smoke for the sweep scheduler + cache; the
   warm pass must also be at least 5x faster than the cold pass *)
let check_tables so =
  let render sw = ((), render_all sweep_tables sw) in
  let (), hits, t_cold, t_warm =
    three_pass ~what:"sweep" ~jobs:so.jobs
      ~cache:(scratch_cache so ".check") render
  in
  let speedup = t_cold /. t_warm in
  if speedup < 5.0 then
    fail "FAIL: warm pass only %.1fx faster than cold (%.2fs vs %.2fs) — \
          expected at least 5x"
      speedup t_warm t_cold;
  Printf.printf
    "OK tables: 3 passes byte-identical, warm pass %d/%d hits, %.1fx \
     faster than cold (%.2fs vs %.2fs)\n"
    hits hits speedup t_warm t_cold

(* tune --check: the three passes over both case studies' default-grid
   tunes, then the tuned winner's modelled time must not lose to any
   hand-picked Table 2/3 configuration, and the reported Pareto frontier
   must contain no dominated entry *)
let check_tune so =
  let module T = Autocfd.Tune in
  let render sw =
    let results = E.tune_table ~grid:T.Default ~sweep:sw () in
    (results, render_tunes results)
  in
  let results, hits, _, _ =
    three_pass ~what:"tune" ~jobs:so.jobs ~cache:(scratch_cache so ".tune")
      render
  in
  let sw = E.sweep () in
  let defaults =
    [ ("aerofoil", E.table2 ~sweep:sw ()); ("sprayer", E.table3 ~sweep:sw ()) ]
  in
  List.iter
    (fun (r : T.result) ->
      let w = r.T.tr_winner in
      List.iter
        (fun (row : E.perf_row) ->
          match row.E.pr_partition with
          | None -> ()  (* the sequential reference row *)
          | Some parts ->
              if w.T.te_metrics.T.tm_time > row.E.pr_time then
                fail
                  "FAIL %s: tuned winner %.1f s loses to the hand-picked \
                   %s row (%.1f s)"
                  r.T.tr_program w.T.te_metrics.T.tm_time
                  (Autocfd.Runspec.parts_to_string parts)
                  row.E.pr_time)
        (List.assoc r.T.tr_program defaults);
      List.iter
        (fun (e : T.entry) ->
          if
            List.exists
              (fun (o : T.entry) ->
                o != e && T.dominates o.T.te_metrics e.T.te_metrics)
              r.T.tr_frontier
          then
            fail "FAIL %s: frontier contains a dominated entry (%s)"
              r.T.tr_program
              (Autocfd.Runspec.parts_to_string e.T.te_parts))
        r.T.tr_frontier)
    results;
  List.iter
    (fun (r : T.result) ->
      Printf.printf
        "OK %s: winner %s at %.1f s beats every hand-picked row; frontier \
         of %d/%d is Pareto-minimal\n"
        r.T.tr_program
        (Autocfd.Runspec.parts_to_string r.T.tr_winner.T.te_parts)
        r.T.tr_winner.T.te_metrics.T.tm_time
        (List.length r.T.tr_frontier) r.T.tr_total)
    results;
  Printf.printf "OK tune: 3 passes byte-identical, warm pass %d/%d hits\n"
    hits hits

(* ------------------------------------------------------------------ *)
(* bench verbs                                                         *)
(* ------------------------------------------------------------------ *)

let load_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> fail "cannot read %s" path
  | text -> (
      try Json.of_string text
      with Json.Parse_error msg -> fail "%s: malformed JSON: %s" path msg)

(* per-nest coverage manifest gate (an [engine --check] sub-gate, also
   run by the [coverage] verb): the current build's fused-kernel
   coverage of the bundled applications must not regress against the
   committed manifest *)
let coverage_gate ~manifest ~update =
  let current = E.coverage_manifest () in
  if update then begin
    Sched.Cache.write_atomic ~path:manifest (Json.pretty current ^ "\n");
    Printf.printf "wrote %s\n" manifest
  end
  else begin
    if not (Sys.file_exists manifest) then
      fail
        "FAIL: coverage manifest %s not found (generate it with \
         --update-coverage)"
        manifest;
    let committed = load_json manifest in
    let regressions =
      try E.check_coverage_manifest ~committed ~current
      with Json.Parse_error msg ->
        fail "FAIL: malformed coverage manifest %s: %s" manifest msg
    in
    List.iter (fun m -> Printf.eprintf "FAIL coverage: %s\n" m) regressions;
    if regressions <> [] then exit 1;
    Printf.printf "OK coverage: no fused nest regressed vs %s\n" manifest
  end

let coverage ~manifest ~update =
  print_string (E.render_coverage_fission ());
  coverage_gate ~manifest ~update

(* minor words per flop above which fused kernels are boxing
   intermediates again (they did at about 4) *)
let max_fused_words_per_flop = 0.1

(* per app, the least share of a sequential fused run's flops that must
   run as row strips.  The share is a flop count, so it does not depend
   on the host: 0.792 (aerofoil) and 0.930 (sprayer) when the floors
   were set.  Falling below means some nest lost its strips *)
let min_strip_share = [ ("aerofoil", 0.75); ("sprayer", 0.9) ]

(* tree-walking vs compiled vs fused-kernel vs Domains execution.
   --check fails if any engine disagrees, the fused tier stops paying
   for itself (its speedup over the tree walker drops below the plain
   compiled engine's), allocates per flop or runs too few flops as
   row strips, then runs the coverage-manifest sub-gate *)
let engine so ~check ~manifest ~update =
  let rows = with_sweep so (fun sw -> E.engine_bench ~sweep:sw ()) in
  print_string (E.render_engine rows);
  print_newline ();
  print_string (E.render_engine_coverage rows);
  if check then
    List.iter
      (fun (r : E.engine_row) ->
        if not r.E.er_identical then
          fail "FAIL %s: engines disagree" r.E.er_program;
        if not r.E.er_domains_identical then
          fail "FAIL %s: domains engine diverged from the simulator"
            r.E.er_program;
        if r.E.er_fused_speedup < r.E.er_speedup then
          fail "FAIL %s: fused speedup %.2f below compiled speedup %.2f"
            r.E.er_program r.E.er_fused_speedup r.E.er_speedup;
        if r.E.er_fused_words_per_flop > max_fused_words_per_flop then
          fail "FAIL %s: fused kernels allocate %.4f words/flop (limit %g)"
            r.E.er_program r.E.er_fused_words_per_flop
            max_fused_words_per_flop;
        (match List.assoc_opt r.E.er_program min_strip_share with
        | Some floor when r.E.er_fused_strip_share < floor ->
            fail "FAIL %s: %.3f of the fused flops ran as row strips (floor %g)"
              r.E.er_program r.E.er_fused_strip_share floor
        | _ -> ());
        (* the point of running for real: parallel wall-clock must beat
           the single-threaded fused simulation convincingly on the 3-d
           app (4 ranks -> at least 2x).  Only enforceable when the host
           actually has the cores: on fewer, 4 domains timeslice and the
           floor is vacuous *)
        let cores = Domain.recommended_domain_count () in
        if r.E.er_program = "aerofoil" && cores >= 4 then begin
          if r.E.er_domains_speedup < 2.0 then
            fail "FAIL %s: domains speedup %.2fx below the 2x floor (%d cores)"
              r.E.er_program r.E.er_domains_speedup cores
        end
        else if r.E.er_program = "aerofoil" then
          Printf.printf
            "SKIP %s: 2x domains floor needs >= 4 cores, host has %d\n"
            r.E.er_program cores;
        Printf.printf
          "OK %s: fused %.2fx >= compiled %.2fx, %.4f words/flop, strip \
           share %.3f, domains %.2fx wall-clock, results identical\n"
          r.E.er_program r.E.er_fused_speedup r.E.er_speedup
          r.E.er_fused_words_per_flop r.E.er_fused_strip_share
          r.E.er_domains_speedup)
      rows;
  if check then
    List.iter
      (fun (r : E.engine_row) ->
        if not r.E.er_fission_identical then
          fail "FAIL %s: loop fission changed program state" r.E.er_program)
      rows;
  if check || update then coverage_gate ~manifest ~update

(* seeded fault schedules vs the reliable transport and
   checkpoint/restart.  Every schedule is recoverable, so with --check
   any divergence is a transport/recovery bug; the overhead ceiling
   catches retransmit storms and checkpoint regressions *)
let chaos so ~check =
  let rows = with_sweep so (fun sw -> E.chaos_bench ~sweep:sw ()) in
  print_string (E.render_chaos rows);
  if check then begin
    let max_overhead = 4.0 in
    List.iter
      (fun (r : E.chaos_row) ->
        if not r.E.ch_identical then
          fail "FAIL %s/%s: result diverged from fault-free run"
            r.E.ch_program r.E.ch_schedule;
        if r.E.ch_overhead > max_overhead then
          fail "FAIL %s/%s: overhead %.2fx above budget %.1fx" r.E.ch_program
            r.E.ch_schedule r.E.ch_overhead max_overhead;
        Printf.printf "OK %s/%s: identical, overhead %.2fx\n" r.E.ch_program
          r.E.ch_schedule r.E.ch_overhead)
      rows
  end

(* fabric --check: the distributed-sweep chaos gate.  Three passes over
   the pooled tables:
     0. serial, in-process           — the reference rendering
     1. master + 3 worker processes, one SIGKILLed mid-sweep — must
        render byte-identically, observe >= 1 worker death and >= 1
        requeue, and leave a Chrome trace (fabric_trace.json)
     2. master with no workers at all — must degrade to the in-process
        pool (not hang) and still render byte-identically *)
let check_fabric so =
  Printf.eprintf "pass 0 (serial, in-process)...\n%!";
  let out0 = render_all sweep_tables (E.sweep ()) in
  Printf.eprintf "pass 1 (fabric: 3 workers, 1 chaos-killed mid-sweep)...\n%!";
  let cache = scratch_cache so ".fabric" in
  let cfg =
    { Sched.Fabric.default_cfg with Sched.Fabric.fb_chaos_kill = Some 3 }
  in
  let fabric = make_fabric ~cfg 3 in
  let tracer = Autocfd_obs.Trace.create () in
  let out1 = render_all sweep_tables (E.sweep ~cache ~tracer ~fabric ()) in
  let st = Sched.Fabric.stats fabric in
  prerr_string (Autocfd.Report.fabric_summary st);
  Sched.Cache.write_atomic ~path:"fabric_trace.json"
    (Autocfd_obs.Chrome.to_string tracer);
  Printf.eprintf "wrote fabric_trace.json\n%!";
  Sched.Fabric.shutdown fabric;
  if out1 <> out0 then
    fail "FAIL: fabric sweep diverged from the serial rendering";
  if st.Sched.Fabric.fs_worker_deaths < 1 then
    fail "FAIL: chaos kill did not register a worker death";
  if st.Sched.Fabric.fs_requeues < 1 then
    fail "FAIL: the killed worker's lease was not requeued";
  if st.Sched.Fabric.fs_degraded then
    fail "FAIL: the 3-worker pass unexpectedly degraded";
  Printf.eprintf "pass 2 (fabric: no workers, short grace)...\n%!";
  let cfg2 = { Sched.Fabric.default_cfg with Sched.Fabric.fb_grace = 0.3 } in
  let fabric2 = make_fabric ~cfg:cfg2 0 in
  let out2 = render_all sweep_tables (E.sweep ~fabric:fabric2 ()) in
  let st2 = Sched.Fabric.stats fabric2 in
  Sched.Fabric.shutdown fabric2;
  if out2 <> out0 then
    fail "FAIL: degraded sweep diverged from the serial rendering";
  if not st2.Sched.Fabric.fs_degraded then
    fail "FAIL: worker-less sweep did not report degradation";
  Printf.printf
    "OK fabric: 3 passes byte-identical; chaos pass survived %d worker \
     death(s) with %d requeue(s) and %d retries; worker-less pass degraded \
     to the in-process pool\n"
    st.Sched.Fabric.fs_worker_deaths st.Sched.Fabric.fs_requeues
    st.Sched.Fabric.fs_retries

(* the pooled tables over the distributed fabric (default 3 workers) *)
let fabric so ~check =
  if check then check_fabric so
  else
    let so = { so with workers = (if so.workers > 0 then so.workers else 3) } in
    print_string (with_sweep so (render_all sweep_tables))

(* write BENCH_tables.json; optionally (over-)write the baseline from it
   or gate it against the baseline ({!Autocfd.Baseline}) *)
let baseline so ~path ~check_regress ~update ~tolerance =
  let doc = with_sweep so (fun sw -> E.tables_json ~sweep:sw ()) in
  let text = Json.pretty doc ^ "\n" in
  Sched.Cache.write_atomic ~path:"BENCH_tables.json" text;
  Printf.printf "wrote BENCH_tables.json\n";
  if update then begin
    Sched.Cache.write_atomic ~path text;
    Printf.printf "wrote %s\n" path
  end;
  if check_regress then begin
    let failures =
      Autocfd.Baseline.compare_tables ~tolerance ~baseline:(load_json path)
        ~current:doc ()
    in
    print_string (Autocfd.Baseline.render_failures failures);
    if failures <> [] then exit 1
  end

(* Bechamel micro-benchmarks of the pipeline stages behind each table *)
let micro () =
  let open Bechamel in
  let aero = D.load (Autocfd_apps.Aerofoil.source ()) in
  let spray = D.load (Autocfd_apps.Sprayer.source ()) in
  let small = D.load (Autocfd_apps.Sprayer.source ~ni:40 ~nj:20 ~ntime:3 ()) in
  let small_plan = D.plan ~spec:(parts_spec [| 2; 2 |]) small in
  let small_aero =
    D.load (Autocfd_apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:2 ())
  in
  let run_engine engine plan () =
    ignore (D.run ~spec:Autocfd.Runspec.(with_engine engine default) plan)
  in
  let plan t parts () = ignore (D.plan ~spec:(parts_spec parts) t) in
  let predict t parts =
    let plan = D.plan ~spec:(parts_spec parts) t in
    fun () ->
      ignore
        (Autocfd_perfmodel.Model.predict_parallel E.machine ~gi:t.D.gi
           ~topo:plan.D.topo plan.D.spmd)
  in
  let engines name plan =
    List.map
      (fun (label, engine) ->
        Test.make
          ~name:(Printf.sprintf "engine:%s (%s, 4 ranks)" label name)
          (Staged.stage (run_engine engine plan)))
      Autocfd_interp.Spmd.
        [ ("tree-walk", Tree); ("compiled", Compiled); ("fused", Fused) ]
  in
  let tests =
    [
      (* Table 1 pipeline stage: full analysis + sync optimization *)
      Test.make ~name:"table1:analyze+optimize (aerofoil 4x1x1)"
        (Staged.stage (plan aero [| 4; 1; 1 |]));
      Test.make ~name:"table1:analyze+optimize (sprayer 4x4)"
        (Staged.stage (plan spray [| 4; 4 |]));
      (* Tables 2/3: the analytic performance prediction *)
      Test.make ~name:"table2:predict (aerofoil 3x2x1)"
        (Staged.stage (predict aero [| 3; 2; 1 |]));
      Test.make ~name:"table3:predict (sprayer 2x2)"
        (Staged.stage (predict spray [| 2; 2 |]));
      (* Table 4 stage: frontend parse + inline across grid sizes *)
      Test.make ~name:"table4:parse+inline (sprayer 160x60)"
        (Staged.stage (fun () ->
             ignore (D.load (Autocfd_apps.Sprayer.source ~ni:160 ~nj:60 ()))));
      (* Table 5 stage / correctness path: simulated SPMD execution *)
      Test.make ~name:"table5:spmd-execute (sprayer 40x20, 4 ranks)"
        (Staged.stage (fun () -> ignore (D.run small_plan)));
    ]
    (* execution engines head to head on the same simulated runs *)
    @ engines "sprayer 40x20" small_plan
    @ engines "aerofoil 16x10x6"
        (D.plan ~spec:(parts_spec [| 2; 2; 1 |]) small_aero)
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock
          (Benchmark.all cfg instances test)
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-50s %12.3f us/run\n" name (est /. 1000.)
          | _ -> Printf.printf "%-50s (no estimate)\n" name)
        ols)
    tests
