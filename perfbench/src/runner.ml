(* One benchmark run: set up, iterate for the requested seconds, check
   every output, and turn the samples into metrics.

   The untraced run ([trace = false]) yields the end-to-end metrics.  The
   traced run yields the per-layer metrics: it calls the pre-compiler
   phase by phase inside spans, runs the simulator with a tracer and the
   reference machine, and times an untraced run job beside each traced
   one for the tracing overhead. *)

open Work

type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

type samples = {
  mutable setup_s : float list;
  mutable run_s : float list;
  mutable seq_s : float list;
  mutable sim_s : float list;
  mutable par_s : float list;
  mutable precompile_s : float list;
  mutable tune_s : float list;
  mutable tune_warm_s : float list;
  mutable layer : (string * (string * float list)) list;
      (** traced per-layer samples: name -> (unit, values) *)
  counts : (string, float) Hashtbl.t;  (** exact counts: first value seen *)
}

let new_samples () =
  {
    setup_s = [];
    run_s = [];
    seq_s = [];
    sim_s = [];
    par_s = [];
    precompile_s = [];
    tune_s = [];
    tune_warm_s = [];
    layer = [];
    counts = Hashtbl.create 16;
  }

let add_layer s name unit v =
  let unit', vs = try List.assoc name s.layer with Not_found -> (unit, []) in
  s.layer <- (name, (unit', v :: vs)) :: List.remove_assoc name s.layer

(* an exact count: recorded once, and checked equal on every repeat *)
let count ck s name v =
  match Hashtbl.find_opt s.counts name with
  | None -> Hashtbl.replace s.counts name v
  | Some v0 ->
      check ck
        (Printf.sprintf "exact count %s varied: %.17g then %.17g" name v0 v)
        (fun () -> Float.equal v0 v)

type ctx = {
  w : workload;
  shapes : (program * int array list) list;
  ck : checks;
  s : samples;
  sp : Spans.t;
  root : string;  (** scratch directory for caches and artifacts *)
}

let span c = Spans.with_span c.sp

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* everything before the first timed iteration: source generation, the
   first cold load and plan of every program, filling the compile memo
   for the execution instance, result-cache directory creation *)
let setup ?shrunk ~seed ~root name =
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Gc.compact ();
  let cache_dir = fresh_dir ~root "setup-cache" in
  let (w, shapes), dt =
    timed (fun () ->
        let w = make ?shrunk name ~seed in
        ignore (Sched.Cache.create ~dir:cache_dir ());
        let t = D.load w.exec.source in
        let pl = D.plan ~spec:(spec_for w.exec_parts) t in
        ignore (I.Compile.of_unit ~fuse:true t.D.inlined);
        ignore (I.Compile.of_unit ~fuse:true pl.D.spmd);
        let shapes =
          List.map (fun p -> (p, feasible_shapes (D.load p.source))) w.programs
        in
        (w, shapes))
  in
  rm_rf cache_dir;
  (w, shapes, dt)

(* ------------------------------------------------------------------ *)
(* The run job and the Domains run                                      *)
(* ------------------------------------------------------------------ *)

type job = {
  j_plan : D.plan;
  j_seq : D.seq_result;
  j_sim : I.Spmd.result;
  j_div : (string * float) list;
  j_run_s : float;
  j_seq_s : float;
  j_sim_s : float;
  j_words : float;  (** minor words allocated by [run_seq] *)
  j_minor_gcs : int;
}

(* [autocfd run]'s job body with the cache off: load, plan, sequential
   run, simulated run (default spec: Fused engine), divergence *)
let run_job ?sim_spec c =
  let w = c.w and sp = c.sp in
  let span name f = Spans.with_span sp name f in
  let spec = spec_for w.exec_parts in
  let sim_spec = Option.value sim_spec ~default:spec in
  let t0 = now () in
  let r =
    span "core.run_job" (fun () ->
        let t = span "core.load" (fun () -> load sp w.exec.source) in
        let pl = span "core.plan" (fun () -> plan sp t w.exec_parts) in
        (* traced, the sequential unit is compiled first, so the words
           counted below are those the execution allocates; the memo
           update of a compile inside [run_seq] allocates more on each
           repeat *)
        if sp.Spans.enabled then
          span "interp.compile_seq" (fun () ->
              ignore (I.Compile.of_unit ~fuse:true t.D.inlined));
        let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.minor_collections in
        let seq, seq_s =
          span "interp.run_seq" (fun () -> timed (fun () -> D.run_seq t))
        in
        let w1 = Gc.minor_words () and g1 = (Gc.quick_stat ()).Gc.minor_collections in
        let sim, sim_s =
          span "interp.run_sim" (fun () ->
              timed (fun () -> D.run ~spec:sim_spec pl))
        in
        let div = span "interp.compare" (fun () -> D.max_divergence seq sim) in
        (pl, seq, sim, div, seq_s, sim_s, w1 -. w0, g1 - g0))
  in
  let pl, seq, sim, div, seq_s, sim_s, words, gcs = r in
  {
    j_plan = pl;
    j_seq = seq;
    j_sim = sim;
    j_div = div;
    j_run_s = now () -. t0;
    j_seq_s = seq_s;
    j_sim_s = sim_s;
    j_words = words;
    j_minor_gcs = gcs;
  }

let record_job c j =
  let ck = c.ck and s = c.s in
  check_outputs ck c.w j.j_seq j.j_sim j.j_div;
  let st = j.j_sim.I.Spmd.stats in
  count ck s "interp.seq_flops" j.j_seq.D.sq_flops;
  count ck s "mpsim.messages" (float_of_int st.Autocfd_mpsim.Sim.messages);
  count ck s "mpsim.bytes" (float_of_int st.Autocfd_mpsim.Sim.bytes);
  count ck s "mpsim.collectives" (float_of_int st.Autocfd_mpsim.Sim.collectives);
  let opt = j.j_plan.D.opt in
  count ck s "syncopt.syncs_before" (float_of_int opt.S.Optimizer.before);
  count ck s "syncopt.syncs_after" (float_of_int opt.S.Optimizer.after);
  count ck s "analysis.sldp_pairs"
    (float_of_int (List.length j.j_plan.D.sldp.A.Sldp.pairs))

let domains_run c (pl : D.plan) =
  span c "interp.run_domains" (fun () ->
      timed (fun () ->
          D.run
            ~spec:R.(spec_for c.w.exec_parts |> with_engine I.Spmd.Domains)
            pl))

let exec_part c =
  match attempt c.ck "run job" (fun () -> run_job c) with
  | None -> ()
  | Some j -> (
      record_job c j;
      c.s.run_s <- j.j_run_s :: c.s.run_s;
      c.s.seq_s <- j.j_seq_s :: c.s.seq_s;
      c.s.sim_s <- j.j_sim_s :: c.s.sim_s;
      match attempt c.ck "domains run" (fun () -> domains_run c j.j_plan) with
      | Some (dom, par_s) ->
          c.s.par_s <- par_s :: c.s.par_s;
          check c.ck "Domains run differs from the simulator" (fun () ->
              same_program_state dom j.j_sim);
          Option.iter
            (fun ds ->
              count c.ck c.s "mpsim.barrier_calls"
                (float_of_int ds.I.Spmd.ds_barrier_calls))
            dom.I.Spmd.domains
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Parallelize and tune                                                 *)
(* ------------------------------------------------------------------ *)

(* [autocfd parallelize] for every (program, shape): load, plan, SPMD
   source, MPI source *)
let precompile_pass c =
  let mpi_bytes = ref 0 in
  List.iter
    (fun (p, shapes) ->
      List.iter
        (fun parts ->
          match
            attempt c.ck "parallelize" (fun () ->
                timed (fun () ->
                    span c "core.precompile" (fun () ->
                        let t = span c "core.load" (fun () -> load c.sp p.source) in
                        let pl = span c "core.plan" (fun () -> plan c.sp t parts) in
                        let spmd =
                          span c "codegen.spmd_source" (fun () -> D.spmd_source pl)
                        in
                        let mpi =
                          span c "codegen.mpi_emit" (fun () -> D.mpi_source pl)
                        in
                        (pl, String.length spmd + String.length mpi))))
          with
          | Some ((pl, n), dt) ->
              c.s.precompile_s <- dt :: c.s.precompile_s;
              mpi_bytes := !mpi_bytes + n;
              if c.sp.Spans.enabled then
                span c "perfmodel.predict" (fun () ->
                    let gi = pl.D.source.D.gi and topo = pl.D.topo in
                    ignore (PM.census ~gi ~topo pl.D.spmd);
                    ignore (PM.predict_parallel X.machine ~gi ~topo pl.D.spmd))
          | None -> ())
        shapes)
    c.shapes;
  count c.ck c.s "codegen.mpi_bytes" (float_of_int !mpi_bytes)

let tune_all ~sweep c =
  List.map
    (fun p ->
      X.tune_program ~grid:Tune.Default ~sweep ~program:p.pname
        ~source:p.source ())
    c.w.programs

(* hit ratio and worst worker utilization of one tune call; errors and
   corrupt entries are returned for the pass to count *)
let sched_stats c label stats =
  let open Sched.Pool in
  let sum f = List.fold_left (fun a (_, st) -> a + f st) 0 stats in
  let jobs = sum (fun st -> st.ps_jobs) in
  add_layer c.s
    (Printf.sprintf "sched.hit_ratio_%s" label)
    "ratio"
    (float_of_int (sum (fun st -> st.ps_hits)) /. float_of_int (max 1 jobs));
  if label = "cold" then
    add_layer c.s "sched.utilization" "ratio"
      (List.fold_left
         (fun a (_, st) ->
           let u = ref a in
           Array.iteri (fun w _ -> u := Float.min !u (utilization st w)) st.ps_busy;
           !u)
         1.0 stats);
  (sum (fun st -> st.ps_errors), sum (fun st -> st.ps_corrupt))

(* a cold tune on a fresh result cache, then the same call warm; the two
   renderings must be byte-identical *)
let tune_pass c =
  let dir = fresh_dir ~root:c.root "tune-cache" in
  let tune label =
    let sweep = X.sweep ~jobs:2 ~cache:(Sched.Cache.create ~dir ()) () in
    let r =
      attempt c.ck ("tune " ^ label) (fun () ->
          timed (fun () -> span c ("core.tune_" ^ label) (fun () -> tune_all ~sweep c)))
    in
    (r, sched_stats c label (X.sweep_stats sweep))
  in
  let cold, (e1, k1) = tune "cold" in
  let warm, (e2, k2) = tune "warm" in
  rm_rf dir;
  count c.ck c.s "sched.errors" (float_of_int (e1 + e2));
  count c.ck c.s "sched.corrupt" (float_of_int (k1 + k2));
  match (cold, warm) with
  | Some (rc, dc), Some (rw, dw) ->
      c.s.tune_s <- dc :: c.s.tune_s;
      c.s.tune_warm_s <- dw :: c.s.tune_warm_s;
      let text rs =
        String.concat "\n"
          (List.map (fun r -> J.to_string (Tune.result_to_json r)) rs)
      in
      check c.ck "cold and warm tune results differ" (fun () ->
          text rc = text rw)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Traced-only calls                                                    *)
(* ------------------------------------------------------------------ *)

(* every tune point evaluated one by one (plan + model), then stored in
   and read back from a fresh result cache *)
let tune_points_pass c =
  let cache =
    Sched.Cache.create ~dir:(fresh_dir ~root:c.root "point-cache") ()
  in
  let points = ref 0 in
  List.iter
    (fun p ->
      let t = D.load p.source in
      List.iter
        (fun rspec ->
          incr points;
          match
            attempt c.ck "tune point" (fun () ->
                span c "core.tune_point" (fun () ->
                    Tune.eval ~machine:X.machine ~source:p.source rspec))
          with
          | None -> ()
          | Some e ->
              let v = Tune.entry_to_json e in
              let job =
                Sched.Job.make ~label:p.pname
                  ~key:
                    (J.Obj
                       [
                         ("program", J.Str p.pname);
                         ("spec", R.to_json rspec);
                         ("src", J.Str (Sched.Job.digest p.source));
                       ])
                  (fun () -> v)
              in
              span c "sched.cache_store" (fun () ->
                  Sched.Cache.store cache job v);
              let back =
                span c "sched.cache_lookup" (fun () ->
                    Sched.Cache.lookup cache job)
              in
              check c.ck "cache lookup returned another value" (fun () ->
                  Option.map J.canonical back = Some (J.canonical v)))
        (Tune.points Tune.Default t))
    c.w.programs;
  rm_rf (Sched.Cache.dir cache);
  count c.ck c.s "core.tune_points" (float_of_int !points)

let search_pass c =
  let feasible = ref 0 in
  List.iter
    (fun (p, shapes) ->
      feasible := !feasible + List.length shapes;
      let grid = (D.load p.source).D.gi.A.Grid_info.grid in
      List.iter
        (fun nprocs ->
          ignore
            (span c "partition.search" (fun () ->
                 P.Topology.search ~grid ~nprocs
                   ~depth:(Array.make (Array.length grid) 1))))
        rank_counts)
    c.shapes;
  count c.ck c.s "partition.feasible_shapes" (float_of_int !feasible)

(* the per-layer figures of one traced run job and Domains run *)
let traced_exec c =
  let tr = Obs.Trace.create () in
  let sim_spec =
    R.(spec_for c.w.exec_parts |> with_tracer (Some tr) |> with_machine (Some X.machine))
  in
  match attempt c.ck "traced run job" (fun () -> run_job ~sim_spec c) with
  | None -> None
  | Some j ->
      record_job c j;
      count c.ck c.s "interp.seq_words_per_flop" (j.j_words /. j.j_seq.D.sq_flops);
      let cu =
        span c "interp.compile" (fun () ->
            I.Compile.compile ~fuse:true j.j_plan.D.spmd)
      in
      let cov = I.Compile.coverage cu in
      count c.ck c.s "interp.nests" (float_of_int (List.length cov));
      count c.ck c.s "interp.fused_nests"
        (float_of_int
           (List.length (List.filter (fun e -> e.I.Compile.cov_fused) cov)));
      add_layer c.s "interp.seq_minor_gcs" "count" (float_of_int j.j_minor_gcs);
      let pred =
        span c "perfmodel.predict" (fun () ->
            let gi = j.j_plan.D.source.D.gi and topo = j.j_plan.D.topo in
            PM.predict_parallel X.machine ~gi ~topo j.j_plan.D.spmd)
      in
      add_layer c.s "perfmodel.model_sim_ratio" "ratio"
        (pred.PM.time /. j.j_sim.I.Spmd.stats.Autocfd_mpsim.Sim.elapsed);
      let m = span c "obs.metrics" (fun () -> Obs.Metrics.of_trace tr) in
      let vmax f =
        Array.fold_left (fun a r -> Float.max a (f r)) 0.0 m.Obs.Metrics.ranks
      in
      add_layer c.s "mpsim.virt_compute_s" "s" (vmax (fun r -> r.Obs.Metrics.rr_compute));
      add_layer c.s "mpsim.virt_comm_s" "s" (vmax (fun r -> r.Obs.Metrics.rr_comm));
      add_layer c.s "mpsim.virt_blocked_s" "s" (vmax (fun r -> r.Obs.Metrics.rr_blocked));
      add_layer c.s "obs.trace_events" "count" (float_of_int (Obs.Trace.length tr));
      Some j

let domain_layer c (dom : I.Spmd.result) =
  match dom.I.Spmd.domains with
  | None -> ()
  | Some ds ->
      let amax a = Array.fold_left Float.max 0.0 a in
      count c.ck c.s "mpsim.barrier_calls" (float_of_int ds.I.Spmd.ds_barrier_calls);
      add_layer c.s "mpsim.barrier_wait_s" "s" (amax ds.I.Spmd.ds_barrier_wait);
      add_layer c.s "mpsim.barrier_wait_share" "ratio"
        (amax
           (Array.mapi
              (fun r w -> w /. Float.max 1e-9 ds.I.Spmd.ds_rank_wall.(r))
              ds.I.Spmd.ds_barrier_wait));
      add_layer c.s "mpsim.compute_s" "s" (amax ds.I.Spmd.ds_compute);
      let bytes, secs =
        List.fold_left
          (fun (b, t) (n, s) -> (b + n, t +. s))
          (0, 0.0) ds.I.Spmd.ds_comm_samples
      in
      if secs > 0.0 then
        add_layer c.s "mpsim.halo_mb_per_s" "MB/s" (float_of_int bytes /. secs /. 1e6)

(* ------------------------------------------------------------------ *)
(* Iterations                                                          *)
(* ------------------------------------------------------------------ *)

let iteration c =
  (* every iteration starts from a compacted heap, as a fresh process
     would *)
  Gc.compact ();
  if not c.sp.Spans.enabled then begin
    exec_part c;
    precompile_pass c;
    for _ = 1 to c.w.tune_reps do
      tune_pass c
    done
  end
  else begin
    (* the untraced twin of the traced run job, outside every span *)
    let untraced = { c with sp = Spans.create ~enabled:false } in
    let base = attempt c.ck "run job" (fun () -> run_job untraced) in
    Option.iter
      (fun j ->
        record_job c j;
        c.s.run_s <- j.j_run_s :: c.s.run_s;
        c.s.seq_s <- j.j_seq_s :: c.s.seq_s;
        c.s.sim_s <- j.j_sim_s :: c.s.sim_s)
      base;
    span c "bench.iteration" (fun () ->
        (match traced_exec c with
        | Some j -> (
            Option.iter
              (fun b ->
                add_layer c.s "obs.trace_overhead" "ratio" (j.j_run_s /. b.j_run_s))
              base;
            match attempt c.ck "domains run" (fun () -> domains_run c j.j_plan) with
            | Some (dom, par_s) ->
                c.s.par_s <- par_s :: c.s.par_s;
                check c.ck "Domains run differs from the simulator" (fun () ->
                    same_program_state dom j.j_sim);
                domain_layer c dom
            | None -> ())
        | None -> ());
        precompile_pass c;
        search_pass c;
        tune_points_pass c;
        tune_pass c)
  end

(* the decomposed phases must print the program [Driver.plan] prints, so
   the per-layer times measure the path users run *)
let check_phases c =
  let quiet = Spans.create ~enabled:false in
  List.iter
    (fun (p, shapes) ->
      List.iter
        (fun parts ->
          check c.ck
            (Printf.sprintf "phase-by-phase %s %s differs from Driver.plan"
               p.pname (R.parts_to_string parts))
            (fun () ->
              let mine = plan_phases quiet (load_phases quiet p.source) parts in
              let theirs = D.plan ~spec:(spec_for parts) (D.load p.source) in
              D.spmd_source mine = D.spmd_source theirs
              && D.mpi_source mine = D.mpi_source theirs))
        (match shapes with s :: _ -> [ s ] | [] -> []))
    ((c.w.exec, [ c.w.exec_parts ]) :: c.shapes)

let setup_reps = 15
let min_precompile = 100

(* [iterations], when given, replaces the time limit: the tests use it to
   make runs of a fixed length *)
let run ~root ?shrunk ?iterations ~workload ~seed ~seconds ~trace () =
  let setups =
    List.init setup_reps (fun _ -> setup ?shrunk ~seed ~root workload)
  in
  let w, shapes, _ = List.nth setups (setup_reps - 1) in
  let s = new_samples () in
  s.setup_s <- List.map (fun (_, _, dt) -> dt) setups;
  let c =
    { w; shapes; ck = new_checks (); s; sp = Spans.create ~enabled:trace; root }
  in
  check_phases c;
  let deadline = now () +. float_of_int seconds in
  let iters = ref 0 in
  (* another iteration starts when it is expected to end no later than
     half an iteration past the deadline *)
  let last = ref 0.0 in
  let more () =
    match iterations with
    | Some n -> !iters < n
    | None -> !iters = 0 || now () +. (0.5 *. !last) < deadline
  in
  while more () do
    let (), dt = timed (fun () -> iteration c) in
    last := dt;
    incr iters
  done;
  (* the p90 needs ten samples beyond it *)
  if not trace then
    while List.length s.precompile_s < min_precompile && c.ck.failed = 0 do
      precompile_pass c
    done;
  (c, !iters)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

(* every end-to-end metric: name, unit, direction *)
let end_to_end_names =
  [
    ("setup_s", "s", Lower);
    ("run_s", "s", Lower);
    ("seq_s", "s", Lower);
    ("par_s", "s", Lower);
    ("precompile_s", "s", Lower);
    ("precompile_p90_s", "s", Lower);
    ("tune_s", "s", Lower);
    ("tune_warm_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
  ]

(* per-layer times that are the median duration of the span of the same
   name (without the [_s]) *)
let span_times =
  [
    "fortran.parse"; "fortran.inline"; "analysis.fission"; "analysis.loops";
    "analysis.field_loop"; "analysis.sldp"; "partition.search";
    "syncopt.optimize"; "codegen.transform"; "codegen.mpi_emit";
    "perfmodel.predict"; "interp.compile"; "sched.cache_lookup";
    "sched.cache_store"; "core.load"; "core.plan"; "core.tune_point";
  ]

(* exact counts: identical on every repeat within a run and across runs *)
let exact_counts =
  [
    ("analysis.sldp_pairs", "count", Lower);
    ("partition.feasible_shapes", "count", Higher);
    ("syncopt.syncs_before", "count", Lower);
    ("syncopt.syncs_after", "count", Lower);
    ("codegen.mpi_bytes", "bytes", Lower);
    ("interp.nests", "count", Higher);
    ("interp.fused_nests", "count", Higher);
    ("interp.seq_flops", "flop", Lower);
    ("interp.seq_words_per_flop", "words/flop", Lower);
    ("mpsim.messages", "count", Lower);
    ("mpsim.bytes", "bytes", Lower);
    ("mpsim.collectives", "count", Lower);
    ("mpsim.barrier_calls", "count", Lower);
    ("core.tune_points", "count", Higher);
    ("sched.errors", "count", Lower);
    ("sched.corrupt", "count", Lower);
  ]

(* per-iteration samples reported as their median *)
let sampled =
  [
    ("interp.seq_minor_gcs", "count", Lower);
    ("perfmodel.model_sim_ratio", "ratio", Higher);
    ("mpsim.barrier_wait_s", "s", Lower);
    ("mpsim.barrier_wait_share", "ratio", Lower);
    ("mpsim.compute_s", "s", Lower);
    ("mpsim.halo_mb_per_s", "MB/s", Higher);
    ("mpsim.virt_compute_s", "s", Lower);
    ("mpsim.virt_comm_s", "s", Lower);
    ("mpsim.virt_blocked_s", "s", Lower);
    ("sched.hit_ratio_cold", "ratio", Lower);
    ("sched.hit_ratio_warm", "ratio", Higher);
    ("sched.utilization", "ratio", Higher);
    ("obs.trace_overhead", "ratio", Lower);
    ("obs.trace_events", "count", Lower);
  ]

let derived =
  [
    ("interp.seq_mflops", "Mflop/s", Higher);
    ("interp.sim_overhead_s", "s", Lower);
    ("interp.par_speedup", "ratio", Higher);
    ("obs.spans", "count", Lower);
    ("obs.unaccounted_share", "ratio", Lower);
  ]

(* layers whose calls the traced run wraps in spans; [mpsim] has none
   because the simulator and the shared-memory runtime are only reached
   through [Spmd.run], so their time is part of [interp]'s *)
let span_layers =
  [
    "fortran"; "analysis"; "partition"; "syncopt"; "codegen"; "perfmodel";
    "interp"; "sched"; "core"; "obs";
  ]

let per_layer_names =
  List.map (fun n -> (n ^ "_s", "s", Lower)) span_times
  @ exact_counts @ sampled @ derived
  @ List.map (fun l -> (l ^ ".self_s", "s", Lower)) span_layers

let metric name unit value note =
  { m_name = name; m_value = value; m_unit = unit; m_note = note }

let med name unit xs =
  metric name unit (Stats.median xs)
    (Printf.sprintf "median of %d, range %.4g..%.4g" (List.length xs)
       (List.fold_left Float.min infinity xs)
       (List.fold_left Float.max neg_infinity xs))

let end_to_end c =
  let s = c.s in
  let p90 =
    match Stats.p90 s.precompile_s with
    | Some v -> v
    | None -> nan
  in
  [
    med "setup_s" "s" s.setup_s;
    med "run_s" "s" s.run_s;
    med "seq_s" "s" s.seq_s;
    med "par_s" "s" s.par_s;
    med "precompile_s" "s" s.precompile_s;
    metric "precompile_p90_s" "s" p90
      (Printf.sprintf "p90 of %d" (List.length s.precompile_s));
    med "tune_s" "s" s.tune_s;
    med "tune_warm_s" "s" s.tune_warm_s;
    metric "peak_rss_mb" "MB" (peak_rss_mb ()) "VmHWM at exit";
  ]

let spans_named spans name =
  List.filter_map
    (fun (sp : Spans.span) ->
      if sp.Spans.name = name then Some (sp.Spans.t1 -. sp.Spans.t0) else None)
    spans

let per_layer c ~iters =
  let s = c.s in
  let spans = Spans.spans c.sp in
  let per_iter v = v /. float_of_int iters in
  let times =
    List.map (fun n -> med (n ^ "_s") "s" (spans_named spans n)) span_times
  in
  let absent n u = metric n u nan "absent: no sample" in
  let counts =
    List.map
      (fun (n, u, _) ->
        match Hashtbl.find_opt s.counts n with
        | Some v -> metric n u v "exact"
        | None -> absent n u)
      exact_counts
  in
  let samples =
    List.map
      (fun (n, u, _) ->
        match List.assoc_opt n s.layer with
        | Some (_, xs) -> med n u xs
        | None -> absent n u)
      sampled
  in
  let seq = Stats.median s.seq_s in
  let self = Spans.layer_self spans in
  let unaccounted =
    List.filter_map
      (fun ((sp : Spans.span), self) ->
        if sp.Spans.name = "bench.iteration" then
          Some (self /. (sp.Spans.t1 -. sp.Spans.t0))
        else None)
      (Spans.self_times spans)
  in
  let derived =
    [
      metric "interp.seq_mflops" "Mflop/s"
        (Hashtbl.find s.counts "interp.seq_flops" /. seq /. 1e6)
        "flops / median seq_s";
      med "interp.sim_overhead_s" "s" (List.map2 ( -. ) s.sim_s s.seq_s);
      metric "interp.par_speedup" "ratio"
        (seq /. Stats.median s.par_s)
        "median seq_s / median par_s";
      metric "obs.spans" "count"
        (per_iter (float_of_int (List.length spans)))
        "per iteration";
      med "obs.unaccounted_share" "ratio" unaccounted;
    ]
  in
  let selfs =
    List.map
      (fun l ->
        metric (l ^ ".self_s") "s"
          (per_iter (Option.value (List.assoc_opt l self) ~default:0.0))
          "per iteration")
      span_layers
  in
  times @ counts @ samples @ derived @ selfs

(* the per-layer self-time table of a traced run, with the share of each
   iteration that no span accounts for *)
let self_table c ~iters =
  let spans = Spans.spans c.sp in
  let self = Spans.layer_self spans in
  let total =
    List.fold_left
      (fun a (sp : Spans.span) ->
        if sp.Spans.name = "bench.iteration" then a +. (sp.Spans.t1 -. sp.Spans.t0)
        else a)
      0.0 spans
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "workload %s, %d traced iteration(s), %.3f s traced\n"
    c.w.name iters total;
  Printf.bprintf b "%-12s %12s %8s\n" "layer" "self s/iter" "share";
  List.iter
    (fun (l, v) ->
      let l = if l = "bench" then "(no span)" else l in
      Printf.bprintf b "%-12s %12.6f %7.2f%%\n" l
        (v /. float_of_int iters)
        (100.0 *. v /. total))
    self;
  Buffer.contents b
