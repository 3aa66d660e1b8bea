module A = Autocfd_analysis
module S = Autocfd_syncopt
module P = Autocfd_partition
module M = Autocfd_perfmodel.Model
module Apps = Autocfd_apps
module Sched = Autocfd_sched
module J = Autocfd_obs.Json

let machine = M.pentium_cluster

(* frame counts scaling modelled runs to the paper's wall-clock
   magnitudes (the paper does not state iteration counts) *)
let aerofoil_frames = 3000
let sprayer_frames = 1500

let shape parts =
  String.concat " x " (Array.to_list (Array.map string_of_int parts))

(* ------------------------------------------------------------------ *)
(* Sweep infrastructure: every table enumerates its rows as jobs       *)
(* through the multicore pool; results come back in submission order   *)
(* as JSON (the same form the cache stores), so serial, parallel and   *)
(* warm-cache sweeps render byte-identically.                          *)
(* ------------------------------------------------------------------ *)

type sweep = {
  sw_jobs : int;
  sw_cache : Sched.Cache.t option;
  sw_tracer : Autocfd_obs.Trace.t option;
  sw_fabric : Sched.Fabric.t option;
  mutable sw_stats : (string * Sched.Pool.stats) list;  (* newest first *)
}

let sweep ?(jobs = 1) ?cache ?tracer ?fabric () =
  {
    sw_jobs = jobs;
    sw_cache = cache;
    sw_tracer = tracer;
    sw_fabric = fabric;
    sw_stats = [];
  }

let sweep_stats sw = List.rev sw.sw_stats

let sweep_stale sw =
  match sw.sw_cache with Some c -> Sched.Cache.stale_cleaned c | None -> 0

let fresh_sweep = function Some sw -> sw | None -> sweep ()

let run_jobs sw ~table jobs =
  let results, stats =
    match sw.sw_fabric with
    | Some fb -> Sched.Fabric.run fb ?cache:sw.sw_cache ?tracer:sw.sw_tracer jobs
    | None ->
        Sched.Pool.run ~jobs:sw.sw_jobs ?cache:sw.sw_cache ?tracer:sw.sw_tracer
          jobs
  in
  sw.sw_stats <- (table, stats) :: sw.sw_stats;
  List.mapi
    (fun i (job : Sched.Job.t) ->
      match results.(i) with
      | Ok v -> v
      | Error msg ->
          failwith (Printf.sprintf "%s: %s" job.Sched.Job.jb_label msg))
    jobs

(* decoding helpers over job-result JSON *)
let jfield name j =
  match J.member name j with
  | Some v -> v
  | None -> raise (J.Parse_error ("missing result field " ^ name))

let jf name j = J.to_float_exn (jfield name j)

let ji name j =
  match jfield name j with
  | J.Int i -> i
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected int"))

let jb name j =
  match jfield name j with
  | J.Bool b -> b
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected bool"))

let js name j =
  match jfield name j with
  | J.Str s -> s
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected string"))

let jl name j =
  match jfield name j with
  | J.List l -> l
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected list"))

let parts_key p =
  J.Str (String.concat "x" (Array.to_list (Array.map string_of_int p)))

let machine_key = ("machine", Runspec.machine_to_json machine)

(* the runspec naming "plan this explicit shape" (all other knobs at
   their defaults) — the bridge from the tables' partition columns to
   the spec-driven Driver API *)
let parts_spec parts = Runspec.(default |> with_parts (Some parts))

(* ------------------------------------------------------------------ *)
(* Self-contained execution specs.  Every job body lives in exec_spec, *)
(* dispatched on a JSON spec that carries the full program source and  *)
(* parameters — so the in-process pool (which closes over the spec)    *)
(* and a remote fabric worker (which receives it over the wire)        *)
(* compute through the same code path, and a distributed sweep is      *)
(* byte-identical to a serial one by construction.                     *)
(* ------------------------------------------------------------------ *)

module Fault = Autocfd_mpsim.Fault

(* program state only — gathered arrays, scalars, flop census, WRITE
   output.  This is the bit-equivalence contract the Domains engine can
   meet: its [stats] are measured wall clock, not virtual time. *)
let program_state_identical (a : Autocfd_interp.Spmd.result)
    (b : Autocfd_interp.Spmd.result) =
  let arrays_eq =
    List.length a.Autocfd_interp.Spmd.gathered
    = List.length b.Autocfd_interp.Spmd.gathered
    && List.for_all2
         (fun (na, aa) (nb, ab) ->
           na = nb
           && aa.Autocfd_interp.Value.bounds = ab.Autocfd_interp.Value.bounds
           && aa.Autocfd_interp.Value.data = ab.Autocfd_interp.Value.data)
         a.Autocfd_interp.Spmd.gathered b.Autocfd_interp.Spmd.gathered
  in
  arrays_eq
  && a.Autocfd_interp.Spmd.scalars = b.Autocfd_interp.Spmd.scalars
  && a.Autocfd_interp.Spmd.flops_per_rank = b.Autocfd_interp.Spmd.flops_per_rank
  && a.Autocfd_interp.Spmd.output = b.Autocfd_interp.Spmd.output

let results_identical (a : Autocfd_interp.Spmd.result)
    (b : Autocfd_interp.Spmd.result) =
  program_state_identical a b
  && a.Autocfd_interp.Spmd.stats = b.Autocfd_interp.Spmd.stats

(* the resilience claim: same science out, faults or no faults *)
let state_identical (a : Autocfd_interp.Spmd.result)
    (b : Autocfd_interp.Spmd.result) =
  let arrays_eq =
    List.length a.Autocfd_interp.Spmd.gathered
    = List.length b.Autocfd_interp.Spmd.gathered
    && List.for_all2
         (fun (na, aa) (nb, ab) ->
           na = nb
           && aa.Autocfd_interp.Value.bounds = ab.Autocfd_interp.Value.bounds
           && aa.Autocfd_interp.Value.data = ab.Autocfd_interp.Value.data)
         a.Autocfd_interp.Spmd.gathered b.Autocfd_interp.Spmd.gathered
  in
  arrays_eq
  && a.Autocfd_interp.Spmd.scalars = b.Autocfd_interp.Spmd.scalars
  && a.Autocfd_interp.Spmd.output = b.Autocfd_interp.Spmd.output

let coverage_to_json cov =
  J.List
    (List.map
       (fun (c : Autocfd_interp.Compile.coverage_entry) ->
         J.Obj
           [
             ("line", J.Int c.Autocfd_interp.Compile.cov_line);
             ( "vars",
               J.List
                 (List.map
                    (fun v -> J.Str v)
                    c.Autocfd_interp.Compile.cov_vars) );
             ("fused", J.Bool c.Autocfd_interp.Compile.cov_fused);
             ( "reason",
               J.Str
                 (Autocfd_interp.Compile.reason_to_string
                    c.Autocfd_interp.Compile.cov_reason) );
             ( "frag",
               J.Int
                 (match c.Autocfd_interp.Compile.cov_frag with
                 | Some t -> t.Autocfd_fortran.Ast.fi_frag
                 | None -> 0) );
             ( "nfrags",
               J.Int
                 (match c.Autocfd_interp.Compile.cov_frag with
                 | Some t -> t.Autocfd_fortran.Ast.fi_nfrags
                 | None -> 0) );
           ])
       cov)

let coverage_of_json j =
  List.map
    (fun c ->
      (* frag/nfrags absent on rows serialized before the fission pass *)
      let opt_i name =
        match J.member name c with Some (J.Int i) -> i | _ -> 0
      in
      {
        Autocfd_interp.Compile.cov_line = ji "line" c;
        cov_vars =
          List.map
            (function
              | J.Str s -> s
              | _ -> raise (J.Parse_error "coverage var: expected string"))
            (jl "vars" c);
        cov_fused = jb "fused" c;
        cov_reason = Autocfd_interp.Compile.reason_of_string (js "reason" c);
        cov_frag =
          (match (opt_i "frag", opt_i "nfrags") with
          | 0, _ | _, 0 -> None
          | f, n -> Some { Autocfd_fortran.Ast.fi_frag = f; fi_nfrags = n });
      })
    (jl "coverage" (J.Obj [ ("coverage", j) ]))

(* Six seeded schedules per program, scaled to the fault-free run: message
   loss alone, duplication+corruption, timing perturbations (jitter and a
   degraded link), a transient straggler, a hard crash mid-run, and all of
   them together.  Every schedule is recoverable, so each row must come
   back bit-identical. *)
let chaos_schedules ~seed ~clean_elapsed ~net =
  let lat = net.Autocfd_mpsim.Netmodel.latency in
  let mid p = Fault.At_time (p *. clean_elapsed) in
  [
    ("loss 3%", Fault.spec ~seed ~loss:0.03 ());
    ( "dup+corrupt 2%",
      Fault.spec ~seed:(seed + 1) ~duplication:0.02 ~corruption:0.02 () );
    ( "jitter+slow link",
      Fault.spec ~seed:(seed + 2) ~jitter:(8.0 *. lat)
        ~degrade:[ (0, 1, 3.0); (1, 0, 3.0) ]
        () );
    ( "straggler",
      Fault.spec ~seed:(seed + 3)
        ~stalls:
          [
            {
              Fault.sl_rank = 1;
              sl_at = mid 0.3;
              sl_duration = 0.2 *. clean_elapsed;
            };
          ]
        () );
    ( "crash+restart",
      Fault.spec ~seed:(seed + 4)
        ~crashes:[ { Fault.cr_rank = 1; cr_at = mid 0.4 } ]
        () );
    ( "kitchen sink",
      Fault.spec ~seed:(seed + 5) ~loss:0.01 ~duplication:0.01
        ~corruption:0.01 ~jitter:(4.0 *. lat)
        ~crashes:[ { Fault.cr_rank = 1; cr_at = mid 0.5 } ]
        () );
  ]

let schedule_labels =
  [
    "loss 3%"; "dup+corrupt 2%"; "jitter+slow link"; "straggler";
    "crash+restart"; "kitchen sink";
  ]

let resilience_to_json (rs : Autocfd_interp.Spmd.resilience)
    (c : Fault.counters) =
  [
    ("drops", J.Int c.Fault.fc_drops);
    ("duplicates", J.Int c.Fault.fc_duplicates);
    ("corruptions", J.Int c.Fault.fc_corruptions);
    ("reorders", J.Int c.Fault.fc_reorders);
    ("stalls", J.Int c.Fault.fc_stalls);
    ("crashes", J.Int c.Fault.fc_crashes);
    ("restarts", J.Int rs.Autocfd_interp.Spmd.rs_restarts);
    ("checkpoints", J.Int rs.Autocfd_interp.Spmd.rs_checkpoints);
    ("restores", J.Int rs.Autocfd_interp.Spmd.rs_restores);
    ("retransmits", J.Int rs.Autocfd_interp.Spmd.rs_retransmits);
    ("dup_suppressed", J.Int rs.Autocfd_interp.Spmd.rs_dup_suppressed);
    ("checksum_failures", J.Int rs.Autocfd_interp.Spmd.rs_checksum_failures);
  ]

let engine_name = function
  | Autocfd_interp.Spmd.Tree -> "tree"
  | Autocfd_interp.Spmd.Compiled -> "compiled"
  | Autocfd_interp.Spmd.Fused -> "fused"
  | Autocfd_interp.Spmd.Domains -> "domains"

let engine_of_name = function
  | "tree" -> Autocfd_interp.Spmd.Tree
  | "compiled" -> Autocfd_interp.Spmd.Compiled
  | "fused" -> Autocfd_interp.Spmd.Fused
  | "domains" -> Autocfd_interp.Spmd.Domains
  | other -> raise (J.Parse_error ("unknown engine " ^ other))

let time_run f =
  ignore (f ());
  (* warm: populate compile + plan caches *)
  let reps = 3 in
  let t0 = Sys.time () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Sys.time () -. t0) /. float_of_int reps

let exec_spec spec =
  let source () = js "source" spec in
  let parts () =
    let s = js "partition" spec in
    try
      Array.of_list (List.map int_of_string (String.split_on_char 'x' s))
    with Failure _ -> raise (J.Parse_error ("bad partition " ^ s))
  in
  match js "kind" spec with
  | "plan-sync" ->
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      J.Obj
        [
          ("before", J.Int plan.Driver.opt.S.Optimizer.before);
          ("after", J.Int plan.Driver.opt.S.Optimizer.after);
        ]
  | "predict-seq" ->
      let t = Driver.load (source ()) in
      let pred = M.predict_sequential machine ~gi:t.Driver.gi t.Driver.inlined in
      J.Obj [ ("time", J.Float pred.M.time) ]
  | "predict-par" ->
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let pred =
        M.predict_parallel machine ~gi:t.Driver.gi ~topo:plan.Driver.topo
          plan.Driver.spmd
      in
      J.Obj [ ("time", J.Float pred.M.time) ]
  | "predict-both" ->
      let t = Driver.load (source ()) in
      let t1 =
        (M.predict_sequential machine ~gi:t.Driver.gi t.Driver.inlined)
          .M.time
      in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let t2 =
        (M.predict_parallel machine ~gi:t.Driver.gi
           ~topo:plan.Driver.topo plan.Driver.spmd)
          .M.time
      in
      J.Obj [ ("t1", J.Float t1); ("t2", J.Float t2) ]
  | "validate" ->
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let points_per_rank =
        let g = P.Topology.grid plan.Driver.topo
        and p = P.Topology.parts plan.Driver.topo in
        Array.to_list
          (Array.mapi (fun d _ -> (g.(d) + p.(d) - 1) / p.(d)) g)
        |> List.fold_left ( * ) 1
      in
      let ws = M.working_set_bytes ~gi:t.Driver.gi ~points_per_rank in
      let flop_time =
        M.memory_slowdown machine ws /. machine.M.flop_rate
      in
      let par =
        Driver.run
          ~spec:
            Runspec.(
              default |> with_net machine.M.net
              |> with_flop_time flop_time)
          plan
      in
      let simulated =
        par.Autocfd_interp.Spmd.stats.Autocfd_mpsim.Sim.elapsed
      in
      let modelled =
        (M.predict_parallel machine ~gi:t.Driver.gi
           ~topo:plan.Driver.topo plan.Driver.spmd)
          .M.time
      in
      J.Obj
        [
          ("simulated", J.Float simulated);
          ("modelled", J.Float modelled);
        ]
  | "engine-bench" ->
      let source = source () in
      let large_source = js "large_source" spec in
      let parts = parts () in
      let t = Driver.load source in
      let plan = Driver.plan ~spec:(parts_spec parts) t in
      let run engine () =
        Driver.run ~spec:(Runspec.with_engine engine Runspec.default) plan
      in
      let tree = run Autocfd_interp.Spmd.Tree in
      let compiled = run Autocfd_interp.Spmd.Compiled in
      let fused = run Autocfd_interp.Spmd.Fused in
      let reference = tree () in
      let identical =
        results_identical reference (compiled ())
        && results_identical reference (fused ())
      in
      let tree_s = time_run tree in
      let compiled_s = time_run compiled in
      let fused_s = time_run fused in
      (* fused vs domains: the same program at the large size, where
         per-barrier compute dominates domain spawn/wakeup cost.  The
         Domains engine is timed on the wall clock it measures
         itself (Sys.time would sum CPU across domains); the fused
         run is single-threaded, so its CPU time is its wall time *)
      let lplan = Driver.plan ~spec:(parts_spec parts) (Driver.load large_source) in
      let lrun engine () =
        Driver.run ~spec:(Runspec.with_engine engine Runspec.default)
          lplan
      in
      let lfused = lrun Autocfd_interp.Spmd.Fused in
      let ldomains = lrun Autocfd_interp.Spmd.Domains in
      let lref = lfused () in
      let dres = ldomains () in
      let domains_identical =
        program_state_identical reference (run Autocfd_interp.Spmd.Domains ())
        && program_state_identical lref dres
      in
      let fused_wall_s = time_run lfused in
      let ds_wall r =
        match r.Autocfd_interp.Spmd.domains with
        | Some ds -> ds.Autocfd_interp.Spmd.ds_wall
        | None -> 0.0
      in
      let domains_s =
        let reps = 3 in
        let tot = ref (ds_wall dres) in
        for _ = 2 to reps do
          tot := !tot +. ds_wall (ldomains ())
        done;
        !tot /. float_of_int reps
      in
      let cal =
        match dres.Autocfd_interp.Spmd.domains with
        | None -> M.calibrate ~compute:[] ~comm:[]
        | Some ds ->
            let compute =
              Array.to_list
                (Array.map2
                   (fun f s -> (f, s))
                   ds.Autocfd_interp.Spmd.ds_flops
                   ds.Autocfd_interp.Spmd.ds_compute)
            in
            M.calibrate ~compute
              ~comm:ds.Autocfd_interp.Spmd.ds_comm_samples
      in
      let coverage =
        Autocfd_interp.Compile.coverage
          (Autocfd_interp.Compile.of_unit ~fuse:true plan.Driver.spmd)
      in
      (* the same program with the loop-fission pass disabled: the
         before side of the fission before/after coverage and
         timing columns, plus a bit-identity check that fission
         changes no program state *)
      let nof_spec = Runspec.with_fission false (parts_spec parts) in
      let plan_nof =
        Driver.plan ~spec:nof_spec (Driver.load ~spec:nof_spec source)
      in
      let nof_fused () =
        Driver.run
          ~spec:
            (Runspec.with_engine Autocfd_interp.Spmd.Fused
               Runspec.default)
          plan_nof
      in
      let fission_identical =
        program_state_identical reference (nof_fused ())
      in
      let nofission_fused_s = time_run nof_fused in
      let nofission_coverage =
        Autocfd_interp.Compile.coverage
          (Autocfd_interp.Compile.of_unit ~fuse:true
             plan_nof.Driver.spmd)
      in
      J.Obj
        [
          ("tree_s", J.Float tree_s);
          ("nofission_fused_s", J.Float nofission_fused_s);
          ("fission_identical", J.Bool fission_identical);
          ("nofission_coverage", coverage_to_json nofission_coverage);
          ("compiled_s", J.Float compiled_s);
          ("fused_s", J.Float fused_s);
          ("fused_wall_s", J.Float fused_wall_s);
          ("domains_s", J.Float domains_s);
          ("identical", J.Bool identical);
          ("domains_identical", J.Bool domains_identical);
          ("cal_flop_time", J.Float cal.M.cal_flop_time);
          ("cal_latency", J.Float cal.M.cal_latency);
          ( "cal_bandwidth",
            J.Float
              (if Float.is_finite cal.M.cal_bandwidth then
                 cal.M.cal_bandwidth
               else 0.0) );
          ("cal_compute_r2", J.Float cal.M.cal_compute_r2);
          ("cal_comm_r2", J.Float cal.M.cal_comm_r2);
          ("coverage", coverage_to_json coverage);
        ]
  | "chaos" ->
      let seed = ji "seed" spec in
      let engine = engine_of_name (js "engine" spec) in
      let idx = ji "schedule" spec in
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let net = machine.M.net in
      let flop_time = Driver.calibrated_flop_time ~machine plan in
      let base =
        Runspec.(
          default |> with_engine engine |> with_net net
          |> with_flop_time flop_time)
      in
      let clean = Driver.run ~spec:base plan in
      let clean_elapsed =
        clean.Autocfd_interp.Spmd.stats.Autocfd_mpsim.Sim.elapsed
      in
      let _, fspec =
        List.nth (chaos_schedules ~seed ~clean_elapsed ~net) idx
      in
      let faults = Fault.make fspec in
      let faulty =
        Driver.run
          ~spec:
            Runspec.(
              base
              |> with_faults (Some faults)
              |> with_recovery
                   (Some Autocfd_interp.Spmd.default_recovery))
          plan
      in
      J.Obj
        (( "identical",
           J.Bool (state_identical clean faulty) )
        :: ( "overhead",
             J.Float
               (faulty.Autocfd_interp.Spmd.stats
                  .Autocfd_mpsim.Sim.elapsed /. clean_elapsed) )
        :: resilience_to_json faulty.Autocfd_interp.Spmd.resilience
             (Fault.counters faults))
  | "tune" ->
      let rspec = Runspec.of_json (jfield "spec" spec) in
      Tune.entry_to_json (Tune.eval ~machine ~source:(source ()) rspec)
  | other -> raise (J.Parse_error ("unknown job spec kind: " ^ other))

let job ~table ~label ~params ~spec =
  Sched.Job.make
    ~label:(table ^ ":" ^ label)
    ~key:(J.Obj [ ("table", J.Str table); ("params", params) ])
    ~spec
    (fun () -> exec_spec spec)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  t1_program : string;
  t1_partition : int array;
  t1_before : int;
  t1_after : int;
  t1_paper_before : int;
  t1_paper_after : int;
}

let paper_table1 =
  [
    ("aerofoil", [| 4; 1; 1 |], 73, 8);
    ("aerofoil", [| 1; 4; 1 |], 84, 10);
    ("aerofoil", [| 1; 1; 4 |], 81, 9);
    ("aerofoil", [| 4; 4; 1 |], 148, 13);
    ("aerofoil", [| 4; 1; 4 |], 145, 13);
    ("aerofoil", [| 1; 4; 4 |], 156, 14);
    ("sprayer", [| 4; 1 |], 72, 7);
    ("sprayer", [| 1; 4 |], 69, 7);
    ("sprayer", [| 4; 4 |], 141, 7);
  ]

let table1 ?sweep () =
  let sw = fresh_sweep sweep in
  let jobs =
    List.map
      (fun (prog, parts, _, _) ->
        let source =
          if prog = "aerofoil" then Apps.Aerofoil.source ()
          else Apps.Sprayer.source ()
        in
        job ~table:"table1"
          ~label:(prog ^ " " ^ shape parts)
          ~params:
            (J.Obj
               [
                 ("program", J.Str prog);
                 ("partition", parts_key parts);
                 ("src", J.Str (Sched.Job.digest source));
               ])
          ~spec:
            (J.Obj
               [
                 ("kind", J.Str "plan-sync");
                 ("source", J.Str source);
                 ("partition", parts_key parts);
               ]))
      paper_table1
  in
  List.map2
    (fun (prog, parts, pb, pa) r ->
      {
        t1_program = prog;
        t1_partition = parts;
        t1_before = ji "before" r;
        t1_after = ji "after" r;
        t1_paper_before = pb;
        t1_paper_after = pa;
      })
    paper_table1
    (run_jobs sw ~table:"table1" jobs)

(* ------------------------------------------------------------------ *)
(* Timing tables                                                       *)
(* ------------------------------------------------------------------ *)

type perf_row = {
  pr_procs : int;
  pr_partition : int array option;
  pr_time : float;
  pr_speedup : float option;
  pr_efficiency : float option;
  pr_paper_time : float;
  pr_paper_speedup : float option;
}

let seq_time_job ~table source =
  job ~table ~label:"sequential"
    ~params:
      (J.Obj
         [
           machine_key;
           ("kind", J.Str "sequential");
           ("src", J.Str (Sched.Job.digest source));
         ])
    ~spec:
      (J.Obj [ ("kind", J.Str "predict-seq"); ("source", J.Str source) ])

let par_time_job ~table source parts =
  job ~table ~label:(shape parts)
    ~params:
      (J.Obj
         [
           machine_key;
           ("kind", J.Str "parallel");
           ("partition", parts_key parts);
           ("src", J.Str (Sched.Job.digest source));
         ])
    ~spec:
      (J.Obj
         [
           ("kind", J.Str "predict-par");
           ("source", J.Str source);
           ("partition", parts_key parts);
         ])

let perf_rows sw ~table source ~paper_seq rows =
  let jobs =
    seq_time_job ~table source
    :: List.map (fun (parts, _, _) -> par_time_job ~table source parts) rows
  in
  match run_jobs sw ~table jobs with
  | [] -> assert false
  | seq :: pars ->
      let t1 = jf "time" seq in
      { pr_procs = 1; pr_partition = None; pr_time = t1; pr_speedup = None;
        pr_efficiency = None; pr_paper_time = paper_seq;
        pr_paper_speedup = None }
      :: List.map2
           (fun (parts, paper_time, paper_speedup) r ->
             let tp = jf "time" r in
             let p = Array.fold_left ( * ) 1 parts in
             {
               pr_procs = p;
               pr_partition = Some parts;
               pr_time = tp;
               pr_speedup = Some (t1 /. tp);
               pr_efficiency = Some (t1 /. tp /. float_of_int p);
               pr_paper_time = paper_time;
               pr_paper_speedup = paper_speedup;
             })
           rows pars

let table2 ?sweep () =
  perf_rows (fresh_sweep sweep) ~table:"table2"
    (Apps.Aerofoil.source ~ntime:aerofoil_frames ())
    ~paper_seq:1970.
    [
      ([| 2; 1; 1 |], 1760., Some 1.12);
      ([| 4; 1; 1 |], 2341., Some 0.84);
      ([| 3; 2; 1 |], 1093., Some 1.80);
    ]

let table3 ?sweep () =
  perf_rows (fresh_sweep sweep) ~table:"table3"
    (Apps.Sprayer.source ~ntime:sprayer_frames ())
    ~paper_seq:362.
    [
      ([| 2; 1 |], 254., Some 1.43);
      ([| 3; 1 |], 184., Some 1.97);
      ([| 2; 2 |], 130., Some 2.78);
    ]

(* ------------------------------------------------------------------ *)
(* Table 4: scaling with grid density                                  *)
(* ------------------------------------------------------------------ *)

type t4_row = {
  t4_grid : int * int;
  t4_t1 : float;
  t4_t2 : float;
  t4_speedup : float;
  t4_efficiency : float;
  t4_paper_t1 : float;
  t4_paper_t2 : float;
  t4_paper_speedup : float;
}

let paper_table4 =
  [
    ((40, 15), 45., 45., 1.0);
    ((60, 23), 108., 66., 1.64);
    ((80, 30), 199., 140., 1.42);
    ((100, 38), 331., 218., 1.52);
    ((120, 45), 472., 276., 1.71);
    ((140, 53), 712., 403., 1.77);
    ((160, 60), 908., 519., 1.75);
  ]

let table4 ?sweep () =
  let sw = fresh_sweep sweep in
  let parts = [| 2; 1 |] in
  let jobs =
    List.map
      (fun ((ni, nj), _, _, _) ->
        let source = Apps.Sprayer.source ~ni ~nj ~ntime:sprayer_frames () in
        job ~table:"table4"
          ~label:(Printf.sprintf "%dx%d" ni nj)
          ~params:
            (J.Obj
               [
                 machine_key;
                 ("grid", J.Str (Printf.sprintf "%dx%d" ni nj));
                 ("partition", parts_key parts);
                 ("src", J.Str (Sched.Job.digest source));
               ])
          ~spec:
            (J.Obj
               [
                 ("kind", J.Str "predict-both");
                 ("source", J.Str source);
                 ("partition", parts_key parts);
               ]))
      paper_table4
  in
  List.map2
    (fun ((ni, nj), p1, p2, ps) r ->
      let t1 = jf "t1" r and t2 = jf "t2" r in
      {
        t4_grid = (ni, nj);
        t4_t1 = t1;
        t4_t2 = t2;
        t4_speedup = t1 /. t2;
        t4_efficiency = t1 /. t2 /. 2.0;
        t4_paper_t1 = p1;
        t4_paper_t2 = p2;
        t4_paper_speedup = ps;
      })
    paper_table4
    (run_jobs sw ~table:"table4" jobs)

(* ------------------------------------------------------------------ *)
(* Table 5: superlinear speedup                                        *)
(* ------------------------------------------------------------------ *)

type t5_row = {
  t5_procs : int;
  t5_partition : int array;
  t5_time : float;
  t5_eff_over_2 : float;
  t5_paper_time : float;
  t5_paper_eff : float;
}

let table5 ?sweep () =
  let sw = fresh_sweep sweep in
  let source = Apps.Sprayer.source ~ni:800 ~nj:300 ~ntime:sprayer_frames () in
  let rows =
    [
      ([| 2; 1 |], 2095., 1.00);
      ([| 3; 1 |], 1249., 1.12);
      ([| 2; 2 |], 1012., 1.04);
    ]
  in
  let jobs =
    List.map
      (fun (parts, _, _) -> par_time_job ~table:"table5" source parts)
      rows
  in
  let times =
    List.map2
      (fun (parts, pt, pe) r -> (parts, jf "time" r, pt, pe))
      rows
      (run_jobs sw ~table:"table5" jobs)
  in
  let t2 =
    match times with (_, t2, _, _) :: _ -> t2 | [] -> assert false
  in
  List.map
    (fun (parts, tp, pt, pe) ->
      let p = Array.fold_left ( * ) 1 parts in
      {
        t5_procs = p;
        t5_partition = parts;
        t5_time = tp;
        t5_eff_over_2 = t2 *. 2.0 /. (tp *. float_of_int p);
        t5_paper_time = pt;
        t5_paper_eff = pe;
      })
    times

(* ------------------------------------------------------------------ *)
(* Model vs simulation cross-validation                                 *)
(* ------------------------------------------------------------------ *)

type validation_row = {
  vr_grid : int * int;
  vr_parts : int array;
  vr_simulated : float;
  vr_modelled : float;
  vr_ratio : float;
}

let validate_model ?sweep () =
  let sw = fresh_sweep sweep in
  let cases =
    [
      ((30, 16), [| 2; 1 |]);
      ((30, 16), [| 2; 2 |]);
      ((40, 20), [| 2; 1 |]);
      ((40, 20), [| 4; 1 |]);
      ((50, 24), [| 2; 2 |]);
    ]
  in
  let jobs =
    List.map
      (fun ((ni, nj), parts) ->
        let source = Apps.Sprayer.source ~ni ~nj ~ntime:4 ~npsi:3 () in
        job ~table:"validation"
          ~label:(Printf.sprintf "%dx%d %s" ni nj (shape parts))
          ~params:
            (J.Obj
               [
                 machine_key;
                 ("grid", J.Str (Printf.sprintf "%dx%d" ni nj));
                 ("partition", parts_key parts);
                 ("src", J.Str (Sched.Job.digest source));
               ])
          ~spec:
            (J.Obj
               [
                 ("kind", J.Str "validate");
                 ("source", J.Str source);
                 ("partition", parts_key parts);
               ]))
      cases
  in
  List.map2
    (fun ((ni, nj), parts) r ->
      let simulated = jf "simulated" r and modelled = jf "modelled" r in
      {
        vr_grid = (ni, nj);
        vr_parts = parts;
        vr_simulated = simulated;
        vr_modelled = modelled;
        vr_ratio = modelled /. simulated;
      })
    cases
    (run_jobs sw ~table:"validation" jobs)

(* ------------------------------------------------------------------ *)
(* Execution-engine benchmark: tree-walking vs compiled vs fused       *)
(* ------------------------------------------------------------------ *)

type engine_row = {
  er_program : string;
  er_parts : int array;
  er_tree_s : float;
  er_compiled_s : float;
  er_fused_s : float;
  er_speedup : float;
  er_fused_speedup : float;
  er_identical : bool;
  er_coverage : Autocfd_interp.Compile.coverage_entry list;
  er_nofission_fused_s : float;
  er_fission_identical : bool;
  er_nofission_coverage : Autocfd_interp.Compile.coverage_entry list;
  er_domains_s : float;
  er_domains_speedup : float;
  er_domains_identical : bool;
  er_calibration : M.calibration;
}

(* (name, small source, large source, partition): the small instance keeps
   the tree-walking column affordable; the large one gives the Domains
   engine enough compute per barrier for real parallel speedup to show *)
let engine_cases =
  [
    ( "aerofoil",
      (fun () -> Apps.Aerofoil.source ~ni:24 ~nj:12 ~nk:8 ~ntime:2 ()),
      (fun () -> Apps.Aerofoil.source ~ni:48 ~nj:24 ~nk:12 ~ntime:4 ()),
      [| 2; 2; 1 |] );
    ( "sprayer",
      (fun () -> Apps.Sprayer.source ~ni:80 ~nj:40 ~ntime:4 ()),
      (fun () -> Apps.Sprayer.source ~ni:160 ~nj:80 ~ntime:8 ()),
      [| 2; 2 |] );
  ]

let engine_bench ?sweep () =
  let sw = fresh_sweep sweep in
  let jobs =
    List.map
      (fun (name, source, large_source, parts) ->
        let source = source () in
        let large_source = large_source () in
        job ~table:"engine" ~label:name
          ~params:
            (J.Obj
               [
                 ("program", J.Str name);
                 ("partition", parts_key parts);
                 ("src", J.Str (Sched.Job.digest source));
                 ("large_src", J.Str (Sched.Job.digest large_source));
                 (* row-schema version: bumped when the measured columns
                    change so stale cached rows are not replayed *)
                 ("columns", J.Str "v3-fission");
               ])
          ~spec:
            (J.Obj
               [
                 ("kind", J.Str "engine-bench");
                 ("source", J.Str source);
                 ("large_source", J.Str large_source);
                 ("partition", parts_key parts);
               ]))
      engine_cases
  in
  List.map2
    (fun (name, _, _, parts) r ->
      let tree_s = jf "tree_s" r in
      let compiled_s = jf "compiled_s" r in
      let fused_s = jf "fused_s" r in
      let fused_wall_s = jf "fused_wall_s" r in
      let domains_s = jf "domains_s" r in
      {
        er_program = name;
        er_parts = parts;
        er_tree_s = tree_s;
        er_compiled_s = compiled_s;
        er_fused_s = fused_s;
        er_speedup = tree_s /. compiled_s;
        er_fused_speedup = tree_s /. fused_s;
        er_identical = jb "identical" r;
        er_coverage = coverage_of_json (jfield "coverage" r);
        er_nofission_fused_s = jf "nofission_fused_s" r;
        er_fission_identical = jb "fission_identical" r;
        er_nofission_coverage =
          coverage_of_json (jfield "nofission_coverage" r);
        er_domains_s = domains_s;
        er_domains_speedup = fused_wall_s /. domains_s;
        er_domains_identical = jb "domains_identical" r;
        er_calibration =
          {
            M.cal_flop_time = jf "cal_flop_time" r;
            cal_latency = jf "cal_latency" r;
            cal_bandwidth =
              (let b = jf "cal_bandwidth" r in
               if b = 0.0 then Float.infinity else b);
            cal_compute_r2 = jf "cal_compute_r2" r;
            cal_comm_r2 = jf "cal_comm_r2" r;
          };
      })
    engine_cases
    (run_jobs sw ~table:"engine" jobs)

(* ------------------------------------------------------------------ *)
(* Chaos benchmark: fault injection + reliable transport + recovery    *)
(* ------------------------------------------------------------------ *)

type chaos_row = {
  ch_program : string;
  ch_schedule : string;
  ch_identical : bool;
      (** gathered arrays, WRITE output and final scalars bit-equal to
          the fault-free run *)
  ch_overhead : float;  (** faulty / fault-free virtual elapsed time *)
  ch_resilience : Autocfd_interp.Spmd.resilience;
  ch_counters : Fault.counters;
}

let chaos_case ?(seed = 42) ?(engine = Autocfd_interp.Spmd.Fused) sw name
    source parts =
  let jobs =
    List.mapi
      (fun idx label ->
        job ~table:"chaos"
          ~label:(Printf.sprintf "%s %s" name label)
          ~params:
            (J.Obj
               [
                 machine_key;
                 ("program", J.Str name);
                 ("partition", parts_key parts);
                 ("schedule", J.Str label);
                 ("seed", J.Int seed);
                 ("engine", J.Str (engine_name engine));
                 ("src", J.Str (Sched.Job.digest source));
               ])
          ~spec:
            (J.Obj
               [
                 ("kind", J.Str "chaos");
                 ("source", J.Str source);
                 ("partition", parts_key parts);
                 ("seed", J.Int seed);
                 ("engine", J.Str (engine_name engine));
                 ("schedule", J.Int idx);
               ]))
      schedule_labels
  in
  List.map2
    (fun label r ->
      {
        ch_program = name;
        ch_schedule = label;
        ch_identical = jb "identical" r;
        ch_overhead = jf "overhead" r;
        ch_resilience =
          {
            Autocfd_interp.Spmd.rs_restarts = ji "restarts" r;
            rs_checkpoints = ji "checkpoints" r;
            rs_restores = ji "restores" r;
            rs_retransmits = ji "retransmits" r;
            rs_dup_suppressed = ji "dup_suppressed" r;
            rs_checksum_failures = ji "checksum_failures" r;
          };
        ch_counters =
          {
            Fault.fc_drops = ji "drops" r;
            fc_duplicates = ji "duplicates" r;
            fc_corruptions = ji "corruptions" r;
            (* absent in cached rows written before the reorder knob *)
            fc_reorders =
              (match J.member "reorders" r with
              | Some (J.Int n) -> n
              | _ -> 0);
            fc_stalls = ji "stalls" r;
            fc_crashes = ji "crashes" r;
          };
      })
    schedule_labels
    (run_jobs sw ~table:"chaos" jobs)

let chaos_bench ?seed ?sweep () =
  let sw = fresh_sweep sweep in
  chaos_case ?seed sw "sprayer"
    (Apps.Sprayer.source ~ni:40 ~nj:20 ~ntime:3 ())
    [| 2; 2 |]
  @ chaos_case ?seed sw "aerofoil"
      (Apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:2 ())
      [| 2; 2; 1 |]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_table1 rows =
  let open Autocfd_util.Table in
  let t =
    create
      ~title:
        "Table 1: improvement by synchronization optimizations \
         (ours vs paper)"
      ~headers:
        [ "program"; "partition"; "before"; "after"; "reduction";
          "paper before"; "paper after"; "paper reduction" ]
  in
  List.iter
    (fun r ->
      let pct b a =
        cell_pct (float_of_int (b - a) /. float_of_int (max 1 b))
      in
      add_row t
        [
          r.t1_program; shape r.t1_partition; cell_int r.t1_before;
          cell_int r.t1_after; pct r.t1_before r.t1_after;
          cell_int r.t1_paper_before; cell_int r.t1_paper_after;
          pct r.t1_paper_before r.t1_paper_after;
        ])
    rows;
  render t

let render_perf ~title rows =
  let open Autocfd_util.Table in
  let t =
    create ~title
      ~headers:
        [ "procs"; "partition"; "time (s)"; "speedup"; "efficiency";
          "paper time (s)"; "paper speedup" ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          cell_int r.pr_procs;
          (match r.pr_partition with Some p -> shape p | None -> "-");
          cell_float ~decimals:0 r.pr_time;
          (match r.pr_speedup with Some s -> cell_float s | None -> "-");
          (match r.pr_efficiency with Some e -> cell_pct e | None -> "-");
          cell_float ~decimals:0 r.pr_paper_time;
          (match r.pr_paper_speedup with
          | Some s -> cell_float s
          | None -> "-");
        ])
    rows;
  render t

let render_validation rows =
  let open Autocfd_util.Table in
  let t =
    create
      ~title:
        "Model validation: execution-driven simulated time vs analytic \
         prediction (sprayer, 4 frames)"
      ~headers:[ "grid"; "partition"; "simulated (s)"; "modelled (s)"; "ratio" ]
  in
  List.iter
    (fun r ->
      let ni, nj = r.vr_grid in
      add_row t
        [
          Printf.sprintf "%d x %d" ni nj;
          shape r.vr_parts;
          cell_float ~decimals:3 r.vr_simulated;
          cell_float ~decimals:3 r.vr_modelled;
          cell_float r.vr_ratio;
        ])
    rows;
  render t

let coverage_counts cov =
  ( List.length
      (List.filter
         (fun (c : Autocfd_interp.Compile.coverage_entry) ->
           c.Autocfd_interp.Compile.cov_fused)
         cov),
    List.length cov )

let render_engine rows =
  let open Autocfd_util.Table in
  let t =
    create
      ~title:
        "Execution engine: tree-walking interpreter vs compiled closure IR \
         vs fused kernels vs real OCaml 5 domains (identical results)"
      ~headers:
        [ "program"; "partition"; "tree (s)"; "compiled (s)"; "fused (s)";
          "no-fission fused (s)"; "domains (s)"; "speedup"; "fused speedup";
          "domains speedup"; "loops fused (pre->post fission)"; "identical" ]
  in
  List.iter
    (fun r ->
      let fused, total = coverage_counts r.er_coverage in
      let nf_fused, nf_total = coverage_counts r.er_nofission_coverage in
      add_row t
        [
          r.er_program; shape r.er_parts;
          cell_float ~decimals:3 r.er_tree_s;
          cell_float ~decimals:3 r.er_compiled_s;
          cell_float ~decimals:3 r.er_fused_s;
          cell_float ~decimals:3 r.er_nofission_fused_s;
          cell_float ~decimals:3 r.er_domains_s;
          cell_float r.er_speedup;
          cell_float r.er_fused_speedup;
          cell_float r.er_domains_speedup;
          Printf.sprintf "%d/%d -> %d/%d" nf_fused nf_total fused total;
          (if r.er_identical && r.er_domains_identical
              && r.er_fission_identical
           then "yes"
           else "NO");
        ])
    rows;
  render t

let render_engine_coverage rows =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s (%s): field-loop kernel coverage\n" r.er_program
           (shape r.er_parts));
      List.iter
        (fun (c : Autocfd_interp.Compile.coverage_entry) ->
          let frag =
            match c.Autocfd_interp.Compile.cov_frag with
            | None -> ""
            | Some f ->
                Printf.sprintf " #%d/%d" f.Autocfd_fortran.Ast.fi_frag
                  f.Autocfd_fortran.Ast.fi_nfrags
          in
          Buffer.add_string b
            (Printf.sprintf "  line %-4d do %-24s %s\n"
               c.Autocfd_interp.Compile.cov_line
               (String.concat "," c.Autocfd_interp.Compile.cov_vars ^ frag)
               (if c.Autocfd_interp.Compile.cov_fused then "fused"
                else
                  "fallback: "
                  ^ Autocfd_interp.Compile.reason_to_string
                      c.Autocfd_interp.Compile.cov_reason)))
        r.er_coverage;
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Committed per-nest coverage manifest (COVERAGE.json): the full-size  *)
(* bundled applications' fused-kernel coverage, one row per field-loop  *)
(* nest of the inlined sequential unit.  [bench engine --check] gates   *)
(* the current build against the committed manifest so a nest that was  *)
(* fused can never silently fall back to the closure IR again.          *)
(* ------------------------------------------------------------------ *)

let coverage_apps () =
  [
    ("sprayer", Apps.Sprayer.source ());
    ("aerofoil", Apps.Aerofoil.source ());
    ("cavity", Apps.Cavity.source ());
  ]

let app_coverage ?(fission = true) src =
  let t = Driver.load ~spec:(Runspec.with_fission fission Runspec.default) src in
  Autocfd_interp.Compile.coverage
    (Autocfd_interp.Compile.of_unit ~fuse:true t.Driver.inlined)

let coverage_manifest () =
  J.Obj
    [
      ("schema", J.Str "autocfd-coverage/1");
      ( "programs",
        J.List
          (List.map
             (fun (name, src) ->
               let cov = app_coverage src in
               let fused, total = coverage_counts cov in
               J.Obj
                 [
                   ("program", J.Str name);
                   ("fused", J.Int fused);
                   ("total", J.Int total);
                   ("nests", coverage_to_json cov);
                 ])
             (coverage_apps ())) );
    ]

let manifest_programs j =
  match J.member "programs" j with
  | Some (J.List ps) ->
      List.map
        (fun p -> (js "program" p, coverage_of_json (jfield "nests" p)))
        ps
  | _ -> raise (J.Parse_error "coverage manifest: missing programs list")

let check_coverage_manifest ~committed ~current =
  let cur = manifest_programs current in
  List.concat_map
    (fun (name, bnests) ->
      match List.assoc_opt name cur with
      | None ->
          [ Printf.sprintf "%s: program missing from current coverage" name ]
      | Some cnests ->
          let key (c : Autocfd_interp.Compile.coverage_entry) =
            ( c.Autocfd_interp.Compile.cov_line,
              c.Autocfd_interp.Compile.cov_vars,
              c.Autocfd_interp.Compile.cov_frag )
          in
          List.filter_map
            (fun (b : Autocfd_interp.Compile.coverage_entry) ->
              if not b.Autocfd_interp.Compile.cov_fused then None
              else
                let where =
                  Printf.sprintf "%s: line %d do %s" name
                    b.Autocfd_interp.Compile.cov_line
                    (String.concat "," b.Autocfd_interp.Compile.cov_vars)
                in
                match List.find_opt (fun c -> key c = key b) cnests with
                | Some c when c.Autocfd_interp.Compile.cov_fused -> None
                | Some c ->
                    Some
                      (Printf.sprintf "%s was fused, now falls back (%s)"
                         where
                         (Autocfd_interp.Compile.reason_to_string
                            c.Autocfd_interp.Compile.cov_reason))
                | None ->
                    Some (Printf.sprintf "%s: fused nest disappeared" where))
            bnests)
    (manifest_programs committed)

let render_coverage_fission () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, src) ->
      let before = app_coverage ~fission:false src in
      let after = app_coverage src in
      let bf, bt = coverage_counts before in
      let af, at = coverage_counts after in
      Buffer.add_string b
        (Printf.sprintf
           "%s: fused %d/%d without fission -> %d/%d with fission\n" name bf
           bt af at);
      let describe (c : Autocfd_interp.Compile.coverage_entry) =
        let frag =
          match c.Autocfd_interp.Compile.cov_frag with
          | None -> ""
          | Some f ->
              Printf.sprintf " #%d/%d" f.Autocfd_fortran.Ast.fi_frag
                f.Autocfd_fortran.Ast.fi_nfrags
        in
        Printf.sprintf "  line %-4d do %-24s %s\n"
          c.Autocfd_interp.Compile.cov_line
          (String.concat "," c.Autocfd_interp.Compile.cov_vars ^ frag)
          (if c.Autocfd_interp.Compile.cov_fused then "fused"
           else
             "fallback: "
             ^ Autocfd_interp.Compile.reason_to_string
                 c.Autocfd_interp.Compile.cov_reason)
      in
      List.iter (fun c -> Buffer.add_string b (describe c)) after;
      Buffer.add_char b '\n')
    (coverage_apps ());
  Buffer.contents b

let render_chaos rows =
  let open Autocfd_util.Table in
  let t =
    create
      ~title:
        "Chaos: seeded fault schedules vs reliable transport + \
         checkpoint/restart (result must stay bit-identical)"
      ~headers:
        [ "program"; "schedule"; "identical"; "overhead"; "injected";
          "retransmits"; "dups dropped"; "cksum fails"; "ckpts";
          "restarts" ]
  in
  List.iter
    (fun r ->
      let c = r.ch_counters and rs = r.ch_resilience in
      let injected =
        c.Fault.fc_drops + c.Fault.fc_duplicates + c.Fault.fc_corruptions
        + c.Fault.fc_stalls + c.Fault.fc_crashes
      in
      add_row t
        [
          r.ch_program; r.ch_schedule;
          (if r.ch_identical then "yes" else "NO");
          cell_float ~decimals:2 r.ch_overhead;
          cell_int injected;
          cell_int rs.Autocfd_interp.Spmd.rs_retransmits;
          cell_int rs.Autocfd_interp.Spmd.rs_dup_suppressed;
          cell_int rs.Autocfd_interp.Spmd.rs_checksum_failures;
          cell_int rs.Autocfd_interp.Spmd.rs_checkpoints;
          cell_int rs.Autocfd_interp.Spmd.rs_restarts;
        ])
    rows;
  render t

let render_table4 rows =
  let open Autocfd_util.Table in
  let t =
    create
      ~title:
        "Table 4: sprayer scaling with grid density, 2 x 1 partition \
         (ours vs paper)"
      ~headers:
        [ "grid"; "T1 (s)"; "T2 (s)"; "speedup"; "efficiency";
          "paper T1"; "paper T2"; "paper speedup" ]
  in
  List.iter
    (fun r ->
      let ni, nj = r.t4_grid in
      add_row t
        [
          Printf.sprintf "%d x %d" ni nj;
          cell_float ~decimals:0 r.t4_t1;
          cell_float ~decimals:0 r.t4_t2;
          cell_float r.t4_speedup;
          cell_pct r.t4_efficiency;
          cell_float ~decimals:0 r.t4_paper_t1;
          cell_float ~decimals:0 r.t4_paper_t2;
          cell_float r.t4_paper_speedup;
        ])
    rows;
  render t

let render_table5 rows =
  let open Autocfd_util.Table in
  let t =
    create
      ~title:
        "Table 5: sprayer superlinear speedup at 800 x 300 (ours vs paper)"
      ~headers:
        [ "procs"; "partition"; "time (s)"; "efficiency over 2-proc";
          "paper time (s)"; "paper efficiency" ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          cell_int r.t5_procs; shape r.t5_partition;
          cell_float ~decimals:0 r.t5_time; cell_pct r.t5_eff_over_2;
          cell_float ~decimals:0 r.t5_paper_time; cell_pct r.t5_paper_eff;
        ])
    rows;
  render t

(* ------------------------------------------------------------------ *)
(* Machine-readable rendering (BENCH_tables.json)                      *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Auto-tuning                                                         *)
(* ------------------------------------------------------------------ *)

(* (program, frame-scaled source whose model predictions line up with
   the Table 2/3 rows) *)
let tune_cases =
  [
    ("aerofoil", fun () -> Apps.Aerofoil.source ~ntime:aerofoil_frames ());
    ("sprayer", fun () -> Apps.Sprayer.source ~ntime:sprayer_frames ());
  ]

(* one search point = one cached job; the serialized runspec IS the
   run-describing half of the key, so tune results survive cache reuse
   across grids and verbs and a warm re-tune is pure hits *)
let tune_point_job ~program ~source rspec =
  let spec_json = Runspec.to_json rspec in
  job ~table:"tune"
    ~label:
      (Printf.sprintf "%s %s" program
         (match rspec.Runspec.parts with
         | Some p -> Runspec.parts_to_string p
         | None -> Printf.sprintf "auto/%d" rspec.Runspec.nprocs))
    ~params:
      (J.Obj
         [
           machine_key;
           ("program", J.Str program);
           ("spec", spec_json);
           ("src", J.Str (Sched.Job.digest source));
         ])
    ~spec:
      (J.Obj
         [
           ("kind", J.Str "tune"); ("source", J.Str source); ("spec", spec_json);
         ])

let tune_program ?(grid = Tune.Default) ?base ?sweep ~program ~source () =
  let sw = fresh_sweep sweep in
  let t = Driver.load source in
  let jobs =
    List.map (tune_point_job ~program ~source) (Tune.points ?base grid t)
  in
  Tune.make_result ~program ~grid
    (List.map Tune.entry_of_json (run_jobs sw ~table:"tune" jobs))

let tune_table ?(grid = Tune.Default) ?sweep () =
  let sw = fresh_sweep sweep in
  List.map
    (fun (program, source) ->
      tune_program ~grid ~sweep:sw ~program ~source:(source ()) ())
    tune_cases

let tables_json ?sweep () =
  let sw = fresh_sweep sweep in
  let parts_json p =
    J.Str (String.concat "x" (Array.to_list (Array.map string_of_int p)))
  in
  let opt f = function Some v -> f v | None -> J.Null in
  let t1 =
    List.map
      (fun r ->
        J.Obj
          [
            ("program", J.Str r.t1_program);
            ("partition", parts_json r.t1_partition);
            ("before", J.Int r.t1_before);
            ("after", J.Int r.t1_after);
            ("paper_before", J.Int r.t1_paper_before);
            ("paper_after", J.Int r.t1_paper_after);
          ])
      (table1 ~sweep:sw ())
  in
  let perf rows =
    List.map
      (fun r ->
        J.Obj
          [
            ("procs", J.Int r.pr_procs);
            ("partition", opt parts_json r.pr_partition);
            ("time", J.Float r.pr_time);
            ("speedup", opt (fun s -> J.Float s) r.pr_speedup);
            ("efficiency", opt (fun e -> J.Float e) r.pr_efficiency);
            ("paper_time", J.Float r.pr_paper_time);
            ("paper_speedup", opt (fun s -> J.Float s) r.pr_paper_speedup);
          ])
      rows
  in
  let t4 =
    List.map
      (fun r ->
        let ni, nj = r.t4_grid in
        J.Obj
          [
            ("grid", J.Str (Printf.sprintf "%dx%d" ni nj));
            ("t1", J.Float r.t4_t1);
            ("t2", J.Float r.t4_t2);
            ("speedup", J.Float r.t4_speedup);
            ("efficiency", J.Float r.t4_efficiency);
            ("paper_t1", J.Float r.t4_paper_t1);
            ("paper_t2", J.Float r.t4_paper_t2);
            ("paper_speedup", J.Float r.t4_paper_speedup);
          ])
      (table4 ~sweep:sw ())
  in
  let t5 =
    List.map
      (fun r ->
        J.Obj
          [
            ("procs", J.Int r.t5_procs);
            ("partition", parts_json r.t5_partition);
            ("time", J.Float r.t5_time);
            ("eff_over_2", J.Float r.t5_eff_over_2);
            ("paper_time", J.Float r.t5_paper_time);
            ("paper_eff", J.Float r.t5_paper_eff);
          ])
      (table5 ~sweep:sw ())
  in
  let validation =
    List.map
      (fun r ->
        let ni, nj = r.vr_grid in
        J.Obj
          [
            ("grid", J.Str (Printf.sprintf "%dx%d" ni nj));
            ("partition", parts_json r.vr_parts);
            ("simulated", J.Float r.vr_simulated);
            ("modelled", J.Float r.vr_modelled);
            ("ratio", J.Float r.vr_ratio);
          ])
      (validate_model ~sweep:sw ())
  in
  let engine =
    List.map
      (fun r ->
        J.Obj
          [
            ("program", J.Str r.er_program);
            ("partition", parts_json r.er_parts);
            ("tree_s", J.Float r.er_tree_s);
            ("compiled_s", J.Float r.er_compiled_s);
            ("fused_s", J.Float r.er_fused_s);
            ("domains_s", J.Float r.er_domains_s);
            ("speedup", J.Float r.er_speedup);
            ("fused_speedup", J.Float r.er_fused_speedup);
            ("domains_speedup", J.Float r.er_domains_speedup);
            ( "loops_fused",
              J.Int (fst (coverage_counts r.er_coverage)) );
            ( "loops_total",
              J.Int (snd (coverage_counts r.er_coverage)) );
            ("nofission_fused_s", J.Float r.er_nofission_fused_s);
            ( "loops_fused_nofission",
              J.Int (fst (coverage_counts r.er_nofission_coverage)) );
            ( "loops_total_nofission",
              J.Int (snd (coverage_counts r.er_nofission_coverage)) );
            ("identical", J.Bool r.er_identical);
            ("domains_identical", J.Bool r.er_domains_identical);
            ("fission_identical", J.Bool r.er_fission_identical);
            ("cal_flop_time", J.Float r.er_calibration.M.cal_flop_time);
            ("cal_latency", J.Float r.er_calibration.M.cal_latency);
            ( "cal_bandwidth",
              J.Float
                (if Float.is_finite r.er_calibration.M.cal_bandwidth then
                   r.er_calibration.M.cal_bandwidth
                 else 0.0) );
          ])
      (engine_bench ~sweep:sw ())
  in
  let resilience =
    List.map
      (fun r ->
        let c = r.ch_counters and rs = r.ch_resilience in
        J.Obj
          [
            ("program", J.Str r.ch_program);
            ("schedule", J.Str r.ch_schedule);
            ("identical", J.Bool r.ch_identical);
            ("overhead", J.Float r.ch_overhead);
            ("drops", J.Int c.Fault.fc_drops);
            ("duplicates", J.Int c.Fault.fc_duplicates);
            ("corruptions", J.Int c.Fault.fc_corruptions);
            ("stalls", J.Int c.Fault.fc_stalls);
            ("crashes", J.Int c.Fault.fc_crashes);
            ("retransmits", J.Int rs.Autocfd_interp.Spmd.rs_retransmits);
            ( "dup_suppressed",
              J.Int rs.Autocfd_interp.Spmd.rs_dup_suppressed );
            ( "checksum_failures",
              J.Int rs.Autocfd_interp.Spmd.rs_checksum_failures );
            ("checkpoints", J.Int rs.Autocfd_interp.Spmd.rs_checkpoints);
            ("restores", J.Int rs.Autocfd_interp.Spmd.rs_restores);
            ("restarts", J.Int rs.Autocfd_interp.Spmd.rs_restarts);
          ])
      (chaos_bench ~sweep:sw ())
  in
  let tune =
    List.map Tune.result_to_json (tune_table ~sweep:sw ())
  in
  J.Obj
    [
      ("schema", J.Str "autocfd-bench/1");
      ("table1", J.List t1);
      ("table2", J.List (perf (table2 ~sweep:sw ())));
      ("table3", J.List (perf (table3 ~sweep:sw ())));
      ("table4", J.List t4);
      ("table5", J.List t5);
      ("validation", J.List validation);
      ("engine", J.List engine);
      ("resilience", J.List resilience);
      ("tune", J.List tune);
      ("sched", Report.sched_summary_json ~stale:(sweep_stale sw) (sweep_stats sw));
    ]
