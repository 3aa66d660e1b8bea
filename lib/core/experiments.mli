(** Reproduction harness for every table in the paper's evaluation (§6).

    Each [tableN] function regenerates the corresponding table: the same
    rows, same columns, with our measured/modelled values.  The paper's
    published values are embedded as [paper_*] constants so benchmarks and
    EXPERIMENTS.md can print the side-by-side comparison.  Timing tables
    use the {!Autocfd_perfmodel.Model} cluster model (the substitute for
    the paper's 6-Pentium testbed); Table 1 is a pure static analysis of
    the generated case-study programs.

    Every table enumerates its rows as {!Autocfd_sched.Job}s and executes
    them through {!Autocfd_sched.Pool}, so a single {!sweep} can spread
    the whole evaluation across a multicore worker pool and memoize
    completed rows in a content-addressed {!Autocfd_sched.Cache}.  Rows
    come back in submission order and are decoded from the same JSON the
    cache stores, so serial, parallel and warm-cache sweeps all render
    byte-identically. *)

type sweep
(** One sweep context: worker count, optional result cache, optional
    tracer for scheduler events, and the accumulated per-table pool
    statistics. *)

val sweep :
  ?jobs:int ->
  ?cache:Autocfd_sched.Cache.t ->
  ?tracer:Autocfd_obs.Trace.t ->
  ?fabric:Autocfd_sched.Fabric.t ->
  unit ->
  sweep
(** A sweep running [jobs] worker domains (default 1) with an optional
    persistent result cache.  With [fabric] set, jobs are dispatched
    over the distributed {!Autocfd_sched.Fabric} instead of the local
    pool (and [jobs] is ignored).  Passing the same [sweep] to several
    tables accumulates their pool statistics in call order. *)

val sweep_stats : sweep -> (string * Autocfd_sched.Pool.stats) list
(** Per-table scheduler statistics for every [run] the sweep has
    performed so far, in call order (table name, pool stats). *)

val sweep_stale : sweep -> int
(** Stale cache temp files swept when this sweep's cache was opened
    (see {!Autocfd_sched.Cache.stale_cleaned}); 0 without a cache. *)

val exec_spec : Autocfd_obs.Json.t -> Autocfd_obs.Json.t
(** Execute one self-contained job spec (the [jb_spec] attached to
    every sweep job) and return its result JSON.  This is the resolver a
    fabric worker runs: each table's job body lives here, keyed on the
    spec's ["kind"], so local and remote execution share one code path.
    @raise Autocfd_obs.Json.Parse_error on an unknown or malformed
    spec. *)

type t1_row = {
  t1_program : string;
  t1_partition : int array;
  t1_before : int;
  t1_after : int;
  t1_paper_before : int;
  t1_paper_after : int;
}

val table1 : ?sweep:sweep -> unit -> t1_row list
(** Synchronization optimization on both case studies (paper Table 1). *)

type perf_row = {
  pr_procs : int;
  pr_partition : int array option;  (** [None] for the uniprocessor row *)
  pr_time : float;
  pr_speedup : float option;
  pr_efficiency : float option;
  pr_paper_time : float;
  pr_paper_speedup : float option;
}

val table2 : ?sweep:sweep -> unit -> perf_row list
(** Aerofoil overall performance, 99 x 41 x 13 (paper Table 2). *)

val table3 : ?sweep:sweep -> unit -> perf_row list
(** Sprayer overall performance, 300 x 100 (paper Table 3). *)

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

val table4 : ?sweep:sweep -> unit -> t4_row list
(** Sprayer 2-processor scaling with grid density (paper Table 4). *)

type t5_row = {
  t5_procs : int;
  t5_partition : int array;
  t5_time : float;
  t5_eff_over_2 : float;  (** parallel efficiency over the 2-proc system *)
  t5_paper_time : float;
  t5_paper_eff : float;
}

val table5 : ?sweep:sweep -> unit -> t5_row list
(** Sprayer superlinear speedup at 800 x 300 (paper Table 5). *)

val render_table1 : t1_row list -> string
val render_perf : title:string -> perf_row list -> string
val render_table4 : t4_row list -> string
val render_table5 : t5_row list -> string

type validation_row = {
  vr_grid : int * int;
  vr_parts : int array;
  vr_simulated : float;
      (** wall-clock from actually executing the SPMD program on the
          simulated cluster (virtual clock: per-flop compute charges +
          the network model) *)
  vr_modelled : float;  (** the analytic model's prediction *)
  vr_ratio : float;  (** modelled / simulated *)
}

val validate_model : ?sweep:sweep -> unit -> validation_row list
(** Cross-validation of the analytic performance model against
    execution-driven timing: small sprayer instances are {e run} on the
    simulated cluster with per-flop time charging, and the same instances
    are {e predicted} by the analytic model.  The two derive wall-clock by
    completely different means (event-driven blocking vs static census),
    so agreement within a small factor validates both. *)

val render_validation : validation_row list -> string

type engine_row = {
  er_program : string;
  er_parts : int array;
  er_tree_s : float;  (** mean wall-clock of a tree-walking SPMD run *)
  er_compiled_s : float;  (** same run on the compiled closure IR *)
  er_fused_s : float;  (** same run with the fused-kernel tier enabled *)
  er_speedup : float;  (** tree / compiled *)
  er_fused_speedup : float;  (** tree / fused *)
  er_identical : bool;
      (** gathered arrays, scalars, WRITE output, per-rank flop counts and
          simulator stats all bit-identical across the three engines *)
  er_coverage : Autocfd_interp.Compile.coverage_entry list;
      (** static fusibility of every field-loop nest of the SPMD unit *)
  er_nofission_fused_s : float;
      (** fused-engine wall-clock of the same run with the loop-fission
          pass disabled — the before side of the fission columns *)
  er_fission_identical : bool;
      (** program state (gathered arrays, scalars, WRITE output, flop
          counts) bit-identical with fission on and off *)
  er_nofission_coverage : Autocfd_interp.Compile.coverage_entry list;
      (** static fusibility with the loop-fission pass disabled *)
  er_domains_s : float;
      (** mean wall-clock of the real shared-memory Domains engine (one
          OCaml 5 domain per rank) on a larger instance of the same
          program, where per-barrier compute dominates spawn cost *)
  er_domains_speedup : float;
      (** fused wall / domains wall on that larger instance — real
          parallel speedup over the single-threaded fused simulation *)
  er_domains_identical : bool;
      (** gathered arrays, scalars, WRITE output and per-rank flop counts
          bit-identical to the simulator (stats excluded: Domains stats
          are measured wall clock) *)
  er_calibration : Autocfd_perfmodel.Model.calibration;
      (** model primitives fitted from the Domains run's measurements *)
}

val engine_bench : ?sweep:sweep -> unit -> engine_row list
(** Head-to-head of the four execution engines on a small aerofoil and
    sprayer instance: each case is executed on the simulated cluster with
    every engine (and for real on OCaml 5 domains), results are checked
    for bit-identity, then each engine is timed over repeated runs.  Note
    that the measured wall-clock seconds are part of the cached row, so a
    warm-cache sweep reports the timings of the run that populated the
    cache. *)

val render_engine : engine_row list -> string

val render_engine_coverage : engine_row list -> string
(** Per-loop kernel coverage detail: one line per field-loop nest of each
    benchmarked SPMD unit, saying whether it fused and, if not, why it
    fell back to the closure IR. *)

val coverage_to_json :
  Autocfd_interp.Compile.coverage_entry list -> Autocfd_obs.Json.t
(** Serialize per-nest coverage rows (line, vars, fused, reason prose,
    loop-fission provenance as [frag]/[nfrags] ints, 0 = unsplit). *)

val coverage_of_json :
  Autocfd_obs.Json.t -> Autocfd_interp.Compile.coverage_entry list
(** Inverse of {!coverage_to_json}; rows without [frag]/[nfrags] (written
    before the loop-fission pass existed) parse as unsplit.
    @raise Autocfd_obs.Json.Parse_error on malformed rows. *)

val coverage_manifest : unit -> Autocfd_obs.Json.t
(** Per-nest fused-kernel coverage of the full-size bundled applications
    (sequential inlined unit, loop fission on) — the document committed
    as [COVERAGE.json] (schema ["autocfd-coverage/1"]). *)

val check_coverage_manifest :
  committed:Autocfd_obs.Json.t -> current:Autocfd_obs.Json.t -> string list
(** Coverage regressions of [current] against the [committed] manifest:
    one message per nest that was fused in the committed manifest but is
    now missing or falls back to the closure IR, and per program that
    disappeared entirely.  Empty means the gate passes; new nests and
    newly-fused nests are never regressions.
    @raise Autocfd_obs.Json.Parse_error on a malformed manifest. *)

val render_coverage_fission : unit -> string
(** Human-readable before/after loop-fission coverage of the bundled
    applications: per program, fused counts with the pass disabled and
    enabled, then one line per nest (fission fragments annotated
    [#i/n]) — the [bench coverage] verb and CI coverage artifact. *)

type chaos_row = {
  ch_program : string;
  ch_schedule : string;  (** human label of the fault schedule *)
  ch_identical : bool;
      (** gathered arrays, WRITE output and final scalars bit-equal to
          the fault-free run *)
  ch_overhead : float;  (** faulty / fault-free virtual elapsed time *)
  ch_resilience : Autocfd_interp.Spmd.resilience;
  ch_counters : Autocfd_mpsim.Fault.counters;  (** faults injected *)
}

val chaos_bench : ?seed:int -> ?sweep:sweep -> unit -> chaos_row list
(** The resilience harness: a small sprayer (2 x 2) and aerofoil
    (2 x 2 x 1) instance are first run fault-free, then re-run under six
    seeded fault schedules each (loss, duplication+corruption,
    jitter+degraded link, a straggler, a crash with checkpoint/restart,
    and all combined), with the reliable transport and coordinated
    checkpointing enabled.  Every schedule is recoverable, so every row
    must report [ch_identical = true]; [ch_overhead] is the price paid in
    simulated wall-clock. *)

val render_chaos : chaos_row list -> string

val tune_program :
  ?grid:Tune.grid ->
  ?base:Runspec.t ->
  ?sweep:sweep ->
  program:string ->
  source:string ->
  unit ->
  Tune.result
(** Auto-tune one program: enumerate {!Tune.points} for [grid], dispatch
    each point as a cached job through the sweep (one job per point; the
    serialized runspec is the run-describing half of the cache key, so a
    warm re-tune is pure hits), and prune to the Pareto frontier.
    [base] seeds the non-searched runspec fields. *)

val tune_table : ?grid:Tune.grid -> ?sweep:sweep -> unit -> Tune.result list
(** {!tune_program} over both paper case studies on their frame-scaled
    sources (so tuned times line up with the Table 2/3 rows).  Results
    are fully deterministic and byte-reproducible on every grid. *)

val machine : Autocfd_perfmodel.Model.machine
(** The calibrated cluster model used by every timing table. *)

val aerofoil_frames : int
val sprayer_frames : int
(** Frame counts used to scale modelled runs to the paper's wall-clock
    magnitudes (the paper does not state its iteration counts). *)

val tables_json : ?sweep:sweep -> unit -> Autocfd_obs.Json.t
(** Every table (1-5), the model-validation rows, the execution-engine
    benchmark (key ["engine"]), the chaos/resilience benchmark (key
    ["resilience"]), the default-grid auto-tune results (key ["tune"],
    {!Tune.result_to_json} per program) and the sweep's scheduler
    statistics (key ["sched"],
    {!Report.sched_summary_json}) as one JSON document (schema
    ["autocfd-bench/1"]) — the diffable perf trajectory written to
    [BENCH_tables.json] by [autocfd bench baseline].  All tables run
    through the given [sweep] (default: a fresh serial sweep).  The
    ["sched"] section is wall-clock (machine-dependent); the baseline
    gate ({!Baseline}) never gates on it. *)
