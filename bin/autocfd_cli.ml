(** The Auto-CFD pre-compiler command line.

    {v
    autocfd analyze file.f --parts 4x1x1     dependency/sync analysis report
    autocfd analyze file.f --report          full markdown report (incl. the
                                             measured per-rank / per-sync tables)
    autocfd parallelize file.f --parts 2x2   emit the SPMD program
    autocfd run file.f --parts 2x2 [--json]  run sequential vs simulated SPMD
    autocfd trace file.f --parts 2x2 \
        --output trace.json                  profile the simulated execution:
                                             Chrome trace_event JSON (load in
                                             Perfetto / chrome://tracing), plus
                                             --metrics m.json for the compact
                                             per-rank / per-sync metrics
    autocfd profile file.f --parts 2x2       kernel-level profile: hot-nest
                                             table (top-N by self time, share
                                             of compute, flop throughput),
                                             per-sync-point latency histograms
                                             and pool utilization; --json /
                                             --prom for machine-readable and
                                             Prometheus output, --check for
                                             the >= 95% attribution gate
    autocfd tables [1-5|validate|ablation|advisor|all] [--json] [--check]
                                             regenerate the paper's tables
                                             (--check: the three-pass sweep
                                             scheduler gate)
    autocfd tune [file.f] [--grid wide]      auto-search the configuration
                                             space (rank count x partition
                                             shape x sync combining x
                                             fission): winner plus
                                             Pareto frontier over predicted
                                             time / comm volume / memory; no
                                             file tunes both case studies
                                             (--check: the auto-tune gate)
    autocfd bench engine|coverage|chaos|fabric|baseline|micro [--check]
                                             benchmarks and their CI gates
    autocfd worker --connect ADDR            one distributed-sweep worker
    autocfd demo [aerofoil|sprayer|cavity]   dump a bundled case study source

    Every program-running verb accepts --spec FILE (a Runspec JSON
    document) as the single source of configuration; individual flags
    override single fields, and run --json echoes the resolved spec.
    Table output goes to stdout and is byte-identical for any --jobs or
    --workers value and for cold vs warm caches; scheduler statistics go
    to stderr.
    v} *)

open Cmdliner
module D = Autocfd.Driver
module A = Autocfd_analysis
module S = Autocfd_syncopt
module Obs = Autocfd_obs

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* the Fortran source being compiled (path, text), quoted by located
   diagnostics *)
let source = ref ("-", "")

let read_source path =
  let text = read_file path in
  source := (path, text);
  text

let parse_parts s =
  try
    let parts =
      String.split_on_char 'x' (String.lowercase_ascii s)
      |> List.map String.trim |> List.map int_of_string |> Array.of_list
    in
    if Array.length parts = 0 || Array.exists (fun p -> p < 1) parts then
      failwith "bad";
    Ok parts
  with _ ->
    Error (`Msg (Printf.sprintf "bad partition spec %S (expected e.g. 4x1x1)" s))

let parts_conv =
  Arg.conv
    ( parse_parts,
      fun ppf parts ->
        Format.pp_print_string ppf
          (String.concat "x" (Array.to_list (Array.map string_of_int parts)))
    )

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Sequential Fortran CFD source file (with c\\$acfd directives).")

let parts_arg =
  Arg.(value & opt (some parts_conv) None
       & info [ "p"; "parts" ] ~docv:"PARTS"
           ~doc:"Partition shape, e.g. 4x1x1. Default: automatic for --nprocs.")

let nprocs_arg =
  Arg.(value & opt (some int) None
       & info [ "n"; "nprocs" ] ~docv:"N"
           ~doc:"Number of processors for the automatic partition search \
                 (default 4, or whatever --spec says).")

let fission_arg =
  Arg.(value & flag
       & info [ "no-fission" ]
           ~doc:"Disable the loop-fission pass (mixed DO nests are not \
                 distributed into independent sub-nests before analysis \
                 and execution).")

let spec_arg =
  Arg.(value & opt (some file) None
       & info [ "spec" ] ~docv:"FILE"
           ~doc:"Runspec JSON file: the single source of configuration \
                 (engine, partition shape or rank count, sync combining, \
                 fission, fusion, faults...).  Command-line flags override \
                 individual fields.  `run --json` echoes the resolved \
                 spec, so any run's output names the spec that reproduces \
                 it.")

(* one resolved Runspec per invocation: --spec FILE (default
   Runspec.default), then each explicitly given flag overrides its
   field *)
let resolve_spec ?parts ?nprocs ?(no_fission = false) ?engine spec_file =
  let base =
    match spec_file with
    | None -> Autocfd.Runspec.default
    | Some path -> (
        match Autocfd.Runspec.of_json (Obs.Json.of_string (read_file path))
        with
        | spec -> spec
        | exception Obs.Json.Parse_error msg ->
            Printf.eprintf "autocfd: bad runspec %s: %s\n" path msg;
            exit 1)
  in
  let ( |? ) v f = match v with Some x -> f x | None -> Fun.id in
  base
  |> (nprocs |? Autocfd.Runspec.with_nprocs)
  |> (parts |? fun p -> Autocfd.Runspec.with_parts (Some p))
  |> (if no_fission then Autocfd.Runspec.with_fission false else Fun.id)
  |> (engine |? Autocfd.Runspec.with_engine)

let load_and_plan spec file =
  let t = D.load ~spec (read_source file) in
  (t, D.plan ~spec t)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)

let analyze file spec_file parts nprocs no_fission report =
  let spec = resolve_spec ?parts ?nprocs ~no_fission spec_file in
  if report then
    let _, plan = load_and_plan spec file in
    print_string (Autocfd.Report.markdown plan)
  else
  let t, plan = load_and_plan spec file in
  let gi = t.D.gi in
  Format.printf "flow field: %a@." A.Grid_info.pp gi;
  Format.printf "partition:  %s (%d subtasks)@."
    (Gates.shape (Autocfd_partition.Topology.parts plan.D.topo))
    (Autocfd_partition.Topology.nranks plan.D.topo);
  Format.printf "@.field loop heads:@.";
  List.iter2
    (fun (s : A.Field_loop.summary) (_, strat) ->
      let types =
        String.concat " "
          (List.map
             (fun (v, _) ->
               Printf.sprintf "%s:%s" v
                 (match A.Field_loop.ltype s v with
                 | A.Field_loop.A -> "A"
                 | A.Field_loop.R -> "R"
                 | A.Field_loop.C -> "C"
                 | A.Field_loop.O -> "O"))
             s.A.Field_loop.fs_uses)
      in
      let strat_str =
        match strat with
        | A.Mirror.Serial -> "serial (replicated)"
        | A.Mirror.Block -> "block-parallel"
        | A.Mirror.Pipeline dims ->
            Printf.sprintf "mirror-image pipeline on dims {%s}"
              (String.concat ","
                 (List.map (fun (d, _) -> string_of_int d) dims))
      in
      Format.printf "  line %-5d do %-8s -> %-40s [%s]@."
        s.A.Field_loop.fs_loop.A.Loops.lp_line
        s.A.Field_loop.fs_loop.A.Loops.lp_var strat_str types)
    plan.D.summaries plan.D.strategies;
  Format.printf "@.S_LDP: %d dependent pairs (%d self-dependent)@."
    (List.length plan.D.sldp.A.Sldp.pairs)
    (List.length (A.Sldp.self_pairs plan.D.sldp));
  Format.printf
    "synchronization points: %d before optimization, %d after (%.0f%% \
     reduction)@."
    plan.D.opt.S.Optimizer.before plan.D.opt.S.Optimizer.after
    (100. *. S.Optimizer.reduction_pct plan.D.opt);
  Format.printf "@.combined synchronization points:@.";
  List.iteri
    (fun i (g : S.Combine.group) ->
      Format.printf "  #%d: %d regions merged, %d halo transfers@." (i + 1)
        (List.length g.S.Combine.gr_regions)
        (List.length g.S.Combine.gr_transfers))
    plan.D.opt.S.Optimizer.groups

let parallelize file spec_file parts nprocs no_fission mpi output =
  let spec = resolve_spec ?parts ?nprocs ~no_fission spec_file in
  let _, plan = load_and_plan spec file in
  let text = if mpi then D.mpi_source plan else D.spmd_source plan in
  match output with
  | None -> print_string text
  | Some path -> write_file path text

let engine_name = function
  | Autocfd_interp.Spmd.Tree -> "tree"
  | Autocfd_interp.Spmd.Compiled -> "compiled"
  | Autocfd_interp.Spmd.Fused -> "fused"
  | Autocfd_interp.Spmd.Domains -> "domains"

(* program state (gathered arrays, scalars, per-rank flops, output)
   bit-identical — the Domains-vs-simulator equivalence contract, which
   deliberately excludes stats (Domains stats are measured wall clock) *)
let same_program_state (a : Autocfd_interp.Spmd.result)
    (b : Autocfd_interp.Spmd.result) =
  let module I = Autocfd_interp in
  List.length a.I.Spmd.gathered = List.length b.I.Spmd.gathered
  && List.for_all2
       (fun (na, aa) (nb, ab) -> na = nb && aa.I.Value.data = ab.I.Value.data)
       a.I.Spmd.gathered b.I.Spmd.gathered
  && a.I.Spmd.scalars = b.I.Spmd.scalars
  && a.I.Spmd.flops_per_rank = b.I.Spmd.flops_per_rank
  && a.I.Spmd.output = b.I.Spmd.output

(* The run verb goes through the sweep scheduler as a single job, so a
   repeated `autocfd run` of an unchanged source is a cache hit: the
   stored result document carries everything both renderings and the
   divergence exit code need. *)
let run_cmd file spec_file parts nprocs no_fission engine json jobs use_cache
    cache_dir =
  let module J = Obs.Json in
  let module Sched = Autocfd_sched in
  let source = read_source file in
  let tracer = if json then Some (Obs.Trace.create ()) else None in
  let run_spec =
    Autocfd.Runspec.with_tracer tracer
      (resolve_spec ?parts ?nprocs ~no_fission ?engine spec_file)
  in
  let engine = run_spec.Autocfd.Runspec.engine in
  (* planned before the job so source diagnostics reach the command line
     instead of becoming a failed job *)
  let t = D.load ~spec:run_spec source in
  let plan = D.plan ~spec:run_spec t in
  let job =
    Sched.Job.make
      ~label:(Printf.sprintf "run %s" (Filename.basename file))
      (* the serialized resolved spec IS the run-describing half of the
         key: one JSON value names everything that shapes the result *)
      ~key:
        (J.Obj
           [
             ("verb", J.Str "run");
             ("spec", Autocfd.Runspec.to_json run_spec);
             ("src", J.Str (Sched.Job.digest source));
           ])
      (fun () ->
        let seq = D.run_seq t in
        let par = D.run ~spec:run_spec plan in
        (* a Domains run is additionally held to bit-identity against
           the simulated cluster (the CI equivalence gate) *)
        let bit_identical =
          match engine with
          | Autocfd_interp.Spmd.Domains ->
              let reference =
                D.run
                  ~spec:
                    Autocfd.Runspec.(
                      run_spec
                      |> with_engine Autocfd_interp.Spmd.Fused
                      |> with_tracer None)
                  plan
              in
              J.Bool (same_program_state reference par)
          | _ -> J.Null
        in
        let stats = par.Autocfd_interp.Spmd.stats in
        let divergence = D.max_divergence seq par in
        let worst =
          List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 divergence
        in
        let strs l = J.List (List.map (fun s -> J.Str s) l) in
        J.Obj
          [
            ("schema", J.Str "autocfd-run/2");
            ("spec", Autocfd.Runspec.to_json run_spec);
            ("ranks", J.Int (Autocfd_partition.Topology.nranks plan.D.topo));
            ("engine", J.Str (engine_name engine));
            ("bit_identical", bit_identical);
            ("seq_output", strs seq.D.sq_output);
            ("output", strs par.Autocfd_interp.Spmd.output);
            ("messages", J.Int stats.Autocfd_mpsim.Sim.messages);
            ("bytes", J.Int stats.Autocfd_mpsim.Sim.bytes);
            ("collectives", J.Int stats.Autocfd_mpsim.Sim.collectives);
            ( "divergence",
              J.Obj (List.map (fun (n, d) -> (n, J.Float d)) divergence) );
            ("equivalent", J.Bool (worst < 1e-9));
            ( "metrics",
              match tracer with
              | Some tr -> Obs.Metrics.to_json (Obs.Metrics.of_trace tr)
              | None -> J.Null );
          ])
  in
  let cache = if use_cache then Some (Gates.open_cache cache_dir) else None in
  let results, stats = Sched.Pool.run ~jobs ?cache [ job ] in
  Printf.eprintf "scheduler: %d hit(s), %d miss(es)\n%!"
    stats.Sched.Pool.ps_hits stats.Sched.Pool.ps_misses;
  let doc =
    match results.(0) with
    | Ok doc -> doc
    | Error msg ->
        Printf.eprintf "run failed: %s\n" msg;
        exit 1
  in
  let field name =
    match J.member name doc with
    | Some v -> v
    | None ->
        Printf.eprintf "corrupt run document: missing %S\n" name;
        exit 1
  in
  let str_list name =
    match field name with
    | J.List l ->
        List.filter_map (function J.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  let int_field name = match field name with J.Int i -> i | _ -> 0 in
  let equivalent = field "equivalent" = J.Bool true in
  (* absent on pre-engine cached documents and non-domains runs *)
  let bit_identical =
    match J.member "bit_identical" doc with
    | Some (J.Bool b) -> Some b
    | _ -> None
  in
  let divergence =
    match field "divergence" with
    | J.Obj fields ->
        List.map (fun (n, d) -> (n, J.to_float_exn d)) fields
    | _ -> []
  in
  (if json then
     (* the stored document minus the human-only sequential echo, plus
        this invocation's scheduler statistics (not cached: they describe
        the pool run that produced or fetched the document) *)
     let doc =
       match doc with
       | J.Obj fields ->
           J.Obj
             (List.filter (fun (n, _) -> n <> "seq_output") fields
             @ [
                 ( "sched",
                   Autocfd.Report.sched_summary_json [ ("run", stats) ] );
               ])
       | d -> d
     in
     print_endline (J.pretty doc)
   else begin
     Format.printf "sequential output:@.";
     List.iter (Format.printf "  %s@.") (str_list "seq_output");
     Format.printf "parallel output (%d simulated ranks):@."
       (int_field "ranks");
     List.iter (Format.printf "  %s@.") (str_list "output");
     Format.printf "messages: %d (%d bytes), collectives: %d@."
       (int_field "messages") (int_field "bytes") (int_field "collectives");
     Format.printf "max |sequential - parallel| per status array:@.";
     List.iter
       (fun (name, d) -> Format.printf "  %-10s %.3g@." name d)
       divergence;
     (match bit_identical with
     | Some true ->
         Format.printf "PASS: domains run bit-identical to the simulator@."
     | Some false ->
         Format.printf "FAIL: domains run diverges from the simulator@."
     | None -> ());
     if equivalent then Format.printf "PASS: numerically equivalent@."
     else
       Format.printf "FAIL: parallel run diverges (%.3g)@."
         (List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 divergence)
   end);
  if (not equivalent) || bit_identical = Some false then exit 1

(* trace and profile charge the reference machine's calibrated costs
   unless the spec already names a machine *)
let with_default_machine spec =
  match spec.Autocfd.Runspec.machine with
  | Some _ -> spec
  | None ->
      Autocfd.Runspec.with_machine
        (Some Autocfd_perfmodel.Model.pentium_cluster) spec

let trace_cmd file spec_file parts nprocs no_fission engine out metrics_out =
  let tracer = Obs.Trace.create () in
  let spec =
    resolve_spec ?parts ?nprocs ~no_fission ?engine spec_file
    |> with_default_machine
    |> Autocfd.Runspec.with_tracer (Some tracer)
  in
  let _, plan = load_and_plan spec file in
  let result = D.run ~spec plan in
  write_file
    (Option.value out ~default:"trace.json")
    (Obs.Chrome.to_string tracer);
  let m = Obs.Metrics.of_trace tracer in
  (match metrics_out with
  | Some path -> write_file path (Obs.Json.pretty (Obs.Metrics.to_json m))
  | None -> ());
  let stats = result.Autocfd_interp.Spmd.stats in
  Printf.printf
    "%d ranks, %d trace events; %.3f s simulated (%d messages, %d bytes)\n"
    (Obs.Trace.nranks tracer) (Obs.Trace.length tracer)
    stats.Autocfd_mpsim.Sim.elapsed stats.Autocfd_mpsim.Sim.messages
    stats.Autocfd_mpsim.Sim.bytes;
  Array.iter
    (fun (r : Obs.Metrics.rank_row) ->
      Printf.printf
        "  rank %d: compute %.3f s, comm %.3f s, blocked %.3f s\n"
        r.Obs.Metrics.rr_rank r.Obs.Metrics.rr_compute r.Obs.Metrics.rr_comm
        r.Obs.Metrics.rr_blocked)
    m.Obs.Metrics.ranks

let profile_cmd file spec_file parts nprocs no_fission engine top json prom
    check min_cov =
  let spec =
    resolve_spec ?parts ?nprocs ~no_fission ?engine spec_file
    |> with_default_machine
  in
  let _, plan = load_and_plan spec file in
  let label = Printf.sprintf "profile %s" (Filename.basename file) in
  let p = Autocfd.Profile.run ~spec ~label plan in
  if json then
    print_endline (Obs.Json.pretty (Autocfd.Profile.to_json ~top p))
  else if prom then print_string (Autocfd.Profile.to_prometheus p)
  else print_string (Autocfd.Profile.render ~top p);
  if check then begin
    let cov = Autocfd.Profile.coverage p in
    if cov < min_cov then
      Gates.fail
        "FAIL: %.2f%% of compute time attributed to named nests (need >= \
         %.2f%%)"
        (100. *. cov) (100. *. min_cov);
    Printf.printf "OK: %.2f%% of compute time attributed to %d named nests\n"
      (100. *. cov)
      (List.length p.Autocfd.Profile.pf_metrics.Obs.Metrics.kernels)
  end

let report file spec_file parts nprocs no_fission output =
  let spec = resolve_spec ?parts ?nprocs ~no_fission spec_file in
  let _, plan = load_and_plan spec file in
  let text = Autocfd.Report.markdown plan in
  match output with
  | None -> print_string text
  | Some path -> write_file path text

let tables which json check so =
  let module G = Gates in
  if check then G.check_tables so
  else if json then
    G.with_sweep so (fun sw ->
        print_endline
          (Obs.Json.pretty (Autocfd.Experiments.tables_json ~sweep:sw ())))
  else
    let renderers =
      if which = "all" then G.tables
      else [ (which, List.assoc which G.tables) ]
    in
    print_string (G.with_sweep so (G.render_all renderers))

(* auto-tune one program, or with no FILE both case studies: every point
   of the configuration product space, dispatched as cached (and
   optionally distributed) jobs, pruned to the Pareto frontier *)
let tune file spec_file grid json check so =
  let module E = Autocfd.Experiments in
  let module T = Autocfd.Tune in
  let print_json j = print_endline (Obs.Json.pretty j) in
  match file with
  | Some _ when check ->
      `Error (true, "--check gates the bundled case studies; it takes no FILE")
  | None when spec_file <> None -> `Error (true, "--spec needs a FILE")
  | None when check -> `Ok (Gates.check_tune so)
  | None ->
      let results =
        Gates.with_sweep so (fun sw -> E.tune_table ~grid ~sweep:sw ())
      in
      `Ok
        (if json then print_json (Autocfd.Report.tune_summary_json results)
         else print_string (Gates.render_tunes results))
  | Some file ->
      let base = resolve_spec spec_file in
      let source = read_source file in
      let r =
        Gates.with_sweep so (fun sw ->
            E.tune_program ~grid ~base ~sweep:sw
              ~program:(Filename.basename file) ~source ())
      in
      `Ok
        (if json then print_json (T.result_to_json r)
         else print_string (T.render r))

(* one fabric worker process: connect back to the master, resolve each
   assigned spec through the shared Experiments dispatcher, stream the
   results home.  Normally spawned by the master itself (--workers),
   but any host that can reach the socket may contribute. *)
let worker connect id =
  let module Fabric = Autocfd_sched.Fabric in
  match Fabric.addr_of_string connect with
  | Error msg ->
      Printf.eprintf "autocfd worker: %s\n" msg;
      exit 1
  | Ok addr -> (
      match
        Fabric.serve ~connect:addr ?id
          ~resolve:Autocfd.Experiments.exec_spec ()
      with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "autocfd worker: %s\n" msg;
          exit 1)

let demo which =
  match which with
  | "aerofoil" -> print_string (Autocfd_apps.Aerofoil.source ())
  | "sprayer" -> print_string (Autocfd_apps.Sprayer.source ())
  | "cavity" -> print_string (Autocfd_apps.Cavity.source ())
  | other ->
      Printf.eprintf "unknown demo %S (aerofoil|sprayer|cavity)\n" other;
      exit 1

(* ------------------------------------------------------------------ *)

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file.")

let json_flag ~what =
  Arg.(value & flag & info [ "json" ] ~doc:("Emit " ^ what ^ " as JSON."))

let check_flag ~doc = Arg.(value & flag & info [ "check" ] ~doc)

let jobs_arg =
  Arg.(value & opt int (Autocfd_sched.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the sweep scheduler (default: all \
                 recommended cores).")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the persistent content-addressed result cache.")

let cache_dir_arg =
  Arg.(value & opt string Gates.default_cache_dir
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Result cache directory (default: _autocfd_cache).")

let workers_arg =
  Arg.(value & opt int 0
       & info [ "workers" ] ~docv:"N"
           ~doc:"Spawn $(docv) fabric worker processes and run the sweep \
                 over the distributed fabric (leases, retries, crash \
                 recovery) instead of the in-process pool.  0 (default) \
                 stays in-process.")

(* the options of every table-regenerating verb *)
let sweep_term =
  let make jobs workers no_cache cache_dir =
    { Gates.jobs; workers; cache = not no_cache; cache_dir }
  in
  Term.(const make $ jobs_arg $ workers_arg $ no_cache_arg $ cache_dir_arg)

let engine_arg =
  let parse = function
    | "tree" -> Ok Autocfd_interp.Spmd.Tree
    | "compiled" -> Ok Autocfd_interp.Spmd.Compiled
    | "fused" -> Ok Autocfd_interp.Spmd.Fused
    | "domains" -> Ok Autocfd_interp.Spmd.Domains
    | s ->
        Error
          (`Msg
             (Printf.sprintf "bad engine %S (tree|compiled|fused|domains)" s))
  in
  let print ppf e = Format.pp_print_string ppf (engine_name e) in
  Arg.(value & opt (some (conv (parse, print))) None
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: tree, compiled, fused (default, or \
                 whatever --spec says) or domains (real shared-memory \
                 execution on OCaml 5 domains).  The compiled, fused and \
                 domains engines emit per-nest kernel summaries.")

let analyze_cmd =
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Emit the full markdown report instead of the plain-text \
                   summary (same output as the 'report' verb, including the \
                   measured per-rank time breakdown and per-sync-point \
                   traffic tables).")
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Dependency and synchronization analysis report")
    Term.(const analyze $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ report)

let parallelize_cmd =
  let mpi =
    Arg.(value & flag
         & info [ "mpi" ]
             ~doc:"Emit complete Fortran 77 + MPI source (with generated \
                   pack/exchange subroutines) instead of the annotated \
                   SPMD form.")
  in
  Cmd.v
    (Cmd.info "parallelize"
       ~doc:"Transform a sequential CFD program into an SPMD program")
    Term.(const parallelize $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ mpi $ output_arg)

let run_cmd_ =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the program sequentially and on the simulated cluster \
          (or for real on OCaml 5 domains with --engine domains, which \
          additionally gates on bit-identity against the simulator), and \
          compare the results (memoized: a repeated run of an unchanged \
          source is served from the result cache)")
    Term.(const run_cmd $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ engine_arg
          $ json_flag ~what:"the comparison and per-rank metrics"
          $ jobs_arg
          $ Term.app (const not) no_cache_arg
          $ cache_dir_arg)

let trace_cmd_ =
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Also write the compact per-rank / per-sync-point metrics \
                   JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Profile the program on the simulated cluster: execute it with the \
          reference machine's calibrated network and per-flop cost while \
          recording every compute, send/recv, collective and blocked \
          interval, then export a Chrome trace_event JSON timeline (one \
          track per rank; to --output, default trace.json, for Perfetto or \
          chrome://tracing) plus optional machine-readable metrics.  With \
          --engine domains the timeline is the real shared-memory \
          execution's wall clock on a dedicated process lane")
    Term.(const trace_cmd $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ engine_arg $ output_arg $ metrics)

let profile_cmd_ =
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows of the hot-nest table (default 10).")
  in
  let prom =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit the unified metrics registry in Prometheus text \
                   exposition format instead of the human-readable profile.")
  in
  let min_cov =
    Arg.(value & opt float 0.95
         & info [ "min-coverage" ] ~docv:"FRAC"
             ~doc:"Attribution threshold for --check (default 0.95).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Kernel-level profile of the program on the simulated reference \
          cluster: run it through the sweep pool with tracing enabled, then \
          print the hot-nest table (top-N field-loop nests by self time, \
          with share of total compute and flop/byte throughput), \
          per-sync-point latency histograms and scheduler utilization.  \
          --json emits the full machine-readable profile, --prom the \
          unified metrics registry in Prometheus text format.")
    Term.(const profile_cmd $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ engine_arg
          $ top
          $ json_flag ~what:"the full profile document"
          $ prom
          $ check_flag
              ~doc:"Exit nonzero unless at least $(b,--min-coverage) of the \
                    virtual compute time is attributed to named field-loop \
                    nests (the CI attribution gate)."
          $ min_cov)

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Emit a markdown pre-compilation report (loops, S_LDP, \
             synchronization points, modelled performance)")
    Term.(const report $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ output_arg)

let tables_cmd =
  let which =
    let names = "all" :: List.map fst Gates.tables in
    Arg.(value & pos 0 (enum (List.map (fun n -> (n, n)) names)) "all"
         & info [] ~docv:"WHICH"
             ~doc:"1-5, validate (model vs simulator), ablation (optimal \
                   vs first-fit combining), advisor (volume heuristic vs \
                   model-picked partition) or all.")
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's evaluation tables side by side with the \
             published values")
    Term.(const tables $ which
          $ json_flag ~what:"every table (1-5) plus model validation"
          $ check_flag
              ~doc:"The sweep scheduler gate: render the pooled tables \
                    serially without a cache, then in parallel on a cold \
                    and on a warm cache; fail unless all three are \
                    byte-identical, the warm pass is 100% cache hits and \
                    it is at least 5x faster than the cold pass."
          $ sweep_term)

let tune_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Fortran source to tune (default: both paper case studies \
                 on their Table 2/3 sources).")
  in
  let grid =
    let parse s =
      match Autocfd.Tune.grid_of_string s with
      | Ok g -> Ok g
      | Error msg -> Error (`Msg msg)
    in
    let print ppf g =
      Format.pp_print_string ppf (Autocfd.Tune.grid_to_string g)
    in
    Arg.(value & opt (conv (parse, print)) Autocfd.Tune.Default
         & info [ "grid" ] ~docv:"GRID"
             ~doc:"Search-space width: narrow (single smoke-test point), \
                   default (every rank count and feasible partition shape \
                   x sync-combining strategy) or wide (adds odd rank \
                   counts and the fission ablation).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Auto-search the full configuration space of a program (with no \
          FILE: both paper case studies): every rank count, feasible \
          partition shape and synchronization-combining strategy (and on \
          the wide grid: loop fission on and off) is one cached job \
          through the sweep scheduler; the result is the winning \
          configuration plus the Pareto frontier over predicted time, \
          communication volume and per-rank memory.  Each frontier row's \
          spec is a complete Runspec: feed it back with --spec to \
          reproduce that exact run.")
    Term.(ret
            (const tune $ file $ spec_arg $ grid
             $ json_flag ~what:"the winner and Pareto frontier"
             $ check_flag
                 ~doc:"The auto-tune gate over both case studies' default \
                       grid: serial, cold parallel and warm parallel tunes \
                       must render byte-identically with a 100%-hit warm \
                       pass, each winner must not lose to any hand-picked \
                       Table 2/3 row, and no frontier entry may be \
                       dominated."
             $ sweep_term))

let bench_cmd =
  let verb name ~doc term = Cmd.v (Cmd.info name ~doc) term in
  let manifest =
    Arg.(value & opt string "COVERAGE.json"
         & info [ "coverage" ] ~docv:"FILE"
             ~doc:"Coverage manifest: every nest it lists as fused must \
                   still fuse (default: COVERAGE.json).")
  in
  let update_coverage =
    Arg.(value & flag
         & info [ "update-coverage" ]
             ~doc:"(Over-)write the coverage manifest instead of gating \
                   against it.")
  in
  let baseline =
    Arg.(value & opt string "BENCH_baseline.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Baseline document (default: BENCH_baseline.json).")
  in
  let check_regress =
    Arg.(value & flag
         & info [ "check-regress" ]
             ~doc:"Gate the regenerated tables against the baseline: \
                   modelled times and sync counts must not rise, speedups \
                   must not fall, engine identity and chaos recovery must \
                   stay true.")
  in
  let update_baseline =
    Arg.(value & flag
         & info [ "update-baseline" ]
             ~doc:"(Over-)write the baseline file with the regenerated \
                   tables.")
  in
  let tolerance =
    let nonneg =
      let parse s =
        match float_of_string_opt s with
        | Some t when t >= 0.0 -> Ok t
        | _ -> Error (`Msg "expected a non-negative number")
      in
      Arg.conv (parse, Format.pp_print_float)
    in
    Arg.(value & opt nonneg 0.05
         & info [ "tolerance" ] ~docv:"T"
             ~doc:"Relative allowance for deterministic (virtual-clock) \
                   numbers (default 0.05); the host-wall-clock engine \
                   speedups always use the generous 0.5.")
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Execution-engine, coverage, fault, fabric and perf-regression \
             benchmarks and their CI gates")
    [
      verb "engine"
        ~doc:"Tree-walking vs compiled vs fused-kernel vs Domains execution \
              engines, plus per-loop kernel coverage"
        Term.(const (fun so check manifest update ->
                  Gates.engine so ~check ~manifest ~update)
              $ sweep_term
              $ check_flag
                  ~doc:"Fail unless all engines agree bit-for-bit, the \
                        fused tier at least matches the compiled speedup, \
                        fission leaves program state unchanged and no \
                        fused nest of the coverage manifest regressed."
              $ manifest $ update_coverage);
      verb "coverage"
        ~doc:"Per-nest fused-kernel coverage of the bundled applications \
              before/after loop fission, gated against the coverage \
              manifest"
        Term.(const (fun manifest update -> Gates.coverage ~manifest ~update)
              $ manifest $ update_coverage);
      verb "chaos"
        ~doc:"Seeded fault schedules vs the reliable transport and \
              checkpoint/restart"
        Term.(const (fun so check -> Gates.chaos so ~check)
              $ sweep_term
              $ check_flag
                  ~doc:"Fail unless every recoverable schedule yields \
                        bit-identical results within the overhead budget.");
      verb "fabric"
        ~doc:"The pooled tables over the distributed master/worker fabric \
              (--workers processes, default 3)"
        Term.(const (fun so check -> Gates.fabric so ~check)
              $ sweep_term
              $ check_flag
                  ~doc:"The chaos gate: a serial reference, then a master \
                        with 3 workers, one SIGKILLed mid-sweep (must render \
                        byte-identically with >= 1 requeue and leave \
                        fabric_trace.json), then a worker-less master that \
                        must degrade to the in-process pool.");
      verb "baseline"
        ~doc:"Write BENCH_tables.json (tables 1-5, model validation, engine \
              speedups, resilience, auto-tune and scheduler stats) and \
              optionally gate it against, or write it as, the committed \
              baseline"
        Term.(const (fun so path check_regress update tolerance ->
                  Gates.baseline so ~path ~check_regress ~update ~tolerance)
              $ sweep_term $ baseline $ check_regress $ update_baseline
              $ tolerance);
      verb "micro"
        ~doc:"Bechamel micro-benchmarks of the pipeline stages behind each \
              table"
        Term.(const Gates.micro $ const ());
    ]

let worker_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Fabric master address: a Unix-domain socket path \
                   (unix:/path or /path) or host:port.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"NAME"
             ~doc:"Worker name reported to the master (default: \
                   host/pid-derived).")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run one fabric worker: connect to a sweep master, heartbeat \
          while executing each leased job spec, and stream result JSON \
          back in checksummed frames.  Exits nonzero with a one-line \
          diagnostic when the master is unreachable.")
    Term.(const worker $ connect $ id)

let demo_cmd =
  let which =
    Arg.(value & pos 0 string "sprayer"
         & info [] ~docv:"NAME" ~doc:"aerofoil, sprayer or cavity.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Print a bundled case-study Fortran source")
    Term.(const demo $ which)

(* [FILE:LINE:COL: message], then the offending source line with a caret
   under the column when the line exists *)
let print_diagnostic (loc : Autocfd_fortran.Loc.t) msg =
  let path, text = !source in
  Printf.eprintf "%s:%d:%d: %s\n" path loc.line loc.col msg;
  (* errors at end of input sit on the Eof token, at line 0 *)
  if loc.line >= 1 then
    match List.nth_opt (String.split_on_char '\n' text) (loc.line - 1) with
    | Some line ->
        (* tabs stay tabs so the caret lines up under any tab width *)
        let pad =
          String.init
            (min (max 0 (loc.col - 1)) (String.length line))
            (fun i -> if line.[i] = '\t' then '\t' else ' ')
        in
        Printf.eprintf "%s\n%s%s^\n" line pad
          (String.make (max 0 (loc.col - 1 - String.length line)) ' ')
    | None -> ()

let () =
  let doc = "Auto-CFD: parallelizing pre-compiler for Fortran CFD programs" in
  let info = Cmd.info "autocfd" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ analyze_cmd; parallelize_cmd; run_cmd_; trace_cmd_; profile_cmd_;
        report_cmd; tables_cmd; tune_cmd; bench_cmd; worker_cmd; demo_cmd ]
  in
  (* a malformed source is the user's error, not an internal one: report
     it located and exit 2 *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Autocfd_fortran.Loc.Error (loc, msg) ->
        print_diagnostic loc msg;
        2
    | exception e ->
        Printf.eprintf "autocfd: internal error, uncaught exception:\n%s\n%s"
          (Printexc.to_string e)
          (Printexc.get_backtrace ());
        Cmd.Exit.internal_error)
