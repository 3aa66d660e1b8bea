(* The benchmark's workloads and the calls they time.

   Every workload is a closed loop with one caller: an iteration runs the
   three things a user of the pre-compiler does, in order, and the next
   iteration starts only when the previous one has finished.

   - the [autocfd run] job on the workload's execution instance (load,
     plan, sequential run, simulated SPMD run, divergence check), then a
     Domains-engine run of the same plan on real cores;
   - the [autocfd parallelize] path (load, plan, SPMD and MPI source) for
     aerofoil, sprayer and cavity and every feasible partition shape of
     2, 4, 6 and 8 ranks;
   - [Experiments.tune_program] over the same programs on the default
     grid, once on a fresh result cache and once on the warm one.

   Each library function is called directly and
   timed from here; the traced mode additionally calls the pre-compiler
   phases one by one, in the order [Driver.load] and [Driver.plan] call
   them, inside spans (see {!Spans}). *)

module D = Autocfd.Driver
module R = Autocfd.Runspec
module X = Autocfd.Experiments
module Tune = Autocfd.Tune
module I = Autocfd_interp
module P = Autocfd_partition
module A = Autocfd_analysis
module S = Autocfd_syncopt
module C = Autocfd_codegen
module F = Autocfd_fortran
module PM = Autocfd_perfmodel.Model
module Sched = Autocfd_sched
module Obs = Autocfd_obs
module J = Autocfd_obs.Json
module Apps = Autocfd_apps

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                *)
(* ------------------------------------------------------------------ *)

type program = { pname : string; source : string }

type workload = {
  name : string;
  exec : program;  (** the [autocfd run] instance *)
  exec_parts : int array;
  maxit : int option;  (** steps the instance must report (cavity) *)
  programs : program list;  (** the parallelize and tune set *)
  tune_reps : int;  (** cold+warm tune pairs per iteration *)
}

let names = [ "aerofoil-2rank"; "cavity-sync"; "plan-tune" ]

(* Every workload parallelizes and tunes the three apps at their default
   sizes; the workloads differ in the [autocfd run] instance, which
   decides the layer that dominates.  [shrunk] swaps every instance for a
   small one of the same program, so the tests run in seconds. *)
let make ?(shrunk = false) name ~seed =
  let g = Autocfd_util.Prng.create seed in
  (* the one physics parameter of each app, uniform in [0.9, 1.1]: it
     changes the values computed, never the work done *)
  let draw () = 0.9 +. Autocfd_util.Prng.float g 0.2 in
  let uinf = draw () in
  let ufan = draw () in
  let ulid = draw () in
  let steps maxit = if shrunk then maxit / 20 else maxit in
  let aerofoil =
    {
      pname = "aerofoil";
      source =
        (if shrunk then Apps.Aerofoil.source ~ni:24 ~nj:12 ~nk:8 ~ntime:2 ~uinf ()
         else Apps.Aerofoil.source ~uinf ());
    }
  in
  let sprayer =
    {
      pname = "sprayer";
      source =
        (if shrunk then Apps.Sprayer.source ~ni:40 ~nj:20 ~ntime:2 ~ufan ()
         else Apps.Sprayer.source ~ufan ());
    }
  in
  let cavity maxit =
    {
      pname = "cavity";
      source =
        (if shrunk then Apps.Cavity.source ~n:17 ~maxit:(steps maxit) ~ulid ()
         else Apps.Cavity.source ~maxit ~ulid ());
    }
  in
  let programs = [ aerofoil; sprayer; cavity 40 ] in
  match name with
  | "aerofoil-2rank" ->
      (* two tune passes, so its few long iterations still give several
         tune samples *)
      {
        name;
        exec = aerofoil;
        exec_parts = [| 2; 1; 1 |];
        maxit = None;
        programs;
        tune_reps = 2;
      }
  | "cavity-sync" ->
      {
        name;
        exec = cavity 1000;
        exec_parts = [| 2; 1 |];
        maxit = Some (steps 1000);
        programs;
        tune_reps = 1;
      }
  | "plan-tune" ->
      {
        name;
        exec = cavity 40;
        exec_parts = [| 2; 1 |];
        maxit = Some (steps 40);
        programs;
        tune_reps = 1;
      }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                  *)
(* ------------------------------------------------------------------ *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** newest first *)
}

let new_checks () = { attempted = 0; failed = 0; notes = [] }

let fail ck what =
  ck.failed <- ck.failed + 1;
  ck.notes <- what :: ck.notes

(* one attempted operation; an exception counts as a failure *)
let attempt ck what f =
  ck.attempted <- ck.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      fail ck (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

(* one output check *)
let check ck what ok =
  ck.attempted <- ck.attempted + 1;
  match ok () with
  | true -> ()
  | false -> fail ck what
  | exception e ->
      fail ck (Printf.sprintf "%s raised %s" what (Printexc.to_string e))

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The pre-compiler, phase by phase                                    *)
(* ------------------------------------------------------------------ *)

let spec_for parts = R.(default |> with_parts (Some parts))

(* [Driver.load], with each phase in its own span *)
let load_phases sp source =
  let span name f = Spans.with_span sp name f in
  let program = span "fortran.parse" (fun () -> F.Parser.parse source) in
  let gi =
    span "analysis.grid_info" (fun () -> A.Grid_info.of_program program)
  in
  let inlined = span "fortran.inline" (fun () -> F.Inline.program program) in
  let inlined, splits =
    span "analysis.fission" (fun () -> A.Fission.distribute inlined)
  in
  { D.program; inlined; gi; splits }

(* [Driver.plan] for an explicit shape, with each phase in its own span *)
let plan_phases sp (t : D.t) parts =
  let span name f = Spans.with_span sp name f in
  let topo =
    span "partition.create" (fun () ->
        P.Topology.create ~grid:t.D.gi.A.Grid_info.grid ~parts)
  in
  let loops = span "analysis.loops" (fun () -> A.Loops.build t.D.inlined) in
  let summaries =
    span "analysis.field_loop" (fun () ->
        A.Field_loop.analyze_unit t.D.gi t.D.inlined)
  in
  let sldp =
    span "analysis.sldp" (fun () -> A.Sldp.compute t.D.gi topo loops summaries)
  in
  let layout, opt =
    span "syncopt.optimize" (fun () ->
        let layout = S.Layout.of_unit t.D.inlined in
        (layout, S.Optimizer.run ~combine:R.default.R.combine sldp ~layout))
  in
  let strategies, spmd =
    span "codegen.transform" (fun () ->
        let input : C.Transform.input =
          {
            C.Transform.in_unit = t.D.inlined;
            in_gi = t.D.gi;
            in_topo = topo;
            in_summaries = summaries;
            in_groups = opt.S.Optimizer.groups;
            in_layout = layout;
          }
        in
        (C.Transform.strategies input, C.Transform.run input))
  in
  { D.source = t; topo; summaries; sldp; layout; opt; strategies; spmd }

let load sp source =
  if sp.Spans.enabled then load_phases sp source
  else D.load ~spec:R.default source

let plan sp t parts =
  if sp.Spans.enabled then plan_phases sp t parts
  else D.plan ~spec:(spec_for parts) t

(* every shape [Tune] and [parallelize] accept for 2, 4, 6 and 8 ranks *)
let rank_counts = [ 2; 4; 6; 8 ]

let feasible_shapes (t : D.t) =
  let grid = t.D.gi.A.Grid_info.grid in
  List.concat_map
    (fun n ->
      List.filter
        (fun parts ->
          match P.Topology.create ~grid ~parts with
          | _ -> true
          | exception Invalid_argument _ -> false)
        (P.Topology.factorizations n (Array.length grid)))
    rank_counts

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* the fields the CLI's Domains bit-identity gate compares *)
let same_program_state (a : I.Spmd.result) (b : I.Spmd.result) =
  List.length a.I.Spmd.gathered = List.length b.I.Spmd.gathered
  && List.for_all2
       (fun (na, aa) (nb, ab) -> na = nb && aa.I.Value.data = ab.I.Value.data)
       a.I.Spmd.gathered b.I.Spmd.gathered
  && a.I.Spmd.scalars = b.I.Spmd.scalars
  && a.I.Spmd.flops_per_rank = b.I.Spmd.flops_per_rank
  && a.I.Spmd.output = b.I.Spmd.output

let finite_output lines =
  List.for_all
    (fun l ->
      let l = String.lowercase_ascii l in
      let has sub =
        let n = String.length sub and m = String.length l in
        let rec at i = i + n <= m && (String.sub l i n = sub || at (i + 1)) in
        at 0
      in
      not (has "nan" || has "inf"))
    lines

(* cavity's final WRITE is "it errmax": it must report every step *)
let reports_steps maxit lines =
  match List.rev lines with
  | last :: _ -> (
      match String.split_on_char ' ' (String.trim last) with
      | it :: _ -> int_of_string_opt it = Some maxit
      | [] -> false)
  | [] -> false

let check_outputs ck w (seq : D.seq_result) (sim : I.Spmd.result) div =
  check ck "sequential and simulated status arrays differ" (fun () ->
      div <> [] && List.for_all (fun (_, d) -> d = 0.0) div);
  check ck "WRITE output holds NaN or Inf, or differs from sequential"
    (fun () ->
      finite_output seq.D.sq_output && seq.D.sq_output = sim.I.Spmd.output);
  match w.maxit with
  | Some m ->
      check ck "cavity did not report all maxit steps" (fun () ->
          reports_steps m sim.I.Spmd.output)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_counter = ref 0

let fresh_dir ~root tag =
  incr fresh_counter;
  Filename.concat root
    (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !fresh_counter)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
