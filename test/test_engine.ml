(** Golden equivalence of the three execution engines.

    The compiled closure-IR engine ({!Autocfd_interp.Compile}) and the
    fused-kernel tier on top of it must be bit-identical to the
    tree-walking interpreter ({!Autocfd_interp.Machine}) — not merely
    numerically close: gathered arrays, final scalars, WRITE output, flop
    counts and the full simulator statistics (message/byte/collective
    censuses, per-rank times) are compared with structural equality on
    every bundled application program and the heat2d example, over several
    partition shapes each.  A PRNG-driven property suite additionally
    generates random affine loop nests (including deliberate fall-back
    shapes: non-affine subscripts, reductions, zero-trip and negative-step
    loops) and asserts the same three-way equivalence. *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module R = Autocfd.Runspec
module I = Autocfd_interp
module Prng = Autocfd_util.Prng

let engines = [ ("compiled", I.Spmd.Compiled); ("fused", I.Spmd.Fused) ]

let shape parts =
  String.concat "x" (Array.to_list (Array.map string_of_int parts))

let check_array_list what name (a : (string * I.Value.arr) list)
    (b : (string * I.Value.arr) list) =
  Alcotest.(check (list string))
    (Printf.sprintf "%s: %s array names" name what)
    (List.map fst a) (List.map fst b);
  List.iter2
    (fun (arr_name, aa) (_, ab) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s %s bounds" name what arr_name)
        true
        (aa.I.Value.bounds = ab.I.Value.bounds);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s %s bit-identical" name what arr_name)
        true
        (aa.I.Value.data = ab.I.Value.data))
    a b

let check_sequential name src =
  let t = D.load src in
  let tree = D.run_seq ~spec:(R.with_engine I.Spmd.Tree R.default) t in
  List.iter
    (fun (ename, engine) ->
      let name = name ^ "/" ^ ename in
      let r = D.run_seq ~spec:(R.with_engine engine R.default) t in
      Alcotest.(check (list string))
        (name ^ ": output") tree.D.sq_output r.D.sq_output;
      Alcotest.(check (float 0.0))
        (name ^ ": flops") tree.D.sq_flops r.D.sq_flops;
      check_array_list "sequential" name tree.D.sq_arrays r.D.sq_arrays)
    engines

let check_parallel name src parts =
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let tree = D.run ~spec:(R.with_engine I.Spmd.Tree R.default) plan in
  List.iter
    (fun (ename, engine) ->
      let r = D.run ~spec:(R.with_engine engine R.default) plan in
      let ctx = Printf.sprintf "%s/%s %s" name ename (shape parts) in
      check_array_list "gathered" ctx tree.I.Spmd.gathered r.I.Spmd.gathered;
      Alcotest.(check bool)
        (ctx ^ ": scalars") true
        (tree.I.Spmd.scalars = r.I.Spmd.scalars);
      Alcotest.(check bool)
        (ctx ^ ": flops per rank") true
        (tree.I.Spmd.flops_per_rank = r.I.Spmd.flops_per_rank);
      Alcotest.(check (list string))
        (ctx ^ ": output") tree.I.Spmd.output r.I.Spmd.output;
      Alcotest.(check bool)
        (ctx ^ ": simulator stats") true
        (tree.I.Spmd.stats = r.I.Spmd.stats))
    engines

let check_both name src partitions =
  check_sequential name src;
  List.iter (check_parallel name src) partitions

(* the Domains engine runs for real on OCaml 5 domains: program state
   (gathered arrays, scalars, WRITE output, flop censuses) must be
   bit-identical to the simulator, but [stats] is measured wall clock and
   is excluded from the comparison *)
let check_domains ?(input = []) name src parts =
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let run engine =
    D.run ~spec:R.(default |> with_engine engine |> with_input input) plan
  in
  let fused = run I.Spmd.Fused in
  let r = run I.Spmd.Domains in
  let ctx = Printf.sprintf "%s/domains %s" name (shape parts) in
  check_array_list "gathered" ctx fused.I.Spmd.gathered r.I.Spmd.gathered;
  Alcotest.(check bool)
    (ctx ^ ": scalars") true
    (fused.I.Spmd.scalars = r.I.Spmd.scalars);
  Alcotest.(check bool)
    (ctx ^ ": flops per rank") true
    (fused.I.Spmd.flops_per_rank = r.I.Spmd.flops_per_rank);
  Alcotest.(check (list string))
    (ctx ^ ": output") fused.I.Spmd.output r.I.Spmd.output;
  match r.I.Spmd.domains with
  | None -> Alcotest.fail (ctx ^ ": missing domain_stats")
  | Some ds ->
      let nranks = Autocfd_partition.Topology.nranks plan.D.topo in
      Alcotest.(check int)
        (ctx ^ ": per-rank wall array") nranks
        (Array.length ds.I.Spmd.ds_rank_wall);
      Alcotest.(check bool)
        (ctx ^ ": nonzero wall clock") true (ds.I.Spmd.ds_wall > 0.0)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_sprayer () =
  check_both "sprayer"
    (Autocfd_apps.Sprayer.source ~ni:36 ~nj:18 ~ntime:6 ~npsi:3 ())
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_domains_sprayer () =
  List.iter
    (check_domains "sprayer"
       (Autocfd_apps.Sprayer.source ~ni:36 ~nj:18 ~ntime:6 ~npsi:3 ()))
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_domains_aerofoil () =
  List.iter
    (check_domains "aerofoil"
       (Autocfd_apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:3 ~npres:2 ()))
    [ [| 2; 1; 1 |]; [| 2; 2; 1 |]; [| 2; 2; 2 |] ]

let test_aerofoil () =
  check_both "aerofoil"
    (Autocfd_apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:3 ~npres:2 ())
    [ [| 2; 1; 1 |]; [| 2; 2; 1 |]; [| 2; 2; 2 |] ]

let test_cavity () =
  check_both "cavity"
    (Autocfd_apps.Cavity.source ~n:17 ~maxit:5 ~npsi:3 ())
    [ [| 2; 1 |]; [| 2; 2 |]; [| 3; 3 |] ]

let heat2d_path () =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec test/main.exe` *)
  List.find Sys.file_exists [ "../examples/heat2d.f"; "examples/heat2d.f" ]

let test_heat2d () =
  check_both "heat2d"
    (read_file (heat2d_path ()))
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |] ]

let test_domains_heat2d () =
  check_domains "heat2d" (read_file (heat2d_path ())) [| 2; 2 |]

(* the bundled apps only exchange, allreduce and pipeline; READ's
   broadcast and the serial-fallback allgather run on Domains here *)
let test_domains_read_allgather () =
  check_domains ~input:[ 2.5 ] "read broadcast" Test_spmd.read_broadcast_src
    [| 3 |];
  List.iter
    (check_domains "serial fallback" Test_spmd.serial_fallback_src)
    Test_spmd.serial_fallback_parts

(* A traced Domains run records, per rank, the simulator's sequence of
   sync-point phases, each as a wall-clock span; and Domains rejects the
   simulator-only fault injection and recovery up front. *)
let test_domains_trace_parity () =
  let module Trace = Autocfd_obs.Trace in
  let t =
    D.load
      (Autocfd_apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:3 ~npres:2 ())
  in
  let spec engine = R.(default |> with_engine engine) in
  let phases plan engine =
    let tr = Trace.create () in
    ignore (D.run ~spec:(R.with_tracer (Some tr) (spec engine)) plan);
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.ev_kind with
        | Trace.Phase { label; loop; iter } ->
            Some
              ( e.Trace.ev_rank,
                (e.Trace.ev_sync, label, loop, iter),
                e.Trace.ev_wall )
        | _ -> None)
      (Trace.events tr)
  in
  List.iter
    (fun (parts, nphases) ->
      let ctx = shape parts in
      let plan = D.plan ~spec:(parts_spec parts) t in
      let fused = phases plan I.Spmd.Fused in
      let dom = phases plan I.Spmd.Domains in
      Alcotest.(check int) (ctx ^ ": phase count") nphases (List.length dom);
      Alcotest.(check bool) (ctx ^ ": domains phases are wall clock") true
        (List.for_all (fun (_, _, wall) -> wall) dom);
      let of_rank r l =
        List.filter_map (fun (r', key, _) -> if r' = r then Some key else None) l
      in
      for r = 0 to Autocfd_partition.Topology.nranks plan.D.topo - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: rank %d phase sequence" ctx r)
          true
          (of_rank r fused = of_rank r dom)
      done)
    [ ([| 2; 1; 1 |], 110); ([| 2; 2; 1 |], 316) ];
  let plan = D.plan ~spec:(parts_spec [| 2; 1; 1 |]) t in
  let domains_with f = D.run ~spec:(f (spec I.Spmd.Domains)) plan in
  Alcotest.check_raises "recovery rejected"
    (Invalid_argument "Spmd: the Domains engine does not support recovery")
    (fun () ->
      ignore (domains_with (R.with_recovery (Some I.Spmd.default_recovery))));
  Alcotest.check_raises "faults rejected"
    (Invalid_argument
       "Spmd: the Domains engine does not support fault injection")
    (fun () ->
      let faults = Autocfd_mpsim.Fault.(make (spec ~seed:1 ())) in
      ignore (domains_with (R.with_faults (Some faults))))

(* flop-charge parity on a run with nontrivial timing: the simulated
   elapsed time is derived from the flop census, so charge drift would
   silently skew every timing table — compare with compute charging on *)
let test_charged_timing_identical () =
  let t =
    D.load (Autocfd_apps.Sprayer.source ~ni:30 ~nj:16 ~ntime:4 ~npsi:3 ())
  in
  let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
  let machine = Autocfd.Experiments.machine in
  let flop_time = D.calibrated_flop_time ~machine plan in
  let run engine =
    D.run
      ~spec:
        R.(
          default |> with_engine engine
          |> with_net machine.Autocfd_perfmodel.Model.net
          |> with_flop_time flop_time)
      plan
  in
  let tree = run I.Spmd.Tree in
  List.iter
    (fun (ename, engine) ->
      let r = run engine in
      Alcotest.(check bool)
        (ename ^ ": charged stats identical") true
        (tree.I.Spmd.stats = r.I.Spmd.stats);
      Alcotest.(check bool)
        (ename ^ ": elapsed bit-identical") true
        (tree.I.Spmd.stats.Autocfd_mpsim.Sim.elapsed
        = r.I.Spmd.stats.Autocfd_mpsim.Sim.elapsed))
    engines

(* ------------------------------------------------------------------ *)
(* PRNG-driven random affine-nest property suite                       *)
(* ------------------------------------------------------------------ *)

(* Random straight-line DO nests over fixed-shape arrays, mixing shapes
   the fused tier compiles (affine subscripts, constant and negative
   steps) with shapes that must fall back at compile time (reductions,
   non-affine max0 subscripts, IF bodies) or at run time (zero-trip
   loops).  Subscripts stay in range by construction, generated
   expressions avoid division/sqrt/log and every array assignment is
   wrapped in sin/cos (so values stay bounded and NaN-free); the three
   engines must then agree bit for bit on arrays, flops and output. *)

let lit_pool = [| "0.5"; "1.25"; "-0.75"; "2.0"; "0.125"; "3.0"; "-1.5" |]

(* subscript into a dimension of size [n] whose loop variable [v] (when
   in scope) ranges over [2, n-1] *)
let gen_sub rng v n =
  match v with
  | Some v -> (
      match Prng.int rng 5 with
      | 0 -> v ^ "-1"
      | 1 -> v ^ "+1"
      | 2 -> string_of_int (Prng.int_in rng 1 n)
      | _ -> v)
  | None -> string_of_int (Prng.int_in rng 1 n)

(* arrays: a(12,10), b(12,10), c(12); [vi]/[vj] are the loop variables
   covering dim 1 / dim 2 when in scope *)
let gen_read rng ~vi ~vj =
  match Prng.int rng 3 with
  | 0 -> Printf.sprintf "a(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
  | 1 -> Printf.sprintf "b(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
  | _ -> Printf.sprintf "c(%s)" (gen_sub rng vi 12)

let rec gen_expr rng ~vi ~vj ~depth =
  if depth = 0 || Prng.int rng 4 = 0 then
    match Prng.int rng 6 with
    | 0 | 1 -> Prng.choose rng lit_pool
    | 2 -> "s1"
    | 3 -> "s2"
    | 4 -> (
        match (vi, vj) with
        | Some v, _ | None, Some v -> "float(" ^ v ^ ")"
        | None, None -> Prng.choose rng lit_pool)
    | _ -> gen_read rng ~vi ~vj
  else
    let sub () = gen_expr rng ~vi ~vj ~depth:(depth - 1) in
    match Prng.int rng 8 with
    | 0 -> "(" ^ sub () ^ " + " ^ sub () ^ ")"
    | 1 -> "(" ^ sub () ^ " - " ^ sub () ^ ")"
    | 2 -> "(" ^ sub () ^ " * " ^ sub () ^ ")"
    | 3 -> "max(" ^ sub () ^ ", " ^ sub () ^ ")"
    | 4 -> "min(" ^ sub () ^ ", " ^ sub () ^ ")"
    | 5 -> "abs(" ^ sub () ^ ")"
    | 6 -> "sign(" ^ sub () ^ ", " ^ sub () ^ ")"
    | _ -> "sin(" ^ sub () ^ ")"

(* a bounded RHS: values stay in [-1, 1] no matter how nests cascade *)
let gen_rhs rng ~vi ~vj =
  let wrap = if Prng.bool rng then "sin" else "cos" in
  wrap ^ "(" ^ gen_expr rng ~vi ~vj ~depth:3 ^ ")"

let gen_assign rng ~vi ~vj ~indent buf =
  let lhs =
    match Prng.int rng 3 with
    | 0 -> Printf.sprintf "a(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
    | 1 -> Printf.sprintf "b(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
    | _ -> Printf.sprintf "c(%s)" (gen_sub rng vi 12)
  in
  Buffer.add_string buf
    (Printf.sprintf "%s%s = %s\n" indent lhs (gen_rhs rng ~vi ~vj))

let gen_nest rng buf =
  let add = Buffer.add_string buf in
  let header var lo hi step =
    match step with
    | None -> Printf.sprintf "do %s = %d, %d" var lo hi
    | Some s -> Printf.sprintf "do %s = %d, %d, %d" var lo hi s
  in
  match Prng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
      (* fusable double nest, occasionally reversed or strided *)
      let istep =
        match Prng.int rng 4 with 0 -> Some (-1) | 1 -> Some 2 | _ -> None
      in
      let ilo, ihi = if istep = Some (-1) then (11, 2) else (2, 11) in
      add ("      " ^ header "i" ilo ihi istep ^ "\n");
      add "        do j = 2, 9\n";
      for _ = 1 to Prng.int_in rng 1 3 do
        gen_assign rng ~vi:(Some "i") ~vj:(Some "j") ~indent:"          " buf
      done;
      add "        enddo\n      enddo\n"
  | 4 | 5 ->
      (* fusable single-level nest over the 1-d array *)
      add ("      " ^ header "i" 2 11 (if Prng.bool rng then Some 3 else None));
      add "\n";
      gen_assign rng ~vi:(Some "i") ~vj:None ~indent:"        " buf;
      add "      enddo\n"
  | 6 ->
      (* scalar reduction: compile-time fallback *)
      add "      do i = 2, 11\n        do j = 2, 9\n";
      if Prng.bool rng then
        add "          s1 = s1 + 0.01 * a(i,j)\n"
      else add "          s2 = max(s2, b(i,j))\n";
      add "        enddo\n      enddo\n"
  | 7 ->
      (* IF in the body: compile-time fallback *)
      add "      do i = 2, 11\n        do j = 2, 9\n";
      add "          if (a(i,j) .gt. 0.0) then\n";
      gen_assign rng ~vi:(Some "i") ~vj:(Some "j")
        ~indent:"            " buf;
      add "          endif\n";
      add "        enddo\n      enddo\n"
  | 8 ->
      (* non-affine subscript: compile-time fallback, still in range *)
      add "      do i = 2, 11\n";
      add
        (Printf.sprintf "        c(max0(i-1,1)) = %s\n"
           (gen_rhs rng ~vi:(Some "i") ~vj:None));
      add "      enddo\n"
  | _ ->
      (* zero-trip loop: fuses statically, falls back dynamically *)
      add "      do i = 8, 3\n        do j = 2, 9\n";
      gen_assign rng ~vi:(Some "i") ~vj:(Some "j") ~indent:"          " buf;
      add "        enddo\n      enddo\n"

let gen_program rng =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "c$acfd grid(m, n)\n";
  add "c$acfd status(a, b)\n";
  add "      program prop\n";
  add "      parameter (m = 12, n = 10)\n";
  add "      real a(m,n), b(m,n), c(m)\n";
  add "      real s1, s2\n";
  add "      integer i, j\n";
  add "      s1 = 0.3\n";
  add "      s2 = -0.2\n";
  add "      do i = 1, 12\n        do j = 1, 10\n";
  add "          a(i,j) = sin(0.7*float(i) + 0.3*float(j))\n";
  add "          b(i,j) = cos(0.4*float(i) - 0.5*float(j))\n";
  add "        enddo\n      enddo\n";
  add "      do i = 1, 12\n        c(i) = 0.1*float(i)\n      enddo\n";
  for _ = 1 to Prng.int_in rng 3 6 do
    gen_nest rng buf
  done;
  add "      write(*,*) s1, s2, a(3,3), b(5,7), c(4)\n";
  add "      end\n";
  Buffer.contents buf

let test_random_nests () =
  let rng = Prng.create 0x5eed5 in
  let fused_somewhere = ref false in
  let fellback_somewhere = ref false in
  for case = 1 to 25 do
    let child = Prng.split rng in
    let src = gen_program child in
    let name = Printf.sprintf "random nest %d" case in
    (try check_sequential name src
     with e ->
       Printf.eprintf "--- failing program (%s) ---\n%s\n" name src;
       raise e);
    let t = D.load src in
    let cov = I.Compile.coverage (I.Compile.of_unit ~fuse:true t.D.inlined) in
    List.iter
      (fun (ce : I.Compile.coverage_entry) ->
        if ce.I.Compile.cov_fused then fused_somewhere := true
        else fellback_somewhere := true)
      cov
  done;
  Alcotest.(check bool)
    "at least one generated nest fused" true !fused_somewhere;
  Alcotest.(check bool)
    "at least one generated nest fell back" true !fellback_somewhere

(* the acceptance bar for the fused tier: at least 80% of each bundled
   application's field loops compile to kernels *)
let test_app_coverage () =
  List.iter
    (fun (name, nests, src) ->
      let t = D.load src in
      let cov =
        I.Compile.coverage (I.Compile.of_unit ~fuse:true t.D.inlined)
      in
      let total = List.length cov in
      let fused =
        List.length
          (List.filter (fun c -> c.I.Compile.cov_fused) cov)
      in
      Alcotest.(check int) (name ^ ": field-loop nests") nests total;
      let reasons =
        String.concat "; "
          (List.filter_map
             (fun (c : I.Compile.coverage_entry) ->
               if c.I.Compile.cov_fused then None
               else
                 Some
                   (Printf.sprintf "line %d (%s): %s" c.I.Compile.cov_line
                      (String.concat "," c.I.Compile.cov_vars)
                      (I.Compile.reason_to_string c.I.Compile.cov_reason)))
             cov)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: fused %d/%d field loops (expect 100%%)%s" name
           fused total
           (if reasons = "" then "" else " — fallbacks: " ^ reasons))
        total fused)
    [
      ("sprayer", 23, Autocfd_apps.Sprayer.source ());
      ("aerofoil", 23, Autocfd_apps.Aerofoil.source ());
      ("cavity", 7, Autocfd_apps.Cavity.source ());
      ("heat2d", 3, read_file (heat2d_path ()));
    ]

let suite =
  [
    ("sprayer engines identical", `Slow, test_sprayer);
    ("aerofoil engines identical", `Slow, test_aerofoil);
    ("cavity engines identical", `Slow, test_cavity);
    ("heat2d engines identical", `Slow, test_heat2d);
    ("charged timing identical", `Quick, test_charged_timing_identical);
    ("domains sprayer identical", `Slow, test_domains_sprayer);
    ("domains aerofoil identical", `Slow, test_domains_aerofoil);
    ("domains heat2d identical", `Quick, test_domains_heat2d);
    ("domains read + allgather identical", `Quick, test_domains_read_allgather);
    ("domains trace parity + rejections", `Quick, test_domains_trace_parity);
    ("random nests three-way identical", `Slow, test_random_nests);
    ("fused kernel coverage 100%", `Quick, test_app_coverage);
  ]
