(** End-to-end correctness of the generated SPMD programs: the parallel
    execution on the simulated cluster must be bit-identical to the
    sequential interpretation, for every structural feature of the paper
    (Jacobi halo exchange, mirror-image pipelines, wavefronts, distance-2
    stencils, packed arrays, boundary code, reductions, descending
    sweeps) and — as a property test — for randomized stencil programs
    under random partitions. *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module I = Autocfd_interp

let max_div src parts =
  let t = D.load src in
  let seq = D.run_seq t in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let par = D.run plan in
  List.fold_left (fun a (_, d) -> Float.max a d) 0.0
    (D.max_divergence seq par)

let check_equiv name src partitions =
  List.iter
    (fun parts ->
      let d = max_div src parts in
      if d <> 0.0 then
        Alcotest.failf "%s diverges by %g under %s" name d
          (String.concat "x" (Array.to_list (Array.map string_of_int parts))))
    partitions

let test_jacobi () =
  check_equiv "jacobi"
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 17, n = 11)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) * 0.3 + float(j)
        end do
      end do
      do it = 1, 6
        do i = 2, m - 1
          do j = 2, n - 1
            w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) u(m/2, n/2)
      end
|}
    [ [| 2; 1 |]; [| 1; 3 |]; [| 3; 2 |]; [| 4; 2 |] ]

let test_gauss_seidel_mirror () =
  check_equiv "gauss-seidel"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 15, n = 13)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i + 2 * j)
        end do
      end do
      do it = 1, 5
        do i = 2, m - 1
          do j = 2, n - 1
            v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
      end do
      write(*,*) v(3, 3)
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 3 |]; [| 4; 1 |] ]

let test_wavefront_recurrence () =
  (* Fig. 3(a): one-directional recurrence *)
  check_equiv "wavefront"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 14, n = 12)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * j)
        end do
      end do
      do it = 1, 4
        do i = 2, m
          do j = 2, n
            v(i, j) = 0.5 * (v(i-1, j) + v(i, j-1))
          end do
        end do
      end do
      write(*,*) v(m, n)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_distance_two () =
  check_equiv "distance-2 stencil"
    {|
c$acfd grid(m)
c$acfd status(u, w)
      program t
      parameter (m = 24)
      real u(m), w(m)
      integer i, it
      do i = 1, m
        u(i) = float(i)
      end do
      do it = 1, 3
        do i = 3, m - 2
          w(i) = u(i-2) - 4.0 * u(i-1) + 6.0 * u(i) - 4.0 * u(i+1)
     &         + u(i+2)
        end do
        do i = 3, m - 2
          u(i) = u(i) + 0.05 * w(i)
        end do
      end do
      write(*,*) u(m/2)
      end
|}
    [ [| 2 |]; [| 3 |]; [| 4 |] ]

let test_packed_array () =
  check_equiv "packed status array"
    {|
c$acfd grid(m, n)
c$acfd status(q, u)
      program t
      parameter (m = 12, n = 10)
      real q(m, n, 3), u(m, n)
      integer i, j, c, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i + j)
          do c = 1, 3
            q(i, j, c) = 0.0
          end do
        end do
      end do
      do it = 1, 3
        do c = 1, 3
          do i = 2, m - 1
            do j = 2, n - 1
              q(i, j, c) = u(i-1, j) + u(i+1, j) + float(c)
            end do
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = 0.1 * (q(i, j, 1) + q(i, j, 2) + q(i, j, 3))
          end do
        end do
      end do
      write(*,*) u(m/2, n/2)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |]; [| 1; 3 |] ]

let test_boundary_fixed_planes () =
  check_equiv "boundary code"
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 16, n = 12)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = 0.0
        end do
      end do
      do it = 1, 5
        do j = 1, n
          u(1, j) = float(j)
          u(m, j) = u(m-1, j)
        end do
        do i = 1, m
          u(i, 1) = u(i, 2)
          u(i, n) = 0.5
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) u(m/2, n/2), u(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 4; 3 |] ]

let test_reductions () =
  check_equiv "max and sum reductions"
    {|
c$acfd grid(m, n)
c$acfd status(u)
      program t
      parameter (m = 14, n = 10)
      real u(m, n)
      real emax, total
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) - 0.5 * float(j)
        end do
      end do
      do it = 1, 3
        emax = 0.0
        total = 0.0
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = 0.5 * (u(i-1, j) + u(i+1, j))
            emax = max(emax, abs(u(i, j)))
            total = total + u(i, j)
          end do
        end do
      end do
      write(*,*) emax, total
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |]; [| 3; 1 |] ]

let test_descending_sweep () =
  check_equiv "descending pipeline"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 13, n = 9)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * i - j)
        end do
      end do
      do it = 1, 4
        do i = m - 1, 2, -1
          do j = 2, n - 1
            v(i, j) = 0.5 * (v(i+1, j) + v(i, j-1))
          end do
        end do
      end do
      write(*,*) v(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 3; 1 |]; [| 2; 2 |] ]

let test_three_dims () =
  check_equiv "3-D stencil"
    {|
c$acfd grid(m, n, l)
c$acfd status(u, w)
      program t
      parameter (m = 10, n = 8, l = 6)
      real u(m, n, l), w(m, n, l)
      integer i, j, k, it
      do i = 1, m
        do j = 1, n
          do k = 1, l
            u(i, j, k) = float(i + j + k)
          end do
        end do
      end do
      do it = 1, 3
        do i = 2, m - 1
          do j = 2, n - 1
            do k = 2, l - 1
              w(i,j,k) = (u(i-1,j,k) + u(i+1,j,k) + u(i,j-1,k)
     &                 + u(i,j+1,k) + u(i,j,k-1) + u(i,j,k+1)) / 6.0
            end do
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            do k = 2, l - 1
              u(i, j, k) = w(i, j, k)
            end do
          end do
        end do
      end do
      write(*,*) u(m/2, n/2, l/2)
      end
|}
    [ [| 2; 1; 1 |]; [| 2; 2; 1 |]; [| 2; 2; 2 |]; [| 1; 1; 3 |] ]

(* READ on rank 0, broadcast to every rank (also run on Domains) *)
let read_broadcast_src =
  {|
c$acfd grid(m)
c$acfd status(u)
      program t
      parameter (m = 12)
      real u(m)
      real scale
      integer i
      read(*,*) scale
      do i = 1, m
        u(i) = scale * float(i)
      end do
      do i = 2, m - 1
        u(i) = u(i) + 0.5 * (u(i-1) + u(i+1))
      end do
      write(*,*) u(m/2)
      end
|}

let test_read_broadcast () =
  let t = D.load read_broadcast_src in
  let seq = D.run_seq ~spec:(Autocfd.Runspec.with_input [ 2.5 ] Autocfd.Runspec.default) t in
  let plan = D.plan ~spec:(parts_spec [| 3 |]) t in
  let par = D.run ~spec:(Autocfd.Runspec.with_input [ 2.5 ] Autocfd.Runspec.default) plan in
  Alcotest.(check (list string)) "same output" seq.D.sq_output
    par.I.Spmd.output;
  let d =
    List.fold_left (fun a (_, x) -> Float.max a x) 0.0
      (D.max_divergence seq par)
  in
  Alcotest.(check (float 0.0)) "equivalent" 0.0 d

(* the diagonal-dependence loop must run serially under an i-cut and
   still produce identical results thanks to the allgather (also run on
   Domains) *)
let serial_fallback_src =
  {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 10)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i + j * j)
        end do
      end do
      do it = 1, 3
        do j = 2, n - 1
          do i = 2, m - 1
            v(i,j) = 0.5 * (v(i, j-1) + v(i+1, j-1))
          end do
        end do
      end do
      write(*,*) v(2, 2)
      end
|}

let serial_fallback_parts = [ [| 2; 1 |]; [| 2; 2 |]; [| 4; 1 |] ]

let test_serial_fallback_allgather () =
  check_equiv "serial fallback" serial_fallback_src serial_fallback_parts

(* ------------------------------------------------------------------ *)
(* Property: random stencil programs match under random partitions     *)
(* ------------------------------------------------------------------ *)

type rand_cfg = {
  rc_seed : int;
  rc_parts : int array;
  rc_self : bool;  (** in-place (self-dependent) update loop? *)
  rc_offs : (int * int) list;  (** stencil offsets *)
  rc_bc : bool;  (** boundary fixup loop? *)
}

let gen_cfg =
  QCheck.Gen.(
    let* seed = int_range 1 10000 in
    let* px = int_range 1 3 in
    let* py = int_range 1 3 in
    let* self = bool in
    let* n_offs = int_range 1 4 in
    let* offs =
      list_repeat n_offs
        (pair (int_range (-1) 1) (int_range (-1) 1))
    in
    let* bc = bool in
    return
      { rc_seed = seed; rc_parts = [| px; py |]; rc_self = self;
        rc_offs = offs; rc_bc = bc })

let program_of_cfg cfg =
  let terms =
    List.mapi
      (fun idx (oi, oj) ->
        let i = if oi = 0 then "i" else Printf.sprintf "i%+d" oi in
        let j = if oj = 0 then "j" else Printf.sprintf "j%+d" oj in
        Printf.sprintf "0.%d1 * src(%s, %s)" ((idx mod 8) + 1) i j)
      cfg.rc_offs
  in
  let sum = String.concat "\n     &      + " terms in
  let target = if cfg.rc_self then "src" else "dst" in
  let bc =
    if cfg.rc_bc then
      {|
        do j = 1, n
          src(1, j) = src(2, j) * 0.9
        end do
        do i = 1, m
          src(i, n) = 0.25
        end do|}
    else ""
  in
  Printf.sprintf
    {|
c$acfd grid(m, n)
c$acfd status(src, dst)
      program rand
      parameter (m = 13, n = 11)
      real src(m, n), dst(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          src(i, j) = float(mod(i * 7 + j * 13 + %d, 19)) * 0.1
          dst(i, j) = 0.0
        end do
      end do
      do it = 1, 3
%s
        do i = 2, m - 1
          do j = 2, n - 1
            %s(i, j) = %s
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            src(i, j) = 0.5 * src(i, j) + 0.5 * dst(i, j)
          end do
        end do
      end do
      write(*,*) src(m/2, n/2)
      end
|}
    cfg.rc_seed bc target sum

let prop_random_programs_equivalent =
  QCheck.Test.make ~count:120
    ~name:"random stencil programs: SPMD == sequential"
    (QCheck.make
       ~print:(fun cfg ->
         Printf.sprintf "parts=%dx%d\n%s" cfg.rc_parts.(0) cfg.rc_parts.(1)
           (program_of_cfg cfg))
       gen_cfg)
    (fun cfg ->
      let src = program_of_cfg cfg in
      max_div src cfg.rc_parts = 0.0)



let test_goto_convergence_loop () =
  (* a while-style iteration built from a backward GOTO: the in-loop
     exchange must still be placed (virtual carrying loop) *)
  check_equiv "goto convergence loop"
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 16, n = 12)
      real u(m, n), w(m, n)
      real errmax
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) + 0.1 * float(j)
        end do
      end do
      it = 0
 100  continue
      it = it + 1
      do i = 2, m - 1
        do j = 2, n - 1
          w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
        end do
      end do
      errmax = 0.0
      do i = 2, m - 1
        do j = 2, n - 1
          errmax = max(errmax, abs(w(i,j) - u(i,j)))
          u(i, j) = w(i, j)
        end do
      end do
      if (errmax .gt. 1.0e-4 .and. it .lt. 30) goto 100
      write(*,*) it, errmax
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_goto_self_dependent_loop () =
  (* gauss-seidel inside a backward-GOTO loop: the Self pair's
     wrap-around exchange rides the virtual carrying loop *)
  check_equiv "goto gauss-seidel"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 14, n = 12)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * j)
        end do
      end do
      it = 0
 200  continue
      it = it + 1
      do i = 2, m - 1
        do j = 2, n - 1
          v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
        end do
      end do
      if (it .lt. 6) goto 200
      write(*,*) v(3, 3)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |] ]


let test_distance_two_pipeline () =
  (* self-dependent recurrence at distance 2: the pipeline carries
     two planes per hop *)
  check_equiv "distance-2 self-dependent pipeline"
    {|
c$acfd grid(m)
c$acfd status(v)
      program t
      parameter (m = 26)
      real v(m)
      integer i, it
      do i = 1, m
        v(i) = float(i) * 0.1
      end do
      do it = 1, 4
        do i = 3, m
          v(i) = 0.4 * v(i-1) + 0.3 * v(i-2) + 0.1
        end do
      end do
      write(*,*) v(m)
      end
|}
    [ [| 2 |]; [| 3 |]; [| 4 |] ]

let test_mixed_depth_exchange () =
  (* one reader needs depth 2, another depth 1, of the same array: the
     combined exchange must carry the max depth *)
  check_equiv "mixed-depth combined exchange"
    {|
c$acfd grid(m)
c$acfd status(u, w, z)
      program t
      parameter (m = 24)
      real u(m), w(m), z(m)
      integer i, it
      do i = 1, m
        u(i) = float(i)
        w(i) = 0.0
        z(i) = 0.0
      end do
      do it = 1, 3
        do i = 3, m - 2
          w(i) = u(i-2) + u(i+2)
        end do
        do i = 2, m - 1
          z(i) = u(i-1) + u(i+1)
        end do
        do i = 2, m - 1
          u(i) = 0.5 * (w(i) + z(i))
        end do
      end do
      write(*,*) u(m/2)
      end
|}
    [ [| 2 |]; [| 4 |] ]

let test_uncut_dimension_needs_no_comm () =
  (* a 1-D partition of a 2-D problem whose stencil only crosses the
     uncut dimension: zero messages *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 12, n = 10)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i + j)
        end do
      end do
      do it = 1, 3
        do i = 1, m
          do j = 2, n - 1
            w(i, j) = u(i, j-1) + u(i, j+1)
          end do
        end do
        do i = 1, m
          do j = 2, n - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) it
      end
|}
  in
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec [| 3; 1 |]) t in
  let seq = D.run_seq t in
  let par = D.run plan in
  Alcotest.(check int) "no point-to-point messages" 0
    par.I.Spmd.stats.Autocfd_mpsim.Sim.messages;
  let worst =
    List.fold_left (fun a (_, d) -> Float.max a d) 0.0
      (D.max_divergence seq par)
  in
  Alcotest.(check (float 0.0)) "still equivalent" 0.0 worst

let test_branch_in_time_loop () =
  (* Fig. 7-style: a branch whose condition flips over iterations, with
     an A-loop in the then-branch and the reader after the branch *)
  check_equiv "branch-dependent writer"
    {|
c$acfd grid(m)
c$acfd status(u, w)
      program t
      parameter (m = 18)
      real u(m), w(m)
      integer i, it
      do i = 1, m
        u(i) = float(i)
        w(i) = 0.0
      end do
      do it = 1, 6
        if (mod(it, 2) .eq. 0) then
          do i = 2, m - 1
            u(i) = u(i) + 1.0
          end do
        else
          do i = 2, m - 1
            u(i) = u(i) - 0.5
          end do
        end if
        do i = 2, m - 1
          w(i) = u(i-1) + u(i+1)
        end do
        do i = 2, m - 1
          u(i) = 0.9 * u(i) + 0.1 * w(i)
        end do
      end do
      write(*,*) u(m/2)
      end
|}
    [ [| 2 |]; [| 3 |]; [| 5 |] ]



let test_partial_participation_reduction () =
  (* a surface-integral Sum over a fixed plane of an unswept cut
     dimension: only the plane's owner ranks execute (guarded), combined
     with allreduce — no allgather fallback *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(p)
      program t
      parameter (m = 16, n = 12)
      real p(m, n)
      real cl
      integer i, j, it
      do i = 1, m
        do j = 1, n
          p(i, j) = float(i) * 0.1 + float(j)
        end do
      end do
      do it = 1, 3
        do i = 2, m - 1
          do j = 2, n - 1
            p(i, j) = 0.25 * (p(i-1,j) + p(i+1,j) + p(i,j-1) + p(i,j+1))
          end do
        end do
        cl = 0.0
        do i = 2, m - 1
          cl = cl + p(i, 1)
        end do
      end do
      write(*,*) cl
      end
|}
  in
  check_equiv "guarded surface reduction" src
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 1; 4 |] ];
  (* the transform must use the guard, not the allgather fallback *)
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec [| 1; 2 |]) t in
  let has_allgather = ref false in
  Autocfd_fortran.Ast.iter_stmts
    (fun st ->
      match st.Autocfd_fortran.Ast.s_kind with
      | Autocfd_fortran.Ast.Comm (Autocfd_fortran.Ast.Allgather _) ->
          has_allgather := true
      | _ -> ())
    plan.D.spmd.Autocfd_fortran.Ast.u_body;
  Alcotest.(check bool) "no allgather needed" false !has_allgather


let suite =
  [
    ("jacobi", `Quick, test_jacobi);
    ("gauss-seidel mirror", `Quick, test_gauss_seidel_mirror);
    ("wavefront recurrence", `Quick, test_wavefront_recurrence);
    ("distance-2", `Quick, test_distance_two);
    ("packed array", `Quick, test_packed_array);
    ("boundary fixed planes", `Quick, test_boundary_fixed_planes);
    ("reductions", `Quick, test_reductions);
    ("descending sweep", `Quick, test_descending_sweep);
    ("3-D", `Quick, test_three_dims);
    ("read broadcast", `Quick, test_read_broadcast);
    ("serial fallback allgather", `Quick, test_serial_fallback_allgather);
    ("distance-2 pipeline", `Quick, test_distance_two_pipeline);
    ("mixed-depth exchange", `Quick, test_mixed_depth_exchange);
    ("uncut dimension no comm", `Quick, test_uncut_dimension_needs_no_comm);
    ("branch-dependent writer", `Quick, test_branch_in_time_loop);
    ("partial-participation reduction", `Quick, test_partial_participation_reduction);
    ("goto convergence loop", `Quick, test_goto_convergence_loop);
    ("goto self-dependent loop", `Quick, test_goto_self_dependent_loop);
    QCheck_alcotest.to_alcotest ~long:false prop_random_programs_equivalent;
  ]
