open Autocfd_fortran
open Autocfd_mpsim
module GI = Autocfd_analysis.Grid_info
module Topology = Autocfd_partition.Topology
module Trace = Autocfd_obs.Trace

type recovery = {
  rc_every : int;
  rc_max_restarts : int;
  rc_bandwidth : float;
}

let default_recovery =
  { rc_every = 8; rc_max_restarts = 3; rc_bandwidth = 400e6 }

type config = {
  gi : GI.t;
  topo : Topology.t;
  net : Netmodel.t;
  flop_time : float;
  input : float list;
  tracer : Trace.t option;
  faults : Fault.plan option;
  recovery : recovery option;
}

type resilience = {
  rs_restarts : int;
  rs_checkpoints : int;
  rs_restores : int;
  rs_retransmits : int;
  rs_dup_suppressed : int;
  rs_checksum_failures : int;
}

let no_resilience =
  {
    rs_restarts = 0;
    rs_checkpoints = 0;
    rs_restores = 0;
    rs_retransmits = 0;
    rs_dup_suppressed = 0;
    rs_checksum_failures = 0;
  }

type domain_stats = {
  ds_wall : float;
  ds_rank_wall : float array;
  ds_compute : float array;
  ds_barrier_wait : float array;
  ds_barrier_calls : int;
  ds_flops : float array;
  ds_comm_samples : (int * float) list;
}

type result = {
  stats : Sim.stats;
  output : string list;
  gathered : (string * Value.arr) list;
  scalars : (string * Value.scalar) list;
  flops_per_rank : float array;
  resilience : resilience;
  domains : domain_stats option;
}

(* One rank's coordinated checkpoint, taken outside the simulation when
   the rank passes a multiple-of-k sync-point visit.  Visits are counted
   identically on every rank (the SPMD unit's communication hooks fire in
   the same program order everywhere), so equal [ck_visits] across ranks
   is a consistent global cut — provided no pipeline stream is mid-flight,
   which the executor checks before snapshotting. *)
type snapshot = {
  ck_visits : int;
  ck_scalars : (string * Value.scalar) list;
  ck_arrays : (string * float array) list;
  ck_output : string list;  (* cumulative WRITE lines; rank 0 only *)
}

let snapshot_bytes s =
  8
  * (List.length s.ck_scalars
    + List.fold_left (fun acc (_, a) -> acc + Array.length a) 0 s.ck_arrays)

type engine = Tree | Compiled | Fused | Domains

let tag_exchange = 3
let tag_pipe = 5
let tag_gather = 7

(* ------------------------------------------------------------------ *)
(* Sync-point table: every communication statement of the SPMD unit,   *)
(* numbered in program order and labelled for tracing                  *)
(* ------------------------------------------------------------------ *)

type sync_info = {
  si_id : int;
  si_label : string;
  si_loop : string option;  (* enclosing DO variable *)
}

let dir_str = function Ast.Dplus -> "+" | Ast.Dminus -> "-"

let describe_comm = function
  | Ast.Exchange ts ->
      "halo "
      ^ String.concat " "
          (List.map
             (fun (t : Ast.transfer) ->
               Printf.sprintf "%s(d%d%s,%d)" t.Ast.xfer_array t.Ast.xfer_dim
                 (dir_str t.Ast.xfer_dir) t.Ast.xfer_depth)
             ts)
  | Ast.Allreduce_max v -> "allreduce max " ^ v
  | Ast.Allreduce_min v -> "allreduce min " ^ v
  | Ast.Allreduce_sum v -> "allreduce sum " ^ v
  | Ast.Broadcast vars -> "bcast " ^ String.concat "," vars
  | Ast.Allgather arrays -> "allgather " ^ String.concat "," arrays
  | Ast.Barrier -> "barrier"

(* one rank's profile summary of a nest as a trace event; loop-fission
   fragments are named "L<line> do <vars> #<frag>/<nfrags>" so all
   fragments of one source nest share a line and a name prefix *)
let kernel_event (k : Compile.kernel_stat) =
  let frag, nfrags =
    match k.Compile.ks_frag with
    | Some f -> (f.Ast.fi_frag, f.Ast.fi_nfrags)
    | None -> (0, 0)
  in
  let name =
    Printf.sprintf "L%d do %s%s" k.Compile.ks_line
      (String.concat "," k.Compile.ks_vars)
      (if nfrags = 0 then "" else Printf.sprintf " #%d/%d" frag nfrags)
  in
  Trace.Kernel
    {
      name;
      line = k.Compile.ks_line;
      fused = k.Compile.ks_fused;
      frag;
      nfrags;
      calls = k.Compile.ks_calls;
      flops = k.Compile.ks_flops;
      bytes = k.Compile.ks_bytes;
    }

let sync_points (u : Ast.program_unit) =
  let tbl = Hashtbl.create 32 in
  let next = ref 0 in
  let add sid label loop =
    Hashtbl.replace tbl sid
      { si_id = !next; si_label = label; si_loop = loop };
    incr next
  in
  let rec walk loop stmts =
    List.iter
      (fun (st : Ast.stmt) ->
        match st.Ast.s_kind with
        | Ast.Do d -> walk (Some d.Ast.do_var) d.Ast.do_body
        | Ast.If (branches, els) ->
            List.iter (fun (_, b) -> walk loop b) branches;
            Option.iter (walk loop) els
        | Ast.Comm c -> add st.Ast.s_id (describe_comm c) loop
        | Ast.Pipeline_recv { dim; dir; arrays } ->
            add st.Ast.s_id
              (Printf.sprintf "pipe recv d%d%s %s" dim (dir_str dir)
                 (String.concat "," (List.map fst arrays)))
              loop
        | Ast.Pipeline_send { dim; dir; arrays } ->
            add st.Ast.s_id
              (Printf.sprintf "pipe send d%d%s %s" dim (dir_str dir)
                 (String.concat "," (List.map fst arrays)))
              loop
        | _ -> ())
      stmts
  in
  walk None u.Ast.u_body;
  tbl

(* iterate an n-dimensional inclusive range *)
let iter_box ranges f =
  let n = Array.length ranges in
  let idx = Array.map fst ranges in
  if Array.for_all (fun (lo, hi) -> lo <= hi) ranges then begin
    let rec go d =
      if d = n then f idx
      else
        let lo, hi = ranges.(d) in
        for i = lo to hi do
          idx.(d) <- i;
          go (d + 1)
        done
    in
    go 0
  end

let box_size ranges =
  Array.fold_left (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1)) 1 ranges

let status_dims gi what name =
  match GI.find_status gi name with
  | Some sa -> sa.GI.sa_dims
  | None -> invalid_arg (Printf.sprintf "Spmd: %s of non-status %s" what name)

(* The array-dim ranges of [owner]'s block of [arr]: packed dimensions at
   full extent, grid dimension g widened by [ext g] halo cells — except
   the [edge] dimension, narrowed to its [depth] owned boundary planes on
   the [dir] side (the planes a halo or pipeline message carries). *)
let block_ranges dims topo ~owner ?edge ?(ext = fun _ -> 0) (arr : Value.arr) =
  let block = Topology.block topo owner in
  Array.init (Value.rank arr) (fun k ->
      let alo, ahi = arr.Value.bounds.(k) in
      match dims.(k) with
      | None -> (alo, ahi)
      | Some g ->
          let blo = block.Autocfd_partition.Block.lo.(g)
          and bhi = block.Autocfd_partition.Block.hi.(g) in
          let lo, hi =
            match edge with
            | Some (d, Ast.Dplus, depth) when d = g ->
                (max blo (bhi - depth + 1), bhi)
            | Some (d, Ast.Dminus, depth) when d = g ->
                (blo, min bhi (blo + depth - 1))
            | _ -> (blo - ext g, bhi + ext g)
          in
          (max alo lo, min ahi hi))

(* ------------------------------------------------------------------ *)
(* Cached message plans                                                *)
(* ------------------------------------------------------------------ *)

(* Everything a sync point's boxes depend on — grid info, topology, array
   bounds, the statement's transfer list — is fixed for the whole run, so
   the element offsets each message packs from / unpacks into are computed
   once per (rank, sync point) and every subsequent visit is a tight copy
   over a flat offset vector instead of an n-dimensional index walk. *)

let offsets_of arr ranges =
  let out = Array.make (box_size ranges) 0 in
  let i = ref 0 in
  iter_box ranges (fun idx ->
      out.(!i) <- Value.linear_index arr idx;
      incr i);
  out

(* A cached pack/unpack plan: the flat element offsets in payload order,
   compressed into maximal contiguous runs.  When runs are long enough
   (boundary planes along the fastest-varying dimension are fully
   contiguous) packing becomes a few [Array.blit]s into a reusable payload
   buffer instead of a per-element gather; the payload's element order is
   unchanged either way, so message contents, sizes and simulator
   statistics are identical.  Reusing [pp_buf] across visits is safe
   because [Sim.send] copies its payload. *)
type pack_plan = {
  pp_total : int;
  pp_offs : int array;
  pp_segs : (int * int) array;  (* (start offset, length) runs, in order *)
  pp_blit : bool;  (* segment copies win over the element walk *)
  pp_buf : float array;
}

(* average run length at which per-segment Array.blit beats the
   per-element loop (short runs pay blit's call overhead) *)
let blit_threshold = 4

let plan_of_offsets offs =
  let n = Array.length offs in
  let segs = ref [] in
  let nsegs = ref 0 in
  let i = ref 0 in
  while !i < n do
    let start = offs.(!i) in
    let j = ref (!i + 1) in
    while !j < n && offs.(!j) = offs.(!j - 1) + 1 do
      incr j
    done;
    segs := (start, !j - !i) :: !segs;
    incr nsegs;
    i := !j
  done;
  {
    pp_total = n;
    pp_offs = offs;
    pp_segs = Array.of_list (List.rev !segs);
    pp_blit = n > 0 && !nsegs * blit_threshold <= n;
    pp_buf = Array.make n 0.0;
  }

let plan_of arr ranges = plan_of_offsets (offsets_of arr ranges)

let pack p (data : float array) =
  let buf = p.pp_buf in
  if p.pp_blit then begin
    let pos = ref 0 in
    Array.iter
      (fun (start, len) ->
        Array.blit data start buf !pos len;
        pos := !pos + len)
      p.pp_segs
  end
  else begin
    let offs = p.pp_offs in
    for i = 0 to p.pp_total - 1 do
      Array.unsafe_set buf i (data.(Array.unsafe_get offs i))
    done
  end;
  buf

let unpack p (data : float array) payload =
  if p.pp_blit then begin
    let pos = ref 0 in
    Array.iter
      (fun (start, len) ->
        Array.blit payload !pos data start len;
        pos := !pos + len)
      p.pp_segs
  end
  else
    let offs = p.pp_offs in
    for i = 0 to p.pp_total - 1 do
      data.(Array.unsafe_get offs i) <- Array.unsafe_get payload i
    done

type xfer_plan = {
  xp_array : string;
  xp_dim : int;  (* grid dimension of the transfer, for phased blits *)
  xp_send : (int * pack_plan) option;  (* dest rank, pack plan *)
  xp_recv : (int * pack_plan) option;  (* src rank, unpack plan *)
}

type plan =
  | P_exchange of xfer_plan list
  | P_pipe of (int * (string * pack_plan) list) option  (* peer, per array *)
  | P_allgather of (string * pack_plan * pack_plan array) list
      (* per array: my pack plan, then per-peer unpack plans (index =
         peer rank; my own entry unused) *)

(* ------------------------------------------------------------------ *)
(* Process-wide plan cache                                             *)
(* ------------------------------------------------------------------ *)

(* A plan depends only on (engine, sync point, rank, grid, partition) —
   sync-point ids are process-unique, so the id pins down the program
   unit too.  Caching process-wide means switching engines on the same
   unit within one process (exactly what the bit-equivalence harness
   does) replans each sync point at most once per engine instead of once
   per run.  The cached offset/segment vectors are immutable and safe to
   share across domains; [pp_buf] is private to a run, so every lookup
   re-arms the plan with fresh buffers. *)
let plan_cache : (string * int * int * int list * int list, plan) Hashtbl.t =
  Hashtbl.create 256

let plan_cache_mutex = Mutex.create ()

(* far above any real sweep's working set; reset wholesale rather than
   tracking LRU order for a cache this cheap to refill *)
let plan_cache_cap = 4096

let refresh_pack p = { p with pp_buf = Array.make (Array.length p.pp_buf) 0.0 }

let refresh_plan = function
  | P_exchange l ->
      P_exchange
        (List.map
           (fun xp ->
             {
               xp with
               xp_send =
                 Option.map (fun (d, p) -> (d, refresh_pack p)) xp.xp_send;
               xp_recv =
                 Option.map (fun (s, p) -> (s, refresh_pack p)) xp.xp_recv;
             })
           l)
  | P_pipe o ->
      P_pipe
        (Option.map
           (fun (peer, per_array) ->
             (peer, List.map (fun (n, p) -> (n, refresh_pack p)) per_array))
           o)
  | P_allgather l ->
      P_allgather
        (List.map
           (fun (n, mine, peers) ->
             (n, refresh_pack mine, Array.map refresh_pack peers))
           l)

let cached_plan ~etag ~topo ~rank ~sid build =
  let key =
    ( etag,
      sid,
      rank,
      Array.to_list (Topology.grid topo),
      Array.to_list (Topology.parts topo) )
  in
  match
    Mutex.protect plan_cache_mutex (fun () -> Hashtbl.find_opt plan_cache key)
  with
  | Some p -> refresh_plan p
  | None ->
      let p = build () in
      Mutex.protect plan_cache_mutex (fun () ->
          if Hashtbl.length plan_cache >= plan_cache_cap then
            Hashtbl.reset plan_cache;
          Hashtbl.replace plan_cache key p);
      refresh_plan p

(* ------------------------------------------------------------------ *)
(* Engine-generic execution                                            *)
(* ------------------------------------------------------------------ *)

(* The per-rank body is written once against this interface and wired to
   either the tree-walking machine or the compiled engine; both raise
   [Machine.Runtime_error] on dynamic errors. *)

type 'm gen_hooks = {
  g_block : int -> int * int;
  g_comm : 'm -> sid:int -> Ast.comm -> unit;
  g_pipe_recv :
    'm -> sid:int -> dim:int -> dir:Ast.direction -> (string * int) list
    -> unit;
  g_pipe_send :
    'm -> sid:int -> dim:int -> dir:Ast.direction -> (string * int) list
    -> unit;
  g_read : 'm -> int -> float array;
  g_write : 'm -> Value.scalar list -> unit;
}

type 'm iface = {
  i_spawn : 'm gen_hooks -> float list -> 'm;
  i_run : 'm -> unit;
  i_flops : 'm -> float;
  i_array : 'm -> string -> Value.arr;
  i_scalar : 'm -> string -> Value.scalar;
  i_set_scalar : 'm -> string -> Value.scalar -> unit;
  i_scalar_bindings : 'm -> (string * Value.scalar) list;
  i_array_names : 'm -> string list;
  i_output : 'm -> string list;
  i_read0 : 'm -> int -> float array;  (* rank 0's actual READ source *)
  i_write0 : 'm -> Value.scalar list -> unit;
  i_kernels : 'm -> Compile.kernel_stat list;
      (* per-nest execution profile; [] on engines without one *)
}

(* ------------------------------------------------------------------ *)
(* Plan construction (engine-independent)                              *)
(* ------------------------------------------------------------------ *)

let opposite_dir = function Ast.Dplus -> Ast.Dminus | Ast.Dminus -> Ast.Dplus

let topo_neighbor topo ~rank dim dir =
  let d =
    match dir with Ast.Dplus -> Topology.Plus | Ast.Dminus -> Topology.Minus
  in
  Topology.neighbor topo ~rank ~dim ~dir:d

(* [array name] is the rank's copy of an array: every rank allocates
   full-extent arrays, so only the boxes differ between ranks *)
let build_exchange_plan ~gi ~topo ~rank array transfers =
  let transfers =
    List.sort
      (fun (a : Ast.transfer) b ->
        compare
          (a.Ast.xfer_dim, a.Ast.xfer_array, a.Ast.xfer_dir)
          (b.Ast.xfer_dim, b.Ast.xfer_array, b.Ast.xfer_dir))
      transfers
  in
  let ext_of_dim g =
    List.fold_left
      (fun acc (t : Ast.transfer) ->
        if t.Ast.xfer_dim = g then max acc t.Ast.xfer_depth else acc)
      0 transfers
  in
  P_exchange
    (List.map
       (fun (xfer : Ast.transfer) ->
         let name = xfer.Ast.xfer_array and dim = xfer.Ast.xfer_dim in
         let arr = array name in
         (* the planes [owner] sends; already-refreshed lower grid
            dimensions are extended so that diagonal (corner) stencil
            points are carried (sequenced exchange) *)
         let planes owner =
           plan_of arr
             (block_ranges (status_dims gi "transfer" name) topo ~owner
                ~edge:(dim, xfer.Ast.xfer_dir, xfer.Ast.xfer_depth)
                ~ext:(fun g -> if g < dim then ext_of_dim g else 0)
                arr)
         in
         {
           xp_array = name;
           xp_dim = dim;
           xp_send =
             Option.map
               (fun dest -> (dest, planes rank))
               (topo_neighbor topo ~rank dim xfer.Ast.xfer_dir);
           xp_recv =
             Option.map
               (fun src -> (src, planes src))
               (topo_neighbor topo ~rank dim (opposite_dir xfer.Ast.xfer_dir));
         })
       transfers)

(* the pipeline payload: the owned boundary planes of the sweep dimension
   over the owned ranges of the other status dimensions *)
let build_pipe_plan ~gi ~topo ~rank ~recv ~dim ~dir array arrays =
  let peer_dir = if recv then opposite_dir dir else dir in
  P_pipe
    (Option.map
       (fun peer ->
         let owner = if recv then peer else rank in
         ( peer,
           List.map
             (fun (name, depth) ->
               let arr = array name in
               ( name,
                 plan_of arr
                   (block_ranges (status_dims gi "pipeline" name) topo ~owner
                      ~edge:(dim, dir, depth) arr) ))
             arrays ))
       (topo_neighbor topo ~rank dim peer_dir))

let build_allgather_plan ~gi ~topo ~rank ~nranks array arrays =
  P_allgather
    (List.map
       (fun name ->
         let arr = array name in
         let owned owner =
           plan_of arr
             (block_ranges (status_dims gi "allgather" name) topo ~owner arr)
         in
         let peers =
           Array.init nranks (fun peer ->
               if peer = rank then plan_of_offsets [||] else owned peer)
         in
         (name, owned rank, peers))
       arrays)

(* assemble the final global state from the per-rank machines: status
   arrays stitched from their owners' blocks, scalars from rank 0 *)
let gather_results iface ~gi ~topo ~nranks ~machine u =
  let m0 = machine 0 in
  let gathered =
    List.map
      (fun name ->
        let out = Value.copy (iface.i_array m0 name) in
        (match GI.find_status gi name with
        | None -> ()
        | Some sa ->
            for r = 0 to nranks - 1 do
              let src = iface.i_array (machine r) name in
              iter_box
                (block_ranges sa.GI.sa_dims topo ~owner:r src)
                (fun idx -> Value.set out idx (Value.get src idx))
            done);
        (name, out))
      (iface.i_array_names m0)
  in
  let scalars =
    List.filter_map
      (fun u_decl ->
        if u_decl.Ast.d_dims = [] then
          match iface.i_scalar m0 u_decl.Ast.d_name with
          | v -> Some (u_decl.Ast.d_name, v)
          | exception Machine.Runtime_error _ -> None
        else None)
      u.Ast.u_decls
  in
  (gathered, scalars)

(* ------------------------------------------------------------------ *)
(* Engine wiring                                                       *)
(* ------------------------------------------------------------------ *)

let tree_iface (u : Ast.program_unit) : Machine.t iface =
  {
    i_spawn =
      (fun g input ->
        let hooks =
          {
            Machine.h_block = Some g.g_block;
            h_comm = g.g_comm;
            h_pipe_recv = g.g_pipe_recv;
            h_pipe_send = g.g_pipe_send;
            h_read = g.g_read;
            h_write = g.g_write;
          }
        in
        Machine.create ~hooks ~input u);
    i_run = Machine.run;
    i_flops = Machine.flops;
    i_array = Machine.array;
    i_scalar = Machine.scalar;
    i_set_scalar = Machine.set_scalar;
    i_scalar_bindings = Machine.scalar_bindings;
    i_array_names = Machine.array_names;
    i_output = Machine.output;
    i_read0 = Machine.sequential_hooks.Machine.h_read;
    i_write0 = Machine.sequential_hooks.Machine.h_write;
    i_kernels = (fun _ -> []);
  }

let compiled_iface ?(fuse = false) (u : Ast.program_unit) :
    Compile.state iface =
  let cu = Compile.of_unit ~fuse u in
  {
    i_spawn =
      (fun g input ->
        let hooks =
          {
            Compile.h_block = Some g.g_block;
            h_comm = g.g_comm;
            h_pipe_recv = g.g_pipe_recv;
            h_pipe_send = g.g_pipe_send;
            h_read = g.g_read;
            h_write = g.g_write;
          }
        in
        Compile.create ~hooks ~input cu);
    i_run = Compile.run;
    i_flops = Compile.flops;
    i_array = Compile.array;
    i_scalar = Compile.scalar;
    i_set_scalar = Compile.set_scalar;
    i_scalar_bindings = Compile.scalar_bindings;
    i_array_names = Compile.array_names;
    i_output = Compile.output;
    i_read0 = Compile.sequential_hooks.Compile.h_read;
    i_write0 = Compile.sequential_hooks.Compile.h_write;
    i_kernels = Compile.kernel_stats;
  }

(* ------------------------------------------------------------------ *)
(* Per-rank comm backends                                              *)
(* ------------------------------------------------------------------ *)

(* What the rank body needs from one rank's transport.  The simulator
   backend moves every transfer as a message priced on the virtual clock;
   the shared-memory backend blits halos straight out of the peers'
   arrays and measures wall time. *)
type backend = {
  b_time : unit -> float;
  b_barrier : unit -> unit;
  b_allreduce : [ `Max | `Min | `Sum ] -> float -> float;
  b_bcast : float array -> float array;  (* rooted at rank 0 *)
  b_send : dest:int -> tag:int -> float array -> unit;
  b_recv : src:int -> tag:int -> float array;
  b_exchange : (string -> float array) -> xfer_plan list -> unit;
  b_allgather :
    (string -> float array) -> (string * pack_plan * pack_plan array) list ->
    unit;
  b_start : unit -> unit;  (* the rank's machine is published *)
  b_enter : float -> unit;
      (* a hook (or the end of the run) is reached after this many more
         flops of compute *)
  b_leave : unit -> unit;  (* the hook returns; compute resumes *)
  b_phase : Trace.t -> sync_info -> int option -> (unit -> unit) -> unit;
      (* run a hook's communication as its sync point's phase span *)
  b_flush : unit -> unit;  (* settle reliable delivery before a collective *)
  b_advance : float -> unit;  (* charge seconds of checkpoint I/O *)
}

let unpack_checked what p data payload =
  if Array.length payload <> p.pp_total then
    failwith ("Spmd: " ^ what ^ " size mismatch");
  unpack p data payload

(* With a fault plan, point-to-point traffic travels over {!Reliable}; it
   is only paid for when faults are injected. *)
let sim_backend config ~ep c =
  let rank = Sim.rank c and nranks = Sim.nranks c in
  let send ~dest ~tag payload =
    match ep with
    | Some e -> Reliable.send e ~dest ~tag payload
    | None -> Sim.send c ~dest ~tag payload
  in
  let recv ~src ~tag =
    match ep with
    | Some e -> Reliable.recv e ~src ~tag
    | None -> Sim.recv c ~src ~tag
  in
  {
    b_time = (fun () -> Sim.time c);
    b_barrier = (fun () -> Sim.barrier c);
    b_allreduce = Sim.allreduce c;
    b_bcast = Sim.bcast c ~root:0;
    b_send = send;
    b_recv = recv;
    b_exchange =
      (fun data ->
        (* send my boundary planes towards xfer_dir, then receive the
           matching planes from the opposite neighbor *)
        List.iter (fun xp ->
            let data = data xp.xp_array in
            (match xp.xp_send with
            | Some (dest, p) -> send ~dest ~tag:tag_exchange (pack p data)
            | None -> ());
            match xp.xp_recv with
            | Some (src, p) ->
                unpack_checked "halo exchange" p data
                  (recv ~src ~tag:tag_exchange)
            | None -> ()));
    b_allgather =
      (fun data ->
        (* exchange owned regions with every other rank so each rank holds
           the full fresh array *)
        List.iter (fun (name, mine, peers) ->
            let data = data name in
            let payload = pack mine data in
            for peer = 0 to nranks - 1 do
              if peer <> rank then send ~dest:peer ~tag:tag_gather payload
            done;
            for peer = 0 to nranks - 1 do
              if peer <> rank then
                unpack_checked "allgather" peers.(peer) data
                  (recv ~src:peer ~tag:tag_gather)
            done));
    b_start = ignore;
    b_enter =
      (fun flops ->
        if config.flop_time > 0.0 then
          Sim.advance c (flops *. config.flop_time));
    b_leave = ignore;
    b_phase =
      (fun tr si iter f ->
        (* the rank's sync context makes simulator events recorded within
           attribute their messages and blocked time to this point *)
        let t0 = Sim.time c in
        Trace.set_sync tr ~rank ~sync:si.si_id;
        Fun.protect ~finally:(fun () -> Trace.clear_sync tr ~rank) f;
        Trace.phase tr ~rank ~t0 ~t1:(Sim.time c) ~sync:si.si_id
          ~label:si.si_label ?loop:si.si_loop ?iter ());
    b_flush = (fun () -> Option.iter Reliable.flush ep);
    b_advance = Sim.advance c;
  }

(* split an exchange plan (sorted by dim) into its dim groups *)
let dim_groups xps =
  let rec span d = function
    | x :: rest when x.xp_dim = d ->
        let g, tail = span d rest in
        (x :: g, tail)
    | l -> ([], l)
  in
  let rec go = function
    | [] -> []
    | x :: _ as l ->
        let g, tail = span x.xp_dim l in
        g :: go tail
  in
  go xps

(* Every rank executes on its own domain; fields stay plain [float
   array]s, which the OCaml 5 shared heap makes visible to every other
   domain, so a halo exchange is a bounds-checked blit straight out of
   the neighbour's array ([peer rank name]).  Both sides of a transfer
   compute identical offsets (all ranks allocate full-extent arrays), so
   the simulator's pack -> message -> unpack pipeline collapses to
   [dst.(o) <- src.(o)] over the recv plan.

   Ordering protocol: a barrier opens every exchange (the neighbours'
   producing compute must be complete) and closes every dim group —
   higher-dim transfers read lower-dim halo cells through the diagonal
   extension, so those writes must land first.  Within one group, cells
   written (my halo in that dim) and cells peers read from me (my owned
   boundary, plus lower-dim halo written in earlier groups) are disjoint,
   so no intra-group fence is needed.  Collectives run through {!Shm},
   whose allreduce folds contributions in rank order with exactly the
   simulator's combine — the whole run is bit-identical to [Fused].

   The backend accumulates the rank's compute wall seconds (time outside
   hooks) into [compute], (bytes copied, seconds) of every halo episode
   into [samples], and buffers phase spans into [pending]: the tracer is
   not thread-safe, so they are replayed after the join. *)
let shm_backend ~peer ~compute ~samples ~pending c =
  let rank = Shm.rank c and nranks = Shm.nranks c in
  let last = ref 0.0 and t_in = ref 0.0 in
  let copied = ref 0 and halo = ref false in
  let blit_in p ~src ~dst =
    if Array.length src <> Array.length dst then
      failwith "Spmd: halo blit shape mismatch";
    if p.pp_blit then
      Array.iter
        (fun (start, len) -> Array.blit src start dst start len)
        p.pp_segs
    else begin
      let offs = p.pp_offs in
      for i = 0 to p.pp_total - 1 do
        let o = offs.(i) in
        dst.(o) <- src.(o)
      done
    end;
    copied := !copied + (8 * p.pp_total)
  in
  {
    b_time = (fun () -> Shm.time c);
    b_barrier = (fun () -> Shm.barrier c);
    b_allreduce = Shm.allreduce c;
    b_bcast = Shm.bcast c ~root:0;
    b_send = Shm.send c;
    b_recv = Shm.recv c;
    b_exchange =
      (fun data xps ->
        halo := true;
        Shm.barrier c;
        List.iter
          (fun group ->
            List.iter
              (fun xp ->
                match xp.xp_recv with
                | Some (src, p) ->
                    blit_in p ~src:(peer src xp.xp_array)
                      ~dst:(data xp.xp_array)
                | None -> ())
              group;
            Shm.barrier c)
          (dim_groups xps));
    b_allgather =
      (fun data per_array ->
        halo := true;
        Shm.barrier c;
        List.iter
          (fun (name, _mine, peers) ->
            let dst = data name in
            for p = 0 to nranks - 1 do
              if p <> rank then blit_in peers.(p) ~src:(peer p name) ~dst
            done)
          per_array;
        Shm.barrier c);
    b_start =
      (fun () ->
        (* publish before anyone's first exchange can read a peer's
           array *)
        Shm.barrier c;
        last := Shm.time c);
    b_enter =
      (fun _flops ->
        let t = Shm.time c in
        compute.(rank) <- compute.(rank) +. (t -. !last);
        t_in := t;
        copied := 0;
        halo := false);
    b_leave =
      (fun () ->
        let t = Shm.time c in
        if !halo then
          samples.(rank) <- (!copied, t -. !t_in) :: samples.(rank);
        last := t);
    b_phase =
      (fun _ si iter f ->
        let t0 = Shm.time c in
        f ();
        pending.(rank) <- (si, iter, t0, Shm.time c) :: pending.(rank));
    b_flush = ignore;
    b_advance = ignore;
  }

(* ------------------------------------------------------------------ *)
(* The rank body, shared by every engine                               *)
(* ------------------------------------------------------------------ *)

(* checkpoint/restart state of one run, shared by its ranks and kept
   across restart attempts *)
type store = {
  mutable restore : snapshot array option;  (* this attempt resumes here *)
  snapshots : snapshot list array;  (* per rank, most recent first *)
  mutable saved : int;
  mutable restored : int;
}

(* keep at most this many checkpoint generations per rank: after a crash,
   surviving ranks may have raced ahead past further sync points before
   stalling, so the common restore point can lie a little behind their
   newest snapshot *)
let snapshot_history = 3

let create_store nranks =
  { restore = None; snapshots = Array.make nranks []; saved = 0; restored = 0 }

(* newest visit count for which EVERY rank holds a snapshot: checkpoint
   decisions are deterministic in the visit counter, so a snapshot at
   visit v on one rank implies every rank that reached v also took one *)
let restore_point store =
  let snapshots = store.snapshots in
  if Array.exists (fun l -> l = []) snapshots then None
  else
    let target =
      Array.fold_left
        (fun acc l -> min acc (List.hd l).ck_visits)
        max_int snapshots
    in
    let picked =
      Array.map (List.find_opt (fun s -> s.ck_visits = target)) snapshots
    in
    if Array.for_all Option.is_some picked then
      Some (Array.map Option.get picked)
    else None

(* One rank's execution of the SPMD unit over [be]: the rank's machine
   runs with communication hooks that resolve each sync point's plan once
   and drive the backend.  Recovery (Sim only) rides on the same hooks:
   sync-point visits are counted, coordinated checkpoints taken, and a
   restarted attempt replays the unit on local data with communication
   suppressed until it reaches the restore point. *)
let rank_body iface ~etag config ~sync_tbl ~store ~machines rank be =
  let topo = config.topo and gi = config.gi in
  let block = Topology.block topo rank in
  let plans : (int, plan) Hashtbl.t = Hashtbl.create 16 in
  let plan sid build =
    match Hashtbl.find_opt plans sid with
    | Some p -> p
    | None ->
        let p = cached_plan ~etag ~topo ~rank ~sid build in
        Hashtbl.replace plans sid p;
        p
  in
  let array m name = iface.i_array m name in
  let data m name = (array m name).Value.data in
  let scalar m v = Value.to_float (iface.i_scalar m v) in
  let allreduce m op v =
    iface.i_set_scalar m v (Value.Real (be.b_allreduce op (scalar m v)))
  in
  let comm m sid = function
    | Ast.Exchange ts -> (
        match
          plan sid (fun () -> build_exchange_plan ~gi ~topo ~rank (array m) ts)
        with
        | P_exchange xps -> be.b_exchange (data m) xps
        | _ -> assert false)
    | Ast.Allreduce_max v -> allreduce m `Max v
    | Ast.Allreduce_min v -> allreduce m `Min v
    | Ast.Allreduce_sum v -> allreduce m `Sum v
    | Ast.Broadcast vars ->
        let data =
          if rank = 0 then Array.of_list (List.map (scalar m) vars)
          else Array.make (List.length vars) 0.0
        in
        let data = be.b_bcast data in
        List.iteri (fun i v -> iface.i_set_scalar m v (Value.Real data.(i))) vars
    | Ast.Allgather arrays -> (
        match
          plan sid (fun () ->
              build_allgather_plan ~gi ~topo ~rank
                ~nranks:(Topology.nranks topo) (array m) arrays)
        with
        | P_allgather l -> be.b_allgather (data m) l
        | _ -> assert false)
    | Ast.Barrier -> be.b_barrier ()
  in
  let pipe ~recv m sid ~dim ~dir arrays =
    (* recv: wait for the upstream neighbor's fresh planes before the
       sweep; send: forward my downstream boundary after it *)
    match
      plan sid (fun () ->
          build_pipe_plan ~gi ~topo ~rank ~recv ~dim ~dir (array m) arrays)
    with
    | P_pipe None -> ()
    | P_pipe (Some (peer, per_array)) ->
        List.iter
          (fun (name, p) ->
            let data = data m name in
            if recv then
              unpack_checked "pipeline message" p data
                (be.b_recv ~src:peer ~tag:tag_pipe)
            else be.b_send ~dest:peer ~tag:tag_pipe (pack p data))
          per_array
    | _ -> assert false
  in
  (* the phase span is tagged with the enclosing loop variable and its
     current iteration *)
  let traced m sid f =
    match config.tracer with
    | None -> f ()
    | Some tr -> (
        match Hashtbl.find_opt sync_tbl sid with
        | None -> f ()
        | Some si ->
            let iter =
              match si.si_loop with
              | None -> None
              | Some v -> (
                  match iface.i_scalar m v with
                  | Value.Int i -> Some i
                  | Value.Real x -> Some (int_of_float x)
                  | Value.Bool _ | Value.Str _ -> None
                  | exception Machine.Runtime_error _ -> None)
            in
            be.b_phase tr si iter f)
  in
  (* recovery replay state: sync-point visits come in the same sequence
     on every rank; until the restore target is reached, communication is
     suppressed and the unit replays on local data only *)
  let restore_target, prefix =
    match store.restore with
    | Some snaps -> (snaps.(0).ck_visits, snaps.(0).ck_output)
    | None -> (0, [])
  in
  let visits = ref 0 and pipe_open = ref 0 in
  let live = ref (restore_target = 0) in
  let last_flops = ref 0.0 in
  (* checkpoint I/O priced at the stable store's bandwidth (node-local
     storage, not the cluster interconnect) *)
  let checkpoint_io ~save s =
    let bytes = snapshot_bytes s in
    let bw =
      match config.recovery with
      | Some rc -> rc.rc_bandwidth
      | None -> default_recovery.rc_bandwidth
    in
    be.b_advance (float_of_int bytes /. bw);
    match config.tracer with
    | Some tr ->
        let now = be.b_time () in
        Trace.record tr ~rank ~t0:now ~t1:now (Trace.Checkpoint { save; bytes })
    | None -> ()
  in
  let maybe_restore m =
    if !visits >= restore_target then begin
      (match store.restore with
      | Some snaps ->
          let s = snaps.(rank) in
          List.iter (fun (n, v) -> iface.i_set_scalar m n v) s.ck_scalars;
          List.iter
            (fun (n, d) -> Array.blit d 0 (data m n) 0 (Array.length d))
            s.ck_arrays;
          last_flops := iface.i_flops m;
          checkpoint_io ~save:false s;
          if rank = 0 then store.restored <- store.restored + 1
      | None -> ());
      live := true
    end
  in
  let maybe_checkpoint m =
    match config.recovery with
    | Some rc
      when rc.rc_every > 0 && !pipe_open = 0 && !visits mod rc.rc_every = 0 ->
        let s =
          {
            ck_visits = !visits;
            ck_scalars =
              List.filter
                (fun (_, v) -> match v with Value.Str _ -> false | _ -> true)
                (iface.i_scalar_bindings m);
            ck_arrays =
              List.map
                (fun n -> (n, Array.copy (data m n)))
                (iface.i_array_names m);
            ck_output = (if rank = 0 then prefix @ iface.i_output m else []);
          }
        in
        store.snapshots.(rank) <-
          s
          :: (List.filter (fun o -> o.ck_visits < s.ck_visits)
                store.snapshots.(rank)
             |> List.filteri (fun i _ -> i < snapshot_history - 1));
        if rank = 0 then store.saved <- store.saved + 1;
        checkpoint_io ~save:true s
    | _ -> ()
  in
  (* a sync-point visit: hand the backend the compute done since the
     previous one and report whether the hook communicates — not while
     replaying towards the restore point *)
  let enter m =
    let f = iface.i_flops m in
    let flops = f -. !last_flops in
    last_flops := f;
    incr visits;
    if !live then begin
      be.b_enter flops;
      true
    end
    else begin
      maybe_restore m;
      false
    end
  in
  let hooks =
    {
      g_block =
        (fun d ->
          (block.Autocfd_partition.Block.lo.(d),
           block.Autocfd_partition.Block.hi.(d)));
      g_comm =
        (fun m ~sid c ->
          if enter m then begin
            (* an unacknowledged envelope must not survive into a
               collective: its sender would park where no retransmit can
               happen *)
            (match c with
            | Ast.Exchange _ | Ast.Allgather _ -> ()
            | _ -> be.b_flush ());
            traced m sid (fun () -> comm m sid c);
            maybe_checkpoint m;
            be.b_leave ()
          end);
      g_pipe_recv =
        (fun m ~sid ~dim ~dir arrays ->
          (* a pipeline stream is now mid-flight: the matching send sits
             at a LATER visit on the upstream rank, so a cut here would
             not be consistent — no checkpoint until it closes *)
          incr pipe_open;
          if enter m then begin
            traced m sid (fun () -> pipe ~recv:true m sid ~dim ~dir arrays);
            be.b_leave ()
          end);
      g_pipe_send =
        (fun m ~sid ~dim ~dir arrays ->
          decr pipe_open;
          if enter m then begin
            traced m sid (fun () -> pipe ~recv:false m sid ~dim ~dir arrays);
            maybe_checkpoint m;
            be.b_leave ()
          end);
      g_read =
        (fun m n ->
          if enter m then begin
            be.b_flush ();
            let out =
              be.b_bcast
                (if rank = 0 then iface.i_read0 m n else Array.make n 0.0)
            in
            maybe_checkpoint m;
            be.b_leave ();
            out
          end
          else
            (* replay: every rank reads its own copy of the input list —
               same values the broadcast delivered, no communication *)
            iface.i_read0 m n);
      g_write =
        (fun m values -> if !live && rank = 0 then iface.i_write0 m values);
    }
  in
  let m = iface.i_spawn hooks config.input in
  machines.(rank) <- Some m;
  be.b_start ();
  iface.i_run m;
  if not !live then
    failwith
      "Spmd: restart replay never reached the checkpointed sync point \
       (control flow depends on communication results?)";
  be.b_enter (iface.i_flops m -. !last_flops);
  be.b_flush ()

let sync_table config u =
  match config.tracer with None -> Hashtbl.create 1 | Some _ -> sync_points u

(* The result of a finished run, from its published machines.  Each
   executed nest's profile becomes one Kernel summary event spanning
   [0, flops * secs_per_flop]; emitted after the run, they are summaries,
   not timeline slices — Metrics folds them into its kernel table instead
   of the rank accounting. *)
let collect iface config u ~machines ~wall ~secs_per_flop stats =
  let nranks = Array.length machines in
  let machine r = Option.get machines.(r) in
  Option.iter
    (fun tr ->
      for r = 0 to nranks - 1 do
        let ks = iface.i_kernels (machine r) in
        let rate = secs_per_flop r ks in
        List.iter
          (fun (k : Compile.kernel_stat) ->
            if k.Compile.ks_calls > 0 then
              Trace.record tr ~wall ~rank:r ~t0:0.0
                ~t1:(k.Compile.ks_flops *. rate)
                (kernel_event k))
          ks
      done)
    config.tracer;
  let gathered, scalars =
    gather_results iface ~gi:config.gi ~topo:config.topo ~nranks ~machine u
  in
  {
    stats;
    output = iface.i_output (machine 0);
    gathered;
    scalars;
    flops_per_rank = Array.init nranks (fun r -> iface.i_flops (machine r));
    resilience = no_resilience;
    domains = None;
  }

(* the simulated cluster, restarting from the newest consistent
   checkpoint while a crashed rank surfaces as [Sim.Timeout] *)
let run_sim iface ~etag config u =
  let nranks = Topology.nranks config.topo in
  let sync_tbl = sync_table config u in
  let machines = Array.make nranks None in
  let endpoints : Reliable.t option array = Array.make nranks None in
  let store = create_store nranks in
  let attempt () =
    Array.fill machines 0 nranks None;
    Array.fill endpoints 0 nranks None;
    Sim.run ~net:config.net ?tracer:config.tracer ?faults:config.faults
      ~nranks (fun c ->
        let ep = Option.map (fun _ -> Reliable.create c) config.faults in
        endpoints.(Sim.rank c) <- ep;
        rank_body iface ~etag config ~sync_tbl ~store ~machines (Sim.rank c)
          (sim_backend config ~ep c))
  in
  let max_restarts =
    match config.recovery with Some rc -> rc.rc_max_restarts | None -> 0
  in
  let rec attempts restarts =
    store.restore <- (if restarts = 0 then None else restore_point store);
    match attempt () with
    | stats -> (stats, restarts)
    | exception Sim.Timeout msg ->
        if restarts >= max_restarts then raise (Sim.Timeout msg)
        else attempts (restarts + 1)
  in
  let stats, restarts = attempts 0 in
  let res =
    collect iface config u ~machines ~wall:false
      ~secs_per_flop:(fun _ _ -> config.flop_time)
      stats
  in
  let sum f =
    Array.fold_left
      (fun acc ep ->
        match ep with Some e -> acc + f (Reliable.stats e) | None -> acc)
      0 endpoints
  in
  {
    res with
    output =
      (match store.restore with Some s -> s.(0).ck_output | None -> [])
      @ res.output;
    resilience =
      {
        rs_restarts = restarts;
        rs_checkpoints = store.saved;
        rs_restores = store.restored;
        rs_retransmits = sum (fun s -> s.Reliable.rl_retransmits);
        rs_dup_suppressed = sum (fun s -> s.Reliable.rl_dup_suppressed);
        rs_checksum_failures = sum (fun s -> s.Reliable.rl_checksum_failures);
      };
  }

(* real parallel execution, one OCaml 5 domain per rank; the simulated
   stats are synthesized from the measured wall clock *)
let run_shm iface config u =
  if config.faults <> None then
    invalid_arg "Spmd: the Domains engine does not support fault injection";
  if config.recovery <> None then
    invalid_arg "Spmd: the Domains engine does not support recovery";
  let nranks = Topology.nranks config.topo in
  let sync_tbl = sync_table config u in
  let machines = Array.make nranks None in
  let compute = Array.make nranks 0.0 in
  let samples = Array.make nranks [] in
  let pending = Array.make nranks [] in
  let peer p name =
    match machines.(p) with
    | Some m -> (iface.i_array m name).Value.data
    | None -> failwith "Spmd: Domains peer machine not published"
  in
  let store = create_store nranks in
  let shm =
    try
      Shm.run ~nranks (fun c ->
          rank_body iface ~etag:"domains" config ~sync_tbl ~store ~machines
            (Shm.rank c)
            (shm_backend ~peer ~compute ~samples ~pending c))
    with Shm.Rank_failure (r, e) -> raise (Sim.Rank_failure (r, e))
  in
  let ranks = shm.Shm.ranks in
  let sum_i f = Array.fold_left (fun acc rs -> acc + f rs) 0 ranks in
  let stats =
    {
      Sim.elapsed = shm.Shm.elapsed;
      rank_times = Array.map (fun rs -> rs.Shm.rs_wall) ranks;
      messages = sum_i (fun rs -> rs.Shm.rs_sends);
      bytes = sum_i (fun rs -> rs.Shm.rs_bytes);
      collectives = ranks.(0).Shm.rs_collectives;
      rank_sends = Array.map (fun rs -> rs.Shm.rs_sends) ranks;
      rank_recvs = Array.map (fun rs -> rs.Shm.rs_recvs) ranks;
      rank_blocked =
        Array.map (fun rs -> rs.Shm.rs_barrier_wait +. rs.Shm.rs_recv_wait) ranks;
    }
  in
  (match config.tracer with
  | None -> ()
  | Some tr ->
      Trace.prepare tr ~nranks;
      Array.iteri
        (fun r pend ->
          List.iter
            (fun (si, iter, t0, t1) ->
              Trace.phase tr ~wall:true ~rank:r ~t0 ~t1 ~sync:si.si_id
                ~label:si.si_label ?loop:si.si_loop ?iter ())
            (List.rev pend))
        pending;
      Array.iteri
        (fun r rs ->
          List.iter
            (fun (w : Shm.wait) ->
              if w.Shm.w_dur > 0.0 then
                Trace.record tr ~wall:true ~rank:r ~t0:w.Shm.w_start
                  ~t1:(w.Shm.w_start +. w.Shm.w_dur)
                  (Trace.Blocked
                     {
                       src = -1;
                       tag = (if w.Shm.w_barrier then -1 else tag_pipe);
                     }))
            rs.Shm.rs_waits)
        ranks);
  (* kernel summaries in measured wall seconds: the rank's compute wall
     split across nests by their flop shares *)
  let secs_per_flop r ks =
    let total = List.fold_left (fun a k -> a +. k.Compile.ks_flops) 0.0 ks in
    if total > 0.0 then compute.(r) /. total else 0.0
  in
  let res = collect iface config u ~machines ~wall:true ~secs_per_flop stats in
  {
    res with
    domains =
      Some
        {
          ds_wall = shm.Shm.elapsed;
          ds_rank_wall = Array.map (fun rs -> rs.Shm.rs_wall) ranks;
          ds_compute = Array.copy compute;
          ds_barrier_wait = Array.map (fun rs -> rs.Shm.rs_barrier_wait) ranks;
          ds_barrier_calls = ranks.(0).Shm.rs_barrier_calls;
          ds_flops = Array.copy res.flops_per_rank;
          ds_comm_samples = List.concat_map List.rev (Array.to_list samples);
        };
  }

let run ?(engine = Fused) config (u : Ast.program_unit) =
  match engine with
  | Tree -> run_sim (tree_iface u) ~etag:"tree" config u
  | Compiled -> run_sim (compiled_iface u) ~etag:"compiled" config u
  | Fused -> run_sim (compiled_iface ~fuse:true u) ~etag:"fused" config u
  | Domains -> run_shm (compiled_iface ~fuse:true u) config u
