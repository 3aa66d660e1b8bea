(* The benchmark's own span recorder.

   Spans are opened around calls into the library from outside it: each
   has a name of the form "<layer>.<operation>" (the layer is the [lib/]
   directory the call enters), a start, an end and the span that was open
   when it started.  They are kept in memory and exported at the end in
   Chrome trace_event format.  A disabled recorder costs one branch per
   call, so the untraced run times the same code. *)

module J = Autocfd_obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  t1 : float;
}

type t = {
  enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable done_ : span list;  (** newest first *)
}

let create ~enabled = { enabled; next = 0; stack = []; done_ = [] }

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      r.stack <- List.tl r.stack;
      r.done_ <- { id; name; parent; t0; t1 } :: r.done_
    in
    Fun.protect ~finally:finish f
  end

let spans r = List.rev r.done_

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* total length of the union of [ivs], each clipped to [lo, hi] *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* a span's duration minus the part of it its child spans cover *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      ( s,
        s.t1 -. s.t0
        -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id) ))
    spans

(* per-layer self time summed over all spans, in first-appearance order *)
let layer_self spans =
  List.fold_left
    (fun acc (s, self) ->
      let l = layer s.name in
      match List.assoc_opt l acc with
      | Some v -> (l, v +. self) :: List.remove_assoc l acc
      | None -> (l, self) :: acc)
    [] (self_times spans)
  |> List.sort compare

let chrome spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us t = J.Float ((t -. origin) *. 1e6) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.name);
                   ("cat", J.Str (layer s.name));
                   ("ph", J.Str "X");
                   ("ts", us s.t0);
                   ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", J.Int 0);
                   ("tid", J.Int 0);
                   ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
                 ])
             spans) );
      ("displayTimeUnit", J.Str "ms");
    ]
