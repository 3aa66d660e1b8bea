(** [c$acfd] user directives — the "minimum number of user directives"
    Auto-CFD requires (the paper's Appendix 1 equivalent).

    Syntax, one directive per comment line:
    {v
    c$acfd grid(ni, nj, nk)      names of the flow-field extent constants
    c$acfd status(u, v, p, q:3)  status arrays; [name:k] = first k dims are
                                 status dimensions (default: inferred by
                                 matching declared extents to the grid)
    c$acfd dist(a, 2)            dependency distance override for array a
    c$acfd serial                keep the next DO loop sequential
    v} *)

type kind =
  | Grid of string list
  | Status of (string * int option) list
  | Dist of string * int
  | Serial
[@@deriving show { with_path = false }, eq]

type t = { dir_line : int; dir_kind : kind }
[@@deriving show { with_path = false }, eq]

let prefix = "$acfd"

(** [recognize line] is the directive payload when [line] is a [c$acfd]
    comment (case-insensitive, 'c', 'C' or '*' in column 1, or a '!$acfd'
    free-form comment). *)
let recognize line =
  let line = String.trim line in
  let lower = String.lowercase_ascii line in
  let matches pre = String.length lower > String.length pre
                    && String.sub lower 0 (String.length pre) = pre in
  if matches ("c" ^ prefix) || matches ("*" ^ prefix) || matches ("!" ^ prefix)
  then
    let payload =
      String.sub line (1 + String.length prefix)
        (String.length line - 1 - String.length prefix)
    in
    (* [c$acfd>] marks generated annotations, not user directives *)
    if String.length payload > 0 && payload.[0] = '>' then None
    else Some payload
  else None

let split_args s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* payload looks like "  grid(ni, nj, nk)" or "  serial"; a malformed
   one raises {!Loc.Error} at [line] and the directive's column [col] *)
let parse ~line ~col payload =
  let error msg = raise (Loc.Error (Loc.make line col, msg)) in
  let payload = String.trim (String.lowercase_ascii payload) in
  let name, args =
    match String.index_opt payload '(' with
    | None -> (payload, [])
    | Some i ->
        if payload.[String.length payload - 1] <> ')' then
          error "unterminated directive argument list";
        let name = String.trim (String.sub payload 0 i) in
        let inner =
          String.sub payload (i + 1) (String.length payload - i - 2)
        in
        (name, split_args inner)
  in
  let kind =
    match name with
    | "grid" ->
        if args = [] then error "grid() needs arguments";
        Grid args
    | "status" ->
        let parse_one a =
          match String.split_on_char ':' a with
          | [ n ] -> (n, None)
          | [ n; k ] -> (
              match int_of_string_opt (String.trim k) with
              | Some k when k > 0 -> (String.trim n, Some k)
              | _ -> error "bad status dimension count")
          | _ -> error ("bad status() argument: " ^ a)
        in
        Status (List.map parse_one args)
    | "dist" -> (
        match args with
        | [ a; k ] -> (
            match int_of_string_opt k with
            | Some k when k > 0 -> Dist (a, k)
            | _ -> error "dist() distance must be > 0")
        | _ -> error "dist(array, k) expects 2 arguments")
    | "serial" -> Serial
    | other -> error ("unknown directive: " ^ other)
  in
  { dir_line = line; dir_kind = kind }

let grids dirs =
  List.concat_map
    (fun d -> match d.dir_kind with Grid g -> g | _ -> [])
    dirs

let status_arrays dirs =
  List.concat_map
    (fun d -> match d.dir_kind with Status s -> s | _ -> [])
    dirs

let dist_overrides dirs =
  List.filter_map
    (fun d -> match d.dir_kind with Dist (a, k) -> Some (a, k) | _ -> None)
    dirs

let serial_lines dirs =
  List.filter_map
    (fun d -> match d.dir_kind with Serial -> Some d.dir_line | _ -> None)
    dirs
