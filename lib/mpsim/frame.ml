type kind = Data | Ack | Nack

type frame = { fr_kind : kind; fr_seq : int; fr_payload : string }

let magic = "ACFD"
let header_len = 4 + 1 + 8 + 4 + 8
let max_payload = 1 lsl 26

let kind_code = function Data -> 0 | Ack -> 1 | Nack -> 2
let kind_of_code = function
  | 0 -> Some Data
  | 1 -> Some Ack
  | 2 -> Some Nack
  | _ -> None

(* FNV-1a 64 over the kind byte, the big-endian sequence and the payload *)
let checksum ~kind ~seq payload =
  let byte h b = Autocfd_util.Fnv.mix h (Int64.of_int b) in
  let h = ref (byte Autocfd_util.Fnv.basis (kind_code kind)) in
  for i = 7 downto 0 do
    h := byte !h ((seq lsr (i * 8)) land 0xff)
  done;
  Autocfd_util.Fnv.string !h payload

let encode ~kind ~seq payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_len + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 (kind_code kind);
  Bytes.set_int64_be b 5 (Int64.of_int seq);
  Bytes.set_int32_be b 13 (Int32.of_int n);
  Bytes.set_int64_be b 17 (checksum ~kind ~seq payload);
  Bytes.blit_string payload 0 b header_len n;
  b

type reader = {
  mutable rd_buf : Bytes.t;
  mutable rd_pos : int;
  mutable rd_len : int;
  mutable rd_corrupt : int;
}

let reader () =
  { rd_buf = Bytes.create 65536; rd_pos = 0; rd_len = 0; rd_corrupt = 0 }

let reader_corrupt r = r.rd_corrupt

let feed r buf off n =
  if r.rd_pos > 0 then begin
    Bytes.blit r.rd_buf r.rd_pos r.rd_buf 0 (r.rd_len - r.rd_pos);
    r.rd_len <- r.rd_len - r.rd_pos;
    r.rd_pos <- 0
  end;
  if r.rd_len + n > Bytes.length r.rd_buf then begin
    let cap = ref (Bytes.length r.rd_buf) in
    while r.rd_len + n > !cap do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit r.rd_buf 0 nb 0 r.rd_len;
    r.rd_buf <- nb
  end;
  Bytes.blit buf off r.rd_buf r.rd_len n;
  r.rd_len <- r.rd_len + n

let magic_at buf pos =
  Bytes.get buf pos = 'A'
  && Bytes.get buf (pos + 1) = 'C'
  && Bytes.get buf (pos + 2) = 'F'
  && Bytes.get buf (pos + 3) = 'D'

(* first offset >= pos where the magic could (re)start; keeps up to 3
   trailing bytes in case the magic straddles the buffer end *)
let resync r pos =
  let limit = r.rd_len - 4 in
  let i = ref pos in
  while !i <= limit && not (magic_at r.rd_buf !i) do
    incr i
  done;
  r.rd_pos <- min !i (max pos (r.rd_len - 3))

let rec next r =
  let avail = r.rd_len - r.rd_pos in
  if avail < header_len then None
  else if not (magic_at r.rd_buf r.rd_pos) then begin
    (* lost synchronization: count one garbled stretch and scan forward *)
    r.rd_corrupt <- r.rd_corrupt + 1;
    resync r (r.rd_pos + 1);
    next r
  end
  else begin
    let pos = r.rd_pos in
    let code = Bytes.get_uint8 r.rd_buf (pos + 4) in
    let seq = Int64.to_int (Bytes.get_int64_be r.rd_buf (pos + 5)) in
    let plen = Int32.to_int (Bytes.get_int32_be r.rd_buf (pos + 13)) in
    match kind_of_code code with
    | None ->
        (* header damaged where the length lives: length untrustworthy,
           skip one byte and resynchronize *)
        r.rd_corrupt <- r.rd_corrupt + 1;
        resync r (pos + 1);
        next r
    | Some _ when plen < 0 || plen > max_payload ->
        r.rd_corrupt <- r.rd_corrupt + 1;
        resync r (pos + 1);
        next r
    | Some kind ->
        if avail < header_len + plen then None
        else begin
          let stored = Bytes.get_int64_be r.rd_buf (pos + 17) in
          let payload =
            Bytes.sub_string r.rd_buf (pos + header_len) plen
          in
          (* framing is intact either way: consume the whole frame *)
          r.rd_pos <- pos + header_len + plen;
          if stored = checksum ~kind ~seq payload then
            Some { fr_kind = kind; fr_seq = seq; fr_payload = payload }
          else begin
            r.rd_corrupt <- r.rd_corrupt + 1;
            next r
          end
        end
  end

exception Closed

type chaos = { ch_seed : int; ch_corrupt : float; ch_duplicate : float }

type pending = {
  mutable p_last : float;
  mutable p_attempts : int;
  p_seq : int;
  p_payload : string;
}

type conn = {
  cn_fd : Unix.file_descr;
  cn_rd : reader;
  cn_lock : Mutex.t;
  cn_rto : float;
  cn_chaos : chaos option;
  mutable cn_rng : int;
  mutable cn_send_seq : int;
  mutable cn_recv_next : int;
  cn_unacked : (int, pending) Hashtbl.t;
  cn_ooo : (int, string) Hashtbl.t;
  mutable cn_sent : int;
  mutable cn_delivered : int;
  mutable cn_retransmits : int;
  mutable cn_dup : int;
  mutable cn_closed : bool;
  cn_chunk : Bytes.t;
}

let conn ?chaos ?(rto = 0.2) fd =
  {
    cn_fd = fd;
    cn_rd = reader ();
    cn_lock = Mutex.create ();
    cn_rto = rto;
    cn_chaos = chaos;
    cn_rng =
      (match chaos with
      | Some c -> (c.ch_seed lor 1) land max_int
      | None -> 1);
    cn_send_seq = 0;
    cn_recv_next = 0;
    cn_unacked = Hashtbl.create 16;
    cn_ooo = Hashtbl.create 16;
    cn_sent = 0;
    cn_delivered = 0;
    cn_retransmits = 0;
    cn_dup = 0;
    cn_closed = false;
    cn_chunk = Bytes.create 65536;
  }

let fd c = c.cn_fd

(* deterministic xorshift stream in [0, 1) for chaos decisions *)
let rng01 c =
  let s = c.cn_rng in
  let s = s lxor (s lsl 13) land max_int in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) land max_int in
  c.cn_rng <- (if s = 0 then 0x9e3779b9 else s);
  float_of_int (c.cn_rng land 0xFFFFFF) /. 16777216.0

let rec write_all fd b off len =
  if len > 0 then begin
    let n =
      try Unix.write fd b off len
      with
      | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        raise Closed
    in
    write_all fd b (off + n) (len - n)
  end

(* under [cn_lock] *)
let write_frame c frame = write_all c.cn_fd frame 0 (Bytes.length frame)

(* a fresh data frame goes through the chaos harness; everything else
   (control frames, retransmissions) is sent clean *)
let write_fresh c frame =
  match c.cn_chaos with
  | None -> write_frame c frame
  | Some ch ->
      let dup = rng01 c < ch.ch_duplicate in
      if rng01 c < ch.ch_corrupt then begin
        (* flip one byte at or after the checksum field: the magic, kind
           and length survive, so stream framing is preserved and the
           receiver drops exactly this frame *)
        let mangled = Bytes.copy frame in
        let span = Bytes.length frame - 17 in
        let off = 17 + int_of_float (rng01 c *. float_of_int span) in
        let off = min off (Bytes.length frame - 1) in
        Bytes.set_uint8 mangled off (Bytes.get_uint8 frame off lxor 0x5a);
        write_frame c mangled
      end
      else write_frame c frame;
      if dup then write_frame c frame

let send c payload =
  Mutex.protect c.cn_lock (fun () ->
      if c.cn_closed then raise Closed;
      let seq = c.cn_send_seq in
      c.cn_send_seq <- seq + 1;
      Hashtbl.replace c.cn_unacked seq
        {
          p_last = Unix.gettimeofday ();
          p_attempts = 0;
          p_seq = seq;
          p_payload = payload;
        };
      c.cn_sent <- c.cn_sent + 1;
      write_fresh c (encode ~kind:Data ~seq payload))

let send_ctrl c kind seq =
  Mutex.protect c.cn_lock (fun () ->
      if not c.cn_closed then write_frame c (encode ~kind ~seq ""))

let unacked_sorted c =
  Hashtbl.fold (fun _ p acc -> p :: acc) c.cn_unacked []
  |> List.sort (fun a b -> compare a.p_seq b.p_seq)

let retransmit c p =
  p.p_last <- Unix.gettimeofday ();
  p.p_attempts <- p.p_attempts + 1;
  c.cn_retransmits <- c.cn_retransmits + 1;
  write_frame c (encode ~kind:Data ~seq:p.p_seq p.p_payload)

let handle_ack c seq =
  Mutex.protect c.cn_lock (fun () ->
      List.iter
        (fun p -> if p.p_seq <= seq then Hashtbl.remove c.cn_unacked p.p_seq)
        (unacked_sorted c))

let handle_nack c seq =
  Mutex.protect c.cn_lock (fun () ->
      List.iter
        (fun p -> if p.p_seq >= seq then retransmit c p)
        (unacked_sorted c))

let pump c =
  let n =
    try Unix.read c.cn_fd c.cn_chunk 0 (Bytes.length c.cn_chunk)
    with Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> 0
  in
  if n = 0 then begin
    c.cn_closed <- true;
    raise Closed
  end;
  feed c.cn_rd c.cn_chunk 0 n;
  let corrupt0 = c.cn_rd.rd_corrupt in
  let delivered = ref [] in
  let progressed = ref false in
  let rec drain () =
    match next c.cn_rd with
    | None -> ()
    | Some { fr_kind = Ack; fr_seq; _ } ->
        handle_ack c fr_seq;
        drain ()
    | Some { fr_kind = Nack; fr_seq; _ } ->
        handle_nack c fr_seq;
        drain ()
    | Some { fr_kind = Data; fr_seq; fr_payload } ->
        if fr_seq < c.cn_recv_next then c.cn_dup <- c.cn_dup + 1
        else if fr_seq = c.cn_recv_next then begin
          delivered := fr_payload :: !delivered;
          c.cn_recv_next <- c.cn_recv_next + 1;
          progressed := true;
          let continue = ref true in
          while !continue do
            match Hashtbl.find_opt c.cn_ooo c.cn_recv_next with
            | Some payload ->
                Hashtbl.remove c.cn_ooo c.cn_recv_next;
                delivered := payload :: !delivered;
                c.cn_recv_next <- c.cn_recv_next + 1
            | None -> continue := false
          done
        end
        else if Hashtbl.mem c.cn_ooo fr_seq then c.cn_dup <- c.cn_dup + 1
        else Hashtbl.replace c.cn_ooo fr_seq fr_payload;
        drain ()
  in
  drain ();
  let out = List.rev !delivered in
  c.cn_delivered <- c.cn_delivered + List.length out;
  (* cumulative ack for everything now contiguous; a gap (out-of-order
     stash or a dropped corrupt frame) asks for retransmission instead *)
  if !progressed && Hashtbl.length c.cn_ooo = 0 then
    send_ctrl c Ack (c.cn_recv_next - 1)
  else if
    Hashtbl.length c.cn_ooo > 0 || c.cn_rd.rd_corrupt > corrupt0
  then
    send_ctrl c Nack c.cn_recv_next;
  out

let tick c =
  Mutex.protect c.cn_lock (fun () ->
      if not c.cn_closed then begin
        let now = Unix.gettimeofday () in
        List.iter
          (fun p ->
            let backoff =
              c.cn_rto *. (2.0 ** float_of_int (min p.p_attempts 6))
            in
            if now -. p.p_last >= backoff then retransmit c p)
          (unacked_sorted c)
      end)

type stats = {
  cs_sent : int;
  cs_delivered : int;
  cs_retransmits : int;
  cs_dup_suppressed : int;
  cs_corrupt : int;
}

let stats c =
  {
    cs_sent = c.cn_sent;
    cs_delivered = c.cn_delivered;
    cs_retransmits = c.cn_retransmits;
    cs_dup_suppressed = c.cn_dup;
    cs_corrupt = c.cn_rd.rd_corrupt;
  }

let close c =
  Mutex.protect c.cn_lock (fun () ->
      if not c.cn_closed then begin
        c.cn_closed <- true;
        try Unix.close c.cn_fd with Unix.Unix_error _ -> ()
      end)
