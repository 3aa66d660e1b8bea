(** The distributed sweep fabric: frame codec and chaos transport over
    real sockets, the master/worker wire protocol, and the robustness
    ladder — end-to-end distribution, graceful degradation without
    workers, quarantine of poisoned jobs, requeue on worker death, lease
    expiry for silent workers, and heartbeats keeping slow jobs leased. *)

module Sched = Autocfd_sched
module Fabric = Sched.Fabric
module Frame = Autocfd_mpsim.Frame
module J = Autocfd_obs.Json

(* ------------------------------------------------------------------ *)
(* frame codec                                                        *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let r = Frame.reader () in
  let payloads = [ ""; "x"; String.make 1000 'q'; "{\"a\":[1,2,3]}" ] in
  List.iteri
    (fun i p ->
      let b = Frame.encode ~kind:Frame.Data ~seq:i p in
      Frame.feed r b 0 (Bytes.length b))
    payloads;
  List.iteri
    (fun i p ->
      match Frame.next r with
      | Some f ->
          Alcotest.(check int) "seq" i f.Frame.fr_seq;
          Alcotest.(check string) "payload" p f.Frame.fr_payload
      | None -> Alcotest.failf "frame %d missing" i)
    payloads;
  Alcotest.(check bool) "drained" true (Frame.next r = None);
  Alcotest.(check int) "nothing corrupt" 0 (Frame.reader_corrupt r)

let test_frame_resync_on_garbage () =
  let r = Frame.reader () in
  let garbage = Bytes.of_string "%%%% line noise before the frame ****" in
  Frame.feed r garbage 0 (Bytes.length garbage);
  let b = Frame.encode ~kind:Frame.Data ~seq:7 "survivor" in
  Frame.feed r b 0 (Bytes.length b);
  (match Frame.next r with
  | Some f -> Alcotest.(check string) "payload" "survivor" f.Frame.fr_payload
  | None -> Alcotest.fail "frame after garbage not recovered");
  Alcotest.(check bool) "garbage counted" true (Frame.reader_corrupt r > 0)

let test_frame_checksum_rejects () =
  let r = Frame.reader () in
  let b = Frame.encode ~kind:Frame.Data ~seq:0 "payload-to-mangle" in
  (* flip one payload byte: framing survives, the checksum must not *)
  Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 0x40));
  Frame.feed r b 0 (Bytes.length b);
  Alcotest.(check bool) "mangled frame dropped" true (Frame.next r = None);
  Alcotest.(check bool) "corruption counted" true (Frame.reader_corrupt r > 0);
  (* an intact retransmission still gets through *)
  let b2 = Frame.encode ~kind:Frame.Data ~seq:0 "payload-to-mangle" in
  Frame.feed r b2 0 (Bytes.length b2);
  match Frame.next r with
  | Some f ->
      Alcotest.(check string) "retransmit delivered" "payload-to-mangle"
        f.Frame.fr_payload
  | None -> Alcotest.fail "clean retransmission lost"

(* chaos conn over a socketpair: exactly-once in-order delivery while
   the sender's wire corrupts and duplicates fresh frames *)
let test_conn_chaos_exactly_once () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let chaos =
    { Frame.ch_seed = 11; ch_corrupt = 0.3; ch_duplicate = 0.3 }
  in
  let sender = Frame.conn ~chaos ~rto:0.02 a in
  let receiver = Frame.conn b in
  let n = 60 in
  let expected = List.init n (fun i -> Printf.sprintf "payload-%d" i) in
  List.iter (Frame.send sender) expected;
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    List.length !got < n
    && Unix.gettimeofday () < deadline
  do
    (match Unix.select [ Frame.fd receiver; Frame.fd sender ] [] [] 0.02 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.memq (Frame.fd receiver) readable then
          got := !got @ Frame.pump receiver;
        if List.memq (Frame.fd sender) readable then
          ignore (Frame.pump sender));
    Frame.tick sender
  done;
  let rs = Frame.stats receiver and ss = Frame.stats sender in
  Frame.close sender;
  Frame.close receiver;
  Alcotest.(check (list string)) "exactly once, in order" expected !got;
  Alcotest.(check bool) "chaos corrupted frames" true (rs.Frame.cs_corrupt > 0);
  Alcotest.(check bool) "sender retransmitted" true
    (ss.Frame.cs_retransmits > 0);
  Alcotest.(check bool) "receiver suppressed duplicates" true
    (rs.Frame.cs_dup_suppressed > 0)

(* ------------------------------------------------------------------ *)
(* wire protocol codec                                                *)
(* ------------------------------------------------------------------ *)

let test_msg_codec_roundtrip () =
  let msgs =
    [
      Fabric.Hello { mh_worker = "w-1"; mh_pid = 4242 };
      Fabric.Assign
        {
          ma_id = 17;
          ma_label = "table1:aerofoil 4x1x1";
          ma_spec =
            J.Obj
              [
                ("kind", J.Str "plan-sync");
                ("nested", J.List [ J.Int 1; J.Float 2.5; J.Null ]);
              ];
        };
      Fabric.Heartbeat { mb_id = 17 };
      Fabric.Result
        { mr_id = 17; mr_result = J.Obj [ ("before", J.Int 102) ] };
      Fabric.Failure { mf_id = 17; mf_error = "Division_by_zero" };
      Fabric.Shutdown;
    ]
  in
  List.iteri
    (fun i m ->
      match Fabric.msg_of_string (Fabric.msg_to_string m) with
      | Ok m' ->
          if m' <> m then Alcotest.failf "message %d changed over the wire" i
      | Error e -> Alcotest.failf "message %d unparsable: %s" i e)
    msgs;
  (match Fabric.msg_of_string "{\"type\":\"warp\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown type must not decode");
  match Fabric.msg_of_string "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

let test_addr_parsing () =
  let ok s = function
    | expected -> (
        match Fabric.addr_of_string s with
        | Ok a when a = expected -> ()
        | Ok a ->
            Alcotest.failf "%s parsed as %s" s (Fabric.addr_to_string a)
        | Error e -> Alcotest.failf "%s rejected: %s" s e)
  in
  ok "unix:/tmp/x.sock" (Fabric.Unix_path "/tmp/x.sock");
  ok "/tmp/x.sock" (Fabric.Unix_path "/tmp/x.sock");
  ok "localhost:8080" (Fabric.Tcp ("localhost", 8080));
  ok "127.0.0.1:0" (Fabric.Tcp ("127.0.0.1", 0));
  List.iter
    (fun s ->
      match Fabric.addr_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must not parse" s)
    [ ""; "unix:"; "host:99999"; ":1234" ]

(* ------------------------------------------------------------------ *)
(* master/worker end to end (workers as in-process serve threads)     *)
(* ------------------------------------------------------------------ *)

let next_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocfd_fabric_test_%d_%d.sock" (Unix.getpid ()) !n)

let job i =
  Sched.Job.make
    ~label:(Printf.sprintf "j%d" i)
    ~key:(J.Obj [ ("i", J.Int i) ])
    ~spec:(J.Obj [ ("i", J.Int i) ])
    (fun () -> J.Obj [ ("sq", J.Int (i * i)) ])

let square_spec spec =
  match J.member "i" spec with
  | Some (J.Int i) -> J.Obj [ ("sq", J.Int (i * i)) ]
  | _ -> raise (J.Parse_error "bad spec")

let serve_thread ?id addr resolve =
  Thread.create
    (fun () ->
      match
        Fabric.serve ~connect:addr ?id ~heartbeat:0.05 ~resolve ()
      with
      | Ok () -> ()
      | Error e -> Printf.eprintf "test worker: %s\n%!" e)
    ()

let expect_squares results n =
  Alcotest.(check int) "result count" n (Array.length results);
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> (
          match J.member "sq" v with
          | Some (J.Int sq) ->
              Alcotest.(check int) (Printf.sprintf "job %d" i) (i * i) sq
          | _ -> Alcotest.failf "job %d: malformed result" i)
      | Error e -> Alcotest.failf "job %d failed: %s" i e)
    results

(* [square_spec] for the workers named in [names], except that each
   worker's first job is held until every one of them has started a job:
   a worker holds one lease at a time, so no worker can finish the batch
   before the others have connected and been handed work *)
let rendezvous_square names =
  let m = Mutex.create () and started = ref [] in
  let count () = Mutex.protect m (fun () -> List.length !started) in
  fun name spec ->
    Mutex.protect m (fun () ->
        if not (List.mem name !started) then started := name :: !started);
    let deadline = Unix.gettimeofday () +. 10.0 in
    while count () < List.length names && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    square_spec spec

let test_fabric_end_to_end () =
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 5.0 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let addr = Fabric.addr fb in
  let resolve = rendezvous_square [ "alpha"; "beta" ] in
  let w1 = serve_thread ~id:"alpha" addr (resolve "alpha") in
  let w2 = serve_thread ~id:"beta" addr (resolve "beta") in
  let results, stats = Fabric.run fb (List.init 12 job) in
  expect_squares results 12;
  Alcotest.(check int) "no errors" 0 stats.Sched.Pool.ps_errors;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "not degraded" false fs.Fabric.fs_degraded;
  Alcotest.(check int) "both workers said hello" 2
    (List.length fs.Fabric.fs_workers);
  Alcotest.(check int) "every job leased remotely" 12
    (List.fold_left
       (fun acc (w : Fabric.worker_stats) -> acc + w.Fabric.ws_done)
       0 fs.Fabric.fs_workers);
  Fabric.shutdown fb;
  Thread.join w1;
  Thread.join w2

let test_fabric_tcp_end_to_end () =
  (* same contract over a real TCP socket, port picked by the kernel *)
  let fb = Fabric.create ~listen:(Fabric.Tcp ("127.0.0.1", 0)) () in
  (match Fabric.addr fb with
  | Fabric.Tcp (_, p) when p > 0 -> ()
  | a -> Alcotest.failf "expected a bound port, got %s" (Fabric.addr_to_string a));
  let w = serve_thread (Fabric.addr fb) square_spec in
  let results, _ = Fabric.run fb (List.init 6 job) in
  expect_squares results 6;
  Fabric.shutdown fb;
  Thread.join w

let test_degrades_without_workers () =
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 0.2 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let results, _ = Fabric.run fb (List.init 5 job) in
  expect_squares results 5;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "reported degradation" true fs.Fabric.fs_degraded;
  Fabric.shutdown fb

let test_speclessness_runs_on_master () =
  (* a job without a spec can never travel; the master runs it locally
     even with workers connected *)
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 5.0 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let w = serve_thread (Fabric.addr fb) square_spec in
  let local =
    Sched.Job.make ~label:"local" ~key:(J.Obj [ ("local", J.Bool true) ])
      (fun () -> J.Str "ran-on-master")
  in
  let results, _ = Fabric.run fb [ local; job 1 ] in
  (match results.(0) with
  | Ok (J.Str "ran-on-master") -> ()
  | _ -> Alcotest.fail "spec-less job did not run locally");
  (match results.(1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "remote job failed: %s" e);
  Fabric.shutdown fb;
  Thread.join w

let test_quarantine_poisoned_job () =
  (* a spec every worker fails: bounded retries, then a quarantine error
     in the job's slot — and the rest of the batch still completes *)
  let cfg =
    {
      Fabric.default_cfg with
      Fabric.fb_grace = 5.0;
      fb_max_attempts = 2;
      fb_backoff = 0.005;
    }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let resolve spec =
    match J.member "poison" spec with
    | Some (J.Bool true) -> failwith "resolver rejects this spec"
    | _ -> square_spec spec
  in
  let w = serve_thread (Fabric.addr fb) resolve in
  let poisoned =
    Sched.Job.make ~label:"poisoned"
      ~key:(J.Obj [ ("poison", J.Bool true) ])
      ~spec:(J.Obj [ ("poison", J.Bool true) ])
      (fun () -> J.Null)
  in
  let results, stats = Fabric.run fb [ job 0; poisoned; job 2 ] in
  (match results.(1) with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions quarantine: %s" msg)
        true
        (String.length msg >= 11 && String.sub msg 0 11 = "quarantined")
  | Ok _ -> Alcotest.fail "poisoned job must not succeed");
  (match (results.(0), results.(2)) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "healthy jobs must survive the poisoned one");
  Alcotest.(check int) "one error" 1 stats.Sched.Pool.ps_errors;
  let fs = Fabric.stats fb in
  Alcotest.(check int) "quarantined once" 1 fs.Fabric.fs_quarantined;
  Alcotest.(check bool) "failures were retried" true (fs.Fabric.fs_retries >= 1);
  Fabric.shutdown fb;
  Thread.join w

(* a hand-driven fake worker: says hello, takes one assignment, then
   misbehaves as directed — the master must recover via a real worker *)
let fake_worker addr ~misbehave =
  Thread.create
    (fun () ->
      let sa =
        match addr with
        | Fabric.Unix_path p -> Unix.ADDR_UNIX p
        | Fabric.Tcp (h, p) ->
            Unix.ADDR_INET (Unix.inet_addr_of_string h, p)
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd sa;
      let conn = Frame.conn fd in
      Frame.send conn
        (Fabric.msg_to_string
           (Fabric.Hello { mh_worker = "saboteur"; mh_pid = 0 }));
      let deadline = Unix.gettimeofday () +. 10.0 in
      let assigned = ref false in
      while (not !assigned) && Unix.gettimeofday () < deadline do
        match Unix.select [ fd ] [] [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
            match Frame.pump conn with
            | exception Frame.Closed -> assigned := true
            | payloads ->
                List.iter
                  (fun p ->
                    match Fabric.msg_of_string p with
                    | Ok (Fabric.Assign _) -> assigned := true
                    | _ -> ())
                  payloads)
      done;
      match misbehave with
      | `Die -> Frame.close conn
      | `Go_silent ->
          (* hold the socket open but never heartbeat or reply; the
             lease must expire.  Wait for the master's shutdown. *)
          let quit = ref false in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while (not !quit) && Unix.gettimeofday () < deadline do
            match Unix.select [ fd ] [] [] 0.05 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | [], _, _ -> ()
            | _ -> (
                match Frame.pump conn with
                | exception Frame.Closed -> quit := true
                | payloads ->
                    List.iter
                      (fun p ->
                        match Fabric.msg_of_string p with
                        | Ok Fabric.Shutdown -> quit := true
                        | _ -> ())
                      payloads)
          done;
          Frame.close conn)
    ()

let test_worker_death_requeues () =
  let cfg =
    { Fabric.default_cfg with Fabric.fb_grace = 5.0; fb_backoff = 0.005 }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let addr = Fabric.addr fb in
  (* the saboteur connects first so it gets the first lease *)
  let saboteur = fake_worker addr ~misbehave:`Die in
  Thread.delay 0.1;
  let rescuer = serve_thread ~id:"rescuer" addr square_spec in
  let results, _ = Fabric.run fb (List.init 6 job) in
  expect_squares results 6;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "death observed" true (fs.Fabric.fs_worker_deaths >= 1);
  Alcotest.(check bool) "lease requeued" true (fs.Fabric.fs_requeues >= 1);
  Fabric.shutdown fb;
  Thread.join saboteur;
  Thread.join rescuer

let test_lease_expiry_requeues () =
  let cfg =
    {
      Fabric.default_cfg with
      Fabric.fb_grace = 5.0;
      fb_lease = 0.3;
      fb_backoff = 0.005;
    }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let addr = Fabric.addr fb in
  let silent = fake_worker addr ~misbehave:`Go_silent in
  Thread.delay 0.1;
  let rescuer = serve_thread ~id:"rescuer" addr square_spec in
  let results, _ = Fabric.run fb (List.init 6 job) in
  expect_squares results 6;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "lease expired" true (fs.Fabric.fs_lease_expiries >= 1);
  Alcotest.(check bool) "expired lease requeued" true
    (fs.Fabric.fs_requeues >= 1);
  Fabric.shutdown fb;
  Thread.join silent;
  Thread.join rescuer

let test_heartbeat_keeps_slow_job_leased () =
  (* a resolver slower than the lease: heartbeats must keep the lease
     alive, so the job completes exactly once with no expiry *)
  let cfg =
    { Fabric.default_cfg with Fabric.fb_grace = 5.0; fb_lease = 0.3 }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let slow spec =
    Thread.delay 0.8;
    square_spec spec
  in
  let w = serve_thread (Fabric.addr fb) slow in
  let results, _ = Fabric.run fb [ job 3 ] in
  (match results.(0) with
  | Ok v -> (
      match J.member "sq" v with
      | Some (J.Int 9) -> ()
      | _ -> Alcotest.fail "slow job returned the wrong result")
  | Error e -> Alcotest.failf "slow job failed: %s" e);
  let fs = Fabric.stats fb in
  Alcotest.(check int) "no expiries" 0 fs.Fabric.fs_lease_expiries;
  Alcotest.(check int) "no requeues" 0 fs.Fabric.fs_requeues;
  Fabric.shutdown fb;
  Thread.join w

let test_cache_hits_skip_workers () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocfd_fabric_cache_%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let cache = Sched.Cache.create ~dir () in
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 5.0 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let w = serve_thread (Fabric.addr fb) square_spec in
  let r1, s1 = Fabric.run fb ~cache (List.init 5 job) in
  let r2, s2 = Fabric.run fb ~cache (List.init 5 job) in
  expect_squares r1 5;
  expect_squares r2 5;
  Alcotest.(check int) "cold misses" 5 s1.Sched.Pool.ps_misses;
  Alcotest.(check int) "warm hits" 5 s2.Sched.Pool.ps_hits;
  Fabric.shutdown fb;
  Thread.join w;
  Sched.Cache.clear cache;
  try Sys.rmdir dir with Sys_error _ -> ()

let suite =
  [
    ("frame codec round-trip", `Quick, test_frame_roundtrip);
    ("frame reader resyncs on garbage", `Quick, test_frame_resync_on_garbage);
    ("frame checksum rejects mangled bytes", `Quick,
     test_frame_checksum_rejects);
    ("chaos conn delivers exactly once", `Quick,
     test_conn_chaos_exactly_once);
    ("protocol messages round-trip", `Quick, test_msg_codec_roundtrip);
    ("address parsing", `Quick, test_addr_parsing);
    ("end to end over unix socket", `Quick, test_fabric_end_to_end);
    ("end to end over tcp", `Quick, test_fabric_tcp_end_to_end);
    ("degrades without workers", `Quick, test_degrades_without_workers);
    ("spec-less jobs run on the master", `Quick,
     test_speclessness_runs_on_master);
    ("poisoned job quarantined", `Quick, test_quarantine_poisoned_job);
    ("worker death requeues its lease", `Quick, test_worker_death_requeues);
    ("silent worker's lease expires", `Quick, test_lease_expiry_requeues);
    ("heartbeat keeps a slow job leased", `Quick,
     test_heartbeat_keeps_slow_job_leased);
    ("cache hits never touch a worker", `Quick, test_cache_hits_skip_workers);
  ]
