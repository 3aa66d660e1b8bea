(** Tests for the util library: intervals, PRNG, table rendering, FNV-1a. *)

open Autocfd_util

let test_interval_basics () =
  let i = Interval.make 3 7 in
  Alcotest.(check int) "lo" 3 (Interval.lo i);
  Alcotest.(check int) "hi" 7 (Interval.hi i);
  Alcotest.(check int) "length" 5 (Interval.length i);
  Alcotest.(check bool) "mem lo" true (Interval.mem 3 i);
  Alcotest.(check bool) "mem hi" true (Interval.mem 7 i);
  Alcotest.(check bool) "mem out" false (Interval.mem 8 i);
  Alcotest.check_raises "invalid" (Invalid_argument "Interval.make: lo=5 > hi=4")
    (fun () -> ignore (Interval.make 5 4))

let test_interval_set_ops () =
  let a = Interval.make 1 5 and b = Interval.make 4 9 and c = Interval.make 7 9 in
  Alcotest.(check bool) "intersects" true (Interval.intersects a b);
  Alcotest.(check bool) "disjoint" false (Interval.intersects a c);
  (match Interval.inter a b with
  | Some i ->
      Alcotest.(check int) "inter lo" 4 (Interval.lo i);
      Alcotest.(check int) "inter hi" 5 (Interval.hi i)
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "inter none" true (Interval.inter a c = None);
  let h = Interval.hull a c in
  Alcotest.(check int) "hull lo" 1 (Interval.lo h);
  Alcotest.(check int) "hull hi" 9 (Interval.hi h);
  Alcotest.(check bool) "contains" true
    (Interval.contains (Interval.make 0 10) a)

let test_interval_arith () =
  let a = Interval.make 2 5 and b = Interval.make (-3) 4 in
  let s = Interval.sum a b in
  Alcotest.(check int) "sum lo" (-1) (Interval.lo s);
  Alcotest.(check int) "sum hi" 9 (Interval.hi s);
  let p = Interval.affine ~mul:3 ~add:1 a in
  Alcotest.(check int) "affine lo" 7 (Interval.lo p);
  Alcotest.(check int) "affine hi" 16 (Interval.hi p);
  (* negative multiplier swaps the endpoints *)
  let n = Interval.affine ~mul:(-2) ~add:1 a in
  Alcotest.(check int) "neg affine lo" (-9) (Interval.lo n);
  Alcotest.(check int) "neg affine hi" (-3) (Interval.hi n);
  let z = Interval.affine ~mul:0 ~add:4 a in
  Alcotest.(check int) "zero mul lo" 4 (Interval.lo z);
  Alcotest.(check int) "zero mul hi" 4 (Interval.hi z)

let gen_interval =
  QCheck.Gen.(
    let* lo = int_range (-50) 50 in
    let* len = int_range 0 30 in
    return (Interval.make lo (lo + len)))

let arb_interval = QCheck.make ~print:Interval.to_string gen_interval

let prop_inter_comm =
  QCheck.Test.make ~count:300 ~name:"interval intersection is commutative"
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      Interval.inter a b = Interval.inter b a)

let prop_inter_subset =
  QCheck.Test.make ~count:300
    ~name:"intersection is contained in both operands"
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      match Interval.inter a b with
      | None -> not (Interval.intersects a b)
      | Some i -> Interval.contains a i && Interval.contains b i)

let prop_hull_superset =
  QCheck.Test.make ~count:300 ~name:"hull contains both operands"
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      let h = Interval.hull a b in
      Interval.contains h a && Interval.contains h b)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  let xs = List.init 50 (fun _ -> Prng.int parent 1000) in
  let ys = List.init 50 (fun _ -> Prng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_bounds () =
  let rng = Prng.create 123 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let w = Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "int_in range" true (w >= -5 && w <= 5);
    let f = Prng.float rng 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.create 99 in
  let a = Array.init 30 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true
    (Array.to_list sorted = List.init 30 Fun.id)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains 333" true (contains_substring s "333");
  Alcotest.check_raises "width check"
    (Invalid_argument "Table.add_row: expected 2 cells, got 3") (fun () ->
      Table.add_row t [ "x"; "y"; "z" ])

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float 3.14159);
  Alcotest.(check string) "pct" "56%" (Table.cell_pct 0.56)

(* FNV-1a 64 known answers: the reference vectors of the algorithm's
   specification; [Job.digest] names result-cache files with [hex], so a
   changed byte here orphans every cached result *)
let test_fnv_known_answers () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) (Printf.sprintf "hex %S" s) want (Fnv.hex s);
      Alcotest.(check string)
        (Printf.sprintf "Job.digest %S" s)
        want
        (Autocfd_sched.Job.digest s))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ];
  Alcotest.(check int64) "mix folds a byte" 0xaf63dc4c8601ec8cL
    (Fnv.mix Fnv.basis 0x61L)

let suite =
  [
    ("interval basics", `Quick, test_interval_basics);
    ("interval set ops", `Quick, test_interval_set_ops);
    ("interval sum/affine", `Quick, test_interval_arith);
    QCheck_alcotest.to_alcotest prop_inter_comm;
    QCheck_alcotest.to_alcotest prop_inter_subset;
    QCheck_alcotest.to_alcotest prop_hull_superset;
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng split", `Quick, test_prng_split_independent);
    ("prng bounds", `Quick, test_prng_bounds);
    ("prng shuffle", `Quick, test_prng_shuffle_permutation);
    ("table render", `Quick, test_table_render);
    ("table cells", `Quick, test_table_cells);
    ("fnv known answers", `Quick, test_fnv_known_answers);
  ]
