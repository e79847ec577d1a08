module Rng = Dpa_util.Rng
module Bitset = Dpa_util.Bitset
module Vec = Dpa_util.Vec
module Stats = Dpa_util.Stats
module Table = Dpa_util.Table

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_bernoulli_bias () =
  let rng = Rng.create 9 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bernoulli rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_bitset_basic () =
  let s = Bitset.create 200 in
  Alcotest.(check int) "empty" 0 (Bitset.cardinal s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "elements" [ 0; 64; 199 ] (Bitset.elements s)

let test_bitset_add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 3;
  Alcotest.(check int) "idempotent" 1 (Bitset.cardinal s)

let test_bitset_union_inter () =
  let a = Bitset.create 130 and b = Bitset.create 130 in
  List.iter (Bitset.add a) [ 1; 5; 100; 129 ];
  List.iter (Bitset.add b) [ 5; 100; 7 ];
  Alcotest.(check int) "inter" 2 (Bitset.inter_cardinal a b);
  Bitset.union_into a b;
  Alcotest.(check (list int)) "union" [ 1; 5; 7; 100; 129 ] (Bitset.elements a)

let test_bitset_universe_mismatch () =
  let a = Bitset.create 4 and b = Bitset.create 5 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: universe mismatch") (fun () ->
      Bitset.union_into a b)

let test_bitset_bounds () =
  let s = Bitset.create 4 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: 4 outside universe [0,4)") (fun () ->
      Bitset.add s 4)

(* [cardinal], [inter_cardinal] and [iter] against a bool-array model,
   over universes that straddle the 32-bit halves and 64-bit words the
   counts work in, with removals so cleared bits are exercised too *)
let prop_bitset_model =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 200 in
      let ops = list_size (int_bound 300) (pair bool (int_bound (n - 1))) in
      let* a = ops in
      let* b = ops in
      return (n, a, b))
  in
  Testkit.qcheck_case ~count:300 ~name:"bitset matches bool-array model" gen
    (fun (n, ops_a, ops_b) ->
      let build ops =
        let s = Bitset.create n and m = Array.make n false in
        List.iter
          (fun (add, i) ->
            if add then Bitset.add s i else Bitset.remove s i;
            m.(i) <- add)
          ops;
        (s, m)
      in
      let a, ma = build ops_a and b, mb = build ops_b in
      let count m = Array.fold_left (fun c x -> if x then c + 1 else c) 0 m in
      let visited s =
        let acc = ref [] in
        Bitset.iter (fun i -> acc := i :: !acc) s;
        List.rev !acc
      in
      let members m = List.filter (fun i -> m.(i)) (List.init n Fun.id) in
      Bitset.cardinal a = count ma
      && Bitset.cardinal b = count mb
      && Bitset.inter_cardinal a b = count (Array.map2 ( && ) ma mb)
      && visited a = members ma
      && visited b = members mb)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 () in
  for k = 0 to 99 do
    Alcotest.(check int) "index" k (Vec.push v (k * k))
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 7)

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 () in
  ignore (Vec.push v 1);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index 1 out of bounds [0,1)") (fun () ->
      ignore (Vec.get v 1))

let test_vec_fold_iter () =
  let v = Vec.of_array ~dummy:0 [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold" 10 (Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 4 (List.length !seen);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_stats () =
  Testkit.check_approx "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Testkit.check_approx "mean empty" 0.0 (Stats.mean []);
  Testkit.check_approx "stddev" (sqrt (2.0 /. 3.0)) (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Testkit.check_approx "pct" 25.0 (Stats.percent_change ~from:4.0 ~to_:3.0);
  Testkit.check_approx "pct zero" 0.0 (Stats.percent_change ~from:0.0 ~to_:3.0);
  Testkit.check_approx "clamp" 1.0 (Stats.clamp ~lo:0.0 ~hi:1.0 3.0)

let test_table_render () =
  let t = Table.create ~columns:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "long-cell"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  Alcotest.(check bool) "contains cell" true (Testkit.contains_substring s "long-cell")

let test_table_wrong_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

module Int_table = Dpa_util.Int_table
module Int3_table = Dpa_util.Int3_table

let test_int_table_basic () =
  let t = Int_table.create ~capacity:4 () in
  Alcotest.(check int) "empty" 0 (Int_table.length t);
  Alcotest.(check int) "miss" Int_table.not_found (Int_table.find t 42);
  Int_table.replace t 42 7;
  Int_table.replace t 0 0;
  Alcotest.(check int) "hit" 7 (Int_table.find t 42);
  Alcotest.(check int) "zero key" 0 (Int_table.find t 0);
  Alcotest.(check bool) "mem" true (Int_table.mem t 42);
  Alcotest.(check bool) "not mem" false (Int_table.mem t 41);
  Int_table.replace t 42 8;
  Alcotest.(check int) "overwrite" 8 (Int_table.find t 42);
  Alcotest.(check int) "length" 2 (Int_table.length t);
  Int_table.clear t;
  Alcotest.(check int) "cleared" 0 (Int_table.length t);
  Alcotest.(check int) "cleared miss" Int_table.not_found (Int_table.find t 42)

let test_int_table_growth () =
  let t = Int_table.create ~capacity:4 () in
  for k = 0 to 9999 do
    Int_table.replace t (k * 17) (k + 1)
  done;
  Alcotest.(check int) "length" 10_000 (Int_table.length t);
  Alcotest.(check bool) "resized" true (Int_table.resizes t > 0);
  for k = 0 to 9999 do
    if Int_table.find t (k * 17) <> k + 1 then Alcotest.failf "lost key %d" (k * 17)
  done

let test_int_table_find_or_insert () =
  let t = Int_table.create () in
  let calls = ref 0 in
  let default () = incr calls; 99 in
  Alcotest.(check int) "inserted" 99 (Int_table.find_or_insert t 5 ~default);
  Alcotest.(check int) "found" 99 (Int_table.find_or_insert t 5 ~default);
  Alcotest.(check int) "default called once" 1 !calls;
  Alcotest.(check int) "size" 1 (Int_table.length t)

let test_int_table_negative_key () =
  let t = Int_table.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Int_table: keys must be non-negative")
    (fun () -> Int_table.replace t (-1) 0)

let test_int_table_vs_hashtbl =
  Testkit.qcheck_case ~count:200 ~name:"Int_table agrees with Hashtbl"
    QCheck2.Gen.(list (pair (int_bound 100) (int_bound 1000)))
    (fun ops ->
      let t = Int_table.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          Int_table.replace t k v;
          Hashtbl.replace h k v)
        ops;
      Hashtbl.iter
        (fun k v ->
          if Int_table.find t k <> v then QCheck2.Test.fail_reportf "key %d: %d" k v)
        h;
      Int_table.length t = Hashtbl.length h
      && Int_table.fold (fun k v acc -> acc && Hashtbl.find h k = v) t true)

let test_int3_table_basic () =
  let t = Int3_table.create ~capacity:4 () in
  Alcotest.(check int) "miss" Int3_table.not_found (Int3_table.find t 1 2 3);
  Int3_table.replace t 1 2 3 10;
  Int3_table.replace t 1 3 2 20;
  Int3_table.replace t 0 0 0 30;
  Alcotest.(check int) "hit" 10 (Int3_table.find t 1 2 3);
  Alcotest.(check int) "component order matters" 20 (Int3_table.find t 1 3 2);
  Alcotest.(check int) "zero triple" 30 (Int3_table.find t 0 0 0);
  Alcotest.(check int) "length" 3 (Int3_table.length t);
  Int3_table.replace t 1 2 3 11;
  Alcotest.(check int) "overwrite" 11 (Int3_table.find t 1 2 3);
  Alcotest.(check int) "length unchanged" 3 (Int3_table.length t);
  Int3_table.clear t;
  Alcotest.(check int) "cleared" Int3_table.not_found (Int3_table.find t 1 2 3)

let test_int3_table_growth () =
  let t = Int3_table.create ~capacity:4 () in
  for k = 0 to 4999 do
    Int3_table.replace t k (k * 3) (k * 7 - 2 * k) (k + 1)
  done;
  Alcotest.(check bool) "resized" true (Int3_table.resizes t > 0);
  for k = 0 to 4999 do
    if Int3_table.find t k (k * 3) (k * 7 - 2 * k) <> k + 1 then
      Alcotest.failf "lost triple %d" k
  done

let test_int3_table_find_or_reserve () =
  let t = Int3_table.create () in
  let r = Int3_table.find_or_reserve t 9 8 7 in
  Alcotest.(check bool) "miss is a negative reservation" true (r < Int3_table.not_found);
  Int3_table.insert_reserved t r 9 8 7 5;
  Alcotest.(check int) "found" 5 (Int3_table.find_or_reserve t 9 8 7);
  Alcotest.(check int) "find agrees" 5 (Int3_table.find t 9 8 7);
  Alcotest.(check int) "one entry" 1 (Int3_table.length t);
  Alcotest.(check bool) "stats count probes" true (Int3_table.probes t >= 2);
  Alcotest.(check bool) "stats count hits" true (Int3_table.hits t >= 1);
  (* a reservation over a tombstone reuses that slot *)
  Int3_table.remove t 9 8 7;
  let r = Int3_table.find_or_reserve t 9 8 7 in
  Int3_table.insert_reserved t r 9 8 7 6;
  Alcotest.(check int) "reinserted" 6 (Int3_table.find t 9 8 7);
  Alcotest.(check int) "length restored" 1 (Int3_table.length t)

let test_int3_table_remove () =
  let t = Int3_table.create ~capacity:4 () in
  Int3_table.replace t 1 2 3 10;
  Int3_table.replace t 4 5 6 20;
  Int3_table.remove t 1 2 3;
  Alcotest.(check int) "removed" Int3_table.not_found (Int3_table.find t 1 2 3);
  Alcotest.(check int) "others untouched" 20 (Int3_table.find t 4 5 6);
  Alcotest.(check int) "length drops" 1 (Int3_table.length t);
  Int3_table.remove t 1 2 3;
  Alcotest.(check int) "double remove is a no-op" 1 (Int3_table.length t);
  Int3_table.remove t 7 7 7;
  Alcotest.(check int) "absent remove is a no-op" 1 (Int3_table.length t);
  (* a tombstoned slot is reused by a later insert on the same chain *)
  Int3_table.replace t 1 2 3 11;
  Alcotest.(check int) "reinserted over tombstone" 11 (Int3_table.find t 1 2 3);
  Alcotest.(check int) "length restored" 2 (Int3_table.length t)

(* delete-heavy churn (the sifting reorderer's access pattern): tombstone
   pressure must trigger purging rehashes — without them the table would
   fill with dead slots and probe chains would never terminate — and the
   table must stay exact throughout *)
let test_int3_table_tombstone_churn () =
  let t = Int3_table.create ~capacity:16 () in
  for round = 0 to 199 do
    for k = 0 to 19 do
      Int3_table.replace t ((round * 20) + k) k round k
    done;
    for k = 0 to 19 do
      Int3_table.remove t ((round * 20) + k) k round
    done;
    Alcotest.(check int) "round leaves table empty" 0 (Int3_table.length t)
  done;
  Alcotest.(check bool) "tombstone pressure purged" true (Int3_table.resizes t > 0);
  Alcotest.(check int) "old keys gone" Int3_table.not_found (Int3_table.find t 20 0 1);
  Int3_table.replace t 1 2 3 42;
  Alcotest.(check int) "table still serviceable" 42 (Int3_table.find t 1 2 3)

(* property: replace/remove/find agree with Hashtbl on random triple
   operation sequences *)
let prop_int3_table_model =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 400) (tup4 (int_bound 3) (int_bound 8) (int_bound 8) (int_bound 8)))
  in
  Testkit.qcheck_case ~count:120 ~name:"int3 table matches model with removes" gen (fun ops ->
      let t = Int3_table.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (op, a, b, c) ->
          match op with
          | 0 ->
            Int3_table.replace t a b c ((a * 100) + (b * 10) + c);
            Hashtbl.replace h (a, b, c) ((a * 100) + (b * 10) + c)
          | 1 ->
            Int3_table.remove t a b c;
            Hashtbl.remove h (a, b, c)
          | 2 ->
            (* lookup-or-intern: a miss binds the key in the reserved slot *)
            let r = Int3_table.find_or_reserve t a b c in
            (match Hashtbl.find_opt h (a, b, c) with
            | Some v when r <> v -> QCheck2.Test.fail_reportf "reserve hit (%d,%d,%d): %d <> %d" a b c r v
            | Some _ -> ()
            | None ->
              if r >= 0 then QCheck2.Test.fail_reportf "reserve (%d,%d,%d): phantom %d" a b c r;
              Int3_table.insert_reserved t r a b c (a + b + c);
              Hashtbl.replace h (a, b, c) (a + b + c))
          | _ ->
            let expect = match Hashtbl.find_opt h (a, b, c) with Some v -> v | None -> -1 in
            if Int3_table.find t a b c <> expect then
              QCheck2.Test.fail_reportf "find (%d,%d,%d): got %d, want %d" a b c
                (Int3_table.find t a b c) expect)
        ops;
      Int3_table.length t = Hashtbl.length h)

(* property: long insert/remove churn — many in-place tombstone purges,
   with probe chains wrapping past the end of small tables — loses no
   entry and resurrects none *)
let prop_int3_table_churn =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 3000) (tup4 (int_bound 9) (int_bound 1) (int_bound 15) (int_bound 3)))
  in
  Testkit.qcheck_case ~count:60 ~name:"int3 table survives churn" gen (fun ops ->
      let t = Int3_table.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (op, a, b, c) ->
          if op < 5 then begin
            Int3_table.replace t a b c (op + (a * 7) + b + c);
            Hashtbl.replace h (a, b, c) (op + (a * 7) + b + c)
          end
          else begin
            Int3_table.remove t a b c;
            Hashtbl.remove h (a, b, c)
          end)
        ops;
      for a = 0 to 1 do
        for b = 0 to 15 do
          for c = 0 to 3 do
            let expect = Option.value ~default:Int3_table.not_found (Hashtbl.find_opt h (a, b, c)) in
            if Int3_table.find t a b c <> expect then
              QCheck2.Test.fail_reportf "(%d,%d,%d): got %d, want %d" a b c
                (Int3_table.find t a b c) expect
          done
        done
      done;
      Int3_table.length t = Hashtbl.length h)

(* ---- cancellation tokens ---- *)

module Cancel = Dpa_util.Cancel
module Fault = Dpa_util.Fault
module Dpa_error = Dpa_util.Dpa_error

let test_cancel_flag () =
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh token live" false (Cancel.is_cancelled t);
  Cancel.check t;
  (* no raise *)
  Cancel.cancel ~reason:"stop" t;
  Alcotest.(check bool) "flag set" true (Cancel.flag_set t);
  (match Cancel.check t with
  | () -> Alcotest.fail "check did not raise after cancel"
  | exception Dpa_error.Error (Dpa_error.Cancelled (Dpa_error.Aborted r)) ->
    Alcotest.(check string) "reason" "stop" r
  | exception e -> raise e);
  (* idempotent: the first reason wins *)
  Cancel.cancel ~reason:"again" t;
  match Cancel.error_of t with
  | Some (Dpa_error.Cancelled (Dpa_error.Aborted r)) ->
    Alcotest.(check string) "first reason wins" "stop" r
  | _ -> Alcotest.fail "error_of lost the abort reason"

let test_cancel_deadline () =
  let t = Cancel.create ~deadline_in:0.02 () in
  Alcotest.(check bool) "has deadline" true (Cancel.has_deadline t);
  Cancel.check t;
  (* deadline passes without anyone calling [cancel] *)
  Unix.sleepf 0.03;
  Alcotest.(check bool) "flag never set" false (Cancel.flag_set t);
  match Cancel.check t with
  | () -> Alcotest.fail "expired deadline did not fire"
  | exception Dpa_error.Error (Dpa_error.Cancelled (Dpa_error.Deadline { limit_s; _ })) ->
    Alcotest.(check bool) "limit recorded" true (limit_s > 0.0)
  | exception e -> raise e

let test_cancel_none_inert () =
  Alcotest.(check bool) "is_none" true (Cancel.is_none Cancel.none);
  Cancel.cancel Cancel.none;
  Cancel.check Cancel.none;
  Alcotest.(check bool) "cancel on none ignored" false (Cancel.is_cancelled Cancel.none)

let test_cancel_cross_domain () =
  (* the watchdog pattern: one domain polls, another fires the flag *)
  let t = Cancel.create () in
  let poller =
    Domain.spawn (fun () ->
        let spins = ref 0 in
        while (not (Cancel.flag_set t)) && !spins < 10_000_000 do
          incr spins
        done;
        Cancel.flag_set t)
  in
  Unix.sleepf 0.01;
  Cancel.cancel ~reason:"watchdog" t;
  Alcotest.(check bool) "poller saw the flag" true (Domain.join poller)

(* ---- fault injection ---- *)

let test_fault_inactive_by_default () =
  Fault.clear ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  Alcotest.(check bool) "never fires" false (Fault.fire Fault.Slow_cone)

let test_fault_configure_fire_count () =
  Fault.configure ~seed:7 [ (Fault.Worker_panic, 1.0, None) ];
  Fun.protect ~finally:Fault.clear @@ fun () ->
  Alcotest.(check bool) "active" true (Fault.active ());
  Alcotest.(check bool) "rate 1 fires" true (Fault.fire Fault.Worker_panic);
  Alcotest.(check bool) "unarmed point quiet" false (Fault.fire Fault.Slow_cone);
  Alcotest.(check int)
    "count recorded" 1
    (List.assoc Fault.Worker_panic (Fault.injection_counts ()))

let test_fault_deterministic_stream () =
  let draw () =
    Fault.configure ~seed:42 [ (Fault.Drop_conn, 0.5, None) ];
    Fun.protect ~finally:Fault.clear @@ fun () ->
    List.init 64 (fun _ -> Fault.fire Fault.Drop_conn)
  in
  Alcotest.(check (list bool)) "same seed, same decisions" (draw ()) (draw ())

let test_fault_parse_config () =
  (match Fault.parse_config "slow_cone:0.5:0.1,drop_conn:0.25" with
  | Ok [ (Fault.Slow_cone, r1, Some p1); (Fault.Drop_conn, r2, None) ] ->
    Alcotest.(check (float 0.0)) "rate 1" 0.5 r1;
    Alcotest.(check (float 0.0)) "param 1" 0.1 p1;
    Alcotest.(check (float 0.0)) "rate 2" 0.25 r2
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun spec ->
      match Fault.parse_config spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "unknown point accepted: %s" spec)
    [ "bogus:0.1"; "garbage_frame:1.0" ];
  match Fault.parse_config "slow_cone:nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad rate accepted"

let suite =
  [ Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng distinct seeds" `Quick test_rng_distinct_seeds;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng bernoulli bias" `Quick test_rng_bernoulli_bias;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset idempotent add" `Quick test_bitset_add_idempotent;
    Alcotest.test_case "bitset union/inter" `Quick test_bitset_union_inter;
    Alcotest.test_case "bitset universe mismatch" `Quick test_bitset_universe_mismatch;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    prop_bitset_model;
    Alcotest.test_case "vec push/get/set" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec fold/iter/clear" `Quick test_vec_fold_iter;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_wrong_arity;
    Alcotest.test_case "int_table basic" `Quick test_int_table_basic;
    Alcotest.test_case "int_table growth" `Quick test_int_table_growth;
    Alcotest.test_case "int_table find_or_insert" `Quick test_int_table_find_or_insert;
    Alcotest.test_case "int_table negative key" `Quick test_int_table_negative_key;
    test_int_table_vs_hashtbl;
    Alcotest.test_case "int3_table basic" `Quick test_int3_table_basic;
    Alcotest.test_case "int3_table growth" `Quick test_int3_table_growth;
    Alcotest.test_case "int3_table find_or_reserve" `Quick test_int3_table_find_or_reserve;
    Alcotest.test_case "int3_table remove" `Quick test_int3_table_remove;
    Alcotest.test_case "int3_table tombstone churn" `Quick test_int3_table_tombstone_churn;
    prop_int3_table_model;
    prop_int3_table_churn;
    Alcotest.test_case "cancel: flag + first reason wins" `Quick test_cancel_flag;
    Alcotest.test_case "cancel: deadline fires" `Quick test_cancel_deadline;
    Alcotest.test_case "cancel: none is inert" `Quick test_cancel_none_inert;
    Alcotest.test_case "cancel: cross-domain visibility" `Quick test_cancel_cross_domain;
    Alcotest.test_case "fault: inactive by default" `Quick test_fault_inactive_by_default;
    Alcotest.test_case "fault: configure/fire/count" `Quick test_fault_configure_fire_count;
    Alcotest.test_case "fault: deterministic stream" `Quick test_fault_deterministic_stream;
    Alcotest.test_case "fault: parse_config" `Quick test_fault_parse_config ]
