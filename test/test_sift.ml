module Robdd = Dpa_bdd.Robdd
module Sift = Dpa_bdd.Sift
module Build = Dpa_bdd.Build
module Ordering = Dpa_bdd.Ordering
module Netlist = Dpa_logic.Netlist
module Cancel = Dpa_util.Cancel
module Dpa_error = Dpa_util.Dpa_error

let check_permutation msg order n =
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) msg (Array.init n Fun.id) sorted

(* Disjoint AND-pairs placed at maximally separated levels — the textbook
   order-sensitive function: (v0∧v3) ∨ (v1∧v4) ∨ (v2∧v5) is exponential
   with the pairs split across the order and linear with them adjacent. *)
let bad_pairs_manager () =
  let m = Robdd.create ~nvars:6 in
  let v l = Robdd.var m l in
  let pair a b = Robdd.apply_and m (v a) (v b) in
  let f = Robdd.apply_or m (pair 0 3) (Robdd.apply_or m (pair 1 4) (pair 2 5)) in
  (m, f)

(* [eval] under the manager's current order: assignment is per original
   variable token; order maps level → token. *)
let eval_ordered m root order a =
  Robdd.eval m root (Array.map (fun v -> a.(v)) order)

let all_assignments n =
  List.init (1 lsl n) (fun w -> Array.init n (fun k -> (w lsr k) land 1 = 1))

let test_sift_reduces_bad_pairs () =
  let m, f = bad_pairs_manager () in
  let order = Array.init 6 Fun.id in
  let expected = List.map (fun a -> Robdd.eval m f a) (all_assignments 6) in
  let before = Robdd.size m f in
  let r = Sift.sift ~roots:[ f ] ~order m in
  Alcotest.(check int) "nodes_before is post-sweep live count" (before + 2) r.Sift.nodes_before;
  Alcotest.(check bool) "reduced" true (r.Sift.nodes_after < before);
  Alcotest.(check bool) "linear-size optimum reached" true (r.Sift.nodes_after <= 8);
  Alcotest.(check bool) "swaps counted" true (r.Sift.swaps > 0);
  check_permutation "order is a permutation" order 6;
  (* every function survives the rewiring bit-for-bit *)
  List.iter2
    (fun a exp ->
      Alcotest.(check bool) "semantics preserved" exp (eval_ordered m f order a))
    (all_assignments 6) expected;
  (* the sweep + exact swap deaths leave the store garbage-free (live
     count = reachable internals + the two terminals) *)
  Alcotest.(check int) "live = reachable" (Robdd.size m f + 2) (Robdd.live_nodes m)

(* property: arbitrary sift sequences keep the order a permutation, the
   functions intact and the probabilities equal (random circuits) *)
let prop_sift_preserves =
  Testkit.qcheck_case ~count:60 ~name:"sift preserves functions and probabilities"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let n = Netlist.num_inputs net in
      let b = Build.of_netlist ~order:(Ordering.declaration net) net in
      let m = b.Build.manager in
      let roots = Array.to_list (Build.output_roots net b) in
      let order = Array.copy b.Build.order in
      let probs = Array.init n (fun i -> float_of_int (i + 1) /. float_of_int (n + 2)) in
      let level_probs o = Array.map (fun v -> probs.(v)) o in
      let pre_truth =
        List.map (fun a -> List.map (fun r -> eval_ordered m r order a) roots) (all_assignments n)
      in
      let pre_probs = List.map (Robdd.probability m (level_probs order)) roots in
      let _ = Sift.sift ~passes:2 ~roots ~order m in
      let sorted = Array.copy order in
      Array.sort compare sorted;
      sorted = Array.init n Fun.id
      && List.for_all2
           (fun a exp -> List.for_all2 (fun r e -> eval_ordered m r order a = e) roots exp)
           (all_assignments n) pre_truth
      && List.for_all2
           (fun r p -> Testkit.approx ~eps:1e-12 p (Robdd.probability m (level_probs order) r))
           roots pre_probs)

(* A prob_cache made before sifting answers bit-identically after it:
   node ids keep their functions, so the per-id memo stays valid — only
   the level-probability vector needs permuting for {e new} nodes. *)
let test_prob_cache_survives () =
  let net = Dpa_workload.Examples.fig5 () in
  let b = Build.of_netlist net in
  let m = b.Build.manager in
  let roots = Array.to_list (Build.output_roots net b) in
  let order = Array.copy b.Build.order in
  let n = Netlist.num_inputs net in
  let probs = Array.init n (fun i -> 0.3 +. (0.4 *. float_of_int i /. float_of_int (max 1 (n - 1)))) in
  let level_probs o = Array.map (fun v -> probs.(v)) o in
  let cache = Robdd.prob_cache m (level_probs order) in
  let pre = List.map (Robdd.cached_probability cache) roots in
  let _ = Sift.sift ~roots ~order m in
  Robdd.set_cache_level_probs cache (level_probs order);
  List.iter2
    (fun r p -> Testkit.check_bits "memoized probability bit-identical" p (Robdd.cached_probability cache r))
    roots pre;
  (* the manager (and the surviving cache) stay fully usable for new work *)
  match roots with
  | r0 :: r1 :: _ ->
    let g = Robdd.apply_xor m r0 r1 in
    Testkit.check_approx ~eps:1e-12 "cache correct on post-sift nodes"
      (Robdd.probability m (level_probs order) g)
      (Robdd.cached_probability cache g)
  | _ -> ()

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load_blif path =
  match Dpa_logic.Blif.of_string (read_file path) with
  | Ok net -> net
  | Error _ -> (
    match Dpa_logic.Blif.sequential_of_string (read_file path) with
    | Ok s -> s.Dpa_logic.Blif.comb
    | Error msg -> Alcotest.failf "%s failed to parse: %s" path msg)

(* the satellite gate: probability identity before/after sift on every
   checked-in circuit and the paper's examples *)
let test_sift_identity_on_corpus () =
  let nets =
    ("fig5", Dpa_workload.Examples.fig5 ())
    :: ("fig10", Dpa_workload.Examples.fig10 ())
    :: List.map
         (fun p -> (p, load_blif ("../data/" ^ p)))
         [ "apex7_synthetic.blif"; "frg1_synthetic.blif"; "seq_controller.blif" ]
  in
  List.iter
    (fun (name, net) ->
      let n = Netlist.num_inputs net in
      let b = Build.of_netlist net in
      let m = b.Build.manager in
      let roots = Array.to_list (Build.output_roots net b) in
      let order = Array.copy b.Build.order in
      let probs = Array.init n (fun i -> float_of_int (i + 1) /. float_of_int (n + 2)) in
      let level_probs o = Array.map (fun v -> probs.(v)) o in
      let cache = Robdd.prob_cache m (level_probs order) in
      let pre = List.map (Robdd.cached_probability cache) roots in
      let r = Sift.sift ~roots ~order m in
      check_permutation (name ^ ": permutation") order n;
      Robdd.set_cache_level_probs cache (level_probs order);
      List.iter2
        (fun root p ->
          Testkit.check_bits (name ^ ": bit-identical probability") p (Robdd.cached_probability cache root))
        roots pre;
      List.iter2
        (fun root p ->
          Testkit.check_approx ~eps:1e-12 (name ^ ": fresh recompute")
            p
            (Robdd.probability m (level_probs order) root))
        roots pre;
      Alcotest.(check bool) (name ^ ": never worse") true (r.Sift.nodes_after <= r.Sift.nodes_before))
    nets

(* budget exhaustion at a swap boundary leaves every invariant intact:
   evaluation, new ite work and probabilities all still run *)
let test_budget_exhaustion_leaves_usable () =
  let m, f = bad_pairs_manager () in
  let order = Array.init 6 Fun.id in
  let expected = List.map (fun a -> Robdd.eval m f a) (all_assignments 6) in
  let raised =
    try
      ignore (Sift.sift ~max_swaps:2 ~roots:[ f ] ~order m);
      false
    with Dpa_error.Budget_exceeded r ->
      Alcotest.(check string) "context names the cap" "sift.max_swaps" r.Dpa_error.context;
      true
  in
  Alcotest.(check bool) "budget raised" true raised;
  check_permutation "order tracks the partial sift" order 6;
  List.iter2
    (fun a exp ->
      Alcotest.(check bool) "still evaluates correctly" exp (eval_ordered m f order a))
    (all_assignments 6) expected;
  let g = Robdd.apply_and m (Robdd.var m 0) (Robdd.var m 5) in
  Alcotest.(check bool) "ite still works" true (not (Robdd.is_terminal g));
  let p = Robdd.probability m (Array.make 6 0.5) f in
  Alcotest.(check bool) "probability still works" true (p > 0.0 && p < 1.0)

(* wherever the swap cap cuts a session short, the store ends no larger
   than the opening sweep left it — what keeps a post-sift retry under
   the engine's node cap. The pairs start in their optimal order, so
   every sift walk leaves it through larger stores. *)
let test_exhaustion_never_grows_store () =
  for k = 1 to 40 do
    let m = Robdd.create ~nvars:6 in
    let v l = Robdd.var m l in
    let pair a b = Robdd.apply_and m (v a) (v b) in
    let f = Robdd.apply_or m (pair 0 1) (Robdd.apply_or m (pair 2 3) (pair 4 5)) in
    let swept = Robdd.size m f + 2 in
    let order = Array.init 6 Fun.id in
    (try ignore (Sift.sift ~passes:2 ~max_swaps:k ~roots:[ f ] ~order m)
     with Dpa_error.Budget_exceeded _ -> ());
    Alcotest.(check bool)
      (Printf.sprintf "max_swaps %d: live %d <= %d" k (Robdd.live_nodes m) swept)
      true
      (Robdd.live_nodes m <= swept);
    check_permutation "order is a permutation" order 6
  done

let test_max_new_nodes_cap () =
  let m, f = bad_pairs_manager () in
  let order = Array.init 6 Fun.id in
  let raised =
    try
      ignore (Sift.sift ~max_new_nodes:1 ~roots:[ f ] ~order m);
      false
    with Dpa_error.Budget_exceeded r ->
      Alcotest.(check string) "context names the cap" "sift.max_new_nodes" r.Dpa_error.context;
      true
  in
  Alcotest.(check bool) "allocation cap raised" true raised;
  Alcotest.(check int) "store still canonical" (Robdd.size m f + 2) (Robdd.live_nodes m)

let test_cancellation_mid_sift () =
  let m, f = bad_pairs_manager () in
  let order = Array.init 6 Fun.id in
  let c = Cancel.create () in
  Cancel.cancel ~reason:"test" c;
  let raised =
    try
      ignore (Sift.sift ~cancel:c ~roots:[ f ] ~order m);
      false
    with Dpa_error.Error (Dpa_error.Cancelled (Dpa_error.Aborted _)) -> true
  in
  Alcotest.(check bool) "cancelled cleanly" true raised;
  (* cancellation is polled at swap boundaries only — the manager is consistent *)
  Alcotest.(check int) "store untouched or consistent" (Robdd.size m f + 2) (Robdd.live_nodes m)

(* debris from an aborted build is retired when the session opens, and
   the freed nodes come back to the budget *)
let test_garbage_sweep_refunds_budget () =
  let m = Robdd.create ~nvars:6 in
  let v l = Robdd.var m l in
  let keep = Robdd.apply_and m (v 0) (v 1) in
  let garbage = Robdd.apply_xor m (Robdd.apply_xor m (v 2) (v 3)) (v 4) in
  ignore garbage;
  let live0 = Robdd.live_nodes m in
  let order = Array.init 6 Fun.id in
  let r = Sift.sift ~roots:[ keep ] ~order m in
  Alcotest.(check bool) "sweep reclaimed debris" true (r.Sift.reclaimed > 0);
  Alcotest.(check bool) "live dropped" true (Robdd.live_nodes m < live0);
  Alcotest.(check int) "exactly the kept function remains" (Robdd.size m keep + 2)
    (Robdd.live_nodes m)

let test_order_validation () =
  let m, f = bad_pairs_manager () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Sift.sift: order length does not match the manager's nvars") (fun () ->
      ignore (Sift.sift ~roots:[ f ] ~order:[| 0; 1 |] m));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Sift.sift: order has duplicate entries") (fun () ->
      ignore (Sift.sift ~roots:[ f ] ~order:[| 0; 1; 2; 3; 4; 4 |] m))

let suite =
  [ Alcotest.test_case "reduces bad pairs" `Quick test_sift_reduces_bad_pairs;
    prop_sift_preserves;
    Alcotest.test_case "prob cache survives" `Quick test_prob_cache_survives;
    Alcotest.test_case "identity on corpus" `Quick test_sift_identity_on_corpus;
    Alcotest.test_case "budget exhaustion usable" `Quick test_budget_exhaustion_leaves_usable;
    Alcotest.test_case "exhaustion never grows the store" `Quick
      test_exhaustion_never_grows_store;
    Alcotest.test_case "max new nodes cap" `Quick test_max_new_nodes_cap;
    Alcotest.test_case "cancellation mid-sift" `Quick test_cancellation_mid_sift;
    Alcotest.test_case "garbage sweep refund" `Quick test_garbage_sweep_refunds_budget;
    Alcotest.test_case "order validation" `Quick test_order_validation ]
