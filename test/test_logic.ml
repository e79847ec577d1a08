module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Topo = Dpa_logic.Topo
module Cone = Dpa_logic.Cone
module Eval = Dpa_logic.Eval
module Builder = Dpa_logic.Builder
module Io = Dpa_logic.Io

(* f = (a ∨ b) ∧ ¬c, g = a ⊕ c *)
let small_net () =
  let t = Netlist.create ~name:"small" () in
  let a = Netlist.add_input ~name:"a" t in
  let b = Netlist.add_input ~name:"b" t in
  let c = Netlist.add_input ~name:"c" t in
  let ab = Netlist.add_gate ~name:"ab" t (Gate.Or [| a; b |]) in
  let nc = Netlist.add_gate ~name:"nc" t (Gate.Not c) in
  let f = Netlist.add_gate ~name:"f" t (Gate.And [| ab; nc |]) in
  let g = Netlist.add_gate ~name:"g" t (Gate.Xor (a, c)) in
  Netlist.add_output t "f" f;
  Netlist.add_output t "g" g;
  t

let test_netlist_accessors () =
  let t = small_net () in
  Alcotest.(check int) "size" 7 (Netlist.size t);
  Alcotest.(check int) "inputs" 3 (Netlist.num_inputs t);
  Alcotest.(check int) "outputs" 2 (Netlist.num_outputs t);
  Alcotest.(check int) "gate count" 4 (Netlist.gate_count t);
  Alcotest.(check (option int)) "find f" (Some 5) (Netlist.find_by_name t "f");
  Alcotest.(check bool) "input" true (Netlist.is_input t 0);
  Alcotest.(check bool) "not input" false (Netlist.is_input t 5);
  Alcotest.(check (option string)) "name" (Some "nc") (Netlist.node_name t 4)

let test_netlist_validation () =
  let t = small_net () in
  Alcotest.(check bool) "valid" true (Netlist.validate t = Ok ());
  Alcotest.check_raises "forward fanin"
    (Invalid_argument "Netlist.add_gate: fanin 99 out of range [0,7)") (fun () ->
      ignore (Netlist.add_gate t (Gate.Not 99)))

let test_netlist_output_validation () =
  let t = small_net () in
  Alcotest.check_raises "bad driver"
    (Invalid_argument "Netlist.add_output: driver 42 out of range") (fun () ->
      Netlist.add_output t "bad" 42)

let test_eval () =
  let t = small_net () in
  (* a=1 b=0 c=0: f = (1∨0)∧¬0 = 1, g = 1⊕0 = 1 *)
  Alcotest.(check (array bool)) "101 case" [| true; true |]
    (Eval.outputs t [| true; false; false |]);
  (* a=0 b=0 c=1: f = 0, g = 1 *)
  Alcotest.(check (array bool)) "001 case" [| false; true |]
    (Eval.outputs t [| false; false; true |])

let test_eval_table () =
  let t = small_net () in
  let table = Eval.output_table t in
  Alcotest.(check int) "8 rows" 8 (Array.length table);
  (* row 5 = a=1,b=0,c=1 (input 0 is LSB): f = 0, g = 0 *)
  Alcotest.(check (array bool)) "row 5" [| false; false |] table.(5)

let test_exact_probabilities () =
  let t = small_net () in
  let probs = Eval.exact_probabilities t [| 0.5; 0.5; 0.5 |] in
  (* P(f) = P(a∨b)·P(¬c) = 0.75 · 0.5 *)
  Testkit.check_approx "P(f)" 0.375 probs.(5);
  Testkit.check_approx "P(g)" 0.5 probs.(6)

let test_levels_and_fanouts () =
  let t = small_net () in
  let lv = Topo.levels t in
  Alcotest.(check int) "input level" 0 lv.(0);
  Alcotest.(check int) "or level" 1 lv.(3);
  Alcotest.(check int) "and level" 2 lv.(5);
  Alcotest.(check int) "max level" 2 (Topo.max_level t);
  let fo = Topo.fanout_counts t in
  Alcotest.(check int) "a feeds or+xor" 2 fo.(0);
  let lists = Topo.fanouts t in
  Alcotest.(check (array int)) "a fanouts" [| 3; 6 |] lists.(0)

let test_fanout_cone_sizes () =
  let t = small_net () in
  let sizes = Topo.fanout_cone_sizes t in
  (* a → {ab, f, g} *)
  Alcotest.(check int) "a cone" 3 sizes.(0);
  Alcotest.(check int) "f cone" 0 sizes.(5)

let test_cones () =
  let t = small_net () in
  let cones = Cone.of_outputs t in
  Alcotest.(check int) "two cones" 2 (Array.length cones);
  (* f's cone: a b c ab nc f *)
  Alcotest.(check (list int)) "f cone" [ 0; 1; 2; 3; 4; 5 ]
    (Dpa_util.Bitset.elements cones.(0));
  Alcotest.(check (list int)) "g cone" [ 0; 2; 6 ] (Dpa_util.Bitset.elements cones.(1));
  (* overlap = |{a,c}| / (6 + 3) *)
  Testkit.check_approx "overlap" (2.0 /. 9.0) (Cone.overlap cones.(0) cones.(1));
  Alcotest.(check (array int)) "support f" [| 0; 1; 2 |] (Cone.support t 5)

let test_gate_traversal_levels_ascend () =
  let t = small_net () in
  let order = Topo.gate_traversal t in
  let lv = Topo.levels t in
  let ok = ref true in
  for k = 0 to Array.length order - 2 do
    if lv.(order.(k)) > lv.(order.(k + 1)) then ok := false
  done;
  Alcotest.(check bool) "levels ascend" true !ok

let test_builder_sharing () =
  let b = Builder.create () in
  let x = Builder.input ~name:"x" b in
  let y = Builder.input ~name:"y" b in
  let g1 = Builder.and_ b [ x; y ] in
  let g2 = Builder.and_ b [ y; x ] in
  Alcotest.(check int) "commutative sharing" g1 g2;
  let g3 = Builder.and_ b [ x; x; y ] in
  Alcotest.(check int) "duplicate operand collapses" g1 g3

let test_builder_constants () =
  let b = Builder.create () in
  let x = Builder.input b in
  let t1 = Builder.const b true in
  Alcotest.(check int) "and with true" x (Builder.and_ b [ x; t1 ]);
  let f1 = Builder.const b false in
  Alcotest.(check int) "or with false" x (Builder.or_ b [ x; f1 ]);
  Alcotest.(check int) "and with false" f1 (Builder.and_ b [ x; f1 ]);
  let nx = Builder.not_ b x in
  Alcotest.(check int) "complement kills and" f1 (Builder.and_ b [ x; nx ]);
  Alcotest.(check int) "double negation" x (Builder.not_ b nx)

let test_builder_xor () =
  let b = Builder.create () in
  let x = Builder.input b in
  let y = Builder.input b in
  Alcotest.(check int) "x xor x = 0" (Builder.const b false) (Builder.xor_ b x x);
  Alcotest.(check int) "x xor ¬x = 1" (Builder.const b true) (Builder.xor_ b x (Builder.not_ b x));
  Alcotest.(check int) "x xor 0 = x" x (Builder.xor_ b x (Builder.const b false));
  Alcotest.(check int) "x xor 1 = ¬x" (Builder.not_ b x) (Builder.xor_ b x (Builder.const b true));
  let g1 = Builder.xor_ b x y and g2 = Builder.xor_ b y x in
  Alcotest.(check int) "xor commutative sharing" g1 g2

let test_io_roundtrip () =
  let t = small_net () in
  let text = Io.to_string t in
  let t' = Io.parse_exn text in
  Alcotest.(check int) "inputs preserved" (Netlist.num_inputs t) (Netlist.num_inputs t');
  Alcotest.(check int) "outputs preserved" (Netlist.num_outputs t) (Netlist.num_outputs t');
  let same =
    Testkit.same_function 3 (fun v -> Array.to_list (Eval.outputs t v))
      (fun v -> Array.to_list (Eval.outputs t' v))
  in
  Alcotest.(check bool) "same function" true same

let test_io_parse_errors () =
  (match Io.of_string "f = and a b\n.outputs f\n.end\n" with
  | Error msg -> Alcotest.(check bool) "unknown signal" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected parse error");
  match Io.of_string ".inputs a\n" with
  | Error msg ->
    Alcotest.(check string) "missing outputs" "missing .outputs declaration" msg
  | Ok _ -> Alcotest.fail "expected missing-outputs error"

let test_io_comments_and_names () =
  let text = ".model demo # a comment\n.inputs a b # inputs\nf = and a b\n.outputs f\n.end\n" in
  let t = Io.parse_exn text in
  Alcotest.(check string) "model name" "demo" (Netlist.name t);
  Alcotest.(check (option int)) "named gate" (Some 2) (Netlist.find_by_name t "f")

let test_dot_export () =
  let t = small_net () in
  let dot = Io.to_dot t in
  Alcotest.(check bool) "digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph")

(* property: parse(print(net)) preserves the function *)
let prop_io_roundtrip =
  Testkit.qcheck_case ~count:60 ~name:"io roundtrip preserves function"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net' = Io.parse_exn (Io.to_string net) in
      Testkit.same_function (Netlist.num_inputs net)
        (fun v -> Array.to_list (Eval.outputs net v))
        (fun v -> Array.to_list (Eval.outputs net' v)))

(* property: ids are topologically ordered (fanins smaller than gates) *)
let prop_topo_ids =
  Testkit.qcheck_case ~count:60 ~name:"ids are topological"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let ok = ref true in
      Netlist.iter_nodes
        (fun i g -> Array.iter (fun x -> if x >= i then ok := false) (Gate.fanins g))
        net;
      !ok)

(* property: every output cone contains its driver and only reachable ids *)
let prop_cones_sound =
  Testkit.qcheck_case ~count:60 ~name:"cones contain driver and are closed"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let cones = Cone.of_outputs net in
      let outs = Netlist.outputs net in
      Array.for_all2
        (fun (_, d) cone ->
          Dpa_util.Bitset.mem cone d
          && List.for_all
               (fun i ->
                 Array.for_all (fun x -> Dpa_util.Bitset.mem cone x) (Netlist.fanins net i))
               (Dpa_util.Bitset.elements cone))
        outs cones)

(* The set-up's former implementations, kept as oracles: [of_outputs]
   memoized one n-bit cone per node, [fanout_cone_sizes] kept one n-bit
   fanout set per node for the whole pass. *)
let of_outputs_oracle t =
  let n = Netlist.size t in
  let node_cones = Array.make n None in
  let rec cone_of i =
    match node_cones.(i) with
    | Some c -> c
    | None ->
      let c = Dpa_util.Bitset.create n in
      Dpa_util.Bitset.add c i;
      Array.iter (fun x -> Dpa_util.Bitset.union_into c (cone_of x)) (Netlist.fanins t i);
      node_cones.(i) <- Some c;
      c
  in
  Array.map (fun (_, root) -> Dpa_util.Bitset.copy (cone_of root)) (Netlist.outputs t)

let fanout_cone_sizes_oracle t =
  let n = Netlist.size t in
  let fo = Topo.fanouts t in
  let cones = Array.init n (fun _ -> Dpa_util.Bitset.create n) in
  for i = n - 1 downto 0 do
    Array.iter
      (fun reader ->
        Dpa_util.Bitset.add cones.(i) reader;
        Dpa_util.Bitset.union_into cones.(i) cones.(reader))
      fo.(i)
  done;
  Array.map Dpa_util.Bitset.cardinal cones

let setup_matches_oracles t =
  Array.for_all2 Dpa_util.Bitset.equal (Cone.of_outputs t) (of_outputs_oracle t)
  && Topo.fanout_cone_sizes t = fanout_cone_sizes_oracle t

let prop_setup_matches_oracles =
  Testkit.qcheck_case ~count:200 ~name:"cones and fanout sizes match the memoizing oracles"
    (Testkit.arbitrary_netlist ~n_inputs:6 ~max_gates:40 ())
    setup_matches_oracles

let test_setup_oracles_on_profiles () =
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (setup_matches_oracles (Testkit.comb_of_profile name)))
    [ "apex7"; "frg1"; "x1"; "x3"; "industry1"; "industry3"; "ctrl_smoke"; "ctrl_dense";
      "mult8"; "mult16"; "add4x8"; "parity_smoke"; "parity_mix"; "parity_wide" ]

let test_netstats () =
  let t = small_net () in
  let s = Dpa_logic.Netstats.compute t in
  Alcotest.(check int) "inputs" 3 s.Dpa_logic.Netstats.inputs;
  Alcotest.(check int) "outputs" 2 s.Dpa_logic.Netstats.outputs;
  Alcotest.(check int) "gates" 4 s.Dpa_logic.Netstats.gates;
  Alcotest.(check int) "depth" 2 s.Dpa_logic.Netstats.max_depth;
  Alcotest.(check int) "no dead gates" 0 s.Dpa_logic.Netstats.dead_gates;
  Alcotest.(check int) "no unused inputs" 0 s.Dpa_logic.Netstats.unused_inputs;
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("and2", 1); ("not", 1); ("or2", 1); ("xor", 1) ]
    (List.sort compare s.Dpa_logic.Netstats.gate_histogram);
  Alcotest.(check bool) "render" true
    (Testkit.contains_substring
       (Dpa_logic.Netstats.to_string s)
       "3 inputs (0 unused)")

let test_netstats_dead_and_unused () =
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let _unused = Netlist.add_input t in
  let live = Netlist.add_gate t (Gate.Not a) in
  let _dead = Netlist.add_gate t (Gate.And [| a; live |]) in
  Netlist.add_output t "f" live;
  let s = Dpa_logic.Netstats.compute t in
  Alcotest.(check int) "unused input" 1 s.Dpa_logic.Netstats.unused_inputs;
  Alcotest.(check int) "dead gate" 1 s.Dpa_logic.Netstats.dead_gates

let suite =
  [ Alcotest.test_case "netlist accessors" `Quick test_netlist_accessors;
    Alcotest.test_case "netstats" `Quick test_netstats;
    Alcotest.test_case "netstats dead/unused" `Quick test_netstats_dead_and_unused;
    Alcotest.test_case "netlist validation" `Quick test_netlist_validation;
    Alcotest.test_case "output validation" `Quick test_netlist_output_validation;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "truth table" `Quick test_eval_table;
    Alcotest.test_case "exact probabilities" `Quick test_exact_probabilities;
    Alcotest.test_case "levels and fanouts" `Quick test_levels_and_fanouts;
    Alcotest.test_case "fanout cone sizes" `Quick test_fanout_cone_sizes;
    Alcotest.test_case "cones and overlap" `Quick test_cones;
    prop_setup_matches_oracles;
    Alcotest.test_case "set-up oracles on profiles" `Quick test_setup_oracles_on_profiles;
    Alcotest.test_case "gate traversal ascends" `Quick test_gate_traversal_levels_ascend;
    Alcotest.test_case "builder sharing" `Quick test_builder_sharing;
    Alcotest.test_case "builder constants" `Quick test_builder_constants;
    Alcotest.test_case "builder xor" `Quick test_builder_xor;
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "io parse errors" `Quick test_io_parse_errors;
    Alcotest.test_case "io comments/names" `Quick test_io_comments_and_names;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    prop_io_roundtrip;
    prop_topo_ids;
    prop_cones_sound ]
