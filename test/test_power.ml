module Model = Dpa_power.Model
module Estimate = Dpa_power.Estimate
module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase
module Inverterless = Dpa_synth.Inverterless
module Mapped = Dpa_domino.Mapped

let test_model_fig2 () =
  (* Property 2.1: domino switching equals signal probability *)
  Testkit.check_approx "domino 0" 0.0 (Model.domino_switching 0.0);
  Testkit.check_approx "domino .3" 0.3 (Model.domino_switching 0.3);
  Testkit.check_approx "domino 1" 1.0 (Model.domino_switching 1.0);
  (* static parabola peaks at 1/2 *)
  Testkit.check_approx "static 0" 0.0 (Model.static_switching 0.0);
  Testkit.check_approx "static .5" 0.5 (Model.static_switching 0.5);
  Testkit.check_approx "static 1" 0.0 (Model.static_switching 1.0);
  Testkit.check_approx "static .9" 0.18 (Model.static_switching 0.9);
  Testkit.check_approx "inverter after domino" 0.42 (Model.inverter_after_domino 0.42)

let test_model_bounds () =
  Alcotest.check_raises "negative prob"
    (Invalid_argument "Power.Model: probability -0.1 outside [0,1]") (fun () ->
      ignore (Model.domino_switching (-0.1)))

let test_fig2_points () =
  let pts = Model.fig2_points () in
  Alcotest.(check int) "21 points" 21 (List.length pts);
  (* domino exceeds static for p > 1/2, static exceeds domino for p < 1/2 *)
  List.iter
    (fun (p, dom, sta) ->
      if p > 0.5 +. 1e-9 then Alcotest.(check bool) "domino worse above 1/2" true (dom > sta);
      if p < 0.5 -. 1e-9 && p > 1e-9 then
        Alcotest.(check bool) "static worse below 1/2" true (sta > dom))
    pts

let fig5_mapped assignment =
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  Mapped.map (Inverterless.realize net assignment)

let test_fig5_realization1 () =
  let mapped = fig5_mapped [| Phase.Negative; Phase.Positive |] in
  let r = Estimate.of_mapped ~input_probs:(Array.make 4 0.9) mapped in
  Testkit.check_approx ~eps:1e-6 "domino block" 3.6 r.Estimate.domino_switching;
  Testkit.check_approx ~eps:1e-6 "input inverters" 0.0 r.Estimate.input_inverter_power;
  Testkit.check_approx ~eps:1e-6 "output inverters" 0.8019 r.Estimate.output_inverter_power;
  Testkit.check_approx ~eps:1e-6 "total" 4.4019 r.Estimate.total

let test_fig5_realization2 () =
  let mapped = fig5_mapped [| Phase.Positive; Phase.Negative |] in
  let r = Estimate.of_mapped ~input_probs:(Array.make 4 0.9) mapped in
  Testkit.check_approx ~eps:1e-6 "domino block" 0.4 r.Estimate.domino_switching;
  Testkit.check_approx ~eps:1e-6 "input inverters" 0.72 r.Estimate.input_inverter_power;
  Testkit.check_approx ~eps:1e-6 "output inverters" 0.0019 r.Estimate.output_inverter_power;
  Testkit.check_approx ~eps:1e-6 "total" 1.1219 r.Estimate.total

let test_fig5_percentage () =
  (* "the second realization has 75% fewer transitions" *)
  let r1 = Estimate.of_mapped ~input_probs:(Array.make 4 0.9)
      (fig5_mapped [| Phase.Negative; Phase.Positive |]) in
  let r2 = Estimate.of_mapped ~input_probs:(Array.make 4 0.9)
      (fig5_mapped [| Phase.Positive; Phase.Negative |]) in
  let saving = (r1.Estimate.total -. r2.Estimate.total) /. r1.Estimate.total in
  Alcotest.(check bool) "≈75% fewer" true (saving > 0.72 && saving < 0.78)

let test_shared_variable_correctness () =
  (* f = a∧¬a-style reconvergence through both literals must use one BDD
     variable: g = a ∨ ¬a should cost probability 1 exactly *)
  let t = Netlist.create () in
  let a = Netlist.add_input ~name:"a" t in
  let na = Netlist.add_gate t (Dpa_logic.Gate.Not a) in
  let g = Netlist.add_gate t (Dpa_logic.Gate.Or [| a; na |]) in
  Netlist.add_output t "g" g;
  let mapped = Mapped.map (Inverterless.realize t [| Phase.Positive |]) in
  let probs = (Estimate.of_mapped ~input_probs:[| 0.3 |] mapped).Estimate.node_probs in
  let _, driver = (Netlist.outputs (Mapped.net mapped)).(0) in
  Testkit.check_approx "tautology has probability 1" 1.0 probs.(driver)

(* property: the BDD estimate of every block node matches brute-force
   enumeration of the block over the original inputs *)
let prop_block_probs_exact =
  Testkit.qcheck_case ~count:50 ~name:"block probabilities exact"
    QCheck2.Gen.(pair (Testkit.arbitrary_netlist ()) (Testkit.probs_gen 5))
    (fun (net, input_probs) ->
      let net = Dpa_synth.Opt.optimize net in
      let a = Phase.all_positive (Netlist.num_outputs net) in
      let mapped = Mapped.map (Inverterless.realize net a) in
      let probs = (Estimate.of_mapped ~input_probs mapped).Estimate.node_probs in
      (* brute force over original inputs *)
      let blk = Mapped.net mapped in
      let lits = Mapped.literals mapped in
      let n = Netlist.num_inputs net in
      let expect = Array.make (Netlist.size blk) 0.0 in
      for m = 0 to (1 lsl n) - 1 do
        let vec = Array.init n (fun k -> (m lsr k) land 1 = 1) in
        let w = ref 1.0 in
        Array.iteri
          (fun k b -> w := !w *. (if b then input_probs.(k) else 1.0 -. input_probs.(k)))
          vec;
        let lit_vec =
          Array.map
            (fun (pos, pol) ->
              match pol with Inverterless.Pos -> vec.(pos) | Inverterless.Neg -> not vec.(pos))
            lits
        in
        let values = Dpa_logic.Eval.all_nodes blk lit_vec in
        Array.iteri (fun i v -> if v then expect.(i) <- expect.(i) +. !w) values
      done;
      let ok = ref true in
      Array.iteri
        (fun i e -> if not (Testkit.approx ~eps:1e-9 e probs.(i)) then ok := false)
        expect;
      !ok)

(* property: power total is the sum of its reported components *)
let prop_total_is_sum =
  Testkit.qcheck_case ~count:60 ~name:"power total = components"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net = Dpa_synth.Opt.optimize net in
      let a = Phase.all_positive (Netlist.num_outputs net) in
      let mapped = Mapped.map (Inverterless.realize net a) in
      let r = Estimate.of_mapped ~input_probs:(Array.make (Netlist.num_inputs net) 0.5) mapped in
      Testkit.approx ~eps:1e-9
        (r.Estimate.domino_power +. r.Estimate.input_inverter_power
        +. r.Estimate.output_inverter_power)
        r.Estimate.total)

(* property: with unit caps and zero penalties, domino power equals total
   switching activity *)
let prop_unit_pricing =
  Testkit.qcheck_case ~count:60 ~name:"P=0,C=1 means power = switching"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net = Dpa_synth.Opt.optimize net in
      let a = Phase.all_positive (Netlist.num_outputs net) in
      let mapped = Mapped.map (Inverterless.realize net a) in
      let r = Estimate.of_mapped ~input_probs:(Array.make (Netlist.num_inputs net) 0.5) mapped in
      Testkit.approx ~eps:1e-9 r.Estimate.domino_switching r.Estimate.domino_power)

(* property: the per-cell-type breakdown partitions the total exactly *)
let prop_by_cell_type_partitions_total =
  Testkit.qcheck_case ~count:60 ~name:"cell-type breakdown sums to total"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      let net = Dpa_synth.Opt.optimize net in
      let n = Netlist.num_inputs net in
      let probs = Array.make n 0.5 in
      let a = Phase.of_int ~num_outputs:(Netlist.num_outputs net) 1 in
      let mapped = Mapped.map (Inverterless.realize net a) in
      let r = Estimate.of_mapped ~input_probs:probs mapped in
      let breakdown =
        Estimate.by_cell_type
          ~input_toggle:(fun pos -> Model.static_switching probs.(pos))
          mapped ~node_probs:r.Estimate.node_probs
      in
      let sum = List.fold_left (fun acc (_, _, p) -> acc +. p) 0.0 breakdown in
      let counted = List.fold_left (fun acc (_, c, _) -> acc + c) 0 breakdown in
      Testkit.approx ~eps:1e-9 sum r.Estimate.total && counted = Mapped.size mapped)

let test_penalty_raises_power () =
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.fig5 ()) in
  let inv = Inverterless.realize net (Phase.all_positive 2) in
  let base = Mapped.map inv in
  let taxed =
    Mapped.map ~library:(Dpa_domino.Library.with_series_penalty Dpa_domino.Library.default) inv
  in
  let probs = Array.make 4 0.5 in
  let r0 = Estimate.of_mapped ~input_probs:probs base in
  let r1 = Estimate.of_mapped ~input_probs:probs taxed in
  Alcotest.(check bool) "penalty increases priced power" true
    (r1.Estimate.domino_power > r0.Estimate.domino_power);
  Testkit.check_approx "switching unchanged" r0.Estimate.domino_switching
    r1.Estimate.domino_switching

let test_static_model_values () =
  (* f = a ∧ b at p = 0.5: P(f) = 0.25, static switching = 2·0.25·0.75 *)
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let f = Netlist.add_gate t (Dpa_logic.Gate.And [| a; b |]) in
  Netlist.add_output t "f" f;
  let r = Dpa_power.Static_model.of_netlist ~input_probs:[| 0.5; 0.5 |] t in
  Alcotest.(check int) "one gate" 1 r.Dpa_power.Static_model.gates;
  Testkit.check_approx "gate switching" 0.375 r.Dpa_power.Static_model.gate_total;
  Testkit.check_approx "per node" 0.375 r.Dpa_power.Static_model.node_switching.(f);
  Testkit.check_approx "inputs zero" 0.0 r.Dpa_power.Static_model.node_switching.(a)

let test_domino_static_ratio () =
  (* the intro claim: domino costs a multiple of static; on mid-probability
     control logic the ratio lands in the 1–4x band *)
  let p =
    { Dpa_workload.Generator.default with
      Dpa_workload.Generator.seed = 5;
      n_inputs = 20;
      n_outputs = 5;
      gates_per_output = 8 }
  in
  let net = Dpa_workload.Generator.combinational p in
  let probs = Array.make 20 0.5 in
  let ratio = Dpa_power.Static_model.domino_to_static_ratio ~input_probs:probs net in
  Alcotest.(check bool) "domino costs more" true (ratio > 1.0);
  Alcotest.(check bool) "within sane band" true (ratio < 10.0)

(* ---- slot table: bit for bit against each candidate's own build ---- *)

(* The table's documented variable order: the all-positive block's, then
   every PI that block does not reference, ascending. *)
let table_order ~library ~input_probs net =
  let seed =
    Mapped.map ~library (Inverterless.realize net (Phase.all_positive (Netlist.num_outputs net)))
  in
  let head = Estimate.block_order ~input_probs seed in
  let rest =
    List.filter
      (fun opos -> not (Array.mem opos head))
      (List.init (Array.length input_probs) Fun.id)
  in
  Array.append head (Array.of_list rest)

(* The candidate's block built whole under [order] in a fresh manager,
   then priced as [of_mapped] prices. *)
let build_under ~order ~input_probs mapped =
  let pb = Estimate.start_build ~order mapped in
  Estimate.build_nodes pb ~within:(fun _ -> true);
  Estimate.price mapped
    ~node_probs:(Estimate.partial_probabilities pb ~input_probs)
    ~input_toggle:(fun opos -> Dpa_power.Model.static_switching input_probs.(opos))

(* A seeded per-PI vector away from the dyadic rationals, where float
   sums reassociate visibly. *)
let nondyadic_probs seed n =
  let rng = Dpa_util.Rng.create seed in
  Array.init n (fun _ -> 0.05 +. Dpa_util.Rng.float rng 0.9)

let libraries =
  [ ("default", Dpa_domino.Library.default);
    ("series penalty", Dpa_domino.Library.with_series_penalty Dpa_domino.Library.default) ]

(* The table's price of each assignment against the oracle: realize and
   map the candidate, and build its block under the table's order.
   Returns the mismatches. *)
let table_mismatches ~library ~input_probs net assignments =
  let table = Estimate.table ~input_probs library net in
  let order = table_order ~library ~input_probs net in
  let bits = Int64.bits_of_float in
  List.filter_map
    (fun a ->
      let mapped = Mapped.map ~library (Inverterless.realize net a) in
      let r = build_under ~order ~input_probs mapped in
      let p = Estimate.of_table table a in
      if
        bits p.Estimate.power = bits r.Estimate.total
        && bits p.Estimate.switching = bits r.Estimate.domino_switching
        && p.Estimate.size = Mapped.size mapped
      then None
      else
        Some
          (Printf.sprintf "%s: table %h / %h / %d, build %h / %h / %d" (Phase.to_string a)
             p.Estimate.power p.Estimate.switching p.Estimate.size r.Estimate.total
             r.Estimate.domino_switching (Mapped.size mapped)))
    assignments

let each_case net ~seed f =
  let n = Netlist.num_inputs net in
  List.concat_map
    (fun (lib_name, library) ->
      List.concat_map
        (fun (probs_name, input_probs) ->
          List.map (fun m -> Printf.sprintf "%s, %s: %s" lib_name probs_name m)
            (f ~library ~input_probs))
        [ ("p=0.5", Array.make n 0.5); ("seeded", nondyadic_probs seed n) ])
    libraries

let prop_table_matches_build =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~print:Testkit.print_wide_case
       ~name:"slot table = per-candidate build" Testkit.gen_wide_netlist
       (fun (net, seed) ->
         let every = List.of_seq (Phase.enumerate ~num_outputs:(Netlist.num_outputs net)) in
         match
           each_case net ~seed (fun ~library ~input_probs ->
               table_mismatches ~library ~input_probs net every)
         with
         | [] -> true
         | m :: _ -> QCheck2.Test.fail_report m))

let test_table_matches_build_on_circuits () =
  let circuits =
    List.map (fun path -> (path, Testkit.load_blif path)) Testkit.data_files
    @ List.map
        (fun name -> (name, Testkit.comb_of_profile name))
        [ "apex7"; "industry3"; "ctrl_smoke"; "parity_smoke"; "add4x8"; "mult8" ]
  in
  List.iteri
    (fun k (name, raw) ->
      let net = Dpa_synth.Opt.optimize raw in
      let n_out = Netlist.num_outputs net in
      let rng = Dpa_util.Rng.create (7919 * (k + 1)) in
      let assignments =
        Phase.all_positive n_out
        :: Array.make n_out Phase.Negative
        :: List.init 4 (fun _ -> Phase.random rng ~num_outputs:n_out)
      in
      Alcotest.(check (list string))
        name []
        (each_case net ~seed:k (fun ~library ~input_probs ->
             table_mismatches ~library ~input_probs net assignments)))
    circuits

(* The token an unbudgeted phase search passes reaches the table's
   manager: one fired before the build stops it with [Cancelled]. *)
let test_table_cancelled () =
  let net = Dpa_synth.Opt.optimize (Testkit.load_blif "../data/apex7_synthetic.blif") in
  let input_probs = Array.make (Netlist.num_inputs net) 0.5 in
  let cancel = Dpa_util.Cancel.create () in
  Dpa_util.Cancel.cancel cancel;
  match Estimate.table ~cancel ~input_probs Dpa_domino.Library.default net with
  | _ -> Alcotest.fail "a fired token let the table build"
  | exception Dpa_util.Dpa_error.Error (Dpa_util.Dpa_error.Cancelled _) -> ()

let suite =
  [ Alcotest.test_case "fig2 model" `Quick test_model_fig2;
    Alcotest.test_case "static model values" `Quick test_static_model_values;
    Alcotest.test_case "domino/static ratio" `Quick test_domino_static_ratio;
    Alcotest.test_case "model bounds" `Quick test_model_bounds;
    Alcotest.test_case "fig2 points" `Quick test_fig2_points;
    Alcotest.test_case "fig5 realization 1" `Quick test_fig5_realization1;
    Alcotest.test_case "fig5 realization 2" `Quick test_fig5_realization2;
    Alcotest.test_case "fig5 75% saving" `Quick test_fig5_percentage;
    Alcotest.test_case "shared literal variable" `Quick test_shared_variable_correctness;
    Alcotest.test_case "penalty pricing" `Quick test_penalty_raises_power;
    prop_by_cell_type_partitions_total;
    prop_block_probs_exact;
    prop_total_is_sum;
    prop_unit_pricing;
    prop_table_matches_build;
    Alcotest.test_case "slot table = build on data and profiles" `Quick
      test_table_matches_build_on_circuits;
    Alcotest.test_case "slot table honours a fired token" `Quick test_table_cancelled ]
