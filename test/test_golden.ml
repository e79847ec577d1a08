(* Exact flow answers pinned across commits, at non-dyadic input
   probabilities. At p = 0.5 every probability is a dyadic rational and
   most float sums are exact, so a refactor that reorders a sum can pass
   every p = 0.5 gate and still move the last ulp elsewhere; these cases
   price at p = 0.7 and at a seeded per-PI vector (sequential designs
   take one uniform probability, so they run at 0.7 and 0.3) and compare
   the power bits, not a rounded figure. *)

module Flow = Dpa_core.Flow
module Netlist = Dpa_logic.Netlist

let side (r : Flow.realization) =
  Printf.sprintf "%s size=%d meas=%d %s %Lx"
    (Dpa_synth.Phase.to_string r.Flow.assignment)
    r.Flow.size r.Flow.measurements
    (Dpa_power.Engine.degradation_label r.Flow.degradation)
    (Int64.bits_of_float r.Flow.power)

let line (r : Flow.result) = Printf.sprintf "MA %s\n| MP %s" (side r.Flow.ma) (side r.Flow.mp)

let seeded_probs n =
  let rng = Dpa_util.Rng.create 29 in
  Array.init n (fun _ -> 0.05 +. Dpa_util.Rng.float rng 0.9)

let comb ?(config = Flow.default_config) raw probs =
  let n = Netlist.num_inputs raw in
  let input_probs =
    match probs with
    | `Uniform p -> Array.make n p
    | `Seeded -> seeded_probs n
  in
  line (Flow.compare_ma_mp_probs ~config ~input_probs raw)

let sequential path p =
  let text = Testkit.read_file path in
  match Dpa_logic.Blif.sequential_of_string text with
  | Error msg -> Alcotest.failf "%s: %s" path msg
  | Ok parsed ->
    let sn = Dpa_seq.Seq_netlist.of_blif parsed in
    let config = { Flow.default_config with Flow.input_prob = p } in
    line (Dpa_core.Seq_flow.compare_ma_mp ~config sn).Dpa_core.Seq_flow.comb

let compound =
  { Flow.default_config with Flow.library = Dpa_domino.Library.(with_compound default) }

let capped n =
  { Flow.default_config with Flow.budget = Some (Dpa_power.Engine.bounded ~max_bdd_nodes:n ()) }

let apex7 () = Testkit.load_blif "../data/apex7_synthetic.blif"

let frg1 () = Testkit.load_blif "../data/frg1_synthetic.blif"

let x1 () = Testkit.comb_of_profile "x1"

(* name, the run, and its answer as the code before the exact-builder
   consolidation gave it (degradation label, then the power's bits) *)
let cases =
  [
    ( "apex7 p=0.7",
      (fun () -> comb (apex7 ()) (`Uniform 0.7)),
      "MA +++++++++++++-++++++++++++++++++++++ size=403 meas=0 exact 406ba71da7b0460a\n\
       | MP ------++++-+-+--------+-+-----+-+-+- size=436 meas=158 exact 4063fe7ade44c498" );
    ( "apex7 seeded",
      (fun () -> comb (apex7 ()) `Seeded),
      "MA +++++++++++++-++++++++++++++++++++++ size=403 meas=0 exact 406ad334c1f20f5f\n\
       | MP --+--+++++-+-+--------++++----+++-+- size=426 meas=109 exact 406354824d94cc51" );
    ( "apex7 compound p=0.7",
      (fun () -> comb ~config:compound (apex7 ()) (`Uniform 0.7)),
      "MA +++++++++++++-++++++++++++++++++++++ size=371 meas=0 exact 406acadf0219908e\n\
       | MP ------++++-+-+-------++-------+-+-+- size=405 meas=138 exact 406363e07f3515a6" );
    ( "apex7 compound seeded",
      (fun () -> comb ~config:compound (apex7 ()) `Seeded),
      "MA +++++++++++++-++++++++++++++++++++++ size=371 meas=0 exact 406a21360104946a\n\
       | MP --+--+++++-+-+-------+++++----+++-+- size=392 meas=125 exact 4062c4a6199937f7" );
    ( "frg1 p=0.7",
      (fun () -> comb (frg1 ()) (`Uniform 0.7)),
      "MA +++ size=98 meas=0 exact 405446dc7660fe71\n\
       | MP --- size=115 meas=8 exact 40374aa7cec3b877" );
    ( "frg1 seeded",
      (fun () -> comb (frg1 ()) `Seeded),
      "MA +++ size=98 meas=0 exact 405212702a324b6f\n\
       | MP --- size=115 meas=8 exact 40401598f3a1dfe6" );
    ( "frg1 cap 200 p=0.7",
      (fun () -> comb ~config:(capped 200) (frg1 ()) (`Uniform 0.7)),
      "MA +++ size=98 meas=0 exact 405446dc7660fe71\n\
       | MP --- size=115 meas=8 exact 40374aa7cec3b877" );
    ( "frg1 cap 200 seeded",
      (fun () -> comb ~config:(capped 200) (frg1 ()) `Seeded),
      "MA +++ size=98 meas=0 exact 405212702a324b6f\n\
       | MP --- size=115 meas=8 exact 40401598f3a1dfe6" );
    ( "frg1 cap 50 p=0.7",
      (fun () -> comb ~config:(capped 50) (frg1 ()) (`Uniform 0.7)),
      "MA +++ size=98 meas=0 exact 405446dc7660fe71\n\
       | MP --- size=115 meas=8 2ex+1re+0sim 40374aa7cec3b877" );
    ( "frg1 cap 50 seeded",
      (fun () -> comb ~config:(capped 50) (frg1 ()) `Seeded),
      "MA +++ size=98 meas=0 exact 405212702a324b6f\n\
       | MP --- size=115 meas=8 2ex+1re+0sim 40401598f3a1dfe6" );
    ( "seq_controller p=0.7",
      (fun () -> sequential "../data/seq_controller.blif" 0.7),
      "MA ++++++++++++ size=55 meas=0 exact 4040e0090c8d4245\n\
       | MP --+-+--++-+- size=70 meas=42 exact 40389c35895ae458" );
    ( "seq_controller p=0.3",
      (fun () -> sequential "../data/seq_controller.blif" 0.3),
      "MA ++++++++++++ size=55 meas=0 exact 403f2e69834c94a4\n\
       | MP -++-++--+-+- size=69 meas=9 exact 403a788bcf9290b1" );
    ( "x1 p=0.7",
      (fun () -> comb (x1 ()) (`Uniform 0.7)),
      "MA ++++++++++-+++++++++++++++++ size=397 meas=0 exact 406c0ff928a01c98\n\
       | MP -++++-----+----------------- size=432 meas=98 exact 40653491e608ca0a" );
    ( "x1 seeded",
      (fun () -> comb (x1 ()) `Seeded),
      "MA ++++++++++-+++++++++++++++++ size=397 meas=0 exact 406af0875a7561bf\n\
       | MP -++++-----++---++----------- size=428 meas=142 exact 4064e869a15ee0fa" );
  ]

let suite =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) name expected (run ())))
    cases
