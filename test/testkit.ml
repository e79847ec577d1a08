(* Shared helpers for the test suite: random circuit generation for
   property tests, truth-table equivalence oracles, float comparison. *)

module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_approx ?(eps = 1e-9) msg expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %g)" msg expected actual eps

let check_bits msg a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then Alcotest.failf "%s: %h <> %h" msg a b

let check_bits_array msg a b =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s.(%d)" msg i) x b.(i)) a

(* QCheck generator for small random netlists with inverters: [n_inputs]
   inputs, up to [max_gates] gates over AND/OR/NOT/XOR, 1–3 outputs. Kept
   raw (no structural hashing) so optimization passes have work to do. *)
let gen_netlist ?(n_inputs = 5) ?(max_gates = 12) () =
  let open QCheck2.Gen in
  let* n_gates = int_range 1 max_gates in
  let* n_outputs = int_range 1 3 in
  let* seeds = list_repeat (n_gates * 6) (int_bound 1_000_000) in
  let* out_seeds = list_repeat n_outputs (int_bound 1_000_000) in
  return (n_gates, n_outputs, Array.of_list seeds, Array.of_list out_seeds, n_inputs)

let build_netlist (n_gates, n_outputs, seeds, out_seeds, n_inputs) =
  let t = Netlist.create ~name:"random" () in
  let inputs = Array.init n_inputs (fun k -> Netlist.add_input ~name:(Printf.sprintf "i%d" k) t) in
  ignore inputs;
  let cursor = ref 0 in
  let next () =
    let v = seeds.(!cursor mod Array.length seeds) in
    incr cursor;
    v
  in
  for _ = 1 to n_gates do
    let avail = Netlist.size t in
    let pick () = next () mod avail in
    let id =
      match next () mod 5 with
      | 0 -> Netlist.add_gate t (Gate.Not (pick ()))
      | 1 -> Netlist.add_gate t (Gate.Xor (pick (), pick ()))
      | 2 -> Netlist.add_gate t (Gate.And [| pick (); pick () |])
      | 3 -> Netlist.add_gate t (Gate.Or [| pick (); pick (); pick () |])
      | _ -> Netlist.add_gate t (Gate.And [| pick (); pick (); pick () |])
    in
    ignore id
  done;
  Array.iteri
    (fun k seed -> Netlist.add_output t (Printf.sprintf "o%d" k) (seed mod Netlist.size t))
    (Array.sub out_seeds 0 n_outputs);
  t

let arbitrary_netlist ?n_inputs ?max_gates () =
  QCheck2.Gen.map build_netlist (gen_netlist ?n_inputs ?max_gates ())

(* Random netlists with 1 to 6 outputs, optimized (domino-ready), plus a
   seed for whatever else the property draws. *)
let gen_wide_netlist =
  let open QCheck2.Gen in
  let* n_gates, _, seeds, _, n_inputs = gen_netlist ~max_gates:20 () in
  let* n_outputs = int_range 1 6 in
  let* out_seeds = list_repeat n_outputs (int_bound 1_000_000) in
  let* seed = int_bound 1_000_000 in
  return
    ( Dpa_synth.Opt.optimize
        (build_netlist (n_gates, n_outputs, seeds, Array.of_list out_seeds, n_inputs)),
      seed )

let print_wide_case (net, seed) =
  Printf.sprintf "%d nodes, %d outputs, seed %d" (Netlist.size net) (Netlist.num_outputs net)
    seed

(* Truth-table equivalence of two functions from input vectors to output
   vectors, over all minterms of [n] inputs. *)
let same_function n f g =
  let rec go m =
    if m >= 1 lsl n then true
    else begin
      let vec = Array.init n (fun k -> (m lsr k) land 1 = 1) in
      f vec = g vec && go (m + 1)
    end
  in
  go 0

let qcheck_case ?(count = 100) ~name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let probs_gen n =
  QCheck2.Gen.(map Array.of_list (list_repeat n (float_bound_inclusive 1.0)))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* combinational designs parse directly; sequential ones contribute
   their combinational core (latch outputs become PIs), as the flow
   does *)
let load_blif path =
  let text = read_file path in
  match Dpa_logic.Blif.of_string text with
  | Ok net -> net
  | Error _ -> (
    match Dpa_logic.Blif.sequential_of_string text with
    | Ok s -> s.Dpa_logic.Blif.comb
    | Error msg -> Alcotest.failf "%s failed to parse: %s" path msg)

(* A profile's combinational network: a sequential one contributes its
   core with every D pin promoted to an output, as the corpus prices it. *)
let comb_of_profile name =
  match Dpa_workload.Profiles.find name with
  | None -> Alcotest.failf "no profile %s" name
  | Some p -> (
    match Dpa_workload.Profiles.build p with
    | Dpa_workload.Profiles.Comb net -> net
    | Dpa_workload.Profiles.Seq sn ->
      let core = Netlist.copy (Dpa_seq.Seq_netlist.comb sn) in
      Array.iteri
        (fun k ff ->
          Netlist.add_output core (Printf.sprintf "ff%d.d" k) ff.Dpa_seq.Seq_netlist.data)
        (Dpa_seq.Seq_netlist.ffs sn);
      core)

(* every checked-in circuit (test/dune lists them as deps) *)
let data_files =
  [
    "../data/apex7_synthetic.blif";
    "../data/frg1_synthetic.blif";
    "../data/seq_controller.blif";
  ]
