module Jsonlite = Dpa_util.Jsonlite
module Dpa_error = Dpa_util.Dpa_error
module Netlist = Dpa_logic.Netlist
module Phase = Dpa_synth.Phase
module Engine = Dpa_power.Engine
module Flow = Dpa_core.Flow

let num n = Jsonlite.Num (float_of_int n)

let fnum f = Jsonlite.Num f

let str s = Jsonlite.Str s

let load = function
  | Protocol.File path -> Dpa_logic.Io.load_file path
  | Protocol.Inline { text; format } ->
    let source = match format with `Blif -> "inline.blif" | `Dln -> "inline.dln" in
    Dpa_logic.Io.parse_netlist ~source text

let engine_budget = function
  | None -> None
  | Some { Protocol.max_bdd_nodes; deadline_s; fallback } ->
    Some { Engine.default_budget with Engine.max_bdd_nodes; deadline_s; fallback }

(* ------------------------------------------------------------------ *)
(* Handlers                                                             *)
(* ------------------------------------------------------------------ *)

let ping () = Jsonlite.Obj [ ("pong", Jsonlite.Bool true) ]

let info source =
  let net = load source in
  let s = Dpa_logic.Netstats.compute net in
  let opt = Dpa_synth.Opt.optimize net in
  Jsonlite.Obj
    [
      ("name", str s.Dpa_logic.Netstats.name);
      ("inputs", num s.Dpa_logic.Netstats.inputs);
      ("outputs", num s.Dpa_logic.Netstats.outputs);
      ("gates", num s.Dpa_logic.Netstats.gates);
      ("max_depth", num s.Dpa_logic.Netstats.max_depth);
      ("optimized_gates", num (Netlist.gate_count opt));
    ]

let estimate ?par ?cancel ~source ~input_prob ~phases ~budget () =
  (* the exact [dominoflow estimate] pipeline: optimize, realize the
     phase assignment inverter-free, map, price through the engine *)
  let net = Dpa_synth.Opt.optimize (load source) in
  let n = Netlist.num_outputs net in
  let assignment =
    match phases with
    | None -> Phase.all_positive n
    | Some s -> (
      match Phase.of_string ~num_outputs:n s with
      | Ok a -> a
      | Error msg -> Dpa_error.error (Dpa_error.Invalid_input msg))
  in
  let input_probs = Array.make (Netlist.num_inputs net) input_prob in
  let mapped = Dpa_domino.Mapped.map (Dpa_synth.Inverterless.realize net assignment) in
  let est = Engine.estimate ?par ?budget:(engine_budget budget) ?cancel ~input_probs mapped in
  let r = est.Engine.report in
  let block = Dpa_domino.Mapped.net mapped in
  let outputs = Netlist.outputs block in
  Jsonlite.Obj
    [
      ("phases", str (Phase.to_string assignment));
      ("cells", num (Dpa_domino.Mapped.size mapped));
      ("total", fnum r.Dpa_power.Estimate.total);
      ("domino_power", fnum r.Dpa_power.Estimate.domino_power);
      ("input_inverter_power", fnum r.Dpa_power.Estimate.input_inverter_power);
      ("output_inverter_power", fnum r.Dpa_power.Estimate.output_inverter_power);
      ("bdd_nodes", num r.Dpa_power.Estimate.bdd_nodes);
      ("exact", Jsonlite.Bool (Engine.all_exact est.Engine.degradation));
      ("degradation", str (Engine.degradation_to_string est.Engine.degradation));
      ( "outputs",
        Jsonlite.Arr (Array.to_list (Array.map (fun (name, _) -> str name) outputs)) );
      ( "output_probs",
        Jsonlite.Arr
          (Array.to_list
             (Array.map
                (fun (_, id) -> fnum r.Dpa_power.Estimate.node_probs.(id))
                outputs)) );
    ]

let realization_json (r : Flow.realization) =
  Jsonlite.Obj
    [
      ("phases", str (Phase.to_string r.Flow.assignment));
      ("size", num r.Flow.size);
      ("power", fnum r.Flow.power);
      ("critical_delay", fnum r.Flow.critical_delay);
      ("met", Jsonlite.Bool r.Flow.met);
      ("measurements", num r.Flow.measurements);
      ("strategy", str r.Flow.strategy);
      ("degradation", str (Engine.degradation_label r.Flow.degradation));
    ]

let flow_result ?par ?(cancel = Dpa_util.Cancel.none) ~source ~input_prob ~seed ~budget () =
  let net = load source in
  let config =
    { Flow.default_config with
      Flow.input_prob;
      seed;
      budget = engine_budget budget;
      par;
      cancel }
  in
  Flow.compare_ma_mp ~config net

let optimize ?par ?cancel ~source ~input_prob ~seed ~budget () =
  let r = flow_result ?par ?cancel ~source ~input_prob ~seed ~budget () in
  realization_json r.Flow.mp

let compare ?par ?cancel ~source ~input_prob ~seed ~budget () =
  let r = flow_result ?par ?cancel ~source ~input_prob ~seed ~budget () in
  Jsonlite.Obj
    [
      ("circuit", str r.Flow.circuit);
      ("n_pi", num r.Flow.n_pi);
      ("n_po", num r.Flow.n_po);
      ("ma", realization_json r.Flow.ma);
      ("mp", realization_json r.Flow.mp);
      ("area_penalty_pct", fnum r.Flow.area_penalty_pct);
      ("power_saving_pct", fnum r.Flow.power_saving_pct);
    ]

let execute ?par ?cancel = function
  | Protocol.Ping -> ping ()
  | Protocol.Shutdown -> Jsonlite.Obj [ ("stopping", Jsonlite.Bool true) ]
  | Protocol.Info { source } -> info source
  | Protocol.Estimate { source; input_prob; phases; budget } ->
    estimate ?par ?cancel ~source ~input_prob ~phases ~budget ()
  | Protocol.Optimize { source; input_prob; seed; budget } ->
    optimize ?par ?cancel ~source ~input_prob ~seed ~budget ()
  | Protocol.Compare { source; input_prob; seed; budget } ->
    compare ?par ?cancel ~source ~input_prob ~seed ~budget ()
  | Protocol.Stats ->
    (* the pool intercepts [stats] before dispatching here; the direct
       handler path has no pool to report on *)
    Dpa_error.error
      (Dpa_error.Unsupported "stats is answered by the service pool, not a handler")
