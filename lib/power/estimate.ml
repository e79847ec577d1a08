module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Robdd = Dpa_bdd.Robdd
module Mapped = Dpa_domino.Mapped
module Inverterless = Dpa_synth.Inverterless
module Int_table = Dpa_util.Int_table

type report = {
  node_probs : float array;
  domino_switching : float;
  domino_power : float;
  input_inverter_power : float;
  output_inverter_power : float;
  total : float;
  bdd_nodes : int;
}

let check_literals ~input_probs mapped =
  Array.iter
    (fun (opos, _) ->
      if opos >= Array.length input_probs then
        invalid_arg "Estimate: input_probs does not cover every referenced PI")
    (Mapped.literals mapped)

(* Variable order for a block: the paper's heuristic on the block, projected
   onto the original PI positions (first occurrence wins; both polarities of
   a PI collapse to one variable). *)
let order_of_block mapped =
  let net = Mapped.net mapped in
  let lits = Mapped.literals mapped in
  let block_order = Dpa_bdd.Ordering.reverse_topological net in
  let seen = Int_table.create ~capacity:(2 * Array.length lits) () in
  let order = ref [] in
  Array.iter
    (fun bpos ->
      let opos, _ = lits.(bpos) in
      if not (Int_table.mem seen opos) then begin
        Int_table.replace seen opos 0;
        order := opos :: !order
      end)
    block_order;
  Array.of_list (List.rev !order)

(* Build the BDD of every block node inside [m], mapping each PI literal to
   its original position's level via [level_of_orig] (complemented literals
   are negations of the same variable). Shared sub-BDDs across calls on one
   manager are interned once — that is what makes repeated candidate
   evaluation incremental. *)
let build_block_roots m level_of_orig mapped =
  let net = Mapped.net mapped in
  let lits = Mapped.literals mapped in
  let pos_of_input_id = Int_table.create ~capacity:32 () in
  Array.iteri (fun k id -> Int_table.replace pos_of_input_id id k) (Netlist.inputs net);
  let roots = Array.make (Netlist.size net) Robdd.bdd_false in
  Netlist.iter_nodes
    (fun i g ->
      roots.(i) <-
        (match g with
        | Gate.Input ->
          let bpos = Int_table.find pos_of_input_id i in
          let opos, pol = lits.(bpos) in
          let v = Robdd.var m (Int_table.find level_of_orig opos) in
          (match pol with Inverterless.Pos -> v | Inverterless.Neg -> Robdd.neg m v)
        | Gate.Const b -> if b then Robdd.bdd_true else Robdd.bdd_false
        | Gate.And xs ->
          Array.fold_left (fun acc x -> Robdd.apply_and m acc roots.(x)) Robdd.bdd_true xs
        | Gate.Or xs ->
          Array.fold_left (fun acc x -> Robdd.apply_or m acc roots.(x)) Robdd.bdd_false xs
        | Gate.Buf _ | Gate.Not _ | Gate.Xor _ ->
          invalid_arg "Estimate: mapped block must be a pure AND/OR network"))
    net;
  roots

(* Signal probability of every block node, with both literals of one
   original PI sharing a single BDD variable. Returns the probabilities and
   the manager size. *)
let block_probabilities ?(cancel = Dpa_util.Cancel.none) ~input_probs mapped =
  check_literals ~input_probs mapped;
  let order = order_of_block mapped in
  let level_of_orig = Int_table.create ~capacity:(2 * Array.length order) () in
  Array.iteri (fun lvl opos -> Int_table.replace level_of_orig opos lvl) order;
  let m =
    Robdd.create_sized ~nvars:(Array.length order)
      ~cache_capacity:(4 * Netlist.size (Mapped.net mapped))
  in
  if not (Dpa_util.Cancel.is_none cancel) then Robdd.set_budget ~cancel m;
  let roots = build_block_roots m level_of_orig mapped in
  let level_probs = Array.map (fun opos -> input_probs.(opos)) order in
  let probs = Robdd.probabilities m level_probs roots in
  Robdd.publish_metrics m;
  probs, Robdd.total_nodes m

let probabilities_of_block ~input_probs mapped =
  fst (block_probabilities ~input_probs mapped)

let price mapped ~node_probs ~input_toggle =
  let net = Mapped.net mapped in
  let lib = Mapped.library mapped in
  let domino_switching = ref 0.0 and domino_power = ref 0.0 in
  Netlist.iter_nodes
    (fun i _ ->
      match Mapped.cell_of_node mapped i with
      | None -> ()
      | Some cell ->
        let s = node_probs.(i) in
        domino_switching := !domino_switching +. s;
        domino_power :=
          !domino_power
          +. s *. lib.Dpa_domino.Library.capacitance cell *. Mapped.drive mapped i
             *. (1.0 +. lib.Dpa_domino.Library.penalty cell))
    net;
  (* One static inverter per complemented PI literal in use. *)
  let complemented = Int_table.create ~capacity:32 () in
  Array.iter
    (fun (opos, pol) ->
      match pol with
      | Inverterless.Neg -> Int_table.replace complemented opos 0
      | Inverterless.Pos -> ())
    (Mapped.literals mapped);
  let input_inverter_power =
    Int_table.fold (fun opos _ acc -> acc +. input_toggle opos) complemented 0.0
  in
  let assignment = Mapped.assignment mapped in
  let outs = Netlist.outputs net in
  let output_inverter_power = ref 0.0 in
  Array.iteri
    (fun k (_, driver) ->
      match assignment.(k) with
      | Dpa_synth.Phase.Negative ->
        output_inverter_power :=
          !output_inverter_power +. Model.inverter_after_domino node_probs.(driver)
      | Dpa_synth.Phase.Positive -> ())
    outs;
  let total = !domino_power +. input_inverter_power +. !output_inverter_power in
  {
    node_probs;
    domino_switching = !domino_switching;
    domino_power = !domino_power;
    input_inverter_power;
    output_inverter_power = !output_inverter_power;
    total;
    bdd_nodes = 0;
  }

let of_mapped ?(cancel = Dpa_util.Cancel.none) ~input_probs mapped =
  Dpa_obs.Trace.with_span "estimate.block" @@ fun () ->
  let node_probs, bdd_nodes = block_probabilities ~cancel ~input_probs mapped in
  let report =
    price mapped ~node_probs ~input_toggle:(fun opos ->
        Model.static_switching input_probs.(opos))
  in
  Dpa_obs.Trace.add_args [ ("bdd_nodes", Dpa_obs.Trace.Int bdd_nodes) ];
  { report with bdd_nodes }

let of_activity mapped (a : Dpa_sim.Simulator.activity) =
  price mapped ~node_probs:a.Dpa_sim.Simulator.node_probs ~input_toggle:(fun opos ->
      a.Dpa_sim.Simulator.input_toggles.(opos))

(* ------------------------------------------------------------------ *)
(* Partial (cone-by-cone) building, for the resource-bounded engine     *)
(* ------------------------------------------------------------------ *)

type partial_build = {
  pb_manager : Robdd.manager;
  pb_mapped : Mapped.t;
  pb_order : int array;
  pb_roots : Robdd.node array;
  pb_built : Bytes.t; (* per block node id; '\001' = root valid *)
  pb_level_of_orig : Int_table.t;
  pb_pos_of_input : Int_table.t;
}

let block_order ~input_probs mapped =
  check_literals ~input_probs mapped;
  order_of_block mapped

let start_build ~order mapped =
  let net = Mapped.net mapped in
  let level_of_orig = Int_table.create ~capacity:(2 * Array.length order) () in
  Array.iteri (fun lvl opos -> Int_table.replace level_of_orig opos lvl) order;
  let pos_of_input = Int_table.create ~capacity:32 () in
  Array.iteri (fun k id -> Int_table.replace pos_of_input id k) (Netlist.inputs net);
  {
    pb_manager =
      Robdd.create_sized ~nvars:(Array.length order) ~cache_capacity:(4 * Netlist.size net);
    pb_mapped = mapped;
    pb_order = Array.copy order;
    pb_roots = Array.make (Netlist.size net) Robdd.bdd_false;
    pb_built = Bytes.make (Netlist.size net) '\000';
    pb_level_of_orig = level_of_orig;
    pb_pos_of_input = pos_of_input;
  }

let partial_manager pb = pb.pb_manager

let node_built pb i = Bytes.get pb.pb_built i = '\001'

(* Build every not-yet-built node selected by [within], in id (= topologic)
   order. A budget exhaustion mid-node leaves that node unbuilt but keeps
   everything interned so far: a later retry, or another cone sharing the
   prefix, resumes from unique-table hits. *)
let build_nodes pb ~within =
  let m = pb.pb_manager in
  let lits = Mapped.literals pb.pb_mapped in
  let roots = pb.pb_roots in
  Netlist.iter_nodes
    (fun i g ->
      if within i && not (node_built pb i) then begin
        roots.(i) <-
          (match g with
          | Gate.Input ->
            let bpos = Int_table.find pb.pb_pos_of_input i in
            let opos, pol = lits.(bpos) in
            let v = Robdd.var m (Int_table.find pb.pb_level_of_orig opos) in
            (match pol with Inverterless.Pos -> v | Inverterless.Neg -> Robdd.neg m v)
          | Gate.Const b -> if b then Robdd.bdd_true else Robdd.bdd_false
          | Gate.And xs ->
            Array.fold_left (fun acc x -> Robdd.apply_and m acc roots.(x)) Robdd.bdd_true xs
          | Gate.Or xs ->
            Array.fold_left (fun acc x -> Robdd.apply_or m acc roots.(x)) Robdd.bdd_false xs
          | Gate.Buf _ | Gate.Not _ | Gate.Xor _ ->
            invalid_arg "Estimate: mapped block must be a pure AND/OR network");
        Bytes.set pb.pb_built i '\001'
      end)
    (Mapped.net pb.pb_mapped)

(* In-place dynamic reordering of a partial build. Roots are every
   already-built block node — including the interned prefixes of cones
   whose build blew the budget, which is the point: sifting compacts the
   prefix (and the opening sweep retires the rest), so the retry both
   shares more and starts with reclaimed headroom. [pb_order] is permuted
   in place by the sifter; [pb_level_of_orig] is rebuilt to match even
   when the session ends early (budget, cancellation), so [build_nodes]
   keeps placing PI literals at the right levels afterwards. *)
let sift_partial ?passes ?max_growth ?max_swaps ?max_new_nodes ?deadline ?cancel pb =
  let roots = ref [] in
  Array.iteri
    (fun i r -> if node_built pb i && not (Robdd.is_terminal r) then roots := r :: !roots)
    pb.pb_roots;
  Fun.protect
    ~finally:(fun () ->
      Array.iteri
        (fun lvl opos -> Int_table.replace pb.pb_level_of_orig opos lvl)
        pb.pb_order)
    (fun () ->
      Dpa_bdd.Sift.sift ?passes ?max_growth ?max_swaps ?max_new_nodes ?deadline ?cancel
        ~roots:!roots ~order:pb.pb_order pb.pb_manager)

let partial_probabilities pb ~input_probs =
  let level_probs = Array.map (fun opos -> input_probs.(opos)) pb.pb_order in
  let cache = Robdd.prob_cache pb.pb_manager level_probs in
  Array.init
    (Array.length pb.pb_roots)
    (fun i ->
      if node_built pb i then Robdd.cached_probability cache pb.pb_roots.(i) else Float.nan)

(* ------------------------------------------------------------------ *)
(* Incremental estimation: one shared manager across many blocks        *)
(* ------------------------------------------------------------------ *)

type env = {
  manager : Robdd.manager;
  cache : Robdd.prob_cache;
  level_of_orig : Int_table.t;
  env_input_probs : float array;
}

let make_env ?(cancel = Dpa_util.Cancel.none) ~input_probs mapped =
  check_literals ~input_probs mapped;
  (* Seed the variable order from this block (canonically the all-positive
     realization), then append every remaining PI position: re-phased
     variants of the same circuit reference the same PI set, but the tail
     keeps the environment total for any block over these inputs. *)
  let seed_order = order_of_block mapped in
  let n_pi = Array.length input_probs in
  let in_seed = Array.make n_pi false in
  Array.iter (fun opos -> in_seed.(opos) <- true) seed_order;
  let rest = ref [] in
  for opos = n_pi - 1 downto 0 do
    if not in_seed.(opos) then rest := opos :: !rest
  done;
  let order = Array.append seed_order (Array.of_list !rest) in
  let level_of_orig = Int_table.create ~capacity:(2 * n_pi) () in
  Array.iteri (fun lvl opos -> Int_table.replace level_of_orig opos lvl) order;
  let manager =
    Robdd.create_sized ~nvars:(Array.length order)
      ~cache_capacity:(8 * Netlist.size (Mapped.net mapped))
  in
  if not (Dpa_util.Cancel.is_none cancel) then Robdd.set_budget ~cancel manager;
  let level_probs = Array.map (fun opos -> input_probs.(opos)) order in
  {
    manager;
    cache = Robdd.prob_cache manager level_probs;
    level_of_orig;
    env_input_probs = Array.copy input_probs;
  }

let env_manager env = env.manager

let of_mapped_env env mapped =
  Dpa_obs.Trace.with_span "estimate.block.incremental" @@ fun () ->
  check_literals ~input_probs:env.env_input_probs mapped;
  let roots = build_block_roots env.manager env.level_of_orig mapped in
  let node_probs = Array.map (Robdd.cached_probability env.cache) roots in
  let report =
    price mapped ~node_probs ~input_toggle:(fun opos ->
        Model.static_switching env.env_input_probs.(opos))
  in
  Robdd.publish_metrics env.manager;
  { report with bdd_nodes = Robdd.total_nodes env.manager }

let by_cell_type ?(input_toggle = fun _ -> 0.0) mapped ~node_probs =
  let lib = Mapped.library mapped in
  let table = Hashtbl.create 16 in
  let add name power =
    let count, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt table name) in
    Hashtbl.replace table name (count + 1, total +. power)
  in
  Netlist.iter_nodes
    (fun i _ ->
      match Mapped.cell_of_node mapped i with
      | None -> ()
      | Some cell ->
        add (Dpa_domino.Cell.name cell)
          (node_probs.(i)
          *. lib.Dpa_domino.Library.capacitance cell
          *. Mapped.drive mapped i
          *. (1.0 +. lib.Dpa_domino.Library.penalty cell)))
    (Mapped.net mapped);
  let assignment = Mapped.assignment mapped in
  Array.iteri
    (fun k (_, driver) ->
      match assignment.(k) with
      | Dpa_synth.Phase.Negative -> add "INV(out)" (Model.inverter_after_domino node_probs.(driver))
      | Dpa_synth.Phase.Positive -> ())
    (Netlist.outputs (Mapped.net mapped));
  let complemented = Int_table.create ~capacity:32 () in
  Array.iter
    (fun (opos, pol) ->
      match pol with
      | Inverterless.Neg -> Int_table.replace complemented opos 0
      | Inverterless.Pos -> ())
    (Mapped.literals mapped);
  Int_table.iter (fun opos _ -> add "INV(in)" (input_toggle opos)) complemented;
  Hashtbl.fold (fun name (count, power) acc -> (name, count, power) :: acc) table []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
