module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Robdd = Dpa_bdd.Robdd
module Mapped = Dpa_domino.Mapped
module Inverterless = Dpa_synth.Inverterless
module Int_table = Dpa_util.Int_table
module Vec = Dpa_util.Vec

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

(* S·C·drive·(1+P) of one dynamic cell with signal probability [s]. *)
let cell_power lib cell ~drive s =
  s *. lib.Dpa_domino.Library.capacitance cell *. drive
  *. (1.0 +. lib.Dpa_domino.Library.penalty cell)

(* One static inverter per complemented PI literal in use: [iter_neg]
   lists their original positions in block-input order. *)
let input_inverter_power ~input_toggle iter_neg =
  let complemented = Int_table.create ~capacity:32 () in
  iter_neg (fun opos -> Int_table.replace complemented opos 0);
  Int_table.fold (fun opos _ acc -> acc +. input_toggle opos) complemented 0.0

(* One static inverter per negative-phase PO, priced from the probability
   of the node driving PO [k]. *)
let output_inverter_power assignment ~driver_prob =
  let acc = ref 0.0 in
  Array.iteri
    (fun k phase ->
      match phase with
      | Dpa_synth.Phase.Negative -> acc := !acc +. Model.inverter_after_domino (driver_prob k)
      | Dpa_synth.Phase.Positive -> ())
    assignment;
  !acc

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
        domino_power := !domino_power +. cell_power lib cell ~drive:(Mapped.drive mapped i) s)
    net;
  let input_inverter_power =
    input_inverter_power ~input_toggle (fun add ->
        Array.iter
          (fun (opos, pol) ->
            match pol with
            | Inverterless.Neg -> add opos
            | Inverterless.Pos -> ())
          (Mapped.literals mapped))
  in
  let outs = Netlist.outputs net in
  let output_inverter_power =
    output_inverter_power (Mapped.assignment mapped) ~driver_prob:(fun k ->
        node_probs.(snd outs.(k)))
  in
  let total = !domino_power +. input_inverter_power +. output_inverter_power in
  {
    node_probs;
    domino_switching = !domino_switching;
    domino_power = !domino_power;
    input_inverter_power;
    output_inverter_power;
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

let start_build ?(max_nodes = max_int) ~order mapped =
  let net = Mapped.net mapped in
  let level_of_orig = Int_table.create ~capacity:(2 * Array.length order) () in
  Array.iteri (fun lvl opos -> Int_table.replace level_of_orig opos lvl) order;
  let pos_of_input = Int_table.create ~capacity:32 () in
  Array.iteri (fun k id -> Int_table.replace pos_of_input id k) (Netlist.inputs net);
  {
    pb_manager =
      Robdd.create_sized ~nvars:(Array.length order)
        ~cache_capacity:(4 * min (Netlist.size net) max_nodes);
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

(* ------------------------------------------------------------------ *)
(* Slot table: candidate prices without realizing a block               *)
(* ------------------------------------------------------------------ *)

type table = {
  t_net : Netlist.t;
  t_input_probs : float array;
  (* per slot [2i + polarity bit]: its cells are [t_first.(s)] up to
     [t_last.(s)] (exclusive) in the cell arrays; [t_first] is -1 for a
     slot no phase of any PO demands *)
  t_first : int array;
  t_last : int array;
  t_root_prob : float array;  (* probability of the node realizing the slot *)
  t_neg_literal : int array;  (* PI position of a complemented literal, else -1 *)
  t_cell_prob : float array;
  t_cell_power : float array;
  t_slots : int;
}

let slot i pol = (2 * i) + match pol with Inverterless.Pos -> 0 | Inverterless.Neg -> 1

let table env library net =
  if Mapped.absorbs library then
    invalid_arg "Estimate.table: compound cells depend on the whole block";
  let m = env.manager in
  let n = Netlist.size net in
  let first = Array.make (2 * n) (-1) and last = Array.make (2 * n) 0 in
  let root = Array.make (2 * n) (-1) and root_prob = Array.make (2 * n) Float.nan in
  let neg_literal = Array.make (2 * n) (-1) in
  let pi_position = Array.make n (-1) in
  Array.iteri (fun pos id -> pi_position.(id) <- pos) (Netlist.inputs net);
  let probs = Vec.create ~dummy:0.0 () and powers = Vec.create ~dummy:0.0 () in
  let slots = ref 0 in
  (* one mapped cell: the BDD [build_block_roots] would give it, priced
     at drive 1.0 as [price] prices a freshly mapped block *)
  let add g =
    let bdd =
      match g with
      | Gate.And xs -> Array.fold_left (Robdd.apply_and m) Robdd.bdd_true xs
      | Gate.Or xs -> Array.fold_left (Robdd.apply_or m) Robdd.bdd_false xs
      | Gate.Input | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ ->
        invalid_arg "Estimate.table: cells are AND/OR gates"
    in
    let p = Robdd.cached_probability env.cache bdd in
    ignore (Vec.push probs p);
    ignore
      (Vec.push powers
         (cell_power library (Dpa_domino.Library.cell_of_gate library g) ~drive:1.0 p));
    bdd
  in
  (* emitted once per slot and walk; the second phase's walk reuses
     every slot the first one priced *)
  let emit i pol g =
    let s = slot i pol in
    if root.(s) >= 0 then root.(s)
    else begin
      first.(s) <- Vec.length probs;
      let bdd =
        match g with
        | Gate.Input ->
          let opos = pi_position.(i) in
          let v = Robdd.var m (Int_table.find env.level_of_orig opos) in
          (match pol with
          | Inverterless.Pos -> v
          | Inverterless.Neg ->
            neg_literal.(s) <- opos;
            Robdd.neg m v)
        | Gate.Const b -> if b then Robdd.bdd_true else Robdd.bdd_false
        | Gate.And _ | Gate.Or _ | Gate.Buf _ | Gate.Not _ | Gate.Xor _ ->
          Mapped.cell_tree library ~add g
      in
      last.(s) <- Vec.length probs;
      root.(s) <- bdd;
      root_prob.(s) <- Robdd.cached_probability env.cache bdd;
      incr slots;
      bdd
    end
  in
  let n_out = Netlist.num_outputs net in
  List.iter
    (fun phase -> ignore (Inverterless.demand net (Array.make n_out phase) ~emit))
    [ Dpa_synth.Phase.Positive; Dpa_synth.Phase.Negative ];
  Robdd.publish_metrics m;
  {
    t_net = net;
    t_input_probs = env.env_input_probs;
    t_first = first;
    t_last = last;
    t_root_prob = root_prob;
    t_neg_literal = neg_literal;
    t_cell_prob = Vec.to_array probs;
    t_cell_power = Vec.to_array powers;
    t_slots = !slots;
  }

let table_slots t = t.t_slots

let table_cells t = Array.length t.t_cell_prob

type table_price = {
  power : float;
  size : int;
  switching : float;
}

(* [price]'s sums, term for term: cells in block order (the walk's
   emission order, each slot's cells in [Mapped.map]'s creation order),
   then the input and the output inverters. *)
let of_table t assignment =
  let sums = [| 0.0; 0.0 |] (* switching, power; flat, so unboxed *) in
  let cells = ref 0 and negs = ref [] in
  let emit i pol _ =
    let s = slot i pol in
    for c = t.t_first.(s) to t.t_last.(s) - 1 do
      sums.(0) <- sums.(0) +. t.t_cell_prob.(c);
      sums.(1) <- sums.(1) +. t.t_cell_power.(c)
    done;
    cells := !cells + (t.t_last.(s) - t.t_first.(s));
    if t.t_neg_literal.(s) >= 0 then negs := t.t_neg_literal.(s) :: !negs;
    s
  in
  let _, roots = Inverterless.demand t.t_net assignment ~emit in
  let negs = List.rev !negs in
  let input_inverter_power =
    input_inverter_power
      ~input_toggle:(fun opos -> Model.static_switching t.t_input_probs.(opos))
      (fun add -> List.iter add negs)
  in
  let output_inverter_power =
    output_inverter_power assignment ~driver_prob:(fun k -> t.t_root_prob.(roots.(k)))
  in
  {
    power = sums.(1) +. input_inverter_power +. output_inverter_power;
    size = !cells + List.length negs + Dpa_synth.Phase.count_negative assignment;
    switching = sums.(0);
  }

(* ------------------------------------------------------------------ *)
(* Probabilities of the original network, read off a realization        *)
(* ------------------------------------------------------------------ *)

(* [slot_prob s] is the probability of slot [s]'s node, NaN when the
   realization does not demand it. Ids are topological, so a buffer's or
   inverter's fanin is done before it. *)
let derive_original net ~input_probs slot_prob =
  let v = Array.make (Netlist.size net) Float.nan in
  Array.iteri (fun pos id -> v.(id) <- input_probs.(pos)) (Netlist.inputs net);
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.Input -> ()
      | Gate.Buf x -> v.(i) <- v.(x)
      | Gate.Not x -> v.(i) <- 1.0 -. v.(x)
      | Gate.And _ | Gate.Or _ | Gate.Const _ ->
        let p = slot_prob (slot i Inverterless.Pos) in
        v.(i) <- (if Float.is_nan p then 1.0 -. slot_prob (slot i Inverterless.Neg) else p)
      | Gate.Xor _ -> invalid_arg "Estimate.original_probabilities: XOR present")
    net;
  v

let original_probabilities net ~input_probs mapped ~node_probs =
  derive_original net ~input_probs (fun s ->
      let r = Mapped.slot_root mapped s in
      if r < 0 then Float.nan else node_probs.(r))

let table_original_probabilities t =
  let n_out = Netlist.num_outputs t.t_net in
  let demanded, _ =
    Inverterless.demand t.t_net (Dpa_synth.Phase.all_positive n_out) ~emit:(fun i pol _ ->
        slot i pol)
  in
  derive_original t.t_net ~input_probs:t.t_input_probs (fun s ->
      if demanded.(s) >= 0 then t.t_root_prob.(s) else Float.nan)

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
          (cell_power lib cell ~drive:(Mapped.drive mapped i) node_probs.(i)))
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
