type result = {
  order : int array;
  nodes : int;
  initial_nodes : int;
  swaps_accepted : int;
  passes : int;
  oracle_calls : int;
}

let cost net order = Build.shared_all_size net (Build.of_netlist ~order net)

(* Adjacent-swap hill climbing over an arbitrary cost oracle. [cost] may
   return [max_int] to mark an order as infeasible (e.g. over a node
   budget); such orders are never kept unless the start order itself is
   infeasible, in which case any feasible neighbour is an improvement.
   [initial_cost] spares the start-order probe when the caller already
   knows it — the degradation ladder reaches here precisely because the
   start order blew its budget, so re-pricing it would waste a full
   bounded build just to learn [max_int] again. *)
let refine_cost ?(max_passes = 8) ?initial_cost ~cost order0 =
  let calls = ref 0 in
  let cost order =
    incr calls;
    cost order
  in
  let order = Array.copy order0 in
  let n = Array.length order in
  let best = ref (match initial_cost with Some c -> c | None -> cost order) in
  let initial_nodes = !best in
  let swaps = ref 0 in
  let passes = ref 0 in
  let improved = ref true in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for l = 0 to n - 2 do
      let tmp = order.(l) in
      order.(l) <- order.(l + 1);
      order.(l + 1) <- tmp;
      let c = cost order in
      if c < !best then begin
        best := c;
        incr swaps;
        improved := true
      end
      else begin
        (* revert *)
        let tmp = order.(l) in
        order.(l) <- order.(l + 1);
        order.(l + 1) <- tmp
      end
    done
  done;
  {
    order;
    nodes = !best;
    initial_nodes;
    swaps_accepted = !swaps;
    passes = !passes;
    oracle_calls = !calls;
  }

let refine ?max_passes net order0 = refine_cost ?max_passes ~cost:(cost net) order0

let refine_bounded ?max_passes ?initial_cost ?deadline ?cancel ~max_nodes net order0 =
  let cost order =
    match Build.bounded_size ~order ?deadline ?cancel ~max_nodes net with
    | Some s -> s
    | None -> max_int
  in
  let r = refine_cost ?max_passes ?initial_cost ~cost order0 in
  if r.nodes = max_int then None else Some r
