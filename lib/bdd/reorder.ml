type result = {
  order : int array;
  nodes : int;
  initial_nodes : int;
  swaps_accepted : int;
  passes : int;
  oracle_calls : int;
}

let cost net order = Build.shared_all_size net (Build.of_netlist ~order net)

(* Adjacent-swap hill climbing: keep a swap iff it lowers the rebuilt
   all-gates node count. *)
let refine ?(max_passes = 8) net order0 =
  let calls = ref 0 in
  let cost order =
    incr calls;
    cost net order
  in
  let order = Array.copy order0 in
  let n = Array.length order in
  let best = ref (cost order) in
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
