module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate
module Mapped = Dpa_domino.Mapped
module Inverterless = Dpa_synth.Inverterless
module Rng = Dpa_util.Rng
module Trace = Dpa_obs.Trace

(* ------------------------------------------------------------------ *)
(* Instruction tape                                                    *)
(* ------------------------------------------------------------------ *)

(* One flat [int array], decoded by a program counter:

     const0 dst            | const1 dst
     buf    dst src        | not    dst src
     and2   dst a b        | or2    dst a b        | xor2 dst a b
     andn   dst k x1 .. xk | orn    dst k x1 .. xk

   Operands are node ids, indexing the register file directly: one
   63-bit word per node, one simulated cycle per bit lane. Input nodes
   have no instruction — their words are loaded from the packed
   Bernoulli generator before each pass. A netlist is topologically
   ordered by construction (every fanin id is smaller than its reader),
   so lowering is a single [iter_nodes] walk and the tape never reads a
   register before writing it. *)

let op_const0 = 0
let op_const1 = 1
let op_buf = 2
let op_not = 3
let op_and2 = 4
let op_or2 = 5
let op_xor2 = 6
let op_andn = 7
let op_orn = 8

type t = {
  code : int array;
  n_nodes : int;
  n_instructions : int;
  input_ids : int array;  (** node id per block-input position *)
  src_pos : int array;  (** original PI feeding each block input *)
  negated : bool array;  (** complemented literal? *)
}

let n_nodes t = t.n_nodes

let n_instructions t = t.n_instructions

let lower net =
  let rev = ref [] in
  let count = ref 0 in
  let push v = rev := v :: !rev in
  let emit_nary ~op2 ~opn ~empty dst xs =
    incr count;
    match Array.length xs with
    | 0 ->
      push empty;
      push dst
    | 1 ->
      push op_buf;
      push dst;
      push xs.(0)
    | 2 ->
      push op2;
      push dst;
      push xs.(0);
      push xs.(1)
    | k ->
      push opn;
      push dst;
      push k;
      Array.iter push xs
  in
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.Input -> ()
      | Gate.Const false ->
        incr count;
        push op_const0;
        push i
      | Gate.Const true ->
        incr count;
        push op_const1;
        push i
      | Gate.Buf x ->
        incr count;
        push op_buf;
        push i;
        push x
      | Gate.Not x ->
        incr count;
        push op_not;
        push i;
        push x
      | Gate.Xor (a, b) ->
        incr count;
        push op_xor2;
        push i;
        push a;
        push b
      | Gate.And xs -> emit_nary ~op2:op_and2 ~opn:op_andn ~empty:op_const1 i xs
      | Gate.Or xs -> emit_nary ~op2:op_or2 ~opn:op_orn ~empty:op_const0 i xs)
    net;
  (Array.of_list (List.rev !rev), !count)

let of_netlist net =
  Trace.with_span "sim.compile"
    ~args:[ ("kind", Trace.Str "netlist"); ("nodes", Trace.Int (Netlist.size net)) ]
  @@ fun () ->
  let inputs = Netlist.inputs net in
  let code, n_instructions = lower net in
  {
    code;
    n_nodes = Netlist.size net;
    n_instructions;
    input_ids = Array.copy inputs;
    src_pos = Array.init (Array.length inputs) Fun.id;
    negated = Array.make (Array.length inputs) false;
  }

let of_block mapped =
  let net = Mapped.net mapped in
  Trace.with_span "sim.compile"
    ~args:[ ("kind", Trace.Str "block"); ("nodes", Trace.Int (Netlist.size net)) ]
  @@ fun () ->
  let lits = Mapped.literals mapped in
  let code, n_instructions = lower net in
  {
    code;
    n_nodes = Netlist.size net;
    n_instructions;
    input_ids = Array.copy (Netlist.inputs net);
    src_pos = Array.map fst lits;
    negated = Array.map (fun (_, pol) -> pol = Inverterless.Neg) lits;
  }

(* ------------------------------------------------------------------ *)
(* Tape evaluation                                                     *)
(* ------------------------------------------------------------------ *)

(* Unsafe accesses are justified by construction: every operand the
   tape contains is a node id < n_nodes = Array.length regs, and the
   decoder only ever advances by whole instructions. *)
let exec code regs ~mask =
  let len = Array.length code in
  let pc = ref 0 in
  while !pc < len do
    let p = !pc in
    match Array.unsafe_get code p with
    | 0 (* const0 *) ->
      Array.unsafe_set regs (Array.unsafe_get code (p + 1)) 0;
      pc := p + 2
    | 1 (* const1 *) ->
      Array.unsafe_set regs (Array.unsafe_get code (p + 1)) mask;
      pc := p + 2
    | 2 (* buf *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (p + 1))
        (Array.unsafe_get regs (Array.unsafe_get code (p + 2)));
      pc := p + 3
    | 3 (* not *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (p + 1))
        (lnot (Array.unsafe_get regs (Array.unsafe_get code (p + 2))) land mask);
      pc := p + 3
    | 4 (* and2 *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (p + 1))
        (Array.unsafe_get regs (Array.unsafe_get code (p + 2))
        land Array.unsafe_get regs (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 5 (* or2 *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (p + 1))
        (Array.unsafe_get regs (Array.unsafe_get code (p + 2))
        lor Array.unsafe_get regs (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 6 (* xor2 *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (p + 1))
        (Array.unsafe_get regs (Array.unsafe_get code (p + 2))
        lxor Array.unsafe_get regs (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 7 (* andn *) ->
      let k = Array.unsafe_get code (p + 2) in
      let acc = ref (Array.unsafe_get regs (Array.unsafe_get code (p + 3))) in
      for j = 1 to k - 1 do
        acc := !acc land Array.unsafe_get regs (Array.unsafe_get code (p + 3 + j))
      done;
      Array.unsafe_set regs (Array.unsafe_get code (p + 1)) !acc;
      pc := p + 3 + k
    | 8 (* orn *) ->
      let k = Array.unsafe_get code (p + 2) in
      let acc = ref (Array.unsafe_get regs (Array.unsafe_get code (p + 3))) in
      for j = 1 to k - 1 do
        acc := !acc lor Array.unsafe_get regs (Array.unsafe_get code (p + 3 + j))
      done;
      Array.unsafe_set regs (Array.unsafe_get code (p + 1)) !acc;
      pc := p + 3 + k
    | _ -> assert false
  done

(* ------------------------------------------------------------------ *)
(* Bit-parallel measurement                                            *)
(* ------------------------------------------------------------------ *)

let default_cycles = 10_000

type counts = {
  fire : int array;  (** cycles each node evaluated to 1 *)
  source_toggles : int array;  (** toggles per original primary input *)
  cycles : int;
}

let measure_counts ?(cycles = default_cycles) ?(cancel = Dpa_util.Cancel.none) rng
    ~input_probs prog =
  if cycles <= 0 then invalid_arg "Compiled.measure_counts: cycles must be positive";
  let n_pi = Array.length input_probs in
  Array.iter
    (fun src ->
      if src < 0 || src >= n_pi then
        invalid_arg "Compiled.measure_counts: input_probs shorter than the block's literals")
    prog.src_pos;
  let thresholds = Array.map Rng.bernoulli_threshold input_probs in
  let pi_words = Array.make n_pi 0 in
  let regs = Array.make prog.n_nodes 0 in
  let fire = Array.make prog.n_nodes 0 in
  let source_toggles = Array.make n_pi 0 in
  let prev_last = Array.make n_pi 0 in
  let first = ref true in
  let remaining = ref cycles in
  while !remaining > 0 do
    (* One poll per 63-cycle tape pass: cheap relative to the pass, tight
       enough that a fired token stops a long measurement within ~one pass. *)
    Dpa_util.Cancel.check cancel;
    let w = min Vectors.lanes !remaining in
    let mask = Vectors.lane_mask w in
    (* Same stream, same order, as the interpreter: one draw per input
       per cycle, inputs in ascending order within the cycle. *)
    Rng.fill_bernoulli_lanes rng ~thresholds ~lanes:w ~into:pi_words;
    for k = 0 to n_pi - 1 do
      let word = Array.unsafe_get pi_words k in
      let prev = if !first then None else Some (Array.unsafe_get prev_last k) in
      source_toggles.(k) <- source_toggles.(k) + Vectors.lane_toggles ~prev_last:prev word ~width:w;
      prev_last.(k) <- (word lsr (w - 1)) land 1
    done;
    first := false;
    for pos = 0 to Array.length prog.input_ids - 1 do
      let word = pi_words.(prog.src_pos.(pos)) in
      regs.(prog.input_ids.(pos)) <- (if prog.negated.(pos) then lnot word land mask else word)
    done;
    exec prog.code regs ~mask;
    for i = 0 to prog.n_nodes - 1 do
      Array.unsafe_set fire i (Array.unsafe_get fire i + Vectors.popcount (Array.unsafe_get regs i))
    done;
    remaining := !remaining - w
  done;
  { fire; source_toggles; cycles }

let node_probabilities ?cycles ?cancel rng ~input_probs prog =
  let counts = measure_counts ?cycles ?cancel rng ~input_probs prog in
  let fc = float_of_int counts.cycles in
  Array.map (fun c -> float_of_int c /. fc) counts.fire
