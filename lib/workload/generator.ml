module Netlist = Dpa_logic.Netlist
module Builder = Dpa_logic.Builder
module Rng = Dpa_util.Rng

type params = {
  name : string;
  seed : int;
  n_inputs : int;
  n_outputs : int;
  support : int;
  gates_per_output : int;
  max_fanin : int;
  and_bias : float;
  bias_spread : float;
  inverter_prob : float;
  reuse_fraction : float;
}

let default =
  {
    name = "synthetic";
    seed = 1;
    n_inputs = 16;
    n_outputs = 4;
    support = 8;
    gates_per_output = 10;
    max_fanin = 3;
    and_bias = 0.5;
    bias_spread = 0.0;
    inverter_prob = 0.25;
    reuse_fraction = 0.3;
  }

let validate p =
  if p.n_inputs < 2 then invalid_arg "Generator: need at least 2 inputs";
  if p.n_outputs < 1 then invalid_arg "Generator: need at least 1 output";
  if p.support < 2 || p.support > p.n_inputs then
    invalid_arg "Generator: support must be in [2, n_inputs]";
  if p.max_fanin < 2 then invalid_arg "Generator: max_fanin must be at least 2";
  if p.gates_per_output < 1 then invalid_arg "Generator: need at least 1 gate per output"

(* Recency-biased index into a pool of [n] candidates: squaring the
   uniform draw favours recently created nodes, which deepens cones. *)
let biased_index rng n =
  let u = Rng.float rng 1.0 in
  let k = int_of_float (u *. u *. float_of_int n) in
  min (n - 1) k

(* The node [id] may have been simplified to something already in use; a
   proper gate output is guaranteed by combining with fresh literals. *)
let is_proper_gate net id =
  match Netlist.gate net id with
  | Dpa_logic.Gate.And _ | Dpa_logic.Gate.Or _ | Dpa_logic.Gate.Not _ -> true
  | Dpa_logic.Gate.Input | Dpa_logic.Gate.Const _ | Dpa_logic.Gate.Buf _
  | Dpa_logic.Gate.Xor _ -> false

let generate_into b ~inputs p =
  let rng = Rng.create p.seed in
  (* Shallow gates (created early in the previous cone, near the inputs)
     are the sharing currency between neighbouring outputs: real control
     logic shares decoded product terms, not whole deep subtrees, and deep
     sharing would make every phase flip pay duplication across many
     cones at once. *)
  let prev_shallow = ref [] in
  let window_of j =
    let span = p.n_inputs - p.support in
    let offset = if p.n_outputs <= 1 then 0 else j * span / (p.n_outputs - 1) in
    Array.sub inputs offset p.support
  in
  let outputs = ref [] in
  for j = 0 to p.n_outputs - 1 do
    (* alternating the AND/OR mix across outputs gives neighbouring cones
       opposed probability skews, so the power-optimal phases disagree and
       shared logic gets duplicated — the frg1 signature of the paper *)
    let bias =
      let delta = if j mod 2 = 0 then -.p.bias_spread else p.bias_spread in
      Dpa_util.Stats.clamp ~lo:0.05 ~hi:0.95 (p.and_bias +. delta)
    in
    let gate_of rng operands =
      if Rng.bernoulli rng bias then Builder.and_ b operands else Builder.or_ b operands
    in
    let window = window_of j in
    let shared = Array.of_list !prev_shallow in
    let avail = ref (Array.to_list window) in
    let avail_len = ref (List.length !avail) in
    (* an operand is either a reused subfunction from the previous cone
       (with probability reuse_fraction) or a recency-biased local pick *)
    let pick () =
      if Array.length shared > 0 && Rng.bernoulli rng p.reuse_fraction then
        shared.(Rng.int rng (Array.length shared))
      else begin
        let idx = !avail_len - 1 - biased_index rng !avail_len in
        List.nth !avail idx
      end
    in
    (* Gates created for this output that no later gate has read yet; new
       gates consume from here first so the whole cone stays live (real
       netlists have no dead logic, and dead gates would vanish in the
       technology-independent optimization anyway). *)
    let unused = ref [] in
    let take_operand () =
      match !unused with
      | head :: rest when Rng.bernoulli rng 0.8 ->
        unused := rest;
        head
      | _ :: _ | [] -> pick ()
    in
    let maybe_invert op =
      if Rng.bernoulli rng p.inverter_prob then Builder.not_ b op else op
    in
    (* The structurally hashed builder folds complementary operand pairs to
       constants; retrying with fresh operands keeps the cone alive
       instead of letting an absorbed constant swallow it. *)
    let non_constant_gate () =
      let net = Builder.finish b in
      let rec attempt tries =
        let width = 2 + Rng.int rng (p.max_fanin - 1) in
        let operands = List.init width (fun _ -> maybe_invert (take_operand ())) in
        let id = gate_of rng operands in
        match Netlist.gate net id with
        | Dpa_logic.Gate.Const _ when tries > 0 -> attempt (tries - 1)
        | Dpa_logic.Gate.Const _ | Dpa_logic.Gate.Input | Dpa_logic.Gate.Buf _
        | Dpa_logic.Gate.Not _ | Dpa_logic.Gate.And _ | Dpa_logic.Gate.Or _
        | Dpa_logic.Gate.Xor _ -> id
      in
      attempt 8
    in
    let last = ref window.(0) in
    let created_this = ref [] in
    for _ = 1 to p.gates_per_output do
      let id = non_constant_gate () in
      if not (is_proper_gate (Builder.finish b) id) then ()
      else begin
        last := id;
        unused := id :: List.filter (fun u -> u <> id) !unused;
        avail := !avail @ [ id ];
        incr avail_len;
        created_this := id :: !created_this
      end
    done;
    (* sweep the stragglers into the output cone *)
    let out = ref !last in
    let rec sweep () =
      let stragglers = List.filter (fun u -> u <> !out) !unused in
      match stragglers with
      | [] -> ()
      | _ :: _ ->
        let rec chunks = function
          | [] -> []
          | rest ->
            let width = min (List.length rest) (1 + Rng.int rng p.max_fanin) in
            let rec split n = function
              | xs when n = 0 -> ([], xs)
              | [] -> ([], [])
              | x :: xs ->
                let taken, left = split (n - 1) xs in
                (x :: taken, left)
            in
            let taken, left = split width rest in
            taken :: chunks left
        in
        unused := [];
        List.iter (fun chunk -> out := gate_of rng (!out :: chunk)) (chunks stragglers);
        sweep ()
    in
    sweep ();
    (* guarantee a proper, window-dependent gate at the output *)
    let guard = ref 0 in
    let net = Builder.finish b in
    while (not (is_proper_gate net !out)) && !guard < 16 do
      incr guard;
      let x1 = window.(Rng.int rng (Array.length window)) in
      let x2 = window.(Rng.int rng (Array.length window)) in
      out := Builder.or_ b [ !out; Builder.and_ b [ x1; x2 ] ]
    done;
    (* only the earliest (shallowest) gates of this cone are offered for
       reuse by the next output *)
    let shallow_count =
      max 1 (int_of_float (p.reuse_fraction *. float_of_int p.gates_per_output))
    in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    prev_shallow := take shallow_count (List.rev !created_this);
    outputs := (Printf.sprintf "po%d" j, !out) :: !outputs
  done;
  List.iter (fun (name, id) -> Builder.output b name id) (List.rev !outputs)

let combinational p =
  validate p;
  let b = Builder.create ~name:p.name () in
  let inputs =
    Array.init p.n_inputs (fun k -> Builder.input ~name:(Printf.sprintf "pi%d" k) b)
  in
  generate_into b ~inputs p;
  Builder.finish b

(* ---- corpus-scale families ---------------------------------------- *)

(* Shared sliding window: output [j]'s cone reads [support] consecutive
   inputs, offset so neighbouring cones overlap (same scheme as
   [generate_into]). *)
let window_of ~inputs ~n_outputs ~support j =
  let n_inputs = Array.length inputs in
  let span = n_inputs - support in
  let offset = if n_outputs <= 1 then 0 else j * span / (n_outputs - 1) in
  Array.sub inputs offset support

(* XOR decomposed at generation time into the AND/OR/NOT core every
   downstream pass accepts, so raw gate counts reflect what the flow
   synthesizes. The [not x] literals intern, so a chain stage costs ~4
   fresh gates. *)
let xor_gate b x y =
  let nx = Builder.not_ b x and ny = Builder.not_ b y in
  Builder.or_ b [ Builder.and_ b [ x; ny ]; Builder.and_ b [ nx; y ] ]

type parity = {
  name : string;
  seed : int;
  n_inputs : int;
  n_outputs : int;
  support : int;
  stages : int;
  mix_prob : float;
  and_bias : float;
}

let parity_chain p =
  if p.n_inputs < 2 then invalid_arg "Generator.parity_chain: need at least 2 inputs";
  if p.n_outputs < 1 then invalid_arg "Generator.parity_chain: need at least 1 output";
  if p.support < 2 || p.support > p.n_inputs then
    invalid_arg "Generator.parity_chain: support must be in [2, n_inputs]";
  if p.stages < 1 then invalid_arg "Generator.parity_chain: need at least 1 stage";
  if p.mix_prob < 0.0 || p.mix_prob > 1.0 then
    invalid_arg "Generator.parity_chain: mix_prob must lie in [0,1]";
  let b = Builder.create ~name:p.name () in
  let inputs =
    Array.init p.n_inputs (fun k -> Builder.input ~name:(Printf.sprintf "pi%d" k) b)
  in
  let rng = Rng.create p.seed in
  for j = 0 to p.n_outputs - 1 do
    let w = window_of ~inputs ~n_outputs:p.n_outputs ~support:p.support j in
    let t = ref w.(0) in
    for _ = 1 to p.stages do
      let x = w.(Rng.int rng (Array.length w)) in
      let candidate =
        if Rng.bernoulli rng p.mix_prob then begin
          (* an AND/OR stage breaks the pure-parity probability of ½, so
             phase choice has something to optimize *)
          let operands = [ !t; x ] in
          if Rng.bernoulli rng p.and_bias then Builder.and_ b operands
          else Builder.or_ b operands
        end
        else xor_gate b !t x
      in
      (* the interning builder folds x⊕x and absorbed AND/OR stages to
         constants or existing nodes; keep the chain alive instead *)
      if is_proper_gate (Builder.finish b) candidate then t := candidate
    done;
    let net = Builder.finish b in
    let guard = ref 0 in
    while (not (is_proper_gate net !t)) && !guard < 16 do
      incr guard;
      t := xor_gate b !t w.(Rng.int rng (Array.length w))
    done;
    Builder.output b (Printf.sprintf "po%d" j) !t
  done;
  Builder.finish b

(* Ripple addition in "global bit position" space: [acc] plus [row]
   shifted left by [offset]. Every position with a pending carry gets a
   full or half adder, so the carry chain is materialized structurally —
   the heavy-reuse pattern arithmetic arrays stress. *)
let add_at ?max_bits b acc row ~offset =
  let alen = Array.length acc and rlen = Array.length row in
  let n = max alen (offset + rlen) in
  (* [max_bits] truncates provably-zero high bits: when the caller knows
     the running sum fits (a partial-product accumulator never exceeds
     2^(2w)), a carry out of the top position is logically false, and
     generating it would mint bogus always-0 outputs *)
  let n = match max_bits with Some m -> min n m | None -> n in
  let bits = ref [] in
  let carry = ref None in
  let full_add x y c =
    let s = xor_gate b (xor_gate b x y) c in
    let co =
      Builder.or_ b
        [ Builder.and_ b [ x; y ]; Builder.and_ b [ x; c ]; Builder.and_ b [ y; c ] ]
    in
    (s, Some co)
  in
  let half_add x y =
    let s = xor_gate b x y in
    (s, Some (Builder.and_ b [ x; y ]))
  in
  for i = 0 to n - 1 do
    let x = if i < alen then Some acc.(i) else None in
    let y = if i >= offset && i - offset < rlen then Some row.(i - offset) else None in
    let s, co =
      match x, y, !carry with
      | Some x, Some y, Some c -> full_add x y c
      | Some x, Some y, None -> half_add x y
      | Some x, None, Some c | None, Some x, Some c -> half_add x c
      | Some x, None, None | None, Some x, None -> (x, None)
      | None, None, c -> (Option.get c, None)
    in
    carry := co;
    bits := s :: !bits
  done;
  (match !carry, max_bits with
  | Some c, None -> bits := c :: !bits
  | Some c, Some m -> if n < m then bits := c :: !bits
  | None, _ -> ());
  Array.of_list (List.rev !bits)

type arith = { name : string; seed : int; width : int; operands : int }

let validate_arith ~who p =
  if p.width < 2 then invalid_arg (Printf.sprintf "Generator.%s: width must be >= 2" who);
  if p.operands < 2 then
    invalid_arg (Printf.sprintf "Generator.%s: need at least 2 operands" who)

let adder_array p =
  validate_arith ~who:"adder_array" p;
  let b = Builder.create ~name:p.name () in
  (* bit-interleaved input creation: BDD variable order follows node ids,
     and interleaving keeps ripple-carry BDDs compact *)
  let ops = Array.make_matrix p.operands p.width 0 in
  for i = 0 to p.width - 1 do
    for k = 0 to p.operands - 1 do
      ops.(k).(i) <- Builder.input ~name:(Printf.sprintf "a%db%d" k i) b
    done
  done;
  let rng = Rng.create p.seed in
  let order = Array.init p.operands Fun.id in
  Rng.shuffle rng order;
  let acc = ref ops.(order.(0)) in
  for idx = 1 to p.operands - 1 do
    acc := add_at b !acc ops.(order.(idx)) ~offset:0
  done;
  Array.iteri (fun i s -> Builder.output b (Printf.sprintf "s%d" i) s) !acc;
  Builder.finish b

type mult = { name : string; seed : int; width : int }

let multiplier p =
  if p.width < 2 then invalid_arg "Generator.multiplier: width must be >= 2";
  let b = Builder.create ~name:p.name () in
  let a = Array.make p.width 0 and bb = Array.make p.width 0 in
  for i = 0 to p.width - 1 do
    a.(i) <- Builder.input ~name:(Printf.sprintf "a%d" i) b;
    bb.(i) <- Builder.input ~name:(Printf.sprintf "b%d" i) b
  done;
  let row j = Array.init p.width (fun i -> Builder.and_ b [ a.(i); bb.(j) ]) in
  (* row 0 seeds the accumulator (it covers bit position 0); the remaining
     partial-product rows land in seed-shuffled order — the sum is the
     same, the carry-chain structure differs per seed *)
  let rng = Rng.create p.seed in
  let order = Array.init (p.width - 1) (fun k -> k + 1) in
  Rng.shuffle rng order;
  let acc = ref (row 0) in
  Array.iter
    (fun j -> acc := add_at ~max_bits:(2 * p.width) b !acc (row j) ~offset:j)
    order;
  Array.iteri (fun i s -> Builder.output b (Printf.sprintf "p%d" i) s) !acc;
  Builder.finish b

type controller = {
  name : string;
  seed : int;
  n_inputs : int;
  n_outputs : int;
  n_ffs : int;
  q_support : int;
  gates_per_cone : int;
  and_bias : float;
  inverter_prob : float;
}

let controller p =
  if p.n_inputs < 2 then invalid_arg "Generator.controller: need at least 2 inputs";
  if p.n_outputs < 1 then invalid_arg "Generator.controller: need at least 1 output";
  if p.n_ffs < 2 then invalid_arg "Generator.controller: need at least 2 flip-flops";
  if p.q_support < 2 || p.q_support > p.n_ffs then
    invalid_arg "Generator.controller: q_support must be in [2, n_ffs]";
  if p.gates_per_cone < 2 then
    invalid_arg "Generator.controller: need at least 2 gates per cone";
  let b = Builder.create ~name:p.name () in
  let pis =
    Array.init p.n_inputs (fun k -> Builder.input ~name:(Printf.sprintf "pi%d" k) b)
  in
  let qs = Array.init p.n_ffs (fun k -> Builder.input ~name:(Printf.sprintf "q%d" k) b) in
  let rng = Rng.create p.seed in
  (* One bounded-support cone per D pin / primary output. Cones do not
     share logic across each other (unlike [generate_into]) so the support of
     every node stays within its own pool — the sequential probability
     partitioning builds exact BDDs for the whole core and needs that
     bound. *)
  let cone ~forced ~pool =
    let created = ref [] in
    let ncreated = ref 0 in
    let record id =
      created := id :: !created;
      incr ncreated
    in
    let pick () =
      if !ncreated > 0 && Rng.bernoulli rng 0.55 then
        List.nth !created (Rng.int rng !ncreated)
      else pool.(Rng.int rng (Array.length pool))
    in
    let maybe_invert op =
      if Rng.bernoulli rng p.inverter_prob then Builder.not_ b op else op
    in
    let gate_of operands =
      if Rng.bernoulli rng p.and_bias then Builder.and_ b operands
      else Builder.or_ b operands
    in
    let non_constant_gate () =
      let net = Builder.finish b in
      let rec attempt tries =
        let width = 2 + Rng.int rng 2 in
        let operands = List.init width (fun _ -> maybe_invert (pick ())) in
        let id = gate_of operands in
        if (not (is_proper_gate net id)) && tries > 0 then attempt (tries - 1) else id
      in
      attempt 8
    in
    (* the forced operands (wrap-around Q window neighbours) seed the cone
       first, so the s-graph keeps its deterministic cycle structure *)
    (match forced with
    | [] -> ()
    | f ->
      let id = gate_of (List.map maybe_invert f) in
      if is_proper_gate (Builder.finish b) id then record id);
    for _ = 1 to p.gates_per_cone do
      let id = non_constant_gate () in
      if is_proper_gate (Builder.finish b) id then record id
    done;
    (* fold every created gate into the cone output so nothing is dead *)
    let out = ref (match !created with id :: _ -> id | [] -> pool.(0)) in
    let rest = match !created with _ :: tl -> tl | [] -> [] in
    let rec fold = function
      | [] -> ()
      | chunk ->
        let width = min (List.length chunk) (1 + Rng.int rng 3) in
        let rec split n = function
          | xs when n = 0 -> ([], xs)
          | [] -> ([], [])
          | x :: xs ->
            let taken, left = split (n - 1) xs in
            (x :: taken, left)
        in
        let taken, left = split width chunk in
        out := gate_of (!out :: taken);
        fold left
    in
    fold rest;
    let guard = ref 0 in
    let net = Builder.finish b in
    while (not (is_proper_gate net !out)) && !guard < 16 do
      incr guard;
      let x1 = pool.(Rng.int rng (Array.length pool)) in
      let x2 = pool.(Rng.int rng (Array.length pool)) in
      out := Builder.or_ b [ !out; Builder.and_ b [ x1; x2 ] ]
    done;
    !out
  in
  let pi_support = min p.n_inputs (max 2 (p.q_support / 2)) in
  let d_pins =
    Array.init p.n_ffs (fun i ->
        (* contiguous wrap-around window plus one long-range tap: one big
           SCC with dense local cycles — the MFVS reductions cannot peel
           it apart without real (greedy or symmetry) work *)
        let qwin =
          Array.init p.q_support (fun k -> qs.((i + 1 + k) mod p.n_ffs))
        in
        let far = qs.((i + (p.n_ffs / 2)) mod p.n_ffs) in
        let piwin =
          Array.init pi_support (fun k -> pis.((i + k) mod p.n_inputs))
        in
        let pool = Array.concat [ qwin; [| far |]; piwin ] in
        cone ~forced:[ qs.((i + 1) mod p.n_ffs); far ] ~pool)
  in
  for j = 0 to p.n_outputs - 1 do
    let qwin =
      Array.init (min 4 p.n_ffs) (fun k -> qs.((j + k * 3) mod p.n_ffs))
    in
    let piwin =
      Array.init (min p.n_inputs (pi_support * 2)) (fun k ->
          pis.((j + k) mod p.n_inputs))
    in
    let pool = Array.append qwin piwin in
    Builder.output b (Printf.sprintf "po%d" j) (cone ~forced:[] ~pool)
  done;
  let net = Builder.finish b in
  let ffs =
    Array.map (fun d -> { Dpa_seq.Seq_netlist.data = d; init = false }) d_pins
  in
  Dpa_seq.Seq_netlist.create ~comb:net ~n_real_inputs:p.n_inputs ~ffs

let sequential p ~n_ffs =
  validate p;
  if n_ffs < 1 then invalid_arg "Generator.sequential: need at least 1 flip-flop";
  let b = Builder.create ~name:p.name () in
  let real = Array.init p.n_inputs (fun k -> Builder.input ~name:(Printf.sprintf "pi%d" k) b) in
  let qs = Array.init n_ffs (fun k -> Builder.input ~name:(Printf.sprintf "q%d" k) b) in
  let p' = { p with n_inputs = p.n_inputs + n_ffs } in
  generate_into b ~inputs:(Array.append real qs) p';
  let net = Builder.finish b in
  (* D pins tap random proper gates (deterministically from the seed) *)
  let rng = Rng.create (p.seed lxor 0x5EC1) in
  let gates = ref [] in
  Netlist.iter_nodes (fun i _ -> if is_proper_gate net i then gates := i :: !gates) net;
  let gate_arr = Array.of_list !gates in
  if Array.length gate_arr = 0 then invalid_arg "Generator.sequential: no gates generated";
  let ffs =
    Array.init n_ffs (fun _ ->
        { Dpa_seq.Seq_netlist.data = Rng.pick rng gate_arr; init = false })
  in
  Dpa_seq.Seq_netlist.create ~comb:net ~n_real_inputs:p.n_inputs ~ffs
