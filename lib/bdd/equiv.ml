module Netlist = Dpa_logic.Netlist
module Gate = Dpa_logic.Gate

type verdict =
  | Equivalent
  | Differ of {
      output : int;
      witness : bool array;
    }
  | Interface_mismatch of string

(* Splice [src]'s gates into [dst], mapping src input k to [inputs].(k);
   returns the dst ids of src's output drivers. *)
let splice dst inputs src =
  let mapping = Array.make (Netlist.size src) (-1) in
  Array.iteri (fun k id -> mapping.(id) <- inputs.(k)) (Netlist.inputs src);
  Netlist.iter_nodes
    (fun i g ->
      match g with
      | Gate.Input -> ()
      | Gate.Const _ | Gate.Buf _ | Gate.Not _ | Gate.And _ | Gate.Or _ | Gate.Xor _ ->
        mapping.(i) <- Netlist.add_gate dst (Gate.map_fanins (fun x -> mapping.(x)) g))
    src;
  Array.map (fun (_, d) -> mapping.(d)) (Netlist.outputs src)

(* Any satisfying assignment of a non-false node, by level. *)
let any_sat m root nvars =
  let assignment = Array.make nvars false in
  let rec walk n =
    if n <> Robdd.bdd_true then begin
      let l = Robdd.level m n in
      if Robdd.high m n <> Robdd.bdd_false then begin
        assignment.(l) <- true;
        walk (Robdd.high m n)
      end
      else walk (Robdd.low m n)
    end
  in
  walk root;
  assignment

let check a b =
  if Netlist.num_inputs a <> Netlist.num_inputs b then
    Interface_mismatch
      (Printf.sprintf "input counts differ: %d vs %d" (Netlist.num_inputs a)
         (Netlist.num_inputs b))
  else if Netlist.num_outputs a <> Netlist.num_outputs b then
    Interface_mismatch
      (Printf.sprintf "output counts differ: %d vs %d" (Netlist.num_outputs a)
         (Netlist.num_outputs b))
  else begin
    let n = Netlist.num_inputs a in
    let miter = Netlist.create ~name:"miter" () in
    let inputs = Array.init n (fun _ -> Netlist.add_input miter) in
    let outs_a = splice miter inputs a in
    let outs_b = splice miter inputs b in
    Array.iteri
      (fun k da -> Netlist.add_output miter (Printf.sprintf "x%d" k) (
           Netlist.add_gate miter (Gate.Xor (da, outs_b.(k)))))
      outs_a;
    (* identity order: BDD level = input position *)
    let built = Build.of_netlist ~order:(Array.init n Fun.id) miter in
    let outs = Netlist.outputs miter in
    let rec scan k =
      if k >= Array.length outs then Equivalent
      else begin
        let _, d = outs.(k) in
        let root = (Build.roots built).(d) in
        if root = Robdd.bdd_false then scan (k + 1)
        else Differ { output = k; witness = any_sat (Build.manager built) root n }
      end
    in
    scan 0
  end

let check_exn a b =
  match check a b with
  | Equivalent -> ()
  | Interface_mismatch msg ->
    Dpa_util.Dpa_error.error (Dpa_util.Dpa_error.Invalid_input ("Equiv.check_exn: " ^ msg))
  | Differ { output; witness } ->
    let bits = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") witness)) in
    Dpa_util.Dpa_error.error
      (Dpa_util.Dpa_error.Internal
         (Printf.sprintf "Equiv.check_exn: output %d differs on input vector %s" output bits))
