type t = Positive | Negative

type assignment = t array

let flip = function
  | Positive -> Negative
  | Negative -> Positive

let all_positive n = Array.make n Positive

let flip_at a k =
  let a' = Array.copy a in
  a'.(k) <- flip a'.(k);
  a'

let of_int ~num_outputs code =
  Array.init num_outputs (fun k ->
      if (code lsr k) land 1 = 1 then Negative else Positive)

let to_int a =
  Array.to_list a
  |> List.mapi (fun k p -> match p with Negative -> 1 lsl k | Positive -> 0)
  |> List.fold_left ( lor ) 0

let enumerate ~num_outputs =
  if num_outputs > 24 then
    invalid_arg "Phase.enumerate: more than 24 outputs is not enumerable";
  Seq.init (1 lsl num_outputs) (fun code -> of_int ~num_outputs code)

let random rng ~num_outputs =
  Array.init num_outputs (fun _ ->
      if Dpa_util.Rng.bool rng then Negative else Positive)

let count_negative a =
  Array.fold_left (fun acc p -> match p with Negative -> acc + 1 | Positive -> acc) 0 a

let to_string a =
  String.init (Array.length a) (fun k ->
      match a.(k) with Positive -> '+' | Negative -> '-')

let of_string ~num_outputs s =
  if String.length s <> num_outputs then
    Error
      (Printf.sprintf "phase string %S has %d characters for %d outputs" s (String.length s)
         num_outputs)
  else if String.for_all (fun c -> c = '+' || c = '-') s then
    Ok (Array.init num_outputs (fun k -> if s.[k] = '-' then Negative else Positive))
  else Error "phase string may contain only '+' and '-'"

let equal a b = a = b

let pp ppf = function
  | Positive -> Format.pp_print_string ppf "positive"
  | Negative -> Format.pp_print_string ppf "negative"
