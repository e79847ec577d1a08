type resource = Bdd_nodes | Wall_clock

type budget_report = {
  resource : resource;
  limit : float;
  spent : float;
  context : string;
}

type cancel_reason =
  | Deadline of { limit_s : float; elapsed_s : float }
  | Aborted of string

type t =
  | Parse of { source : string; line : int option; message : string }
  | Invalid_input of string
  | Unsupported of string
  | Budget of budget_report
  | Cancelled of cancel_reason
  | Overloaded of { retry_after_ms : int }
  | Io of string
  | Internal of string

exception Error of t

exception Budget_exceeded of budget_report

let error t = raise (Error t)

let budget_exceeded ?(context = "") ~resource ~limit ~spent () =
  raise (Budget_exceeded { resource; limit; spent; context })

let resource_to_string = function
  | Bdd_nodes -> "BDD nodes"
  | Wall_clock -> "wall-clock seconds"

let budget_to_string { resource; limit; spent; context } =
  let quantity =
    match resource with
    | Bdd_nodes -> Printf.sprintf "%.0f of at most %.0f" spent limit
    | Wall_clock -> Printf.sprintf "%.3f of at most %.3f" spent limit
  in
  Printf.sprintf "resource budget exceeded%s: %s %s"
    (if context = "" then "" else Printf.sprintf " (%s)" context)
    quantity (resource_to_string resource)

let to_string = function
  | Parse { source; line; message } ->
    let where =
      match line with
      | Some l -> Printf.sprintf "%s: line %d: " source l
      | None -> Printf.sprintf "%s: " source
    in
    (* parser messages already carry "line N:" when they know it *)
    let already_located =
      String.length message >= 5 && String.sub message 0 5 = "line "
    in
    if already_located then Printf.sprintf "%s: %s" source message
    else where ^ message
  | Invalid_input msg -> "invalid input: " ^ msg
  | Unsupported msg -> "unsupported: " ^ msg
  | Budget b -> budget_to_string b
  | Cancelled (Deadline { limit_s; elapsed_s }) ->
    Printf.sprintf "deadline exceeded: %.3f s elapsed of a %.3f s deadline" elapsed_s
      limit_s
  | Cancelled (Aborted reason) -> "cancelled: " ^ reason
  | Overloaded { retry_after_ms } ->
    Printf.sprintf "server overloaded; retry after %d ms" retry_after_ms
  | Io msg -> msg
  | Internal msg -> "internal error: " ^ msg

(* sysexits(3)-style codes so scripts can distinguish failure classes:
   65 EX_DATAERR, 66 EX_NOINPUT, 69 EX_UNAVAILABLE, 70 EX_SOFTWARE,
   75 EX_TEMPFAIL (a retryable condition: blown budget with fallback
   disabled, a cancelled/deadline-exceeded request, or shed load). *)
let exit_code = function
  | Parse _ -> 65
  | Invalid_input _ -> 65
  | Unsupported _ -> 69
  | Budget _ -> 75
  | Cancelled _ -> 75
  | Overloaded _ -> 75
  | Io _ -> 66
  | Internal _ -> 70

let rec of_exn = function
  | Error t -> Some t
  | Budget_exceeded b -> Some (Budget b)
  | Sys_error msg -> Some (Io msg)
  | Invalid_argument msg -> Some (Invalid_input msg)
  | Failure msg -> Some (Internal msg)
  | Fun.Finally_raised e -> of_exn e
  | _ -> None

let protect f =
  match f () with
  | v -> Ok v
  | exception e -> ( match of_exn e with Some t -> Result.Error t | None -> raise e)
