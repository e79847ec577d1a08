type latch = { data : int; init : bool }

type sequential = {
  comb : Netlist.t;
  n_real_inputs : int;
  latches : latch array;
}

(* ---------------- lexing: comments, continuations, tokens ------------ *)

type line = { num : int; tokens : string list }

let tokenize text =
  let raw = List.mapi (fun i line -> (i + 1, line)) (String.split_on_char '\n' text) in
  (* join '\' continuations, remembering the first physical line *)
  let rec join acc pending = function
    | [] -> (
      match pending with
      | Some (num, buf) -> List.rev ((num, buf) :: acc)
      | None -> List.rev acc)
    | (n, line) :: rest ->
      let stripped =
        match String.index_opt line '#' with
        | Some k -> String.sub line 0 k
        | None -> line
      in
      let trimmed = String.trim stripped in
      let continued = String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '\\' in
      let body =
        if continued then String.sub trimmed 0 (String.length trimmed - 1) else trimmed
      in
      (match pending with
      | Some (num, buf) ->
        let merged = buf ^ " " ^ body in
        if continued then join acc (Some (num, merged)) rest
        else join ((num, merged) :: acc) None rest
      | None ->
        if continued then join acc (Some (n, body)) rest
        else join ((n, body) :: acc) None rest)
  in
  join [] None raw
  |> List.filter_map (fun (num, body) ->
         match List.filter (fun s -> s <> "") (String.split_on_char ' ' body) with
         | [] -> None
         | tokens ->
           let tokens =
             List.concat_map (fun t -> String.split_on_char '\t' t) tokens
             |> List.filter (fun s -> s <> "")
           in
           Some { num; tokens })

(* ---------------- parsing into declarations ------------------------- *)

type cover = {
  out_name : string;
  in_names : string list;
  rows : (int * string * char) list;  (** physical line, input pattern, output value *)
  decl_line : int;
}

type decls = {
  mutable model : string;
  mutable input_names : string list; (* reversed *)
  mutable output_names : string list; (* reversed *)
  mutable covers : cover list; (* reversed *)
  mutable latch_decls : (string * string * bool * int) list; (* in, out, init, line; reversed *)
}

let parse_decls text =
  let lines = tokenize text in
  let d =
    { model = "blif"; input_names = []; output_names = []; covers = []; latch_decls = [] }
  in
  let error num fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" num s)) fmt in
  let rec statements = function
    | [] -> Ok ()
    | { num; tokens } :: rest -> (
      match tokens with
      | ".model" :: names ->
        (match names with name :: _ -> d.model <- name | [] -> ());
        statements rest
      | ".inputs" :: names ->
        d.input_names <- List.rev_append names d.input_names;
        statements rest
      | ".outputs" :: names ->
        d.output_names <- List.rev_append names d.output_names;
        statements rest
      | ".latch" :: args -> (
        match args with
        | input :: output :: tail ->
          let init =
            match List.rev tail with
            | last :: _ when last = "1" -> true
            | _ :: _ | [] -> false
          in
          d.latch_decls <- (input, output, init, num) :: d.latch_decls;
          statements rest
        | [ _ ] | [] -> error num ".latch needs an input and an output")
      | ".names" :: args -> (
        match List.rev args with
        | out_name :: rev_ins ->
          let in_names = List.rev rev_ins in
          let rec take_rows acc = function
            | { num = rnum; tokens = rtokens } :: more
              when (match rtokens with
                   | t :: _ -> String.length t > 0 && t.[0] <> '.'
                   | [] -> false) -> (
              match rtokens with
              | [ pattern; value ] when List.length in_names > 0 ->
                if String.length pattern <> List.length in_names then
                  Error
                    (Printf.sprintf
                       "line %d: pattern %S is %d characters wide for %d inputs" rnum
                       pattern (String.length pattern) (List.length in_names))
                else if value <> "0" && value <> "1" then
                  Error (Printf.sprintf "line %d: output value must be 0 or 1" rnum)
                else take_rows ((rnum, pattern, value.[0]) :: acc) more
              | [ value ] when in_names = [] ->
                if value <> "0" && value <> "1" then
                  Error (Printf.sprintf "line %d: constant cover row must be 0 or 1" rnum)
                else take_rows ((rnum, "", value.[0]) :: acc) more
              | _ -> Error (Printf.sprintf "line %d: malformed cover row" rnum))
            | remaining -> Ok (List.rev acc, remaining)
          in
          (match take_rows [] rest with
          | Error e -> Error e
          | Ok (rows, remaining) ->
            d.covers <- { out_name; in_names; rows; decl_line = num } :: d.covers;
            statements remaining)
        | [] -> error num ".names needs at least an output")
      | [ ".end" ] -> Ok ()
      | ".exdc" :: _ | ".subckt" :: _ | ".search" :: _ ->
        error num "unsupported BLIF construct %s" (List.hd tokens)
      | tok :: _ ->
        if String.length tok > 0 && tok.[0] = '.' then error num "unknown directive %s" tok
        else error num "cover row outside a .names block"
      | [] -> statements rest)
  in
  match statements lines with
  | Error e -> Error e
  | Ok () -> Ok d

(* ---------------- elaboration --------------------------------------- *)

let build_cover b env cover =
  let resolve name =
    match Hashtbl.find_opt env name with
    | Some id -> Ok id
    | None -> Error (Printf.sprintf "line %d: unknown signal %S" cover.decl_line name)
  in
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match resolve n with Ok id -> resolve_all (id :: acc) rest | Error e -> Error e)
  in
  match resolve_all [] cover.in_names with
  | Error e -> Error e
  | Ok input_ids -> (
    let input_ids = Array.of_list input_ids in
    match cover.rows with
    | [] -> Ok (Builder.const b false)
    | (_, _, first_value) :: _ -> (
      match List.find_opt (fun (_, _, v) -> v <> first_value) cover.rows with
      | Some (rnum, _, _) ->
        Error
          (Printf.sprintf "line %d: cover mixes on-set and off-set rows (.names at line %d)"
             rnum cover.decl_line)
      | None ->
        (* One AND term per row; any malformed character is an explicit
           [Error] carrying the row's own line number — nothing here raises. *)
        let product rnum pattern =
          let rec literals k acc =
            if k = String.length pattern then Ok acc
            else
              match pattern.[k] with
              | '1' -> literals (k + 1) (input_ids.(k) :: acc)
              | '0' -> literals (k + 1) (Builder.not_ b input_ids.(k) :: acc)
              | '-' -> literals (k + 1) acc
              | c ->
                Error
                  (Printf.sprintf "line %d: bad cover character %C in pattern %S" rnum c
                     pattern)
          in
          match literals 0 [] with
          | Error e -> Error e
          | Ok [] -> Ok (Builder.const b true)
          | Ok lits -> Ok (Builder.and_ b lits)
        in
        let rec products acc = function
          | [] -> Ok (List.rev acc)
          | (rnum, pattern, _) :: rest -> (
            match product rnum pattern with
            | Ok p -> products (p :: acc) rest
            | Error e -> Error e)
        in
        match products [] cover.rows with
        | Error e -> Error e
        | Ok [ single ] ->
          Ok (if first_value = '1' then single else Builder.not_ b single)
        | Ok terms ->
          let union = Builder.or_ b terms in
          Ok (if first_value = '1' then union else Builder.not_ b union)))

(* Order covers so that every cover's inputs are built first. *)
let order_covers d ~external_names =
  let by_output = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace by_output c.out_name c) d.covers;
  let done_ = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace done_ n ()) external_names;
  let visiting = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    if Hashtbl.mem done_ name then Ok ()
    else if Hashtbl.mem visiting name then
      Error (Printf.sprintf "combinational cycle through signal %S" name)
    else
      match Hashtbl.find_opt by_output name with
      | None -> Error (Printf.sprintf "undriven signal %S" name)
      | Some cover ->
        Hashtbl.replace visiting name ();
        let rec deps = function
          | [] -> Ok ()
          | n :: rest -> ( match visit n with Ok () -> deps rest | Error e -> Error e)
        in
        (match deps cover.in_names with
        | Error e -> Error e
        | Ok () ->
          Hashtbl.remove visiting name;
          Hashtbl.replace done_ name ();
          order := cover :: !order;
          Ok ())
  in
  let rec all = function
    | [] -> Ok (List.rev !order)
    | c :: rest -> ( match visit c.out_name with Ok () -> all rest | Error e -> Error e)
  in
  all (List.rev d.covers)

let elaborate d =
  let input_names = List.rev d.input_names in
  let latch_decls = List.rev d.latch_decls in
  let latch_outputs = List.map (fun (_, out, _, _) -> out) latch_decls in
  let b = Builder.create ~name:d.model () in
  let env = Hashtbl.create 64 in
  let declare_input name =
    if Hashtbl.mem env name then Error (Printf.sprintf "duplicate signal %S" name)
    else begin
      Hashtbl.replace env name (Builder.input ~name b);
      Ok ()
    end
  in
  let rec declare_all = function
    | [] -> Ok ()
    | n :: rest -> ( match declare_input n with Ok () -> declare_all rest | Error e -> Error e)
  in
  match declare_all (input_names @ latch_outputs) with
  | Error e -> Error e
  | Ok () -> (
    match order_covers d ~external_names:(input_names @ latch_outputs) with
    | Error e -> Error e
    | Ok ordered ->
      let rec build = function
        | [] -> Ok ()
        | cover :: rest -> (
          match build_cover b env cover with
          | Error e -> Error e
          | Ok id ->
            Hashtbl.replace env cover.out_name id;
            build rest)
      in
      (match build ordered with
      | Error e -> Error e
      | Ok () ->
        let resolve name =
          match Hashtbl.find_opt env name with
          | Some id -> Ok id
          | None -> Error (Printf.sprintf "undriven output %S" name)
        in
        let rec outputs = function
          | [] -> Ok ()
          | name :: rest -> (
            match resolve name with
            | Ok id ->
              Builder.output b name id;
              outputs rest
            | Error e -> Error e)
        in
        (match outputs (List.rev d.output_names) with
        | Error e -> Error e
        | Ok () ->
          let rec latch_data acc = function
            | [] -> Ok (List.rev acc)
            | (input, _, init, num) :: rest -> (
              match Hashtbl.find_opt env input with
              | Some id -> latch_data ({ data = id; init } :: acc) rest
              | None -> Error (Printf.sprintf "line %d: undriven latch input %S" num input))
          in
          (match latch_data [] latch_decls with
          | Error e -> Error e
          | Ok latches ->
            Ok
              {
                comb = Builder.finish b;
                n_real_inputs = List.length input_names;
                latches = Array.of_list latches;
              }))))

(* Physical line count of the source, for the parse span (computed only
   when tracing is live, so the common path never scans the text twice). *)
let count_lines text =
  let n = ref 1 in
  String.iter (fun c -> if c = '\n' then Stdlib.incr n) text;
  !n

let sequential_of_string text =
  Dpa_obs.Trace.with_span "blif.parse" @@ fun () ->
  if Dpa_obs.Trace.is_enabled () then
    Dpa_obs.Trace.add_args
      [
        ("lines", Dpa_obs.Trace.Int (count_lines text));
        ("bytes", Dpa_obs.Trace.Int (String.length text));
      ];
  let result = match parse_decls text with Error e -> Error e | Ok d -> elaborate d in
  (match result with
  | Ok { comb; latches; _ } ->
    Dpa_obs.Trace.add_args
      [
        ("gates", Dpa_obs.Trace.Int (Netlist.gate_count comb));
        ("latches", Dpa_obs.Trace.Int (Array.length latches));
      ]
  | Error _ -> Dpa_obs.Trace.add_args [ ("error", Dpa_obs.Trace.Bool true) ]);
  result

let of_string text =
  match sequential_of_string text with
  | Error e -> Error e
  | Ok { comb; latches; _ } ->
    if Array.length latches > 0 then
      Error "model contains .latch statements; use sequential_of_string"
    else Ok comb

(* ---------------- writing ------------------------------------------- *)

(* Unique label per node: explicit names win; unnamed nodes get "n<id>",
   suffixed with underscores if a user name already claims that token. *)
let make_labels t =
  let used = Hashtbl.create 16 in
  Netlist.iter_nodes
    (fun i _ ->
      match Netlist.node_name t i with
      | Some n -> Hashtbl.replace used n ()
      | None -> ())
    t;
  Array.init (Netlist.size t) (fun i ->
      match Netlist.node_name t i with
      | Some n -> n
      | None ->
        let rec fresh candidate =
          if Hashtbl.mem used candidate then fresh (candidate ^ "_") else candidate
        in
        let label = fresh (Printf.sprintf "n%d" i) in
        Hashtbl.replace used label ();
        label)

(* Writer core shared by the combinational and sequential exporters:
   [pseudo_inputs] are netlist inputs that must NOT appear in .inputs
   (latch outputs), [extra] is appended before .end. *)
let write_model ?(pseudo_inputs = []) ?(extra = "") t =
  let labels = make_labels t in
  let node_label _ i = labels.(i) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" (Netlist.name t));
  let names ids = String.concat " " (List.map (node_label t) ids) in
  let real_inputs =
    List.filter
      (fun id -> not (List.mem id pseudo_inputs))
      (Array.to_list (Netlist.inputs t))
  in
  Buffer.add_string buf (".inputs " ^ names real_inputs ^ "\n");
  Buffer.add_string buf
    (".outputs "
    ^ String.concat " " (Array.to_list (Array.map fst (Netlist.outputs t)))
    ^ "\n");
  let cover out_label in_ids rows =
    Buffer.add_string buf (Printf.sprintf ".names %s %s\n" (names in_ids) out_label);
    List.iter (fun row -> Buffer.add_string buf (row ^ "\n")) rows
  in
  Netlist.iter_nodes
    (fun i g ->
      let lbl = node_label t i in
      match g with
      | Gate.Input -> ()
      | Gate.Const b ->
        Buffer.add_string buf (Printf.sprintf ".names %s\n" lbl);
        if b then Buffer.add_string buf "1\n"
      | Gate.Buf x -> cover lbl [ x ] [ "1 1" ]
      | Gate.Not x -> cover lbl [ x ] [ "0 1" ]
      | Gate.And xs ->
        cover lbl (Array.to_list xs) [ String.make (Array.length xs) '1' ^ " 1" ]
      | Gate.Or xs ->
        let w = Array.length xs in
        let rows =
          List.init w (fun k ->
              String.init w (fun j -> if j = k then '1' else '-') ^ " 1")
        in
        cover lbl (Array.to_list xs) rows
      | Gate.Xor (a, b) -> cover lbl [ a; b ] [ "10 1"; "01 1" ])
    t;
  (* alias covers connect PO names to their drivers *)
  Array.iter
    (fun (po, driver) ->
      if po <> node_label t driver then cover po [ driver ] [ "1 1" ])
    (Netlist.outputs t);
  Buffer.add_string buf extra;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let to_string t = write_model t

let sequential_to_string { comb; n_real_inputs; latches } =
  let labels = make_labels comb in
  let node_label _ i = labels.(i) in
  let ins = Netlist.inputs comb in
  let pseudo_inputs =
    Array.to_list (Array.sub ins n_real_inputs (Array.length ins - n_real_inputs))
  in
  let buf = Buffer.create 128 in
  Array.iteri
    (fun k { data; init } ->
      let q = ins.(n_real_inputs + k) in
      Buffer.add_string buf
        (Printf.sprintf ".latch %s %s re clk %d\n" (node_label comb data)
           (node_label comb q) (Bool.to_int init)))
    latches;
  write_model ~pseudo_inputs ~extra:(Buffer.contents buf) comb
