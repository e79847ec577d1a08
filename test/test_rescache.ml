(* The result cache end to end: canonical structural hashing (alpha /
   insertion-order / dead-logic invariance), cache-key composition,
   exact LRU bounds, snapshot persistence with corrupt-file
   tolerance, and — over a real server — byte identity of cached
   responses against cold ones for every cacheable request kind, at
   both intra-request pool widths. *)

module Jsonlite = Dpa_util.Jsonlite
module Protocol = Dpa_service.Protocol
module Rescache = Dpa_service.Rescache
module Handler = Dpa_service.Handler
module Client = Dpa_service.Client
module Struct_hash = Dpa_logic.Struct_hash

let frg1 = "../data/frg1_synthetic.blif"

(* ---- structural hashing ------------------------------------------- *)

(* the same 3-input function four ways: as written; alpha-renamed with
   the two independent gates declared in the other order; with a dead
   gate appended; and with one operator genuinely changed *)
let dln_base =
  ".model m\n.inputs a b c\nt1 = and a b\nt2 = or b c\ny = xor t1 t2\n.outputs y\n"

let dln_renamed_reordered =
  ".model m\n.inputs p q r\nu2 = or q r\nu1 = and p q\ny = xor u1 u2\n.outputs y\n"

let dln_dead_gate =
  ".model m\n.inputs a b c\nt1 = and a b\nt2 = or b c\ndead = and a c\n\
   y = xor t1 t2\n.outputs y\n"

let dln_other_op =
  ".model m\n.inputs a b c\nt1 = or a b\nt2 = or b c\ny = xor t1 t2\n.outputs y\n"

let dln_other_po =
  ".model m\n.inputs a b c\nt1 = and a b\nt2 = or b c\nz = xor t1 t2\n.outputs z\n"

let load text = Handler.load (Protocol.Inline { text; format = `Dln })

let test_struct_hash_invariances () =
  let d = Struct_hash.digest (load dln_base) in
  Alcotest.(check int) "32-char hex" 32 (String.length d);
  Alcotest.(check string)
    "alpha-rename + reorder is invisible" d
    (Struct_hash.digest (load dln_renamed_reordered));
  Alcotest.(check string)
    "dead logic is invisible" d
    (Struct_hash.digest (load dln_dead_gate));
  Alcotest.(check bool)
    "a changed operator is visible" true
    (d <> Struct_hash.digest (load dln_other_op));
  Alcotest.(check bool)
    "a renamed primary output is visible" true
    (d <> Struct_hash.digest (load dln_other_po))

(* ---- key composition ---------------------------------------------- *)

let estimate ?(input_prob = 0.5) ?phases ?budget text =
  Protocol.Estimate
    { source = Protocol.Inline { text; format = `Dln }; input_prob; phases; budget }

let optimize ?(seed = 1) text =
  Protocol.Optimize
    {
      source = Protocol.Inline { text; format = `Dln };
      input_prob = 0.5;
      seed;
      budget = None;
    }

let key r = Rescache.key r

let check_some_eq msg a b =
  match (a, b) with
  | Some a, Some b -> Alcotest.(check string) msg a b
  | _ -> Alcotest.failf "%s: a request was unexpectedly uncacheable" msg

let check_some_neq msg a b =
  match (a, b) with
  | Some a, Some b -> Alcotest.(check bool) msg true (a <> b)
  | _ -> Alcotest.failf "%s: a request was unexpectedly uncacheable" msg

let test_key_composition () =
  (* structural invariance carries through to the key *)
  check_some_eq "renamed netlist shares the key" (key (estimate dln_base))
    (key (estimate dln_renamed_reordered));
  (* every response-relevant parameter separates keys *)
  check_some_neq "input_prob is in the key" (key (estimate dln_base))
    (key (estimate ~input_prob:0.25 dln_base));
  check_some_neq "phases is in the key" (key (estimate dln_base))
    (key (estimate ~phases:"+-+" dln_base));
  check_some_neq "command is in the key" (key (estimate dln_base))
    (key (optimize dln_base));
  check_some_eq "seed is not in the key" (key (optimize ~seed:1 dln_base))
    (key (optimize ~seed:2 dln_base));
  check_some_neq "budget is in the key" (key (estimate dln_base))
    (key
       (estimate
          ~budget:
            {
              Protocol.max_bdd_nodes = Some 4096;
              deadline_s = None;
              fallback = Dpa_power.Engine.Simulate;
            }
          dln_base))

let test_key_refusals () =
  let uncacheable msg r = Alcotest.(check bool) msg true (key r = None) in
  uncacheable "ping" Protocol.Ping;
  uncacheable "stats" Protocol.Stats;
  uncacheable "shutdown" Protocol.Shutdown;
  uncacheable "info"
    (Protocol.Info { source = Protocol.Inline { text = dln_base; format = `Dln } });
  uncacheable "a deadline makes the result wall-clock dependent"
    (estimate
       ~budget:
         {
           Protocol.max_bdd_nodes = None;
           deadline_s = Some 1.0;
           fallback = Dpa_power.Engine.No_fallback;
         }
       dln_base);
  uncacheable "an unloadable source yields no key (cold path reports it)"
    (estimate ".model broken\n.inputs a\ny = frob a\n.outputs y\n")

let test_compare_key_includes_name () =
  let cmp text =
    Rescache.key
      (Protocol.Compare
         {
           source = Protocol.Inline { text; format = `Dln };
           input_prob = 0.5;
           seed = 1;
           budget = None;
         })
  in
  let renamed_model =
    ".model m2\n.inputs a b c\nt1 = and a b\nt2 = or b c\ny = xor t1 t2\n.outputs y\n"
  in
  (* compare echoes the circuit name in its response, estimate does not:
     the name must split compare keys while estimate keys still merge *)
  check_some_neq "compare: model name is in the key" (cmp dln_base) (cmp renamed_model);
  check_some_eq "estimate: model name is not" (key (estimate dln_base))
    (key (estimate renamed_model))

(* ---- the envelope splice ------------------------------------------ *)

let test_ok_response_text_identity () =
  List.iter
    (fun (id, result) ->
      Alcotest.(check string)
        (Printf.sprintf "splice id=%d" id)
        (Protocol.ok_response ~id ~cmd:"estimate" result)
        (Protocol.ok_response_text ~id ~cmd:"estimate" (Jsonlite.encode result)))
    [
      (1, Jsonlite.Obj [ ("power", Jsonlite.Num 0.30000000000000004) ]);
      (999999, Jsonlite.Obj []);
      (* an id big enough to betray any naive %.0f float printing *)
      (1 lsl 50, Jsonlite.Obj [ ("xs", Jsonlite.Arr [ Jsonlite.Num 1e-17 ]) ]);
    ]

(* ---- LRU bounds ---------------------------------------------------- *)

let hex s = Digest.to_hex (Digest.string s)

let test_lru_entry_bound () =
  let t = Rescache.create ~max_bytes:1_000_000 ~max_entries:2 () in
  let put k = Rescache.store t ~key:(hex k) ~cmd:"estimate" ~result:("{\"v\":" ^ k ^ "}") in
  put "1";
  put "2";
  put "3";
  Alcotest.(check (option string)) "LRU entry evicted" None (Rescache.find t (hex "1"));
  Alcotest.(check bool) "newer entries survive" true (Rescache.find t (hex "2") <> None);
  (* a find refreshes recency: "2" must now outlive "3" *)
  put "4";
  Alcotest.(check (option string)) "unrefreshed entry evicted" None
    (Rescache.find t (hex "3"));
  Alcotest.(check (option string))
    "refreshed entry survives" (Some "{\"v\":2}") (Rescache.find t (hex "2"));
  Alcotest.(check bool) "hits counted" true (Rescache.hits t >= 2);
  Alcotest.(check bool) "misses counted" true (Rescache.misses t >= 2);
  (* the bound is exact: after 200 distinct stores exactly the last five
     of them are resident *)
  let t = Rescache.create ~max_bytes:1_000_000 ~max_entries:5 () in
  let keys = List.init 200 (fun i -> hex (string_of_int i)) in
  List.iter (fun k -> Rescache.store t ~key:k ~cmd:"estimate" ~result:"{}") keys;
  Alcotest.(check (list bool))
    "the five most recent survive"
    (List.init 200 (fun i -> i >= 195))
    (List.map (fun k -> Rescache.find t k <> None) keys)

let test_lru_byte_bound () =
  (* per-entry size = 64 overhead + 32 key + 8 cmd + payload; two
     100-byte payloads fit a 450-byte cache, a third forces eviction *)
  let t = Rescache.create ~max_bytes:450 ~max_entries:100 () in
  let payload = "{\"p\":\"" ^ String.make 93 'x' ^ "\"}" in
  Rescache.store t ~key:(hex "a") ~cmd:"estimate" ~result:payload;
  Rescache.store t ~key:(hex "b") ~cmd:"estimate" ~result:payload;
  (* this probe also refreshes "a": the byte bound must now fall on "b" *)
  Alcotest.(check bool) "two entries fit" true (Rescache.find t (hex "a") <> None);
  Rescache.store t ~key:(hex "c") ~cmd:"estimate" ~result:payload;
  Alcotest.(check (option string))
    "byte bound evicts the LRU entry" None
    (Rescache.find t (hex "b"));
  Alcotest.(check bool) "newest resident" true (Rescache.find t (hex "c") <> None);
  (* an entry bigger than the whole cache is silently not stored *)
  let huge = "{\"p\":\"" ^ String.make 600 'y' ^ "\"}" in
  Rescache.store t ~key:(hex "d") ~cmd:"estimate" ~result:huge;
  Alcotest.(check (option string)) "oversized entry refused" None
    (Rescache.find t (hex "d"));
  (* any entry up to the whole byte bound is stored *)
  let t = Rescache.create ~max_bytes:1_000_000 ~max_entries:100 () in
  let big = "{\"p\":\"" ^ String.make 100_000 'z' ^ "\"}" in
  Rescache.store t ~key:(hex "e") ~cmd:"estimate" ~result:big;
  Alcotest.(check (option string)) "100 KB entry in a 1 MB cache" (Some big)
    (Rescache.find t (hex "e"))

(* ---- snapshots ----------------------------------------------------- *)

let with_temp f =
  let path = Filename.temp_file "dpa_rescache_test" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  f path

let entries_of t =
  match Rescache.stats_json t with
  | Jsonlite.Obj fields -> (
    match List.assoc_opt "entries" fields with
    | Some (Jsonlite.Num n) -> int_of_float n
    | _ -> -1)
  | _ -> -1

let test_snapshot_roundtrip () =
  with_temp @@ fun path ->
  let a = Rescache.create ~max_bytes:1_000_000 ~max_entries:100 () in
  let payloads =
    List.init 5 (fun i -> (hex (string_of_int i), Printf.sprintf "{\"v\":%d}" i))
  in
  List.iter (fun (k, r) -> Rescache.store a ~key:k ~cmd:"estimate" ~result:r) payloads;
  (match Rescache.save a path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  let b = Rescache.create ~max_bytes:1_000_000 ~max_entries:100 () in
  (match Rescache.load b path with
  | `Loaded 5 -> ()
  | `Loaded n -> Alcotest.failf "loaded %d of 5 entries" n
  | `Missing -> Alcotest.fail "snapshot file not found"
  | `Rejected r -> Alcotest.failf "valid snapshot rejected: %s" r);
  List.iter
    (fun (k, r) ->
      Alcotest.(check (option string)) "payload byte-preserved" (Some r)
        (Rescache.find b k))
    payloads

let test_snapshot_missing_and_corrupt () =
  with_temp @@ fun path ->
  Sys.remove path;
  let fresh () = Rescache.create ~max_bytes:1_000_000 ~max_entries:100 () in
  (match Rescache.load (fresh ()) path with
  | `Missing -> ()
  | _ -> Alcotest.fail "absent file must be `Missing, not an error");
  (* build one valid snapshot, then derive corruptions from it *)
  let a = fresh () in
  Rescache.store a ~key:(hex "k") ~cmd:"estimate" ~result:"{\"v\":1}";
  (match Rescache.save a path with Ok () -> () | Error e -> Alcotest.fail e);
  let valid =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let rejected msg s =
    write s;
    let t = fresh () in
    (match Rescache.load t path with
    | `Rejected _ -> ()
    | `Loaded n -> Alcotest.failf "%s: accepted (%d entries)" msg n
    | `Missing -> Alcotest.failf "%s: reported missing" msg);
    Alcotest.(check int) (msg ^ ": nothing became visible") 0 (entries_of t)
  in
  let replace ~sub ~by s =
    let n = String.length sub in
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    while !i <= String.length s - n do
      if String.sub s !i n = sub then begin
        Buffer.add_string b by;
        i := !i + n
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.add_string b (String.sub s !i (String.length s - !i));
    Buffer.contents b
  in
  rejected "outright garbage" "not a snapshot\n";
  rejected "wrong magic" (replace ~sub:"dpa-rescache" ~by:"other-cache" valid);
  rejected "version skew"
    (replace
       ~sub:(Printf.sprintf "\"version\":%d" Rescache.snapshot_version)
       ~by:"\"version\":9999" valid);
  rejected "truncated body"
    (String.sub valid 0 (String.index valid '\n' + 1));
  (* the pristine bytes still load: the corruptions above were the
     only thing being rejected *)
  write valid;
  match Rescache.load (fresh ()) path with
  | `Loaded 1 -> ()
  | _ -> Alcotest.fail "pristine snapshot no longer loads"

(* ---- the cache over a real server --------------------------------- *)

let parse_ok line =
  match Protocol.parse_response line with
  | Ok { Protocol.ok = true; result; _ } -> result
  | Ok _ -> Alcotest.failf "error response: %s" line
  | Error m -> Alcotest.failf "unparseable response: %s" m

let cache_stat ~socket field =
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let r =
    Client.request c
      (Protocol.request_line
         { Protocol.id = 424242; request = Protocol.Stats; cache = `Use })
  in
  match Jsonlite.member_opt "cache" (parse_ok r) with
  | Some cache -> (
    match Jsonlite.member_opt field cache with
    | Some (Jsonlite.Num n) -> int_of_float n
    | _ -> Alcotest.failf "no cache.%s in %s" field r)
  | None -> Alcotest.failf "stats carries no cache sub-object: %s" r

let requests_of_every_kind =
  [
    ( "estimate",
      Protocol.Estimate
        { source = Protocol.File frg1; input_prob = 0.5; phases = None; budget = None }
    );
    ( "optimize",
      Protocol.Optimize
        { source = Protocol.File frg1; input_prob = 0.5; seed = 3; budget = None } );
    ( "compare",
      Protocol.Compare
        { source = Protocol.File frg1; input_prob = 0.5; seed = 3; budget = None } );
  ]

(* Cold (bypass), miss (first use) and hit (second use) must be the
   same bytes for every cacheable command — at both intra-request pool
   widths, since [jobs] changes what the pipeline reports. *)
let byte_identity_at ~jobs () =
  Client.with_self_hosted ~workers:2 ~jobs (fun ~socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      List.iter
        (fun (name, request) ->
          let line cache =
            Protocol.request_line { Protocol.id = 11; request; cache }
          in
          let cold = Client.request c (line `Bypass) in
          let miss = Client.request c (line `Use) in
          let hit = Client.request c (line `Use) in
          ignore (parse_ok cold);
          Alcotest.(check string) (name ^ ": miss == cold bytes") cold miss;
          Alcotest.(check string) (name ^ ": hit == cold bytes") cold hit)
        requests_of_every_kind;
      Alcotest.(check bool) "hits recorded" true (cache_stat ~socket "hits" >= 3))

let test_server_byte_identity_seq () = byte_identity_at ~jobs:1 ()
let test_server_byte_identity_par () = byte_identity_at ~jobs:4 ()

let test_server_bypass_stays_cold () =
  Client.with_self_hosted ~workers:1 (fun ~socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let line =
        Protocol.request_line
          {
            Protocol.id = 5;
            request = snd (List.hd requests_of_every_kind);
            cache = `Bypass;
          }
      in
      let a = Client.request c (line : string) in
      let b = Client.request c line in
      Alcotest.(check string) "bypass is deterministic" a b;
      Alcotest.(check int) "cache never probed" 0
        (cache_stat ~socket "hits" + cache_stat ~socket "misses");
      Alcotest.(check int) "cache never populated" 0 (cache_stat ~socket "entries"))

let test_server_warm_restart () =
  with_temp @@ fun snap ->
  Sys.remove snap;
  let request = snd (List.hd requests_of_every_kind) in
  let line = Protocol.request_line { Protocol.id = 7; request; cache = `Use } in
  let ask ~socket =
    let c = Client.connect socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () -> Client.request c line
  in
  (* first lifetime: a miss populates the cache; the graceful stop
     inside with_self_hosted drains the pool and writes the snapshot *)
  let cold =
    Client.with_self_hosted ~workers:1 ~cache_snapshot:snap (fun ~socket -> ask ~socket)
  in
  Alcotest.(check bool) "snapshot written on drain" true (Sys.file_exists snap);
  (* second lifetime: the very first probe must hit, byte-identically *)
  Client.with_self_hosted ~workers:1 ~cache_snapshot:snap (fun ~socket ->
      let warm = ask ~socket in
      Alcotest.(check string) "warm answer == cold bytes across restart" cold warm;
      Alcotest.(check int) "first warm batch hits" 1 (cache_stat ~socket "hits");
      Alcotest.(check int) "without a single miss" 0 (cache_stat ~socket "misses"));
  (* third lifetime: a corrupted snapshot must mean a cold start with a
     warning — never a crash, never a partial load *)
  let oc = open_out_bin snap in
  output_string oc "{\"magic\":\"dpa-rescache\",\"version\":1,\"entries\":2}\ntruncated";
  close_out oc;
  Client.with_self_hosted ~workers:1 ~cache_snapshot:snap (fun ~socket ->
      let after = ask ~socket in
      Alcotest.(check string) "cold start still answers identically" cold after;
      Alcotest.(check int) "corrupt snapshot loaded nothing" 1
        (cache_stat ~socket "misses"))

let suite =
  [
    Alcotest.test_case "struct-hash: invariances" `Quick test_struct_hash_invariances;
    Alcotest.test_case "key: every response-relevant field" `Quick test_key_composition;
    Alcotest.test_case "key: uncacheable requests" `Quick test_key_refusals;
    Alcotest.test_case "key: compare includes the circuit name" `Quick
      test_compare_key_includes_name;
    Alcotest.test_case "splice: ok_response_text identity" `Quick
      test_ok_response_text_identity;
    Alcotest.test_case "lru: entry bound + recency refresh" `Quick test_lru_entry_bound;
    Alcotest.test_case "lru: byte bound + oversized refusal" `Quick test_lru_byte_bound;
    Alcotest.test_case "snapshot: round-trip preserves bytes" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: missing and corrupt tolerance" `Quick
      test_snapshot_missing_and_corrupt;
    Alcotest.test_case "server: hit == cold bytes (jobs 1)" `Quick
      test_server_byte_identity_seq;
    Alcotest.test_case "server: hit == cold bytes (jobs 4)" `Quick
      test_server_byte_identity_par;
    Alcotest.test_case "server: bypass stays cold" `Quick test_server_bypass_stays_cold;
    Alcotest.test_case "server: warm restart from snapshot" `Quick
      test_server_warm_restart;
  ]
