(* Unit tests of the benchmark's own rules. *)

open Harness

let float_eq = Alcotest.float 1e-12

let test_rank () =
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (rank ~p:99. 1000);
  Alcotest.(check int) "p50 of 4 is rank 2" 2 (rank ~p:50. 4);
  Alcotest.(check int) "p100 is the last" 7 (rank ~p:100. 7);
  Alcotest.(check int) "p0 clamps to the first" 1 (rank ~p:0. 7)

let test_tail_rule () =
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (beyond ~p:99. 1000);
  Alcotest.(check bool) "1000 samples support p99" true (supports ~p:99. 1000);
  Alcotest.(check bool) "999 samples do not" false (supports ~p:99. 999);
  Alcotest.(check int) "999 samples leave 9 beyond p99" 9 (beyond ~p:99. 999);
  Alcotest.(check bool) "100 samples support p90" true (supports ~p:90. 100)

let test_percentile () =
  let xs = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  Alcotest.check float_eq "p99 of 0..999" 989. (percentile xs 99.);
  Alcotest.check float_eq "p50 of 0..999" 499. (percentile xs 50.);
  Alcotest.check float_eq "median of 4" 2.5 (median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check float_eq "median of 3" 2. (median [| 3.; 1.; 2. |]);
  let with_failures = Array.append (Array.make 985 1.) (Array.make 15 Float.infinity) in
  Alcotest.(check bool) "over 1% failed makes p99 infinite" true
    (percentile with_failures 99. = Float.infinity);
  Alcotest.check_raises "no samples" (Invalid_argument "Harness.percentile: no samples")
    (fun () -> ignore (percentile [||] 50.))

let test_sliced () =
  let xs = [| 1.; 1.; 9.; 9.; 2.; 2. |] in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  Alcotest.check float_eq "median of three part means" 2. (sliced ~slices:3 mean xs);
  Alcotest.check float_eq "one part is the whole" 4. (sliced ~slices:1 mean xs);
  Alcotest.check float_eq "clamped to the sample count" 2. (sliced ~slices:50 mean [| 3.; 2.; 1. |])

let test_bucket_percentile () =
  let buckets = [| (1., 0); (2., 10); (4., 10) |] in
  Alcotest.check float_eq "p50 is the top of the second bucket" 2.
    (bucket_percentile buckets ~overflow:0 50.);
  Alcotest.check float_eq "p75 interpolates in the third" 3.
    (bucket_percentile buckets ~overflow:0 75.);
  Alcotest.check float_eq "overflow reads as the last bound" 4.
    (bucket_percentile buckets ~overflow:20 99.);
  Alcotest.check float_eq "empty reads 0" 0. (bucket_percentile [| (1., 0) |] ~overflow:0 50.)

let span name start dur depth = { name; start; dur; depth }

let test_self_time () =
  (* a [0,100) > b [10,40) > c [20,30);  a > d [50,70); e [200,210) *)
  let spans =
    [| span "c" 20 10 2; span "b" 10 30 1; span "d" 50 20 1; span "a" 0 100 0; span "e" 200 10 0 |]
  in
  Alcotest.(check (array int)) "parents" [| 1; 3; 3; -1; -1 |] (parents spans);
  Alcotest.(check (array int)) "self times" [| 10; 20; 20; 50; 10 |] (self_times spans)

let test_self_time_two_domains () =
  (* main domain: stage [0,100) > estimate [10,90) > cone [10,40);
     a worker's cone [20,60) restarts at depth 0 and so stays a root,
     while its child [30,50) at depth 1 belongs to it, not to the stage *)
  let spans =
    [|
      span "stage" 0 100 0;
      span "estimate" 10 80 1;
      span "cone" 10 30 2;
      span "cone" 20 40 0;
      span "sim" 30 20 1;
    |]
  in
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; -1; 3 |] (parents spans);
  Alcotest.(check (array int)) "self times" [| 20; 50; 30; 20; 20 |] (self_times spans)

let test_lateness () =
  let reqs =
    [|
      { due = 1.0; sent = 1.0; answered = Some 1.002 };
      (* the generator sent this one 5 ms late; latency still counts from due *)
      { due = 1.1; sent = 1.105; answered = Some 1.106 };
      { due = 1.2; sent = 1.2; answered = None };
    |]
  in
  let lat = latencies_ms reqs and lag = lags_ms reqs in
  Alcotest.check (Alcotest.float 1e-9) "on time" 2. lat.(0);
  Alcotest.check (Alcotest.float 1e-9) "late send counts" 6. lat.(1);
  Alcotest.(check bool) "unanswered is infinitely late" true (lat.(2) = Float.infinity);
  Alcotest.check (Alcotest.float 1e-9) "lag" 5. lag.(1);
  Alcotest.check (Alcotest.float 1e-9) "no lag" 0. lag.(2)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (valid_name n))
    [ "setup_s"; "req_p99_ms"; "engine.cone_built_s"; "circuit.add8x32.s"; "9lives-ok" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "x%"; String.make 65 'a' ];
  Alcotest.(check bool) "64 characters" true (valid_name (String.make 64 'a'))

let test_result_line () =
  let m name value = { name; value; unit_ = "s" } in
  Alcotest.(check string) "line"
    {|{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.5,"unit":"s"}}}|}
    (result_line ~correct:true ~attempted:3 ~failed:0 [ m "a" 1.5 ]);
  Alcotest.check_raises "bad name" (Invalid_argument "metric name a b") (fun () ->
      ignore (result_line ~correct:true ~attempted:1 ~failed:0 [ m "a b" 1. ]));
  Alcotest.check_raises "repeated" (Invalid_argument "repeated metric a") (fun () ->
      ignore (result_line ~correct:true ~attempted:1 ~failed:0 [ m "a" 1.; m "a" 2. ]));
  Alcotest.check_raises "infinite" (Invalid_argument "non-finite metric a") (fun () ->
      ignore (result_line ~correct:true ~attempted:1 ~failed:0 [ m "a" Float.infinity ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "rank" `Quick test_rank;
          Alcotest.test_case "ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "sliced" `Quick test_sliced;
          Alcotest.test_case "bucketed" `Quick test_bucket_percentile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "two domains" `Quick test_self_time_two_domains;
        ] );
      ("open loop", [ Alcotest.test_case "lateness" `Quick test_lateness ]);
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
