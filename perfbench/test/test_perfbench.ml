open Perfbench

let close = Alcotest.float 1e-9

(* ---- statistics ---------------------------------------------------- *)

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "one" 7. (Stats.median [ 7. ])

(* Reference values from Python: statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q = Alcotest.(triple close close close) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "two samples extrapolate" (0.5, 2.0, 3.5)
    (Stats.quartiles [ 3.; 1. ]);
  Alcotest.check q "1..5" (1.5, 3.0, 4.5)
    (Stats.quartiles [ 5.; 4.; 3.; 2.; 1. ])

let test_tail () =
  let xs n = List.init n (fun i -> float_of_int (n - i)) in
  (match Stats.tail (xs 100) with
  | Some t ->
    Alcotest.check close "p90 of 100" 90. t.Stats.pct;
    Alcotest.check close "value" 90. t.value;
    Alcotest.(check int) "count" 100 t.n
  | None -> Alcotest.fail "100 samples have a tail");
  Alcotest.(check bool) "10 samples: nothing beyond" true (Stats.tail (xs 10) = None);
  match Stats.tail (xs 11) with
  | Some t ->
    Alcotest.check close "11 samples: the minimum" 1. t.Stats.value;
    Alcotest.check close "at 1/11" (100. /. 11.) t.pct
  | None -> Alcotest.fail "11 samples have one value with 10 beyond"

(* ---- seeded inputs -------------------------------------------------- *)

let test_plan_deterministic () =
  List.iter
    (fun workload ->
      List.iter
        (fun size ->
          let p seed = Plan.make ~workload ~size ~seed in
          Alcotest.(check bool) "same seed, same inputs and queries" true (p 42 = p 42);
          Alcotest.(check bool) "another seed, other inputs" true (p 42 <> p 43))
        [ Plan.Full; Plan.Tiny ])
    Plan.workloads

let test_plan_mix () =
  let p = Plan.make ~workload:Plan.Debug ~size:Plan.Full ~seed:5 in
  let count f = Array.fold_left (fun a q -> if f q then a + 1 else a) 0 p.queries in
  Alcotest.(check int) "queries per pass" 100 (Array.length p.queries);
  Alcotest.(check int) "seeks" 85 (count (function Plan.Seek _ -> true | _ -> false));
  Alcotest.(check int) "prev_exec" 12
    (count (function Plan.Prev_exec _ -> true | _ -> false));
  Alcotest.(check int) "last_write" 3
    (count (function Plan.Last_write _ -> true | _ -> false));
  Array.iter
    (function
      | Plan.Seek { at } ->
        Alcotest.(check bool) "fraction in [0, 1)" true (at >= 0. && at < 1.)
      | Plan.Prev_exec _ | Plan.Last_write _ -> ())
    p.queries

(* ---- BENCHMARK.json ------------------------------------------------- *)

(* Every metric's name, unit and direction, in order, as BENCHMARK.json
   lists them and as the report prints them. *)
let test_benchmark_json () =
  let json =
    In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
    |> Json_min.parse
  in
  let field k = function
    | Json_min.Obj kv -> List.assoc k kv
    | _ -> Alcotest.fail ("not an object around " ^ k)
  in
  let str = function Json_min.Str s -> s | _ -> Alcotest.fail "not a string" in
  let entries k =
    match field k json with
    | Json_min.List l -> l
    | _ -> Alcotest.fail (k ^ " is not a list")
  in
  let listed k =
    List.map
      (fun e -> (str (field "name" e), str (field "unit" e), str (field "better" e)))
      (entries k)
  in
  let catalogue ms =
    List.map
      (fun (m : Metrics.m) ->
        (m.name, m.unit_, match m.better with Metrics.Lower -> "lower" | Higher -> "higher"))
      ms
  in
  let metric = Alcotest.(list (triple string string string)) in
  Alcotest.check metric "end_to_end" (catalogue Metrics.end_to_end) (listed "end_to_end");
  Alcotest.check metric "per_layer" (catalogue Metrics.per_layer) (listed "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map Plan.workload_name Plan.workloads)
    (List.map (fun e -> str (field "name" e)) (entries "workloads"))

(* ---- tiny runs ------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let occurrences s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
  in
  go 0 0

let run_tiny workload trace =
  let args =
    [| "../rrbench.exe"; "--workload"; workload; "--seed"; "7"; "--seconds";
       "0.5"; "--trace"; trace; "--size"; "tiny"; "--workdir"; "." |]
  in
  let ic = Unix.open_process_args_in args.(0) args in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  (Unix.close_process_in ic, lines)

let test_tiny workload trace () =
  let status, lines = run_tiny workload trace in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let last = List.nth lines (List.length lines - 1) in
  Alcotest.(check bool) "result line" true
    (String.starts_with ~prefix:"{\"correct\": true, \"attempted\": " last);
  Alcotest.(check bool) "no failed check" true (contains last "\"failed\": 0,");
  let expected = if trace = "0" then Metrics.end_to_end else Metrics.per_layer in
  List.iter
    (fun (m : Metrics.m) ->
      Alcotest.(check bool) (m.name ^ " reported") true
        (contains last (Printf.sprintf "%S: {\"value\": " m.name)))
    expected;
  Alcotest.(check int) "exactly those metrics" (List.length expected)
    (occurrences last "\"value\":");
  Alcotest.(check bool) "no timeline event dropped" true
    (List.mem "timeline: dropped=0 mismatches=0" lines)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail ] );
      ( "plan",
        [ Alcotest.test_case "one seed, one input" `Quick test_plan_deterministic;
          Alcotest.test_case "query mix" `Quick test_plan_mix ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
      ( "tiny",
        List.concat_map
          (fun w ->
            List.map
              (fun t ->
                Alcotest.test_case (Printf.sprintf "%s trace=%s" w t) `Quick
                  (test_tiny w t))
              [ "0"; "1" ])
          (List.map Plan.workload_name Plan.workloads) ) ]
