(* The telemetry layer (lib/obs): registry semantics, span aggregates
   and the event ring as fed by Timeline scopes and instants, snapshot
   diffs, JSON rendering — and end-to-end: a record+replay session
   populates the expected counters/spans. *)

module Tm = Telemetry
module Tl = Timeline

let find_counter snap name =
  match List.assoc_opt name snap.Tm.snap_counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not in snapshot" name

(* Spans register on their first pass, so a span that never ran is
   simply absent: read it as count 0. *)
let find_span snap name =
  match List.assoc_opt name snap.Tm.snap_spans with
  | Some s -> s
  | None -> { Tm.s_count = 0; s_total_ns = 0; s_max_ns = 0 }

let test_counter_registry () =
  Tm.reset ();
  let a = Tm.counter "t.a" in
  let a' = Tm.counter "t.a" in
  Tm.incr a;
  Tm.add a' 41;
  Alcotest.(check int) "same handle" 42 (Tm.counter_value a);
  (* reset zeroes values but keeps handles usable *)
  Tm.reset ();
  Alcotest.(check int) "reset to zero" 0 (Tm.counter_value a);
  Tm.incr a;
  Alcotest.(check int) "handle survives reset" 1 (Tm.counter_value a')

let test_gauge_and_histogram () =
  Tm.reset ();
  let g = Tm.gauge "t.g" in
  Tm.set_gauge g 7;
  Tm.set_gauge g 3;
  Alcotest.(check int) "gauge keeps last" 3 (Tm.gauge_value g);
  let h = Tm.histogram "t.h" in
  List.iter (Tm.observe h) [ 1; 2; 3; 100; 100 ];
  let snap = Tm.snapshot () in
  let hs = List.assoc "t.h" snap.Tm.snap_histograms in
  Alcotest.(check int) "count" 5 hs.Tm.h_count;
  Alcotest.(check int) "sum" 206 hs.Tm.h_sum;
  Alcotest.(check bool) "only non-empty buckets" true
    (List.for_all (fun (_, c) -> c > 0) hs.Tm.h_buckets)

(* Scopes feed the span aggregate with the timeline off: counted with
   no clock installed, timed on the virtual clock once one is, recorded
   even when the body raises, and fed into the <name>.ns histogram. *)
let test_scope_aggregate () =
  Tm.reset ();
  Alcotest.(check bool) "timeline off" false (Tl.enabled ());
  let buffered = List.length (Tl.events ()) in
  Tl.scope "t.phase" (fun () -> ());
  Alcotest.(check int) "counted without clock" 1
    (find_span (Tm.snapshot ()) "t.phase").Tm.s_count;
  let now = ref 0 in
  Tl.set_virtual_clock (fun () -> !now);
  Fun.protect ~finally:Tl.clear_virtual_clock (fun () ->
      Tl.scope "t.phase" (fun () -> now := !now + 500);
      try Tl.scope "t.phase" (fun () -> failwith "boom") with Failure _ -> ());
  let s = find_span (Tm.snapshot ()) "t.phase" in
  Alcotest.(check int) "total" 500 s.Tm.s_total_ns;
  Alcotest.(check int) "max" 500 s.Tm.s_max_ns;
  Alcotest.(check int) "raised body still counted" 3 s.Tm.s_count;
  let hs = List.assoc "t.phase.ns" (Tm.snapshot ()).Tm.snap_histograms in
  Alcotest.(check int) "scope feeds histogram" 3 hs.Tm.h_count;
  Alcotest.(check int) "histogram sum" 500 hs.Tm.h_sum;
  Alcotest.(check int) "nothing recorded on the timeline" buffered
    (List.length (Tl.events ()))

(* An instant always reaches the ring with its frame and detail; with
   the timeline on it also lands in the buffer. *)
let test_instant_ring_and_buffer () =
  Tm.reset ();
  Tl.instant ~lane:7 ~frame:42 ~detail:"off" "t.inst";
  (match Tm.recent () with
  | [ e ] ->
    Alcotest.(check (list string)) "kind and detail" [ "t.inst"; "off" ]
      [ e.Tm.kind; e.Tm.detail ];
    Alcotest.(check (pair int int)) "tid and frame" (7, 42) (e.Tm.tid, e.Tm.frame)
  | evs -> Alcotest.failf "expected one ring event, got %d" (List.length evs));
  Tl.start ();
  Tl.instant ~lane:7 ~frame:43 ~detail:"on" "t.inst";
  Tl.stop ();
  Alcotest.(check (list int)) "both in the ring" [ 42; 43 ]
    (List.map (fun e -> e.Tm.frame) (Tm.recent ()));
  match Tl.events () with
  | [ e ] ->
    Alcotest.(check bool) "buffer holds the instant" true
      (e.Tl.ev_kind = Tl.I && e.Tl.ev_name = "t.inst" && e.Tl.ev_lane = 7)
  | evs -> Alcotest.failf "expected one buffered event, got %d" (List.length evs)

let test_ring_wraps () =
  Tm.reset ();
  for i = 0 to Tm.ring_capacity + 9 do
    Tl.instant ~lane:i ~detail:(string_of_int i) "t.e"
  done;
  let evs = Tm.recent () in
  Alcotest.(check int) "capped at capacity" Tm.ring_capacity (List.length evs);
  let seqs = List.map (fun e -> e.Tm.seq) evs in
  Alcotest.(check int) "oldest first" 10 (List.hd seqs);
  Alcotest.(check int) "newest last" (Tm.ring_capacity + 9)
    (List.nth seqs (Tm.ring_capacity - 1));
  Alcotest.(check bool) "monotone" true
    (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]))

let test_hist_quantiles () =
  Tm.reset ();
  let h = Tm.histogram "t.q" in
  (* 100 samples 1..100: log2 buckets, interpolated quantiles *)
  for i = 1 to 100 do
    Tm.observe h i
  done;
  let snap = Tm.snapshot () in
  let hs = List.assoc "t.q" snap.Tm.snap_histograms in
  let p50 = Tm.hist_quantile hs 0.50 in
  let p90 = Tm.hist_quantile hs 0.90 in
  let p99 = Tm.hist_quantile hs 0.99 in
  Alcotest.(check bool) "ordered" true (0. <= p50 && p50 <= p90 && p90 <= p99);
  (* bucket resolution is a power of two: accept the enclosing bucket *)
  Alcotest.(check bool) "p50 in its bucket" true (p50 >= 32. && p50 <= 63.);
  Alcotest.(check bool) "p99 in its bucket" true (p99 >= 64. && p99 <= 127.);
  Alcotest.(check bool) "p99 below the max bound" true (p99 <= 127.);
  (* monotone in q and clamped at the edges *)
  Alcotest.(check bool) "q=0 at or below p50" true (Tm.hist_quantile hs 0. <= p50);
  Alcotest.(check bool) "q=1 at the top" true (Tm.hist_quantile hs 1. >= p99);
  (* empty histogram: all quantiles are zero *)
  let e = Tm.histogram "t.q.empty" in
  ignore e;
  let hs0 = List.assoc "t.q.empty" (Tm.snapshot ()).Tm.snap_histograms in
  Alcotest.(check (float 0.0)) "empty -> 0" 0. (Tm.hist_quantile hs0 0.99);
  (* a single sample answers that sample's bucket for every q *)
  let h1 = Tm.histogram "t.q.one" in
  Tm.observe h1 5;
  let hs1 = List.assoc "t.q.one" (Tm.snapshot ()).Tm.snap_histograms in
  Alcotest.(check (float 0.0)) "single sample, q-independent"
    (Tm.hist_quantile hs1 0.1)
    (Tm.hist_quantile hs1 0.9)

let test_since_diff () =
  Tm.reset ();
  let c = Tm.counter "t.d" in
  let now = ref 0 in
  let timed ns = Tl.scope "t.dspan" (fun () -> now := !now + ns) in
  Tl.set_virtual_clock (fun () -> !now);
  Fun.protect ~finally:Tl.clear_virtual_clock @@ fun () ->
  Tm.add c 10;
  timed 100;
  let base = Tm.snapshot () in
  Tm.add c 5;
  timed 30;
  let diff = Tm.since base in
  Alcotest.(check int) "counter diff" 5 (find_counter diff "t.d");
  let s = find_span diff "t.dspan" in
  Alcotest.(check int) "span count diff" 1 s.Tm.s_count;
  Alcotest.(check int) "span total diff" 30 s.Tm.s_total_ns

let test_json_shape () =
  Tm.reset ();
  Tm.incr (Tm.counter "t.json");
  Tl.instant ~detail:"x" "t.ev";
  let j = Tm.snapshot_to_json (Tm.snapshot ()) in
  List.iter
    (fun key ->
      let re = Printf.sprintf "\"%s\"" key in
      let found =
        let rec search i =
          if i + String.length re > String.length j then false
          else if String.sub j i (String.length re) = re then true
          else search (i + 1)
        in
        search 0
      in
      Alcotest.(check bool) (key ^ " present") true found)
    [ "counters"; "gauges"; "histograms"; "spans"; "events"; "t.json"; "t.ev" ]

(* End-to-end: record+replay a workload and check the layers reported. *)
let test_record_replay_populates () =
  Tm.reset ();
  let w = Wl_samba.make () in
  let recd, _ = Workload.record w in
  let rep, _ = Workload.replay recd in
  let rt = recd.Workload.rec_stats.Recorder.telemetry in
  Alcotest.(check bool) "syscallbuf.hit > 0" true
    (find_counter rt "syscallbuf.hit" > 0);
  Alcotest.(check bool) "syscallbuf.miss > 0" true
    (find_counter rt "syscallbuf.miss" > 0);
  Alcotest.(check bool) "record.frames > 0" true
    (find_counter rt "record.frames" > 0);
  Alcotest.(check bool) "record.syscall span ran" true
    ((find_span rt "record.syscall").Tm.s_count > 0);
  let pt = rep.Workload.rep_stats.Replayer.telemetry in
  Alcotest.(check bool) "replay.frame span ran" true
    ((find_span pt "replay.frame").Tm.s_count > 0);
  Alcotest.(check bool) "chunk LRU active" true
    (find_counter pt "trace.chunk.hit" + find_counter pt "trace.chunk.miss" > 0);
  (* the recorder's snapshot must not leak replay work into [rt] *)
  Alcotest.(check int) "recording saw no replay frames" 0
    (find_span rt "replay.frame").Tm.s_count;
  (* trace stats expose the reader-side LRU *)
  let ts = Trace.stats recd.Workload.trace in
  Alcotest.(check bool) "lru counts populated" true
    (ts.Trace.lru_hits + ts.Trace.lru_misses > 0)

(* Two domains hammering one registry: counters, histograms and the
   event ring must neither lose updates nor crash.  Uses a Pool — the
   only sanctioned way to get extra domains (check_format.sh). *)
let test_domain_hammer () =
  Tm.reset ();
  let c = Tm.counter "hammer.c" in
  let h = Tm.histogram "hammer.h" in
  let iters = 10_000 in
  let p = Pool.create ~jobs:2 () in
  let work () =
    for i = 1 to iters do
      Tm.incr c;
      Tm.observe h i;
      if i mod 1000 = 0 then Tl.instant ~detail:"tick" "t.hammer"
    done
  in
  let a = Pool.submit p work and b = Pool.submit p work in
  Pool.await a;
  Pool.await b;
  Pool.shutdown p;
  Alcotest.(check int) "no lost counter increments" (2 * iters)
    (Tm.counter_value c);
  let snap = Tm.snapshot () in
  let hs = List.assoc "hammer.h" snap.Tm.snap_histograms in
  Alcotest.(check int) "no lost observations" (2 * iters) hs.Tm.h_count;
  Alcotest.(check int) "histogram sum exact" (2 * (iters * (iters + 1) / 2))
    hs.Tm.h_sum;
  Alcotest.(check bool) "ring survived concurrent notes" true
    (List.length (Tm.recent ()) > 0)

let suites =
  [ ( "telemetry",
      [ Alcotest.test_case "counter registry + reset" `Quick
          test_counter_registry;
        Alcotest.test_case "gauge + histogram" `Quick test_gauge_and_histogram;
        Alcotest.test_case "span + virtual clock" `Quick test_scope_aggregate;
        Alcotest.test_case "instant reaches ring and buffer" `Quick
          test_instant_ring_and_buffer;
        Alcotest.test_case "ring wraps at capacity" `Quick test_ring_wraps;
        Alcotest.test_case "histogram quantiles" `Quick test_hist_quantiles;
        Alcotest.test_case "since diff" `Quick test_since_diff;
        Alcotest.test_case "json shape" `Quick test_json_shape;
        Alcotest.test_case "record+replay populates" `Quick
          test_record_replay_populates;
        Alcotest.test_case "two-domain hammer" `Quick test_domain_hammer ] ) ]
