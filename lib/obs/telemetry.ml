(* Unified telemetry (see telemetry.mli for the contract).

   Everything lives in process-global tables so instrumented modules can
   register their handles once at module initialization and pay only a
   field update per hit.  [reset] zeroes values in place — handles stay
   valid across runs, which is what lets the bench harness snapshot one
   workload at a time.

   This module is the leaf of lib/obs: it keeps no clock and emits no
   timeline events.  Span aggregates and the event ring are fed by
   {!Timeline}, which owns both clocks and calls [span_add] on every
   closed scope and [note] on every instant.

   Domain safety: worker domains (the {!Pool} in lib/exec) report
   through the same registry as the main thread.  Counters and gauges
   are single atomics, so the hot increment path never takes a lock;
   histograms, spans, the event ring, registration, [reset] and
   [snapshot] serialize on one registry mutex ([reg_m]).  Internal
   [*_unlocked] helpers exist so compound operations (a span feeding its
   histogram) take the mutex exactly once — the mutex is not
   reentrant. *)

(* ---- registry ------------------------------------------------------- *)

let reg_m = Mutex.create ()

let with_reg f =
  Mutex.lock reg_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_m) f

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_v : int Atomic.t }

let n_buckets = 63

type histogram = {
  h_name : string;
  mutable h_n : int;
  mutable h_sum : int;
  h_counts : int array; (* log2 buckets: h_counts.(i) counts [2^(i-1), 2^i) *)
}

type span = {
  mutable sp_n : int;
  mutable sp_total : int;
  mutable sp_max : int;
  sp_hist : histogram; (* <name>.ns latency distribution *)
}

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let hists_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16
let spans_tbl : (string, span) Hashtbl.t = Hashtbl.create 16

(* Registration only under [reg_m]. *)
let find_or_add tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some x -> x
  | None ->
    let x = make name in
    Hashtbl.replace tbl name x;
    x

let counter name =
  with_reg (fun () ->
      find_or_add counters_tbl name (fun c_name ->
          { c_name; c_v = Atomic.make 0 }))

let incr c = ignore (Atomic.fetch_and_add c.c_v 1)
let add c n = ignore (Atomic.fetch_and_add c.c_v n)
let counter_value c = Atomic.get c.c_v

let gauge name =
  with_reg (fun () ->
      find_or_add gauges_tbl name (fun g_name ->
          { g_name; g_v = Atomic.make 0 }))

let set_gauge g v = Atomic.set g.g_v v
let gauge_value g = Atomic.get g.g_v

let make_histogram h_name =
  { h_name; h_n = 0; h_sum = 0; h_counts = Array.make n_buckets 0 }

let histogram name =
  with_reg (fun () -> find_or_add hists_tbl name make_histogram)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      v := !v lsr 1;
      Stdlib.incr i
    done;
    min !i (n_buckets - 1)
  end

let observe_unlocked h v =
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum + max v 0;
  let b = h.h_counts in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1

let observe h v = with_reg (fun () -> observe_unlocked h v)

(* One name lookup per closed scope: the span and its [.ns] histogram
   are registered on first use. *)
let span_add name ns =
  let ns = max ns 0 in
  with_reg (fun () ->
      let sp =
        find_or_add spans_tbl name (fun name ->
            { sp_n = 0;
              sp_total = 0;
              sp_max = 0;
              sp_hist = find_or_add hists_tbl (name ^ ".ns") make_histogram })
      in
      sp.sp_n <- sp.sp_n + 1;
      sp.sp_total <- sp.sp_total + ns;
      if ns > sp.sp_max then sp.sp_max <- ns;
      observe_unlocked sp.sp_hist ns)

(* ---- the event ring -------------------------------------------------- *)

type event = {
  seq : int;
  tid : int;
  frame : int;
  kind : string;
  detail : string;
}

let ring_capacity = 64

let dummy_event = { seq = -1; tid = -1; frame = -1; kind = ""; detail = "" }
let ring = Array.make ring_capacity dummy_event
let next_seq = ref 0

let json_escape = Json_min.escape

let event_to_json e =
  Printf.sprintf "{\"seq\":%d,\"tid\":%d,\"frame\":%d,\"kind\":\"%s\",\"detail\":\"%s\"}"
    e.seq e.tid e.frame (json_escape e.kind) (json_escape e.detail)

let note ?(tid = -1) ?(frame = -1) ~kind detail =
  with_reg (fun () ->
      ring.(!next_seq mod ring_capacity) <-
        { seq = !next_seq; tid; frame; kind; detail };
      Stdlib.incr next_seq)

let recent_unlocked () =
  let n = min !next_seq ring_capacity in
  List.init n (fun i -> ring.((!next_seq - n + i) mod ring_capacity))

let recent () = with_reg recent_unlocked

(* ---- reset ----------------------------------------------------------- *)

let reset () =
  with_reg (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_v 0) counters_tbl;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_v 0) gauges_tbl;
      Hashtbl.iter
        (fun _ h ->
          h.h_n <- 0;
          h.h_sum <- 0;
          Array.fill h.h_counts 0 n_buckets 0)
        hists_tbl;
      Hashtbl.iter
        (fun _ sp ->
          sp.sp_n <- 0;
          sp.sp_total <- 0;
          sp.sp_max <- 0)
        spans_tbl;
      Array.fill ring 0 ring_capacity dummy_event;
      next_seq := 0)

(* ---- snapshots -------------------------------------------------------- *)

type span_stat = { s_count : int; s_total_ns : int; s_max_ns : int }

type hist_stat = {
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * int) list;
  snap_histograms : (string * hist_stat) list;
  snap_spans : (string * span_stat) list;
  snap_events : event list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun name x acc -> (name, f x) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let hist_stat h =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.h_counts.(i) > 0 then
      (* bucket i holds values < 2^i (and >= 2^(i-1)): inclusive bound *)
      buckets := ((1 lsl i) - 1, h.h_counts.(i)) :: !buckets
  done;
  { h_count = h.h_n; h_sum = h.h_sum; h_buckets = !buckets }

(* Estimate a quantile from the log2 buckets: walk cumulative counts to
   the target rank, then interpolate linearly across the bucket's value
   range [2^(i-1), 2^i - 1].  Works on diffed snapshots too, since it
   only needs the (bound, count) list. *)
let hist_quantile h q =
  if h.h_count <= 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let target = q *. float_of_int (h.h_count - 1) in
    let rec walk cum = function
      | [] -> 0.
      | (ub, c) :: rest ->
        if float_of_int (cum + c) > target || rest = [] then begin
          let lo = if ub <= 0 then 0. else float_of_int ((ub + 1) / 2) in
          let hi = float_of_int (max ub 0) in
          let frac =
            if c <= 0 then 0.
            else
              Float.min 1.
                (Float.max 0. ((target -. float_of_int cum) /. float_of_int c))
          in
          lo +. (frac *. (hi -. lo))
        end
        else walk (cum + c) rest
    in
    walk 0 h.h_buckets
  end

let snapshot () =
  with_reg (fun () ->
      { snap_counters =
          sorted_bindings counters_tbl (fun c -> Atomic.get c.c_v);
        snap_gauges = sorted_bindings gauges_tbl (fun g -> Atomic.get g.g_v);
        snap_histograms = sorted_bindings hists_tbl hist_stat;
        snap_spans =
          sorted_bindings spans_tbl (fun sp ->
              { s_count = sp.sp_n;
                s_total_ns = sp.sp_total;
                s_max_ns = sp.sp_max });
        snap_events = recent_unlocked () })

let since base =
  let now = snapshot () in
  let base_of assoc name zero =
    match List.assoc_opt name assoc with Some v -> v | None -> zero
  in
  { snap_counters =
      List.map
        (fun (n, v) -> (n, v - base_of base.snap_counters n 0))
        now.snap_counters;
    snap_gauges = now.snap_gauges;
    snap_histograms =
      List.map
        (fun (n, h) ->
          match List.assoc_opt n base.snap_histograms with
          | None -> (n, h)
          | Some b ->
            let buckets =
              List.filter_map
                (fun (ub, c) ->
                  let c' = c - base_of b.h_buckets ub 0 in
                  if c' > 0 then Some (ub, c') else None)
                h.h_buckets
            in
            ( n,
              { h_count = h.h_count - b.h_count;
                h_sum = h.h_sum - b.h_sum;
                h_buckets = buckets } ))
        now.snap_histograms;
    snap_spans =
      List.map
        (fun (n, s) ->
          match List.assoc_opt n base.snap_spans with
          | None -> (n, s)
          | Some b ->
            ( n,
              { s_count = s.s_count - b.s_count;
                s_total_ns = s.s_total_ns - b.s_total_ns;
                s_max_ns = s.s_max_ns } ))
        now.snap_spans;
    snap_events = now.snap_events }

(* ---- rendering -------------------------------------------------------- *)

let pp_event ppf e =
  Fmt.pf ppf "#%d tid=%d frame=%d %s%s" e.seq e.tid e.frame e.kind
    (if e.detail = "" then "" else ": " ^ e.detail)

let pp ppf s =
  Fmt.pf ppf "@[<v>";
  if s.snap_counters <> [] then begin
    Fmt.pf ppf "counters:@,";
    List.iter (fun (n, v) -> Fmt.pf ppf "  %-34s %12d@," n v) s.snap_counters
  end;
  if s.snap_gauges <> [] then begin
    Fmt.pf ppf "gauges:@,";
    List.iter (fun (n, v) -> Fmt.pf ppf "  %-34s %12d@," n v) s.snap_gauges
  end;
  if s.snap_spans <> [] then begin
    Fmt.pf ppf "spans (virtual ns):@,";
    Fmt.pf ppf "  %-34s %10s %14s %12s %12s@," "phase" "count" "total" "max"
      "mean";
    List.iter
      (fun (n, sp) ->
        Fmt.pf ppf "  %-34s %10d %14d %12d %12d@," n sp.s_count sp.s_total_ns
          sp.s_max_ns
          (if sp.s_count = 0 then 0 else sp.s_total_ns / sp.s_count))
      s.snap_spans
  end;
  let hists =
    List.filter (fun (_, h) -> h.h_count > 0) s.snap_histograms
  in
  if hists <> [] then begin
    Fmt.pf ppf "histograms (log2 buckets, <=bound:count):@,";
    List.iter
      (fun (n, h) ->
        Fmt.pf ppf "  %-34s n=%d sum=%d p50=%.0f p90=%.0f p99=%.0f %a@," n
          h.h_count h.h_sum (hist_quantile h 0.5) (hist_quantile h 0.9)
          (hist_quantile h 0.99)
          Fmt.(list ~sep:(any " ") (fun ppf (ub, c) -> pf ppf "<=%d:%d" ub c))
          h.h_buckets)
      hists
  end;
  (match s.snap_events with
  | [] -> ()
  | evs ->
    Fmt.pf ppf "last %d events:@," (List.length evs);
    List.iter (fun e -> Fmt.pf ppf "  %a@," pp_event e) evs);
  Fmt.pf ppf "@]"

let snapshot_to_json s =
  let b = Buffer.create 4096 in
  let obj_of add items =
    Buffer.add_char b '{';
    List.iteri
      (fun i (n, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":" (json_escape n));
        add v)
      items;
    Buffer.add_char b '}'
  in
  let add_int v = Buffer.add_string b (string_of_int v) in
  Buffer.add_string b "{\"counters\":";
  obj_of add_int s.snap_counters;
  Buffer.add_string b ",\"gauges\":";
  obj_of add_int s.snap_gauges;
  Buffer.add_string b ",\"histograms\":";
  obj_of
    (fun h ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"count\":%d,\"sum\":%d,\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f,\"buckets\":["
           h.h_count h.h_sum (hist_quantile h 0.5) (hist_quantile h 0.9)
           (hist_quantile h 0.99));
      List.iteri
        (fun i (ub, c) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "[%d,%d]" ub c))
        h.h_buckets;
      Buffer.add_string b "]}")
    s.snap_histograms;
  Buffer.add_string b ",\"spans\":";
  obj_of
    (fun sp ->
      Buffer.add_string b
        (Printf.sprintf "{\"count\":%d,\"total_ns\":%d,\"max_ns\":%d}"
           sp.s_count sp.s_total_ns sp.s_max_ns))
    s.snap_spans;
  Buffer.add_string b ",\"events\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (event_to_json e))
    s.snap_events;
  Buffer.add_string b "]}";
  Buffer.contents b
