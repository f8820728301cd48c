(** Unified telemetry: a process-wide registry of named counters, gauges,
    histograms and span aggregates, plus a fixed-size ring of the last N
    structured events.

    This is the observability substrate of the reproduction (paper §6.2:
    diagnosing failures in the field needs the machinery built in, and
    §7's evaluation needs overhead attributable to tracing, syscallbuf,
    scratch and compression).  Every layer — kernel, trace store,
    recorder, replayer — reports through here; the CLI (`rr_cli stats`),
    the bench harness and {!Diagnostics.dump} render it.

    This module is the leaf registry of [lib/obs].  Layers bump counters,
    gauges and histograms here directly, but they time a phase only with
    [Timeline.scope] and emit an event only with [Timeline.instant]:
    every closed timeline scope feeds the span aggregate of its name
    through {!span_add}, and every instant lands in the event ring
    through {!note} ([tools/check_format.sh] rejects either call outside
    [lib/obs]).

    Conventions:
    - metric names are dotted [<layer>.<noun>[_<unit>]], e.g.
      [syscallbuf.hit], [record.scratch_bytes], [trace.chunk.evict];
    - spans are timeline scope names, [<layer>.<verb>], e.g.
      [record.syscall], [replay.seek], [trace.inflate]; each span owns a
      latency histogram registered as [<name>.ns] on its first pass;
    - the GDB stub ([lib/gdbstub]) reports as the [gdb] layer:
      [gdb.packets] (RSP packets served), [gdb.reverse_seeks] (reverse
      continue/step resolutions and checkpoint restarts), and the
      [gdb.cmd] span timing every command dispatch;
    - the flight-recorder ring and the trace repository report as the
      [ring] and [repo] layers: [ring.dropped_chunks] and the
      [ring.resident_bytes] gauge (window memory cost),
      [repo.objects_stored] / [repo.objects_shared] /
      [repo.bytes_stored] / [repo.bytes_deduped] (the dedup economy)
      and [repo.gc_swept];
    - all span durations are {e virtual} nanoseconds from the cost
      model, read through the timeline's virtual clock (no wall-clock
      dependency, so telemetry never perturbs determinism).

    The registry is process-global and survives {!reset}: handles stay
    valid, only values are zeroed.  Counter and gauge updates are O(1)
    field updates; a span pass costs one name lookup.

    The registry is domain-safe: worker domains (the pool in [lib/exec])
    share it with the main thread.  Counters and gauges are lock-free
    atomics; histograms, spans, the event ring, registration, {!reset}
    and {!snapshot} serialize on an internal registry mutex. *)

(** {1 Metrics} *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or register the counter [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : string -> histogram
(** Log2-bucketed distribution of non-negative integers (virtual-ns
    latencies, ratios, sizes): bucket [i] counts values in
    [\[2{^i-1}, 2{^i})]. *)

val observe : histogram -> int -> unit

val span_add : string -> int -> unit
(** [span_add name ns] records one completed pass of the span [name]
    lasting [ns] virtual ns (negative durations count as 0), and feeds
    the histogram [<name>.ns].  Both are registered on first use.
    [Timeline.end_scope] is the caller. *)

(** {1 The event ring} *)

type event = {
  seq : int; (** global sequence number, from 0 *)
  tid : int; (** task id, or -1 *)
  frame : int; (** trace frame index, or -1 *)
  kind : string;
  detail : string;
}

val ring_capacity : int
(** The ring keeps the last [ring_capacity] events (currently 64). *)

val note : ?tid:int -> ?frame:int -> kind:string -> string -> unit
(** Append a structured event to the ring.  [Timeline.instant] is the
    caller. *)

val recent : unit -> event list
(** The ring's contents, oldest first — at most {!ring_capacity}. *)

(** {1 Snapshots} *)

type span_stat = { s_count : int; s_total_ns : int; s_max_ns : int }

type hist_stat = {
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;
      (** (inclusive upper bound, count), non-empty buckets only *)
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * int) list;
  snap_histograms : (string * hist_stat) list;
  snap_spans : (string * span_stat) list;
  snap_events : event list; (** the ring tail at snapshot time *)
}
(** An immutable copy of the registry; every section is sorted by name. *)

val snapshot : unit -> snapshot

val hist_quantile : hist_stat -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile (0 ≤ q ≤ 1) from the
    log2 buckets: walk the cumulative counts to the target rank, then
    interpolate linearly inside the bucket's value range.  Exact to
    within a factor of 2 (the bucket width); monotone in [q]; [0.] on an
    empty histogram.  Works on {!since}-diffed stats too. *)

val since : snapshot -> snapshot
(** [since base] is the current snapshot minus [base]: counters, span
    counts/totals and histogram buckets subtract; gauges and span maxima
    take their current values; events are the current ring tail.  This
    is how per-run telemetry is carved out of the process-global
    registry (e.g. the snapshots embedded in [Recorder.stats]). *)

val reset : unit -> unit
(** Zero every registered metric and empty the ring.  Registered
    handles remain valid. *)

(** {1 Rendering} *)

val pp_event : event Fmt.t

val pp : snapshot Fmt.t
(** Human-readable table: counters, gauges, spans (count/total/max/avg),
    histogram buckets, then the event tail. *)

val snapshot_to_json : snapshot -> string
(** A single JSON object: [{"counters":{..},"gauges":{..},
    "histograms":{..},"spans":{..},"events":[..]}].  Each histogram
    carries derived [p50]/[p90]/[p99] estimates (from {!hist_quantile})
    alongside its raw buckets.  Hand-rolled, dependency-free, with full
    string escaping. *)

val event_to_json : event -> string
