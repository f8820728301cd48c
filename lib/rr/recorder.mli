(** The rr recorder (paper §2, §3).

    Supervises a group of traced tasks through the simulated kernel's
    ptrace interface, runs exactly one task's user code at a time
    (§2.2), and records every input that crosses the user/kernel
    boundary into a {!Trace.t}:

    - system call results and memory effects, from a per-syscall model
      (§2.3.6), with blocking outputs detoured through scratch buffers
      (§2.3.1);
    - asynchronous event timing as an execution point — RCB count, full
      registers, and a word of stack (§2.4.1);
    - signal-handler frames (§2.3.9), emulated RDTSC/RDRAND values
      (§2.6), seccomp-filter installs patched with the allow-prologue
      (§2.3.5), and tracee-level ptrace, which is emulated (§2.3.2);
    - syscall-site patches and syscallbuf flushes for the in-process
      interception fast path (§3), including the desched dance for
      blocked untraced syscalls (§3.3) and block-cloned large reads
      (§3.9). *)

(** Why a recording failed: either the recording model itself gave up
    (unsupported syscall, deadlock, event-count guard), or the trace
    store / IO layer underneath it failed in a typed way — a journaling
    recorder hitting ENOSPC surfaces here as
    [Rec_trace (Trace.Io _)]. *)
type error =
  | Rec_failure of string
  | Rec_trace of Trace.error

exception Record_error of error

val pp_error : error Fmt.t
val error_to_string : error -> string

(** Where the trace streams while recording (resolved to a
    {!Trace.Sink.t} at [record] entry). *)
type sink_spec =
  | Sink_memory  (** build the trace in memory only (the default) *)
  | Sink_file of string
      (** stream the incremental v3 journal to this path; a recorder
          killed mid-run leaves a salvageable file *)
  | Sink_ring of Trace.ring
      (** flight-recorder mode: the bounded in-memory window.  The ring
          handle is caller-owned and survives a recording that dies —
          dump it afterwards with {!Trace.ring_trace}. *)
  | Sink_repo of Repo.t * string
      (** store chunks and images content-addressed as they stream out;
          the manifest lands under this name at commit *)
  | Sink_io of Io.writer
      (** stream the v3 journal to an arbitrary {!Io.writer} (fault
          injection, an in-memory buffer) *)

type opts = private {
  intercept : bool; (* in-process syscall interception (§3) *)
  wide : bool; (* widened wrapper set (§3.1); replay must use the same *)
  scratch : bool; (* detour blocking outputs through scratch (§2.3.1) *)
  clone_blocks : bool; (* block cloning for big reads (§3.9) *)
  compress : bool; (* deflate the general trace data (§2.7) *)
  chaos : bool; (* randomized scheduling (§8) *)
  timeslice_rcbs : int; (* preemption budget (§2.4) *)
  seed : int; (* recording-side entropy *)
  max_events : int; (* runaway-recording guard *)
  checksum_every : int; (* memory digests every N frames (§6.2); 0 = off *)
  chunk_limit : int; (* pending bytes that seal a chunk; flight recordings
                        shrink it so the ring turns over in small steps *)
  sink : sink_spec; (* where the trace streams while recording *)
}

val default_opts : opts

val make_opts :
  ?intercept:bool ->
  ?wide:bool ->
  ?scratch:bool ->
  ?clone_blocks:bool ->
  ?compress:bool ->
  ?chaos:bool ->
  ?timeslice_rcbs:int ->
  ?seed:int ->
  ?max_events:int ->
  ?checksum_every:int ->
  ?chunk_limit:int ->
  ?sink:sink_spec ->
  unit ->
  opts
(** [default_opts] with the given fields overridden, clamped to sane
    ranges ([timeslice_rcbs ≥ 1], [max_events ≥ 1], [checksum_every ≥
    0], [chunk_limit ≥ 256]).  [opts] is private, so this and
    {!with_sink} are the only ways to build one and the clamps are never
    bypassed. *)

val with_sink : opts -> sink_spec -> opts
(** [opts] with the sink replaced — how {!Flight.record} routes an
    arbitrary configuration through its ring. *)

type stats = {
  wall_time : int; (* virtual ns *)
  trace_stats : Trace.stats;
  n_ptrace_stops : int;
  n_syscalls : int;
  n_sched_events : int;
  n_patched_sites : int;
  exit_status : int option; (* of the root process *)
  telemetry : Telemetry.snapshot;
      (* metrics accumulated during this recording (diff against the
         process-global registry at [record] entry) *)
}

val record :
  ?opts:opts ->
  ?on_stop:(Kernel.t -> unit) ->
  ?on_event:(Event.t -> unit) ->
  setup:(Kernel.t -> unit) ->
  exe:string ->
  unit ->
  Trace.t * stats * Kernel.t
(** Create a fresh kernel, run [setup] (install images, files, seccomp
    filters, and optionally spawn {e untraced} helper processes), spawn
    [exe] under supervision, and record it to completion.  [on_stop] is
    invoked after every handled ptrace stop (used for PSS sampling).
    [on_event] observes every frame as it is emitted, before it reaches
    the trace writer — the live half of {!Conn_track}; it must not
    raise.  [opts.sink] selects where the trace streams while
    recording (see {!Trace.Writer.create}); a journaling sink killed
    mid-run leaves a salvageable file.  Returns the trace, recording
    statistics, and the final kernel.

    Raises {!Record_error} on unsupported syscalls (§2.3.6 — the model
    must be extended), recording deadlock, the event-count guard
    ([Rec_failure]), or a trace-store/journal failure ([Rec_trace]).
    On any failure the writer is aborted first: the sink is closed, so
    a journaling recorder that dies never leaks its journal fd (the
    salvageable prefix stays on disk). *)

val run :
  ?opts:opts ->
  ?on_stop:(Kernel.t -> unit) ->
  ?on_event:(Event.t -> unit) ->
  setup:(Kernel.t -> unit) ->
  exe:string ->
  unit ->
  (Trace.t * stats * Kernel.t, error) result
(** {!record} with the failure as a value instead of an exception. *)
