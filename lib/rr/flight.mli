(** Flight-recorder mode (DESIGN.md §4j, ROADMAP item 2).

    "Always on" recording: the trace streams into a bounded in-memory
    ring ({!Trace.ring}) instead of a file, costing a fixed chunk
    budget no matter how long the workload runs.  When something goes
    wrong — the recording dies, the root process exits non-zero, a
    verification replay diverges — the retained window is dumped to a
    file or a {!Repo.t}; a healthy run discards it for free.

    Triggers are the [dump_on] argument of {!record}; the most severe
    firing trigger names the {!cause}.  [On_divergence] runs a
    verification replay of the window, but only when nothing was
    dropped ([rr_base_frame = 0]) — a truncated window has no frame-0
    initial state to replay from (the documented flight-recorder
    limitation).  When divergence verification is requested on a
    truncated window the cause is {!Partial_window}: the window still
    dumps, explicitly classified as unverifiable rather than silently
    passing. *)

(** When a flight recording's ring window should be persisted. *)
type trigger =
  | On_signal  (** the recording died on an error / was killed *)
  | On_exit_nonzero  (** the root process exited with a non-zero status *)
  | On_divergence  (** a verification replay of the window diverged *)
  | On_always

type cause =
  | Signal of Recorder.error  (** the recording itself died *)
  | Exit_nonzero of int
  | Diverged of string  (** verification replay raised [Divergence] *)
  | Partial_window of { base_frame : int }
      (** divergence verification was requested but the ring dropped
          frames ([rr_base_frame > 0]): the window is dumped but cannot
          be replay-verified *)
  | Always

type dump_target = To_file of string | To_repo of Repo.t * string

type outcome = {
  result : (Recorder.stats * Kernel.t, Recorder.error) result;
      (** the underlying recording's outcome (trace omitted: the window
          snapshot is [window] below) *)
  window : Trace.t;  (** the ring window, rebased to frame 0 *)
  report : Trace.ring_report;
  cause : cause option;  (** [None]: no trigger fired *)
  dumped_to : string option;
      (** the file path or ["repo:<name>"] the window was persisted to *)
}

val pp_cause : cause Fmt.t

val parse_trigger : string -> trigger option
(** ["signal"], ["exit!=0"], ["divergence"], ["always"] — the
    [--dump-on] spellings. *)

val trigger_to_string : trigger -> string

val record :
  ?opts:Recorder.opts ->
  ?on_stop:(Kernel.t -> unit) ->
  dump_on:trigger list ->
  ?dump:dump_target ->
  ring:Trace.ring ->
  setup:(Kernel.t -> unit) ->
  exe:string ->
  unit ->
  (outcome, Recorder.error) result
(** Record [exe] with the trace streaming into [ring] (the sink in
    [opts] is overridden; all other options apply as given).  After the
    run — whether it completed or died — evaluate [dump_on] against
    the outcome and, if a trigger fired and [dump] is given,
    persist the window.  [Error] is returned only when the {e dump}
    could not be written or the window could not be snapshotted; a
    recording failure is data in [outcome.result] (it is precisely what
    [On_signal] exists to catch). *)
