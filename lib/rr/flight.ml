(* Flight-recorder mode: bounded ring recording with dump-on-trigger
   persistence (see flight.mli and DESIGN.md §4j). *)

type trigger = On_signal | On_exit_nonzero | On_divergence | On_always

type cause =
  | Signal of Recorder.error
  | Exit_nonzero of int
  | Diverged of string
  | Partial_window of { base_frame : int }
  | Always

type dump_target = To_file of string | To_repo of Repo.t * string

type outcome = {
  result : (Recorder.stats * Kernel.t, Recorder.error) result;
  window : Trace.t;
  report : Trace.ring_report;
  cause : cause option;
  dumped_to : string option;
}

let pp_cause ppf = function
  | Signal e -> Fmt.pf ppf "signal (%a)" Recorder.pp_error e
  | Exit_nonzero code -> Fmt.pf ppf "exit!=0 (%d)" code
  | Diverged msg -> Fmt.pf ppf "divergence (%s)" msg
  | Partial_window { base_frame } ->
    Fmt.pf ppf "partial window (base frame %d, divergence unverifiable)"
      base_frame
  | Always -> Fmt.string ppf "always"

let parse_trigger = function
  | "signal" -> Some On_signal
  | "exit!=0" -> Some On_exit_nonzero
  | "divergence" -> Some On_divergence
  | "always" -> Some On_always
  | _ -> None

let trigger_to_string = function
  | On_signal -> "signal"
  | On_exit_nonzero -> "exit!=0"
  | On_divergence -> "divergence"
  | On_always -> "always"

(* Evaluate [dump_on] against the run, most severe first.  The
   divergence check replays the window and is only meaningful when the
   window still starts at frame 0 — a truncated window has no initial
   state to replay from.  Asking for divergence verification on a
   truncated window is classified explicitly (Partial_window) rather
   than silently skipped: the window still dumps, and the cause says
   why it was not verified. *)
let first_cause ~dump_on ~result ~window ~(report : Trace.ring_report) =
  let want t = List.mem t dump_on in
  let signal =
    match result with
    | Error e when want On_signal -> Some (Signal e)
    | _ -> None
  in
  let exit_nonzero () =
    match result with
    | Ok ((stats : Recorder.stats), _) when want On_exit_nonzero -> (
      match stats.Recorder.exit_status with
      | Some 0 -> None
      | Some code -> Some (Exit_nonzero code)
      | None -> Some (Exit_nonzero (-1)))
    | _ -> None
  in
  let divergence () =
    if not (want On_divergence) then None
    else if report.Trace.rr_base_frame > 0 then
      Some (Partial_window { base_frame = report.Trace.rr_base_frame })
    else
      match Replayer.replay window with
      | (_ : Replayer.stats * Kernel.t) -> None
      | exception Replayer.Divergence msg -> Some (Diverged msg)
  in
  let always () = if want On_always then Some Always else None in
  match signal with
  | Some _ as c -> c
  | None -> (
    match exit_nonzero () with
    | Some _ as c -> c
    | None -> (
      match divergence () with Some _ as c -> c | None -> always ()))

let dump_window ~window = function
  | To_file path -> (
    match Trace.save window path with
    | Ok () -> Ok path
    | Error e -> Error (Recorder.Rec_trace e))
  | To_repo (repo, name) -> (
    match Repo.store_trace repo ~name window with
    | Ok (_ : Repo.store_result) -> Ok ("repo:" ^ name)
    | Error e -> Error (Recorder.Rec_failure (Repo.error_to_string e)))

let record ?(opts = Recorder.default_opts) ?on_stop ~dump_on ?dump ~ring ~setup
    ~exe () =
  let opts = Recorder.with_sink opts (Recorder.Sink_ring ring) in
  let result =
    match Recorder.run ~opts ?on_stop ~setup ~exe () with
    | Ok ((_ : Trace.t), stats, k) -> Ok (stats, k)
    | Error e -> Error e
  in
  (* Snapshot once, after the run: the handle outlives a recording that
     died, so the window is dumpable either way. *)
  let window, report = Trace.ring_trace ring in
  let cause = first_cause ~dump_on ~result ~window ~report in
  match (cause, dump) with
  | Some _, Some target -> (
    match dump_window ~window target with
    | Ok where ->
      Ok { result; window; report; cause; dumped_to = Some where }
    | Error e -> Error e)
  | _ -> Ok { result; window; report; cause; dumped_to = None }
