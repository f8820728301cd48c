(* A reverse-execution debugger over replay (paper §1, §6.1).

   Time is measured in trace-event indices.  Forward execution replays
   frames; *reverse* execution restores the nearest earlier checkpoint
   and replays forward — exactly rr's scheme, made cheap by COW address-
   space checkpoints ("most checkpoints are never resumed", so creating
   one must cost almost nothing).

   Seeks are *index-aware*: when the trace carries a persistent
   {!Trace_index.t} (built by [Trace_indexer], stored as 'P'/'K'
   records), a seek may restore a durable checkpoint decoded straight
   from the trace — so a freshly reopened trace jumps to frame N in
   O(N mod interval) instead of replaying from frame 0.  Every indexed
   answer is counted under [index.hit]; every scan fallback (no index,
   or a blob that fails to decode/restore) under [index.fallback].

   The typed query surface lives in {!Query}: [seek_to_frame],
   [seek_to_time], [prev_exec], [last_write] — all result-typed, all
   answering from the index when present with transparent fallback to
   the scans they replace. *)

module E = Event
module T = Task

exception Debug_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Debug_error s)) fmt

(* ---- options --------------------------------------------------------- *)

type opts = {
  replay : Replayer.opts;
  checkpoint_every : int;
  use_index : bool;
}

let default_opts =
  { replay = Replayer.default_opts; checkpoint_every = 32; use_index = true }

(* Smart constructor: a cadence ≤ 0 would divide by zero in [step];
   clamp rather than trust it (the make_opts convention). *)
let make_opts ?(replay = Replayer.default_opts) ?(checkpoint_every = 32)
    ?(use_index = true) () =
  { replay; checkpoint_every = max 1 checkpoint_every; use_index }

type t = {
  trace : Trace.t;
  opts : opts;
  mutable session : Replayer.t;
  (* Checkpoints as a sorted dynamic array (ascending frame index,
     first [n_checkpoints] slots live).  A long session takes thousands
     of them, and every backward seek looks one up: membership and
     nearest-≤ queries are O(log n) binary searches, insertion is an
     ordered shift (almost always an append — execution moves forward). *)
  mutable checkpoints : (int * Replayer.snapshot) array;
  mutable n_checkpoints : int;
  mutable checkpoints_taken : int;
  mutable checkpoints_restored : int;
}

let pos d = Replayer.cursor_index d.session

let n_events d = Trace.n_events d.trace

let at_end d = pos d >= n_events d

let trace d = d.trace

let opts d = d.opts

let checkpoint_every d = d.opts.checkpoint_every

let n_checkpoints d = d.n_checkpoints

let checkpoints_taken d = d.checkpoints_taken

let checkpoints_restored d = d.checkpoints_restored

let checkpoint_frames d =
  List.init d.n_checkpoints (fun i -> fst d.checkpoints.(i))

(* The persistent index, when this session is allowed to use it.  Looked
   up per query (not cached at [create]) so an index attached after the
   session started — e.g. by [Trace_indexer.build_and_attach] — is
   picked up transparently. *)
let index d = if d.opts.use_index then Trace.index d.trace else None

let indexed d = index d <> None

let clock d = Kernel.now (Replayer.kernel d.session)

(* Greatest live slot with frame index ≤ [target], or -1. *)
let cp_search d target =
  let lo = ref 0 and hi = ref (d.n_checkpoints - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if fst d.checkpoints.(mid) <= target then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

let cp_insert d idx snap =
  let at = cp_search d idx + 1 in
  let cap = Array.length d.checkpoints in
  if d.n_checkpoints = cap then begin
    let grown = Array.make (max 8 (2 * cap)) (idx, snap) in
    Array.blit d.checkpoints 0 grown 0 d.n_checkpoints;
    d.checkpoints <- grown
  end;
  Array.blit d.checkpoints at d.checkpoints (at + 1) (d.n_checkpoints - at);
  d.checkpoints.(at) <- (idx, snap);
  d.n_checkpoints <- d.n_checkpoints + 1

let take_checkpoint d =
  let idx = pos d in
  let i = cp_search d idx in
  if i < 0 || fst d.checkpoints.(i) <> idx then begin
    let snap = Replayer.snapshot d.session in
    cp_insert d idx snap;
    d.checkpoints_taken <- d.checkpoints_taken + 1
  end

let create ?(opts = default_opts) trace =
  (* Re-clamp: [opts] may be a literal, not a [make_opts] product. *)
  let opts = { opts with checkpoint_every = max 1 opts.checkpoint_every } in
  let d =
    { trace;
      opts;
      session = Replayer.start ~opts:opts.replay trace;
      checkpoints = [||];
      n_checkpoints = 0;
      checkpoints_taken = 0;
      checkpoints_restored = 0 }
  in
  take_checkpoint d;
  d

let step d =
  if Replayer.at_end d.session then fail "at end of trace";
  let e = Replayer.step d.session in
  if pos d mod d.opts.checkpoint_every = 0 then take_checkpoint d;
  e

(* ---- seeking --------------------------------------------------------- *)

let tm_index_hit = Telemetry.counter "index.hit"
let tm_index_fallback = Telemetry.counter "index.fallback"

let restore_mem d i =
  let _, snap = d.checkpoints.(i) in
  d.session <- Replayer.restore_exn ~opts:d.opts.replay d.trace snap;
  d.checkpoints_restored <- d.checkpoints_restored + 1

(* Restore a durable checkpoint straight out of the trace.  The blob is
   derived data: a decode or identity failure is a fallback, never an
   error — the live checkpoint array still covers the seek. *)
let try_restore_durable d frame blob =
  match Replayer.decode_snapshot blob with
  | exception Codec.Corrupt _ ->
    Telemetry.incr tm_index_fallback;
    false
  | snap -> (
    match Replayer.restore ~opts:d.opts.replay d.trace snap with
    | Error _ ->
      Telemetry.incr tm_index_fallback;
      false
    | Ok session ->
      d.session <- session;
      d.checkpoints_restored <- d.checkpoints_restored + 1;
      Telemetry.incr tm_index_hit;
      (* Memoize as a live checkpoint so the next seek into this region
         skips the decode.  [frame] beat every live slot ≤ target, so no
         live checkpoint exists there yet. *)
      cp_insert d frame snap;
      true)

let seek d target =
  if target < 0 || target > n_events d then fail "seek out of range";
  Timeline.scope "replay.seek" @@ fun () ->
  (* Pick the best base to replay forward from: the current position
     (forward seeks), the nearest live checkpoint (reverse execution,
     §6.1), or — strictly better than both — a durable checkpoint from
     the persistent index (O(delta) seeks on a freshly reopened trace). *)
  let here = if pos d <= target then pos d else -1 in
  let mem_i = cp_search d target in
  let mem = if mem_i >= 0 then fst d.checkpoints.(mem_i) else -1 in
  let base = max here mem in
  let durable =
    match index d with
    | None -> None
    | Some ix -> (
      match Trace_index.nearest_checkpoint ix target with
      | Some (frame, blob) when frame > base -> Some (frame, blob)
      | _ -> None)
  in
  let restored =
    match durable with
    | Some (frame, blob) -> try_restore_durable d frame blob
    | None -> false
  in
  if (not restored) && here < 0 then begin
    if mem_i < 0 then fail "no checkpoint at or before %d" target;
    restore_mem d mem_i
  end;
  while pos d < target do
    ignore (step d)
  done

(* At frame 0 there is no earlier state: a no-op, not an error — the
   stub layer turns it into a "history exhausted" stop reply. *)
let reverse_step d = if pos d > 0 then seek d (pos d - 1)

(* Static frame searches (frames are data; no execution needed).  Both
   delegate to the chunk-indexed reader, which decodes lazily and can
   skip whole chunks when given a kind mask. *)
let find_event ?kind_mask d ~from p = Trace.Reader.find_from ?kind_mask d.trace from p

let rfind_event ?kind_mask d ~before p =
  Trace.Reader.rfind_before ?kind_mask d.trace before p

(* Run forward to the next frame satisfying [p]; position lands just
   after it.  Returns the frame index. *)
let continue_to d p =
  match find_event d ~from:(pos d) p with
  | None -> None
  | Some i ->
    seek d (i + 1);
    Some i

(* Reverse-continue: land just after the previous matching frame,
   skipping a hit at the current position (gdb semantics).  From frame 0
   the search window is empty: [None], position untouched. *)
let reverse_continue_to d p =
  if pos d = 0 then None
  else
    match rfind_event d ~before:(pos d - 1) p with
    | None -> None
    | Some i ->
      seek d (i + 1);
      Some i

let frame d i =
  if i < 0 || i >= n_events d then fail "frame %d out of range" i
  else Trace.Reader.frame d.trace i

let exit_status d = (Replayer.stats_of d.session).Replayer.exit_status

(* Public checkpoint control for the stub's `qRcmd checkpoint`: reuses
   the internal dedup'ing take. *)
let take_checkpoint d =
  take_checkpoint d;
  pos d

(* ---- state inspection ------------------------------------------------ *)

let task d tid =
  match Kernel.find_task (Replayer.kernel d.session) tid with
  | Some t -> t
  | None -> fail "no task %d at event %d" tid (pos d)

let live_tids d =
  List.filter_map
    (fun t -> if T.is_alive t then Some t.T.tid else None)
    (Kernel.all_tasks (Replayer.kernel d.session))

let regs d tid =
  let t = task d tid in
  (Cpu.copy_regs t.T.cpu, t.T.cpu.Cpu.pc)

let read_mem d tid addr len =
  let t = task d tid in
  try Addr_space.read_bytes ~force:true t.T.cpu.Cpu.space addr len
  with Addr_space.Segv _ -> fail "address %#x not mapped in task %d" addr tid

let read_word d tid addr =
  let t = task d tid in
  try Addr_space.read_u64 ~force:true t.T.cpu.Cpu.space addr
  with Addr_space.Segv _ -> fail "address %#x not mapped in task %d" addr tid

let sample d tid addr len =
  match Kernel.find_task (Replayer.kernel d.session) tid with
  | None -> None
  | Some t when not (T.is_alive t) -> None
  | Some t -> (
    try Some (Addr_space.read_bytes ~force:true t.T.cpu.Cpu.space addr len)
    with Addr_space.Segv _ -> None)

(* ---- scan fallbacks --------------------------------------------------

   The pre-index algorithms, kept verbatim: indexed answers are defined
   to be byte-identical to these, so they double as the reference
   implementation (the property tests compare against them). *)

(* "When did [addr..addr+len) in task [tid] last change before frame
   [upto]?"  Replays forward from the start (checkpoint-accelerated by
   seek) sampling the region after every frame. *)
let scan_last_write d ~tid ~addr ~len ~upto =
  let saved = pos d in
  seek d 0;
  let prev = ref (sample d tid addr len) in
  let last = ref None in
  while pos d < upto do
    ignore (step d);
    let now = sample d tid addr len in
    (match (!prev, now) with
    | Some a, Some b when not (Bytes.equal a b) -> last := Some (pos d - 1)
    | (Some _ | None), (Some _ | None) -> () (* death/birth is not a write *));
    prev := now
  done;
  seek d saved;
  !last

(* Largest position whose virtual-clock reading is ≤ [time], by forward
   replay; [None] when even position 0 is later.  Position is left at
   the answer (or restored on [None]). *)
let scan_time d time =
  let saved = pos d in
  seek d 0;
  if clock d > time then begin
    seek d saved;
    None
  end
  else begin
    let best = ref (pos d) in
    while (not (at_end d)) && clock d <= time do
      ignore (step d);
      if clock d <= time then best := pos d
    done;
    seek d !best;
    Some !best
  end

(* A write-candidate is verified exactly as the scan observes a change:
   sample at position [f], apply frame [f], sample again; a change is
   two live samples that differ (death/birth is not a write). *)
let verify_write d ~tid ~addr ~len f =
  seek d f;
  let a = sample d tid addr len in
  ignore (step d);
  let b = sample d tid addr len in
  match (a, b) with
  | Some a, Some b -> not (Bytes.equal a b)
  | (Some _ | None), (Some _ | None) -> false

(* ---- the typed query surface ----------------------------------------- *)

module Query = struct
  type error = Out_of_range of { what : string; value : int; min : int; max : int }

  let pp_error ppf (Out_of_range { what; value; min; max }) =
    Fmt.pf ppf "%s %d out of range [%d, %d]" what value min max

  let error_to_string = Fmt.to_to_string pp_error

  let frame_range d ~what value k =
    if value < 0 || value > n_events d then
      Error (Out_of_range { what; value; min = 0; max = n_events d })
    else k ()

  let seek_to_frame d target =
    frame_range d ~what:"frame" target @@ fun () ->
    seek d target;
    Ok ()

  let seek_to_time d time =
    match index d with
    | Some ix -> (
      Telemetry.incr tm_index_hit;
      match Trace_index.frame_of_time ix time with
      | Some p ->
        seek d p;
        Ok p
      | None ->
        Error
          (Out_of_range
             { what = "time";
               value = time;
               min = Trace_index.clock_at ix 0;
               max = max_int }))
    | None -> (
      Telemetry.incr tm_index_fallback;
      match scan_time d time with
      | Some p -> Ok p
      | None ->
        (* [scan_time] restored the position; the clock at frame 0 is
           what the failed comparison was made against. *)
        let saved = pos d in
        seek d 0;
        let min = clock d in
        seek d saved;
        Error (Out_of_range { what = "time"; value = time; min; max = max_int }))

  let prev_exec ?before d ~pc =
    let before = match before with Some b -> b | None -> pos d in
    frame_range d ~what:"before" before @@ fun () ->
    if before = 0 then Ok None
    else
      match index d with
      | Some ix ->
        Telemetry.incr tm_index_hit;
        Ok (Trace_index.prev_exec ix ~pc ~before)
      | None ->
        Telemetry.incr tm_index_fallback;
        (* [rfind_before] is already exclusive: last frame < [before]. *)
        Ok (rfind_event d ~before (fun e -> E.frame_pc e = Some pc))

  let last_write ?before d ~tid ~addr ~len =
    let before = match before with Some b -> b | None -> pos d in
    frame_range d ~what:"before" before @@ fun () ->
    match index d with
    | Some ix ->
      Telemetry.incr tm_index_hit;
      (* Candidates are a page-granular superset (plus every unbounded-
         effects frame); sampling verification keeps the answer
         byte-identical to the scan.  Newest first, so the first
         verified candidate is the answer. *)
      let candidates = Trace_index.write_candidates ix ~addr ~len ~before in
      let saved = pos d in
      let rec first = function
        | [] -> None
        | f :: rest ->
          if verify_write d ~tid ~addr ~len f then Some f else first rest
      in
      let r = first candidates in
      seek d saved;
      Ok r
    | None ->
      Telemetry.incr tm_index_fallback;
      Ok (scan_last_write d ~tid ~addr ~len ~upto:before)
end
