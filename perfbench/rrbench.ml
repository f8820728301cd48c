(* The repository's benchmark: record, replay and reverse-debug latency
   on the host clock, for three seeded workloads (README.md).

     rrbench --workload compute|payload|debug --seed N --seconds S
             --trace 0|1 [--size full|tiny] [--workdir DIR]

   One process, one domain, the program's default options.  A run is
   nine set-ups (input generation plus the untraced baseline), then, for
   [--seconds], one untimed verification cycle and query check followed
   by record/replay/index cycles interleaved with passes of the seeded
   debugger query plan over a cold-opened indexed trace.  Every output
   is checked; failed checks are counted, never fatal.
   With [--trace 0] the last line carries the end-to-end metrics; with
   [--trace 1] cycles alternate untraced and traced, and the last line
   carries the per-layer ledger instead. *)

open Perfbench

(* ---- host clock --------------------------------------------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Time [f] on the host clock inside a timeline scope (a cheap no-op
   while the timeline is off). *)
let timed span f =
  let t0 = now_ns () in
  let r = Timeline.scope span f in
  (r, seconds_since t0)

(* The host this runs on is shared: its speed drifts by a third over
   minutes, within a run as well as between runs.  So a fixed loop,
   independent of the program under test, is timed before every set-up,
   every phase of a cycle and every tenth query of a pass, and each host
   reading is
   put on the scale of a machine on which that loop takes
   [reference_s]: a time is multiplied by the speed factor
   [reference_s / loop time] measured just before it, a rate divided.
   The loop does what the simulator's hot paths do (hash-table lookups,
   small allocations, a churning live set for the collector), so
   contention slows it about as much as it slows the program.  It runs
   between two full collections, so neither the program's garbage is
   charged to it nor its garbage to the program. *)
let reference_s = 0.035
let calibration = ref []

(* Start a timed phase from a collected heap, so one phase's garbage is
   not charged to the next. *)
let settle () = Gc.full_major ()

(* Time the loop; returns the speed factor. *)
let calibrate () =
  settle ();
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 100_000 do
    let k = i * 7919 land 65535 in
    (match Hashtbl.find_opt h k with
    | Some b -> Bytes.set b (i land 63) 'x'
    | None -> Hashtbl.replace h k (Bytes.create 64));
    if i land 1 = 0 then Hashtbl.remove h (k * 31 land 65535)
  done;
  ignore (Sys.opaque_identity h);
  let dt = seconds_since t0 in
  calibration := dt :: !calibration;
  settle ();
  reference_s /. dt

(* ---- checks ------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let max_reported = 20

let check name ok detail =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= max_reported then Fmt.pr "FAIL %s: %s@." name (detail ())
  end

(* Run a step whose exception must count as a failed check, not end
   the run. *)
let guard name f =
  match f () with
  | v -> Some v
  | exception e ->
    check name false (fun () -> Printexc.to_string e);
    None

(* ---- arguments ---------------------------------------------------- *)

type args = {
  workload : Plan.workload;
  seed : int;
  seconds : float;
  traced : bool;
  size : Plan.size;
  workdir : string;
}

let usage =
  "rrbench --workload compute|payload|debug --seed N --seconds S --trace \
   0|1 [--size full|tiny] [--workdir DIR]"

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let traced = ref None and size = ref Plan.Full and workdir = ref "." in
  let bad fmt = Fmt.kstr (fun m -> raise (Arg.Bad m)) fmt in
  let int_arg name r =
    Arg.String
      (fun s ->
        match int_of_string_opt s with
        | Some v -> r := Some v
        | None -> bad "%s expects an integer, got %S" name s)
  in
  let specs =
    [ ( "--workload",
        Arg.String
          (fun s ->
            match Plan.workload_of_string s with
            | Some w -> workload := Some w
            | None -> bad "unknown workload %S" s),
        "NAME compute, payload or debug" );
      ("--seed", int_arg "--seed" seed, "N input seed");
      ( "--seconds",
        Arg.String
          (fun s ->
            match float_of_string_opt s with
            | Some v when v > 0. -> seconds := Some v
            | Some _ | None -> bad "--seconds expects a positive number"),
        "S measurement time" );
      ( "--trace",
        Arg.String
          (function
          | "0" -> traced := Some false
          | "1" -> traced := Some true
          | s -> bad "--trace expects 0 or 1, got %S" s),
        "0|1 end-to-end metrics (0) or the per-layer ledger (1)" );
      ( "--size",
        Arg.String
          (function
          | "full" -> size := Plan.Full
          | "tiny" -> size := Plan.Tiny
          | s -> bad "--size expects full or tiny, got %S" s),
        "full|tiny tiny runs every phase on small inputs, in seconds" );
      ("--workdir", Arg.Set_string workdir, "DIR where trace files go") ]
  in
  Arg.parse specs (fun a -> bad "unexpected argument %S" a) usage;
  match (!workload, !seed, !seconds, !traced) with
  | Some workload, Some seed, Some seconds, Some traced ->
    { workload; seed; seconds; traced; size = !size; workdir = !workdir }
  | _ -> bad "--workload, --seed, --seconds and --trace are required"

(* ---- set-up: inputs and the untraced baseline --------------------- *)

type setup = {
  plan : Plan.t;
  wl : Workload.t;
  base_vns : int; (* virtual ns *)
  base_insns : int;
  base_s : float;
  setup_s : float;
  speed : float; (* speed factor measured just before *)
}

let setup args =
  let speed = calibrate () in
  let t0 = now_ns () in
  let plan = Plan.make ~workload:args.workload ~size:args.size ~seed:args.seed in
  let wl = Plan.workload_of_input plan.Plan.input in
  let base, base_s =
    timed "perfbench.baseline" (fun () -> Workload.baseline wl)
  in
  check "baseline.exit" (base.Workload.exit_status = Some 0) (fun () ->
      Fmt.str "baseline exit %a" Fmt.(Dump.option int) base.exit_status);
  { plan;
    wl;
    base_vns = base.Workload.wall_time;
    base_insns = base.kernel.Kernel.insns_retired;
    base_s;
    setup_s = seconds_since t0;
    speed }

(* ---- one record/replay/index cycle -------------------------------- *)

(* Address-space digest and exit code of every process, keyed by pid.
   The recorder reaps exited children, so the recording side is sampled
   at every ptrace stop, as soon as a process has exited (its memory
   no longer changes).  That hashes every page of every process, so only
   the untimed verification cycle does it. *)
let note_exited acc (k : Kernel.t) =
  Hashtbl.iter
    (fun pid (p : Task.process) ->
      if p.Task.exit_code <> None && not (Hashtbl.mem acc pid) then
        Hashtbl.replace acc pid (Checksum.space p.Task.space, p.Task.exit_code))
    k.Kernel.procs

let digests_of_table acc =
  Hashtbl.fold (fun pid v l -> (pid, v) :: l) acc [] |> List.sort compare

let final_digests (k : Kernel.t) =
  Hashtbl.fold
    (fun pid (p : Task.process) l ->
      (pid, (Checksum.space p.Task.space, p.Task.exit_code)) :: l)
    k.Kernel.procs []
  |> List.sort compare

type cycle = {
  (* Speed factors measured just before recording, replay and indexing. *)
  rec_speed : float;
  rep_speed : float;
  idx_speed : float;
  record_s : float;
  save_s : float;
  open_s : float;
  replay_only_s : float;
  replay_s : float;
  index_s : float;
  rec_insns : int;
  rep_insns : int;
  vrecord : float;
  vreplay : float;
  trace_bytes : int;
  n_events : int;
  syscalls : int;
  ptrace_stops : int;
  index_checkpoints : int;
  rec_stats : Recorder.stats;
  trace_stats : Trace.stats;
  rep_digests : (int * (int * int option)) list;
  (* Everything that must repeat exactly for one input. *)
  fingerprint : (string * int) list;
}

let file_size path = (Unix.stat path).Unix.st_size

(* Syscalls the replayer reaches on its breakpoint fast path.  It stops
   at the breakpoint on the syscall site, before the syscall instruction
   retires, applies the recorded result and moves the pc past it; so
   each of these is one instruction the recording retired and the
   replay does not. *)
let bp_syscalls = Telemetry.counter "replay.bp_syscall"

(* [digests], when given, collects the recording side's digests. *)
let run_cycle ?digests s ~path ~ipath =
  let w = s.wl in
  let rec_speed = calibrate () in
  let (trace, rec_stats, rk), rec_run_s =
    timed "perfbench.record" (fun () ->
        Recorder.record
          ?on_stop:(Option.map note_exited digests)
          ~setup:w.Workload.setup ~exe:w.Workload.exe ())
  in
  let (), save_s = timed "perfbench.save" (fun () -> Trace.save_exn trace path) in
  Option.iter (fun acc -> note_exited acc rk) digests;
  let rep_speed = calibrate () in
  let cold, open_s = timed "perfbench.open" (fun () -> Trace.open_exn path) in
  let bp0 = Telemetry.counter_value bp_syscalls in
  let (rep_stats, pk), replay_only_s =
    timed "perfbench.replay" (fun () -> Replayer.replay cold)
  in
  let stepped_over = Telemetry.counter_value bp_syscalls - bp0 in
  let idx_speed = calibrate () in
  let index, build_s =
    timed "perfbench.index" (fun () -> Trace_indexer.build_and_attach trace)
  in
  let (), isave_s = timed "perfbench.save" (fun () -> Trace.save_exn trace ipath) in
  let n_events = Trace.n_events trace in
  check "roundtrip.n_events" (Trace.n_events cold = n_events) (fun () ->
      Fmt.str "saved %d frames, reopened %d" n_events (Trace.n_events cold));
  check "replay.exit_status"
    (rep_stats.Replayer.exit_status = rec_stats.Recorder.exit_status
    && rec_stats.exit_status = Some 0)
    (fun () ->
      Fmt.str "recorded %a, replayed %a"
        Fmt.(Dump.option int)
        rec_stats.exit_status
        Fmt.(Dump.option int)
        rep_stats.exit_status);
  check "replay.insns_retired"
    (rk.Kernel.insns_retired = pk.Kernel.insns_retired + stepped_over)
    (fun () ->
      Fmt.str
        "recorded %d instructions, replayed %d plus %d syscalls stepped over"
        rk.Kernel.insns_retired pk.Kernel.insns_retired stepped_over);
  let trace_bytes = file_size path in
  let vrecord = float_of_int rec_stats.wall_time /. float_of_int s.base_vns in
  let vreplay = float_of_int rep_stats.wall_time /. float_of_int s.base_vns in
  ( { rec_speed;
    rep_speed;
    idx_speed;
    record_s = rec_run_s +. save_s;
    save_s;
    open_s;
    replay_only_s;
    replay_s = open_s +. replay_only_s;
    index_s = build_s +. isave_s;
    rec_insns = rk.Kernel.insns_retired;
    rep_insns = pk.Kernel.insns_retired;
    vrecord;
    vreplay;
    trace_bytes;
    n_events;
    syscalls = rk.Kernel.syscall_count;
    ptrace_stops = rk.Kernel.trace_stop_count;
    index_checkpoints = Array.length (Trace_index.checkpoints index);
    rec_stats;
    trace_stats = { (Trace.stats trace) with n_events };
    rep_digests = final_digests pk;
    fingerprint =
      [ ("record_vns", rec_stats.wall_time);
        ("replay_vns", rep_stats.wall_time);
        ("trace_bytes", trace_bytes);
        ("indexed_trace_bytes", file_size ipath);
        ("n_events", n_events);
        ("index_checkpoints", Array.length (Trace_index.checkpoints index));
        ("kern.insns_retired", rk.Kernel.insns_retired);
        ("kern.syscalls", rk.Kernel.syscall_count);
        ("kern.ptrace_stops", rk.Kernel.trace_stop_count);
        ("replay.insns_retired", pk.Kernel.insns_retired) ] },
    trace,
    index )

(* The first cycle fixes the fingerprint every later cycle of the run,
   traced or not, must repeat. *)
let check_fingerprint ~reference c =
  List.iter2
    (fun (name, want) (_, got) ->
      check ("determinism." ^ name) (want = got) (fun () ->
          Fmt.str "first cycle %d, this cycle %d" want got))
    reference c.fingerprint

(* ---- the query phase ---------------------------------------------- *)

(* What a plan's fractions resolve against: the frame count, the
   distinct frame pcs (reverse breakpoints) and (tid, stack pointer)
   pairs seen in frames (reverse watchpoints on live stack slots). *)
type targets = { n : int; pcs : int array; sites : (int * int) array }

let targets_of trace =
  let pcs = Hashtbl.create 64 and sites = Hashtbl.create 64 in
  Trace.Reader.iter
    (fun _ e ->
      Option.iter (fun pc -> Hashtbl.replace pcs pc ()) (Event.frame_pc e);
      match e with
      | Event.E_syscall { tid; regs_after; _ } ->
        Hashtbl.replace sites (tid, regs_after.(Insn.reg_sp)) ()
      | Event.E_sched { tid; point } ->
        Hashtbl.replace sites (tid, point.Event.point_regs.(Insn.reg_sp)) ()
      | _ -> ())
    trace;
  let keys h = Hashtbl.fold (fun k () l -> k :: l) h [] |> List.sort compare in
  { n = Trace.n_events trace;
    pcs = Array.of_list (keys pcs);
    sites = Array.of_list (keys sites) }

type kind = K_seek | K_prev | K_write

let kind_name = function
  | K_seek -> "seek_to_frame"
  | K_prev -> "prev_exec"
  | K_write -> "last_write"

(* A plan query resolved against [t]: its kind, the frame a seek lands
   on, and the call itself. *)
let resolve t q =
  let frame frac = Plan.index_of frac (t.n + 1) in
  let show_opt = function
    | Ok (Some f) -> string_of_int f
    | Ok None -> "none"
    | Error e -> Debugger.Query.error_to_string e
  in
  match q with
  | Plan.Seek { at } ->
    let target = frame at in
    ( K_seek,
      Some target,
      fun d ->
        match Debugger.Query.seek_to_frame d target with
        | Ok () -> "ok"
        | Error e -> Debugger.Query.error_to_string e )
  | Plan.Prev_exec { before; pc } ->
    let before = frame before in
    let pc = t.pcs.(Plan.index_of pc (Array.length t.pcs)) in
    (K_prev, None, fun d -> show_opt (Debugger.Query.prev_exec ~before d ~pc))
  | Plan.Last_write { before; site } ->
    let before = frame before in
    let tid, addr = t.sites.(Plan.index_of site (Array.length t.sites)) in
    ( K_write,
      None,
      fun d -> show_opt (Debugger.Query.last_write ~before d ~tid ~addr ~len:8) )

(* Where a session stands: position, virtual clock, and every live
   task's registers. *)
let landing d =
  ( Debugger.pos d,
    Debugger.clock d,
    List.map (fun tid -> (tid, Debugger.regs d tid)) (Debugger.live_tids d) )

type pass = {
  (* query number, kind, seconds, speed factor *)
  latencies : (int * kind * float * float) list;
  answers : (int * string) list; (* query number, answer *)
  seek_frames : int list; (* per seek: target minus nearest checkpoint *)
  restored : int;
}

let run_pass t queries ~ipath =
  let speed = ref (calibrate ()) in
  let cold = Trace.open_exn ipath in
  let d = Debugger.create cold in
  let ix = Trace.index cold in
  check "index.attached" (ix <> None) (fun () -> "reopened trace has no index");
  let latencies = ref [] and answers = ref [] and seek_frames = ref [] in
  Array.iteri
    (fun i q ->
      (* A pass runs for seconds, long enough for the machine's speed to
         change within it. *)
      if i > 0 && i mod 10 = 0 then speed := calibrate ();
      let kind, target, call = resolve t q in
      match timed "perfbench.query" (fun () -> call d) with
      | exception e ->
        check ("query." ^ kind_name kind) false (fun () -> Printexc.to_string e)
      | answer, secs ->
        latencies := (i, kind, secs, !speed) :: !latencies;
        answers := (i, answer) :: !answers;
        (match (target, ix) with
        | Some f, Some ix ->
          let base =
            match Trace_index.nearest_checkpoint ix f with
            | Some (c, _) -> c
            | None -> 0
          in
          seek_frames := (f - base) :: !seek_frames
        | _ -> ()))
    queries;
  { latencies = List.rev !latencies;
    answers = List.rev !answers;
    seek_frames = !seek_frames;
    restored = Debugger.checkpoints_restored d }

(* Every tenth query of the plan, on a fresh indexed session, repeated on
   a scan-only session moved to the same start: both must give the same
   answer and land in the same state.  The scan-only session opens its
   own copy of the trace, so the two share no chunk cache.  Returns the
   sampled answers; a query's answer does not depend on where the
   session starts, so every timed pass must give them too. *)
let verify_queries t queries ~ipath =
  settle ();
  let d = Debugger.create (Trace.open_exn ipath) in
  let ds =
    Debugger.create
      ~opts:(Debugger.make_opts ~use_index:false ())
      (Trace.open_exn ipath)
  in
  List.init ((Array.length queries + 9) / 10) (fun k -> k * 10)
  |> List.filter_map (fun i ->
         let kind, _, call = resolve t queries.(i) in
         guard ("verify." ^ kind_name kind) (fun () ->
             let start = Debugger.pos d in
             let answer = call d in
             Debugger.seek ds start;
             let scan_answer = call ds in
             check ("verify." ^ kind_name kind) (scan_answer = answer)
               (fun () ->
                 Fmt.str "query %d: indexed %s, scan %s" i answer scan_answer);
             check "verify.landing" (landing ds = landing d) (fun () ->
                 Fmt.str "query %d: indexed session at %d, scan at %d" i
                   (Debugger.pos d) (Debugger.pos ds));
             (i, answer)))

(* ---- the traced run's ledger -------------------------------------- *)

(* Self time per scope name on both clocks: each scope's duration minus
   its children's.  The run uses one domain, so the buffer's begin/end
   events nest in emission order. *)
let self_times () =
  let tbl = Hashtbl.create 32 in
  let stack = ref [] in
  List.iter
    (fun (e : Timeline.event) ->
      match e.ev_kind with
      | Timeline.B -> stack := (e, ref 0, ref 0) :: !stack
      | Timeline.E -> (
        match !stack with
        | (b, hch, vch) :: rest ->
          let hd = e.ev_hts - b.Timeline.ev_hts
          and vd = e.ev_vts - b.Timeline.ev_vts in
          let h, v = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl b.ev_name) in
          Hashtbl.replace tbl b.ev_name (h + hd - !hch, v + vd - !vch);
          (match rest with
          | (_, ph, pv) :: _ ->
            ph := !ph + hd;
            pv := !pv + vd
          | [] -> ());
          stack := rest
        | [] -> ())
      | Timeline.I | Timeline.C -> ())
    (Timeline.events ());
  fun name ->
    let h, v = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
    (float_of_int h /. 1e9, float_of_int v /. 1e9)

let traced f =
  Timeline.set_host_clock now_ns;
  Timeline.start ~capacity:(1 lsl 21) ();
  let r = Fun.protect ~finally:Timeline.stop f in
  check "timeline.dropped" (Timeline.dropped () = 0) (fun () ->
      Fmt.str "%d timeline events dropped" (Timeline.dropped ()));
  check "timeline.mismatches" (Timeline.mismatches () = 0) (fun () ->
      Fmt.str "%d unbalanced scopes" (Timeline.mismatches ()));
  r

let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Telemetry.snap_counters)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* Host time per byte of [f] over [bytes], repeated until at least
   20 ms have been measured so small traces still give a steady rate. *)
let throughput_mb_per_s ~bytes f =
  let t0 = now_ns () in
  let reps = ref 0 in
  while !reps = 0 || seconds_since t0 < 0.02 do
    f ();
    incr reps
  done;
  float_of_int (bytes * !reps) /. 1e6 /. seconds_since t0

(* Layer calls only the traced run makes, after the timeline stops so
   they stay out of the stage ledger. *)
let layer_extras index ~path =
  let (), decode_s =
    timed "perfbench.decode" (fun () ->
        Trace.Reader.iter (fun _ _ -> ()) (Trace.open_exn path))
  in
  let cold = Trace.open_exn path in
  let chunks =
    List.init (Array.length (Trace.chunk_index cold)) (Trace.chunk_stored cold)
  in
  let raw =
    if Trace.compressed cold then List.map Compress.inflate chunks else chunks
  in
  let raw_bytes = List.fold_left (fun a s -> a + String.length s) 0 raw in
  let inflate_rate =
    throughput_mb_per_s ~bytes:raw_bytes (fun () ->
        List.iter (fun s -> ignore (Compress.inflate s)) chunks)
  in
  let deflate_rate =
    throughput_mb_per_s ~bytes:raw_bytes (fun () ->
        List.iter (fun s -> ignore (Compress.deflate s)) raw)
  in
  let (), snapshot_s =
    timed "perfbench.snapshot_decode" (fun () ->
        Array.iter
          (fun (_, blob) -> ignore (Replayer.decode_snapshot blob))
          (Trace_index.checkpoints index))
  in
  (decode_s, inflate_rate, deflate_rate, snapshot_s)

(* ---- reporting ---------------------------------------------------- *)

let emitted : (string * float * string) list ref = ref []

(* A reading on the reference scale, given the speed factor [k]
   measured just before it. *)
let scaled (m : Metrics.m) (k, v) =
  match m.scale with Metrics.Exact -> v | Time -> v *. k | Rate -> v /. k

let report ?(note = "") (m : Metrics.m) ~raw v =
  check ("metric." ^ m.name) (Float.is_finite v) (fun () -> "not a finite number");
  let v = if Float.is_finite v then v else 0. in
  let note =
    if m.scale = Metrics.Exact then note
    else Fmt.str "raw %.6f%s" raw (if note = "" then "" else "; " ^ note)
  in
  emitted := (m.name, v, m.unit_) :: !emitted;
  Fmt.pr "  %-32s %14.6f %-8s %-6s %s@." m.name v m.unit_
    (match m.better with Metrics.Lower -> "lower" | Higher -> "higher")
    (if note = "" then m.doc else note)

let exact ?note m v = report ?note m ~raw:v v

let summary_note xs =
  let q1, _, q3 = Stats.quartiles xs in
  Fmt.str "median of %d (q1 %.4f, q3 %.4f)" (List.length xs) q1 q3

(* The median of readings, each paired with its speed factor. *)
let median_of m samples =
  let xs = List.map (scaled m) samples in
  report ~note:(summary_note xs) m
    ~raw:(Stats.median (List.map snd samples))
    (Stats.median xs)

let metric name =
  List.find (fun (m : Metrics.m) -> m.name = name) (Metrics.end_to_end @ Metrics.per_layer)

let json_result () =
  let metrics =
    List.rev !emitted
    |> List.map (fun (name, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (Printf.sprintf "%.17g" v) u)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed
    (String.concat ", " metrics)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    let line =
      List.find_opt
        (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
        (String.split_on_char '\n' status)
    in
    Option.bind line (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
    |> Option.map (fun kb -> float_of_int kb /. 1024.)
  | exception Sys_error _ -> None

(* ---- the run ------------------------------------------------------ *)

let run args =
  let size_n = match args.size with Plan.Full -> 9 | Plan.Tiny -> 2 in
  let setups = List.init size_n (fun _ -> setup args) in
  let s = List.hd setups in
  List.iter
    (fun s' ->
      check "determinism.baseline"
        (s'.base_vns = s.base_vns && s'.base_insns = s.base_insns)
        (fun () -> "baseline virtual time or instruction count changed"))
    setups;
  let plan = s.plan in
  Fmt.pr "perfbench %s seed=%d seconds=%g trace=%d size=%s@."
    (Plan.workload_name args.workload)
    args.seed args.seconds
    (if args.traced then 1 else 0)
    (match args.size with Plan.Full -> "full" | Plan.Tiny -> "tiny");
  Fmt.pr "input: %a; %d queries per pass@." Plan.pp_input plan.Plan.input
    (Array.length plan.queries);
  if not (Sys.file_exists args.workdir) then Sys.mkdir args.workdir 0o755;
  let tmp suffix =
    Filename.concat args.workdir
      (Printf.sprintf "perfbench-%s-%d-%d%s"
         (Plan.workload_name args.workload)
         args.seed (Unix.getpid ()) suffix)
  in
  let path = tmp ".trace" and ipath = tmp ".indexed.trace" in
  let cleanup () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; ipath ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let t_run = now_ns () in
  (* An untimed verification comes first and checks in full what the
     timed phases cannot afford to: one cycle digests the recording at
     every ptrace stop, and every tenth query is repeated on a scan-only
     session.  It fixes what every timed cycle and pass must repeat: the
     cycle's fingerprint, the replay's digests and the sampled answers.
     The timed cycles and passes then interleave over the rest of the
     window, each kind getting about half of it, so a slow stretch of the
     machine lands on both.  In the traced run, even cycles run untraced
     and odd ones traced, so the two can be compared for overhead and
     determinism; every timed pass is traced.  A pass replays the query
     plan over the indexed trace the latest cycle saved. *)
  let check_digests ~recorded c =
    check "replay.checksum_space" (c.rep_digests = recorded) (fun () ->
        Fmt.str "%d recorded processes, %d replayed, digests differ"
          (List.length recorded) (List.length c.rep_digests))
  in
  let digests = Hashtbl.create 16 in
  (* Memory is read after the set-ups and the verification cycle, before
     any query: the seeded plan decides which checkpoints a pass
     restores, and that moved the peak by a quarter from seed to seed.
     Later cycles repeat the same work. *)
  let peak_rss = ref None in
  let verified =
    guard "cycle.verify" (fun () -> run_cycle ~digests s ~path ~ipath)
    |> Option.map (fun (c, trace, _) ->
           peak_rss := peak_rss_mb ();
           let recorded = digests_of_table digests in
           check_digests ~recorded c;
           let t = targets_of trace in
           (c.fingerprint, recorded, t, verify_queries t plan.queries ~ipath))
  in
  let plain = ref [] and with_trace = ref [] and passes = ref [] in
  (match verified with
  | None -> ()
  | Some (reference, recorded, t, sampled) ->
    let cycle i =
      let tracing = args.traced && i mod 2 = 1 in
      let snap0 = Telemetry.snapshot () in
      let body () = run_cycle s ~path ~ipath in
      match guard "cycle" (fun () -> if tracing then traced body else body ()) with
      | None -> ()
      | Some (c, _, index) ->
        check_fingerprint ~reference c;
        check_digests ~recorded c;
        if tracing then begin
          let self = self_times () in
          let tel = Telemetry.since snap0 in
          let extras = guard "layer_extras" (fun () -> layer_extras index ~path) in
          with_trace := (c, self, tel, extras) :: !with_trace
        end
        else plain := c :: !plain
    in
    let pass _ =
      let snap0 = Telemetry.snapshot () in
      let body () = run_pass t plan.queries ~ipath in
      match guard "pass" (fun () -> if args.traced then traced body else body ()) with
      | None -> ()
      | Some p ->
        List.iter
          (fun (i, want) ->
            let got = List.assoc_opt i p.answers in
            check "pass.answers" (got = Some want) (fun () ->
                Fmt.str "query %d: verified %s, timed pass %s" i want
                  (Option.value ~default:"no answer" got)))
          sampled;
        (match !passes with
        | (prev, _) :: _ ->
          check "determinism.answers" (prev.answers = p.answers) (fun () ->
              "a pass answered differently from the one before")
        | [] -> ());
        passes := (p, Telemetry.since snap0) :: !passes
    in
    let min_cycles = if args.traced then 4 else 3 and min_passes = 2 in
    let n_cycles = ref 0 and n_passes = ref 0 in
    let cycles_s = ref 0. and passes_s = ref 0. in
    let last_cycle = ref 0. and last_pass = ref 0. in
    let step run n total last =
      let t0 = now_ns () in
      run !n;
      incr n;
      last := seconds_since t0;
      total := !total +. !last
    in
    let rec loop () =
      let pending_cycles = !n_cycles < min_cycles
      and pending_passes = !n_passes < min_passes in
      let want_pass =
        pending_passes || (!passes_s < !cycles_s && not pending_cycles)
      in
      let fits last = seconds_since t_run +. last <= args.seconds in
      if want_pass then begin
        if pending_passes || fits !last_pass then begin
          step pass n_passes passes_s last_pass;
          loop ()
        end
      end
      else if pending_cycles || fits !last_cycle then begin
        step cycle n_cycles cycles_s last_cycle;
        loop ()
      end
    in
    loop ());
  let cycles = List.rev !plain and tcycles = List.rev !with_trace in
  let passes = List.rev !passes in
  Fmt.pr "ran %d untraced and %d traced cycles, %d query passes in %.1f s@."
    (List.length cycles) (List.length tcycles) (List.length passes)
    (seconds_since t_run);
  if (cycles = [] && tcycles = []) || passes = [] then
    check "run.complete" false (fun () -> "no complete cycle or pass")
  else if not args.traced then begin
    let r name k f = median_of (metric name) (List.map (fun c -> (k c, f c)) cycles) in
    let on_rec c = c.rec_speed and on_rep c = c.rep_speed in
    r "record_s" on_rec (fun c -> c.record_s);
    r "replay_s" on_rep (fun c -> c.replay_s);
    r "record_minsn_per_s" on_rec (fun c -> float_of_int c.rec_insns /. 1e6 /. c.record_s);
    r "index_s" (fun c -> c.idx_speed) (fun c -> c.index_s);
    (* Each call of the plan is timed once per pass; its latency is the
       median over passes, and the statistics are over calls. *)
    let seek = metric "seek_s" in
    let per_call = Hashtbl.create 128 in
    List.iter
      (fun (p, _) ->
        List.iter
          (fun (i, _, secs, k) ->
            Hashtbl.replace per_call i
              ((k, secs) :: Option.value ~default:[] (Hashtbl.find_opt per_call i)))
          p.latencies)
      passes;
    let calls, raw_calls =
      Hashtbl.fold
        (fun _ xs l ->
          (Stats.median (List.map (scaled seek) xs), Stats.median (List.map snd xs))
          :: l)
        per_call []
      |> List.split
    in
    let npasses = List.length passes in
    let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
    (* The mean, not the median: calls are either cheap (near a live
       checkpoint) or restore a durable one and replay, and the median
       call falls in the sparse gap between the two. *)
    report seek
      ~note:
        (Fmt.str "mean of %d calls, each the median of %d passes"
           (List.length calls) npasses)
      ~raw:(mean raw_calls) (mean calls);
    (match (Stats.tail calls, Stats.tail raw_calls) with
    | Some tl, Some raw ->
      report (metric "seek_tail_s")
        ~note:
          (Fmt.str "p%.1f of %d calls, each the median of %d passes" tl.pct
             tl.n npasses)
        ~raw:raw.value tl.value
    | _ -> check "seek_tail.samples" false (fun () -> "10 or fewer calls"));
    r "record_vslowdown" on_rec (fun c -> c.vrecord);
    r "replay_vslowdown" on_rep (fun c -> c.vreplay);
    r "trace_kb" on_rec (fun c -> float_of_int c.trace_bytes /. 1024.);
    median_of (metric "setup_s") (List.map (fun s -> (s.speed, s.setup_s)) setups);
    exact (metric "peak_rss_mb") (Option.value ~default:nan !peak_rss);
    List.iter
      (fun kind ->
        let xs =
          List.concat_map
            (fun (p, _) ->
              List.filter_map
                (fun (_, k, v, _) -> if k = kind then Some v else None)
                p.latencies)
            passes
        in
        if xs <> [] then
          Fmt.pr "  %-32s %14.6f s        (median of %d calls, raw)@."
            (kind_name kind ^ " latency") (Stats.median xs) (List.length xs))
      [ K_seek; K_prev; K_write ]
  end
  else begin
    match tcycles with
    | [] -> check "run.traced_cycles" false (fun () -> "no traced cycle completed")
    | (c0, _, _, _) :: _ ->
      (* Readings that span a whole cycle take the median of its three
         speed factors. *)
      let whole c = Stats.median [ c.rec_speed; c.rep_speed; c.idx_speed ] in
      let r ?(k = whole) name f =
        median_of (metric name)
          (List.map (fun ((c, _, _, _) as tc) -> (k c, f tc)) tcycles)
      in
      let on_rec c = c.rec_speed and on_rep c = c.rep_speed in
      let cyc f (c, _, _, _) = f c in
      let ext f (_, _, _, e) = match e with Some e -> f e | None -> nan in
      let base name f = median_of (metric name) (List.map (fun s -> (s.speed, f s)) setups) in
      base "isa.baseline_minsn_per_s" (fun s -> float_of_int s.base_insns /. 1e6 /. s.base_s);
      base "kern.baseline_s" (fun s -> s.base_s);
      exact (metric "kern.syscalls") (float_of_int c0.syscalls);
      exact (metric "kern.ptrace_stops") (float_of_int c0.ptrace_stops);
      exact (metric "kern.insns_retired") (float_of_int c0.rec_insns);
      (* The baseline on the reference scale, taken back to each cycle's
         own machine speed. *)
      let base_ref = Stats.median (List.map (fun s -> s.base_s *. s.speed) setups) in
      r ~k:on_rec "rr.record_overhead_s"
        (cyc (fun c -> c.record_s -. (base_ref /. c.rec_speed)));
      let st = c0.rec_stats in
      exact (metric "rr.stops_per_frame")
        (float_of_int st.Recorder.n_ptrace_stops /. float_of_int c0.n_events);
      let rc = counter st.telemetry in
      exact (metric "rr.stop_elided") (float_of_int (rc "record.stop_elided"));
      exact (metric "rr.syscallbuf_hit_ratio")
        (ratio (rc "syscallbuf.hit") (rc "syscallbuf.fallback"));
      r ~k:on_rep "rr.replay_minsn_per_s"
        (cyc (fun c -> float_of_int c.rep_insns /. 1e6 /. c.replay_only_s));
      r ~k:on_rec "rrtrace.save_s" (cyc (fun c -> c.save_s));
      r ~k:on_rep "rrtrace.open_s" (cyc (fun c -> c.open_s));
      r "rrtrace.decode_s" (ext (fun (d, _, _, _) -> d));
      r "rrtrace.deflate_mb_per_s" (ext (fun (_, _, d, _) -> d));
      r "rrtrace.inflate_mb_per_s" (ext (fun (_, i, _, _) -> i));
      let ts = c0.trace_stats in
      exact (metric "rrtrace.compress_ratio")
        (float_of_int ts.Trace.raw_bytes
        /. float_of_int (max 1 ts.Trace.compressed_bytes));
      let tel_sum name =
        List.fold_left (fun a (_, _, tel, _) -> a + counter tel name) 0 tcycles
        + List.fold_left (fun a (_, tel) -> a + counter tel name) 0 passes
      in
      exact (metric "rrtrace.chunk_hit_ratio")
        (ratio (tel_sum "trace.chunk.hit") (tel_sum "trace.chunk.miss"));
      exact (metric "rr.index_checkpoints") (float_of_int c0.index_checkpoints);
      r "rr.snapshot_decode_s" (ext (fun (_, _, _, s) -> s));
      let frames = List.concat_map (fun (p, _) -> p.seek_frames) passes in
      exact (metric "rr.seek_frames_replayed")
        (if frames = [] then 0.
         else
           float_of_int (List.fold_left ( + ) 0 frames)
           /. float_of_int (List.length frames));
      let pass_sum name = List.fold_left (fun a (_, tel) -> a + counter tel name) 0 passes in
      exact (metric "rr.index_hit_ratio")
        (ratio (pass_sum "index.hit") (pass_sum "index.fallback"));
      exact (metric "rr.checkpoints_restored")
        (Stats.median (List.map (fun (p, _) -> float_of_int p.restored) passes));
      r "exec.pool_tasks" (fun (_, _, tel, _) -> float_of_int (counter tel "pool.tasks"));
      let cycle_s c =
        (c.record_s *. c.rec_speed) +. (c.replay_s *. c.rep_speed)
        +. (c.index_s *. c.idx_speed)
      in
      let traced_s = Stats.median (List.map (fun (c, _, _, _) -> cycle_s c) tcycles) in
      let plain_s = Stats.median (List.map cycle_s cycles) in
      exact (metric "bench.calibration_s") (Stats.median !calibration);
      exact (metric "obs.tracing_overhead_pct")
        ~note:(Fmt.str "traced %.4f s vs untraced %.4f s per cycle" traced_s plain_s)
        (100. *. ((traced_s /. plain_s) -. 1.));
      List.iter
        (fun stage ->
          r (stage ^ ".host_self_s") (fun (_, self, _, _) -> fst (self stage)))
        Metrics.stages;
      List.iter
        (fun stage ->
          r (stage ^ ".virtual_self_s") (fun (_, self, _, _) -> snd (self stage)))
        Metrics.virtual_stages
  end;
  Fmt.pr "calibration: %.6f s, median of %d@." (Stats.median !calibration)
    (List.length !calibration);
  Fmt.pr "timeline: dropped=%d mismatches=%d@." (Timeline.dropped ())
    (Timeline.mismatches ());
  let error_rate =
    if !attempted = 0 then 0. else float_of_int !failed /. float_of_int !attempted
  in
  Fmt.pr "  %-32s %14.6f %-8s %-6s %d failed of %d checks@." "error_rate"
    error_rate "ratio" "lower" !failed !attempted;
  print_endline (json_result ())

let () =
  match parse_args () with
  | args -> run args
  | exception Arg.Bad msg ->
    prerr_endline msg;
    exit 2
  | exception Arg.Help msg ->
    print_string msg;
    exit 0
