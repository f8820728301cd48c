(* rr_cli — drive the record/replay system from the command line.

   The simulated machine has no persistent disk, so traces live for the
   duration of one invocation; the CLI chains phases the way the real rr
   binary chains `rr record` / `rr replay` / `rr dump`:

     rr_cli record cp -o t.trace record a workload, print stats, save it
     rr_cli replay cp            record then replay, verify equivalence
     rr_cli replay t.trace       replay a saved trace
     rr_cli dump t.trace -n 30   print the first 30 trace frames
     rr_cli debug cp --port 2345 record, then serve the trace to gdb
     rr_cli list                 available workloads

   Correctness checks live in the test suite (test/test_identity.ml and
   friends), not in the CLI. *)

open Cmdliner

let workload_of_name = function
  | "cp" -> Wl_cp.make ()
  | "make" -> Wl_make.make ()
  | "octane" -> Wl_octane.make ()
  | "htmltest" -> Wl_htmltest.make ()
  | "sambatest" -> Wl_samba.make ()
  | "serve" -> Wl_serve.make ()
  | n -> Fmt.failwith "unknown workload %s (try: rr_cli list)" n

(* ---- shared flag table ------------------------------------------------

   Every flag that more than one subcommand accepts is declared here
   exactly once: names, docv and help text live in this table and
   nowhere else, so subcommands cannot drift apart in spelling or
   semantics.  --help output is generated from
   these declarations and smoke-rendered for every subcommand by the
   CLI lint in bin/dune. *)
module Flags = struct
  let workload_doc =
    "Workload to run (cp, make, octane, htmltest, sambatest, serve)."

  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:workload_doc)

  let trace_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"A saved trace file.")

  let no_intercept =
    let doc = "Disable in-process syscall interception (paper §3)." in
    Arg.(value & flag & info [ "no-intercept" ] ~doc)

  let no_cloning =
    let doc = "Disable block cloning for large reads (paper §3.9)." in
    Arg.(value & flag & info [ "no-cloning" ] ~doc)

  let chaos =
    let doc =
      "Chaos mode: randomized scheduling to surface races (paper §8)."
    in
    Arg.(value & flag & info [ "chaos" ] ~doc)

  let seed =
    let doc = "Recording seed (scheduling and entropy)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)

  let out ~doc =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

  let target =
    let doc = "A saved trace file, or a workload name to record first." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

  let repo_dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"A trace repository directory.")

  (* The recording options every recording subcommand accepts, combined
     into one term: parsed once, clamped once (Recorder.make_opts). *)
  let record_opts =
    let combine no_intercept no_cloning chaos seed =
      Recorder.make_opts ~intercept:(not no_intercept)
        ~clone_blocks:(not no_cloning) ~chaos ~seed ()
    in
    Term.(const combine $ no_intercept $ no_cloning $ chaos $ seed)
end

let do_record w opts =
  let recd, _k = Workload.record ~opts w in
  let st = recd.Workload.rec_stats in
  Fmt.pr "recorded %s: exit=%a@." w.Workload.name
    Fmt.(option ~none:(any "?") int)
    st.Recorder.exit_status;
  Fmt.pr "  wall time      : %d (virtual ns)@." st.Recorder.wall_time;
  Fmt.pr "  ptrace stops   : %d@." st.Recorder.n_ptrace_stops;
  Fmt.pr "  syscalls       : %d@." st.Recorder.n_syscalls;
  Fmt.pr "  sched events   : %d@." st.Recorder.n_sched_events;
  Fmt.pr "  patched sites  : %d@." st.Recorder.n_patched_sites;
  Fmt.pr "  trace          : %a@." Trace.pp_stats (Trace.stats recd.Workload.trace);
  recd

(* Saved-trace commands get CLI-grade errors: a bad file is user error,
   not a crash.  Format_error can also surface after open, when a lazily
   decoded chunk turns out corrupt. *)
let with_trace_errors f =
  try f () with
  | Trace.Format_error e ->
    Fmt.epr "rr_cli: %a@." Trace.pp_error e;
    exit 1
  | Repo.Repo_error e ->
    Fmt.epr "rr_cli: %a@." Repo.pp_error e;
    exit 1
  | Io.Io_error e ->
    Fmt.epr "rr_cli: %a@." Io.pp_error e;
    exit 1
  | Sys_error msg | Failure msg ->
    Fmt.epr "rr_cli: %s@." msg;
    exit 1

let open_repo dir =
  match Repo.open_ dir with
  | Ok r -> r
  | Error e ->
    Fmt.epr "rr_cli: %a@." Repo.pp_error e;
    exit 1

(* A command TARGET is a saved trace file, or a workload name that
   [record] records on the spot; the recording's stats come back with
   the trace so callers can check a replay against them. *)
let trace_of_target ~record target =
  if Sys.file_exists target then (Trace.open_exn target, None)
  else
    match workload_of_name target with
    | exception Failure _ ->
      Fmt.failwith "%s is neither a trace file nor a workload (try: rr_cli list)"
        target
    | w ->
      let recd = record w in
      (recd.Workload.trace, Some recd.Workload.rec_stats)

let record_cmd =
  let ring_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ring" ] ~docv:"N"
          ~doc:
            "Flight-recorder mode: stream the trace into a bounded \
             in-memory ring of $(docv) chunks (drop-oldest, \
             journal-watermark aligned) instead of keeping it all; \
             persist the window only when a --dump-on trigger fires.")
  in
  let dump_on_arg =
    Arg.(
      value & opt_all string []
      & info [ "dump-on" ] ~docv:"TRIGGER"
          ~doc:
            "Persist the ring window when $(docv) fires: signal (the \
             recording died), exit!=0, divergence (a verification replay \
             of the window diverged), or always.  Repeatable; default \
             always.")
  in
  let repo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repo" ] ~docv:"DIR"
          ~doc:
            "Store the trace (or the dumped ring window) \
             content-addressed in the repository at $(docv), created if \
             missing; shared chunks dedup against what is already there.")
  in
  let record_plain w opts out repo =
    let recd =
      match repo with
      | None -> do_record w opts
      | Some dir -> (
        let repo =
          match Repo.init dir with
          | Ok r -> r
          | Error e ->
            Fmt.epr "rr_cli: %a@." Repo.pp_error e;
            exit 1
        in
        let opts =
          Recorder.with_sink opts (Recorder.Sink_repo (repo, w.Workload.name))
        in
        let recd = do_record w opts in
        match Repo.stats repo with
        | Ok s ->
          Fmt.pr "stored '%s' in %s:@.%a@." w.Workload.name (Repo.path repo)
            Repo.pp_stats s;
          recd
        | Error e ->
          Fmt.epr "rr_cli: %a@." Repo.pp_error e;
          exit 1)
    in
    match out with
    | Some path -> (
      match Trace.save recd.Workload.trace path with
      | Ok () -> Fmt.pr "trace saved to %s@." path
      | Error e ->
        Fmt.epr "rr_cli: %a@." Trace.pp_error e;
        exit 1)
    | None -> ()
  in
  let record_flight w opts out repo chunks dump_on =
    let triggers =
      match dump_on with
      | [] -> [ Flight.On_always ]
      | l ->
        List.map
          (fun s ->
            match Flight.parse_trigger s with
            | Some t -> t
            | None ->
              Fmt.epr
                "rr_cli: unknown --dump-on trigger %S (signal, exit!=0, \
                 divergence, always)@."
                s;
              exit 2)
          l
    in
    let ring = Trace.ring ~chunks in
    let dump =
      match (repo, out) with
      | Some dir, _ ->
        let repo =
          match Repo.init dir with
          | Ok r -> r
          | Error e ->
            Fmt.epr "rr_cli: %a@." Repo.pp_error e;
            exit 1
        in
        Some (Flight.To_repo (repo, w.Workload.name))
      | None, Some path -> Some (Flight.To_file path)
      | None, None -> None
    in
    match
      Flight.record ~opts ~dump_on:triggers ?dump ~ring
        ~setup:w.Workload.setup ~exe:w.Workload.exe ()
    with
    | Error e ->
      Fmt.epr "rr_cli: dump failed: %a@." Recorder.pp_error e;
      exit 1
    | Ok o ->
      (match o.Flight.result with
      | Ok (st, _) ->
        Fmt.pr "recorded %s (flight): exit=%a@." w.Workload.name
          Fmt.(option ~none:(any "?") int)
          st.Recorder.exit_status
      | Error e ->
        Fmt.pr "recording died: %a@." Recorder.pp_error e);
      Fmt.pr "  ring           : %a@." Trace.pp_ring_report o.Flight.report;
      (match o.Flight.cause with
      | Some c -> Fmt.pr "  trigger fired  : %a@." Flight.pp_cause c
      | None -> Fmt.pr "  trigger fired  : none@.");
      (match o.Flight.dumped_to with
      | Some where -> Fmt.pr "  window dumped  : %s@." where
      | None -> ())
  in
  let run name opts out ring dump_on repo =
    with_trace_errors @@ fun () ->
    let w = workload_of_name name in
    match ring with
    | Some chunks -> record_flight w opts out repo chunks dump_on
    | None -> record_plain w opts out repo
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Record a workload and print trace statistics.  With --ring, \
          flight-recorder mode: a bounded in-memory window persisted only \
          when a --dump-on trigger fires.  With --repo, the trace is \
          stored content-addressed.")
    Term.(
      const run $ Flags.workload $ Flags.record_opts
      $ Flags.out ~doc:"Save the trace (or the dumped ring window) to FILE."
      $ ring_arg $ dump_on_arg $ repo_arg)

(* replay_cmd is defined after the shard helpers below: its --conn mode
   extracts and replays a single connection's sub-trace. *)

let dump_cmd =
  let n_arg =
    Arg.(value & opt int 40 & info [ "n" ] ~doc:"Number of frames to print.")
  in
  let run target n =
    with_trace_errors @@ fun () ->
    let trace, _ =
      trace_of_target ~record:(fun w -> fst (Workload.record w)) target
    in
    let total = Trace.n_events trace in
    Fmt.pr "%s: %d frames, %a@." target total Trace.pp_stats (Trace.stats trace);
    (* Only the chunks covering the first [n] frames are inflated. *)
    let c = Trace.Reader.open_ trace in
    while Trace.Reader.pos c < min n total do
      let i = Trace.Reader.pos c in
      Fmt.pr "%5d  %a@." i Event.pp (Trace.Reader.next c)
    done;
    if total > n then Fmt.pr "... (%d more)@." (total - n);
    let st = Trace.stats trace in
    Fmt.pr "(decoded %d of %d chunks; lru %d hits / %d misses / %d evictions)@."
      (Trace.decoded_chunks trace)
      (Array.length (Trace.chunk_index trace))
      st.Trace.lru_hits st.Trace.lru_misses st.Trace.lru_evictions
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Print the frames of a saved trace, or of a workload recorded on \
          the spot.")
    Term.(const run $ Flags.target $ n_arg)

(* debug TARGET: TARGET is a saved trace file, or a workload name that
   is recorded on the spot (interception off so every syscall is its own
   frame — the debugger's time axis).  Exactly one of three modes:
     --script FILE   run a canned RSP session over the in-memory
                     transport (the CI smoke's mode; exit 1 on mismatch)
     --port P        serve the GDB remote protocol on 127.0.0.1:P
     --socket PATH   ... on a Unix-domain socket *)
let debug_cmd =
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"P"
          ~doc:"Serve the GDB remote protocol on 127.0.0.1:$(docv).")
  in
  let sockpath_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve the GDB remote protocol on a Unix-domain socket.")
  in
  let script_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Run the scripted RSP session in $(docv) against the trace over \
             the in-memory transport and check its expectations.")
  in
  let cp_every_arg =
    Arg.(
      value & opt int 16
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint cadence in frames (clamped to >= 1).")
  in
  let trace_of_target target =
    let opts = Recorder.make_opts ~intercept:false () in
    fst (trace_of_target ~record:(fun w -> fst (Workload.record ~opts w)) target)
  in
  let serve_transport trace checkpoint_every tr =
    let d =
      Debugger.create ~opts:(Debugger.make_opts ~checkpoint_every ()) trace
    in
    Gdb_server.run (Gdb_server.create d tr);
    tr.Gdb_transport.close ();
    Fmt.pr "debugger detached at frame %d (%d checkpoints, %d restores)@."
      (Debugger.pos d)
      (Debugger.checkpoints_taken d)
      (Debugger.checkpoints_restored d)
  in
  let run_script trace checkpoint_every file =
    let text = In_channel.with_open_bin file In_channel.input_all in
    match Gdb_script.parse text with
    | Error msg ->
      Fmt.epr "rr_cli: %s: %s@." file msg;
      exit 2
    | Ok steps -> (
      let d =
        Debugger.create ~opts:(Debugger.make_opts ~checkpoint_every ()) trace
      in
      let client_tr, server_tr = Gdb_transport.pair () in
      let server = Gdb_server.create d server_tr in
      let client =
        Gdb_client.create ~pump:(fun () -> Gdb_server.pump server) client_tr
      in
      match Gdb_script.run ~log:(fun l -> Fmt.pr "  %s@." l) client steps with
      | Ok n -> Fmt.pr "script ok: %d steps@." n
      | Error msg ->
        Fmt.epr "rr_cli: debug --script: %s@." msg;
        exit 1)
  in
  let run target port sockpath script checkpoint_every =
    with_trace_errors @@ fun () ->
    match (script, port, sockpath) with
    | Some file, None, None ->
      run_script (trace_of_target target) checkpoint_every file
    | None, Some port, None ->
      let trace = trace_of_target target in
      Fmt.pr "gdb stub listening on 127.0.0.1:%d (target remote :%d)@." port
        port;
      serve_transport trace checkpoint_every (Gdb_sock.listen_tcp ~port ())
    | None, None, Some path ->
      let trace = trace_of_target target in
      Fmt.pr "gdb stub listening on %s@." path;
      serve_transport trace checkpoint_every (Gdb_sock.listen_unix ~path)
    | _ ->
      Fmt.epr "rr_cli: choose one of --port, --socket, --script@.";
      exit 2
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:
         "Drive a trace with the reverse-execution debugger: serve it to \
          gdb over the remote serial protocol (--port/--socket) or run a \
          scripted RSP session (--script).")
    Term.(
      const run $ Flags.target $ port_arg $ sockpath_arg
      $ script_arg $ cp_every_arg)

let repair_cmd =
  let run path out =
    with_trace_errors @@ fun () ->
    match Trace.salvage path with
    | Ok (t, report) ->
      Fmt.pr "%a@." Trace.pp_salvage_report report;
      (match out with
      | Some out_path ->
        Trace.save_exn t out_path;
        Fmt.pr "repaired trace (%d frames) saved to %s@." (Trace.n_events t)
          out_path
      | None -> ());
      if report.Trace.sr_damage <> None then exit 3
    | Error e ->
      Fmt.epr "rr_cli: nothing recoverable: %a@." Trace.pp_error e;
      exit 1
  in
  let out_arg =
    Flags.out
      ~doc:"Save the salvaged trace to FILE (re-written, fully committed)."
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Salvage the longest verifiable prefix of a damaged trace and \
          report what was lost.  Exits 0 if the file was intact, 3 if \
          something was recovered but data was lost, 1 if nothing was \
          recoverable.")
    Term.(const run $ Flags.trace_file $ out_arg)

let index_cmd =
  let every_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "every" ] ~docv:"N"
          ~doc:
            "Durable-checkpoint cadence in frames (clamped to >= 1; default \
             about n/16).")
  in
  let out_arg =
    Flags.out ~doc:"Write the indexed trace to FILE (default: rewrite TRACE)."
  in
  let run path every out =
    with_trace_errors @@ fun () ->
    let trace = Trace.open_exn path in
    let ix = Trace_indexer.build_and_attach ?checkpoint_every:every trace in
    let out = Option.value out ~default:path in
    Trace.save_exn trace out;
    Fmt.pr "indexed %d frames (%d durable checkpoints); saved to %s@."
      (Trace.n_events trace)
      (Array.length (Trace_index.checkpoints ix))
      out
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:
         "Build the persistent seek index of a saved trace (one replay \
          pass) and store it in the trace: per-pc and per-address tables \
          plus durable checkpoints, so later sessions seek in O(delta) \
          from a cold open.")
    Term.(const run $ Flags.trace_file $ every_arg $ out_arg)

let seek_cmd =
  let frame_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "frame" ] ~docv:"N" ~doc:"Seek to frame $(docv).")
  in
  let time_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "time" ] ~docv:"T"
          ~doc:
            "Seek to the latest position whose virtual-clock reading is at \
             most $(docv).")
  in
  let no_index_arg =
    Arg.(
      value & flag
      & info [ "no-index" ]
          ~doc:"Ignore any persistent index (scan-based seeks only).")
  in
  let run path frame time no_index =
    with_trace_errors @@ fun () ->
    let trace = Trace.open_exn path in
    let d =
      Debugger.create
        ~opts:(Debugger.make_opts ~use_index:(not no_index) ()) trace
    in
    let report () =
      Fmt.pr
        "at frame %d of %d (clock %d); indexed=%b, checkpoints restored=%d@."
        (Debugger.pos d) (Debugger.n_events d) (Debugger.clock d)
        (Debugger.indexed d)
        (Debugger.checkpoints_restored d)
    in
    match (frame, time) with
    | Some f, None -> (
      match Debugger.Query.seek_to_frame d f with
      | Ok () -> report ()
      | Error e ->
        Fmt.epr "rr_cli: %a@." Debugger.Query.pp_error e;
        exit 1)
    | None, Some t -> (
      match Debugger.Query.seek_to_time d t with
      | Ok _ -> report ()
      | Error e ->
        Fmt.epr "rr_cli: %a@." Debugger.Query.pp_error e;
        exit 1)
    | _ ->
      Fmt.epr "rr_cli: seek needs exactly one of --frame or --time@.";
      exit 2
  in
  Cmd.v
    (Cmd.info "seek"
       ~doc:
         "Open a saved trace and seek to a frame (--frame) or virtual-clock \
          time (--time), reporting whether the persistent index made the \
          jump O(delta).")
    Term.(const run $ Flags.trace_file $ frame_arg $ time_arg $ no_index_arg)

let stats_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the telemetry snapshot as a single JSON object.")
  in
  let attribution_arg =
    Arg.(
      value & flag
      & info [ "attribution" ]
          ~doc:
            "Trace the session on the timeline and print the per-stage \
             overhead ledger (self-time percentages from the scope tree, \
             not flat spans).  With --json, emits the ledger as JSON \
             instead of the telemetry snapshot.")
  in
  let run name opts json attribution =
    let w = workload_of_name name in
    (* One clean record+replay session; the snapshot covers both phases. *)
    Telemetry.reset ();
    if attribution then Timeline.start ();
    let recd, _ = Workload.record ~opts w in
    let _rep, _ = Workload.replay recd in
    if attribution then Timeline.stop ();
    let snap = Telemetry.snapshot () in
    match (json, attribution) with
    | true, false -> print_string (Telemetry.snapshot_to_json snap)
    | true, true ->
      print_string (Timeline.attribution_to_json (Timeline.attribution ()))
    | false, _ ->
      Fmt.pr "telemetry for record+replay of %s:@." w.Workload.name;
      Fmt.pr "%a@." Telemetry.pp snap;
      if attribution then begin
        Fmt.pr "per-stage attribution (record+replay):@.";
        Fmt.pr "%a@." Timeline.pp_attribution ()
      end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Record and replay a workload, then print the unified telemetry \
          snapshot (counters, spans, histograms, event ring) of that \
          session.")
    Term.(
      const run $ Flags.workload $ Flags.record_opts $ json_arg
      $ attribution_arg)

(* ---- profile: timeline tracing with Chrome trace-event export -------- *)

(* Host clock for profiling runs: wall ns since the clock was installed.
   Virtual timestamps stay primary (the cost model is the paper's
   yardstick); host ns ride along in the exported args. *)
let install_host_clock () =
  let t0 = Unix.gettimeofday () in
  Timeline.set_host_clock (fun () ->
      int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

let profile_phase_of = function
  | "record" -> `Record
  | "replay" -> `Replay
  | "index" -> `Index
  | p -> Fmt.failwith "unknown profile phase %s (record, replay or index)" p

(* Run one phase with the timeline armed.  For replay/index profiles the
   recording that produces the trace runs before [Timeline.start], so
   the buffer holds only the profiled phase. *)
let profile_run ~phase ~w ~opts =
  install_host_clock ();
  Fun.protect
    ~finally:(fun () ->
      Timeline.stop ();
      Timeline.clear_host_clock ())
  @@ fun () ->
  match phase with
  | `Record ->
    Timeline.start ();
    ignore (Workload.record ~opts w)
  | `Replay ->
    let recd, _ = Workload.record ~opts w in
    Timeline.start ();
    ignore (Workload.replay recd)
  | `Index ->
    let recd, _ = Workload.record ~opts w in
    Timeline.start ();
    ignore (Trace_indexer.build_and_attach recd.Workload.trace)

let profile_cmd =
  let phase_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PHASE"
          ~doc:"Pipeline phase to profile: record, replay or index.")
  in
  let wl_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload to run (cp, make, octane, htmltest, sambatest).")
  in
  let out_arg =
    Flags.out
      ~doc:
        "Write the Chrome trace-event JSON to FILE (load it in \
         chrome://tracing or https://ui.perfetto.dev)."
  in
  let run phase_s wl_s opts out =
    with_trace_errors @@ fun () ->
    let phase = profile_phase_of phase_s in
    let w = workload_of_name wl_s in
    profile_run ~phase ~w ~opts;
    (match out with
    | Some path ->
      Timeline.export path;
      Fmt.pr "chrome trace written to %s (%d events%s)@." path
        (List.length (Timeline.events ()))
        (let d = Timeline.dropped () in
         if d > 0 then Printf.sprintf ", %d dropped" d else "")
    | None -> ());
    Fmt.pr "flamegraph of %s %s:@." phase_s wl_s;
    Fmt.pr "%a@." Timeline.pp_flamegraph ();
    Fmt.pr "per-stage attribution:@.";
    Fmt.pr "%a@." Timeline.pp_attribution ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one pipeline phase (record, replay or index) with timeline \
          tracing armed; export a Chrome trace-event file (-o) and print \
          the text flamegraph plus the per-stage overhead ledger.")
    Term.(
      const run $ phase_arg $ wl_arg $ Flags.record_opts $ out_arg)

(* ---- repo: the content-addressed trace repository -------------------- *)

(* ---- serve / shard: served traffic and per-connection shards (§4k) --- *)

let pp_conn_table conns =
  Fmt.pr "  conn  client_port  client_tid  worker_tid  frames  requests@.";
  List.iter
    (fun (i : Conn_track.info) ->
      Fmt.pr "  %4d  %11d  %10d  %10d  %6d  %8d@." i.Conn_track.conn
        i.Conn_track.client_port i.Conn_track.client_tid
        i.Conn_track.worker_tid i.Conn_track.frames i.Conn_track.requests)
    conns

let pp_shard_table shards =
  Fmt.pr "  %-20s  %6s  %6s  %9s  %9s@." "SHARD" "FRAMES" "OWN" "NEW_B"
    "SHARED_B";
  List.iter
    (fun (s : Shard.info) ->
      Fmt.pr "  %-20s  %6d  %6d  %9d  %9d@." s.Shard.si_name s.Shard.si_frames
        s.Shard.si_own_frames s.Shard.si_new_bytes s.Shard.si_shared_bytes)
    shards

(* Record the serve workload with the connection tracker attached: the
   only record path that tags frames live. *)
let record_serve ~params opts =
  let w = Wl_serve.make ~params () in
  let ct = Conn_track.create () in
  let trace, stats, _k =
    Recorder.record ~opts ~on_event:(Conn_track.observe ct)
      ~setup:w.Workload.setup ~exe:w.Workload.exe ()
  in
  (trace, stats, ct)

let shard_repo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "repo" ] ~docv:"DIR"
        ~doc:
          "Store the full trace and its per-connection shards in this \
           repository (created if missing).")

let serve_cmd =
  let conns_arg =
    Arg.(
      value
      & opt int Wl_serve.default.Wl_serve.conns
      & info [ "conns" ] ~docv:"N"
          ~doc:"Connections (one forked worker and one client each).")
  in
  let requests_arg =
    Arg.(
      value
      & opt int Wl_serve.default.Wl_serve.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Data requests per connection.")
  in
  let run conns requests opts out repo_dir =
    with_trace_errors @@ fun () ->
    let params = { Wl_serve.default with Wl_serve.conns; requests } in
    let trace, stats, ct = record_serve ~params opts in
    let tags = Conn_track.tags ct in
    let tagged =
      Array.fold_left (fun a t -> if t <> 0 then a + 1 else a) 0 tags
    in
    Fmt.pr "served %d connections, %d requests (exit=%a)@."
      (List.length (Conn_track.connections ct))
      (Conn_track.requests ct)
      Fmt.(option ~none:(any "?") int)
      stats.Recorder.exit_status;
    Fmt.pr "  frames: %d (%d connection-tagged, %d control)@."
      (Trace.n_events trace) tagged
      (Trace.n_events trace - tagged);
    pp_conn_table (Conn_track.connections ct);
    (match out with
    | Some path -> (
      match Trace.save trace path with
      | Ok () -> Fmt.pr "saved to %s@." path
      | Error e -> Fmt.failwith "save failed: %a" Trace.pp_error e)
    | None -> ());
    match repo_dir with
    | None -> ()
    | Some dir -> (
      let repo =
        match Repo.init dir with
        | Ok r -> r
        | Error e -> Fmt.failwith "repo: %a" Repo.pp_error e
      in
      (match Repo.store_trace repo ~name:"serve" trace with
      | Ok (_ : Repo.store_result) -> ()
      | Error e -> Fmt.failwith "store: %a" Repo.pp_error e);
      match Shard.split ~repo ~base:"serve" ~tags trace with
      | Ok r ->
        Fmt.pr "sharded into %d sub-traces (%d new bytes, %d shared)@."
          (List.length r.Shard.shards)
          r.Shard.total_new_bytes r.Shard.total_shared_bytes;
        pp_shard_table r.Shard.shards
      | Error e -> Fmt.failwith "shard: %a" Repo.pp_error e)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Record the multi-process server workload under load, tagging \
          every frame with its owning connection; optionally save the \
          trace and shard it into a repository.")
    Term.(
      const run $ conns_arg $ requests_arg $ Flags.record_opts
      $ Flags.out ~doc:"Save the recorded trace to FILE."
      $ shard_repo_arg)

(* The replayed state a targeted shard must reproduce exactly: one
   task's registers plus its address-space digest (scratch and
   rr-private pages excluded by Checksum.space). *)
let task_digest k tid =
  match Kernel.find_task k tid with
  | None -> None
  | Some t ->
    Some (Checksum.space t.Task.cpu.Cpu.space, Array.copy t.Task.cpu.Cpu.regs)

let replay_to trace upto =
  let r = Replayer.start trace in
  while Replayer.cursor_index r <= upto && not (Replayer.at_end r) do
    ignore (Replayer.step r)
  done;
  r

let shard_cmd =
  let conn_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "conn" ] ~docv:"ID"
          ~doc:"Split only connection ID (default: every connection).")
  in
  let run path conn repo_dir =
    with_trace_errors @@ fun () ->
    let trace = Trace.open_exn path in
    let ct = Conn_track.derive trace in
    let conns = Conn_track.connections ct in
    Fmt.pr "%s: %d frames, %d connections, %d requests@." path
      (Trace.n_events trace) (List.length conns)
      (Conn_track.requests ct);
    pp_conn_table conns;
    (match conn with
    | Some c
      when not
             (List.exists (fun i -> i.Conn_track.conn = c) conns) ->
      Fmt.failwith "no such connection %d (trace has %d)" c
        (List.length conns)
    | _ -> ());
    (match repo_dir with
    | None -> ()
    | Some dir -> (
      let repo =
        match Repo.init dir with
        | Ok r -> r
        | Error e -> Fmt.failwith "repo: %a" Repo.pp_error e
      in
      let base = Filename.basename path in
      (match Repo.store_trace repo ~name:base trace with
      | Ok (_ : Repo.store_result) -> ()
      | Error e -> Fmt.failwith "store: %a" Repo.pp_error e);
      match
        Shard.split ?only:conn ~repo ~base ~tags:(Conn_track.tags ct)
          trace
      with
      | Ok r ->
        Fmt.pr "sharded into %d sub-traces (%d new bytes, %d shared)@."
          (List.length r.Shard.shards)
          r.Shard.total_new_bytes r.Shard.total_shared_bytes;
        pp_shard_table r.Shard.shards
      | Error e -> Fmt.failwith "shard: %a" Repo.pp_error e))
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Derive connection tags for a saved serve trace, list its \
          connections, and optionally split it into per-connection \
          sub-traces stored in a repository.")
    Term.(const run $ Flags.trace_file $ conn_arg $ shard_repo_arg)

let replay_cmd =
  let conn_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "conn" ] ~docv:"ID"
          ~doc:
            "Targeted replay (serve workload only): extract connection \
             ID's shard from the recording and replay just that \
             sub-trace to the connection's last frame, reporting \
             time-to-first-replay against the full trace.")
  in
  (* Targeted replay: how much cheaper is reaching one connection's
     final state through its shard than through the whole trace? *)
  let replay_conn opts conn =
    let trace, _stats, ct = record_serve ~params:Wl_serve.default opts in
    let tags = Conn_track.tags ct in
    let info =
      match
        List.find_opt
          (fun (i : Conn_track.info) -> i.Conn_track.conn = conn)
          (Conn_track.connections ct)
      with
      | Some i -> i
      | None ->
        Fmt.failwith "no connection %d (the recording has %d)" conn
          (List.length (Conn_track.connections ct))
    in
    let shard, orig = Shard.extract ~tags ~conn trace in
    (* the connection's last owned frame: its position in the shard, and
       (through the shard's frame map) in the full trace *)
    let j_last = ref (-1) in
    Array.iteri (fun j i -> if tags.(i) = conn then j_last := j) orig;
    let j_last = !j_last in
    if j_last < 0 then Fmt.failwith "connection %d owns no frames" conn;
    let i_last = orig.(j_last) in
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let r_shard, t_shard = time (fun () -> replay_to shard j_last) in
    let r_full, t_full = time (fun () -> replay_to trace i_last) in
    Fmt.pr "conn %d: client port %d, %d owned frames, %d requests@." conn
      info.Conn_track.client_port info.Conn_track.frames
      info.Conn_track.requests;
    Fmt.pr "  full trace  : %6d frames to target, %.3f ms@." (i_last + 1)
      (t_full *. 1e3);
    Fmt.pr "  shard       : %6d frames to target, %.3f ms (%.1fx fewer \
            frames, %.1fx faster)@."
      (j_last + 1) (t_shard *. 1e3)
      (float_of_int (i_last + 1) /. float_of_int (j_last + 1))
      (t_full /. Float.max t_shard 1e-9);
    let digest r = task_digest (Replayer.kernel r) info.Conn_track.worker_tid in
    if digest r_shard = digest r_full then
      Fmt.pr "  worker state at the target frame is byte-identical.@."
    else Fmt.failwith "shard replay state DIVERGED from the full trace"
  in
  let run target opts conn =
    with_trace_errors @@ fun () ->
    match conn with
    | Some c ->
      if target <> "serve" then
        Fmt.failwith "--conn targets a connection: it requires the serve \
                      workload";
      replay_conn opts c
    | None -> (
      let trace, recorded =
        trace_of_target ~record:(fun w -> do_record w opts) target
      in
      let st, _ = Replayer.replay trace in
      Fmt.pr "replayed %s: exit=%a (events applied: %d, wall %d)@." target
        Fmt.(option ~none:(any "?") int)
        st.Replayer.exit_status st.Replayer.events_applied
        st.Replayer.wall_time;
      match recorded with
      | None -> ()
      | Some rs ->
        if st.Replayer.exit_status = rs.Recorder.exit_status then
          Fmt.pr "replay matches the recording.@."
        else Fmt.failwith "replay DIVERGED from the recording")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a saved trace, or record a workload and replay it, \
          verifying equivalence.  With --conn, replay a single \
          connection's shard and report time-to-first-replay.")
    Term.(const run $ Flags.target $ Flags.record_opts $ conn_arg)

let repo_cmd =
  let init_cmd =
    let run dir =
      match Repo.init dir with
      | Ok r -> Fmt.pr "initialized trace repository at %s@." (Repo.path r)
      | Error e ->
        Fmt.epr "rr_cli: %a@." Repo.pp_error e;
        exit 1
    in
    Cmd.v
      (Cmd.info "init"
         ~doc:
           "Create a trace repository at DIR (objects/, traces/, format \
            marker); succeeds on an existing repository.")
      Term.(const run $ Flags.repo_dir)
  in
  let ls_cmd =
    let run dir =
      let repo = open_repo dir in
      match Repo.list_info repo with
      | Error e ->
        Fmt.epr "rr_cli: %a@." Repo.pp_error e;
        exit 1
      | Ok [] -> Fmt.pr "(no traces)@."
      | Ok infos ->
        let width =
          List.fold_left (fun w (n, _) -> max w (String.length n)) 5 infos
        in
        Fmt.pr "%-*s  %10s  %7s  %12s@." width "TRACE" "FRAMES" "CHUNKS"
          "BYTES";
        List.iter
          (fun (n, i) ->
            Fmt.pr "%-*s  %10d  %7d  %12d@." width n i.Repo.ti_frames
              i.Repo.ti_chunks i.Repo.ti_bytes)
          infos
    in
    Cmd.v
      (Cmd.info "ls"
         ~doc:
           "List the traces stored in a repository, sorted by name, with \
            per-trace frame and logical-byte totals.")
      Term.(const run $ Flags.repo_dir)
  in
  let gc_cmd =
    let run dir =
      let repo = open_repo dir in
      match Repo.gc repo with
      | Ok g ->
        Fmt.pr "gc: %d live objects, swept %d (%d bytes)@." g.Repo.live_objects
          g.Repo.swept_objects g.Repo.swept_bytes
      | Error e ->
        Fmt.epr "rr_cli: %a@." Repo.pp_error e;
        exit 1
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Refcount objects from the manifests, rewrite the refs ledger, \
            and sweep unreferenced objects.  Refuses to sweep if any \
            manifest is damaged.")
      Term.(const run $ Flags.repo_dir)
  in
  let stats_cmd =
    let run dir =
      let repo = open_repo dir in
      match Repo.stats repo with
      | Ok s -> Fmt.pr "%a@." Repo.pp_stats s
      | Error e ->
        Fmt.epr "rr_cli: %a@." Repo.pp_error e;
        exit 1
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Print repository statistics: traces, objects, physical vs. \
            logical bytes, and the dedup ratio.")
      Term.(const run $ Flags.repo_dir)
  in
  Cmd.group
    (Cmd.info "repo"
       ~doc:
         "Manage a content-addressed trace repository: traces stored as \
          shared chunk/image/file-block objects keyed by crc32-length, \
          with refcounted gc.")
    [ init_cmd; ls_cmd; gc_cmd; stats_cmd ]

let list_cmd =
  let run () =
    List.iter
      (fun (n, d) -> Fmt.pr "%-10s %s@." n d)
      [ ("cp", "file-tree duplication: syscall-dense, block-cloning shines");
        ("make", "parallel fork/exec of short-lived compilers");
        ("octane", "multi-threaded JIT compute (score-based)");
        ("htmltest", "browser driven by an unrecorded harness over IPC");
        ("sambatest", "UDP echo client/server: blocking syscalls, desched");
        ("serve", "multi-process server under load: fork-per-connection, \
                   shardable") ]
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads.") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "rr_cli" ~version:"1.0"
       ~doc:
         "Record and replay simulated Linux processes (reproduction of \
          'Engineering Record and Replay for Deployability', USENIX ATC \
          2017).")
    [ record_cmd; replay_cmd; serve_cmd; shard_cmd; dump_cmd; debug_cmd;
      stats_cmd; profile_cmd; list_cmd; repair_cmd; index_cmd; seek_cmd;
      repo_cmd ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  exit (Cmd.eval main)
