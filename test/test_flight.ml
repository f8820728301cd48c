(* Tests for flight-recorder mode: the bounded ring sink's window
   semantics (pure prefix when roomy, watermark-aligned tail when it
   overflows), salvage of a recording killed mid-run, trigger
   evaluation in Flight.record, and the fd lifecycle of file-sink
   recordings that die. *)

let small_cp () = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 32 } ()

(* Unbuffered + tiny chunks: many small frames, so a small ring turns
   over even on this workload (the syscallbuf would otherwise batch the
   whole run into a frame or two). *)
let mk ?max_events ?sink () =
  Recorder.make_opts ~intercept:false ~chunk_limit:256 ?max_events ?sink ()

let record_reference () =
  let w = small_cp () in
  let t, _, _ =
    Recorder.record ~opts:(mk ()) ~setup:w.Workload.setup ~exe:w.Workload.exe
      ()
  in
  Trace.Reader.to_array t

let ring_run ?max_events ~chunks () =
  let w = small_cp () in
  let ring = Trace.ring ~chunks in
  let result =
    Recorder.run
      ~opts:(mk ?max_events ~sink:(Recorder.Sink_ring ring) ())
      ~setup:w.Workload.setup ~exe:w.Workload.exe ()
  in
  let window, report = Trace.ring_trace ring in
  (result, window, report)

let check_slice ~what reference ~base frames =
  Array.iteri
    (fun i e ->
      if e <> reference.(base + i) then
        Alcotest.failf "%s: frame %d diverges from live frame %d" what i
          (base + i))
    frames

(* ---- the window ------------------------------------------------------- *)

let test_roomy_ring_is_lossless () =
  let reference = record_reference () in
  let result, window, report = ring_run ~chunks:4096 () in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recording failed: %a" Recorder.pp_error e);
  Alcotest.(check int) "no drops" 0 report.Trace.rr_dropped_chunks;
  Alcotest.(check int) "window starts at 0" 0 report.Trace.rr_base_frame;
  let frames = Trace.Reader.to_array window in
  Alcotest.(check int)
    "full run retained" (Array.length reference) (Array.length frames);
  check_slice ~what:"roomy ring" reference ~base:0 frames;
  (* A lossless window replays like any trace. *)
  let st, _ = Replayer.replay window in
  Alcotest.(check (option int)) "replays to exit 0" (Some 0)
    st.Replayer.exit_status

let test_bounded_ring_keeps_the_tail () =
  let reference = record_reference () in
  let total = Array.length reference in
  let dropped0 =
    Telemetry.counter_value (Telemetry.counter "ring.dropped_chunks")
  in
  let result, window, report = ring_run ~chunks:2 () in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recording failed: %a" Recorder.pp_error e);
  Alcotest.(check bool)
    "ring overflowed" true
    (report.Trace.rr_dropped_chunks > 0 && report.Trace.rr_base_frame > 0);
  Alcotest.(check bool)
    "drop counter moved" true
    (Telemetry.counter_value (Telemetry.counter "ring.dropped_chunks")
     - dropped0
    >= report.Trace.rr_dropped_chunks);
  Alcotest.(check bool)
    "resident-bytes gauge set" true
    (Telemetry.gauge_value (Telemetry.gauge "ring.resident_bytes") > 0);
  let frames = Trace.Reader.to_array window in
  let base = report.Trace.rr_base_frame in
  Alcotest.(check int)
    "window ends at the live run's end" total (base + Array.length frames);
  Alcotest.(check int)
    "dropped + resident = total" total
    (report.Trace.rr_dropped_frames + report.Trace.rr_frames);
  check_slice ~what:"bounded ring" reference ~base frames

let test_killed_recording_salvages () =
  let reference = record_reference () in
  let total = Array.length reference in
  let result, window, report =
    ring_run ~max_events:(total / 2) ~chunks:4096 ()
  in
  (match result with
  | Error (Recorder.Rec_failure _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %a" Recorder.pp_error e
  | Ok _ -> Alcotest.fail "the event-limit guard never fired");
  Alcotest.(check int) "no drops" 0 report.Trace.rr_dropped_chunks;
  Alcotest.(check int) "window starts at 0" 0 report.Trace.rr_base_frame;
  let frames = Trace.Reader.to_array window in
  let n = Array.length frames in
  Alcotest.(check bool) "something salvaged" true (n > 0 && n < total);
  (* The retained window is a pure prefix of the live run — its last
     frame matches the live run's frame at the same index. *)
  check_slice ~what:"killed recording" reference ~base:0 frames;
  match Replayer.replay window with
  | (_ : Replayer.stats * Kernel.t) -> ()
  | exception Replayer.Divergence msg ->
    Alcotest.failf "salvaged window diverges: %s" msg

(* ---- Flight.record triggers ------------------------------------------- *)

let with_temp_path f =
  let path = Filename.temp_file "rr_flight" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_flight_dump_on_always () =
  with_temp_path @@ fun path ->
  let w = small_cp () in
  let ring = Trace.ring ~chunks:2 in
  let outcome =
    match
      Flight.record ~opts:(mk ()) ~dump_on:[ Flight.On_always ]
        ~dump:(Flight.To_file path) ~ring
        ~setup:w.Workload.setup ~exe:w.Workload.exe ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "flight record: %a" Recorder.pp_error e
  in
  (match outcome.Flight.cause with
  | Some Flight.Always -> ()
  | c ->
    Alcotest.failf "wrong cause: %a" Fmt.(Dump.option Flight.pp_cause) c);
  Alcotest.(check (option string)) "dumped to the file" (Some path)
    outcome.Flight.dumped_to;
  let saved = Trace.open_exn path in
  Alcotest.(check bool)
    "dumped window loads identically" true
    (Trace.Reader.to_array saved = Trace.Reader.to_array outcome.Flight.window)

let test_flight_exit_zero_no_dump () =
  with_temp_path @@ fun path ->
  let w = small_cp () in
  let ring = Trace.ring ~chunks:2 in
  let outcome =
    match
      Flight.record ~opts:(mk ()) ~dump_on:[ Flight.On_exit_nonzero ]
        ~dump:(Flight.To_file path) ~ring
        ~setup:w.Workload.setup ~exe:w.Workload.exe ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "flight record: %a" Recorder.pp_error e
  in
  Alcotest.(check (option string))
    "a clean exit does not dump" None outcome.Flight.dumped_to

let test_flight_signal_trigger () =
  with_temp_path @@ fun path ->
  let w = small_cp () in
  let reference = record_reference () in
  let ring = Trace.ring ~chunks:4096 in
  let opts = mk ~max_events:(Array.length reference / 2) () in
  let outcome =
    match
      Flight.record ~opts ~dump_on:[ Flight.On_signal ]
        ~dump:(Flight.To_file path) ~ring
        ~setup:w.Workload.setup ~exe:w.Workload.exe ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "flight record: %a" Recorder.pp_error e
  in
  (match outcome.Flight.result with
  | Error (Recorder.Rec_failure _) -> ()
  | _ -> Alcotest.fail "expected the recording to die");
  (match outcome.Flight.cause with
  | Some (Flight.Signal _) -> ()
  | c ->
    Alcotest.failf "wrong cause: %a" Fmt.(Dump.option Flight.pp_cause) c);
  Alcotest.(check (option string)) "window dumped" (Some path)
    outcome.Flight.dumped_to

(* ---- fd lifecycle ----------------------------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_fd_churn () =
  let w = small_cp () in
  let path = Filename.temp_file "rr_churn" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* Warm up any lazily opened descriptors before taking the baseline. *)
  (match
     Recorder.run
       ~opts:(mk ~max_events:8 ~sink:(Recorder.Sink_file path) ())
       ~setup:w.Workload.setup ~exe:w.Workload.exe ()
   with
  | Ok _ | Error _ -> ());
  ignore (Trace.salvage path);
  let baseline = open_fds () in
  for _ = 1 to 200 do
    (* Every iteration opens the journal, dies mid-run (the writer must
       abort and release the fd), then salvages the prefix (which opens
       and closes the file again). *)
    (match
       Recorder.run
         ~opts:(mk ~max_events:8 ~sink:(Recorder.Sink_file path) ())
         ~setup:w.Workload.setup ~exe:w.Workload.exe ()
     with
    | Error (Recorder.Rec_failure _) -> ()
    | Error e -> Alcotest.failf "wrong error class: %a" Recorder.pp_error e
    | Ok _ -> Alcotest.fail "the event-limit guard never fired");
    match Trace.salvage path with
    | Ok ((_ : Trace.t), (_ : Trace.salvage_report)) -> ()
    | Error e -> Alcotest.failf "salvage failed: %a" Trace.pp_error e
  done;
  let now = open_fds () in
  Alcotest.(check bool)
    (Printf.sprintf "no fd growth after 200 cycles (%d -> %d)" baseline now)
    true (now <= baseline)

let suites =
  [ ( "flight",
      [ Alcotest.test_case "roomy ring is lossless" `Quick
          test_roomy_ring_is_lossless;
        Alcotest.test_case "bounded ring keeps the tail" `Quick
          test_bounded_ring_keeps_the_tail;
        Alcotest.test_case "killed recording salvages a prefix" `Quick
          test_killed_recording_salvages;
        Alcotest.test_case "dump-on always writes the window" `Quick
          test_flight_dump_on_always;
        Alcotest.test_case "clean exit does not dump" `Quick
          test_flight_exit_zero_no_dump;
        Alcotest.test_case "signal trigger dumps a killed run" `Quick
          test_flight_signal_trigger;
        Alcotest.test_case "fd churn: 200 open/salvage/close cycles" `Quick
          test_fd_churn ] ) ]
