(* Workload-level integration tests: the paper workloads replay under
   non-default recording configurations and show the qualitative
   effects the evaluation section reports.  The default-configuration
   round trips (every workload x chaos x sink x index) are the identity
   matrix in test_identity.ml. *)

module W = Workload

(* Smaller parameter sets keep the suite fast. *)
let small_cp () = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 64 } ()

let small_make () =
  Wl_make.make
    ~params:{ Wl_make.jobs = 4; compiles = 8; src_kb = 8; compile_work = 2_000 }
    ()

let small_octane () =
  Wl_octane.make
    ~params:{ Wl_octane.threads = 2; iters = 40; calls_per_emit = 40; crunch = 500 }
    ()

let small_htmltest () =
  Wl_htmltest.make
    ~params:
      { Wl_htmltest.tests = 10; layout_work = 2_000; harness_work = 1_000;
        jit_every = 2 }
    ()

let small_samba () =
  Wl_samba.make
    ~params:
      { Wl_samba.echoes = 15; payload = 64; server_work = 1_500;
        client_work = 800 }
    ()

let check_roundtrip ?(rec_opts = Recorder.default_opts) w =
  let base = W.baseline w in
  Alcotest.(check (option int))
    (w.W.name ^ " baseline exits 0")
    (Some 0) base.W.exit_status;
  let recd, _ = W.record ~opts:rec_opts w in
  Alcotest.(check (option int))
    (w.W.name ^ " recorded exit matches")
    base.W.exit_status recd.W.rec_stats.Recorder.exit_status;
  let rep, _ = W.replay recd in
  Alcotest.(check (option int))
    (w.W.name ^ " replay exit matches")
    base.W.exit_status rep.W.rep_stats.Replayer.exit_status;
  (base, recd, rep)

let test_cp_no_intercept_roundtrip () =
  ignore
    (check_roundtrip
       ~rec_opts:(Recorder.make_opts ~intercept:false ())
       (small_cp ()))

let test_samba_no_intercept_roundtrip () =
  ignore
    (check_roundtrip
       ~rec_opts:(Recorder.make_opts ~intercept:false ())
       (small_samba ()))

(* §6.2 checksums across a full workload with desched aborts, threads
   and blocking syscalls: the strictest divergence check we have. *)
let test_samba_with_checksums () =
  ignore
    (check_roundtrip
       ~rec_opts:(Recorder.make_opts ~checksum_every:3 ())
       (small_samba ()))

let test_octane_with_checksums () =
  ignore
    (check_roundtrip
       ~rec_opts:(Recorder.make_opts ~checksum_every:2 ())
       (small_octane ()))

(* §3.9: cp's trace must carry its data as cloned blocks, nearly free,
   while disabling cloning copies the bytes instead. *)
let test_cp_cloning_effect () =
  let w = small_cp () in
  let with_cloning, _ = W.record w in
  let without, _ =
    W.record ~opts:(Recorder.make_opts ~clone_blocks:false ()) w
  in
  let st_on = Trace.stats with_cloning.W.trace in
  let st_off = Trace.stats without.W.trace in
  Alcotest.(check bool)
    (Printf.sprintf "cloned blocks present (%d)" st_on.Trace.cloned_blocks)
    true
    (st_on.Trace.cloned_blocks > 4 * 16);
  (* 4 files x 64KB *)
  Alcotest.(check bool)
    (Printf.sprintf "no-cloning stores bytes in frames (%d vs %d raw)"
       st_off.Trace.raw_bytes st_on.Trace.raw_bytes)
    true
    (st_off.Trace.raw_bytes > 4 * st_on.Trace.raw_bytes)

(* §4.3: interception reduces recording time and ptrace stops. *)
let test_intercept_effect_on_samba () =
  let w = small_samba () in
  let fast, _ = W.record w in
  let slow, _ =
    W.record ~opts:(Recorder.make_opts ~intercept:false ()) w
  in
  Alcotest.(check bool)
    (Printf.sprintf "recording faster with interception (%d < %d)"
       fast.W.rec_stats.Recorder.wall_time slow.W.rec_stats.Recorder.wall_time)
    true
    (fast.W.rec_stats.Recorder.wall_time < slow.W.rec_stats.Recorder.wall_time);
  Alcotest.(check bool) "fewer stops with interception" true
    (fast.W.rec_stats.Recorder.n_ptrace_stops
    < slow.W.rec_stats.Recorder.n_ptrace_stops)

(* Figure 6 shape: the DBI null tool crashes on the JIT-churning octane
   but survives cp. *)
let test_dbi_crashes_on_octane () =
  let oct = Instrument.run (Wl_octane.make ()) in
  Alcotest.(check bool) "octane crashes the DBI" true oct.Instrument.crashed;
  let cp = Instrument.run (small_cp ()) in
  Alcotest.(check bool) "cp survives the DBI" false cp.Instrument.crashed

(* §4.5: htmltest's replay memory is much lower than recording because
   the harness is not replayed. *)
let test_htmltest_replay_memory () =
  let w = small_htmltest () in
  let recd, _ = W.record w in
  let rep, _ = W.replay recd in
  Alcotest.(check bool)
    (Printf.sprintf "replay PSS (%.0f) < record PSS (%.0f)"
       rep.W.rep_peak_pss recd.W.rec_peak_pss)
    true
    (rep.W.rep_peak_pss < recd.W.rec_peak_pss)

(* The recorded trace decodes from its compressed chunks bit-exactly:
   a sequential cursor walk and per-frame random access must agree. *)
let test_workload_trace_decodes () =
  let recd, _ = W.record (small_samba ()) in
  let trace = recd.W.trace in
  let decoded = Trace.Reader.to_array trace in
  Alcotest.(check int) "chunk stream decodes to all events"
    (Trace.n_events trace) (Array.length decoded);
  let c = Trace.Reader.open_ trace in
  Array.iteri
    (fun i e ->
      if Trace.Reader.next c <> e then
        Alcotest.failf "event %d differs between cursor and random access" i)
    decoded

(* Determinism of recording itself: same seed, same trace. *)
let test_recording_deterministic () =
  let run () =
    let recd, _ = W.record (small_cp ()) in
    Array.map (Fmt.str "%a" Event.pp) (Trace.Reader.to_array recd.W.trace)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "event streams identical" true (a = b)

(* Record-twice equivalence: the widened wrapper set must be purely an
   encoding/performance choice.  Recording the same workload with the
   wide and the narrow syscallbuf must replay to the same exit status
   and the same visible filesystem state, and each replay must apply
   exactly the frames its own recording produced. *)
let vfs_state_digest vfs =
  let buf = Buffer.create 256 in
  let rec go path =
    match Vfs.resolve_opt vfs path with
    | None -> ()
    | Some { Vfs.kind = Vfs.Dir _; _ } ->
      List.iter
        (fun name ->
          let p = if path = "/" then "/" ^ name else path ^ "/" ^ name in
          (* The recorder's own output tree is not program state. *)
          if p <> "/trace" then go p)
        (List.sort compare (Vfs.readdir vfs path))
    | Some { Vfs.kind = Vfs.Reg r; _ } ->
      Buffer.add_string buf path;
      Buffer.add_char buf '=';
      Buffer.add_string buf
        (Digest.to_hex
           (Digest.bytes (Vfs.read vfs r ~off:0 ~len:(Vfs.file_size r))));
      Buffer.add_char buf '\n'
  in
  go "/";
  Buffer.contents buf

let check_wide_narrow_equivalence w =
  let run ~wide =
    let recd, _ = W.record ~opts:(Recorder.make_opts ~wide ()) w in
    let rep, rk = W.replay ~opts:(Replayer.make_opts ~wide ()) recd in
    Alcotest.(check int)
      (Printf.sprintf "%s wide=%b replay applies every recorded frame"
         w.W.name wide)
      (Trace.n_events recd.W.trace)
      rep.W.rep_stats.Replayer.events_applied;
    (rep.W.rep_stats.Replayer.exit_status, vfs_state_digest (Kernel.vfs rk))
  in
  let wide_exit, wide_fs = run ~wide:true in
  let narrow_exit, narrow_fs = run ~wide:false in
  Alcotest.(check (option int))
    (w.W.name ^ " wide/narrow exit statuses agree")
    narrow_exit wide_exit;
  Alcotest.(check string)
    (w.W.name ^ " wide/narrow final filesystem state agrees")
    narrow_fs wide_fs

let test_cp_wide_narrow () = check_wide_narrow_equivalence (small_cp ())
let test_make_wide_narrow () = check_wide_narrow_equivalence (small_make ())
let test_samba_wide_narrow () = check_wide_narrow_equivalence (small_samba ())

(* Different recording seeds can change scheduling, but every recording
   must still replay. *)
let qcheck_any_seed_replays =
  QCheck.Test.make ~name:"replay succeeds for arbitrary recording seeds"
    ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let w = small_samba () in
      let opts =
        Recorder.make_opts ~seed:(seed + 1) ~timeslice_rcbs:7_000 ()
      in
      let recd, _ = W.record ~opts w in
      let rep, _ = W.replay recd in
      rep.W.rep_stats.Replayer.exit_status = Some 0)

let suites =
  [ ( "workloads.roundtrip",
      [ Alcotest.test_case "cp (no intercept)" `Quick
          test_cp_no_intercept_roundtrip;
        Alcotest.test_case "samba (no intercept)" `Quick
          test_samba_no_intercept_roundtrip;
        Alcotest.test_case "samba (checksums)" `Quick test_samba_with_checksums;
        Alcotest.test_case "octane (checksums)" `Quick
          test_octane_with_checksums ] );
    ( "workloads.effects",
      [ Alcotest.test_case "cp block cloning" `Quick test_cp_cloning_effect;
        Alcotest.test_case "interception speeds samba" `Quick
          test_intercept_effect_on_samba;
        Alcotest.test_case "DBI crashes on octane" `Quick
          test_dbi_crashes_on_octane;
        Alcotest.test_case "htmltest replay memory" `Quick
          test_htmltest_replay_memory;
        Alcotest.test_case "trace decodes" `Quick test_workload_trace_decodes;
        Alcotest.test_case "recording deterministic" `Quick
          test_recording_deterministic;
        Alcotest.test_case "cp wide/narrow equivalence" `Quick
          test_cp_wide_narrow;
        Alcotest.test_case "make wide/narrow equivalence" `Quick
          test_make_wide_narrow;
        Alcotest.test_case "samba wide/narrow equivalence" `Quick
          test_samba_wide_narrow;
        QCheck_alcotest.to_alcotest qcheck_any_seed_replays ] ) ]
