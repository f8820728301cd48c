(* Property tests for the seek-first query API: on an indexed trace —
   in-memory or reopened cold from disk — every [Debugger.Query] answer
   must be byte-identical to the scan-based answer computed with the
   index disabled.  Plus fault injection: a trace whose sidecar index
   records are corrupted salvages with the index dropped and every scan
   query still answering. *)

module K = Kernel
module G = Guest
module E = Event

let ( @. ) = List.append

let cell = 0x120000

(* Same shape as test_debugger's counter program: stores to a known
   cell interleaved with syscalls, so both the per-pc and per-address
   indexes have something to find. *)
let counter_prog _k b =
  let emit_phase v =
    [ Asm.movi 9 cell; Asm.movi 10 v; Asm.store 10 9 0 ]
    @. G.sc Sysno.getpid []
  in
  G.emit b
    (emit_phase 1
    @. G.compute_loop b ~n:150
    @. emit_phase 2
    @. G.compute_loop b ~n:150
    @. emit_phase 3
    @. G.sc Sysno.gettimeofday [ G.imm (cell + 8) ]
    @. emit_phase 4
    @. G.sys_exit_group 0)

let record_counter () =
  let setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    counter_prog k b;
    K.install_image k ~path:"/bin/t" (G.build b ~name:"t" ())
  in
  let opts = Recorder.make_opts ~intercept:false () in
  let trace, _, _ = Recorder.record ~opts ~setup ~exe:"/bin/t" () in
  trace

(* Shared fixture: one recorded trace, indexed, plus a cold reopen of
   its saved bytes.  Queries never mutate the trace, so every test can
   build its own debugger sessions over these. *)
let fixture =
  lazy
    (let trace = record_counter () in
     ignore (Trace_indexer.build_and_attach ~checkpoint_every:4 trace);
     let tmp = Filename.temp_file "rr_query" ".rrtrace" in
     Trace.save_exn trace tmp;
     let reopened = Trace.open_exn tmp in
     Sys.remove tmp;
     (trace, reopened))

let dbg ?(use_index = true) trace =
  Debugger.create
    ~opts:(Debugger.make_opts ~checkpoint_every:4 ~use_index ())
    trace

let distinct_pcs trace =
  Trace.Reader.to_array trace |> Array.to_seq
  |> Seq.filter_map E.frame_pc
  |> List.of_seq |> List.sort_uniq compare |> Array.of_list

let show_res pp = function
  | Ok v -> Fmt.str "Ok %a" pp v
  | Error e -> Fmt.str "Error (%s)" (Debugger.Query.error_to_string e)

let opt_int = Fmt.option ~none:(Fmt.any "None") Fmt.int

(* The heart of the PR's contract: for seeds' worth of probe points,
   [prev_exec], [last_write] and [seek_to_time] agree across
   {in-memory indexed, reopened-from-disk indexed, index disabled}. *)
let qcheck_indexed_equals_scan =
  QCheck.Test.make ~name:"indexed answers are byte-identical to scans"
    ~count:8
    QCheck.(list_of_size Gen.(2 -- 6) (int_bound 10_000))
    (fun probes ->
      let mem_trace, disk_trace = Lazy.force fixture in
      let d_mem = dbg mem_trace in
      let d_disk = dbg disk_trace in
      let d_scan = dbg ~use_index:false disk_trace in
      if not (Debugger.indexed d_mem && Debugger.indexed d_disk) then
        QCheck.Test.fail_report "fixture traces should carry an index";
      if Debugger.indexed d_scan then
        QCheck.Test.fail_report "use_index:false should disable the index";
      let n = Debugger.n_events d_mem in
      let pcs = distinct_pcs mem_trace in
      let addrs = [| cell; cell + 8; 0x10000; 0x0 |] in
      let agree what a b c =
        if a <> b || b <> c then
          QCheck.Test.fail_reportf "%s: mem=%s disk=%s scan=%s" what a b c
      in
      List.iteri
        (fun i probe ->
          let before = probe mod (n + 1) in
          let pc = pcs.(probe mod Array.length pcs) in
          let show = show_res opt_int in
          agree
            (Fmt.str "prev_exec ~pc:%#x ~before:%d" pc before)
            (show (Debugger.Query.prev_exec ~before d_mem ~pc))
            (show (Debugger.Query.prev_exec ~before d_disk ~pc))
            (show (Debugger.Query.prev_exec ~before d_scan ~pc));
          let addr = addrs.(i mod Array.length addrs) in
          let q d = Debugger.Query.last_write ~before d ~tid:100 ~addr ~len:8 in
          agree
            (Fmt.str "last_write ~addr:%#x ~before:%d" addr before)
            (show (q d_mem))
            (show (q d_disk))
            (show (q d_scan));
          (* A time in range: the clock at some frame, plus a small
             offset so we also probe between recorded readings. *)
          (match Trace.index mem_trace with
          | None -> ()
          | Some ix ->
            let t = Trace_index.clock_at ix before + (i mod 3) in
            let show = show_res Fmt.int in
            agree
              (Fmt.str "seek_to_time %d" t)
              (show (Debugger.Query.seek_to_time d_mem t))
              (show (Debugger.Query.seek_to_time d_disk t))
              (show (Debugger.Query.seek_to_time d_scan t))))
        probes;
      true)

(* Out-of-range inputs come back as typed errors, identically in both
   modes, and never move the session. *)
let test_out_of_range () =
  let _, disk_trace = Lazy.force fixture in
  List.iter
    (fun use_index ->
      let d = dbg ~use_index disk_trace in
      let n = Debugger.n_events d in
      Debugger.seek d 2;
      (match Debugger.Query.seek_to_frame d (n + 1) with
      | Error (Debugger.Query.Out_of_range { min = 0; max; _ }) ->
        Alcotest.(check int) "max is n_events" n max
      | Ok () | Error _ -> Alcotest.fail "seek past the end must be typed");
      Alcotest.(check int) "position unchanged on error" 2 (Debugger.pos d);
      (match Debugger.Query.seek_to_time d (-1) with
      | Error (Debugger.Query.Out_of_range _) -> ()
      | Ok _ -> Alcotest.fail "time before frame 0 must be Out_of_range");
      Alcotest.(check int) "position unchanged on time error" 2
        (Debugger.pos d);
      match Debugger.Query.prev_exec ~before:(n + 2) d ~pc:0x1000 with
      | Error (Debugger.Query.Out_of_range _) -> ()
      | Ok _ -> Alcotest.fail "before past the end must be Out_of_range")
    [ true; false ]

(* The acceptance case: reopen the saved trace cold and seek near the
   end.  The durable checkpoint must be restored (index.hit and
   replay.checkpoint_restore both move) — no full replay from frame 0. *)
let test_cold_reopen_seeks_without_full_replay () =
  let trace = record_counter () in
  ignore (Trace_indexer.build_and_attach ~checkpoint_every:4 trace);
  let tmp = Filename.temp_file "rr_query_cold" ".rrtrace" in
  Trace.save_exn trace tmp;
  let cold = Trace.open_exn tmp in
  Sys.remove tmp;
  let ix =
    match Trace.index cold with
    | Some ix -> ix
    | None -> Alcotest.fail "reopened trace lost its index"
  in
  let d = dbg cold in
  let n = Debugger.n_events d in
  let target = n - 1 in
  (match Trace_index.nearest_checkpoint ix target with
  | Some (frame, _) ->
    Alcotest.(check bool) "a durable checkpoint sits past frame 0" true
      (frame > 0)
  | None -> Alcotest.fail "index carries no durable checkpoint");
  let hits = Telemetry.counter "index.hit" in
  let restores = Telemetry.counter "replay.checkpoint_restore" in
  let h0 = Telemetry.counter_value hits in
  let r0 = Telemetry.counter_value restores in
  Debugger.seek d target;
  Alcotest.(check int) "landed on target" target (Debugger.pos d);
  Alcotest.(check bool) "durable checkpoint used (index.hit moved)" true
    (Telemetry.counter_value hits > h0);
  Alcotest.(check bool) "snapshot restored, not replayed from 0" true
    (Telemetry.counter_value restores > r0);
  (* And the state there is the scan session's state, byte for byte. *)
  let d0 = dbg ~use_index:false cold in
  Debugger.seek d0 target;
  Alcotest.(check int) "same memory as the scan session"
    (Debugger.read_word d0 100 cell)
    (Debugger.read_word d 100 cell)

(* ----- fault injection over the sidecar records -------------------- *)

(* Walk the v3 record stream (tag, uvarint len, payload, crc32) from
   just past the magic and return the payload span of the first record
   carrying [tag]. *)
let find_record data tag =
  let n = String.length data in
  let rec walk pos =
    if pos + 1 >= n then None
    else begin
      let t = data.[pos] in
      let p = ref (pos + 1) in
      let len = ref 0 in
      let shift = ref 0 in
      let fin = ref false in
      while not !fin do
        let b = Char.code data.[!p] in
        len := !len lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        incr p;
        if b < 0x80 then fin := true
      done;
      if t = tag then Some (!p, !len) else walk (!p + !len + 4)
    end
  in
  walk 8

let corrupt_record path tag =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match find_record data tag with
  | None -> Alcotest.failf "no %C record found in the saved trace" tag
  | Some (off, len) ->
    Alcotest.(check bool) "record has a payload to damage" true (len > 0);
    let b = Bytes.of_string data in
    let i = off + (len / 2) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc

let test_corrupt_index_record_salvages tag () =
  let trace = record_counter () in
  ignore (Trace_indexer.build_and_attach ~checkpoint_every:4 trace);
  let original_frames = Trace.Reader.to_array trace in
  let reference =
    let d = dbg ~use_index:false trace in
    match Debugger.Query.last_write d ~before:(Debugger.n_events d) ~tid:100
            ~addr:cell ~len:8 with
    | Ok r -> r
    | Error e -> Alcotest.failf "reference query: %s"
                   (Debugger.Query.error_to_string e)
  in
  let tmp = Filename.temp_file "rr_query_corrupt" ".rrtrace" in
  Trace.save_exn trace tmp;
  corrupt_record tmp tag;
  (* Strict load refuses the damaged file outright... *)
  (match Trace.open_ tmp with
  | Ok _ -> Alcotest.failf "strict load accepted a corrupt %C record" tag
  | Error _ -> ());
  (* ...salvage keeps every frame and drops only the sidecar. *)
  (match Trace.salvage tmp with
  | Error e ->
    Alcotest.failf "salvage failed: %s" (Trace.error_to_string e)
  | Ok (s, _report) ->
    Alcotest.(check int) "every frame survives"
      (Array.length original_frames)
      (Array.length (Trace.Reader.to_array s));
    (* A damaged meta record must drop the whole index; a damaged
       checkpoint record may at most leave a smaller-but-valid one. *)
    if tag = 'P' then
      Alcotest.(check bool) "index dropped on salvage" true
        (Trace.index s = None);
    let d = dbg s in
    let answer =
      match Debugger.Query.last_write d ~before:(Debugger.n_events d)
              ~tid:100 ~addr:cell ~len:8 with
      | Ok r -> r
      | Error e -> Alcotest.failf "query on salvaged trace: %s"
                     (Debugger.Query.error_to_string e)
    in
    Alcotest.(check (option int)) "scan answer unchanged after salvage"
      reference answer);
  Sys.remove tmp

let suites =
  [ ( "rr.query",
      [ QCheck_alcotest.to_alcotest qcheck_indexed_equals_scan;
        Alcotest.test_case "typed out-of-range errors" `Quick
          test_out_of_range;
        Alcotest.test_case "cold reopen seeks without full replay" `Quick
          test_cold_reopen_seeks_without_full_replay;
        Alcotest.test_case "corrupt index meta record salvages" `Quick
          (test_corrupt_index_record_salvages 'P');
        Alcotest.test_case "corrupt checkpoint record salvages" `Quick
          (test_corrupt_index_record_salvages 'K') ] ) ]
