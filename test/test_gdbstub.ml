(* Tests for the GDB remote-protocol stub: packet-layer properties
   (encode/decode round trips, checksums, ack and NAK behaviour) and
   byte-level scripted sessions against recorded traces — registers,
   memory, breakpoints, reverse execution and the qRcmd monitor, all
   over the in-memory transport. *)

module K = Kernel
module G = Guest
module E = Event
module P = Gdb_packet
module T = Gdb_transport

let ( @. ) = List.append

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---- body codec ------------------------------------------------------ *)

let test_frame_exact () =
  (* 'O' + 'K' = 154 = 0x9a: the canonical example frame. *)
  Alcotest.(check string) "frame OK" "$OK#9a" (P.frame "OK");
  Alcotest.(check string) "empty frame" "$#00" (P.frame "");
  Alcotest.(check int) "checksum" 0x9a (P.checksum "OK")

let test_escaping () =
  let payload = "a$b#c}d*e" in
  let enc = P.encode_body payload in
  Alcotest.(check bool) "no raw specials survive encoding" false
    (String.exists (function '$' | '#' -> true | _ -> false) enc);
  Alcotest.(check (result string string)) "round trip" (Ok payload)
    (P.decode_body enc)

let test_rle_runs () =
  (* Every run length from 1 to 120 must round-trip, covering the
     skipped counts (6 7 13 14 16 96) and the chunking past 97. *)
  for len = 1 to 120 do
    let payload = "x" ^ String.make len 'r' ^ "y" in
    let enc = P.encode_body ~rle:true payload in
    match P.decode_body enc with
    | Ok p when p = payload -> ()
    | Ok p ->
      Alcotest.failf "run of %d decoded to %d bytes" len (String.length p)
    | Error e -> Alcotest.failf "run of %d: decode error %s" len e
  done;
  (* Long runs must actually compress. *)
  let long = String.make 300 'z' in
  Alcotest.(check bool) "rle shrinks a 300-byte run" true
    (String.length (P.encode_body ~rle:true long) < 30)

let test_decode_rejects_malformed () =
  let bad s =
    match P.decode_body s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "dangling escape" true (bad "ab}");
  Alcotest.(check bool) "leading run" true (bad "*!x");
  Alcotest.(check bool) "raw $" true (bad "a$b");
  Alcotest.(check bool) "raw #" true (bad "a#b");
  Alcotest.(check bool) "run count out of range" true (bad "a*\x1f")

let qcheck_roundtrip ~rle =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "encode/decode round trip (rle=%b)" rle)
    ~count:500 QCheck.string (fun s ->
      P.decode_body (P.encode_body ~rle s) = Ok s)

let qcheck_hex64 =
  QCheck.Test.make ~name:"hex64_le round trip" ~count:200
    QCheck.(map abs int)
    (fun v -> P.int_of_hex64_le (P.hex64_le v) = Ok v)

let test_hex_helpers () =
  Alcotest.(check string) "to_hex" "6f6b0a" (P.to_hex "ok\n");
  Alcotest.(check (result string string)) "of_hex" (Ok "ok\n")
    (P.of_hex "6f6b0a");
  Alcotest.(check string) "hex64_le" "efbeadde00000000" (P.hex64_le 0xdeadbeef);
  Alcotest.(check (option int)) "parse_hex_int" (Some 0x1000)
    (P.parse_hex_int "1000");
  Alcotest.(check (option int)) "parse_hex_int 0x" (Some 255)
    (P.parse_hex_int "0xff");
  Alcotest.(check (option int)) "parse_hex_int junk" None
    (P.parse_hex_int "10q0")

(* ---- connection ack behaviour ---------------------------------------- *)

(* A raw wire on one side, a conn on the other: inject bytes and watch
   the acks come back. *)
let wire_and_conn () =
  let wire, stub_side = T.pair () in
  (wire, P.conn stub_side)

let drain tr =
  match tr.T.recv () with T.Data s -> s | T.Empty -> "" | T.Eof -> "<eof>"

let test_bad_checksum_naks () =
  let wire, c = wire_and_conn () in
  wire.T.send "$OK#00";
  (match P.poll c with
  | `Empty -> ()
  | `Packet p -> Alcotest.failf "bad frame served: %S" p
  | `Eof -> Alcotest.fail "eof");
  Alcotest.(check string) "NAK sent" "-" (drain wire);
  (* the retransmission is served like any other frame *)
  wire.T.send (P.frame "OK");
  (match P.poll c with
  | `Packet p -> Alcotest.(check string) "re-served" "OK" p
  | `Empty | `Eof -> Alcotest.fail "retransmission not served");
  Alcotest.(check string) "ACK sent" "+" (drain wire)

let test_noack_skips_acks () =
  let wire, c = wire_and_conn () in
  P.set_ack_mode c false;
  wire.T.send (P.frame "hello");
  (match P.poll c with
  | `Packet p -> Alcotest.(check string) "served" "hello" p
  | `Empty | `Eof -> Alcotest.fail "not served");
  Alcotest.(check string) "no ack on the wire" "" (drain wire);
  (* bad frames are silently dropped in no-ack mode *)
  wire.T.send "$boom#00";
  (match P.poll c with
  | `Empty -> ()
  | _ -> Alcotest.fail "bad frame should be dropped");
  Alcotest.(check string) "no NAK either" "" (drain wire)

let test_nak_retransmits () =
  let wire, c = wire_and_conn () in
  P.send c "payload";
  let sent = drain wire in
  Alcotest.(check string) "first transmission" (P.frame "payload") sent;
  (* a NAK retransmits the identical wire frame *)
  wire.T.send "-";
  ignore (P.poll c);
  Alcotest.(check string) "retransmission" sent (drain wire);
  (* an ACK clears the slot: a later NAK retransmits nothing *)
  wire.T.send "+";
  ignore (P.poll c);
  wire.T.send "-";
  ignore (P.poll c);
  Alcotest.(check string) "nothing after ack" "" (drain wire)

let test_junk_between_frames () =
  let wire, c = wire_and_conn () in
  wire.T.send "\x03garbage";
  wire.T.send (P.frame "real");
  (match P.poll c with
  | `Packet p -> Alcotest.(check string) "frame found past junk" "real" p
  | `Empty | `Eof -> Alcotest.fail "frame lost")

(* ---- script parsing --------------------------------------------------- *)

let test_script_steps () =
  let src = "g => 00*\nmonitor when => 0\n? \n" in
  match Gdb_script.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok steps ->
    Alcotest.(check int) "three steps" 3 (List.length steps);
    let g = List.nth steps 0 in
    Alcotest.(check bool) "prefix expect" true
      (g.Gdb_script.expect = Some (Gdb_script.Prefix "00"));
    let m = List.nth steps 1 in
    Alcotest.(check bool) "monitor step" true m.Gdb_script.monitor

(* ---- end-to-end sessions --------------------------------------------- *)

let record_tiny () =
  let setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    G.emit b
      (G.sc Sysno.getpid [] @. G.sc Sysno.getpid [] @. G.sys_exit_group 0);
    K.install_image k ~path:"/bin/tiny" (G.build b ~name:"tiny" ())
  in
  let opts = Recorder.make_opts ~intercept:false () in
  let trace, _, _ = Recorder.record ~opts ~setup ~exe:"/bin/tiny" () in
  trace

let session ?(checkpoint_every = 8) trace =
  let d =
    Debugger.create ~opts:(Debugger.make_opts ~checkpoint_every ()) trace
  in
  let srv_tr, cli_tr = T.pair () in
  let server = Gdb_server.create d srv_tr in
  let client = Gdb_client.create ~pump:(fun () -> Gdb_server.pump server) cli_tr in
  (server, client, Gdb_client.request client)

(* the stub's initial current-thread choice, mirrored for expectations *)
let initial_thread d =
  match Debugger.live_tids d with
  | tid :: _ -> tid
  | [] -> if Debugger.n_events d > 0 then E.tid_of (Debugger.frame d 0) else 0

let test_frame_zero_stops () =
  let trace = record_tiny () in
  let refd = Debugger.create trace in
  let cur = initial_thread refd in
  let _server, client, req = session trace in
  let begin_stop = Printf.sprintf "T05replaylog:begin;thread:%x;" cur in
  Alcotest.(check string) "bs at frame 0" begin_stop (req "bs");
  Alcotest.(check string) "bc at frame 0" begin_stop (req "bc");
  Alcotest.(check string) "position pinned" "0" (Gdb_client.monitor client "when");
  (* one frame in, nothing to stop on: bc lands back on frame 0 with a
     replaylog:begin stop — a reply, never a hang *)
  ignore (req "s");
  Alcotest.(check bool) "bc with empty history prefix" true
    (starts_with ~prefix:"T05replaylog:begin;" (req "bc"));
  Alcotest.(check string) "back at 0" "0" (Gdb_client.monitor client "when");
  Alcotest.(check string) "detach" "OK" (req "D");
  Gdb_client.close client

let test_bad_thread_and_memory_errors () =
  let trace = record_tiny () in
  let _server, _client, req = session trace in
  ignore (req "s");
  ignore (req "s");
  Alcotest.(check string) "T on a dead tid" "E01" (req "Tdead");
  Alcotest.(check string) "m on unmapped memory" "E03" (req "m7ff000000,8");
  Alcotest.(check string) "malformed m" "E02" (req "mnot-hex");
  Alcotest.(check string) "p out of range" "E01" (req "pffff")

let record_samba () =
  let w =
    Wl_samba.make
      ~params:
        { Wl_samba.echoes = 6; payload = 32; server_work = 500;
          client_work = 300 }
      ()
  in
  let recd, _ = Workload.record w in
  recd.Workload.trace

(* The acceptance session: against a recorded sambatest trace, read
   registers and memory, continue to a software breakpoint, reverse
   back across it, resolve a watchpoint through Query.last_write, and drive
   the qRcmd monitor — every reply asserted byte for byte, with the
   expected bytes computed from an independent Debugger session over
   the same trace. *)
let test_samba_session () =
  let trace = record_samba () in
  let refd =
    Debugger.create ~opts:(Debugger.make_opts ~checkpoint_every:8 ()) trace
  in
  let n = Debugger.n_events refd in
  let check = Alcotest.(check string) in
  let _server, client, req = session trace in

  (* handshake *)
  Alcotest.(check bool) "qSupported" true
    (starts_with ~prefix:"PacketSize=" (req "qSupported:swbreak+"));
  check "no-ack switch" "OK" (req "QStartNoAckMode");
  let cur0 = initial_thread refd in
  check "initial stop" (Printf.sprintf "T05thread:%x;" cur0) (req "?");
  check "qC" (Printf.sprintf "QC%x" cur0) (req "qC");
  check "qAttached" "1" (req "qAttached");

  (* two forward steps: the exec frame has applied, memory is mapped *)
  let tid0 = E.tid_of (Debugger.frame refd 0) in
  let tid1 = E.tid_of (Debugger.frame refd 1) in
  check "s #1" (Printf.sprintf "T05thread:%x;" tid0) (req "s");
  check "s #2" (Printf.sprintf "T05thread:%x;" tid1) (req "s");
  Debugger.seek refd 2;
  check "when" "2" (Gdb_client.monitor client "when");

  (* thread list: byte-exact against live_tids at this position *)
  let expect_threads =
    match Debugger.live_tids refd with
    | [] -> Printf.sprintf "m%x" tid1
    | tids ->
      "m" ^ String.concat "," (List.map (Printf.sprintf "%x") tids)
  in
  check "qfThreadInfo" expect_threads (req "qfThreadInfo");
  check "qsThreadInfo" "l" (req "qsThreadInfo");

  (* registers and memory, computed from the reference session *)
  let expect_g =
    let regs, _ = Debugger.regs refd tid1 in
    String.concat "" (Array.to_list (Array.map P.hex64_le regs))
  in
  check "g" expect_g (req "g");
  let expect_p0 = P.hex64_le (fst (Debugger.regs refd tid1)).(0) in
  check "p0" expect_p0 (req "p0");
  let expect_m =
    try P.to_hex (Bytes.to_string (Debugger.read_mem refd tid1 0x100000 8))
    with Debugger.Debug_error _ -> "E03"
  in
  check "m data base" expect_m (req "m100000,8");
  check "m text base"
    (try P.to_hex (Bytes.to_string (Debugger.read_mem refd tid1 0x1000 4))
     with Debugger.Debug_error _ -> "E03")
    (req "m1000,4");

  (* pick a pc recorded at two frames >= 2: a syscall site inside the
     echo loop.  The first two hits give us the breakpoint dance. *)
  let occs = Hashtbl.create 64 in
  for i = 2 to n - 1 do
    match Gdb_server.frame_pc (Debugger.frame refd i) with
    | Some pc ->
      Hashtbl.replace occs pc
        (i :: (try Hashtbl.find occs pc with Not_found -> []))
    | None -> ()
  done;
  let bp_pc, i1, i2 =
    let cands =
      Hashtbl.fold (fun pc idxs acc -> (pc, List.rev idxs) :: acc) occs []
      |> List.filter (fun (_, l) -> List.length l >= 2)
      |> List.sort (fun (_, a) (_, b) -> compare (List.hd a) (List.hd b))
    in
    match cands with
    | (pc, i1 :: i2 :: _) :: _ -> (pc, i1, i2)
    | _ -> Alcotest.fail "no repeated pc in the samba trace"
  in
  check "Z0 insert" "OK" (req (Printf.sprintf "Z0,%x,1" bp_pc));
  let t_i1 = E.tid_of (Debugger.frame refd i1) in
  let t_i2 = E.tid_of (Debugger.frame refd i2) in
  check "c to the breakpoint"
    (Printf.sprintf "T05swbreak:;thread:%x;" t_i1)
    (req "c");
  check "when at bp" (string_of_int (i1 + 1)) (Gdb_client.monitor client "when");
  check "c to the second hit"
    (Printf.sprintf "T05swbreak:;thread:%x;" t_i2)
    (req "c");
  (* reverse-continue back across the breakpoint: checkpoint restore
     under the hood, landing just after the earlier hit *)
  check "bc across the breakpoint"
    (Printf.sprintf "T05swbreak:;thread:%x;" t_i1)
    (req "bc");
  check "when after bc" (string_of_int (i1 + 1))
    (Gdb_client.monitor client "when");
  check "z0 remove" "OK" (req (Printf.sprintf "z0,%x,1" bp_pc));
  Debugger.seek refd (i1 + 1);

  (* reverse watchpoint on the datagram buffer, resolved through
     Query.last_write.  Pick (via the reference session) a live thread whose
     address space saw a write — then aim the stub at it with Hg. *)
  let waddr = 0x100000 and wlen = 8 in
  let wtid =
    match
      List.find_opt
        (fun tid ->
          Debugger.Query.last_write refd ~tid ~addr:waddr ~len:wlen
          <> Ok None)
        (Debugger.live_tids refd)
    with
    | Some tid -> tid
    | None -> Alcotest.fail "no thread ever wrote the datagram buffer"
  in
  check "Hg" "OK" (req (Printf.sprintf "Hg%x" wtid));
  check "Z2 insert" "OK" (req (Printf.sprintf "Z2,%x,%x" waddr wlen));
  let j =
    match Debugger.Query.last_write refd ~tid:wtid ~addr:waddr ~len:wlen with
    | Ok (Some j) -> j
    | Ok None | Error _ -> assert false
  in
  check "bc to the watch"
    (Printf.sprintf "T05watch:%x;thread:%x;" waddr
       (E.tid_of (Debugger.frame refd j)))
    (req "bc");
  check "when at the write" (string_of_int j)
    (Gdb_client.monitor client "when");
  check "z2 remove" "OK" (req (Printf.sprintf "z2,%x,%x" waddr wlen));
  Debugger.seek refd j;

  (* monitor: checkpoint here, wander off, restart back *)
  check "monitor checkpoint"
    (Printf.sprintf "checkpoint 1 at frame %d" j)
    (Gdb_client.monitor client "checkpoint");
  ignore (req "s");
  ignore (req "s");
  check "monitor restart" (Printf.sprintf "at frame %d" j)
    (Gdb_client.monitor client "restart 1");
  check "when after restart" (string_of_int j)
    (Gdb_client.monitor client "when");
  Alcotest.(check bool) "monitor stats" true
    (starts_with ~prefix:"packets=" (Gdb_client.monitor client "stats"));

  check "detach" "OK" (req "D");
  Gdb_client.close client

(* The same session shape driven through the script runner (the CI
   smoke's engine), to pin the script semantics down in-process. *)
let test_scripted_session () =
  let trace = record_tiny () in
  let _server, client, _req = session trace in
  let src =
    "QStartNoAckMode => OK\n\
     ? => T05*\n\
     s => T05*\n\
     monitor when => 1\n\
     monitor checkpoint => checkpoint 1 at frame 1\n\
     monitor restart 1 => at frame 1\n\
     D => OK\n"
  in
  let base = Telemetry.snapshot () in
  (match Gdb_script.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok steps -> (
    match Gdb_script.run client steps with
    | Ok count -> Alcotest.(check int) "all steps ran" 7 count
    | Error e -> Alcotest.failf "script failed: %s" e));
  (* every dispatched command is timed under the gdb.cmd span *)
  let cmds =
    match List.assoc_opt "gdb.cmd" (Telemetry.since base).Telemetry.snap_spans with
    | Some s -> s.Telemetry.s_count
    | None -> 0
  in
  Alcotest.(check bool) (Printf.sprintf "gdb.cmd span counted (%d)" cmds) true
    (cmds >= 7)

let suites =
  [ ( "gdbstub.packet",
      [ Alcotest.test_case "exact frames" `Quick test_frame_exact;
        Alcotest.test_case "escaping" `Quick test_escaping;
        Alcotest.test_case "rle runs" `Quick test_rle_runs;
        Alcotest.test_case "malformed bodies rejected" `Quick
          test_decode_rejects_malformed;
        Alcotest.test_case "hex helpers" `Quick test_hex_helpers;
        Alcotest.test_case "bad checksum NAKs + re-serve" `Quick
          test_bad_checksum_naks;
        Alcotest.test_case "no-ack mode skips acks" `Quick
          test_noack_skips_acks;
        Alcotest.test_case "NAK retransmits" `Quick test_nak_retransmits;
        Alcotest.test_case "junk between frames" `Quick
          test_junk_between_frames;
        QCheck_alcotest.to_alcotest (qcheck_roundtrip ~rle:false);
        QCheck_alcotest.to_alcotest (qcheck_roundtrip ~rle:true);
        QCheck_alcotest.to_alcotest qcheck_hex64 ] );
    ( "gdbstub.session",
      [ Alcotest.test_case "script parsing" `Quick test_script_steps;
        Alcotest.test_case "frame-0 stop replies" `Quick
          test_frame_zero_stops;
        Alcotest.test_case "error replies" `Quick
          test_bad_thread_and_memory_errors;
        Alcotest.test_case "samba byte-level session" `Quick
          test_samba_session;
        Alcotest.test_case "scripted session" `Quick test_scripted_session ]
    ) ]
