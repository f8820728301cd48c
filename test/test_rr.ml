(* Record/replay integration tests: record a guest workload, replay the
   trace against a fresh kernel with different entropy, and require exact
   user-space equivalence. *)

module K = Kernel
module T = Task
module G = Guest

let ( @. ) = List.append

(* A result cell every test program writes its observations into. *)
let result_cell = 0x120000
let result_len = 64

(* Record [build], then replay, then compare the result cell and exit
   status between the recording and the replay. *)
let roundtrip ?(rec_opts = Recorder.default_opts) ?(rep_opts = Replayer.default_opts)
    ?(setup = fun _ -> ()) build =
  let full_setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    setup k;
    let b = G.create () in
    build k b;
    let img = G.build b ~name:"t" () in
    K.install_image k ~path:"/bin/t" img
  in
  let trace, rstats, rk = Recorder.record ~opts:rec_opts ~setup:full_setup ~exe:"/bin/t" () in
  let pstats, pk = Replayer.replay ~opts:rep_opts trace in
  (trace, rstats, rk, pstats, pk)

let final_space k tid =
  (* The address space of the (possibly dead) process: processes release
     their spaces at death, so capture state via a probe task is not
     possible; instead tests read the cell before exit by writing it to a
     file, or compare exit codes.  For live comparisons we use the VFS. *)
  ignore (k, tid)

let count_frames p trace =
  Trace.Reader.fold (fun _ e acc -> if p e then acc + 1 else acc) trace 0

let check_same_exit rstats pstats =
  Alcotest.(check (option int))
    "exit status equal" rstats.Recorder.exit_status pstats.Replayer.exit_status

(* --- basic scenarios -------------------------------------------------- *)

(* getpid + getrandom + rdtsc results written to a file: all three are
   nondeterministic inputs that must be recorded and replayed bit-exactly
   even though the replay kernel has different entropy. *)
let nondet_inputs_prog _k b =
  let buf = G.bss b 64 in
  G.emit b
    (G.sc Sysno.getpid []
    @. [ Asm.movi 9 result_cell; Asm.store 0 9 0 ]
    @. G.sc Sysno.getrandom [ G.imm buf; G.imm 16 ]
    @. [ Asm.movi 9 buf; Asm.load 10 9 0 ]
    @. [ Asm.movi 9 (result_cell + 8); Asm.store 10 9 0 ]
    @. [ Asm.I (Insn.Rdtsc 11) ]
    @. [ Asm.movi 9 (result_cell + 16); Asm.store 11 9 0 ]
    @. G.sc Sysno.gettimeofday [ G.imm (result_cell + 24) ]
    (* persist the cell to a file so both runs can be compared *)
    @. G.sys_open b ~path:"/out" ~flags:(Sysno.o_creat lor Sysno.o_wronly)
    @. [ Asm.movr 7 0 ]
    @. G.sys_write ~fd:(G.reg 7) ~buf:(G.imm result_cell) ~len:(G.imm result_len)
    @. G.sys_exit_group 0)

let read_out k =
  match Vfs.resolve_opt (K.vfs k) "/out" with
  | Some { Vfs.kind = Vfs.Reg reg; _ } ->
    Bytes.to_string (Vfs.read (K.vfs k) reg ~off:0 ~len:result_len)
  | Some _ | None -> "<missing>"

let test_nondet_inputs_no_intercept () =
  let opts = Recorder.make_opts ~intercept:false () in
  let _trace, rstats, rk, pstats, _pk = roundtrip ~rec_opts:opts nondet_inputs_prog in
  check_same_exit rstats pstats;
  Alcotest.(check bool) "recorded run wrote /out" true (read_out rk <> "<missing>")

let test_nondet_inputs_intercepted () =
  let _trace, rstats, _rk, pstats, _pk = roundtrip nondet_inputs_prog in
  check_same_exit rstats pstats

(* The replay kernel must never have performed the file write: during
   replay "filesystem operations are not performed" (§2.1). *)
let test_replay_performs_no_io () =
  let _trace, _rstats, rk, _pstats, pk = roundtrip nondet_inputs_prog in
  Alcotest.(check bool) "record wrote the file" true
    (Vfs.resolve_opt (K.vfs rk) "/out" <> None);
  Alcotest.(check bool) "replay did not" true
    (Vfs.resolve_opt (K.vfs pk) "/out" = None)

(* A compute loop interrupted by preemptions: exercises sched events and
   exact execution-point delivery. *)
let test_preemption_points () =
  let build _k b =
    G.emit b
      (G.compute_loop b ~n:300_000
      @. [ Asm.movr 1 6; Asm.I (Insn.Alu (Insn.And, 1, Insn.Imm 0x7f)) ]
      @. G.sc Sysno.exit_group [ G.reg 1 ])
  in
  let opts = Recorder.make_opts ~timeslice_rcbs:10_000 () in
  let trace, rstats, _rk, pstats, _pk = roundtrip ~rec_opts:opts build in
  check_same_exit rstats pstats;
  let scheds =
    count_frames (function Event.E_sched _ -> true | _ -> false) trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "preemptions recorded (%d)" scheds)
    true (scheds >= 3)

(* Threads communicating through a pipe: blocking reads, desched events,
   scheduling. *)
let pipe_prog _k b =
  let fds = G.bss b 16 in
  let child_stack = G.bss b 4096 + 4096 in
  let buf = G.bss b 16 in
  G.emit b
    (G.sys_pipe ~fds_addr:fds
    @. G.sys_clone_thread ~child_sp:(G.imm child_stack)
    @. [ Asm.jz 0 "child" ]
    @. [ Asm.movi 9 fds; Asm.load 7 9 0 ]
    @. G.sys_read ~fd:(G.reg 7) ~buf:(G.imm buf) ~len:(G.imm 16)
    @. [ Asm.movr 11 0 ] (* bytes read *)
    @. [ Asm.movi 9 buf; Asm.load8 10 9 0 ]
    @. [ Asm.muli 11 100; Asm.addr_ 11 10; Asm.subi 11 160; Asm.movr 1 11 ]
    @. G.sc Sysno.exit_group [ G.reg 1 ]
    @. [ Asm.label "child" ]
    @. G.compute_loop b ~n:2000
    @. [ Asm.movi 9 fds; Asm.load 7 9 8 ]
    @. (let msg = G.str b "x" in
        G.sys_write ~fd:(G.reg 7) ~buf:(G.imm msg) ~len:(G.imm 1))
    @. G.sys_exit 0)

let test_pipe_threads_no_intercept () =
  let opts = Recorder.make_opts ~intercept:false () in
  let _, rstats, _, pstats, _ = roundtrip ~rec_opts:opts pipe_prog in
  check_same_exit rstats pstats;
  (* 1 byte read, 'x' = 120: 100 + 120 - 160 = 60 *)
  Alcotest.(check (option int)) "result" (Some 60) rstats.Recorder.exit_status

let test_pipe_threads_intercepted () =
  let _, rstats, _, pstats, _ = roundtrip pipe_prog in
  check_same_exit rstats pstats;
  Alcotest.(check (option int)) "result" (Some 60) rstats.Recorder.exit_status

(* Signal handler: asynchronous delivery point + frame replay. *)
let signal_prog _k b =
  let marker = G.bss b 8 in
  G.emit b
    ([ Asm.jmp "main" ]
    @. [ Asm.label "handler" ]
    @. [ Asm.movi 9 marker; Asm.store 1 9 0 ]
    @. G.sys_sigreturn
    @. [ Asm.label "main" ]
    @. [ Asm.lea 2 "handler" ]
    @. G.sys_sigaction ~signo:Signals.sigusr1 ~handler:(G.reg 2) ~mask:0
         ~flags:0
    @. G.sc Sysno.getpid []
    @. [ Asm.movr 7 0 ]
    @. G.sys_kill ~pid:(G.reg 7) ~signo:Signals.sigusr1
    @. G.compute_loop b ~n:100
    @. [ Asm.movi 9 marker; Asm.load 10 9 0; Asm.movr 1 10 ]
    @. G.sc Sysno.exit_group [ G.reg 1 ])

let test_signal_handler_replay () =
  let _, rstats, _, pstats, _ = roundtrip signal_prog in
  check_same_exit rstats pstats;
  Alcotest.(check (option int)) "handler observed signo"
    (Some Signals.sigusr1) rstats.Recorder.exit_status

(* fork + wait4 + exec. *)
let test_fork_exec_replay () =
  let setup k =
    let b2 = G.create () in
    G.emit b2 (G.sys_exit_group 9);
    K.install_image k ~path:"/bin/other" (G.build b2 ~name:"other" ())
  in
  let build _k b =
    let status_addr = G.bss b 8 in
    G.emit b
      (G.sys_fork
      @. [ Asm.jz 0 "child"; Asm.movr 7 0 ]
      @. G.sys_wait4 ~pid:(G.reg 7) ~status_addr:(G.imm status_addr)
      @. [ Asm.movi 9 status_addr; Asm.load 10 9 0; Asm.movr 1 10 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ]
      @. [ Asm.label "child" ]
      @. G.sys_execve b ~path:"/bin/other"
      @. G.sys_exit_group 1)
  in
  let _, rstats, _, pstats, _ = roundtrip ~setup build in
  check_same_exit rstats pstats;
  Alcotest.(check (option int)) "exec'd child status seen" (Some 9)
    rstats.Recorder.exit_status

(* RDTSC trapping: the value must replay exactly even though replay TSC
   would differ wildly. *)
let test_rdtsc_exact () =
  let build _k b =
    G.emit b
      ([ Asm.I (Insn.Rdtsc 5);
         Asm.I (Insn.Rdtsc 6);
         Asm.I (Insn.Alu (Insn.Sub, 6, Insn.Reg 5));
         (* exit code = (t2 - t1) mod 256: replay must reproduce it *)
         Asm.I (Insn.Alu (Insn.And, 6, Insn.Imm 0xff));
         Asm.movr 1 6 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ])
  in
  let _, rstats, _, pstats, _ = roundtrip build in
  check_same_exit rstats pstats

(* mmap (anon + file-backed) replays with identical layout and data. *)
let test_mmap_replay () =
  let setup k =
    let reg = Vfs.create_file (K.vfs k) "/data.bin" in
    let data = Bytes.init 8192 (fun i -> Char.chr ((i * 7) land 0xff)) in
    ignore (Vfs.write (K.vfs k) reg ~off:0 data)
  in
  let build _k b =
    G.emit b
      (G.sys_mmap ~len:(G.imm 8192) ~prot:Mem.prot_rw ~flags:1
      @. [ Asm.movr 7 0 ] (* anon addr *)
      @. [ Asm.movi 10 77; Asm.store 10 7 0 ]
      @. G.sys_open b ~path:"/data.bin" ~flags:Sysno.o_rdonly
      @. [ Asm.movr 8 0 ]
      @. G.sc Sysno.mmap
           [ G.imm 0; G.imm 8192; G.imm Mem.prot_r; G.imm 0; G.reg 8; G.imm 0 ]
      @. [ Asm.movr 9 0 ] (* file-backed addr *)
      @. [ Asm.load8 11 9 3 ] (* data.bin[3] = 21 *)
      @. [ Asm.load 12 7 0 ] (* anon cell = 77 *)
      @. [ Asm.addr_ 11 12; Asm.movr 1 11 ] (* 21 + 77 = 98 *)
      @. G.sc Sysno.exit_group [ G.reg 1 ])
  in
  let _, rstats, _, pstats, _ = roundtrip ~setup build in
  check_same_exit rstats pstats;
  Alcotest.(check (option int)) "mapped data read" (Some 98)
    rstats.Recorder.exit_status

(* munmap/mprotect must be re-performed during replay (K_perform). *)
let test_munmap_replay () =
  let build _k b =
    G.emit b
      (G.sys_mmap ~len:(G.imm 8192) ~prot:Mem.prot_rw ~flags:1
      @. [ Asm.movr 7 0 ]
      @. G.sc Sysno.munmap [ G.reg 7; G.imm 8192 ]
      @. G.sys_mmap ~len:(G.imm 4096) ~prot:Mem.prot_rw ~flags:1
      @. [ Asm.movr 8 0 ]
      @. [ Asm.movi 10 5; Asm.store 10 8 0; Asm.load 11 8 0; Asm.movr 1 11 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ])
  in
  let _, rstats, _, pstats, _ = roundtrip build in
  check_same_exit rstats pstats;
  Alcotest.(check (option int)) "remap worked" (Some 5) rstats.Recorder.exit_status

(* The syscallbuf fast path really was used: buffered syscalls appear in
   flush frames and the site got patched. *)
let test_syscallbuf_used () =
  let build _k b =
    let buf = G.bss b 128 in
    G.emit b
      (G.sys_open b ~path:"/f" ~flags:(Sysno.o_creat lor Sysno.o_rdwr)
      @. [ Asm.movr 7 0; Asm.movi 8 40 ]
      @. [ Asm.label "loop" ]
      @. G.sys_write ~fd:(G.reg 7) ~buf:(G.imm buf) ~len:(G.imm 64)
      @. [ Asm.subi 8 1 ]
      @. [ Asm.jnz 8 "loop" ]
      @. G.sys_exit_group 0)
  in
  let trace, rstats, _, pstats, _ = roundtrip build in
  check_same_exit rstats pstats;
  Alcotest.(check bool) "sites were patched" true (rstats.Recorder.n_patched_sites >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "buffered syscalls dominate (%d buffered)"
       (Trace.stats trace).Trace.n_buffered_syscalls)
    true
    ((Trace.stats trace).Trace.n_buffered_syscalls >= 30)

(* Interception drastically reduces ptrace stops (the point of §3). *)
let test_interception_reduces_stops () =
  let build _k b =
    let buf = G.bss b 64 in
    G.emit b
      (G.sys_open b ~path:"/f" ~flags:(Sysno.o_creat lor Sysno.o_rdwr)
      @. [ Asm.movr 7 0; Asm.movi 8 100 ]
      @. [ Asm.label "loop" ]
      @. G.sys_write ~fd:(G.reg 7) ~buf:(G.imm buf) ~len:(G.imm 8)
      @. [ Asm.subi 8 1 ]
      @. [ Asm.jnz 8 "loop" ]
      @. G.sys_exit_group 0)
  in
  let run opts =
    let full_setup k = Vfs.mkdir_p (K.vfs k) "/bin" in
    ignore full_setup;
    let _, rstats, _, _, _ = roundtrip ~rec_opts:opts build in
    rstats
  in
  let with_buf = run Recorder.default_opts in
  let without = run (Recorder.make_opts ~intercept:false ()) in
  Alcotest.(check bool)
    (Printf.sprintf "stops: %d with vs %d without" with_buf.Recorder.n_ptrace_stops
       without.Recorder.n_ptrace_stops)
    true
    (with_buf.Recorder.n_ptrace_stops * 2 < without.Recorder.n_ptrace_stops);
  Alcotest.(check bool)
    (Printf.sprintf "time: %d with vs %d without" with_buf.Recorder.wall_time
       without.Recorder.wall_time)
    true
    (with_buf.Recorder.wall_time < without.Recorder.wall_time)

(* Chaos mode still replays faithfully. *)
let test_chaos_mode_roundtrip () =
  let opts = Recorder.make_opts ~chaos:true ~timeslice_rcbs:2000 () in
  let _, rstats, _, pstats, _ = roundtrip ~rec_opts:opts pipe_prog in
  check_same_exit rstats pstats

(* Replaying through the SYSEMU-only path (ablation) also works. *)
let test_sysemu_replay () =
  let rep_opts = { Replayer.default_opts with sysemu_all = true } in
  let _, rstats, _, pstats, _ =
    roundtrip ~rep_opts
      ~rec_opts:(Recorder.make_opts ~intercept:false ())
      nondet_inputs_prog
  in
  check_same_exit rstats pstats

(* A corrupted recording (tampered register frame) must be detected. *)
let test_divergence_detected () =
  let trace, _, _, _, _ =
    roundtrip ~rec_opts:(Recorder.make_opts ~intercept:false ())
      nondet_inputs_prog
  in
  (* Tamper: flip a recorded register in some syscall frame, rewriting
     the trace through map_frames (frames are no longer shared mutable
     state; the store re-encodes the surgically altered chunk). *)
  let tampered = ref false in
  let trace =
    Trace.map_frames
      (fun _ e ->
        match e with
        | Event.E_syscall ({ regs_after; _ } as sc) when not !tampered ->
          tampered := true;
          let regs_after = Array.copy regs_after in
          regs_after.(3) <- regs_after.(3) + 123456;
          Event.E_syscall { sc with regs_after }
        | e -> e)
      trace
  in
  Alcotest.(check bool) "found a frame to tamper" true !tampered;
  match Replayer.replay trace with
  | exception Replayer.Divergence _ -> ()
  | _ -> Alcotest.fail "tampered trace replayed without divergence"

(* RDRAND (paper §2.6): the recorder patches RDRAND sites to emulation
   hooks; the value must replay exactly despite fresh replay entropy. *)
let test_rdrand_patched () =
  let build _k b =
    G.emit b
      ([ Asm.I (Insn.Rdrand 5);
         Asm.I (Insn.Rdrand 6);
         Asm.I (Insn.Alu (Insn.Xor, 5, Insn.Reg 6));
         Asm.I (Insn.Alu (Insn.And, 5, Insn.Imm 0xff));
         Asm.movr 1 5 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ])
  in
  let trace, rstats, _, pstats, _ = roundtrip build in
  check_same_exit rstats pstats;
  (* the patches must be in the trace *)
  let patches =
    count_frames (function Event.E_patch _ -> true | _ -> false) trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "rdrand sites patched (%d)" patches)
    true (patches >= 2)

(* Memory checksums (paper §6.2): periodic digests catch silent memory
   corruption that register checks cannot see. *)
let test_checksums_pass () =
  let rec_opts = Recorder.make_opts ~checksum_every:2 () in
  let trace, rstats, _, pstats, _ = roundtrip ~rec_opts nondet_inputs_prog in
  check_same_exit rstats pstats;
  let checksums =
    count_frames (function Event.E_checksum _ -> true | _ -> false) trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "checksum frames present (%d)" checksums)
    true (checksums >= 2)

(* Corrupt the first syscall frame carrying output data; returns the
   rewritten trace, or None if nothing was eligible. *)
let tamper_first_write_data trace =
  let tampered = ref false in
  let trace =
    Trace.map_frames
      (fun _ e ->
        match e with
        | Event.E_syscall ({ writes = { Event.data; addr } :: rest; _ } as sc)
          when (not !tampered) && String.length data > 0 ->
          tampered := true;
          let data = "\xFF" ^ String.sub data 1 (String.length data - 1) in
          Event.E_syscall { sc with writes = { Event.data; addr } :: rest }
        | e -> e)
      trace
  in
  if !tampered then Some trace else None

let test_checksum_catches_silent_corruption () =
  (* Without checksums, corrupted syscall output data replays "fine" as
     long as the guest never branches on it; with checksums the replay
     diverges. *)
  let build _k b =
    let buf = G.bss b 64 in
    G.emit b
      (G.sc Sysno.getrandom [ G.imm buf; G.imm 32 ]
      @. G.compute_loop b ~n:50
      @. G.sys_exit_group 0)
  in
  let rec_opts =
    Recorder.make_opts ~checksum_every:1 ~intercept:false ()
  in
  let trace, _, _, _, _ = roundtrip ~rec_opts build in
  let trace =
    match tamper_first_write_data trace with
    | Some t -> t
    | None -> Alcotest.fail "found no data to tamper"
  in
  match Replayer.replay trace with
  | exception Replayer.Divergence msg ->
    Alcotest.(check bool)
      ("diverged via checksum: " ^ msg)
      true
      (String.length msg > 0)
  | _ -> Alcotest.fail "silent corruption was not caught"

(* §2.3.2: tracee-level ptrace is emulated by the recorder (a process
   inspecting a sibling, the crash-reporter pattern). *)
let test_tracee_ptrace_emulated () =
  let build _k b =
    let cell = 0x130000 in
    let status_addr = G.bss b 8 in
    G.emit b
      (G.sys_fork
      @. [ Asm.jz 0 "child"; Asm.movr 7 0 ] (* r7 = child pid *)
      @. G.compute_loop b ~n:400 (* let the child publish its value *)
      @. G.sc Sysno.ptrace [ G.imm Sysno.ptrace_attach; G.reg 7 ]
      @. G.check_ok b
      @. G.sc Sysno.ptrace [ G.imm Sysno.ptrace_peekdata; G.reg 7; G.imm cell ]
      @. [ Asm.movr 11 0 ] (* peeked value *)
      @. G.sc Sysno.ptrace [ G.imm Sysno.ptrace_detach; G.reg 7 ]
      @. G.sys_kill ~pid:(G.reg 7) ~signo:Signals.sigkill
      @. G.sys_wait4 ~pid:(G.reg 7) ~status_addr:(G.imm status_addr)
      @. [ Asm.movr 1 11 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ]
      @. [ Asm.label "child" ]
      @. [ Asm.movi 9 cell; Asm.movi 10 42; Asm.store 10 9 0 ]
      (* spin until killed *)
      @. [ Asm.label "spin" ]
      @. G.compute_loop b ~n:5000
      @. [ Asm.jmp "spin" ])
  in
  (* Runs only under the recorder: the kernel itself has no in-guest
     ptrace; the recorder provides it, as rr does on Linux. *)
  let full_setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    build k b;
    K.install_image k ~path:"/bin/t" (G.build b ~name:"t" ())
  in
  let trace, rstats, _ = Recorder.record ~setup:full_setup ~exe:"/bin/t" () in
  Alcotest.(check (option int)) "peeked the sibling's cell" (Some 42)
    rstats.Recorder.exit_status;
  let pstats, _ = Replayer.replay trace in
  Alcotest.(check (option int)) "replay matches" (Some 42)
    pstats.Replayer.exit_status

(* Trace persistence: a saved trace file replays identically. *)
let test_trace_save_load () =
  let trace, rstats, _, _, _ = roundtrip nondet_inputs_prog in
  let path = Filename.temp_file "rrtrace" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.save_exn trace path;
      let loaded = Trace.open_exn path in
      Alcotest.(check int) "frame count survives" (Trace.n_events trace)
        (Trace.n_events loaded);
      let pstats, _ = Replayer.replay loaded in
      Alcotest.(check (option int)) "loaded trace replays"
        rstats.Recorder.exit_status pstats.Replayer.exit_status)

let test_trace_load_rejects_garbage () =
  let path = Filename.temp_file "rrtrace" ".junk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "definitely not a trace";
      close_out oc;
      match Trace.open_ path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted")

(* §2.4: asynchronous delivery points inside run-time-generated code
   force the replayer onto its single-stepping path (breakpoints cannot
   be planted in written text, §2.3.7). *)
let test_async_point_in_jitted_code () =
  let build _k b =
    let jit = 0x9000 in
    let enc i = match Insn.encode i with Some v -> v | None -> assert false in
    G.emit b
      ([ (* emit: mov r5, 1; add r5, 2; ret *)
         Asm.movi 1 jit;
         Asm.movi 2 (enc (Insn.Mov (5, Insn.Imm 1)));
         Asm.I (Insn.Emit (1, 2));
         Asm.movi 1 (jit + 1);
         Asm.movi 2 (enc (Insn.Alu (Insn.Add, 5, Insn.Imm 2)));
         Asm.I (Insn.Emit (1, 2));
         Asm.movi 1 (jit + 2);
         Asm.movi 2 (enc Insn.Ret);
         Asm.I (Insn.Emit (1, 2)) ]
      (* hammer the jitted function so preemptions land inside it *)
      @. [ Asm.movi 8 60_000; Asm.movi 7 jit ]
      @. [ Asm.label "hot";
           Asm.I (Insn.Callr 7);
           Asm.subi 8 1;
           Asm.jnz 8 "hot" ]
      @. [ Asm.movr 1 5 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ])
  in
  let rec_opts = Recorder.make_opts ~timeslice_rcbs:3_000 () in
  let trace, rstats, _, pstats, _ = roundtrip ~rec_opts build in
  check_same_exit rstats pstats;
  let scheds =
    count_frames (function Event.E_sched _ -> true | _ -> false) trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "preemptions landed (%d)" scheds)
    true (scheds >= 5)

(* A threaded process forks: Linux semantics say only the calling thread
   is duplicated.  Exercises clone frames for both kinds in one trace. *)
let test_thread_then_fork () =
  let build _k b =
    let cell = 0x130000 in
    let child_stack = G.bss b 4096 + 4096 in
    let status_addr = G.bss b 8 in
    G.emit b
      (G.sys_clone_thread ~child_sp:(G.imm child_stack)
      @. [ Asm.jz 0 "thread" ]
      (* main: fork a worker process, reap it, add the thread's mark *)
      @. G.sys_fork
      @. [ Asm.jz 0 "forked"; Asm.movr 7 0 ]
      @. G.sys_wait4 ~pid:(G.reg 7) ~status_addr:(G.imm status_addr)
      @. G.compute_loop b ~n:2000 (* let the thread publish *)
      @. [ Asm.movi 9 status_addr;
           Asm.load 10 9 0;
           Asm.movi 9 cell;
           Asm.load 11 9 0;
           Asm.addr_ 10 11;
           Asm.movr 1 10 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ]
      @. [ Asm.label "thread" ]
      @. [ Asm.movi 9 cell; Asm.movi 10 5; Asm.store 10 9 0 ]
      @. G.sys_exit 0
      @. [ Asm.label "forked" ]
      (* the forked process must NOT contain the sibling thread: its view
         of the cell is COW-private from fork time *)
      @. G.sys_exit_group 11)
  in
  let _, rstats, _, pstats, _ = roundtrip build in
  check_same_exit rstats pstats;
  (* 11 (forked child status) + 5 (thread's mark) *)
  Alcotest.(check (option int)) "combined result" (Some 16)
    rstats.Recorder.exit_status

(* Reverse execution over a checksummed trace: every restored checkpoint
   must reproduce bit-identical memory, or the E_checksum frames trip. *)
let test_debugger_checksummed_seeks () =
  let rec_opts =
    Recorder.make_opts ~checksum_every:2 ~intercept:false ()
  in
  let trace, _, _, _, _ = roundtrip ~rec_opts nondet_inputs_prog in
  let d =
    Debugger.create ~opts:(Debugger.make_opts ~checkpoint_every:2 ()) trace
  in
  let n = Debugger.n_events d in
  (* bounce around; every forward segment re-verifies the checksums *)
  List.iter
    (fun target -> Debugger.seek d (target mod (n + 1)))
    [ n; 1; n - 1; 2; n; 0; n ];
  Alcotest.(check int) "ended at the end" n (Debugger.pos d)

(* poll under record/replay: a traced multi-object blocking syscall. *)
let test_poll_roundtrip () =
  let build _k b =
    let fds1 = G.bss b 16 and fds2 = G.bss b 16 in
    let pfds = G.bss b 48 in
    let child_stack = G.bss b 4096 + 4096 in
    let msg = G.str b "q" in
    G.emit b
      (G.sys_pipe ~fds_addr:fds1
      @. G.sys_pipe ~fds_addr:fds2
      @. G.sys_clone_thread ~child_sp:(G.imm child_stack)
      @. [ Asm.jz 0 "child" ]
      @. [ Asm.movi 9 fds1; Asm.load 7 9 0 ]
      @. [ Asm.movi 9 fds2; Asm.load 8 9 0 ]
      @. [ Asm.movi 9 pfds;
           Asm.store 7 9 0;
           Asm.movi 10 Sysno.pollin;
           Asm.store 10 9 8;
           Asm.store 8 9 24;
           Asm.store 10 9 32 ]
      @. G.sc Sysno.poll [ G.imm pfds; G.imm 2 ]
      @. [ Asm.movr 11 0 ]
      @. [ Asm.movi 9 pfds; Asm.load 12 9 40 ]
      @. [ Asm.muli 11 10; Asm.addr_ 11 12; Asm.movr 1 11 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ]
      @. [ Asm.label "child" ]
      @. G.compute_loop b ~n:2000
      @. [ Asm.movi 9 fds2; Asm.load 7 9 8 ]
      @. G.sys_write ~fd:(G.reg 7) ~buf:(G.imm msg) ~len:(G.imm 1)
      @. G.sys_exit 0)
  in
  let _, rstats, _, pstats, _ = roundtrip build in
  check_same_exit rstats pstats;
  (* 1 ready * 10 + POLLIN on entry 1 *)
  Alcotest.(check (option int)) "poll result" (Some 11)
    rstats.Recorder.exit_status

let suites =
  [ ( "rr.roundtrip",
      [ Alcotest.test_case "nondet inputs (traced)" `Quick
          test_nondet_inputs_no_intercept;
        Alcotest.test_case "nondet inputs (intercepted)" `Quick
          test_nondet_inputs_intercepted;
        Alcotest.test_case "replay performs no IO" `Quick
          test_replay_performs_no_io;
        Alcotest.test_case "preemption points" `Quick test_preemption_points;
        Alcotest.test_case "pipe threads (traced)" `Quick
          test_pipe_threads_no_intercept;
        Alcotest.test_case "pipe threads (intercepted)" `Quick
          test_pipe_threads_intercepted;
        Alcotest.test_case "signal handler" `Quick test_signal_handler_replay;
        Alcotest.test_case "fork + exec" `Quick test_fork_exec_replay;
        Alcotest.test_case "rdtsc exact" `Quick test_rdtsc_exact;
        Alcotest.test_case "mmap" `Quick test_mmap_replay;
        Alcotest.test_case "munmap/mprotect" `Quick test_munmap_replay;
        Alcotest.test_case "chaos mode" `Quick test_chaos_mode_roundtrip;
        Alcotest.test_case "sysemu-only replay" `Quick test_sysemu_replay;
        Alcotest.test_case "rdrand patched" `Quick test_rdrand_patched;
        Alcotest.test_case "tracee ptrace emulated" `Quick
          test_tracee_ptrace_emulated;
        Alcotest.test_case "memory checksums" `Quick test_checksums_pass;
        Alcotest.test_case "trace save/load" `Quick test_trace_save_load;
        Alcotest.test_case "trace load rejects garbage" `Quick
          test_trace_load_rejects_garbage;
        Alcotest.test_case "async point in jitted code" `Quick
          test_async_point_in_jitted_code;
        Alcotest.test_case "thread + fork combined" `Quick
          test_thread_then_fork;
        Alcotest.test_case "checksummed reverse execution" `Quick
          test_debugger_checksummed_seeks;
        Alcotest.test_case "poll roundtrip" `Quick test_poll_roundtrip;
        Alcotest.test_case "no scratch buffers" `Quick
          (fun () ->
            (* §2.3.1's ablation: with one task at a time, eliminating
               scratch changes nothing observable. *)
            let _, rstats, _, pstats, _ =
              roundtrip
                ~rec_opts:(Recorder.make_opts ~scratch:false ())
                pipe_prog
            in
            check_same_exit rstats pstats;
            Alcotest.(check (option int)) "result" (Some 60)
              rstats.Recorder.exit_status) ] );
    ( "rr.syscallbuf",
      [ Alcotest.test_case "fast path used" `Quick test_syscallbuf_used;
        Alcotest.test_case "interception reduces stops" `Quick
          test_interception_reduces_stops ] );
    ( "rr.divergence",
      [ Alcotest.test_case "tampering detected" `Quick test_divergence_detected;
        Alcotest.test_case "checksums catch silent corruption" `Quick
          test_checksum_catches_silent_corruption ] ) ]
