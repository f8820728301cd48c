(* The rr replayer (paper §2.3.7–§2.3.9, §3.8).

   Replays a {!Trace} against a *fresh* simulated kernel with different
   entropy: no files are opened, no signals are delivered, no real
   syscalls run except the address-space operations that must be
   re-performed.  User-space memory, registers and control flow are
   reproduced exactly; every applied frame cross-checks the tracee state
   and raises {!Divergence} on mismatch.

   Mechanics per frame kind:
   - syscalls: software breakpoint at the recorded syscall site, run to
     it, apply recorded registers and memory effects, skip the
     instruction (one stop per syscall, §2.3.7); sites in run-time-written
     code fall back to the SYSEMU-style path;
   - async events (signals, preemptions): program the PMU interrupt
     *early* (the interrupt skids, §2.4.3), then breakpoint/single-step
     until RCB count, registers and the extra stack word all match;
   - buffered syscalls: refill the guest trace buffer from flush frames;
     the interception hook replays results with identical control flow. *)

module A = Addr_space
module T = Task
module K = Kernel
module E = Event

let src = Logs.Src.create "rr.replay"

module Log = (val Logs.src_log src : Logs.LOG)

exception Divergence of string

let diverged fmt = Fmt.kstr (fun s -> raise (Divergence s)) fmt

type opts = {
  seed : int; (* deliberately different from recording *)
  check_regs : bool; (* cross-check registers at every frame *)
  sysemu_all : bool; (* ablation: replay every syscall via SYSEMU *)
  wide : bool; (* widened wrapper set; must match the recording's *)
}

let default_opts =
  { seed = 424242; check_regs = true; sysemu_all = false; wide = true }

let make_opts ?(seed = default_opts.seed) ?(check_regs = default_opts.check_regs)
    ?(sysemu_all = default_opts.sysemu_all) ?(wide = default_opts.wide) () =
  { seed; check_regs; sysemu_all; wide }

type per_task = {
  batches : E.buf_record list Queue.t;
  mutable saved_locals : bytes;
  mutable next_resume : T.resume_how;
  mutable in_blocked_syscall : bool;
      (* parked at a syscall site whose recording blocked in the kernel *)
}

type t = {
  mutable k : K.t;
  trace : Trace.t;
  cursor : Trace.Reader.cursor; (* position in the chunk-indexed trace *)
  opts : opts;
  mutable rts : (int, per_task) Hashtbl.t;
  mutable locals_owner : (int, int) Hashtbl.t;
  mutable events_applied : int;
  mutable root_tid : int;
  mutable installed : (string * Image.t) list; (* exe path -> image *)
  tm_base : Telemetry.snapshot; (* registry state at session start *)
}

let tm_bp_syscall = Telemetry.counter "replay.bp_syscall"
let tm_sysemu_syscall = Telemetry.counter "replay.sysemu_syscall"
let tm_singlestep = Telemetry.counter "replay.singlestep"
let tm_pmu_interrupt = Telemetry.counter "replay.pmu_interrupt"
let tm_ckpt_save = Telemetry.counter "replay.checkpoint_save"
let tm_ckpt_restore = Telemetry.counter "replay.checkpoint_restore"

let cursor_index r = Trace.Reader.pos r.cursor
let kernel r = r.k
let trace r = r.trace

type stats = {
  wall_time : int;
  events_applied : int;
  n_ptrace_stops : int;
  exit_status : int option;
  telemetry : Telemetry.snapshot;
}

let get_rt r tid =
  match Hashtbl.find_opt r.rts tid with
  | Some st -> st
  | None ->
    let st =
      { batches = Queue.create ();
        saved_locals = Bytes.create 0;
        next_resume = T.R_cont;
        in_blocked_syscall = false }
    in
    Hashtbl.replace r.rts tid st;
    st

let task r tid =
  match K.find_task r.k tid with
  | Some t -> t
  | None -> diverged "no replay task %d" tid

let capture_regs task : E.regs =
  let a = Array.make 17 0 in
  Array.blit task.T.cpu.Cpu.regs 0 a 0 16;
  a.(E.pc_slot) <- task.T.cpu.Cpu.pc;
  a

let apply_regs task (regs : E.regs) =
  Array.blit regs 0 task.T.cpu.Cpu.regs 0 16;
  task.T.cpu.Cpu.pc <- regs.(E.pc_slot)

let regs_equal (a : E.regs) (b : E.regs) = a = b

let apply_writes task writes =
  List.iter
    (fun w ->
      A.write_bytes ~force:true task.T.cpu.Cpu.space w.E.addr
        (Bytes.of_string w.E.data))
    writes

let check_pc r task expected what =
  if r.opts.check_regs && task.T.cpu.Cpu.pc <> expected then
    diverged "%s: pc %#x, recorded %#x (task %d, event %d)" what
      task.T.cpu.Cpu.pc expected task.T.tid (cursor_index r)

(* ---- locals swapping (mirrors the recorder, §3.6) ------------------- *)

let has_locals task =
  A.find_region task.T.cpu.Cpu.space Layout.thread_locals_page <> None

let switch_locals r t =
  if has_locals t then begin
    let sid = t.T.cpu.Cpu.space.A.id in
    match Hashtbl.find_opt r.locals_owner sid with
    | Some owner when owner = t.T.tid -> ()
    | Some owner ->
      (match (Hashtbl.find_opt r.rts owner, K.find_task r.k owner) with
      | Some ost, Some otask when T.is_alive otask ->
        ost.saved_locals <- Syscallbuf.save_locals otask
      | _, _ -> ());
      let st = get_rt r t.T.tid in
      if Bytes.length st.saved_locals > 0 then
        Syscallbuf.restore_locals t st.saved_locals;
      Hashtbl.replace r.locals_owner sid t.T.tid
    | None -> Hashtbl.replace r.locals_owner sid t.T.tid
  end

(* ---- driving a single task ------------------------------------------ *)

(* Resume [t] (if parked) and run the world until the next ptrace stop,
   which must belong to [t]. *)
let rec run_until_stop r t =
  if t.T.state = T.Stopped then begin
    switch_locals r t;
    let st = get_rt r t.T.tid in
    let how = st.next_resume in
    st.next_resume <- T.R_cont;
    K.resume r.k t how ()
  end;
  match K.wait r.k with
  | K.Stopped_task (t', stop) -> (
    match stop with
    | T.Stop_signal { Signals.origin = Signals.User _; _ } ->
      (* A kernel-generated signal (e.g. SIGCHLD from a replayed exit):
         replay never delivers real signals (§2.3.9) — the recorded
         delivery, if any, is its own frame.  Suppress and continue. *)
      K.resume r.k t' T.R_cont ();
      if t'.T.tid <> t.T.tid then K.park r.k t';
      run_until_stop r t
    | _ ->
      if t'.T.tid <> t.T.tid then
        diverged "unexpected stop %a from task %d while replaying task %d"
          T.pp_stop stop t'.T.tid t.T.tid;
      stop)
  | K.All_dead -> diverged "task %d died before its next frame" t.T.tid
  | K.Deadlocked _ -> diverged "replay deadlocked while running task %d" t.T.tid

(* Run [t] to the recorded syscall site and return with the site
   un-executed.  Fast path: software breakpoint, one stop (§2.3.7).
   Writable-code path: let the syscall trap through seccomp and suppress
   it (SYSEMU, §2.3.7's fallback). *)
(* Slow-path syscall replay: the site can't take a breakpoint — either
   it lives in run-time-written code (§2.3.7), or it is the interception
   library's traced fallback in the RR page, reached through the kernel
   rather than by executing the site. *)
let syscall_slow_path r ~site ~writable_site =
  writable_site || r.opts.sysemu_all || site >= Layout.rr_page_text

(* Special frames (clone, mmap) derive the syscall site from the
   recorded post-syscall pc.  When that site was (eagerly) patched, the
   instruction there is the interception hook, not a syscall: at replay
   the hook must actually execute — it charges the same deterministic
   PMU costs it charged at record — and then falls back to a traced
   syscall through the RR page.  Redirecting the expected site to the
   fallback instruction routes {!run_to_syscall} onto its seccomp slow
   path, which lets the tracee run through the hook. *)
let effective_syscall_site t ~site =
  match A.text_get t.T.cpu.Cpu.space site with
  | Some (Insn.Hook _) -> Layout.traced_fallback_insn
  | Some _ | None -> site

let run_to_syscall r t ~nr ~site ~writable_site =
  K.charge r.k r.k.K.cost.Cost.replay_syscall_work;
  if syscall_slow_path r ~site ~writable_site then begin
    match run_until_stop r t with
    | T.Stop_seccomp ss | T.Stop_syscall_entry ss ->
      if ss.T.nr <> nr then
        diverged "expected syscall %s, tracee did %s (event %d)"
          (Sysno.name nr) (Sysno.name ss.T.nr) (cursor_index r);
      if ss.T.site <> site then
        diverged "syscall site %#x, recorded %#x" ss.T.site site;
      (* Suppress the syscall on the way out. *)
      (get_rt r t.T.tid).next_resume <- T.R_sysemu;
      Telemetry.incr tm_sysemu_syscall;
      (* Extra supervisor work for the slow path. *)
      K.charge r.k r.k.K.cost.Cost.supervisor_work
    | stop -> diverged "expected syscall entry, got %a" T.pp_stop stop
  end
  else begin
    A.bp_set t.T.cpu.Cpu.space site;
    (match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Bkpt; _ } ->
      A.bp_clear t.T.cpu.Cpu.space site;
      Telemetry.incr tm_bp_syscall;
      check_pc r t site "syscall breakpoint"
    | stop ->
      A.bp_clear t.T.cpu.Cpu.space site;
      diverged "expected breakpoint at syscall site %#x, got %a" site
        T.pp_stop stop);
    ()
  end

(* Run [t] to an asynchronous execution point: program the interrupt
   early, then breakpoint (or single-step through run-time-generated
   code) until RCB + registers + stack word match (§2.4). *)
let interrupt_slack = Pmu.max_skid + 6

let point_matches t (point : E.exec_point) =
  t.T.cpu.Cpu.pmu.Pmu.rcb = point.E.rcb
  && regs_equal (capture_regs t) point.E.point_regs
  &&
  let extra =
    try
      A.read_u64 ~force:true t.T.cpu.Cpu.space t.T.cpu.Cpu.regs.(Insn.reg_sp)
    with A.Segv _ -> 0
  in
  extra = point.E.stack_extra

let run_to_point_inner r t (point : E.exec_point) =
  let target = point.E.rcb in
  let pc_target = point.E.point_regs.(E.pc_slot) in
  let cur = t.T.cpu.Cpu.pmu.Pmu.rcb in
  if cur > target then
    diverged "rcb overshoot: at %d, target %d (task %d, event %d)" cur target
      t.T.tid (cursor_index r);
  (* Phase 1: coarse approach on the PMU interrupt, programmed early
     because it fires late (§2.4.3). *)
  if cur < target - interrupt_slack then begin
    Pmu.program_interrupt t.T.cpu.Cpu.pmu
      ~target:(target - interrupt_slack)
      ~skid:(Entropy.range r.k.K.entropy 0 Pmu.max_skid);
    match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Preempt | Signals.Fault; _ } ->
      Pmu.clear_interrupt t.T.cpu.Cpu.pmu;
      Telemetry.incr tm_pmu_interrupt;
      if t.T.cpu.Cpu.pmu.Pmu.rcb > target then
        diverged "interrupt skidded past the target point (rcb %d > %d)"
          t.T.cpu.Cpu.pmu.Pmu.rcb target
    | stop -> diverged "expected PMU interrupt, got %a" T.pp_stop stop
  end;
  (* Phase 2: precise approach — "repeatedly run to the breakpoint until
     the RCB count and the general-purpose register values match"
     (§2.4.3).  When the tracee sits exactly on the breakpointed address
     without matching yet, step over it (remove, single-step, reinsert),
     as any breakpoint-based debugger must. *)
  if not (point_matches t point) then begin
    let stepping = A.text_was_written t.T.cpu.Cpu.space pc_target in
    if not stepping then A.bp_set t.T.cpu.Cpu.space pc_target;
    let arrived = ref false in
    while not !arrived do
      Telemetry.incr tm_singlestep;
      let at_bp = (not stepping) && t.T.cpu.Cpu.pc = pc_target in
      if at_bp then A.bp_clear t.T.cpu.Cpu.space pc_target;
      (get_rt r t.T.tid).next_resume <-
        (if stepping || at_bp then T.R_singlestep else T.R_cont);
      (match run_until_stop r t with
      | T.Stop_signal { Signals.origin = Signals.Bkpt | Signals.Fault; _ }
      | T.Stop_singlestep ->
        (* Faults re-occur deterministically during replay; the recorded
           signal frame is the one being applied at this very point. *)
        ()
      | stop -> diverged "while stepping to point: %a" T.pp_stop stop);
      if at_bp then A.bp_set t.T.cpu.Cpu.space pc_target;
      if t.T.cpu.Cpu.pmu.Pmu.rcb > target then
        diverged
          "ran past execution point (rcb %d > %d, pc %#x, task %d, event %d)"
          t.T.cpu.Cpu.pmu.Pmu.rcb target t.T.cpu.Cpu.pc t.T.tid (cursor_index r);
      if point_matches t point then arrived := true
    done;
    if not stepping then A.bp_clear t.T.cpu.Cpu.space pc_target
  end

let run_to_point r t point =
  Timeline.scope "replay.point" (fun () -> run_to_point_inner r t point)

(* ---- frame handlers --------------------------------------------------- *)

let setup_replay_task r t (setup : int * int * int * int) =
  let rr_page, _locals, scratch, buf = setup in
  ignore rr_page;
  Syscallbuf.inject_rr_page r.k t;
  if t.T.seccomp = [] then
    t.T.seccomp <- [ Bpf.rr_filter ~untraced_ip:Layout.untraced_syscall_insn ];
  let sid = t.T.cpu.Cpu.space.A.id in
  (match Hashtbl.find_opt r.locals_owner sid with
  | Some owner when owner <> t.T.tid -> (
    match (Hashtbl.find_opt r.rts owner, K.find_task r.k owner) with
    | Some ost, Some otask when T.is_alive otask ->
      ost.saved_locals <- Syscallbuf.save_locals otask
    | _, _ -> ())
  | Some _ | None -> ());
  ignore
    (Syscallbuf.setup_task_at r.k t ~scratch ~buf ~is_replay:true);
  let st = get_rt r t.T.tid in
  st.saved_locals <- Syscallbuf.save_locals t;
  Hashtbl.replace r.locals_owner sid t.T.tid;
  t.T.vdso_enabled <- false;
  t.T.cpu.Cpu.tsc_trap <- true;
  t.T.affinity <- 0

(* Replaying an exec is expensive: exec a stub, tear down every mapping,
   recreate the recorded ones (paper §2.3.8) — a long run of remote
   syscalls in tracee context. *)
let exec_replay_cost k =
  K.charge k (120 * (Cost.ptrace_stop k.K.cost + k.K.cost.Cost.syscall_base))

let on_exec r ~tid ~image_ref ~regs_after =
  let img = Trace.image r.trace image_ref in
  exec_replay_cost r.k;
  match K.find_task r.k tid with
  | None ->
    (* The root task's initial exec: install and spawn. *)
    let path = "/replay_exe/" ^ image_ref in
    Vfs.mkdir_p (K.vfs r.k) "/replay_exe";
    Vfs.mkdir_p (K.vfs r.k) ("/replay_exe/" ^ Filename.dirname image_ref);
    K.install_image r.k ~path img;
    r.installed <- (path, img) :: r.installed;
    let t = K.spawn r.k ~path ~traced:true ~tid () in
    r.root_tid <- tid;
    (match K.wait r.k with
    | K.Stopped_task (t', T.Stop_exec) when t'.T.tid = tid -> ()
    | _ -> diverged "expected initial exec stop");
    if r.opts.check_regs && not (regs_equal (capture_regs t) regs_after) then
      diverged "initial exec registers differ";
    ()
  | Some t ->
    (* An execve by an existing task: run it to the syscall, install the
       trace image at the path the tracee names, and perform it. *)
    let stop = run_until_stop r t in
    (match stop with
    | T.Stop_seccomp ss when ss.T.nr = Sysno.execve ->
      let addr = ss.T.args.(0) in
      let rec read_str a acc =
        let c = A.read_u8 ~force:true t.T.cpu.Cpu.space a in
        if c = 0 then String.concat "" (List.rev acc)
        else read_str (a + 1) (String.make 1 (Char.chr c) :: acc)
      in
      let p = read_str addr [] in
      let path =
        if String.length p > 0 && p.[0] = '/' then p
        else t.T.proc.T.cwd ^ "/" ^ p
      in
      (match Vfs.resolve_opt (K.vfs r.k) path with
      | Some _ -> ()
      | None ->
        Vfs.mkdir_p (K.vfs r.k) (Filename.dirname path);
        K.install_image r.k ~path img;
        r.installed <- (path, img) :: r.installed);
      K.resume r.k t T.R_syscall ();
      (match K.wait r.k with
      | K.Stopped_task (t', T.Stop_exec) when t'.T.tid = tid -> ()
      | _ -> diverged "expected exec stop after execve")
    | s -> diverged "expected execve entry, got %a" T.pp_stop s);
    if r.opts.check_regs && not (regs_equal (capture_regs t) regs_after) then
      diverged "exec registers differ (task %d)" tid

(* Cross-check the tracee registers against the recorded post-syscall
   registers: everything except the result register must already agree
   when the tracee arrives at the syscall site (the kernel only writes
   r0).  This is what catches corrupted traces and replay divergence. *)
let verify_arrival r t (regs_after : E.regs) ~pc_delta =
  if r.opts.check_regs then begin
    for i = 1 to 15 do
      if t.T.cpu.Cpu.regs.(i) <> regs_after.(i) then
        diverged "register r%d = %d, recorded %d (task %d, event %d)" i
          t.T.cpu.Cpu.regs.(i) regs_after.(i) t.T.tid (cursor_index r)
    done;
    if t.T.cpu.Cpu.pc + pc_delta <> regs_after.(E.pc_slot) then
      diverged "pc %#x(+%d), recorded %#x (task %d, event %d)"
        t.T.cpu.Cpu.pc pc_delta
        regs_after.(E.pc_slot)
        t.T.tid (cursor_index r)
  end

(* The entry half of a blocking syscall (see E_syscall_enter): run the
   task to the syscall and park it "inside the kernel". *)
let on_syscall_enter r ~tid ~nr ~site ~writable_site ~via_abort =
  let t = task r tid in
  let st = get_rt r tid in
  if via_abort then begin
    match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Desched; _ } ->
      st.in_blocked_syscall <- true
    | stop -> diverged "expected syscallbuf abort stop, got %a" T.pp_stop stop
  end
  else begin
    run_to_syscall r t ~nr ~site ~writable_site;
    st.in_blocked_syscall <- true
  end

let on_syscall r ~tid ~nr ~site ~writable_site ~via_abort ~regs_after ~writes
    ~kind =
  let t = task r tid in
  let st = get_rt r tid in
  if st.in_blocked_syscall then begin
    (* Entry already replayed by the E_syscall_enter frame; the kernel
       work happened "off screen" — just apply the recorded effects. *)
    st.in_blocked_syscall <- false;
    ignore (nr, site, writable_site, kind);
    apply_writes t writes;
    apply_regs t regs_after
  end
  else if via_abort then begin
    (* The interception hook stops the task when it reaches the recorded
       abort marker (§3.3); no breakpoint is involved. *)
    match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Desched; _ } ->
      verify_arrival r t regs_after ~pc_delta:0;
      apply_writes t writes;
      apply_regs t regs_after
    | stop -> diverged "expected syscallbuf abort stop, got %a" T.pp_stop stop
  end
  else begin
    run_to_syscall r t ~nr ~site ~writable_site;
    (* sigreturn rewrites every register; there is nothing to cross-check
       at arrival. *)
    if nr <> Sysno.rt_sigreturn then
      verify_arrival r t regs_after
        ~pc_delta:(if syscall_slow_path r ~site ~writable_site then 0 else 1);
    (* Re-perform address-space operations (§2.3.8); everything else is
       pure emulation. *)
    (match kind with
    | E.K_perform ->
      let args = Array.init 6 (fun i -> t.T.cpu.Cpu.regs.(i + 1)) in
      if nr = Sysno.munmap then
        A.unmap t.T.cpu.Cpu.space ~addr:args.(0) ~len:args.(1)
      else if nr = Sysno.mprotect then
        A.protect t.T.cpu.Cpu.space ~addr:args.(0) ~len:args.(1)
          ~prot:args.(2)
    | E.K_emulate -> ());
    apply_writes t writes;
    apply_regs t regs_after
  end

let on_clone r ~parent ~child ~flags ~child_sp ~parent_regs_after ~child_regs =
  let p = task r parent in
  (* The clone syscall site is derivable from the recorded registers. *)
  let site = effective_syscall_site p ~site:(parent_regs_after.(E.pc_slot) - 1) in
  run_to_syscall r p ~nr:Sysno.clone ~site
    ~writable_site:(A.text_was_written p.T.cpu.Cpu.space site);
  let c = K.do_clone r.k p ~flags ~child_sp ~tid:child () in
  (* Consume the child's birth stop; it stays parked until its frames. *)
  (match K.next_stopped r.k with
  | Some (c', T.Stop_clone _) when c'.T.tid = child -> ()
  | Some (_, stop) -> diverged "expected clone stop, got %a" T.pp_stop stop
  | None -> diverged "missing clone stop for task %d" child);
  apply_regs p parent_regs_after;
  apply_regs c child_regs;
  if r.opts.check_regs && c.T.cpu.Cpu.regs.(0) <> 0 then
    diverged "clone child r0 not zero"

let on_mmap r ~tid ~addr ~len ~prot ~shared ~source ~regs_after =
  let t = task r tid in
  let site = effective_syscall_site t ~site:(regs_after.(E.pc_slot) - 1) in
  run_to_syscall r t ~nr:Sysno.mmap ~site
    ~writable_site:(A.text_was_written t.T.cpu.Cpu.space site);
  (* MAP_FIXED recreation of the recorded mapping (§2.3.8). *)
  let sp = t.T.cpu.Cpu.space in
  if not (A.overlaps sp ~addr ~len) then
    ignore (A.map sp ~addr ~len ~prot ~shared ());
  (match source with
  | E.Src_zero -> ()
  | E.Src_trace_file path ->
    let data = Trace.file r.trace path in
    A.write_bytes ~force:true sp addr
      (Bytes.of_string (String.sub data 0 (min (String.length data) len)))
  | E.Src_inline data ->
    A.write_bytes ~force:true sp addr
      (Bytes.of_string (String.sub data 0 (min (String.length data) len))));
  apply_regs t regs_after

let on_signal r ~tid ~signo ~point ~disposition =
  let t = task r tid in
  run_to_point r t point;
  ignore signo;
  match disposition with
  | E.Sr_handler { frame_addr; frame_data; regs_after; mask_after } ->
    (* §2.3.9: no real signal is delivered; write the recorded frame and
       registers. *)
    A.write_bytes ~force:true t.T.cpu.Cpu.space frame_addr
      (Bytes.of_string frame_data);
    apply_regs t regs_after;
    t.T.sigmask <- mask_after;
    t.T.sig_frames <- frame_addr :: t.T.sig_frames
  | E.Sr_fatal status -> K.kill_process r.k t.T.proc status
  | E.Sr_ignored regs_after ->
    (* No handler ran, but the kernel may have rewound for a restart. *)
    apply_regs t regs_after

let on_insn_trap r ~tid ~reg ~value =
  let t = task r tid in
  match run_until_stop r t with
  | T.Stop_signal { Signals.origin = Signals.Tsc_trap reg'; _ } ->
    if reg' <> reg then diverged "TSC trap register mismatch";
    t.T.cpu.Cpu.regs.(reg) <- value
  | stop -> diverged "expected TSC trap, got %a" T.pp_stop stop

let on_exit r ~tid ~status =
  match K.find_task r.k tid with
  | None -> ()
  | Some t when not (T.is_alive t) ->
    if t.T.exit_status <> status && status <> 0 then
      Log.warn (fun m ->
          m "task %d exit status %d, recorded %d" tid t.T.exit_status status)
  | Some t when (get_rt r tid).in_blocked_syscall ->
    (* Died while blocked in a syscall (killed by exit_group or a fatal
       signal elsewhere): it never runs again. *)
    K.kill_task r.k t status
  | Some t -> (
    (* Run it into its exit syscall and let it really die. *)
    match run_until_stop r t with
    | T.Stop_seccomp ss
      when ss.T.nr = Sysno.exit || ss.T.nr = Sysno.exit_group -> (
      K.resume r.k t T.R_syscall ();
      match K.wait r.k with
      | K.Stopped_task (t', T.Stop_exit st') when t'.T.tid = tid ->
        if st' <> status then
          diverged "exit status %d, recorded %d (task %d)" st' status tid;
        K.resume r.k t T.R_cont ()
      | _ -> diverged "expected exit event for task %d" tid)
    | stop -> diverged "expected exit syscall, got %a" T.pp_stop stop)

(* ---- the main loop ---------------------------------------------------- *)

let apply_frame r e =
  (* Every frame lands in the event ring: an emergency dump after a
     divergence shows the events that led up to it, this frame's own
     entry included. *)
  Timeline.instant ~lane:(E.tid_of e) ~frame:(cursor_index r)
    (E.kind_name e);
  (* Frame application reports on the frame's task lane. *)
  Timeline.set_lane (E.tid_of e);
  Fun.protect ~finally:(fun () -> Timeline.set_lane 0) @@ fun () ->
  Timeline.scope "replay.frame" @@ fun () ->
  (match e with
  | E.E_exec { tid; image_ref; regs_after } -> on_exec r ~tid ~image_ref ~regs_after
  | E.E_rr_setup { tid; rr_page; locals; scratch; buf; buf_len = _ } ->
    setup_replay_task r (task r tid) (rr_page, locals, scratch, buf)
  | E.E_patch { tid; site } -> Syscallbuf.patch_site (task r tid) ~site
  | E.E_buf_flush { tid; records } ->
    Queue.push records (get_rt r tid).batches
  | E.E_syscall { tid; nr; site; writable_site; via_abort; regs_after; writes; kind }
    ->
    on_syscall r ~tid ~nr ~site ~writable_site ~via_abort ~regs_after ~writes
      ~kind
  | E.E_clone { parent; child; flags; child_sp; parent_regs_after; child_regs }
    ->
    on_clone r ~parent ~child ~flags ~child_sp ~parent_regs_after ~child_regs
  | E.E_mmap { tid; addr; len; prot; shared; source; regs_after } ->
    on_mmap r ~tid ~addr ~len ~prot ~shared ~source ~regs_after
  | E.E_signal { tid; signo; point; disposition } ->
    on_signal r ~tid ~signo ~point ~disposition
  | E.E_syscall_enter { tid; nr; site; writable_site; via_abort } ->
    on_syscall_enter r ~tid ~nr ~site ~writable_site ~via_abort
  | E.E_sched { tid; point } -> run_to_point r (task r tid) point
  | E.E_insn_trap { tid; reg; value } -> on_insn_trap r ~tid ~reg ~value
  | E.E_exit { tid; status } -> on_exit r ~tid ~status
  | E.E_checksum { tid; value } -> (
    match K.find_task r.k tid with
    | Some t when T.is_alive t ->
      let now = Checksum.space t.T.cpu.Cpu.space in
      if now <> value then
        diverged
          "memory checksum mismatch for task %d at event %d (%#x vs \
           recorded %#x)"
          tid (cursor_index r) now value
    | Some _ | None -> ()));
  r.events_applied <- r.events_applied + 1

(* Patched RDRAND sites stop so the E_insn_trap frame supplies the
   recorded value (same protocol as trapped RDTSC). *)
let install_rdrand_hooks k =
  for reg = 0 to Insn.num_regs - 1 do
    K.set_hook k
      (Syscallbuf.rdrand_hook_of_reg reg)
      (fun k task ->
        K.enter_stop k task
          (T.Stop_signal (Signals.make_info Signals.sigsegv (Signals.Tsc_trap reg))))
  done

let install_hook r k =
  K.set_hook k Syscallbuf.hook_number
    (Syscallbuf.hook ~wide:r.opts.wide
       (Syscallbuf.Replay
          { fetch_clone =
              (fun cref ->
                let data = Trace.file r.trace cref.E.cr_path in
                String.sub data cref.E.cr_off
                  (min cref.E.cr_len (String.length data - cref.E.cr_off)));
            refill =
              (fun t ->
                let st = get_rt r t.T.tid in
                if Queue.is_empty st.batches then None
                else Some (Queue.pop st.batches)) }))

let start ?(opts = default_opts) trace =
  let k = K.create ~seed:opts.seed () in
  let r =
    { k;
      trace;
      opts;
      rts = Hashtbl.create 16;
      locals_owner = Hashtbl.create 8;
      cursor = Trace.Reader.open_ trace;
      events_applied = 0;
      root_tid = 0;
      installed = [];
      tm_base = Telemetry.snapshot () }
  in
  Timeline.set_virtual_clock (fun () -> K.now r.k);
  install_hook r k;
  install_rdrand_hooks k;
  r

let at_end r = Trace.Reader.at_end r.cursor

(* Apply the next frame; returns it.  The cursor advances only after the
   frame applies cleanly, so divergence reports carry its index. *)
let step r =
  match Trace.Reader.peek r.cursor with
  | None -> invalid_arg "Replayer.step: at end of trace"
  | Some e ->
    apply_frame r e;
    Trace.Reader.seek r.cursor (cursor_index r + 1);
    e

let stats_of r =
  let exit_status =
    match Hashtbl.find_opt r.k.K.procs r.root_tid with
    | Some p -> p.T.exit_code
    | None -> None
  in
  { wall_time = K.now r.k;
    events_applied = r.events_applied;
    n_ptrace_stops = r.k.K.trace_stop_count;
    exit_status;
    telemetry = Telemetry.since r.tm_base }

let replay ?(opts = default_opts) ?(on_frame = fun (_ : K.t) -> ()) trace =
  let r = start ~opts trace in
  Timeline.begin_scope "replay.session";
  (try
     while not (at_end r) do
       ignore (step r);
       on_frame r.k
     done
   with Divergence _ as exn ->
     (* The emergency debugger (§6.2): dump the replay state next to the
        divergence report. *)
     Log.err (fun m ->
         m "replay diverged at frame %d:@,%a" (cursor_index r) Diagnostics.pp r.k);
     Timeline.end_scope "replay.session";
     Timeline.clear_virtual_clock ();
     raise exn);
  let stats = stats_of r in
  Timeline.end_scope "replay.session";
  Timeline.clear_virtual_clock ();
  (stats, r.k)

(* ---- checkpoints (paper §6.1) ----------------------------------------

   A checkpoint is a COW snapshot of the whole replay: address spaces are
   forked (copy-on-write page sharing, so this is cheap no matter the
   tracee size), task registers/counters and the replayer's own cursor
   are copied.  Restoring builds a fresh kernel around the shared
   pages — the mechanism behind rr's reverse execution. *)

type snap_task = {
  sn_tid : int;
  sn_pid : int;
  sn_regs : int array;
  sn_pc : int;
  sn_rcb : int;
  sn_insns : int;
  sn_branches : int;
  sn_sigmask : int;
  sn_frames : int list;
  sn_dead : bool;
  sn_status : int;
  sn_seccomp : Bpf.program list;
  sn_tsc : bool;
  sn_batches : E.buf_record list list;
  sn_locals : bytes;
  sn_next_resume : T.resume_how;
  sn_in_blocked : bool;
  (* Scheduler time bounds: without them a restored task may be deemed
     runnable earlier than in the linear replay, skewing the clock. *)
  sn_tick_born : int;
  sn_last_wake : int;
  (* Task-directed signals queued but not yet delivered (e.g. SIGCHLDs
     awaiting the parent's next wait4): dropping them changes how the
     following frames replay. *)
  sn_pending : Signals.info list;
}

type snap_proc = {
  sp_pid : int;
  sp_parent : int;
  sp_space : A.t; (* a COW fork taken at snapshot time *)
  sp_threads : int list;
  sp_exit : int option;
  sp_reaped : bool;
  sp_cwd : string;
  sp_cmd : string;
  sp_children : int list;
  sp_owner : int option; (* locals_owner for this space *)
  sp_shared_pending : Signals.info list;
  sp_sighand : Signals.action array; (* indexed by signo *)
}

type snapshot = {
  snap_idx : int;
  snap_events_applied : int;
  snap_root : int;
  snap_procs : snap_proc list;
  snap_tasks : snap_task list;
  snap_installed : (string * Image.t) list;
  snap_clock : int;
  (* PRNG position and TSC base: restored so post-checkpoint entropy
     draws (PMU interrupt skid, TSC drift) continue the exact sequence a
     linear replay would see — otherwise the virtual clock of a restored
     session drifts from a from-zero replay's. *)
  snap_entropy : int64;
  snap_ktsc : int;
  (* Identity of the trace this snapshot was taken against, so restore
     can reject a mismatched (or salvaged-shorter) trace instead of
     replaying garbage. *)
  snap_trace_events : int;
  snap_trace_chunks : int;
  snap_trace_exe : string;
}

(* Every live task must be parked at an event boundary. *)
let snapshot r =
  Telemetry.incr tm_ckpt_save;
  Timeline.scope "replay.ckpt_save" @@ fun () ->
  let procs =
    List.filter_map
      (fun (p : T.process) ->
        if p.T.exit_code <> None && p.T.reaped then None
        else
          Some
            { sp_pid = p.T.pid;
              sp_parent = p.T.parent;
              sp_space =
                (if p.T.exit_code = None then
                   A.fork p.T.space ~id:p.T.space.A.id
                 else A.create ~id:p.T.space.A.id);
              sp_threads = p.T.threads;
              sp_exit = p.T.exit_code;
              sp_reaped = p.T.reaped;
              sp_cwd = p.T.cwd;
              sp_cmd = p.T.cmd;
              sp_children = p.T.children;
              sp_owner = Hashtbl.find_opt r.locals_owner p.T.space.A.id;
              sp_shared_pending = p.T.shared_pending;
              sp_sighand = Array.copy p.T.sighand })
      (K.all_procs r.k)
  in
  let tasks =
    List.filter_map
      (fun (t : T.t) ->
        let st = get_rt r t.T.tid in
        Some
          { sn_tid = t.T.tid;
            sn_pid = t.T.proc.T.pid;
            sn_regs = Array.copy t.T.cpu.Cpu.regs;
            sn_pc = t.T.cpu.Cpu.pc;
            sn_rcb = t.T.cpu.Cpu.pmu.Pmu.rcb;
            sn_insns = t.T.cpu.Cpu.pmu.Pmu.insns;
            sn_branches = t.T.cpu.Cpu.pmu.Pmu.branches;
            sn_sigmask = t.T.sigmask;
            sn_frames = t.T.sig_frames;
            sn_dead = not (T.is_alive t);
            sn_status = t.T.exit_status;
            sn_seccomp = t.T.seccomp;
            sn_tsc = t.T.cpu.Cpu.tsc_trap;
            sn_batches = List.of_seq (Queue.to_seq st.batches);
            sn_locals = st.saved_locals;
            sn_next_resume = st.next_resume;
            sn_in_blocked = st.in_blocked_syscall;
            sn_tick_born = t.T.tick_born;
            sn_last_wake = t.T.last_wake;
            sn_pending = t.T.pending })
      (K.all_tasks r.k)
  in
  { snap_idx = (cursor_index r);
    snap_events_applied = r.events_applied;
    snap_root = r.root_tid;
    snap_procs = procs;
    snap_tasks = tasks;
    snap_installed = r.installed;
    snap_clock = K.now r.k;
    snap_entropy = Entropy.state r.k.K.entropy;
    snap_ktsc = r.k.K.tsc;
    snap_trace_events = Trace.n_events r.trace;
    snap_trace_chunks = Array.length (Trace.chunk_index r.trace);
    snap_trace_exe = Trace.initial_exe r.trace }

type restore_error = {
  re_field : string;
  re_snapshot : string;
  re_trace : string;
}

exception Restore_error of restore_error

let pp_restore_error ppf e =
  Fmt.pf ppf
    "snapshot does not match trace: %s is %s in the snapshot, %s in the \
     trace"
    e.re_field e.re_snapshot e.re_trace

let restore_error_to_string e = Fmt.str "%a" pp_restore_error e

(* The snapshot must have been taken against this very trace: a
   different recording, or a salvaged prefix shorter than the
   checkpoint, is detected before any state is rebuilt. *)
let check_restore trace snap =
  let mismatch field snapshot trace =
    Some { re_field = field; re_snapshot = snapshot; re_trace = trace }
  in
  if snap.snap_trace_exe <> Trace.initial_exe trace then
    mismatch "initial exe" snap.snap_trace_exe (Trace.initial_exe trace)
  else if snap.snap_trace_chunks <> Array.length (Trace.chunk_index trace)
  then
    mismatch "chunk count"
      (string_of_int snap.snap_trace_chunks)
      (string_of_int (Array.length (Trace.chunk_index trace)))
  else if snap.snap_trace_events <> Trace.n_events trace then
    mismatch "event count"
      (string_of_int snap.snap_trace_events)
      (string_of_int (Trace.n_events trace))
  else None

(* Rebuild a live replayer from a snapshot. *)
let restore_unchecked ?(opts = default_opts) trace snap =
  Telemetry.incr tm_ckpt_restore;
  Timeline.instant ~frame:snap.snap_idx "replay.checkpoint_restore";
  Timeline.scope "replay.ckpt_restore" @@ fun () ->
  let k = K.create ~seed:opts.seed () in
  (* Reposition by stored frame index: a fresh cursor seeks through the
     chunk index, no frames re-applied. *)
  let cursor = Trace.Reader.open_ trace in
  Trace.Reader.seek cursor snap.snap_idx;
  let r =
    { k;
      trace;
      cursor;
      opts;
      rts = Hashtbl.create 16;
      locals_owner = Hashtbl.create 8;
      events_applied = snap.snap_events_applied;
      root_tid = snap.snap_root;
      installed = snap.snap_installed;
      tm_base = Telemetry.snapshot () }
  in
  Timeline.set_virtual_clock (fun () -> K.now r.k);
  install_hook r k;
  install_rdrand_hooks k;
  List.iter
    (fun (path, img) ->
      Vfs.mkdir_p (K.vfs k) (Filename.dirname path);
      K.install_image k ~path img)
    snap.snap_installed;
  k.K.clock <- snap.snap_clock;
  Entropy.set_state k.K.entropy snap.snap_entropy;
  k.K.tsc <- snap.snap_ktsc;
  (* Processes first (spaces COW-forked again so the snapshot stays
     immutable and reusable). *)
  List.iter
    (fun sp ->
      K.reserve_id k sp.sp_pid;
      let space = A.fork sp.sp_space ~id:sp.sp_space.A.id in
      let p = T.make_process ~pid:sp.sp_pid ~parent:sp.sp_parent ~space in
      p.T.threads <- sp.sp_threads;
      p.T.exit_code <- sp.sp_exit;
      p.T.reaped <- sp.sp_reaped;
      p.T.cwd <- sp.sp_cwd;
      p.T.cmd <- sp.sp_cmd;
      p.T.children <- sp.sp_children;
      p.T.shared_pending <- sp.sp_shared_pending;
      Array.blit sp.sp_sighand 0 p.T.sighand 0
        (min (Array.length sp.sp_sighand) (Array.length p.T.sighand));
      Hashtbl.replace k.K.procs sp.sp_pid p;
      (match sp.sp_owner with
      | Some tid -> Hashtbl.replace r.locals_owner space.A.id tid
      | None -> ()))
    snap.snap_procs;
  List.iter
    (fun sn ->
      match Hashtbl.find_opt k.K.procs sn.sn_pid with
      | None -> () (* reaped process: its tasks are gone *)
      | Some proc ->
        K.reserve_id k sn.sn_tid;
        let cpu = Cpu.create ~space:proc.T.space in
        Array.blit sn.sn_regs 0 cpu.Cpu.regs 0 Insn.num_regs;
        cpu.Cpu.pc <- sn.sn_pc;
        cpu.Cpu.pmu.Pmu.rcb <- sn.sn_rcb;
        cpu.Cpu.pmu.Pmu.insns <- sn.sn_insns;
        cpu.Cpu.pmu.Pmu.branches <- sn.sn_branches;
        cpu.Cpu.tsc_trap <- sn.sn_tsc;
        let t = T.make_task ~tid:sn.sn_tid ~proc ~cpu in
        t.T.sigmask <- sn.sn_sigmask;
        t.T.sig_frames <- sn.sn_frames;
        t.T.seccomp <- sn.sn_seccomp;
        t.T.traced <- true;
        t.T.vdso_enabled <- false;
        t.T.affinity <- 0;
        if sn.sn_dead then begin
          t.T.state <- T.Dead;
          t.T.exit_status <- sn.sn_status
        end
        else t.T.state <- T.Stopped;
        Hashtbl.replace k.K.tasks sn.sn_tid t;
        let st = get_rt r sn.sn_tid in
        List.iter (fun b -> Queue.push b st.batches) sn.sn_batches;
        st.saved_locals <- sn.sn_locals;
        st.next_resume <- sn.sn_next_resume;
        st.in_blocked_syscall <- sn.sn_in_blocked;
        t.T.tick_born <- sn.sn_tick_born;
        t.T.last_wake <- sn.sn_last_wake;
        t.T.pending <- sn.sn_pending)
    snap.snap_tasks;
  r

let restore ?opts trace snap =
  match check_restore trace snap with
  | Some e -> Error e
  | None -> Ok (restore_unchecked ?opts trace snap)

let restore_exn ?opts trace snap =
  match restore ?opts trace snap with
  | Ok r -> r
  | Error e -> raise (Restore_error e)

(* ---- snapshot serialization ------------------------------------------

   Durable checkpoints: a snapshot flattened to bytes so the trace can
   carry it ('K' records) and a *future process* can restore without
   replaying from frame 0.  COW page sharing is preserved through an
   identity table — each distinct page frame is emitted once and spaces
   reference it by id, so decoding re-creates the same sharing (and the
   same PSS) the live snapshot had. *)

let snapshot_codec_version = 1

let put_bpf_insn b (i : Bpf.insn) =
  let open Bpf in
  match i with
  | Ld_abs n -> Codec.put_uvarint b 0; Codec.put_int b n
  | Ld_imm n -> Codec.put_uvarint b 1; Codec.put_int b n
  | Ldx_imm n -> Codec.put_uvarint b 2; Codec.put_int b n
  | Tax -> Codec.put_uvarint b 3
  | Txa -> Codec.put_uvarint b 4
  | St n -> Codec.put_uvarint b 5; Codec.put_int b n
  | Ldm n -> Codec.put_uvarint b 6; Codec.put_int b n
  | Alu_and n -> Codec.put_uvarint b 7; Codec.put_int b n
  | Alu_or n -> Codec.put_uvarint b 8; Codec.put_int b n
  | Alu_add n -> Codec.put_uvarint b 9; Codec.put_int b n
  | Jmp n -> Codec.put_uvarint b 10; Codec.put_int b n
  | Jeq (k, t, f) ->
    Codec.put_uvarint b 11; Codec.put_int b k; Codec.put_int b t;
    Codec.put_int b f
  | Jgt (k, t, f) ->
    Codec.put_uvarint b 12; Codec.put_int b k; Codec.put_int b t;
    Codec.put_int b f
  | Jge (k, t, f) ->
    Codec.put_uvarint b 13; Codec.put_int b k; Codec.put_int b t;
    Codec.put_int b f
  | Jset (k, t, f) ->
    Codec.put_uvarint b 14; Codec.put_int b k; Codec.put_int b t;
    Codec.put_int b f
  | Ret n -> Codec.put_uvarint b 15; Codec.put_int b n
  | Ret_a -> Codec.put_uvarint b 16

let get_bpf_insn s : Bpf.insn =
  let open Bpf in
  match Codec.get_uvarint s with
  | 0 -> Ld_abs (Codec.get_int s)
  | 1 -> Ld_imm (Codec.get_int s)
  | 2 -> Ldx_imm (Codec.get_int s)
  | 3 -> Tax
  | 4 -> Txa
  | 5 -> St (Codec.get_int s)
  | 6 -> Ldm (Codec.get_int s)
  | 7 -> Alu_and (Codec.get_int s)
  | 8 -> Alu_or (Codec.get_int s)
  | 9 -> Alu_add (Codec.get_int s)
  | 10 -> Jmp (Codec.get_int s)
  | 11 ->
    let k = Codec.get_int s in
    let t = Codec.get_int s in
    let f = Codec.get_int s in
    Jeq (k, t, f)
  | 12 ->
    let k = Codec.get_int s in
    let t = Codec.get_int s in
    let f = Codec.get_int s in
    Jgt (k, t, f)
  | 13 ->
    let k = Codec.get_int s in
    let t = Codec.get_int s in
    let f = Codec.get_int s in
    Jge (k, t, f)
  | 14 ->
    let k = Codec.get_int s in
    let t = Codec.get_int s in
    let f = Codec.get_int s in
    Jset (k, t, f)
  | 15 -> Ret (Codec.get_int s)
  | 16 -> Ret_a
  | n -> raise (Codec.Corrupt (Printf.sprintf "bpf insn tag %d" n))

let put_resume b (r : T.resume_how) =
  Codec.put_uvarint b
    (match r with
    | T.R_cont -> 0
    | T.R_syscall -> 1
    | T.R_singlestep -> 2
    | T.R_sysemu -> 3
    | T.R_sysemu_single -> 4)

let get_resume s : T.resume_how =
  match Codec.get_uvarint s with
  | 0 -> T.R_cont
  | 1 -> T.R_syscall
  | 2 -> T.R_singlestep
  | 3 -> T.R_sysemu
  | 4 -> T.R_sysemu_single
  | n -> raise (Codec.Corrupt (Printf.sprintf "resume tag %d" n))

let put_region b (r : A.region) =
  Codec.put_int b r.A.start;
  Codec.put_int b r.A.len;
  Codec.put_int b r.A.prot;
  (match r.A.kind with
  | A.Anon -> Codec.put_uvarint b 0
  | A.Stack -> Codec.put_uvarint b 1
  | A.File_backed { path; file_off } ->
    Codec.put_uvarint b 2;
    Codec.put_string b path;
    Codec.put_int b file_off
  | A.Scratch -> Codec.put_uvarint b 3
  | A.Rr_page -> Codec.put_uvarint b 4
  | A.Thread_locals -> Codec.put_uvarint b 5);
  Codec.put_bool b r.A.shared

let get_region s : A.region =
  let start = Codec.get_int s in
  let len = Codec.get_int s in
  let prot = Codec.get_int s in
  let kind =
    match Codec.get_uvarint s with
    | 0 -> A.Anon
    | 1 -> A.Stack
    | 2 ->
      let path = Codec.get_string s in
      let file_off = Codec.get_int s in
      A.File_backed { path; file_off }
    | 3 -> A.Scratch
    | 4 -> A.Rr_page
    | 5 -> A.Thread_locals
    | n -> raise (Codec.Corrupt (Printf.sprintf "region kind tag %d" n))
  in
  let shared = Codec.get_bool s in
  { A.start; len; prot; kind; shared }

(* Distinct page frames by physical identity: content-hash buckets
   disambiguated with [==].  COW sharing across spaces becomes shared
   ids in the encoding. *)
module Page_ids = struct
  type t = {
    buckets : (int, (Mem.page * int) list ref) Hashtbl.t;
    mutable rev_pages : Mem.page list;
    mutable next : int;
  }

  let create () =
    { buckets = Hashtbl.create 256; rev_pages = []; next = 0 }

  let id_of t p =
    let h = Hashtbl.hash p in
    let bucket =
      match Hashtbl.find_opt t.buckets h with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.replace t.buckets h b;
        b
    in
    match List.find_opt (fun (q, _) -> q == p) !bucket with
    | Some (_, id) -> id
    | None ->
      let id = t.next in
      t.next <- id + 1;
      bucket := (p, id) :: !bucket;
      t.rev_pages <- p :: t.rev_pages;
      id

  let pages t = Array.of_list (List.rev t.rev_pages)
end

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let put_space ids b (a : A.t) =
  Codec.put_int b a.A.id;
  Codec.put_int b a.A.mmap_cursor;
  Codec.put_list b put_region a.A.regions;
  let page_idxs = sorted_keys a.A.pages in
  Codec.put_uvarint b (List.length page_idxs);
  List.iter
    (fun idx ->
      Codec.put_int b idx;
      Codec.put_uvarint b (Page_ids.id_of ids (Hashtbl.find a.A.pages idx)))
    page_idxs;
  let text =
    A.text_fold (fun addr insn acc -> (addr, insn) :: acc) a []
    |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
  in
  Codec.put_uvarint b (List.length text);
  List.iter
    (fun (addr, insn) ->
      Codec.put_int b addr;
      Image_codec.put_insn b insn)
    text;
  Codec.put_list b Codec.put_int (sorted_keys a.A.written_text);
  Codec.put_list b Codec.put_int (sorted_keys a.A.breakpoints)

let get_space pages s : A.t =
  let id = Codec.get_int s in
  let a = A.create ~id in
  a.A.mmap_cursor <- Codec.get_int s;
  a.A.regions <- Codec.get_list s get_region;
  let n_pages = Codec.get_uvarint s in
  for _ = 1 to n_pages do
    let idx = Codec.get_int s in
    let pid = Codec.get_uvarint s in
    if pid < 0 || pid >= Array.length pages then
      raise (Codec.Corrupt "snapshot: page id out of range");
    A.install_page a ~index:idx pages.(pid)
  done;
  let n_text = Codec.get_uvarint s in
  for _ = 1 to n_text do
    let addr = Codec.get_int s in
    A.text_set a addr (Image_codec.get_insn s)
  done;
  List.iter
    (fun addr -> Hashtbl.replace a.A.written_text addr ())
    (Codec.get_list s Codec.get_int);
  List.iter
    (fun addr -> Hashtbl.replace a.A.breakpoints addr ())
    (Codec.get_list s Codec.get_int);
  a

let put_sig_info b (i : Signals.info) =
  Codec.put_int b i.Signals.signo;
  (match i.Signals.origin with
  | Signals.User tid -> Codec.put_uvarint b 0; Codec.put_int b tid
  | Signals.Fault -> Codec.put_uvarint b 1
  | Signals.Tsc_trap r -> Codec.put_uvarint b 2; Codec.put_int b r
  | Signals.Desched -> Codec.put_uvarint b 3
  | Signals.Preempt -> Codec.put_uvarint b 4
  | Signals.Bkpt -> Codec.put_uvarint b 5
  | Signals.Step -> Codec.put_uvarint b 6);
  Codec.put_int b i.Signals.fault_addr

let get_sig_info s =
  let signo = Codec.get_int s in
  let origin =
    match Codec.get_uvarint s with
    | 0 -> Signals.User (Codec.get_int s)
    | 1 -> Signals.Fault
    | 2 -> Signals.Tsc_trap (Codec.get_int s)
    | 3 -> Signals.Desched
    | 4 -> Signals.Preempt
    | 5 -> Signals.Bkpt
    | 6 -> Signals.Step
    | n -> raise (Codec.Corrupt (Printf.sprintf "signal origin tag %d" n))
  in
  let fault_addr = Codec.get_int s in
  Signals.make_info ~fault_addr signo origin

let put_sig_action b (a : Signals.action) =
  (match a.Signals.disposition with
  | Signals.Default -> Codec.put_uvarint b 0
  | Signals.Ignore -> Codec.put_uvarint b 1
  | Signals.Handler addr -> Codec.put_uvarint b 2; Codec.put_int b addr);
  Codec.put_int b a.Signals.mask;
  Codec.put_int b a.Signals.flags

let get_sig_action s =
  let disposition =
    match Codec.get_uvarint s with
    | 0 -> Signals.Default
    | 1 -> Signals.Ignore
    | 2 -> Signals.Handler (Codec.get_int s)
    | n -> raise (Codec.Corrupt (Printf.sprintf "disposition tag %d" n))
  in
  let mask = Codec.get_int s in
  let flags = Codec.get_int s in
  { Signals.disposition; mask; flags }

let put_snap_proc ids b sp =
  Codec.put_int b sp.sp_pid;
  Codec.put_int b sp.sp_parent;
  put_space ids b sp.sp_space;
  Codec.put_list b Codec.put_int sp.sp_threads;
  (match sp.sp_exit with
  | None -> Codec.put_uvarint b 0
  | Some st ->
    Codec.put_uvarint b 1;
    Codec.put_int b st);
  Codec.put_bool b sp.sp_reaped;
  Codec.put_string b sp.sp_cwd;
  Codec.put_string b sp.sp_cmd;
  Codec.put_list b Codec.put_int sp.sp_children;
  (match sp.sp_owner with
  | None -> Codec.put_uvarint b 0
  | Some tid ->
    Codec.put_uvarint b 1;
    Codec.put_int b tid);
  Codec.put_list b put_sig_info sp.sp_shared_pending;
  Codec.put_array b put_sig_action sp.sp_sighand

let get_snap_proc pages s =
  let sp_pid = Codec.get_int s in
  let sp_parent = Codec.get_int s in
  let sp_space = get_space pages s in
  let sp_threads = Codec.get_list s Codec.get_int in
  let sp_exit =
    match Codec.get_uvarint s with
    | 0 -> None
    | 1 -> Some (Codec.get_int s)
    | n -> raise (Codec.Corrupt (Printf.sprintf "exit tag %d" n))
  in
  let sp_reaped = Codec.get_bool s in
  let sp_cwd = Codec.get_string s in
  let sp_cmd = Codec.get_string s in
  let sp_children = Codec.get_list s Codec.get_int in
  let sp_owner =
    match Codec.get_uvarint s with
    | 0 -> None
    | 1 -> Some (Codec.get_int s)
    | n -> raise (Codec.Corrupt (Printf.sprintf "owner tag %d" n))
  in
  let sp_shared_pending = Codec.get_list s get_sig_info in
  let sp_sighand = Codec.get_array s get_sig_action in
  { sp_pid; sp_parent; sp_space; sp_threads; sp_exit; sp_reaped; sp_cwd;
    sp_cmd; sp_children; sp_owner; sp_shared_pending; sp_sighand }

let put_snap_task b sn =
  Codec.put_int b sn.sn_tid;
  Codec.put_int b sn.sn_pid;
  Codec.put_array b Codec.put_int sn.sn_regs;
  Codec.put_int b sn.sn_pc;
  Codec.put_int b sn.sn_rcb;
  Codec.put_int b sn.sn_insns;
  Codec.put_int b sn.sn_branches;
  Codec.put_int b sn.sn_sigmask;
  Codec.put_list b Codec.put_int sn.sn_frames;
  Codec.put_bool b sn.sn_dead;
  Codec.put_int b sn.sn_status;
  Codec.put_list b
    (fun b prog -> Codec.put_array b put_bpf_insn prog)
    sn.sn_seccomp;
  Codec.put_bool b sn.sn_tsc;
  Codec.put_list b
    (fun b batch -> Codec.put_list b E.put_buf_record batch)
    sn.sn_batches;
  Codec.put_bytes b sn.sn_locals;
  put_resume b sn.sn_next_resume;
  Codec.put_bool b sn.sn_in_blocked;
  Codec.put_int b sn.sn_tick_born;
  Codec.put_int b sn.sn_last_wake;
  Codec.put_list b put_sig_info sn.sn_pending

let get_snap_task s =
  let sn_tid = Codec.get_int s in
  let sn_pid = Codec.get_int s in
  let sn_regs = Codec.get_array s Codec.get_int in
  let sn_pc = Codec.get_int s in
  let sn_rcb = Codec.get_int s in
  let sn_insns = Codec.get_int s in
  let sn_branches = Codec.get_int s in
  let sn_sigmask = Codec.get_int s in
  let sn_frames = Codec.get_list s Codec.get_int in
  let sn_dead = Codec.get_bool s in
  let sn_status = Codec.get_int s in
  let sn_seccomp =
    Codec.get_list s (fun s -> Codec.get_array s get_bpf_insn)
  in
  let sn_tsc = Codec.get_bool s in
  let sn_batches =
    Codec.get_list s (fun s -> Codec.get_list s E.get_buf_record)
  in
  let sn_locals = Codec.get_bytes s in
  let sn_next_resume = get_resume s in
  let sn_in_blocked = Codec.get_bool s in
  let sn_tick_born = Codec.get_int s in
  let sn_last_wake = Codec.get_int s in
  let sn_pending = Codec.get_list s get_sig_info in
  { sn_tid; sn_pid; sn_regs; sn_pc; sn_rcb; sn_insns; sn_branches;
    sn_sigmask; sn_frames; sn_dead; sn_status; sn_seccomp; sn_tsc;
    sn_batches; sn_locals; sn_next_resume; sn_in_blocked; sn_tick_born;
    sn_last_wake; sn_pending }

let encode_snapshot snap =
  let b = Codec.sink () in
  Codec.put_uvarint b snapshot_codec_version;
  Codec.put_uvarint b snap.snap_idx;
  Codec.put_uvarint b snap.snap_events_applied;
  Codec.put_int b snap.snap_root;
  Codec.put_int b snap.snap_clock;
  let eb = Bytes.create 8 in
  Bytes.set_int64_le eb 0 snap.snap_entropy;
  Codec.put_bytes b eb;
  Codec.put_int b snap.snap_ktsc;
  Codec.put_uvarint b snap.snap_trace_events;
  Codec.put_uvarint b snap.snap_trace_chunks;
  Codec.put_string b snap.snap_trace_exe;
  Codec.put_list b
    (fun b (path, img) ->
      Codec.put_string b path;
      Image_codec.put_image b img)
    snap.snap_installed;
  (* Two phases: assign page ids while encoding the procs into a side
     buffer, then emit the page table first so decoding is one pass. *)
  let ids = Page_ids.create () in
  let procs_b = Codec.sink () in
  Codec.put_list procs_b (put_snap_proc ids) snap.snap_procs;
  let pages = Page_ids.pages ids in
  Codec.put_uvarint b (Array.length pages);
  Array.iter
    (fun (p : Mem.page) ->
      Codec.put_string b (Bytes.to_string p.Mem.bytes);
      Codec.put_int b p.Mem.prot;
      Codec.put_bool b p.Mem.shared)
    pages;
  Buffer.add_buffer b procs_b;
  Codec.put_list b put_snap_task snap.snap_tasks;
  Buffer.contents b

let decode_snapshot blob =
  let s = Codec.source blob in
  let v = Codec.get_uvarint s in
  if v <> snapshot_codec_version then
    raise (Codec.Corrupt (Printf.sprintf "snapshot codec version %d" v));
  let snap_idx = Codec.get_uvarint s in
  let snap_events_applied = Codec.get_uvarint s in
  let snap_root = Codec.get_int s in
  let snap_clock = Codec.get_int s in
  let eb = Codec.get_bytes s in
  if Bytes.length eb <> 8 then
    raise (Codec.Corrupt "snapshot: bad entropy state");
  let snap_entropy = Bytes.get_int64_le eb 0 in
  let snap_ktsc = Codec.get_int s in
  let snap_trace_events = Codec.get_uvarint s in
  let snap_trace_chunks = Codec.get_uvarint s in
  let snap_trace_exe = Codec.get_string s in
  let snap_installed =
    Codec.get_list s (fun s ->
        let path = Codec.get_string s in
        let img = Image_codec.get_image s in
        (path, img))
  in
  let n_pages = Codec.get_uvarint s in
  if n_pages < 0 || n_pages > Sys.max_array_length then
    raise (Codec.Corrupt "snapshot: bad page count");
  let pages =
    Array.init n_pages (fun _ ->
        let bytes = Bytes.of_string (Codec.get_string s) in
        let prot = Codec.get_int s in
        let shared = Codec.get_bool s in
        if Bytes.length bytes <> Mem.page_size then
          raise (Codec.Corrupt "snapshot: page frame of the wrong size");
        (* refs starts at 0: every space attachment increfs, so the
           decoded sharing graph carries the same counts a live fork
           chain would. *)
        { Mem.bytes; refs = 0; prot; shared })
  in
  let snap_procs = Codec.get_list s (get_snap_proc pages) in
  let snap_tasks = Codec.get_list s get_snap_task in
  if not (Codec.eof s) then
    raise (Codec.Corrupt "snapshot: trailing bytes");
  { snap_idx; snap_events_applied; snap_root; snap_procs; snap_tasks;
    snap_installed; snap_clock; snap_entropy; snap_ktsc;
    snap_trace_events; snap_trace_chunks;
    snap_trace_exe }

let snapshot_index snap = snap.snap_idx
