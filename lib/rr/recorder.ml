(* The rr recorder (paper §2, §3).

   Supervises a group of traced tasks through the simulated kernel's
   ptrace interface, runs exactly one task's user code at a time, records
   every input that crosses the user/kernel boundary into a {!Trace},
   and drives the in-process interception machinery of {!Syscallbuf}.

   One-thread-at-a-time discipline: the recorder designates a single
   "current" task whose user code may run.  Tasks whose kernel-side work
   completes while another task is current are parked in a ptrace-stop
   until the scheduler picks them (paper §2.2). *)

module A = Addr_space
module T = Task
module K = Kernel
module E = Event

let src = Logs.Src.create "rr.record"

module Log = (val Logs.src_log src : Logs.LOG)

type error =
  | Rec_failure of string
  | Rec_trace of Trace.error

exception Record_error of error

let pp_error ppf = function
  | Rec_failure msg -> Fmt.string ppf msg
  | Rec_trace e -> Trace.pp_error ppf e

let error_to_string e = Fmt.str "%a" pp_error e

let fail fmt = Fmt.kstr (fun s -> raise (Record_error (Rec_failure s))) fmt

(* Trace-store and IO failures surface to callers through the same
   typed channel as recording-model failures. *)
let reraise_typed = function
  | Trace.Format_error e -> Record_error (Rec_trace e)
  | Io.Io_error e -> Record_error (Rec_trace (Trace.Io e))
  | e -> e

type sink_spec =
  | Sink_memory
  | Sink_file of string
  | Sink_ring of Trace.ring
  | Sink_repo of Repo.t * string
  | Sink_io of Io.writer

type opts = {
  intercept : bool; (* in-process syscall interception (§3) *)
  wide : bool; (* the widened wrapper set (§3.1); replay must match *)
  scratch : bool; (* detour blocking outputs through scratch (§2.3.1) *)
  clone_blocks : bool; (* block cloning for big reads (§3.9) *)
  compress : bool;
  chaos : bool; (* randomized scheduling (§8) *)
  timeslice_rcbs : int;
  seed : int;
  max_events : int; (* runaway-recording guard *)
  checksum_every : int; (* emit memory checksums every N frames; 0 = off *)
  chunk_limit : int; (* pending bytes that seal a chunk (Trace.Writer) *)
  sink : sink_spec; (* where the trace streams while recording *)
}

let default_opts =
  { intercept = true;
    wide = true;
    scratch = true;
    clone_blocks = true;
    compress = true;
    chaos = false;
    timeslice_rcbs = 50_000;
    seed = 1;
    max_events = 5_000_000;
    checksum_every = 0;
    chunk_limit = 1 lsl 16;
    sink = Sink_memory }

let make_opts ?(intercept = default_opts.intercept) ?(wide = default_opts.wide)
    ?(scratch = default_opts.scratch)
    ?(clone_blocks = default_opts.clone_blocks)
    ?(compress = default_opts.compress) ?(chaos = default_opts.chaos)
    ?(timeslice_rcbs = default_opts.timeslice_rcbs) ?(seed = default_opts.seed)
    ?(max_events = default_opts.max_events)
    ?(checksum_every = default_opts.checksum_every)
    ?(chunk_limit = default_opts.chunk_limit)
    ?(sink = default_opts.sink) () =
  { intercept; wide; scratch; clone_blocks; compress; chaos;
    timeslice_rcbs = max 1 timeslice_rcbs; seed;
    max_events = max 1 max_events; checksum_every = max 0 checksum_every;
    chunk_limit = max 256 chunk_limit; sink }

let with_sink opts sink = { opts with sink }

type per_task = {
  mutable slot : int;
  mutable saved_locals : bytes;
  mutable scratch : int;
  mutable orig_args : int array; (* entry args before scratch rewriting *)
  mutable scratch_redirect : (int * int) option; (* orig addr, arg idx *)
  mutable aborted_buffered : bool; (* §3.3 dance in progress *)
  mutable cloned_off : int; (* cursor in the per-task cloned-data file *)
  mutable pending_exec : string option; (* path passed to execve *)
  mutable interrupted : T.saved_syscall list; (* §2.3.10 heuristic stack *)
  mutable set_up : bool;
  mutable emu_stopped_by : int option; (* tracee-level ptrace (§2.3.2) *)
}

type t = {
  k : K.t;
  w : Trace.Writer.w;
  sched : Rec_sched.t;
  opts : opts;
  rts : (int, per_task) Hashtbl.t;
  on_event : E.t -> unit; (* live frame observer (Conn_track et al.) *)
  locals_owner : (int, int) Hashtbl.t; (* space id -> tid owning the page *)
  known_dead : (int, unit) Hashtbl.t;
  mutable current : int option;
  mutable next_slot : int;
  mutable image_count : int;
  mutable file_count : int;
  mutable events : int;
  mutable sched_events : int;
  mutable patched_sites : int;
  mutable checksum_mark : int; (* last r.events / checksum_every digested *)
}

type stats = {
  wall_time : int;
  trace_stats : Trace.stats;
  n_ptrace_stops : int;
  n_syscalls : int;
  n_sched_events : int;
  n_patched_sites : int;
  exit_status : int option; (* of the root process *)
  telemetry : Telemetry.snapshot;
}

let tm_frames = Telemetry.counter "record.frames"
let tm_scratch_bytes = Telemetry.counter "record.scratch_bytes"
let tm_clone_blocks = Telemetry.counter "record.clone_blocks"
let tm_clone_bytes = Telemetry.counter "record.clone_bytes"
let tm_sb_flush = Telemetry.counter "syscallbuf.flush"
let tm_sb_miss = Telemetry.counter "syscallbuf.miss"
let tm_sb_desched = Telemetry.counter "syscallbuf.desched"
let tm_preempt = Telemetry.counter "sched.preempt"
let tm_stop_elided = Telemetry.counter "record.stop_elided"

(* ---- small helpers -------------------------------------------------- *)

let task_exn r tid = K.task_exn r.k tid

let get_rt r task =
  match Hashtbl.find_opt r.rts task.T.tid with
  | Some st -> st
  | None ->
    let st =
      { slot = r.next_slot;
        saved_locals = Bytes.create 0;
        scratch = 0;
        orig_args = [||];
        scratch_redirect = None;
        aborted_buffered = false;
        cloned_off = 0;
        pending_exec = None;
        interrupted = [];
        set_up = false;
        emu_stopped_by = None }
    in
    r.next_slot <- r.next_slot + 1;
    Hashtbl.replace r.rts task.T.tid st;
    st

let capture_regs task : E.regs =
  let a = Array.make 17 0 in
  Array.blit task.T.cpu.Cpu.regs 0 a 0 16;
  a.(E.pc_slot) <- task.T.cpu.Cpu.pc;
  a

let stack_extra task =
  try
    A.read_u64 ~force:true task.T.cpu.Cpu.space
      task.T.cpu.Cpu.regs.(Insn.reg_sp)
  with A.Segv _ -> 0

let capture_point task =
  { E.rcb = task.T.cpu.Cpu.pmu.Pmu.rcb;
    point_regs = capture_regs task;
    stack_extra = stack_extra task }

let emit r e =
  Telemetry.incr tm_frames;
  r.events <- r.events + 1;
  if r.events > r.opts.max_events then fail "event limit exceeded";
  r.on_event e;
  let sz = Trace.Writer.event r.w e in
  K.charge r.k (r.k.K.cost.Cost.record_event + Cost.record_bytes r.k.K.cost sz)

(* [A.read_bytes] returns a fresh buffer, so claiming it as an immutable
   string is sound and skips a copy on the per-event encode path. *)
let read_guest task addr len =
  Bytes.unsafe_to_string (A.read_bytes ~force:true task.T.cpu.Cpu.space addr len)

let read_guest_string task addr =
  let rec go a acc =
    let c = A.read_u8 ~force:true task.T.cpu.Cpu.space a in
    if c = 0 || List.length acc > 4096 then
      String.init (List.length acc) (List.nth (List.rev acc))
    else go (a + 1) (Char.chr c :: acc)
  in
  go addr []

(* Run this task's user code now, or park it for the scheduler?  Any
   resume that leads back to user code must first install the task's
   thread-locals (§3.6) — see [switch_locals] below. *)
let continue_or_park_with ~switch r task =
  if r.current = Some task.T.tid then begin
    if task.T.state = T.Stopped then begin
      switch r task;
      K.resume r.k task T.R_cont ()
    end
  end
  else if task.T.state = T.Runnable then K.park r.k task

(* ---- syscallbuf integration ---------------------------------------- *)

let cloned_path_of task = Printf.sprintf "cloned/%d" task.T.tid

let has_locals task =
  A.find_region task.T.cpu.Cpu.space Layout.thread_locals_page <> None

(* Flush the task's trace buffer into the trace (at every stop, §3). *)
let flush_buf r task =
  if has_locals task && Syscallbuf.buffer_fill task > 0 then
    Timeline.scope "record.flush" (fun () ->
        Telemetry.incr tm_sb_flush;
        let records =
          Syscallbuf.parse_all task ~cloned_path:(cloned_path_of task)
        in
        Syscallbuf.reset task;
        emit r (E.E_buf_flush { tid = task.T.tid; records });
        let bytes =
          List.fold_left
            (fun acc br ->
              List.fold_left
                (fun a w -> a + String.length w.E.data)
                acc br.E.br_writes)
            0 records
        in
        K.charge r.k (Cost.compress_bytes r.k.K.cost bytes))

(* §3.9: snapshot a large aligned file read by cloning blocks into the
   per-task cloned-data trace file. *)
let clone_read r k task ~fd ~len =
  if not r.opts.clone_blocks then None
  else
    match T.find_fd task fd with
    | Some ({ T.obj = T.F_reg { reg; _ }; _ } as entry)
      when entry.T.pos mod Vfs.block_size = 0 ->
      let st = get_rt r task in
      let path = cloned_path_of task in
      let vfs = K.vfs k in
      let dst =
        match Vfs.resolve_opt vfs ("/trace/" ^ path) with
        | Some { Vfs.kind = Vfs.Reg d; _ } -> d
        | Some _ | None -> Vfs.create_file vfs ("/trace/" ^ path)
      in
      let len = min len (Vfs.file_size reg - entry.T.pos) in
      if len < Vfs.block_size then None
      else begin
        let shared =
          Vfs.clone_range vfs ~src:reg ~src_off:entry.T.pos ~dst
            ~dst_off:st.cloned_off ~len
        in
        K.charge k (k.K.cost.Cost.clone_block * max shared 1);
        Telemetry.add tm_clone_blocks ((len + Vfs.block_size - 1) / Vfs.block_size);
        Telemetry.add tm_clone_bytes len;
        let cref =
          { E.cr_path = path;
            cr_off = st.cloned_off;
            cr_addr = 0;
            cr_len = len }
        in
        st.cloned_off <- st.cloned_off + ((len + 4095) land lnot 4095);
        let data = Bytes.to_string (Vfs.read vfs reg ~off:entry.T.pos ~len) in
        let contents =
          match Trace.Writer.find_file r.w path with
          | Some existing ->
            let need = cref.E.cr_off + len in
            let b = Bytes.make (max need (String.length existing)) '\000' in
            Bytes.blit_string existing 0 b 0 (String.length existing);
            Bytes.blit_string data 0 b cref.E.cr_off len;
            Bytes.to_string b
          | None ->
            let b = Bytes.make (cref.E.cr_off + len) '\000' in
            Bytes.blit_string data 0 b cref.E.cr_off len;
            Bytes.to_string b
        in
        Trace.Writer.add_file r.w ~path ~cloned:(shared > 0) contents;
        Some cref
      end
    | Some _ | None -> None

(* ---- task setup ----------------------------------------------------- *)

(* Set up a task for recording: RR page, seccomp filter, scratch and
   trace-buffer mappings, desched event, TSC trapping, vdso disabling,
   single-core affinity (§2.6).  Safe to call again after execve. *)
let setup_task r task =
  let st = get_rt r task in
  (* A forked/cloned task inherits the parent's RR page, seccomp filter
     and patched text; only per-task state (scratch, buffer, desched
     event) needs fresh syscalls.  Detect inheritance before injection
     possibly creates the page. *)
  let inherited =
    A.find_region task.T.cpu.Cpu.space Layout.globals_page <> None
  in
  Syscallbuf.inject_rr_page r.k task;
  if task.T.seccomp = [] then begin
    task.T.seccomp <-
      [ Bpf.rr_filter ~untraced_ip:Layout.untraced_syscall_insn ];
    K.charge r.k r.k.K.cost.Cost.syscall_base
  end;
  (* Preserve a sibling's thread-locals before initializing ours in a
     shared address space (§3.6). *)
  let sid = task.T.cpu.Cpu.space.A.id in
  (match Hashtbl.find_opt r.locals_owner sid with
  | Some owner when owner <> task.T.tid -> (
    match (Hashtbl.find_opt r.rts owner, K.find_task r.k owner) with
    | Some ost, Some otask when T.is_alive otask ->
      ost.saved_locals <- Syscallbuf.save_locals otask
    | _, _ -> ())
  | Some _ | None -> ());
  let scratch, buf =
    Syscallbuf.setup_task r.k task ~slot:st.slot ~is_replay:false
  in
  st.scratch <- scratch;
  st.saved_locals <- Syscallbuf.save_locals task;
  Hashtbl.replace r.locals_owner sid task.T.tid;
  if task.T.desched = None then begin
    let ev =
      Perf_event.create ~id:(K.alloc_obj_id r.k) ~target_tid:task.T.tid
        Perf_event.Context_switches
    in
    Perf_event.set_signal ev Signals.sigdesched;
    task.T.desched <- Some ev;
    K.charge r.k r.k.K.cost.Cost.syscall_base
  end;
  task.T.vdso_enabled <- false;
  task.T.cpu.Cpu.tsc_trap <- true;
  task.T.affinity <- 0;
  (* Paper §4.3: "at least 80 system calls are performed before [the
     interception library is loaded]" — young tasks run fully traced
     while rr injects pages, opens fds and configures events.  Only the
     bootstrap (mapping the RR page, installing the seccomp filter)
     needs real ptrace round trips; once the filter's ALLOW rule covers
     the RR page, the remaining setup syscalls are injected through its
     untraced instruction and never stop (§3.4 elision applied to the
     supervisor's own calls).  A task that inherited the parent's pages
     and filter only pays for its own mappings and the desched event. *)
  let round_trips, injected = if inherited then (2, 6) else (8, 72) in
  K.charge r.k
    ((round_trips
     * (r.k.K.cost.Cost.syscall_base + Cost.ptrace_stop r.k.K.cost))
    + (injected * r.k.K.cost.Cost.syscall_base));
  st.set_up <- true;
  (* §2.6: RDRAND is nondeterministic and cannot be trapped; patch every
     site in the image to an emulation hook, recording the patches so
     replay applies them identically. *)
  List.iter
    (fun site ->
      Syscallbuf.patch_site task ~site;
      emit r (E.E_patch { tid = task.T.tid; site }))
    (Syscallbuf.find_rdrand_sites task);
  (* §3.2, eagerly: patch every patchable syscall site up front instead
     of letting its first execution trap into a patch-time entry stop.
     Each site patched here skips that stop, so it counts toward
     [record.stop_elided]. *)
  if r.opts.intercept then
    List.iter
      (fun site ->
        Syscallbuf.patch_site task ~site;
        r.patched_sites <- r.patched_sites + 1;
        Telemetry.incr tm_stop_elided;
        emit r (E.E_patch { tid = task.T.tid; site }))
      (Syscallbuf.find_syscall_sites task);
  emit r
    (E.E_rr_setup
       { tid = task.T.tid;
         rr_page = Layout.untraced_syscall_insn;
         locals = Layout.thread_locals_page;
         scratch;
         buf;
         buf_len = Layout.syscallbuf_size });
  Rec_sched.add_task r.sched task.T.tid

(* Swap thread-locals page contents when scheduling a different thread of
   the same address space (§3.6). *)
let switch_locals r task =
  if has_locals task then begin
    let sid = task.T.cpu.Cpu.space.A.id in
    match Hashtbl.find_opt r.locals_owner sid with
    | Some owner when owner = task.T.tid -> ()
    | Some owner ->
      (match (Hashtbl.find_opt r.rts owner, K.find_task r.k owner) with
      | Some ost, Some otask when T.is_alive otask ->
        ost.saved_locals <- Syscallbuf.save_locals otask
      | _, _ -> ());
      let st = get_rt r task in
      if Bytes.length st.saved_locals > 0 then
        Syscallbuf.restore_locals task st.saved_locals;
      Hashtbl.replace r.locals_owner sid task.T.tid
    | None -> Hashtbl.replace r.locals_owner sid task.T.tid
  end

let continue_or_park r task = continue_or_park_with ~switch:switch_locals r task

(* ---- trace snapshots ------------------------------------------------ *)

let snapshot_image r path =
  let vfs = K.vfs r.k in
  let reg = Vfs.lookup_reg vfs path in
  match Vfs.get_image reg with
  | None -> fail "exec of non-image %s" path
  | Some img ->
    let trace_path = Printf.sprintf "images/%d" r.image_count in
    r.image_count <- r.image_count + 1;
    ignore (Vfs.clone_file vfs ~src:reg ~dst_path:("/trace/" ^ trace_path));
    Trace.Writer.add_image r.w ~path:trace_path img;
    trace_path

let snapshot_file r reg =
  let vfs = K.vfs r.k in
  let trace_path = Printf.sprintf "files/%d" r.file_count in
  r.file_count <- r.file_count + 1;
  let _, shared =
    Vfs.clone_file vfs ~src:reg ~dst_path:("/trace/" ^ trace_path)
  in
  let data = Bytes.to_string (Vfs.read vfs reg ~off:0 ~len:(Vfs.file_size reg)) in
  Trace.Writer.add_file r.w ~path:trace_path ~cloned:(shared > 0) data;
  trace_path

(* ---- stop handlers --------------------------------------------------- *)

let record_exit r task status =
  if not (Hashtbl.mem r.known_dead task.T.tid) then begin
    Hashtbl.replace r.known_dead task.T.tid ();
    (* exit_group bypasses the buffer by definition. *)
    Telemetry.incr tm_sb_miss;
    Timeline.instant ~lane:task.T.tid ~frame:r.events
      ~detail:(string_of_int status) "task.exit";
    emit r (E.E_exit { tid = task.T.tid; status });
    Rec_sched.remove_task r.sched task.T.tid;
    if r.current = Some task.T.tid then r.current <- None
  end

let record_new_deaths r =
  List.iter
    (fun t ->
      if (not (T.is_alive t)) && not (Hashtbl.mem r.known_dead t.T.tid) then
        record_exit r t t.T.exit_status)
    (K.all_tasks r.k)

let on_exec r task =
  let st = get_rt r task in
  let path =
    match st.pending_exec with
    | Some p ->
      st.pending_exec <- None;
      p
    | None -> fail "exec stop without a pending execve path (task %d)" task.T.tid
  in
  (* execve is always a traced (non-buffered) syscall. *)
  Telemetry.incr tm_sb_miss;
  let image_ref = snapshot_image r path in
  emit r
    (E.E_exec { tid = task.T.tid; image_ref; regs_after = capture_regs task });
  setup_task r task
(* parked: the scheduler resumes it *)

let on_clone r child parent_tid =
  let parent = task_exn r parent_tid in
  let thread = child.T.proc == parent.T.proc in
  let flags = if thread then Sysno.clone_vm lor Sysno.clone_thread else 0 in
  emit r
    (E.E_clone
       { parent = parent_tid;
         child = child.T.tid;
         flags;
         child_sp = child.T.cpu.Cpu.regs.(Insn.reg_sp);
         parent_regs_after = capture_regs parent;
         child_regs = capture_regs child });
  setup_task r child;
  (* Run the child first after a fork.  Before clone's exit stop was
     elided this happened by accident — the parent sat unschedulable in
     its still-queued exit stop for one pick — and recorded schedules
     (and tests of the fork-then-inspect pattern) rely on it; make it
     scheduler policy. *)
  Rec_sched.prefer r.sched child.T.tid;
  if r.current = Some parent.T.tid then begin
    if T.is_alive parent && parent.T.state = T.Runnable then
      K.park r.k parent;
    r.current <- None
  end
(* parked: ensure_running picks the child next *)

(* §2.3.10: pop the interrupted-syscall stack when entry registers match. *)
let note_entry_restart st (ss : T.saved_syscall) =
  match st.interrupted with
  | top :: rest when top.T.nr = ss.T.nr && top.T.args = ss.T.args ->
    st.interrupted <- rest;
    true
  | _ -> false

(* §2.3.2: "Linux only allows a thread to have a single ptrace
   supervisor ... Instead RR emulates all tracee ptrace operations."
   The tracee's ptrace request never reaches the kernel: the recorder
   computes the result, suppresses the syscall, and emits an ordinary
   emulated-syscall frame, so replay needs no special handling.  Depth
   is deliberately limited (attach/stop/peek/cont/detach — the
   crash-reporter pattern); rr's full emulation is "necessarily rather
   complicated". *)
let emulate_tracee_ptrace r task (ss : T.saved_syscall) =
  let req = ss.T.args.(0)
  and target_tid = ss.T.args.(1)
  and addr = ss.T.args.(2) in
  let target = K.find_task r.k target_tid in
  let result =
    if req = Sysno.ptrace_attach then begin
      match target with
      | Some target when T.is_alive target ->
        (get_rt r target).emu_stopped_by <- Some task.T.tid;
        if r.current = Some target_tid then r.current <- None;
        0
      | Some _ | None -> -Errno.esrch
    end
    else
      match target with
      | Some target
        when (get_rt r target).emu_stopped_by = Some task.T.tid ->
        if req = Sysno.ptrace_peekdata then (
          try A.read_u64 ~force:true target.T.cpu.Cpu.space addr
          with A.Segv _ -> -Errno.efault)
        else if req = Sysno.ptrace_getreg then
          if addr >= 0 && addr < Insn.num_regs then
            target.T.cpu.Cpu.regs.(addr)
          else -Errno.einval
        else if req = Sysno.ptrace_detach || req = Sysno.ptrace_cont then begin
          (get_rt r target).emu_stopped_by <- None;
          0
        end
        else -Errno.einval
      | Some _ | None -> -Errno.esrch
  in
  task.T.cpu.Cpu.regs.(0) <- result;
  emit r
    (E.E_syscall
       { tid = task.T.tid;
         nr = ss.T.nr;
         site = ss.T.site;
         writable_site = A.text_was_written task.T.cpu.Cpu.space ss.T.site;
         via_abort = false;
         regs_after = capture_regs task;
         writes = [];
         kind = E.K_emulate });
  (* Suppress the real syscall and continue. *)
  if r.current = Some task.T.tid then begin
    switch_locals r task;
    K.resume r.k task T.R_sysemu ()
  end

(* Maintain the interception library's fd-cloneability bitmap (one bit
   per fd < 64; §3.9).  Updates go through the guest and into the frame's
   write list, so replay reproduces the bitmap exactly. *)
let fd_bitmap_writes r task ~nr ~args ~result =
  if
    (not (r.opts.intercept && r.opts.clone_blocks))
    || A.find_region task.T.cpu.Cpu.space Layout.globals_page = None
  then []
  else begin
    let addr = Layout.globals_page + Layout.gl_fd_bitmap in
    let sp = task.T.cpu.Cpu.space in
    let old_map = A.read_u64 ~force:true sp addr in
    let set fd v m =
      if fd >= 0 && fd < 64 then
        if v then m lor (1 lsl fd) else m land lnot (1 lsl fd)
      else m
    in
    let is_reg fd =
      match T.find_fd task fd with
      | Some { T.obj = T.F_reg _; _ } -> true
      | Some _ | None -> false
    in
    let new_map =
      if nr = Sysno.openat && result >= 0 then set result (is_reg result) old_map
      else if nr = Sysno.close && result = 0 then set args.(0) false old_map
      else if nr = Sysno.dup && result >= 0 then
        set result (is_reg result) old_map
      else if nr = Sysno.pipe && result = 0 then begin
        let rfd = try A.read_u64 ~force:true sp args.(0) with A.Segv _ -> -1 in
        let wfd =
          try A.read_u64 ~force:true sp (args.(0) + 8) with A.Segv _ -> -1
        in
        set rfd false (set wfd false old_map)
      end
      else if (nr = Sysno.socket || nr = Sysno.perf_event_open) && result >= 0
      then set result false old_map
      else old_map
    in
    if new_map = old_map then []
    else begin
      A.write_u64 ~force:true sp addr new_map;
      let data = Bytes.create 8 in
      Bytes.set_int64_le data 0 (Int64.of_int new_map);
      [ { E.addr; data = Bytes.to_string data } ]
    end
  end

(* §3.4: the syscall completed at the entry stop without blocking and
   provably wrote no user memory, so the frame the exit stop would have
   produced is emitted right here and the exit stop never happens. *)
let record_elided r task (ss : T.saved_syscall) =
  let st = get_rt r task in
  K.charge r.k r.k.K.cost.Cost.record_elided_work;
  Telemetry.incr tm_stop_elided;
  (* The fast path was still bypassed — a miss, same as the exit-stop
     path would have counted. *)
  Telemetry.incr tm_sb_miss;
  let args =
    if Array.length st.orig_args = 6 then st.orig_args else ss.T.args
  in
  let result = task.T.cpu.Cpu.regs.(0) in
  let writes = fd_bitmap_writes r task ~nr:ss.T.nr ~args ~result in
  let kind =
    if Syscall_model.replay_performs ~nr:ss.T.nr then E.K_perform
    else E.K_emulate
  in
  emit r
    (E.E_syscall
       { tid = task.T.tid;
         nr = ss.T.nr;
         site = ss.T.site;
         writable_site = A.text_was_written task.T.cpu.Cpu.space ss.T.site;
         via_abort = false;
         regs_after = capture_regs task;
         writes;
         kind });
  continue_or_park r task

let on_syscall_entry r task (ss : T.saved_syscall) =
  let st = get_rt r task in
  ignore (note_entry_restart st ss);
  (* A restarted aborted-buffered syscall still carries the interception
     library's buffer-redirected arguments; the application's real
     arguments are untouched in the registers — restore them so outputs
     land where the program expects (§3.3). *)
  if st.aborted_buffered then
    for i = 0 to 5 do
      ss.T.args.(i) <- task.T.cpu.Cpu.regs.(i + 1)
    done;
  st.orig_args <- Array.copy ss.T.args;
  (* Patch tracee seccomp filters with the allow-prologue (§2.3.5). *)
  if ss.T.nr = Sysno.seccomp then begin
    match Hashtbl.find_opt r.k.K.filter_registry ss.T.args.(2) with
    | Some prog ->
      let patched =
        Bpf.patch_with_prologue ~privileged_ip:Layout.untraced_syscall_insn
          prog
      in
      let id = 1_000_000 + ss.T.args.(2) in
      K.register_filter r.k id patched;
      ss.T.args.(2) <- id
    | None -> ()
  end;
  if ss.T.nr = Sysno.ptrace then emulate_tracee_ptrace r task ss
  else begin
  if ss.T.nr = Sysno.execve then begin
    let p = read_guest_string task ss.T.args.(0) in
    st.pending_exec <-
      Some (if String.length p > 0 && p.[0] = '/' then p
            else task.T.proc.T.cwd ^ "/" ^ p)
  end;
  if
    r.opts.intercept && st.set_up
    && (not st.aborted_buffered)
    && Syscall_model.bufferable ~wide:r.opts.wide ~nr:ss.T.nr ()
    && Syscallbuf.can_patch task ~site:ss.T.site
  then begin
    (* §3.1: rewrite the syscall site to call the interception library,
       rewind, and re-execute through the fast path. *)
    Syscallbuf.patch_site task ~site:ss.T.site;
    r.patched_sites <- r.patched_sites + 1;
    emit r (E.E_patch { tid = task.T.tid; site = ss.T.site });
    task.T.cpu.Cpu.pc <- ss.T.site;
    switch_locals r task;
    K.resume r.k task T.R_sysemu ()
  end
  else begin
    (* Traced path: redirect blocking outputs to scratch (§2.3.1).  The
       paper notes it has "no evidence that the races prevented by
       scratch buffers occur in practice"; [opts.scratch = false] is the
       ablation that tests eliminating them. *)
    (if r.opts.scratch then
       match
         Syscall_model.scratch_redirect task ~nr:ss.T.nr ~args:ss.T.args
       with
       | Some (arg_idx, _len) ->
         st.scratch_redirect <- Some (ss.T.args.(arg_idx), arg_idx);
         ss.T.args.(arg_idx) <- st.scratch
       | None -> st.scratch_redirect <- None
     else st.scratch_redirect <- None);
    (* §3.4 stop elision: when a successful completion provably writes
       no user memory, the whole frame is computable right here — ask
       the kernel to skip the exit stop and record on the spot.  A
       syscall that blocks re-arms the exit stop (the completion is not
       pre-computable), so the two-stop protocol remains the fallback. *)
    (* clone's frame is the child's E_clone (emitted at the child's
       ptrace clone stop, with the parent's post-syscall registers) —
       the parent's exit stop carries no information at all, so elide
       it without emitting anything. *)
    let elide_silent = ss.T.nr = Sysno.clone in
    let elide =
      elide_silent
      || (not st.aborted_buffered)
         && st.scratch_redirect = None
         && Syscall_model.elidable ~nr:ss.T.nr ~args:ss.T.args
    in
    K.resume r.k task T.R_syscall ~elide ();
    (* The syscall blocked: emit the entry frame now so replay knows to
       park this task inside the kernel while other tasks' frames play. *)
    (match task.T.state with
    | T.Blocked _ ->
      emit r
        (E.E_syscall_enter
           { tid = task.T.tid;
             nr = ss.T.nr;
             site = ss.T.site;
             writable_site = A.text_was_written task.T.cpu.Cpu.space ss.T.site;
             via_abort = st.aborted_buffered })
    | (T.Runnable | T.Stopped) when elide_silent ->
      Telemetry.incr tm_stop_elided;
      continue_or_park r task
    | (T.Runnable | T.Stopped) when elide ->
      if T.is_alive task then record_elided r task ss
    | T.Dead when elide ->
      (* Death during the syscall (fatal tgkill to self): no syscall
         frame, exactly as the exit-stop path (which never fires for a
         dead task); record_new_deaths emits the E_exit frame. *)
      ()
    | T.Runnable | T.Stopped | T.Dead -> ());
    (* sigreturn never produces an exit stop (the kernel diverts control
       flow), but its register restore is an effect replay must apply:
       capture it right after the synchronous resume. *)
    if ss.T.nr = Sysno.rt_sigreturn && T.is_alive task then begin
      emit r
        (E.E_syscall
           { tid = task.T.tid;
             nr = ss.T.nr;
             site = ss.T.site;
             writable_site =
               A.text_was_written task.T.cpu.Cpu.space ss.T.site;
             via_abort = false;
             regs_after = capture_regs task;
             writes = [];
             kind = E.K_emulate });
      continue_or_park r task
    end;
    (match task.T.state with
    | T.Blocked _ when r.current = Some task.T.tid -> r.current <- None
    | T.Blocked _ | T.Runnable | T.Stopped | T.Dead -> ())
  end
  end

let on_syscall_exit r task (ss : T.saved_syscall) result =
  let st = get_rt r task in
  K.charge r.k
    (if st.aborted_buffered then r.k.K.cost.Cost.record_abort_commit
     else r.k.K.cost.Cost.record_syscall_work);
  (* Every syscall that reaches a ptrace exit stop bypassed the
     syscallbuf fast path — by definition a miss. *)
  Telemetry.incr tm_sb_miss;
  (* Copy scratch back while no other thread runs (§2.3.1). *)
  (match st.scratch_redirect with
  | Some (orig_addr, arg_idx) ->
    st.scratch_redirect <- None;
    if result > 0 then begin
      let data = read_guest task ss.T.args.(arg_idx) result in
      A.write_bytes ~force:true task.T.cpu.Cpu.space orig_addr
        (Bytes.of_string data);
      Telemetry.add tm_scratch_bytes result;
      K.charge r.k (Cost.bytes_cost r.k.K.cost result)
    end;
    ss.T.args.(arg_idx) <- orig_addr
  | None -> ());
  if result = -Errno.erestartsys then st.interrupted <- ss :: st.interrupted;
  if ss.T.nr = Sysno.execve && result < 0 then st.pending_exec <- None;
  let args =
    if Array.length st.orig_args = 6 then st.orig_args else ss.T.args
  in
  let via_abort = st.aborted_buffered in
  st.aborted_buffered <- false;
  let nr = ss.T.nr in
  if nr = Sysno.clone then
    (* Covered by the child's E_clone frame. *)
    continue_or_park r task
  else if nr = Sysno.mmap && result >= 0 then begin
    let len = args.(1) and prot = args.(2) and flags = args.(3) in
    let shared = flags land 2 <> 0 in
    let source =
      if flags land 1 <> 0 then E.Src_zero
      else
        match T.find_fd task args.(4) with
        | Some { T.obj = T.F_reg { reg; _ }; _ } ->
          E.Src_trace_file (snapshot_file r reg)
        | Some _ | None -> E.Src_zero
    in
    emit r
      (E.E_mmap
         { tid = task.T.tid;
           addr = result;
           len;
           prot;
           shared;
           source;
           regs_after = capture_regs task });
    continue_or_park r task
  end
  else begin
    let writes =
      List.filter_map
        (fun { Syscall_model.out_addr; out_len } ->
          if out_addr = 0 || out_len <= 0 then None
          else
            Some { E.addr = out_addr; data = read_guest task out_addr out_len })
        (try Syscall_model.outputs ~nr ~args ~result
         with Syscall_model.Unsupported name ->
           fail "unsupported syscall %s (task %d): extend the model (§2.3.6)"
             name task.T.tid)
    in
    let writes = writes @ fd_bitmap_writes r task ~nr ~args ~result in
    let kind =
      if Syscall_model.replay_performs ~nr then E.K_perform else E.K_emulate
    in
    emit r
      (E.E_syscall
         { tid = task.T.tid;
           nr;
           site = ss.T.site;
           writable_site = A.text_was_written task.T.cpu.Cpu.space ss.T.site;
           via_abort;
           regs_after = capture_regs task;
           writes;
           kind });
    continue_or_park r task
  end

(* The §3.3 desched dance: the interception library's untraced syscall
   blocked; convert it into a traced syscall. *)
let on_desched r task =
  let locked =
    if has_locals task then
      A.read_u64 ~force:true task.T.cpu.Cpu.space
        (Layout.thread_locals_page + Layout.tl_locked)
    else 0
  in
  if locked <> 0 && task.T.restart <> None then begin
    let st = get_rt r task in
    Telemetry.incr tm_sb_desched;
    Timeline.instant ~lane:task.T.tid
      ~detail:
        (match task.T.restart with
        | Some ss -> Sysno.name ss.T.nr
        | None -> "")
      "syscallbuf.desched";
    (match task.T.restart with
    | Some ss ->
      Syscallbuf.append_record task
        { E.br_nr = ss.T.nr;
          br_result = 0;
          br_writes = [];
          br_clone = None;
          br_aborted = true }
    | None -> ());
    st.aborted_buffered <- true;
    (match task.T.desched with
    | Some ev -> Perf_event.disable ev
    | None -> ());
    A.write_u64 ~force:true task.T.cpu.Cpu.space
      (Layout.thread_locals_page + Layout.tl_locked)
      0;
    (* Suppress the signal; the kernel restart machinery re-enters the
       syscall, which we then trace like any other. *)
    K.resume r.k task T.R_syscall ();
    (match task.T.state with
    | T.Blocked _ when r.current = Some task.T.tid -> r.current <- None
    | T.Blocked _ | T.Runnable | T.Stopped | T.Dead -> ())
  end
  else begin
    (* Spurious desched (§3.3): suppress and continue. *)
    switch_locals r task;
    K.resume r.k task T.R_cont ();
    if r.current <> Some task.T.tid then K.park r.k task
  end

let on_app_signal r task info =
  let point = capture_point task in
  let frames_before = List.length task.T.sig_frames in
  switch_locals r task;
  K.resume r.k task T.R_cont ~sig_:info ();
  let disposition =
    if not (T.is_alive task) then E.Sr_fatal (256 + info.Signals.signo)
    else if List.length task.T.sig_frames > frames_before then begin
      let frame_addr = List.hd task.T.sig_frames in
      let frame_data = read_guest task frame_addr (18 * 8) in
      E.Sr_handler
        { frame_addr;
          frame_data;
          regs_after = capture_regs task;
          mask_after = task.T.sigmask }
    end
    else E.Sr_ignored (capture_regs task)
  in
  emit r
    (E.E_signal
       { tid = task.T.tid; signo = info.Signals.signo; point; disposition });
  if T.is_alive task && r.current <> Some task.T.tid then K.park r.k task

let on_preempt r task =
  Telemetry.incr tm_preempt;
  Timeline.instant ~lane:task.T.tid ~frame:r.events "sched.preempt";
  emit r (E.E_sched { tid = task.T.tid; point = capture_point task });
  r.sched_events <- r.sched_events + 1;
  if r.current = Some task.T.tid then r.current <- None
(* parked: the scheduler decides who runs next *)

let on_tsc r task reg =
  let value = K.read_tsc r.k in
  task.T.cpu.Cpu.regs.(reg) <- value;
  emit r (E.E_insn_trap { tid = task.T.tid; reg; value });
  if r.current = Some task.T.tid then begin
    switch_locals r task;
    K.resume r.k task T.R_cont ()
  end
(* else: stay parked with the emulated value applied *)

(* ---- scheduling ------------------------------------------------------ *)

(* A task the scheduler may run: parked in a ptrace-stop that the
   recorder has already handled (a stop still sitting in the kernel's
   queue has not been delivered to us yet and must not be stolen). *)
let runnable_parked r tid =
  match K.find_task r.k tid with
  | Some t ->
    T.is_alive t && t.T.state = T.Stopped
    && not (List.mem tid r.k.K.stop_queue)
    && (get_rt r t).emu_stopped_by = None
  | None -> false

let ensure_running r =
  let current_running =
    match r.current with
    | Some tid -> (
      match K.find_task r.k tid with
      | Some t -> T.is_alive t && t.T.state = T.Runnable
      | None -> false)
    | None -> false
  in
  if not current_running then begin
    r.current <- None;
    match
      Rec_sched.pick r.sched
        ~runnable:(fun tid -> runnable_parked r tid)
        ~priority:(fun tid ->
          match K.find_task r.k tid with Some t -> t.T.priority | None -> 0)
    with
    | Some tid ->
      let t = task_exn r tid in
      switch_locals r t;
      (* Arm the preemption interrupt for this timeslice (§2.4). *)
      let budget = Rec_sched.timeslice r.sched in
      Pmu.program_interrupt t.T.cpu.Cpu.pmu
        ~target:(t.T.cpu.Cpu.pmu.Pmu.rcb + budget)
        ~skid:(Entropy.range r.k.K.entropy 0 Pmu.max_skid);
      K.resume r.k t T.R_cont ();
      r.current <- Some tid
    | None -> () (* everyone is blocked or dead; the kernel makes progress *)
  end

(* ---- the main loop --------------------------------------------------- *)

(* §6.2: periodic memory digests let divergence be caught close to its
   root cause instead of megabytes later.  A digest is only valid after a
   stop whose frame fully synchronizes the replayed tracee (syscall exit,
   signal, exec, clone): at entry/seccomp stops the kernel side has run
   ahead of what replay will have applied. *)
let synchronizing_stop = function
  | T.Stop_signal { Signals.origin = Signals.Desched; _ } ->
    (* mid-interception-library: replay reaches this state only while
       applying the later via-abort frame *)
    false
  | T.Stop_syscall_exit _ | T.Stop_signal _ | T.Stop_exec | T.Stop_clone _ ->
    true
  | T.Stop_seccomp _ | T.Stop_syscall_entry _ | T.Stop_exit _
  | T.Stop_singlestep ->
    false

(* A sibling thread that has run guest code since its own last frame (it
   is the scheduler's current task, or its completion stop is still
   queued) makes the shared-space checksum unstable: its progress is
   only replayed when its next frame is applied. *)
let siblings_quiescent r task =
  List.for_all
    (fun (t : T.t) ->
      t.T.tid = task.T.tid
      || t.T.cpu.Cpu.space.A.id <> task.T.cpu.Cpu.space.A.id
      || (not (T.is_alive t))
      || (t.T.state = T.Stopped && not (List.mem t.T.tid r.k.K.stop_queue)))
    (K.all_tasks r.k)

let maybe_checksum r task stop =
  (* Watermark, not exact modulus: interception and stop elision make
     ptrace stops sparse relative to frames, so "a stop lands exactly on
     a multiple of N" may never happen.  Digest at the first
     synchronizing stop after every N frames instead. *)
  if
    r.opts.checksum_every > 0
    && r.events / r.opts.checksum_every > r.checksum_mark
    && synchronizing_stop stop && T.is_alive task
    && siblings_quiescent r task
  then begin
    r.checksum_mark <- r.events / r.opts.checksum_every;
    emit r
      (E.E_checksum
         { tid = task.T.tid; value = Checksum.space task.T.cpu.Cpu.space })
  end

let handle_stop r task stop =
  (* Supervisor-side stop handling reports on the stopped task's lane,
     so its cost lines up with the guest slice that triggered it. *)
  Timeline.set_lane task.T.tid;
  Fun.protect ~finally:(fun () -> Timeline.set_lane 0) @@ fun () ->
  Timeline.scope "record.stop" @@ fun () ->
  flush_buf r task;
  match stop with
  | T.Stop_exec -> on_exec r task
  | T.Stop_clone parent_tid -> on_clone r task parent_tid
  | T.Stop_seccomp ss | T.Stop_syscall_entry ss -> on_syscall_entry r task ss
  | T.Stop_syscall_exit (ss, result) ->
    Timeline.scope "record.syscall" (fun () ->
        on_syscall_exit r task ss result)
  | T.Stop_exit status ->
    record_exit r task status;
    K.resume r.k task T.R_cont ()
  | T.Stop_singlestep -> fail "unexpected single-step stop while recording"
  | T.Stop_signal info -> (
    match info.Signals.origin with
    | Signals.Desched -> on_desched r task
    | Signals.Preempt -> on_preempt r task
    | Signals.Tsc_trap reg -> on_tsc r task reg
    | Signals.Bkpt | Signals.Step ->
      fail "unexpected trap signal while recording"
    | Signals.Fault | Signals.User _ -> on_app_signal r task info)

(* Resolve [opts.sink] to a concrete {!Trace.Sink.t}. *)
let resolve_sink = function
  | Sink_memory -> None
  | Sink_file path -> Some (Trace.Sink.of_io (Io.file_writer path))
  | Sink_ring r -> Some (Trace.ring_sink r)
  | Sink_repo (repo, name) -> Some (Repo.sink repo ~name)
  | Sink_io io -> Some (Trace.Sink.of_io io)

let record ?(opts = default_opts) ?(on_stop = fun (_ : K.t) -> ())
    ?(on_event = fun (_ : E.t) -> ()) ~setup ~exe () =
  let k = K.create ~seed:opts.seed () in
  (* Spans measure virtual ns against this recording's cost model. *)
  Timeline.set_virtual_clock (fun () -> K.now k);
  let tm_base = Telemetry.snapshot () in
  (* The whole-recording root scope: everything from setup through the
     final trace commit nests under it on the supervisor lane. *)
  Timeline.begin_scope "record.session";
  let w =
    Timeline.scope "record.setup" (fun () ->
        Vfs.mkdir_p (K.vfs k) "/trace/images";
        Vfs.mkdir_p (K.vfs k) "/trace/files";
        Vfs.mkdir_p (K.vfs k) "/trace/cloned";
        setup k;
        try
          Trace.Writer.create ~compress:opts.compress
            ~chunk_limit:opts.chunk_limit ?sink:(resolve_sink opts.sink) ~initial_exe:exe ()
        with e -> raise (reraise_typed e))
  in
  let r =
    { k;
      w;
      sched =
        Rec_sched.create ~timeslice_rcbs:opts.timeslice_rcbs ~chaos:opts.chaos
          ~seed:(opts.seed * 7919) ();
      opts;
      rts = Hashtbl.create 16;
      on_event;
      locals_owner = Hashtbl.create 8;
      known_dead = Hashtbl.create 16;
      current = None;
      next_slot = 0;
      image_count = 0;
      file_count = 0;
      events = 0;
      sched_events = 0;
      patched_sites = 0;
      checksum_mark = 0 }
  in
  (* RDRAND emulation hooks: draw from kernel entropy and record the
     value, like the trapped-RDTSC path. *)
  for reg = 0 to Insn.num_regs - 1 do
    K.set_hook k
      (Syscallbuf.rdrand_hook_of_reg reg)
      (fun k task ->
        let value = Entropy.bits k.K.entropy land 0xffff_ffff in
        task.T.cpu.Cpu.regs.(reg) <- value;
        emit r (E.E_insn_trap { tid = task.T.tid; reg; value }))
  done;
  if opts.intercept then
    K.set_hook k Syscallbuf.hook_number
      (Syscallbuf.hook ~wide:opts.wide
         (Syscallbuf.Record
            { clone_read = clone_read r;
              extra_writes =
                (fun _k task ~nr ~args ~result ->
                  fd_bitmap_writes r task ~nr ~args ~result) }));
  (* Spawning the root task charges the exec cost model (image load plus
     the initial exec stop) — time it so the attribution ledger sees it. *)
  let root =
    Timeline.scope "record.spawn" (fun () -> K.spawn k ~path:exe ~traced:true ())
  in
  (get_rt r root).pending_exec <- Some exe;
  let finished = ref false in
  (try
  while not !finished do
    match K.wait k with
    | K.All_dead ->
      record_new_deaths r;
      finished := true
    | K.Deadlocked tids ->
      (* All live tasks are parked or blocked: if any is parked the
         scheduler can still make progress. *)
      if List.exists (runnable_parked r) tids then ensure_running r
      else
        fail "recording deadlocked; live tasks: %s"
          (String.concat "," (List.map string_of_int tids))
    | K.Stopped_task (task, stop) ->
      handle_stop r task stop;
      (* Checksums go after the handler so they digest the same state the
         replayer sees after applying the frame. *)
      maybe_checksum r task stop;
      record_new_deaths r;
      ensure_running r;
      on_stop k
  done
  with exn ->
    (* The emergency debugger (§6.2): dump tracee state next to the
       failure so it can be diagnosed in the field. *)
    Log.err (fun m -> m "%s" (Diagnostics.dump ~msg:(Printexc.to_string exn) k));
    (* Release the writer without committing: the sink's fd must not
       outlive a recording that died (a killed file journal leaves its
       salvageable prefix on disk; a ring keeps its window live in the
       caller-owned handle). *)
    Trace.Writer.abort w;
    Timeline.end_scope "record.session";
    Timeline.clear_virtual_clock ();
    raise (reraise_typed exn));
  (* The clock stays installed through [finish] so the final commit
     (last deflate, manifest write) is timed like everything else. *)
  let trace =
    Fun.protect
      ~finally:(fun () ->
        Timeline.end_scope "record.session";
        Timeline.clear_virtual_clock ())
      (fun () ->
        try Trace.Writer.finish w
        with e ->
          Trace.Writer.abort w;
          raise (reraise_typed e))
  in
  let root_status =
    match Hashtbl.find_opt k.K.procs root.T.tid with
    | Some p -> p.T.exit_code
    | None -> Some root.T.exit_status
  in
  ( trace,
    { wall_time = K.now k;
      trace_stats = Trace.stats trace;
      n_ptrace_stops = k.K.trace_stop_count;
      n_syscalls = k.K.syscall_count;
      n_sched_events = r.sched_events;
      n_patched_sites = r.patched_sites;
      exit_status = root_status;
      telemetry = Telemetry.since tm_base },
    k )

let run ?opts ?on_stop ?on_event ~setup ~exe () =
  match record ?opts ?on_stop ?on_event ~setup ~exe () with
  | v -> Ok v
  | exception Record_error e -> Error e
