(* Trace frames.

   One constructor per kind of nondeterministic input crossing the
   recording boundary (paper §2.1): syscall results and memory effects,
   asynchronous-event execution points (RCB + registers + a word of stack,
   §2.4.1), signal-handler frames (§2.3.9), address-space events that
   replay must re-perform (§2.3.8), syscall-site patches (§3.1) and
   syscallbuf flushes (§3).

   [regs] is the 16 GPRs with the program counter appended (17 slots). *)

type regs = int array

let pc_slot = 16

type exec_point = { rcb : int; point_regs : regs; stack_extra : int }

type mem_write = { addr : int; data : string }

type syscall_kind =
  | K_emulate (* replay applies recorded effects; syscall not executed *)
  | K_perform (* replay re-executes it (munmap, mprotect, sigreturn...) *)

type sig_disposition =
  | Sr_handler of {
      frame_addr : int;
      frame_data : string;
      regs_after : regs;
      mask_after : int;
    }
  | Sr_fatal of int (* exit status *)
  | Sr_ignored of regs
      (* no handler ran; registers after the kernel's restart rewind *)

type mmap_source =
  | Src_zero
  | Src_trace_file of string (* path in the trace's cloned-file store *)
  | Src_inline of string (* small data carried in the frame *)

type clone_ref = {
  cr_path : string; (* per-thread cloned-data file in the trace *)
  cr_off : int;
  cr_addr : int; (* destination address in the tracee *)
  cr_len : int;
}

type buf_record = {
  br_nr : int;
  br_result : int;
  br_writes : mem_write list; (* outputs the library copied out of the buffer *)
  br_clone : clone_ref option; (* §3.9: data snapshotted by block cloning *)
  br_aborted : bool; (* desched fired; completed as a traced syscall *)
}

type t =
  | E_syscall of {
      tid : int;
      nr : int;
      site : int; (* address of the syscall instruction *)
      writable_site : bool; (* replay must not breakpoint here (§2.3.7) *)
      via_abort : bool; (* reached through a syscallbuf desched abort (§3.3) *)
      regs_after : regs;
      writes : mem_write list;
      kind : syscall_kind;
    }
  | E_clone of {
      parent : int;
      child : int;
      flags : int;
      child_sp : int;
      parent_regs_after : regs;
      child_regs : regs;
    }
  | E_exec of { tid : int; image_ref : string; regs_after : regs }
  | E_mmap of {
      tid : int;
      addr : int;
      len : int;
      prot : int;
      shared : bool;
      source : mmap_source;
      regs_after : regs;
    }
  | E_signal of {
      tid : int;
      signo : int;
      point : exec_point;
      disposition : sig_disposition;
    }
  | E_sched of { tid : int; point : exec_point } (* preemptive switch *)
  | E_insn_trap of { tid : int; reg : int; value : int } (* RDTSC etc. *)
  | E_patch of { tid : int; site : int } (* syscall site -> hook call *)
  | E_buf_flush of { tid : int; records : buf_record list }
  | E_syscall_enter of {
      tid : int;
      nr : int;
      site : int;
      writable_site : bool;
      via_abort : bool;
    }
      (* The task entered a syscall that then *blocked* in the kernel;
         frames of other tasks may follow before its completion frame.
         (rr records syscall entry and exit as separate events for the
         same reason.) *)
  | E_checksum of { tid : int; value : int }
      (* digest of the task's application-visible memory (§6.2) *)
  | E_exit of { tid : int; status : int }
  | E_rr_setup of {
      tid : int;
      rr_page : int; (* text address of the untraced syscall insn *)
      locals : int; (* thread-locals data page *)
      scratch : int;
      buf : int; (* trace buffer data page(s) *)
      buf_len : int;
    }

let tid_of = function
  | E_syscall { tid; _ }
  | E_syscall_enter { tid; _ }
  | E_checksum { tid; _ }
  | E_exec { tid; _ }
  | E_mmap { tid; _ }
  | E_signal { tid; _ }
  | E_sched { tid; _ }
  | E_insn_trap { tid; _ }
  | E_patch { tid; _ }
  | E_buf_flush { tid; _ }
  | E_exit { tid; _ }
  | E_rr_setup { tid; _ } ->
    tid
  | E_clone { parent; _ } -> parent

(* The pc a frame's recorded registers land on: the breakpoint-match key
   for the debugger and the per-pc trace index.  Frames that carry no
   register image (buffer flushes, patches, bookkeeping) have no pc. *)
let frame_pc e =
  let pc (regs : regs) = Some regs.(pc_slot) in
  match e with
  | E_syscall { regs_after; _ } -> pc regs_after
  | E_exec { regs_after; _ } -> pc regs_after
  | E_mmap { regs_after; _ } -> pc regs_after
  | E_clone { parent_regs_after; _ } -> pc parent_regs_after
  | E_sched { point; _ } -> pc point.point_regs
  | E_signal { point; disposition; _ } -> (
    match disposition with
    | Sr_handler { regs_after; _ } -> pc regs_after
    | Sr_ignored regs -> pc regs
    | Sr_fatal _ -> pc point.point_regs)
  | E_insn_trap _ | E_patch _ | E_buf_flush _ | E_syscall_enter _
  | E_checksum _ | E_exit _ | E_rr_setup _ ->
    None

(* ----- encoding ----------------------------------------------------

   Registers are delta-coded against the same task's previous register
   image within the chunk: a 17-bit change mask, then one zigzag delta
   per changed slot.  Between consecutive frames of a task most slots
   are unchanged and the pc moves by a small amount, so a typical image
   costs a few bytes instead of ~20.  The per-task state lives in an
   {!ectx}; encoder and decoder reset it at every chunk boundary, which
   keeps each chunk independently decodable (seek, salvage, kind-mask
   skipping all still work). *)

let nregs = 17

type ectx = { prev : (int, int array) Hashtbl.t }

let ectx () = { prev = Hashtbl.create 8 }

let reset_ectx c = Hashtbl.reset c.prev

let tm_delta_saved = Telemetry.counter "trace.regs_delta_bytes_saved"

let prev_regs c key =
  match Hashtbl.find_opt c.prev key with
  | Some p -> p
  | None ->
    let p = Array.make nregs 0 in
    Hashtbl.add c.prev key p;
    p

(* [key] is the task the image belongs to — deltas must never cross
   tasks, whose register sets evolve independently.  The saved-bytes
   counter compares against a plain length-prefixed int array. *)
let put_regs c ~key b (r : regs) =
  if Array.length r <> nregs then
    Fmt.invalid_arg "Event.put_regs: %d slots, need %d" (Array.length r) nregs;
  let prev = prev_regs c key in
  let mask = ref 0 in
  for i = 0 to nregs - 1 do
    if r.(i) <> prev.(i) then mask := !mask lor (1 lsl i)
  done;
  let before = Buffer.length b in
  Codec.put_uvarint b !mask;
  for i = 0 to nregs - 1 do
    if !mask land (1 lsl i) <> 0 then begin
      Codec.put_int b (r.(i) - prev.(i));
      prev.(i) <- r.(i)
    end
  done;
  let plain_cost = ref (Codec.uvarint_size nregs) in
  for i = 0 to nregs - 1 do
    plain_cost := !plain_cost + Codec.int_size r.(i)
  done;
  Telemetry.add tm_delta_saved (!plain_cost - (Buffer.length b - before))

let get_regs c ~key s : regs =
  let prev = prev_regs c key in
  let mask = Codec.get_uvarint s in
  if mask lsr nregs <> 0 then
    raise (Codec.Corrupt (Printf.sprintf "regs change mask %#x" mask));
  let r = Array.copy prev in
  for i = 0 to nregs - 1 do
    if mask land (1 lsl i) <> 0 then begin
      r.(i) <- prev.(i) + Codec.get_int s;
      prev.(i) <- r.(i)
    end
  done;
  r

let put_point c ~key b p =
  Codec.put_int b p.rcb;
  put_regs c ~key b p.point_regs;
  Codec.put_int b p.stack_extra

let get_point c ~key s =
  let rcb = Codec.get_int s in
  let point_regs = get_regs c ~key s in
  let stack_extra = Codec.get_int s in
  { rcb; point_regs; stack_extra }

let put_write b w =
  Codec.put_int b w.addr;
  Codec.put_string b w.data

let get_write s =
  let addr = Codec.get_int s in
  let data = Codec.get_string s in
  { addr; data }

let put_disposition c ~key b = function
  | Sr_handler { frame_addr; frame_data; regs_after; mask_after } ->
    Codec.put_uvarint b 0;
    Codec.put_int b frame_addr;
    Codec.put_string b frame_data;
    put_regs c ~key b regs_after;
    Codec.put_int b mask_after
  | Sr_fatal status ->
    Codec.put_uvarint b 1;
    Codec.put_int b status
  | Sr_ignored regs_after ->
    Codec.put_uvarint b 2;
    put_regs c ~key b regs_after

let get_disposition c ~key s =
  match Codec.get_uvarint s with
  | 0 ->
    let frame_addr = Codec.get_int s in
    let frame_data = Codec.get_string s in
    let regs_after = get_regs c ~key s in
    let mask_after = Codec.get_int s in
    Sr_handler { frame_addr; frame_data; regs_after; mask_after }
  | 1 -> Sr_fatal (Codec.get_int s)
  | 2 -> Sr_ignored (get_regs c ~key s)
  | n -> raise (Codec.Corrupt (Printf.sprintf "disposition tag %d" n))

let put_source b = function
  | Src_zero -> Codec.put_uvarint b 0
  | Src_trace_file p ->
    Codec.put_uvarint b 1;
    Codec.put_string b p
  | Src_inline d ->
    Codec.put_uvarint b 2;
    Codec.put_string b d

let get_source s =
  match Codec.get_uvarint s with
  | 0 -> Src_zero
  | 1 -> Src_trace_file (Codec.get_string s)
  | 2 -> Src_inline (Codec.get_string s)
  | n -> raise (Codec.Corrupt (Printf.sprintf "source tag %d" n))

let put_buf_record b r =
  Codec.put_int b r.br_nr;
  Codec.put_int b r.br_result;
  Codec.put_list b put_write r.br_writes;
  (match r.br_clone with
  | None -> Codec.put_uvarint b 0
  | Some c ->
    Codec.put_uvarint b 1;
    Codec.put_string b c.cr_path;
    Codec.put_int b c.cr_off;
    Codec.put_int b c.cr_addr;
    Codec.put_int b c.cr_len);
  Codec.put_bool b r.br_aborted

let get_buf_record s =
  let br_nr = Codec.get_int s in
  let br_result = Codec.get_int s in
  let br_writes = Codec.get_list s get_write in
  let br_clone =
    match Codec.get_uvarint s with
    | 0 -> None
    | 1 ->
      let cr_path = Codec.get_string s in
      let cr_off = Codec.get_int s in
      let cr_addr = Codec.get_int s in
      let cr_len = Codec.get_int s in
      Some { cr_path; cr_off; cr_addr; cr_len }
    | n -> raise (Codec.Corrupt (Printf.sprintf "clone tag %d" n))
  in
  let br_aborted = Codec.get_bool s in
  { br_nr; br_result; br_writes; br_clone; br_aborted }

let encode c b = function
  | E_syscall { tid; nr; site; writable_site; via_abort; regs_after; writes; kind }
    ->
    Codec.put_uvarint b 0;
    Codec.put_int b tid;
    Codec.put_int b nr;
    Codec.put_int b site;
    Codec.put_bool b writable_site;
    Codec.put_bool b via_abort;
    put_regs c ~key:tid b regs_after;
    Codec.put_list b put_write writes;
    Codec.put_uvarint b (match kind with K_emulate -> 0 | K_perform -> 1)
  | E_clone { parent; child; flags; child_sp; parent_regs_after; child_regs }
    ->
    Codec.put_uvarint b 1;
    Codec.put_int b parent;
    Codec.put_int b child;
    Codec.put_int b flags;
    Codec.put_int b child_sp;
    put_regs c ~key:parent b parent_regs_after;
    put_regs c ~key:child b child_regs
  | E_exec { tid; image_ref; regs_after } ->
    Codec.put_uvarint b 2;
    Codec.put_int b tid;
    Codec.put_string b image_ref;
    put_regs c ~key:tid b regs_after
  | E_mmap { tid; addr; len; prot; shared; source; regs_after } ->
    Codec.put_uvarint b 3;
    Codec.put_int b tid;
    Codec.put_int b addr;
    Codec.put_int b len;
    Codec.put_int b prot;
    Codec.put_bool b shared;
    put_source b source;
    put_regs c ~key:tid b regs_after
  | E_signal { tid; signo; point; disposition } ->
    Codec.put_uvarint b 4;
    Codec.put_int b tid;
    Codec.put_int b signo;
    put_point c ~key:tid b point;
    put_disposition c ~key:tid b disposition
  | E_sched { tid; point } ->
    Codec.put_uvarint b 5;
    Codec.put_int b tid;
    put_point c ~key:tid b point
  | E_insn_trap { tid; reg; value } ->
    Codec.put_uvarint b 6;
    Codec.put_int b tid;
    Codec.put_int b reg;
    Codec.put_int b value
  | E_patch { tid; site } ->
    Codec.put_uvarint b 7;
    Codec.put_int b tid;
    Codec.put_int b site
  | E_buf_flush { tid; records } ->
    Codec.put_uvarint b 8;
    Codec.put_int b tid;
    Codec.put_list b put_buf_record records
  | E_exit { tid; status } ->
    Codec.put_uvarint b 9;
    Codec.put_int b tid;
    Codec.put_int b status
  | E_checksum { tid; value } ->
    Codec.put_uvarint b 12;
    Codec.put_int b tid;
    Codec.put_int b value
  | E_syscall_enter { tid; nr; site; writable_site; via_abort } ->
    Codec.put_uvarint b 11;
    Codec.put_int b tid;
    Codec.put_int b nr;
    Codec.put_int b site;
    Codec.put_bool b writable_site;
    Codec.put_bool b via_abort
  | E_rr_setup { tid; rr_page; locals; scratch; buf; buf_len } ->
    Codec.put_uvarint b 10;
    Codec.put_int b tid;
    Codec.put_int b rr_page;
    Codec.put_int b locals;
    Codec.put_int b scratch;
    Codec.put_int b buf;
    Codec.put_int b buf_len

let decode c s =
  match Codec.get_uvarint s with
  | 0 ->
    let tid = Codec.get_int s in
    let nr = Codec.get_int s in
    let site = Codec.get_int s in
    let writable_site = Codec.get_bool s in
    let via_abort = Codec.get_bool s in
    let regs_after = get_regs c ~key:tid s in
    let writes = Codec.get_list s get_write in
    let kind =
      match Codec.get_uvarint s with
      | 0 -> K_emulate
      | 1 -> K_perform
      | n -> raise (Codec.Corrupt (Printf.sprintf "kind tag %d" n))
    in
    E_syscall { tid; nr; site; writable_site; via_abort; regs_after; writes; kind }
  | 1 ->
    let parent = Codec.get_int s in
    let child = Codec.get_int s in
    let flags = Codec.get_int s in
    let child_sp = Codec.get_int s in
    let parent_regs_after = get_regs c ~key:parent s in
    let child_regs = get_regs c ~key:child s in
    E_clone { parent; child; flags; child_sp; parent_regs_after; child_regs }
  | 2 ->
    let tid = Codec.get_int s in
    let image_ref = Codec.get_string s in
    let regs_after = get_regs c ~key:tid s in
    E_exec { tid; image_ref; regs_after }
  | 3 ->
    let tid = Codec.get_int s in
    let addr = Codec.get_int s in
    let len = Codec.get_int s in
    let prot = Codec.get_int s in
    let shared = Codec.get_bool s in
    let source = get_source s in
    let regs_after = get_regs c ~key:tid s in
    E_mmap { tid; addr; len; prot; shared; source; regs_after }
  | 4 ->
    let tid = Codec.get_int s in
    let signo = Codec.get_int s in
    let point = get_point c ~key:tid s in
    let disposition = get_disposition c ~key:tid s in
    E_signal { tid; signo; point; disposition }
  | 5 ->
    let tid = Codec.get_int s in
    let point = get_point c ~key:tid s in
    E_sched { tid; point }
  | 6 ->
    let tid = Codec.get_int s in
    let reg = Codec.get_int s in
    let value = Codec.get_int s in
    E_insn_trap { tid; reg; value }
  | 7 ->
    let tid = Codec.get_int s in
    let site = Codec.get_int s in
    E_patch { tid; site }
  | 8 ->
    let tid = Codec.get_int s in
    let records = Codec.get_list s get_buf_record in
    E_buf_flush { tid; records }
  | 9 ->
    let tid = Codec.get_int s in
    let status = Codec.get_int s in
    E_exit { tid; status }
  | 10 ->
    let tid = Codec.get_int s in
    let rr_page = Codec.get_int s in
    let locals = Codec.get_int s in
    let scratch = Codec.get_int s in
    let buf = Codec.get_int s in
    let buf_len = Codec.get_int s in
    E_rr_setup { tid; rr_page; locals; scratch; buf; buf_len }
  | 11 ->
    let tid = Codec.get_int s in
    let nr = Codec.get_int s in
    let site = Codec.get_int s in
    let writable_site = Codec.get_bool s in
    let via_abort = Codec.get_bool s in
    E_syscall_enter { tid; nr; site; writable_site; via_abort }
  | 12 ->
    let tid = Codec.get_int s in
    let value = Codec.get_int s in
    E_checksum { tid; value }
  | n -> raise (Codec.Corrupt (Printf.sprintf "event tag %d" n))

(* Stable small integers naming each frame kind — the encode tags.  The
   trace's chunk index summarizes each chunk as a bitmask of these, so a
   frame search can skip whole chunks without inflating them. *)
let num_kinds = 13

let kind_id = function
  | E_syscall _ -> 0
  | E_clone _ -> 1
  | E_exec _ -> 2
  | E_mmap _ -> 3
  | E_signal _ -> 4
  | E_sched _ -> 5
  | E_insn_trap _ -> 6
  | E_patch _ -> 7
  | E_buf_flush _ -> 8
  | E_exit _ -> 9
  | E_rr_setup _ -> 10
  | E_syscall_enter _ -> 11
  | E_checksum _ -> 12

let kind_bit e = 1 lsl kind_id e

let kind_name = function
  | E_syscall { nr; _ } -> "syscall:" ^ Sysno.name nr
  | E_syscall_enter { nr; _ } -> "syscall-enter:" ^ Sysno.name nr
  | E_checksum _ -> "checksum"
  | E_clone _ -> "clone"
  | E_exec _ -> "exec"
  | E_mmap _ -> "mmap"
  | E_signal { signo; _ } -> "signal:" ^ Signals.name signo
  | E_sched _ -> "sched"
  | E_insn_trap _ -> "insn_trap"
  | E_patch _ -> "patch"
  | E_buf_flush _ -> "buf_flush"
  | E_exit _ -> "exit"
  | E_rr_setup _ -> "rr_setup"

let pp ppf e = Fmt.pf ppf "[%d] %s" (tid_of e) (kind_name e)
