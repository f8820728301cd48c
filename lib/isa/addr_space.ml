(* Guest address spaces.

   Data memory is byte-addressed and backed by COW page frames ({!Mem}).
   Code is word-addressed and lives in a separate text table (a Harvard
   simplification, see DESIGN.md §6): the program counter indexes [text],
   and patching a syscall site is a single-slot update, which is the moral
   equivalent of rr rewriting the two-byte x86 syscall instruction.

   Both tables are built for the interpreter's hot path, which must not
   allocate or hash on an ordinary instruction:
   - [text] maps a text page ([addr asr text_shift]) to an array of
     [text_page_slots] decoded slots, [None] where no instruction was
     loaded.  The space caches the last text page it used
     ([text_pi]/[text_page]); [unmap_all] drops it, and nothing else
     removes a text page, so the cached array is always the live one.
   - [pages] maps a data page index to its frame.  [get_page] goes
     through a one-entry TLB ([tlb_idx]/[tlb_page]).  [map], [unmap],
     [unmap_all], [protect] and [install_page] invalidate it, and the COW
     unshare in [writable_page] refreshes it with the private copy.
     Protection and the refcount are read from the frame on every access,
     so the TLB never caches a permission.  [create] and [fork] start with
     an empty TLB.

   [written_text] remembers addresses written at run time ([Emit]): the
   replayer must not set software breakpoints there and falls back to the
   SYSEMU-style path (paper §2.3.7). *)

type access = Read | Write | Exec

exception Segv of { addr : int; access : access }

type kind =
  | Anon
  | Stack
  | File_backed of { path : string; file_off : int }
  | Scratch
  | Rr_page
  | Thread_locals

type region = {
  start : int;
  len : int;
  mutable prot : Mem.prot;
  kind : kind;
  shared : bool;
}

type t = {
  id : int;
  pages : (int, Mem.page) Hashtbl.t;
  mutable tlb_idx : int;
  mutable tlb_page : Mem.page;
  text : (int, Insn.t option array) Hashtbl.t;
  mutable text_pi : int;
  mutable text_page : Insn.t option array;
  written_text : (int, unit) Hashtbl.t;
  breakpoints : (int, unit) Hashtbl.t;
  mutable regions : region list; (* sorted by start *)
  mutable mmap_cursor : int;
}

let mmap_base = 0x1000_0000
let stack_top = 0x7ff0_0000

(* 256 slots (2 KiB of pointers) per text page: the workloads' images
   and JIT regions are a few hundred instructions each, so a larger page
   mostly holds [None]. *)
let text_shift = 8
let text_page_slots = 1 lsl text_shift
let text_mask = text_page_slots - 1

(* Empty-cache sentinels.  No page index equals [-1] ([Mem.page_index] is
   a logical shift) and no text page index equals [min_int] ([asr] by
   [text_shift] cannot reach it); [no_frame] is never read or written. *)
let no_frame = Mem.fresh_page ~prot:Mem.prot_none ()
let no_text : Insn.t option array = [||]

let create ~id =
  { id;
    pages = Hashtbl.create 256;
    tlb_idx = -1;
    tlb_page = no_frame;
    text = Hashtbl.create 16;
    text_pi = min_int;
    text_page = no_text;
    written_text = Hashtbl.create 16;
    breakpoints = Hashtbl.create 16;
    regions = [];
    mmap_cursor = mmap_base }

let tlb_flush t =
  t.tlb_idx <- -1;
  t.tlb_page <- no_frame

let page_count addr len =
  if len <= 0 then 0
  else Mem.page_index (addr + len - 1) - Mem.page_index addr + 1

let regions t = t.regions

let find_region t addr =
  List.find_opt (fun r -> addr >= r.start && addr < r.start + r.len) t.regions

let insert_region t r =
  let rec insert = function
    | [] -> [ r ]
    | hd :: tl when hd.start < r.start -> hd :: insert tl
    | rest -> r :: rest
  in
  t.regions <- insert t.regions

let overlaps t ~addr ~len =
  List.exists
    (fun r -> addr < r.start + r.len && r.start < addr + len)
    t.regions

(* Map [len] bytes at [addr] (both page-aligned in practice; we align for
   callers).  Pages are created eagerly so that fork-inherited shared
   mappings alias the same frames. *)
let map t ~addr ~len ~prot ?(kind = Anon) ?(shared = false) () =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  if len = 0 then invalid_arg "Addr_space.map: empty";
  if overlaps t ~addr ~len then invalid_arg "Addr_space.map: overlap";
  insert_region t { start = addr; len; prot; kind; shared };
  tlb_flush t;
  let first = Mem.page_index addr in
  for i = first to first + page_count addr len - 1 do
    Hashtbl.replace t.pages i (Mem.fresh_page ~prot ~shared ())
  done;
  addr

let find_map_addr t len =
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  let rec search addr =
    if overlaps t ~addr ~len then search (addr + Mem.page_size) else addr
  in
  let addr = search t.mmap_cursor in
  t.mmap_cursor <- addr + len;
  addr

let unmap t ~addr ~len =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  let hi = addr + len in
  let keep, drop =
    List.partition (fun r -> r.start + r.len <= addr || r.start >= hi) t.regions
  in
  (* Split partially covered regions. *)
  let fragments =
    List.concat_map
      (fun r ->
        let pieces = ref [] in
        if r.start < addr then
          pieces := { r with len = addr - r.start } :: !pieces;
        if r.start + r.len > hi then
          pieces :=
            { r with start = hi; len = r.start + r.len - hi } :: !pieces;
        !pieces)
      drop
  in
  t.regions <- List.sort (fun a b -> compare a.start b.start) (keep @ fragments);
  tlb_flush t;
  let first = Mem.page_index addr in
  for i = first to first + page_count addr len - 1 do
    match Hashtbl.find_opt t.pages i with
    | Some p ->
      Mem.decref p;
      Hashtbl.remove t.pages i
    | None -> ()
  done

let unmap_all t =
  Hashtbl.iter (fun _ p -> Mem.decref p) t.pages;
  Hashtbl.reset t.pages;
  tlb_flush t;
  t.regions <- [];
  Hashtbl.reset t.text;
  t.text_pi <- min_int;
  t.text_page <- no_text;
  Hashtbl.reset t.written_text;
  Hashtbl.reset t.breakpoints;
  t.mmap_cursor <- mmap_base

(* mprotect: per-frame protection.  A COW frame shared with another space
   must be unshared first so the other space's protections are unaffected. *)
let protect t ~addr ~len ~prot =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  List.iter
    (fun r ->
      if addr < r.start + r.len && r.start < addr + len then r.prot <- prot)
    t.regions;
  tlb_flush t;
  let first = Mem.page_index addr in
  for i = first to first + page_count addr len - 1 do
    match Hashtbl.find_opt t.pages i with
    | Some p ->
      let p =
        if p.Mem.refs > 1 && not p.Mem.shared then begin
          let q = Mem.unshare p in
          Hashtbl.replace t.pages i q;
          q
        end
        else p
      in
      p.Mem.prot <- prot
    | None -> ()
  done

let get_page t addr access =
  let idx = Mem.page_index addr in
  if idx = t.tlb_idx then t.tlb_page
  else
    match Hashtbl.find t.pages idx with
    | p ->
      t.tlb_idx <- idx;
      t.tlb_page <- p;
      p
    | exception Not_found -> raise (Segv { addr; access })

(* Map frame [p] at page [index], taking a reference (the snapshot
   decoder's path back into a space). *)
let install_page t ~index p =
  Mem.incref p;
  (match Hashtbl.find_opt t.pages index with
  | Some old -> Mem.decref old
  | None -> ());
  Hashtbl.replace t.pages index p;
  tlb_flush t

let readable_page t addr ~force =
  let p = get_page t addr Read in
  if (not force) && p.Mem.prot land Mem.prot_r = 0 then
    raise (Segv { addr; access = Read });
  p

(* A page about to be written: enforce protection (unless [force], the
   kernel/supervisor path) and break COW sharing. *)
let writable_page t addr ~force =
  let p = get_page t addr Write in
  if (not force) && p.Mem.prot land Mem.prot_w = 0 then
    raise (Segv { addr; access = Write });
  if p.Mem.refs > 1 && not p.Mem.shared then begin
    let idx = Mem.page_index addr in
    let q = Mem.unshare p in
    Hashtbl.replace t.pages idx q;
    t.tlb_idx <- idx;
    t.tlb_page <- q;
    q
  end
  else p

(* Optional write observer: the trace indexer installs one to learn which
   pages each replayed frame touches.  Unset (the normal case) it costs a
   single ref read per store. *)
let write_observer : (t -> addr:int -> len:int -> unit) option ref = ref None

let set_write_observer f = write_observer := Some f
let clear_write_observer () = write_observer := None

let observe_write t ~addr ~len =
  match !write_observer with
  | None -> ()
  | Some f -> f t ~addr ~len

let read_u8 ?(force = false) t addr =
  Mem.get_u8 (readable_page t addr ~force) (Mem.page_offset addr)

let write_u8 ?(force = false) t addr v =
  observe_write t ~addr ~len:1;
  Mem.set_u8 (writable_page t addr ~force) (Mem.page_offset addr) v

let read_u64 ?(force = false) t addr =
  let off = Mem.page_offset addr in
  if off <= Mem.page_size - 8 then
    let p = readable_page t addr ~force in
    Int64.to_int (Bytes.get_int64_le p.Mem.bytes off)
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (read_u8 ~force t (addr + i)))
    done;
    Int64.to_int !v
  end

(* A store that straddles two pages is atomic, like an x86 store: both
   pages are resolved before either is written, so a fault on the second
   leaves the first untouched. *)
let write_u64 ?(force = false) t addr v =
  observe_write t ~addr ~len:8;
  let off = Mem.page_offset addr in
  if off <= Mem.page_size - 8 then
    let p = writable_page t addr ~force in
    Bytes.set_int64_le p.Mem.bytes off (Int64.of_int v)
  else begin
    let addr2 = addr - off + Mem.page_size in
    let p1 = writable_page t addr ~force in
    let p2 = writable_page t addr2 ~force in
    for i = 0 to 7 do
      let a = addr + i in
      let p = if a < addr2 then p1 else p2 in
      Mem.set_u8 p (Mem.page_offset a) ((v lsr (8 * i)) land 0xff)
    done
  end

let read_bytes ?(force = false) t addr len =
  let out = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = Mem.page_offset a in
    let chunk = min (len - !i) (Mem.page_size - off) in
    let p = readable_page t a ~force in
    Bytes.blit p.Mem.bytes off out !i chunk;
    i := !i + chunk
  done;
  out

let write_bytes ?(force = false) t addr b =
  let len = Bytes.length b in
  if len > 0 then observe_write t ~addr ~len;
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = Mem.page_offset a in
    let chunk = min (len - !i) (Mem.page_size - off) in
    let p = writable_page t a ~force in
    Bytes.blit b !i p.Mem.bytes off chunk;
    i := !i + chunk
  done

(* Text (code) accessors. *)

(* The slots of text page [pi], or [no_text] if none was ever written. *)
let text_slots t pi =
  if pi = t.text_pi then t.text_page
  else
    match Hashtbl.find t.text pi with
    | slots ->
      t.text_pi <- pi;
      t.text_page <- slots;
      slots
    | exception Not_found -> no_text

let text_get t addr =
  let slots = text_slots t (addr asr text_shift) in
  if slots == no_text then None else slots.(addr land text_mask)

let text_set t addr insn =
  let pi = addr asr text_shift in
  let slots =
    let s = text_slots t pi in
    if s != no_text then s
    else begin
      let s = Array.make text_page_slots None in
      Hashtbl.replace t.text pi s;
      s
    end
  in
  slots.(addr land text_mask) <- Some insn

let text_fold f t acc =
  Hashtbl.fold
    (fun pi slots acc ->
      let acc = ref acc in
      Array.iteri
        (fun i -> function
          | Some insn -> acc := f ((pi lsl text_shift) lor i) insn !acc
          | None -> ())
        slots;
      !acc)
    t.text acc

let text_count t = text_fold (fun _ _ n -> n + 1) t 0

(* Global count of statically loaded instructions (execs), for the DBI
   cost model: each process retranslates its code. *)
let loaded_insns = ref 0

let text_load t ~base code =
  loaded_insns := !loaded_insns + Array.length code;
  Array.iteri (fun i insn -> text_set t (base + i) insn) code

let text_write t addr insn =
  text_set t addr insn;
  Hashtbl.replace t.written_text addr ()

let text_was_written t addr = Hashtbl.mem t.written_text addr

(* Software breakpoints (the replayer's run-to-event mechanism). *)

let bp_set t addr = Hashtbl.replace t.breakpoints addr ()
let bp_clear t addr = Hashtbl.remove t.breakpoints addr
let bp_is_set t addr = Hashtbl.mem t.breakpoints addr

(* Fork: COW-share every frame.  Cheap by construction — this is what
   makes rr-style checkpoints take "less than ten milliseconds". *)
let fork t ~id =
  let text = Hashtbl.create (Hashtbl.length t.text) in
  Hashtbl.iter (fun pi slots -> Hashtbl.replace text pi (Array.copy slots)) t.text;
  let child =
    { id;
      pages = Hashtbl.create (Hashtbl.length t.pages);
      tlb_idx = -1;
      tlb_page = no_frame;
      text;
      text_pi = min_int;
      text_page = no_text;
      written_text = Hashtbl.copy t.written_text;
      breakpoints = Hashtbl.copy t.breakpoints;
      regions = t.regions;
      mmap_cursor = t.mmap_cursor }
  in
  Hashtbl.iter
    (fun idx p ->
      Mem.incref p;
      Hashtbl.replace child.pages idx p)
    t.pages;
  child

let release t = unmap_all t

(* Proportional set size in bytes: each frame contributes size/refs
   (paper §4.5). *)
let pss t =
  Hashtbl.fold
    (fun _ p acc -> acc +. (float_of_int Mem.page_size /. float_of_int p.Mem.refs))
    t.pages 0.

let mapped_bytes t =
  List.fold_left (fun acc r -> acc + r.len) 0 t.regions
