(** Guest address spaces: byte-addressed COW data pages plus a
    word-addressed text table (Harvard simplification; DESIGN.md §6).

    Text is stored in pages of decoded slots, and each space caches the
    last text page and the last data page it used, so an ordinary
    instruction neither hashes nor allocates.  Every change to [pages]
    goes through this module, which keeps the data cache coherent; read
    the tables only through the functions below. *)

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
  mutable regions : region list;
  mutable mmap_cursor : int;
}

val text_shift : int
val text_mask : int
(** A text page holds the [1 lsl text_shift] slots from
    [pi lsl text_shift]; slot [addr land text_mask] of page
    [addr asr text_shift] holds [addr]. *)

val mmap_base : int
val stack_top : int

val create : id:int -> t

val regions : t -> region list
val find_region : t -> int -> region option
val overlaps : t -> addr:int -> len:int -> bool

val map :
  t -> addr:int -> len:int -> prot:Mem.prot -> ?kind:kind -> ?shared:bool ->
  unit -> int
(** Map pages eagerly; returns the page-aligned start address.  Raises
    [Invalid_argument] on overlap. *)

val find_map_addr : t -> int -> int
(** A free address for an [len]-byte mapping. *)

val unmap : t -> addr:int -> len:int -> unit
val unmap_all : t -> unit
val protect : t -> addr:int -> len:int -> prot:Mem.prot -> unit

val install_page : t -> index:int -> Mem.page -> unit
(** Map frame [p] at data page [index], taking a reference to it and
    dropping the one held on any frame it replaces. *)

val set_write_observer : (t -> addr:int -> len:int -> unit) -> unit
val clear_write_observer : unit -> unit
(** A process-global hook invoked before every data write (all byte
    stores funnel through it, including [force] writes).  The trace
    indexer installs one during its replay pass to learn which pages
    each frame touches; leave it unset otherwise. *)

val read_u8 : ?force:bool -> t -> int -> int
val write_u8 : ?force:bool -> t -> int -> int -> unit
val read_u64 : ?force:bool -> t -> int -> int
val write_u64 : ?force:bool -> t -> int -> int -> unit
val read_bytes : ?force:bool -> t -> int -> int -> bytes
val write_bytes : ?force:bool -> t -> int -> bytes -> unit
(** Data accessors.  [force] bypasses protection checks (kernel and
    supervisor accesses).  All raise {!Segv} on unmapped addresses.
    [write_u64] is atomic across a page boundary: a fault on either page
    leaves both untouched. *)

val loaded_insns : int ref
(** Global count of instructions loaded by [text_load] (program images),
    for instrumentation cost models. *)

val text_get : t -> int -> Insn.t option
val text_set : t -> int -> Insn.t -> unit
val text_load : t -> base:int -> Insn.t array -> unit

val text_fold : (int -> Insn.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every loaded instruction, in no particular order. *)

val text_count : t -> int
(** Number of loaded instruction slots. *)

val text_write : t -> int -> Insn.t -> unit
(** A {e run-time} code write ([Emit]): also marks the address in
    [written_text]. *)

val text_was_written : t -> int -> bool

val bp_set : t -> int -> unit
val bp_clear : t -> int -> unit
val bp_is_set : t -> int -> bool

val fork : t -> id:int -> t
(** COW-share every frame; the basis of cheap checkpoints. *)

val release : t -> unit

val pss : t -> float
(** Proportional set size in bytes (each frame counts size/refs). *)

val mapped_bytes : t -> int
