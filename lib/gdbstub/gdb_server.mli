(** The GDB remote-protocol stub: maps RSP commands onto a replay
    {!Debugger} session (paper §1, §6.1 — reverse-execution debugging
    is rr's headline application).

    Supported commands and their Debugger mapping (the full table lives
    in DESIGN.md §4f):

    - [qSupported], [QStartNoAckMode], [?], [qC], [qAttached]
    - [g] / [p n] — {!Debugger.regs} of the current thread
    - [m addr,len] — {!Debugger.read_mem}; [E03] on unmapped addresses
    - [c] / [s] — forward continue / one-frame step
    - [bc] / [bs] — reverse continue / step via checkpoint restore
    - [Z0/z0 addr] — software breakpoints, a pc-match table kept here
      (frames are the time axis, so a hit is "a frame whose recorded
      registers land on addr")
    - [Z2..Z4/z2..z4 addr,len] — watchpoints; reverse hits resolve
      through {!Debugger.Query.last_write}, forward hits through sampling
    - [H], [T tid], [qfThreadInfo]/[qsThreadInfo] — threads from
      {!Debugger.live_tids}; stop replies carry [thread:<tid>;]
    - [qRcmd,<hex>] — monitor commands [checkpoint], [restart N],
      [when], [stats]
    - [D] / [k] — detach / kill (both end the session; replay state
      stays valid)

    Stop replies: [T05thread:t;] (plain stop), [T05swbreak:;thread:t;],
    [T05watch:a;thread:t;], [T05replaylog:begin;thread:t;] when reverse
    execution exhausts the trace (frame 0 — never a hang),
    [T05replaylog:end;thread:t;] at the trace end without an exit
    frame, and [Wxx] when the recorded process exited.

    Telemetry: counts [gdb.packets] and [gdb.reverse_seeks], times
    every dispatch under the [gdb.cmd] span. *)

type t

val create : ?rle:bool -> Debugger.t -> Gdb_transport.t -> t
(** Serve [d] over the transport.  [rle] (default true) run-length
    encodes replies. *)

val pump : t -> unit
(** Process every packet currently available on the transport and
    return.  This is the drive mode for the in-memory transport: the
    scripted client pumps the server between its own polls. *)

val run : t -> unit
(** Serve until detach/kill or transport EOF — the drive mode for
    blocking (socket) transports.  On a drained non-blocking transport
    this returns instead of spinning. *)

val finished : t -> bool
(** The client detached ([D]) or killed ([k]) the session. *)

val debugger : t -> Debugger.t

val frame_pc : Event.t -> int option
(** The program counter a frame's recorded registers land on — the
    breakpoint-match key used by [c]/[bc] scans.  Exposed so tests can
    compute expected stop positions from trace data. *)
