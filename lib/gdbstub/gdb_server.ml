(* The RSP command dispatcher over a Debugger session (see the mli for
   the command table).  One invariant matters throughout: every command
   gets exactly one reply, and reverse execution that runs out of trace
   answers with a replaylog:begin stop — never silence — so a client can
   not hang on a frame-0 edge. *)

module E = Event
module P = Gdb_packet
module T = Gdb_transport

let tm_packets = Telemetry.counter "gdb.packets"
let tm_reverse = Telemetry.counter "gdb.reverse_seeks"

type watch = {
  w_kind : int; (* 2 = write, 3 = read, 4 = access (the Z number) *)
  w_addr : int;
  w_len : int;
  w_tid : int; (* address spaces are per-task: sample in this one *)
  mutable w_last : bytes option; (* sample at the last stop *)
}

type t = {
  conn : P.conn;
  dbg : Debugger.t;
  bps : (int, unit) Hashtbl.t; (* pc -> () *)
  mutable watches : watch list;
  mutable cur_thread : int;
  mutable checkpoints : (int * int) list; (* monitor id -> frame *)
  mutable next_cp : int;
  mutable finished : bool;
}

(* The pc a frame's recorded registers land on: the breakpoint-match
   key.  Frames that carry no register image (buffer flushes, patches,
   bookkeeping) can never match a breakpoint.  This is the event layer's
   notion now (the trace index is keyed by it); re-exported for the
   tests. *)
let frame_pc = E.frame_pc

let create ?(rle = true) dbg tr =
  let cur_thread =
    match Debugger.live_tids dbg with
    | tid :: _ -> tid
    | [] ->
      if Debugger.n_events dbg > 0 then E.tid_of (Debugger.frame dbg 0) else 0
  in
  { conn = P.conn ~rle tr;
    dbg;
    bps = Hashtbl.create 8;
    watches = [];
    cur_thread;
    checkpoints = [];
    next_cp = 1;
    finished = false }

let finished t = t.finished
let debugger t = t.dbg

(* ---- stop replies ---------------------------------------------------- *)

type stop =
  | Plain
  | Swbreak
  | Watch of int
  | Log_begin
  | Log_end
  | Exited of int

let stop_reply t = function
  | Plain -> Printf.sprintf "T05thread:%x;" t.cur_thread
  | Swbreak -> Printf.sprintf "T05swbreak:;thread:%x;" t.cur_thread
  | Watch addr -> Printf.sprintf "T05watch:%x;thread:%x;" addr t.cur_thread
  | Log_begin -> Printf.sprintf "T05replaylog:begin;thread:%x;" t.cur_thread
  | Log_end -> Printf.sprintf "T05replaylog:end;thread:%x;" t.cur_thread
  | Exited st -> Printf.sprintf "W%02x" (st land 0xff)

let end_of_trace_stop t =
  match Debugger.exit_status t.dbg with
  | Some st -> Exited st
  | None -> Log_end

(* ---- watchpoint sampling --------------------------------------------- *)

let sample_watch t w =
  try Some (Debugger.read_mem t.dbg w.w_tid w.w_addr w.w_len)
  with Debugger.Debug_error _ -> None

let refresh_watches t =
  List.iter (fun w -> w.w_last <- sample_watch t w) t.watches

(* The watch that changed relative to its last stop sample, if any. *)
let changed_watch t =
  List.find_opt
    (fun w ->
      let now = sample_watch t w in
      match (w.w_last, now) with
      | Some a, Some b -> not (Bytes.equal a b)
      | None, Some _ | Some _, None -> false (* map/unmap is not a write *)
      | None, None -> false)
    t.watches

(* ---- resume ---------------------------------------------------------- *)

let bp_hit t e =
  Hashtbl.length t.bps > 0
  &&
  match frame_pc e with Some pc -> Hashtbl.mem t.bps pc | None -> false

(* Forward continue: step frames until a breakpoint pc, a watched-region
   change, or the end of the trace. *)
let resume_forward t ~single =
  let d = t.dbg in
  if Debugger.at_end d then end_of_trace_stop t
  else begin
    refresh_watches t;
    let stop = ref None in
    let continue_ = ref true in
    while !continue_ do
      let e = Debugger.step d in
      t.cur_thread <- E.tid_of e;
      (match changed_watch t with
      | Some w ->
        refresh_watches t;
        stop := Some (Watch w.w_addr)
      | None -> if bp_hit t e then stop := Some Swbreak);
      continue_ :=
        !stop = None && (not single) && not (Debugger.at_end d)
    done;
    match !stop with
    | Some s -> s
    | None -> if Debugger.at_end d then end_of_trace_stop t else Plain
  end

(* Reverse continue/step: checkpoint restore under the hood (the
   Debugger's seek does that), stop placement decided here.

   Breakpoint candidate: the latest frame before the current hit whose
   recorded pc matches — Query.prev_exec per breakpoint pc (index-backed
   when the trace carries one), maximized — and we land just after it.
   Watch candidate: Query.last_write gives the latest frame that wrote
   the region; we land *at* it, so the reverse stop shows the value
   before the write (the write has been "undone", rr semantics).  The
   candidate closest to the current position wins.  No candidate: land
   on frame 0 with a replaylog:begin stop, position pinned — never a
   hang. *)
let resume_reverse t ~single =
  let d = t.dbg in
  Telemetry.incr tm_reverse;
  Timeline.instant "gdb.reverse";
  let pos = Debugger.pos d in
  if pos = 0 then Log_begin
  else if single then begin
    Debugger.reverse_step d;
    let p = Debugger.pos d in
    if p > 0 then t.cur_thread <- E.tid_of (Debugger.frame d (p - 1));
    Plain
  end
  else begin
    (* [~before:(pos - 1)] skips a breakpoint hit at the current stop
       (frame [pos - 1]) — gdb reverse-continue semantics. *)
    let prev_exec pc =
      match Debugger.Query.prev_exec d ~before:(pos - 1) ~pc with
      | Ok r -> r
      | Error _ -> None
    in
    let last_write w =
      match Debugger.Query.last_write d ~tid:w.w_tid ~addr:w.w_addr ~len:w.w_len with
      | Ok r -> r
      | Error _ -> None
    in
    let bp_cand =
      Hashtbl.fold
        (fun pc () acc ->
          match prev_exec pc with
          | Some i when (match acc with Some (j, _) -> i + 1 > j | None -> true) ->
            Some (i + 1, Swbreak)
          | _ -> acc)
        t.bps None
    in
    let watch_cand =
      List.filter_map
        (fun w -> last_write w |> Option.map (fun i -> (i, Watch w.w_addr)))
        t.watches
      |> List.fold_left
           (fun acc c ->
             match acc with
             | Some (i, _) when i >= fst c -> acc
             | _ -> Some c)
           None
    in
    let best =
      match (bp_cand, watch_cand) with
      | Some (a, _), Some (b, _) -> if a >= b then bp_cand else watch_cand
      | (Some _ as c), None | None, (Some _ as c) -> c
      | None, None -> None
    in
    match best with
    | Some (target, reason) ->
      Debugger.seek d target;
      let anchor = if target > 0 then target - 1 else 0 in
      (match reason with
      | Watch _ ->
        (* landing *at* the writing frame: it is the next to apply *)
        t.cur_thread <- E.tid_of (Debugger.frame d target)
      | _ -> t.cur_thread <- E.tid_of (Debugger.frame d anchor));
      refresh_watches t;
      reason
    | None ->
      Debugger.seek d 0;
      refresh_watches t;
      Log_begin
  end

(* ---- monitor commands (qRcmd) ---------------------------------------- *)

let monitor t cmd =
  let reply fmt = Printf.ksprintf (fun s -> P.to_hex (s ^ "\n")) fmt in
  match String.split_on_char ' ' (String.trim cmd) with
  | [ "when" ] -> reply "%d" (Debugger.pos t.dbg)
  | [ "checkpoint" ] ->
    let frame = Debugger.take_checkpoint t.dbg in
    let id = t.next_cp in
    t.next_cp <- id + 1;
    t.checkpoints <- (id, frame) :: t.checkpoints;
    reply "checkpoint %d at frame %d" id frame
  | [ "restart"; n ] -> (
    match int_of_string_opt n with
    | None -> reply "restart: bad checkpoint id %S" n
    | Some id -> (
      match List.assoc_opt id t.checkpoints with
      | None -> reply "restart: no checkpoint %d" id
      | Some frame ->
        if frame < Debugger.pos t.dbg then Telemetry.incr tm_reverse;
        Debugger.seek t.dbg frame;
        refresh_watches t;
        reply "at frame %d" frame))
  | [ "seek"; n ] -> (
    match int_of_string_opt n with
    | None -> reply "seek: bad frame %S" n
    | Some frame -> (
      if frame < Debugger.pos t.dbg then Telemetry.incr tm_reverse;
      match Debugger.Query.seek_to_frame t.dbg frame with
      | Ok () ->
        refresh_watches t;
        reply "at frame %d" frame
      | Error e -> reply "seek: %s" (Debugger.Query.error_to_string e)))
  | [ "seek"; "time"; n ] -> (
    match int_of_string_opt n with
    | None -> reply "seek: bad time %S" n
    | Some time -> (
      match Debugger.Query.seek_to_time t.dbg time with
      | Ok frame ->
        refresh_watches t;
        reply "at frame %d (clock %d)" frame (Debugger.clock t.dbg)
      | Error e -> reply "seek: %s" (Debugger.Query.error_to_string e)))
  | [ "index" ] ->
    if Debugger.indexed t.dbg then
      let n_cps =
        match Trace.index (Debugger.trace t.dbg) with
        | Some ix -> Array.length (Trace_index.checkpoints ix)
        | None -> 0
      in
      reply "index: attached (%d frames, %d durable checkpoints)"
        (Debugger.n_events t.dbg) n_cps
    else reply "index: none (queries fall back to scans)"
  | [ "stats" ] ->
    reply
      "packets=%d reverse_seeks=%d checkpoints=%d restored=%d frames=%d \
       indexed=%b"
      (Telemetry.counter_value tm_packets)
      (Telemetry.counter_value tm_reverse)
      (Debugger.checkpoints_taken t.dbg)
      (Debugger.checkpoints_restored t.dbg)
      (Debugger.n_events t.dbg)
      (Debugger.indexed t.dbg)
  | _ ->
    reply "unknown monitor command %S (try: when checkpoint restart seek index stats)"
      cmd

(* ---- command dispatch ------------------------------------------------ *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let after ~prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix)

let regs_reply t tid =
  match Debugger.regs t.dbg tid with
  | regs, _pc ->
    let b = Buffer.create (16 * Array.length regs) in
    Array.iter (fun v -> Buffer.add_string b (P.hex64_le v)) regs;
    Buffer.contents b
  | exception Debugger.Debug_error _ -> "E01"

let handle_z t payload ~insert =
  (* Z0,addr,kind / Z2,addr,len / … — addr and the trailing field are
     hex; the trailing field is a kind for Z0/Z1 and a length for
     watchpoints. *)
  match String.split_on_char ',' payload with
  | [ ztype; addr_s; len_s ] -> (
    match (P.parse_hex_int addr_s, P.parse_hex_int len_s) with
    | Some addr, Some len -> (
      match ztype with
      | "0" ->
        if insert then Hashtbl.replace t.bps addr ()
        else Hashtbl.remove t.bps addr;
        "OK"
      | "2" | "3" | "4" ->
        let kind = int_of_string ztype in
        if insert then begin
          let w =
            { w_kind = kind;
              w_addr = addr;
              w_len = max 1 len;
              w_tid = t.cur_thread;
              w_last = None }
          in
          w.w_last <- sample_watch t w;
          t.watches <- w :: t.watches
        end
        else
          t.watches <-
            List.filter
              (fun w -> not (w.w_kind = kind && w.w_addr = addr))
              t.watches;
        "OK"
      | _ -> "" (* unsupported breakpoint type *))
    | _ -> "E02")
  | _ -> "E02"

let dispatch t payload =
  let d = t.dbg in
  if payload = "" then ""
  else if starts_with ~prefix:"qSupported" payload then
    "PacketSize=4000;QStartNoAckMode+;swbreak+;ReverseContinue+;ReverseStep+;\
     qXfer:features:read-"
  else if payload = "QStartNoAckMode" then begin
    (* reply still goes out in ack mode; the mode flips after *)
    P.send t.conn "OK";
    P.set_ack_mode t.conn false;
    "" (* already sent *)
  end
  else if payload = "?" then stop_reply t Plain
  else if payload = "qC" then Printf.sprintf "QC%x" t.cur_thread
  else if payload = "qAttached" then "1"
  else if payload = "qfThreadInfo" then begin
    match Debugger.live_tids d with
    | [] -> Printf.sprintf "m%x" t.cur_thread
    | tids ->
      "m"
      ^ String.concat ","
          (List.map (fun tid -> Printf.sprintf "%x" tid) tids)
  end
  else if payload = "qsThreadInfo" then "l"
  else if starts_with ~prefix:"qRcmd," payload then begin
    match P.of_hex (after ~prefix:"qRcmd," payload) with
    | Ok cmd -> monitor t cmd
    | Error _ -> "E02"
  end
  else if payload = "g" then regs_reply t t.cur_thread
  else if starts_with ~prefix:"p" payload then begin
    match P.parse_hex_int (after ~prefix:"p" payload) with
    | Some n -> (
      match Debugger.regs d t.cur_thread with
      | regs, _ when n >= 0 && n < Array.length regs -> P.hex64_le regs.(n)
      | _ -> "E01"
      | exception Debugger.Debug_error _ -> "E01")
    | None -> "E02"
  end
  else if starts_with ~prefix:"m" payload then begin
    match String.split_on_char ',' (after ~prefix:"m" payload) with
    | [ addr_s; len_s ] -> (
      match (P.parse_hex_int addr_s, P.parse_hex_int len_s) with
      | Some addr, Some len when len >= 0 && len <= 0x10000 -> (
        try P.to_hex (Bytes.to_string (Debugger.read_mem d t.cur_thread addr len))
        with Debugger.Debug_error _ -> "E03")
      | _ -> "E02")
    | _ -> "E02"
  end
  else if starts_with ~prefix:"H" payload && String.length payload >= 2 then begin
    match P.parse_hex_int (String.sub payload 2 (String.length payload - 2)) with
    | Some tid when tid > 0 -> (
      match Debugger.task d tid with
      | _ ->
        if payload.[1] = 'g' then t.cur_thread <- tid;
        "OK"
      | exception Debugger.Debug_error _ -> "E01")
    | Some _ -> "OK" (* 0 = any, -1 = all: keep the current thread *)
    | None -> "E02"
  end
  else if starts_with ~prefix:"T" payload then begin
    match P.parse_hex_int (after ~prefix:"T" payload) with
    | Some tid ->
      if List.mem tid (Debugger.live_tids d) then "OK" else "E01"
    | None -> "E02"
  end
  else if payload = "c" then stop_reply t (resume_forward t ~single:false)
  else if payload = "s" then stop_reply t (resume_forward t ~single:true)
  else if payload = "bc" then stop_reply t (resume_reverse t ~single:false)
  else if payload = "bs" then stop_reply t (resume_reverse t ~single:true)
  else if starts_with ~prefix:"Z" payload then
    handle_z t (after ~prefix:"Z" payload) ~insert:true
  else if starts_with ~prefix:"z" payload then
    handle_z t (after ~prefix:"z" payload) ~insert:false
  else if payload = "D" || payload = "k" then begin
    t.finished <- true;
    "OK"
  end
  else "" (* unsupported — gdb falls back *)

let handle t payload =
  Telemetry.incr tm_packets;
  let reply = Timeline.scope "gdb.cmd" (fun () -> dispatch t payload) in
  (* QStartNoAckMode replies inline (mode must flip after the OK) *)
  if not (payload = "QStartNoAckMode") then P.send t.conn reply

let rec pump t =
  if not t.finished then
    match P.poll t.conn with
    | `Packet p ->
      handle t p;
      pump t
    | `Empty | `Eof -> ()

let run t =
  let continue_ = ref true in
  while !continue_ && not t.finished do
    match P.poll t.conn with
    | `Packet p -> handle t p
    | `Empty | `Eof -> continue_ := false
  done
