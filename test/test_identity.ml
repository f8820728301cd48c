(* The replay-identity matrix: every way of recording must replay
   byte-identically (iReplayer's identical-replay property; the paper's
   core promise, §2).  One enumerated suite states it once:

     workload  cp, make, octane, htmltest, sambatest, serve
   x chaos     off, on
   x sink      memory -> save/open_, Sink_file journal, roomy Sink_ring,
               Sink_repo -> Repo.load_trace
   x index     off, on -> save -> cold open_

   plus serve's per-connection shards.  A QCheck seed dimension on a
   fixed random state picks the recording seeds, so every cell runs on
   every [dune runtest].

   Each workload row records once into memory (the plain recording and
   its reference replay), then once more per streaming sink.  Every cell
   asserts that its frames equal the plain recording's, that replay (the
   recording carries memory checksums, so replay verifies them) applies
   every frame, and that the exit status and the per-process
   [Checksum.space] digests sampled through replay equal the reference
   replay's.  Index-on cells also require a cold seek to restore a
   durable checkpoint and the indexed [Debugger.Query] answers to equal
   a [use_index:false] session's. *)

module W = Workload

(* ---- the workloads ---------------------------------------------------- *)

(* Small parameter sets keep the whole matrix inside one test run. *)
let workloads =
  [ ("cp", fun () -> Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 64 } ());
    ( "make",
      fun () ->
        Wl_make.make
          ~params:
            { Wl_make.jobs = 2; compiles = 4; src_kb = 8; compile_work = 2_000 }
          () );
    ( "octane",
      fun () ->
        Wl_octane.make
          ~params:
            { Wl_octane.threads = 2; iters = 40; calls_per_emit = 40;
              crunch = 500 }
          () );
    ( "htmltest",
      fun () ->
        Wl_htmltest.make
          ~params:
            { Wl_htmltest.tests = 10; layout_work = 2_000;
              harness_work = 1_000; jit_every = 2 }
          () );
    ( "sambatest",
      fun () ->
        Wl_samba.make
          ~params:
            { Wl_samba.echoes = 8; payload = 64; server_work = 1_500;
              client_work = 800 }
          () );
    ( "serve",
      fun () ->
        Wl_serve.make
          ~params:{ Wl_serve.default with Wl_serve.conns = 2; requests = 2 }
          () ) ]

(* Checksum frames make replay verify memory as it goes; small chunks
   make every sink, the ring and the index span several chunks.  Chaos
   shortens the timeslice so the randomized scheduler has room to
   reorder. *)
let rec_opts ~chaos ~seed sink =
  Recorder.make_opts ~chaos ~seed ~checksum_every:32 ~chunk_limit:256 ~sink
    ?timeslice_rcbs:(if chaos then Some 5_000 else None)
    ()

(* ---- scratch files ---------------------------------------------------- *)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let with_temp_file f =
  let path = Filename.temp_file "rr_identity" ".trace" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () -> f path

let with_temp_repo f =
  let dir = Filename.temp_file "rr_identity" ".repo" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  match Repo.init dir with
  | Ok r -> f r
  | Error e -> Alcotest.failf "repo init: %a" Repo.pp_error e

let repo_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Repo.pp_error e

let save_and_open trace =
  with_temp_file @@ fun path ->
  Trace.save_exn trace path;
  Trace.open_exn path

(* ---- what a replay must reproduce ------------------------------------- *)

type outcome = {
  applied : int;
  exit_status : int option;
  digests : (int * (int * int) list) list;
      (* (frame, [(pid, Checksum.space)] of the live processes) *)
}

let live_digests k =
  Kernel.all_procs k
  |> List.filter (fun (p : Task.process) -> p.Task.exit_code = None)
  |> List.map (fun (p : Task.process) -> (p.Task.pid, Checksum.space p.Task.space))
  |> List.sort compare

(* Replay the whole trace, digesting every live process at each quarter
   of the trace and at the end.  Digests cost more than the replay, so
   they are sampled; the recording's checksum frames verify memory in
   between. *)
let replay_outcome ~what trace =
  let n = Trace.n_events trace in
  let every = max 1 (n / 4) in
  let i = ref 0 and digests = ref [] in
  let on_frame k =
    incr i;
    if !i mod every = 0 || !i = n then digests := (!i, live_digests k) :: !digests
  in
  match Replayer.replay ~on_frame trace with
  | st, _ ->
    { applied = st.Replayer.events_applied;
      exit_status = st.Replayer.exit_status;
      digests = List.rev !digests }
  | exception Replayer.Divergence m -> Alcotest.failf "%s: diverged: %s" what m

type reference = { frames : Event.t array; replay : outcome }

let check_frames ~what (r : reference) trace =
  let frames = Trace.Reader.to_array trace in
  Alcotest.(check int) (what ^ ": frame count") (Array.length r.frames)
    (Array.length frames);
  Array.iteri
    (fun i e ->
      if e <> r.frames.(i) then
        Alcotest.failf "%s: frame %d differs from the plain recording" what i)
    frames

let check_cell ~what (r : reference) trace =
  check_frames ~what r trace;
  let o = replay_outcome ~what trace in
  Alcotest.(check int) (what ^ ": replay applies every frame")
    (Array.length r.frames) o.applied;
  Alcotest.(check (option int)) (what ^ ": exit status")
    r.replay.exit_status o.exit_status;
  if o.digests <> r.replay.digests then
    Alcotest.failf "%s: process digests differ from the reference replay" what

(* ---- the index dimension ---------------------------------------------- *)

let counter name = Telemetry.counter_value (Telemetry.counter name)

let span_count snap name =
  match List.assoc_opt name snap.Telemetry.snap_spans with
  | Some s -> s.Telemetry.s_count
  | None -> 0

(* Index the cell's trace, save it, reopen it cold, and hold the cold
   trace to the same identity as the unindexed one.  Then: a seek to the
   last frame restores a durable checkpoint instead of replaying from
   frame 0, and indexed answers equal a scan-only session's. *)
let check_indexed_cell ~what r trace =
  let n = Trace.n_events trace in
  let base = Telemetry.snapshot () in
  (* Durable checkpoints at both ends and mid-trace: few blobs to encode,
     while the sessions' cheap live checkpoints keep query seeks short. *)
  ignore
    (Trace_indexer.build_and_attach ~checkpoint_every:(max 1 (n / 2)) trace
      : Trace_index.t);
  Alcotest.(check bool) (what ^ ": index.build_time span ran") true
    (span_count (Telemetry.since base) "index.build_time" > 0);
  let cold = save_and_open trace in
  Alcotest.(check bool) (what ^ ": reopened trace carries its index") true
    (Trace.index cold <> None);
  check_cell ~what r cold;
  let hits0 = counter "index.hit" in
  let restores0 = counter "replay.checkpoint_restore" in
  let session use_index =
    Debugger.create
      ~opts:(Debugger.make_opts ~checkpoint_every:16 ~use_index ())
      cold
  in
  let d = session true in
  Debugger.seek d (n - 1);
  Alcotest.(check bool)
    (what ^ ": cold seek used a durable checkpoint")
    true
    (counter "index.hit" > hits0 && counter "replay.checkpoint_restore" > restores0);
  let d0 = session false in
  Debugger.seek d0 (n - 1);
  let same q a b =
    Alcotest.(check (option int)) (Printf.sprintf "%s: %s" what q) b a
  in
  let pcs =
    Array.to_seq r.frames |> Seq.filter_map Event.frame_pc |> List.of_seq
    |> List.sort_uniq compare
  in
  List.iteri
    (fun i pc ->
      if i < 8 then
        same
          (Printf.sprintf "prev_exec %#x" pc)
          (Result.get_ok (Debugger.Query.prev_exec d ~pc))
          (Result.get_ok (Debugger.Query.prev_exec d0 ~pc)))
    pcs;
  let root =
    match r.frames.(0) with
    | Event.E_exec { tid; _ } -> tid
    | e -> Event.tid_of e
  in
  List.iter
    (fun addr ->
      same
        (Printf.sprintf "last_write %#x" addr)
        (Result.get_ok (Debugger.Query.last_write d ~tid:root ~addr ~len:8))
        (Result.get_ok (Debugger.Query.last_write d0 ~tid:root ~addr ~len:8)))
    [ 0x120000; 0x121000; 0x10000 ];
  Debugger.seek d (n / 2);
  let mid = Debugger.clock d in
  same "seek_to_time"
    (Result.to_option (Debugger.Query.seek_to_time d mid))
    (Result.to_option (Debugger.Query.seek_to_time d0 mid))

(* ---- one workload row ------------------------------------------------- *)

(* Record through [sink] and return what that sink kept. *)
let record_via ~chaos ~seed (w : W.t) sink =
  let recd, _ = W.record ~opts:(rec_opts ~chaos ~seed sink) w in
  recd

let check_row ~seed (name, mk) =
  let w = mk () in
  let base = W.baseline w in
  Alcotest.(check (option int)) (name ^ ": baseline exits 0") (Some 0)
    base.W.exit_status;
  List.iter
    (fun chaos ->
      let row = Printf.sprintf "%s seed=%d chaos=%b" name seed chaos in
      let plain = record_via ~chaos ~seed w Recorder.Sink_memory in
      Alcotest.(check (option int)) (row ^ ": recorded exit = baseline")
        base.W.exit_status plain.W.rec_stats.Recorder.exit_status;
      let reference =
        { frames = Trace.Reader.to_array plain.W.trace;
          replay = replay_outcome ~what:row plain.W.trace }
      in
      Alcotest.(check (option int)) (row ^ ": replayed exit = baseline")
        base.W.exit_status reference.replay.exit_status;
      let file () =
        with_temp_file @@ fun path ->
        ignore (record_via ~chaos ~seed w (Recorder.Sink_file path));
        Trace.open_exn path
      in
      let ring () =
        let ring = Trace.ring ~chunks:4096 in
        ignore (record_via ~chaos ~seed w (Recorder.Sink_ring ring));
        let window, report = Trace.ring_trace ring in
        Alcotest.(check int) (row ^ " ring: no drops") 0
          report.Trace.rr_dropped_chunks;
        Alcotest.(check int) (row ^ " ring: window starts at 0") 0
          report.Trace.rr_base_frame;
        window
      in
      let repo () =
        with_temp_repo @@ fun repo ->
        ignore (record_via ~chaos ~seed w (Recorder.Sink_repo (repo, name)));
        repo_ok "load" (Repo.load_trace repo ~name)
      in
      List.iter
        (fun (sink, trace) ->
          let what = Printf.sprintf "%s sink=%s" row sink in
          let trace = trace () in
          check_cell ~what:(what ^ " index=off") reference trace;
          (* Indexing attaches to the trace it is given, so it runs
             after the unindexed cell. *)
          check_indexed_cell ~what:(what ^ " index=on") reference trace)
        [ ("memory", fun () -> save_and_open plain.W.trace);
          ("file", file);
          ("ring", ring);
          ("repo", repo) ])
    [ false; true ]

(* ---- serve's per-connection shards ------------------------------------ *)

(* The replayed state a shard must reproduce exactly: one task's
   registers plus its address-space digest. *)
let task_digest k tid =
  match Kernel.find_task k tid with
  | None -> None
  | Some t ->
    Some (Checksum.space t.Task.cpu.Cpu.space, Array.copy t.Task.cpu.Cpu.regs)

let replay_through trace upto =
  let r = Replayer.start trace in
  while Replayer.cursor_index r <= upto && not (Replayer.at_end r) do
    ignore (Replayer.step r)
  done;
  r

(* Record serve with the connection tracker attached, split it into a
   throwaway repository, and hold every shard to the full trace: live
   tags equal the offline derivation, the catalog lists the split
   result, each reloaded shard equals its in-memory extraction, shrinks,
   replays to its end, and reproduces the full replay's worker and
   client state at a mid-stream frame of its connection. *)
let check_shards ~chaos ~seed =
  let what = Printf.sprintf "serve shards seed=%d chaos=%b" seed chaos in
  let w =
    Wl_serve.make ~params:{ Wl_serve.default with Wl_serve.conns = 4; requests = 6 } ()
  in
  let base = Telemetry.snapshot () in
  let ct = Conn_track.create () in
  let trace, _, _ =
    Recorder.record ~opts:(rec_opts ~chaos ~seed Recorder.Sink_memory)
      ~on_event:(Conn_track.observe ct) ~setup:w.W.setup ~exe:w.W.exe ()
  in
  let tags = Conn_track.tags ct in
  Alcotest.(check bool) (what ^ ": live tags = offline derivation") true
    (tags = Conn_track.tags (Conn_track.derive trace));
  let conns = Conn_track.connections ct in
  Alcotest.(check int) (what ^ ": connections") 4 (List.length conns);
  Alcotest.(check int) (what ^ ": requests") 24 (Conn_track.requests ct);
  List.iter
    (fun (i : Conn_track.info) ->
      if i.Conn_track.client_tid < 0 || i.Conn_track.worker_tid < 0 then
        Alcotest.failf "%s: connection %d lacks a client or worker" what
          i.Conn_track.conn)
    conns;
  with_temp_repo @@ fun repo ->
  ignore (repo_ok "store" (Repo.store_trace repo ~name:"serve" trace));
  let res = repo_ok "split" (Shard.split ~repo ~base:"serve" ~tags trace) in
  Alcotest.(check bool) (what ^ ": catalog lists the split") true
    (repo_ok "list" (Shard.list repo ~base:"serve") = res.Shard.shards);
  let moved = Telemetry.since base in
  List.iter
    (fun c ->
      Alcotest.(check bool) (what ^ ": " ^ c ^ " moved") true
        (List.assoc_opt c moved.Telemetry.snap_counters
         |> Option.value ~default:0 > 0))
    [ "shard.frames_tagged"; "shard.shards_written"; "shard.bytes_shared";
      "serve.requests" ];
  (* Each connection's mid-stream frame, and its tasks' state there in
     one full-trace replay pass (ascending frames). *)
  let targets =
    List.map
      (fun (i : Conn_track.info) ->
        let own = ref [] in
        Array.iteri (fun k t -> if t = i.Conn_track.conn then own := k :: !own) tags;
        let own = Array.of_list (List.rev !own) in
        if own = [||] then
          Alcotest.failf "%s: connection %d owns no frames" what i.Conn_track.conn;
        (own.(Array.length own / 2), i))
      conns
    |> List.sort compare
  in
  let full = Replayer.start trace in
  List.iter
    (fun (i_star, (i : Conn_track.info)) ->
      let c = i.Conn_track.conn in
      while Replayer.cursor_index full <= i_star do
        ignore (Replayer.step full)
      done;
      let k = Replayer.kernel full in
      let worker = task_digest k i.Conn_track.worker_tid in
      let client = task_digest k i.Conn_track.client_tid in
      let shard = repo_ok "load" (Shard.load repo ~base:"serve" ~conn:c) in
      let extracted, orig = Shard.extract ~tags ~conn:c trace in
      Alcotest.(check bool)
        (Printf.sprintf "%s: conn %d shard = its extraction" what c)
        true
        (Trace.Reader.to_array shard = Trace.Reader.to_array extracted);
      Alcotest.(check bool)
        (Printf.sprintf "%s: conn %d shard shrinks" what c)
        true
        (Trace.n_events shard < Trace.n_events trace);
      let j_star = ref (-1) in
      Array.iteri (fun j o -> if o = i_star then j_star := j) orig;
      let r = replay_through shard !j_star in
      let k = Replayer.kernel r in
      if task_digest k i.Conn_track.worker_tid <> worker then
        Alcotest.failf "%s: conn %d worker state differs from the full replay"
          what c;
      if task_digest k i.Conn_track.client_tid <> client then
        Alcotest.failf "%s: conn %d client state differs from the full replay"
          what c;
      match Replayer.replay shard with
      | (_ : Replayer.stats * Kernel.t) -> ()
      | exception Replayer.Divergence m ->
        Alcotest.failf "%s: conn %d diverged: %s" what c m)
    targets

(* ---- the suite -------------------------------------------------------- *)

(* The seed dimension: each row's recording seed is drawn from a random
   state fixed per row, so every run replays the same cells.  One seed
   per row keeps the matrix within the tier-1 time budget.  No shrinker
   — a failing seed is reported as drawn. *)
let seeds = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000)

let seeded ~name prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Hashtbl.hash name |])
    (QCheck.Test.make ~name ~count:1 seeds (fun seed ->
         prop seed;
         true))

let suites =
  [ ( "identity",
      List.map
        (fun ((name, _) as wl) -> seeded ~name (fun seed -> check_row ~seed wl))
        workloads
      @ [ seeded ~name:"serve shards" (fun seed ->
              check_shards ~chaos:false ~seed;
              check_shards ~chaos:true ~seed) ] ) ]
