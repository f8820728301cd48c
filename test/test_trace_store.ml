(* Tests for the chunk-indexed trace store: the versioned on-disk
   format, the lazy Reader cursor, and checkpoint re-seeking. *)

module W = Workload

let small_cp () = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 64 } ()

let small_samba () =
  Wl_samba.make
    ~params:
      { Wl_samba.echoes = 8; payload = 64; server_work = 1_500;
        client_work = 800 }
    ()

let with_temp_file f =
  let path = Filename.temp_file "rrtrace" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A synthetic frame stream bulky enough to span many chunks under a
   small [chunk_limit]. *)
let synth_event i =
  match i mod 4 with
  | 0 ->
    Event.E_sched
      { tid = 100 + (i mod 3);
        point =
          { Event.rcb = i * 7;
            point_regs = Array.init 17 (fun r -> (r * i) + 13);
            stack_extra = i } }
  | 1 ->
    Event.E_syscall
      { tid = 100;
        nr = Sysno.read;
        site = 0x1000 + i;
        writable_site = false;
        via_abort = false;
        regs_after = Array.init 17 (fun r -> r + i);
        writes = [ { Event.addr = 0x4000 + i; data = String.make 40 'x' } ];
        kind = Event.K_emulate }
  | 2 -> Event.E_insn_trap { tid = 100; reg = i mod 16; value = i * i }
  | _ -> Event.E_checksum { tid = 100; value = i * 31 }

let synth_trace ?(n = 400) ?(chunk_limit = 512) () =
  let w = Trace.Writer.create ~chunk_limit ~initial_exe:"/bin/x" () in
  for i = 0 to n - 1 do
    ignore (Trace.Writer.event w (synth_event i))
  done;
  Trace.Writer.finish w

(* ---- the chunk index and cursor ------------------------------------- *)

let test_multi_chunk_index () =
  let t = synth_trace () in
  let index = Trace.chunk_index t in
  Alcotest.(check bool)
    (Printf.sprintf "many chunks (%d)" (Array.length index))
    true
    (Array.length index >= 8);
  (* Index entries tile the frame range contiguously. *)
  let next = ref 0 in
  Array.iter
    (fun ci ->
      Alcotest.(check int) "contiguous first_frame" !next ci.Trace.first_frame;
      next := !next + ci.Trace.n_frames)
    index;
  Alcotest.(check int) "index covers all frames" (Trace.n_events t) !next

let test_seek_agrees_with_sequential () =
  let t = synth_trace () in
  let all = Trace.Reader.to_array t in
  let c = Trace.Reader.open_ t in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let i = Random.State.int rng (Array.length all) in
    Trace.Reader.seek c i;
    Alcotest.(check int) "pos after seek" i (Trace.Reader.pos c);
    if Trace.Reader.next c <> all.(i) then
      Alcotest.failf "frame %d differs between seek and sequential decode" i
  done;
  (* Cursor walk from a seek point continues in order. *)
  Trace.Reader.seek c (Array.length all - 5);
  for i = Array.length all - 5 to Array.length all - 1 do
    if Trace.Reader.next c <> all.(i) then Alcotest.failf "tail frame %d" i
  done;
  Alcotest.(check bool) "at_end" true (Trace.Reader.at_end c);
  Alcotest.(check (option reject)) "peek at end" None (Trace.Reader.peek c)

let test_reader_decodes_lazily () =
  let t = synth_trace () in
  let n_chunks = Array.length (Trace.chunk_index t) in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let loaded = Trace.open_exn path in
      Alcotest.(check int) "load inflates no chunk" 0
        (Trace.decoded_chunks loaded);
      ignore (Trace.Reader.frame loaded 0);
      Alcotest.(check int) "first access decodes one chunk" 1
        (Trace.decoded_chunks loaded);
      ignore (Trace.Reader.frame loaded (Trace.n_events loaded - 1));
      Alcotest.(check int) "far seek decodes one more chunk" 2
        (Trace.decoded_chunks loaded);
      (* LRU: re-reading the same frames decodes nothing new. *)
      ignore (Trace.Reader.frame loaded 0);
      ignore (Trace.Reader.frame loaded (Trace.n_events loaded - 1));
      Alcotest.(check int) "cache hits decode nothing" 2
        (Trace.decoded_chunks loaded);
      Alcotest.(check bool) "trace really is multi-chunk" true (n_chunks > 2))

let test_kind_mask_skips_chunks () =
  (* One lone E_patch frame near the end: a masked search must not
     inflate the all-sched chunks before it. *)
  let w = Trace.Writer.create ~chunk_limit:512 ~initial_exe:"/bin/x" () in
  for i = 0 to 299 do
    ignore (Trace.Writer.event w (synth_event (4 * i)))
  done;
  ignore (Trace.Writer.event w (Event.E_patch { tid = 100; site = 0xbeef }));
  let t = Trace.Writer.finish w in
  let mask = Event.kind_bit (Event.E_patch { tid = 0; site = 0 }) in
  let found =
    Trace.Reader.find_from ~kind_mask:mask t 0 (function
      | Event.E_patch _ -> true
      | _ -> false)
  in
  Alcotest.(check (option int)) "patch found" (Some 300) found;
  Alcotest.(check int) "only the patch chunk was inflated" 1
    (Trace.decoded_chunks t)

(* ---- on-disk format -------------------------------------------------- *)

let test_save_load_roundtrip_synthetic () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let loaded = Trace.open_exn path in
      Alcotest.(check int) "frame count" (Trace.n_events t)
        (Trace.n_events loaded);
      Alcotest.(check int) "chunk count"
        (Array.length (Trace.chunk_index t))
        (Array.length (Trace.chunk_index loaded));
      Alcotest.(check bool) "frames identical" true
        (Trace.Reader.to_array t = Trace.Reader.to_array loaded))

let check_format_error what f =
  match f () with
  | exception Trace.Format_error e ->
    let msg = Trace.error_to_string e in
    Alcotest.(check bool)
      (what ^ " error is descriptive: " ^ msg)
      true
      (String.length msg > 0)
  | _ -> Alcotest.failf "%s was accepted" what

let test_load_rejects_bad_magic () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE-at-all-really";
      close_out oc;
      check_format_error "bad magic" (fun () -> Trace.open_exn path))

(* A committed v3 stream whose header record claims format [version]
   (< 128, so its uvarint stays one byte).  Record lengths, CRCs and
   the trailer offset all stay valid: only the version can reject it. *)
let v3_with_header_version version =
  let buf = Buffer.create 4096 in
  (match Trace.save_io (synth_trace ~n:40 ()) (Io.buffer_writer buf) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Trace.error_to_string e));
  let full = Buffer.contents buf in
  (* magic, then 'H' | length (one byte) | payload | crc32 *)
  Alcotest.(check char) "header record first" 'H' full.[8];
  let len = Char.code full.[9] in
  let payload = Bytes.of_string (String.sub full 10 len) in
  Alcotest.(check int) "writer's header version" 4
    (Char.code (Bytes.get payload 0));
  Bytes.set payload 0 (Char.chr version);
  let payload = Bytes.to_string payload in
  let crc = Bytes.create 4 in
  Bytes.set_int32_le crc 0
    (Int32.of_int (Crc32.string ~crc:(Crc32.string "H") payload));
  String.concat ""
    [ String.sub full 0 10;
      payload;
      Bytes.to_string crc;
      String.sub full (14 + len) (String.length full - 14 - len) ]

(* Both the strict loader and salvage must name the version they found,
   as a typed [Version_skew]: never a crash, never a generic error. *)
let check_version_skew what ~found bytes =
  with_temp_file @@ fun path ->
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  let check entry = function
    | Error (Trace.Version_skew { found = f; expected; _ }) ->
      Alcotest.(check int) (Fmt.str "%s: %s found" what entry) found f;
      Alcotest.(check int) (Fmt.str "%s: %s expected" what entry) 4 expected
    | Error e ->
      Alcotest.failf "%s: %s gave %s, not Version_skew" what entry
        (Trace.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: %s accepted it" what entry
  in
  check "open_" (Trace.open_ path);
  check "salvage" (Trace.salvage path)

let test_load_rejects_old_version () =
  let legacy magic = magic ^ String.make 64 '\x00' in
  check_version_skew "RRTRACE1" ~found:1 (legacy "RRTRACE1");
  check_version_skew "RRTRACE2" ~found:2 (legacy "RRTRACE2");
  check_version_skew "v3 header version 3" ~found:3 (v3_with_header_version 3)

let test_load_rejects_future_version () =
  check_version_skew "v3 header version 99" ~found:99
    (v3_with_header_version 99)

let test_load_rejects_truncation () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      (* Cut the file at several depths: mid-magic, mid-length,
         mid-payload.  Every cut must fail cleanly, never crash. *)
      List.iter
        (fun keep ->
          let oc = open_out_bin path in
          output_string oc (String.sub full 0 keep);
          close_out oc;
          check_format_error
            (Printf.sprintf "truncation at %d" keep)
            (fun () -> Trace.open_exn path))
        [ 4; 12; 40; String.length full / 2; String.length full - 1 ])

let test_corrupt_chunk_detected_lazily () =
  let t = synth_trace () in
  let original = Trace.Reader.to_array t in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let full =
        In_channel.with_open_bin path In_channel.input_all
      in
      (* Flip single bytes at several depths in the chunk stream.  The
         index stays valid, so open succeeds; the damage must surface as
         a Format_error when the covering chunk is decoded (a flip can
         also land in deflate padding bits and change nothing — that is
         why several offsets are probed and one detection suffices). *)
      let detected = ref 0 in
      List.iter
        (fun frac ->
          let b = Bytes.of_string full in
          let off = Bytes.length b * frac / 10 in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
          let oc = open_out_bin path in
          output_bytes oc b;
          close_out oc;
          match Trace.open_exn path with
          | exception Trace.Format_error _ -> incr detected
          | loaded -> (
            match Trace.Reader.to_array loaded with
            | exception Trace.Format_error _ -> incr detected
            | frames -> if frames <> original then incr detected))
        [ 3; 4; 5; 6; 7; 8; 9 ];
      Alcotest.(check bool)
        (Printf.sprintf "corruption detected (%d/7 flips)" !detected)
        true (!detected >= 5))

(* ---- durability: versions, integrity, salvage ------------------------ *)

(* Every chunk of a loaded v3 trace carries the CRC of its stored
   bytes, and a flipped stored byte fails it at open, naming the
   chunk. *)
let test_v3_chunk_crcs () =
  let t = synth_trace () in
  let buf = Buffer.create 65536 in
  (match Trace.save_io t (Io.buffer_writer buf) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Trace.error_to_string e));
  let full = Buffer.contents buf in
  let loaded =
    match Trace.open_io (Io.string_reader full) with
    | Ok l -> l
    | Error e -> Alcotest.fail (Trace.error_to_string e)
  in
  Array.iteri
    (fun i ci ->
      Alcotest.(check int)
        (Printf.sprintf "chunk %d CRC" i)
        (Crc32.string (Trace.chunk_stored loaded i))
        ci.Trace.crc32)
    (Trace.chunk_index loaded);
  (* The last byte of the first chunk record's stored bytes sits just
     before its 4-byte record CRC; flipping it leaves the framing
     intact. *)
  let first = (Trace.chunk_index loaded).(0) in
  let stored = Trace.chunk_stored loaded 0 in
  let off =
    let rec find from =
      let i = String.index_from full from stored.[0] in
      if String.sub full i first.Trace.stored_len = stored then i
      else find (i + 1)
    in
    find 8 + first.Trace.stored_len - 1
  in
  let damaged = Bytes.of_string full in
  Bytes.set damaged off (Char.chr (Char.code full.[off] lxor 0x01));
  match Trace.open_io (Io.string_reader (Bytes.to_string damaged)) with
  | Error (Trace.Chunk_crc 0) -> ()
  | Error e ->
    Alcotest.failf "flip gave %s, not Chunk_crc 0" (Trace.error_to_string e)
  | Ok _ -> Alcotest.fail "flipped chunk byte went undetected"

let test_salvage_intact () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      match Trace.salvage path with
      | Error e ->
        Alcotest.failf "salvage of an intact trace failed: %s"
          (Trace.error_to_string e)
      | Ok (s, report) ->
        Alcotest.(check bool) "committed" true report.Trace.sr_committed;
        Alcotest.(check (option string)) "no damage" None
          report.Trace.sr_damage;
        Alcotest.(check int) "all chunks recovered"
          (Array.length (Trace.chunk_index t))
          report.Trace.sr_chunks_recovered;
        Alcotest.(check bool) "frames identical" true
          (Trace.Reader.to_array t = Trace.Reader.to_array s))

(* Truncate [t]'s saved bytes at each of [cuts] (given the full length
   and the trailer offset) and salvage: every cut is uncommitted and
   yields a prefix of the original frames, replayed when [replay].
   Returns each cut's recovered frame count. *)
let check_truncated_prefixes ~replay t cuts =
  let original = Trace.Reader.to_array t in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length full in
      let trailer = Int64.to_int (String.get_int64_le full (len - 16)) in
      List.map
        (fun cut ->
          let oc = open_out_bin path in
          output_string oc (String.sub full 0 cut);
          close_out oc;
          match Trace.salvage path with
          | Error e ->
            Alcotest.failf "cut at %d unsalvageable: %s" cut
              (Trace.error_to_string e)
          | Ok (s, report) ->
            Alcotest.(check bool) "footer gone: uncommitted" false
              report.Trace.sr_committed;
            let frames = Trace.Reader.to_array s in
            Alcotest.(check bool) "no more frames than the original" true
              (Array.length frames <= Array.length original);
            Array.iteri
              (fun i e ->
                if e <> original.(i) then
                  Alcotest.failf "cut at %d: frame %d differs" cut i)
              frames;
            (if replay && frames <> [||] then
               match Replayer.replay s with
               | (_ : Replayer.stats * Kernel.t) -> ()
               | exception Replayer.Divergence m ->
                 Alcotest.failf "cut at %d: salvaged prefix diverges: %s" cut m);
            Array.length frames)
        (cuts ~len ~trailer))

let test_salvage_truncated_prefix () =
  ignore
    (check_truncated_prefixes ~replay:false (synth_trace ())
       (fun ~len ~trailer:_ -> List.map (fun frac -> len * frac / 10) [ 3; 5; 8 ])
      : int list);
  (* A real recording, cut early in the record stream, one byte into the
     last record before the trailer (its chunk is dropped), and at the
     trailer offset (every record intact, commit footer gone — what a
     writer killed between flush and finish leaves); each salvaged
     prefix must replay. *)
  let recd, _ = W.record (small_samba ()) in
  match
    check_truncated_prefixes ~replay:true recd.W.trace (fun ~len:_ ~trailer ->
        [ max 9 (35 * trailer / 100); trailer - 1; trailer ])
  with
  | [ _; _; at_trailer ] ->
    Alcotest.(check int) "a cut at the trailer keeps every frame"
      (Trace.n_events recd.W.trace) at_trailer
  | _ -> assert false

let test_restore_rejects_mismatched_trace () =
  let recd, _ = W.record (small_cp ()) in
  let trace = recd.W.trace in
  let r = Replayer.start trace in
  let third = Trace.n_events trace / 3 in
  while Replayer.cursor_index r < third do
    ignore (Replayer.step r)
  done;
  let snap = Replayer.snapshot r in
  let other = synth_trace () in
  match Replayer.restore other snap with
  | Error e ->
    Alcotest.(check bool) "mismatch is descriptive" true
      (String.length (Replayer.restore_error_to_string e) > 0)
  | Ok _ -> Alcotest.fail "restore accepted a mismatched trace"

(* ---- checkpoints over the cursor ------------------------------------- *)

let test_checkpoint_restore_after_seek () =
  let recd, _ = W.record (small_cp ()) in
  let trace = recd.W.trace in
  let r = Replayer.start trace in
  let third = Trace.n_events trace / 3 in
  while Replayer.cursor_index r < third do
    ignore (Replayer.step r)
  done;
  let snap = Replayer.snapshot r in
  while not (Replayer.at_end r) do
    ignore (Replayer.step r)
  done;
  let full = Replayer.stats_of r in
  (* Restore re-seeks the trace cursor through the chunk index and the
     replay must land on the identical exit. *)
  let r2 = Replayer.restore_exn trace snap in
  Alcotest.(check int) "restored cursor position" third
    (Replayer.cursor_index r2);
  while not (Replayer.at_end r2) do
    ignore (Replayer.step r2)
  done;
  Alcotest.(check (option int)) "restored replay reaches the same exit"
    full.Replayer.exit_status (Replayer.stats_of r2).Replayer.exit_status

let suites =
  [ ( "trace.store",
      [ Alcotest.test_case "multi-chunk index" `Quick test_multi_chunk_index;
        Alcotest.test_case "seek agrees with sequential decode" `Quick
          test_seek_agrees_with_sequential;
        Alcotest.test_case "lazy chunk decoding + LRU" `Quick
          test_reader_decodes_lazily;
        Alcotest.test_case "kind mask skips chunks" `Quick
          test_kind_mask_skips_chunks ] );
    ( "trace.format",
      [ Alcotest.test_case "save/load roundtrip" `Quick
          test_save_load_roundtrip_synthetic;
        Alcotest.test_case "bad magic rejected" `Quick
          test_load_rejects_bad_magic;
        Alcotest.test_case "v1 traces rejected" `Quick
          test_load_rejects_old_version;
        Alcotest.test_case "future version rejected" `Quick
          test_load_rejects_future_version;
        Alcotest.test_case "truncation rejected" `Quick
          test_load_rejects_truncation;
        Alcotest.test_case "corrupt chunk detected lazily" `Quick
          test_corrupt_chunk_detected_lazily ] );
    ( "trace.durability",
      [ Alcotest.test_case "v3 traces load crc-checked" `Quick
          test_v3_chunk_crcs;
        Alcotest.test_case "salvage of an intact trace is lossless" `Quick
          test_salvage_intact;
        Alcotest.test_case "salvage of a truncated trace is a prefix" `Quick
          test_salvage_truncated_prefix;
        Alcotest.test_case "restore rejects a mismatched trace" `Quick
          test_restore_rejects_mismatched_trace ] );
    ( "trace.checkpoint",
      [ Alcotest.test_case "restore re-seeks the cursor" `Quick
          test_checkpoint_restore_after_seek ] ) ]
