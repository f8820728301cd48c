(* Tests for the content-addressed trace repository: store/load round
   trips, cross-trace dedup, refcounted gc, and the fault matrix —
   bit-flipped objects, truncated manifests and a crash mid-gc must
   each surface as a typed error or leave a verified-intact repo. *)

let with_temp_repo f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rr_repo_test.%d.%d" (Unix.getpid ()) (Random.bits ()))
  in
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  match Repo.init dir with
  | Ok r -> f dir r
  | Error e -> Alcotest.failf "repo init: %a" Repo.pp_error e

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected repo error: %a" Repo.pp_error e

let small_cp () = Wl_cp.make ~params:{ Wl_cp.files = 2; file_kb = 32 } ()

let record_small ?(files = 2) () =
  let w = Wl_cp.make ~params:{ Wl_cp.files; file_kb = 32 } () in
  let recd, _ = Workload.record w in
  recd.Workload.trace

let frames t = Trace.Reader.to_array t

let list_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (Filename.concat dir)

(* ---- round trip and dedup -------------------------------------------- *)

let test_round_trip () =
  with_temp_repo @@ fun _dir repo ->
  let t = record_small () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"a" t) in
  Alcotest.(check (list string)) "listed" [ "a" ] (Repo.list repo);
  let loaded = ok (Repo.load_trace repo ~name:"a") in
  Alcotest.(check bool) "frames identical" true (frames loaded = frames t);
  Alcotest.(check (option string))
    "initial exe survives"
    (Some (Trace.initial_exe t))
    (Some (Trace.initial_exe loaded));
  ok (Repo.verify repo)

let counter name = Telemetry.counter_value (Telemetry.counter name)

let test_double_store_shares () =
  with_temp_repo @@ fun _dir repo ->
  let t = record_small () in
  let stored0 = counter "repo.objects_stored" in
  let shared0 = counter "repo.objects_shared" in
  let deduped0 = counter "repo.bytes_deduped" in
  let first = ok (Repo.store_trace repo ~name:"a" t) in
  let second = ok (Repo.store_trace repo ~name:"b" t) in
  Alcotest.(check int) "objects_stored counts the first store"
    first.Repo.new_objects
    (counter "repo.objects_stored" - stored0);
  Alcotest.(check int) "objects_shared counts the second store"
    second.Repo.shared_objects
    (counter "repo.objects_shared" - shared0);
  Alcotest.(check bool) "bytes_deduped moved" true
    (counter "repo.bytes_deduped" > deduped0);
  Alcotest.(check bool)
    "first store writes objects" true
    (first.Repo.new_objects > 0);
  Alcotest.(check int) "second store writes none" 0 second.Repo.new_objects;
  Alcotest.(check bool)
    "second store is all shared" true
    (second.Repo.shared_objects = first.Repo.new_objects);
  let s = ok (Repo.stats repo) in
  Alcotest.(check int) "two traces" 2 s.Repo.n_traces;
  Alcotest.(check bool)
    "dedup ratio ~2x" true
    (float_of_int s.Repo.logical_bytes
     /. float_of_int (max 1 s.Repo.object_bytes)
    > 1.9)

(* ---- gc --------------------------------------------------------------- *)

let test_gc_sweeps_unreferenced () =
  with_temp_repo @@ fun _dir repo ->
  let t = record_small () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"a" t) in
  let g = ok (Repo.gc repo) in
  Alcotest.(check int) "nothing to sweep" 0 g.Repo.swept_objects;
  ok (Repo.delete_trace repo ~name:"a");
  let g = ok (Repo.gc repo) in
  Alcotest.(check bool) "orphans swept" true (g.Repo.swept_objects > 0);
  Alcotest.(check int) "none live" 0 g.Repo.live_objects;
  let s = ok (Repo.stats repo) in
  Alcotest.(check int) "objects dir empty" 0 s.Repo.n_objects

let test_gc_keeps_shared () =
  with_temp_repo @@ fun _dir repo ->
  let t = record_small () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"a" t) in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"b" t) in
  ok (Repo.delete_trace repo ~name:"a");
  let g = ok (Repo.gc repo) in
  Alcotest.(check int) "shared objects survive" 0 g.Repo.swept_objects;
  let loaded = ok (Repo.load_trace repo ~name:"b") in
  Alcotest.(check bool) "survivor loads" true (frames loaded = frames t)

(* ---- fault matrix ----------------------------------------------------- *)

let test_bit_flip_object_detected () =
  with_temp_repo @@ fun dir repo ->
  let t = record_small () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"a" t) in
  let objects = list_files (Filename.concat dir "objects") in
  Alcotest.(check bool) "some objects" true (objects <> []);
  (* Flip one byte in every object in turn: each flip must surface as a
     typed Object_corrupt from load or verify, never as a wrong trace. *)
  let detected = ref 0 in
  List.iteri
    (fun i path ->
      if i < 5 then begin
        let original = In_channel.with_open_bin path In_channel.input_all in
        let flipped = Bytes.of_string original in
        let pos = Bytes.length flipped / 2 in
        Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc flipped);
        (match Repo.load_trace repo ~name:"a" with
        | Error (Repo.Object_corrupt _) -> incr detected
        | Error e ->
          Alcotest.failf "flip of %s: wrong error class: %a"
            (Filename.basename path) Repo.pp_error e
        | Ok loaded ->
          if frames loaded <> frames t then
            Alcotest.failf "flip of %s: silently wrong trace"
              (Filename.basename path));
        (* Restore: the repo must be intact again. *)
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc original)
      end)
    objects;
  Alcotest.(check bool) "at least one flip detected" true (!detected >= 1);
  ok (Repo.verify repo)

let test_truncated_manifest_detected () =
  with_temp_repo @@ fun dir repo ->
  let t = record_small () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"a" t) in
  let path = Filename.concat (Filename.concat dir "traces") "a" in
  let original = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub original 0 (String.length original / 2)));
  (match Repo.load_trace repo ~name:"a" with
  | Error (Repo.Manifest_corrupt _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %a" Repo.pp_error e
  | Ok _ -> Alcotest.fail "truncated manifest loaded");
  (* gc must refuse to sweep while any manifest is unreadable — a
     damaged manifest can never cause live objects to be collected. *)
  (match Repo.gc repo with
  | Error (Repo.Manifest_corrupt _) -> ()
  | Error e -> Alcotest.failf "gc: wrong error class: %a" Repo.pp_error e
  | Ok _ -> Alcotest.fail "gc ran over a truncated manifest");
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc original);
  ok (Repo.verify repo);
  let (_ : Repo.gc_stats) = ok (Repo.gc repo) in
  ()

(* The manifest's event-encoding field is always 2.  A manifest naming
   any other encoding (here 1, plain register arrays) is a typed
   [Manifest_corrupt], with its framing and CRC otherwise valid. *)
let test_manifest_event_version_checked () =
  with_temp_repo @@ fun dir repo ->
  let t = record_small () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"a" t) in
  let path = Filename.concat (Filename.concat dir "traces") "a" in
  let original = In_channel.with_open_bin path In_channel.input_all in
  (* magic (8) | payload length (8) | payload | crc32(payload) (4);
     the payload opens with the event-version uvarint. *)
  Alcotest.(check int) "written event version" 2 (Char.code original.[16]);
  let payload =
    Bytes.of_string (String.sub original 16 (String.length original - 20))
  in
  Bytes.set payload 0 '\001';
  let crc = Bytes.create 4 in
  Bytes.set_int32_le crc 0
    (Int32.of_int (Crc32.string (Bytes.to_string payload)));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub original 0 16);
      Out_channel.output_bytes oc payload;
      Out_channel.output_bytes oc crc);
  match Repo.load_trace repo ~name:"a" with
  | Error (Repo.Manifest_corrupt { detail; _ }) ->
    Alcotest.(check string) "names the version"
      "event encoding version 1, this build reads 2" detail
  | Error e -> Alcotest.failf "wrong error class: %a" Repo.pp_error e
  | Ok _ -> Alcotest.fail "a manifest with event version 1 loaded"

let test_crash_mid_gc () =
  with_temp_repo @@ fun _dir repo ->
  let t = record_small () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"keep" t) in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"drop" t) in
  (* Make some objects unique to "drop" so the gc has work: a second,
     structurally different recording only referenced by the doomed
     manifest. *)
  let t2 = record_small ~files:3 () in
  let (_ : Repo.store_result) = ok (Repo.store_trace repo ~name:"drop" t2) in
  ok (Repo.delete_trace repo ~name:"drop");
  (* Crash after the first sweep: the exception escapes, the repo is
     left with orphans but every live trace intact. *)
  let swept = ref 0 in
  (match
     Repo.gc
       ~on_sweep:(fun _ ->
         incr swept;
         if !swept = 1 then failwith "simulated crash")
       repo
   with
  | exception Failure _ -> ()
  | Ok _ -> Alcotest.fail "crash did not propagate"
  | Error e -> Alcotest.failf "unexpected: %a" Repo.pp_error e);
  ok (Repo.verify repo);
  let loaded = ok (Repo.load_trace repo ~name:"keep") in
  Alcotest.(check bool) "live trace intact" true (frames loaded = frames t);
  (* The next gc completes the interrupted sweep. *)
  let g = ok (Repo.gc repo) in
  let s = ok (Repo.stats repo) in
  Alcotest.(check bool)
    "only live objects remain" true
    (s.Repo.n_objects = g.Repo.live_objects)

(* ---- the streaming sink ----------------------------------------------- *)

let test_sink_streams_and_commits () =
  with_temp_repo @@ fun _dir repo ->
  let w = small_cp () in
  let recd, _ =
    Workload.record
      ~opts:
        (Recorder.make_opts
           ~sink:(Recorder.Sink_repo (repo, "streamed"))
           ())
      w
  in
  Alcotest.(check (list string)) "manifest committed" [ "streamed" ]
    (Repo.list repo);
  let loaded = ok (Repo.load_trace repo ~name:"streamed") in
  Alcotest.(check bool)
    "streamed trace loads identically" true
    (frames loaded = frames recd.Workload.trace);
  ok (Repo.verify repo)

let suites =
  [ ( "repo",
      [ Alcotest.test_case "store/load round trip" `Quick test_round_trip;
        Alcotest.test_case "double store is all shared" `Quick
          test_double_store_shares;
        Alcotest.test_case "gc sweeps unreferenced objects" `Quick
          test_gc_sweeps_unreferenced;
        Alcotest.test_case "gc keeps shared objects" `Quick
          test_gc_keeps_shared;
        Alcotest.test_case "bit-flipped object is typed" `Quick
          test_bit_flip_object_detected;
        Alcotest.test_case "truncated manifest is typed; gc refuses" `Quick
          test_truncated_manifest_detected;
        Alcotest.test_case "manifest event version is checked" `Quick
          test_manifest_event_version_checked;
        Alcotest.test_case "crash mid-gc leaves a repairable repo" `Quick
          test_crash_mid_gc;
        Alcotest.test_case "recording sink streams and commits" `Quick
          test_sink_streams_and_commits ] ) ]
