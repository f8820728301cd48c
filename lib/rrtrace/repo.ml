(* Content-addressed trace repository (see repo.mli and DESIGN.md §4j).

   Layout:

     DIR/REPO                 format marker ("rrrepo1\n")
     DIR/objects/<key>        content-addressed objects
     DIR/traces/<name>        one manifest per stored trace
     DIR/refs                 refcount ledger, rewritten by gc

   An object's key is crc32-length over its bytes ("%08x-%x"), so the
   store is self-verifying: loading re-derives the key and a mismatch
   is typed corruption.  Manifests are written atomically (tmp +
   rename) and carry their own CRC, so a crashed store leaves orphan
   objects and at worst a stale .tmp — never a half manifest.  GC
   recounts references from the manifests (the source of truth),
   rewrites the ledger, and sweeps zero-ref objects; a crash mid-sweep
   only leaves more orphans for the next run. *)

let tm_objects_stored = Telemetry.counter "repo.objects_stored"
let tm_objects_shared = Telemetry.counter "repo.objects_shared"
let tm_bytes_stored = Telemetry.counter "repo.bytes_stored"
let tm_bytes_deduped = Telemetry.counter "repo.bytes_deduped"
let tm_gc_swept = Telemetry.counter "repo.gc_swept"

type error =
  | Not_a_repo of { path : string; detail : string }
  | Object_missing of { key : string }
  | Object_corrupt of { key : string; detail : string }
  | Manifest_corrupt of { name : string; detail : string }
  | Trace of Trace.error
  | Io of Io.error

exception Repo_error of error

let pp_error ppf = function
  | Not_a_repo { path; detail } ->
    Fmt.pf ppf "%s: not a trace repository (%s)" path detail
  | Object_missing { key } -> Fmt.pf ppf "object %s: missing" key
  | Object_corrupt { key; detail } -> Fmt.pf ppf "object %s: %s" key detail
  | Manifest_corrupt { name; detail } ->
    Fmt.pf ppf "manifest %s: %s" name detail
  | Trace e -> Trace.pp_error ppf e
  | Io e -> Io.pp_error ppf e

let error_to_string e = Fmt.str "%a" pp_error e

type t = { root : string; lock : Mutex.t }

let path t = t.root

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let marker_name = "REPO"
let marker_contents = "rrrepo1\n"
let manifest_magic = "RRMANIF1"
let file_block = 1 lsl 16 (* cloned-file bytes are stored in 64 KiB blocks *)

let objects_dir t = Filename.concat t.root "objects"
let traces_dir t = Filename.concat t.root "traces"
let refs_path t = Filename.concat t.root "refs"
let object_path t key = Filename.concat (objects_dir t) key
let manifest_path t name = Filename.concat (traces_dir t) name

let key_of data =
  Printf.sprintf "%08x-%x" (Crc32.string data) (String.length data)

(* The byte length a key's object declares — the hex run after '-'. *)
let key_length key =
  match String.index_opt key '-' with
  | None -> 0
  | Some i -> (
    match
      int_of_string_opt
        ("0x" ^ String.sub key (i + 1) (String.length key - i - 1))
    with
    | Some n when n >= 0 -> n
    | _ -> 0)

let is_tmp name = Filename.check_suffix name ".tmp"

(* Trace names become manifest file names: one safe path component. *)
let valid_name name =
  String.length name > 0
  && (not (is_tmp name))
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       name

let invalid_name name = Manifest_corrupt { name; detail = "invalid trace name" }

(* ---- raw file helpers (all byte IO flows through Io) ----------------- *)

let read_file p =
  match Io.read_all (Io.file_reader p) with
  | data -> Ok data
  | exception Io.Io_error e -> Error (Io e)

let file_size p =
  match In_channel.with_open_bin p In_channel.length with
  | n -> Int64.to_int n
  | exception Sys_error _ -> 0

(* Atomic write: land the bytes in a sibling .tmp, then rename over the
   final name.  Raises {!Io.Io_error}. *)
let write_file_exn p data =
  let tmp = p ^ ".tmp" in
  let io = Io.file_writer tmp in
  (try
     Io.write io data;
     Io.close_writer io
   with Io.Io_error e ->
     (try Io.close_writer io with Io.Io_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise (Io.Io_error e));
  try Sys.rename tmp p
  with Sys_error m -> raise (Io.Io_error { op = "rename"; path = p; reason = m })

let mkdir_if_missing p =
  if not (Sys.file_exists p) then
    try Sys.mkdir p 0o755
    with Sys_error m -> raise (Io.Io_error { op = "mkdir"; path = p; reason = m })

let remove_if_present p = try Sys.remove p with Sys_error _ -> ()

let listing dir =
  match Sys.readdir dir with
  | entries ->
    Ok
      (Array.to_list entries
      |> List.filter (fun n -> not (is_tmp n))
      |> List.sort compare)
  | exception Sys_error m -> Error (Io { op = "readdir"; path = dir; reason = m })

let tmp_entries dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries |> List.filter is_tmp
    |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

(* ---- open / init ------------------------------------------------------ *)

let open_ root =
  let marker = Filename.concat root marker_name in
  let t = { root; lock = Mutex.create () } in
  if not (Sys.file_exists root && Sys.is_directory root) then
    Error (Not_a_repo { path = root; detail = "no such directory" })
  else if not (Sys.file_exists marker) then
    Error (Not_a_repo { path = root; detail = "missing format marker" })
  else
    match read_file marker with
    | Error e -> Error e
    | Ok c when c <> marker_contents ->
      Error (Not_a_repo { path = root; detail = "unrecognized format marker" })
    | Ok _ ->
      if Sys.file_exists (objects_dir t) && Sys.file_exists (traces_dir t) then
        Ok t
      else
        Error (Not_a_repo { path = root; detail = "missing objects/ or traces/" })

let init root =
  match
    mkdir_if_missing root;
    let t = { root; lock = Mutex.create () } in
    mkdir_if_missing (objects_dir t);
    mkdir_if_missing (traces_dir t);
    let marker = Filename.concat root marker_name in
    if not (Sys.file_exists marker) then write_file_exn marker marker_contents
  with
  | () -> open_ root
  | exception Io.Io_error e -> Error (Io e)

(* ---- objects ---------------------------------------------------------- *)

type store_result = {
  new_objects : int;
  shared_objects : int;
  new_bytes : int;
  shared_bytes : int;
}

(* Store one object; caller holds [t.lock].  Raises {!Io.Io_error}. *)
let store_object_exn t acc data =
  let key = key_of data in
  let p = object_path t key in
  let a = !acc in
  if Sys.file_exists p then begin
    Telemetry.incr tm_objects_shared;
    Telemetry.add tm_bytes_deduped (String.length data);
    acc :=
      { a with
        shared_objects = a.shared_objects + 1;
        shared_bytes = a.shared_bytes + String.length data }
  end
  else begin
    write_file_exn p data;
    Telemetry.incr tm_objects_stored;
    Telemetry.add tm_bytes_stored (String.length data);
    acc :=
      { a with
        new_objects = a.new_objects + 1;
        new_bytes = a.new_bytes + String.length data }
  end;
  key

let load_object t key =
  let p = object_path t key in
  if not (Sys.file_exists p) then Error (Object_missing { key })
  else
    match read_file p with
    | Error e -> Error e
    | Ok data ->
      if key_of data <> key then
        Error (Object_corrupt { key; detail = "content does not match key" })
      else Ok data

(* ---- manifest codec ---------------------------------------------------

   magic "RRMANIF1" | payload length (8 bytes LE) | payload |
   crc32(payload) (4 bytes LE)

   payload: event_version, compressed, initial_exe, stats (the 9
   persisted fields), images [(path, key)], files [(path, total_len,
   block keys)], chunks [(first_frame, n_frames, kinds, key)].

   The event-version field is always [manifest_event_version] (chunks
   hold delta-coded registers); it stays in the layout so manifest
   bytes, and with them content addresses and fleet dedup, do not
   shift.  Any other value is rejected on load. *)

let manifest_event_version = 2

type manifest = {
  m_compressed : bool;
  m_initial_exe : string;
  m_stats : Trace.stats;
  m_images : (string * string) list;
  m_files : (string * int * string list) list;
  m_chunks : (int * int * int * string) list;
}

let put_manifest_stats b (s : Trace.stats) =
  List.iter (Codec.put_uvarint b)
    [ s.Trace.n_events; s.Trace.raw_bytes; s.Trace.compressed_bytes;
      s.Trace.cloned_blocks; s.Trace.cloned_bytes; s.Trace.copied_file_bytes;
      s.Trace.n_chunks; s.Trace.n_buffered_syscalls; s.Trace.n_traced_syscalls ]

let get_manifest_stats s : Trace.stats =
  let g () = Codec.get_uvarint s in
  let n_events = g () in
  let raw_bytes = g () in
  let compressed_bytes = g () in
  let cloned_blocks = g () in
  let cloned_bytes = g () in
  let copied_file_bytes = g () in
  let n_chunks = g () in
  let n_buffered_syscalls = g () in
  let n_traced_syscalls = g () in
  { Trace.n_events; raw_bytes; compressed_bytes; cloned_blocks; cloned_bytes;
    copied_file_bytes; n_chunks; n_buffered_syscalls; n_traced_syscalls;
    lru_hits = 0; lru_misses = 0; lru_evictions = 0 }

let encode_manifest m =
  let b = Codec.sink () in (* chunk-lifecycle *)
  Codec.put_uvarint b manifest_event_version;
  Codec.put_bool b m.m_compressed;
  Codec.put_string b m.m_initial_exe;
  put_manifest_stats b m.m_stats;
  Codec.put_list b
    (fun b (p, k) ->
      Codec.put_string b p;
      Codec.put_string b k)
    m.m_images;
  Codec.put_list b
    (fun b (p, len, keys) ->
      Codec.put_string b p;
      Codec.put_uvarint b len;
      Codec.put_list b Codec.put_string keys)
    m.m_files;
  Codec.put_list b
    (fun b (ff, n, kinds, k) ->
      Codec.put_uvarint b ff;
      Codec.put_uvarint b n;
      Codec.put_uvarint b kinds;
      Codec.put_string b k)
    m.m_chunks;
  let payload = Buffer.contents b in
  let out = Codec.sink () in (* chunk-lifecycle *)
  Buffer.add_string out manifest_magic;
  let len = Bytes.create 8 in (* chunk-lifecycle *)
  Bytes.set_int64_le len 0 (Int64.of_int (String.length payload));
  Buffer.add_bytes out len;
  Buffer.add_string out payload;
  let crc = Bytes.create 4 in (* chunk-lifecycle *)
  Bytes.set_int32_le crc 0 (Int32.of_int (Crc32.string payload));
  Buffer.add_bytes out crc;
  Buffer.contents out

let crc_mask = 0xffffffff

let decode_manifest ~name data =
  let fail detail = Error (Manifest_corrupt { name; detail }) in
  let len = String.length data in
  if len < 8 + 8 + 4 then fail "truncated (no room for framing)"
  else if String.sub data 0 8 <> manifest_magic then fail "bad magic"
  else begin
    let declared = Int64.to_int (String.get_int64_le data 8) in
    if declared < 0 || len - 20 <> declared then
      fail
        (Fmt.str "payload declares %d bytes, file carries %d" declared
           (len - 20))
    else begin
      let payload = String.sub data 16 declared in
      let stored_crc =
        Int32.to_int (String.get_int32_le data (16 + declared)) land crc_mask
      in
      if Crc32.string payload <> stored_crc then fail "payload CRC mismatch"
      else
        try
          let s = Codec.source payload in
          let event_version = Codec.get_uvarint s in
          if event_version <> manifest_event_version then
            raise
              (Codec.Corrupt
                 (Fmt.str "event encoding version %d, this build reads %d"
                    event_version manifest_event_version));
          let m_compressed = Codec.get_bool s in
          let m_initial_exe = Codec.get_string s in
          let m_stats = get_manifest_stats s in
          let m_images =
            Codec.get_list s (fun s ->
                let p = Codec.get_string s in
                let k = Codec.get_string s in
                (p, k))
          in
          let m_files =
            Codec.get_list s (fun s ->
                let p = Codec.get_string s in
                let len = Codec.get_uvarint s in
                let keys = Codec.get_list s Codec.get_string in
                (p, len, keys))
          in
          let m_chunks =
            Codec.get_list s (fun s ->
                let ff = Codec.get_uvarint s in
                let n = Codec.get_uvarint s in
                let kinds = Codec.get_uvarint s in
                let k = Codec.get_string s in
                (ff, n, kinds, k))
          in
          if not (Codec.eof s) then raise (Codec.Corrupt "trailing bytes");
          Ok
            { m_compressed; m_initial_exe; m_stats; m_images;
              m_files; m_chunks }
        with Codec.Corrupt msg -> fail msg
    end
  end

let read_manifest t name =
  if not (valid_name name) then Error (invalid_name name)
  else begin
    let p = manifest_path t name in
    if not (Sys.file_exists p) then
      Error (Manifest_corrupt { name; detail = "no such trace" })
    else
      match read_file p with
      | Error e -> Error e
      | Ok data -> decode_manifest ~name data
  end

let manifest_keys m =
  List.map snd m.m_images
  @ List.concat_map (fun (_, _, keys) -> keys) m.m_files
  @ List.map (fun (_, _, _, k) -> k) m.m_chunks

(* ---- store ------------------------------------------------------------ *)

let split_blocks data =
  let len = String.length data in
  let rec go off acc =
    if off >= len then List.rev acc
    else begin
      let n = min file_block (len - off) in
      go (off + n) (String.sub data off n :: acc)
    end
  in
  go 0 []

let encode_image img =
  let b = Codec.sink () in (* chunk-lifecycle *)
  Image_codec.put_image b img;
  Buffer.contents b

(* Store every part; caller holds [t.lock].  Raises {!Io.Io_error}. *)
let store_parts_exn t ~compressed ~initial_exe ~stats ~chunks
    ~images ~files =
  let acc =
    ref { new_objects = 0; shared_objects = 0; new_bytes = 0; shared_bytes = 0 }
  in
  let store data = store_object_exn t acc data in
  let m_chunks =
    List.map (fun (ff, n, kinds, stored) -> (ff, n, kinds, store stored)) chunks
  in
  let m_images =
    List.map (fun (p, img) -> (p, store (encode_image img))) images
  in
  let m_files =
    List.map
      (fun (p, data) ->
        (p, String.length data, List.map store (split_blocks data)))
      files
  in
  ( { m_compressed = compressed; m_initial_exe = initial_exe; m_stats = stats; m_images; m_files;
      m_chunks },
    !acc )

let store_trace t ~name trace =
  if not (valid_name name) then Error (invalid_name name)
  else
    with_lock t @@ fun () ->
    match
      let chunks =
        Array.to_list (Trace.chunk_index trace)
        |> List.mapi (fun i (ci : Trace.chunk_info) ->
               ( ci.Trace.first_frame, ci.Trace.n_frames, ci.Trace.kinds,
                 Trace.chunk_stored trace i ))
      in
      let manifest, acc =
        store_parts_exn t ~compressed:(Trace.compressed trace)
          ~initial_exe:(Trace.initial_exe trace)
          ~stats:(Trace.stats trace) ~chunks ~images:(Trace.images trace)
          ~files:(Trace.files trace)
      in
      write_file_exn (manifest_path t name) (encode_manifest manifest);
      acc
    with
    | acc -> Ok acc
    | exception Io.Io_error e -> Error (Io e)

(* ---- load ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let load_blocks t ~total keys =
  let b = Buffer.create (max total 16) in
  let rec go = function
    | [] ->
      if Buffer.length b <> total then
        Error
          (Object_corrupt
             { key = "<blocks>";
               detail =
                 Fmt.str "file blocks sum to %d bytes, manifest declares %d"
                   (Buffer.length b) total })
      else Ok (Buffer.contents b)
    | k :: rest ->
      let* data = load_object t k in
      Buffer.add_string b data;
      go rest
  in
  go keys

let decode_image_object ~key data =
  match
    let s = Codec.source data in
    let img = Image_codec.get_image s in
    if not (Codec.eof s) then raise (Codec.Corrupt "trailing bytes");
    img
  with
  | img -> Ok img
  | exception Codec.Corrupt msg ->
    Error (Object_corrupt { key; detail = Fmt.str "undecodable image: %s" msg })

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let load_trace t ~name =
  let* m = with_lock t (fun () -> read_manifest t name) in
  let* images =
    map_result
      (fun (p, key) ->
        let* data = load_object t key in
        let* img = decode_image_object ~key data in
        Ok (p, img))
      m.m_images
  in
  let* files =
    map_result
      (fun (p, total, keys) ->
        let* data = load_blocks t ~total keys in
        Ok (p, data))
      m.m_files
  in
  let* chunks =
    map_result
      (fun (ff, n, kinds, key) ->
        let* stored = load_object t key in
        Ok (ff, n, kinds, stored))
      m.m_chunks
  in
  match
    Trace.of_parts ~origin:(manifest_path t name) ~compressed:m.m_compressed
      ~initial_exe:m.m_initial_exe
      ~chunks:(Array.of_list chunks)
      ~images ~files ~stats:m.m_stats ()
  with
  | Ok trace -> Ok trace
  | Error e -> Error (Trace e)

(* ---- listing / delete ------------------------------------------------- *)

let list t = match listing (traces_dir t) with Ok l -> l | Error _ -> []

type trace_info = { ti_frames : int; ti_chunks : int; ti_bytes : int }

(* Per-trace logical byte totals (referenced object sizes, from the
   manifest keys — no object reads), sorted by name like {!list}. *)
let list_info t =
  with_lock t @@ fun () ->
  let* names = listing (traces_dir t) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest ->
      let* m = read_manifest t name in
      let bytes =
        List.fold_left (fun a k -> a + key_length k) 0 (manifest_keys m)
      in
      let info =
        { ti_frames = m.m_stats.Trace.n_events;
          ti_chunks = List.length m.m_chunks;
          ti_bytes = bytes }
      in
      go ((name, info) :: acc) rest
  in
  go [] names

let delete_trace t ~name =
  if not (valid_name name) then Error (invalid_name name)
  else
    with_lock t @@ fun () ->
    let p = manifest_path t name in
    if not (Sys.file_exists p) then
      Error (Manifest_corrupt { name; detail = "no such trace" })
    else
      match Sys.remove p with
      | () -> Ok ()
      | exception Sys_error m ->
        Error (Io { op = "remove"; path = p; reason = m })

(* ---- gc --------------------------------------------------------------- *)

type gc_stats = { live_objects : int; swept_objects : int; swept_bytes : int }

(* Reference counts over every manifest; {!Manifest_corrupt} if any
   manifest fails to parse (live objects must never be swept because a
   manifest went unreadable). *)
let refcounts t =
  let* names = listing (traces_dir t) in
  let counts = Hashtbl.create 64 in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        let* m = read_manifest t name in
        List.iter
          (fun k ->
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          (manifest_keys m);
        Ok ())
      (Ok ()) names
  in
  Ok counts

let write_refs_exn t counts =
  let b = Buffer.create 256 in
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
  |> List.sort compare
  |> List.iter (fun (k, n) -> Buffer.add_string b (Printf.sprintf "%d %s\n" n k));
  write_file_exn (refs_path t) (Buffer.contents b)

let gc ?(on_sweep = fun _ -> ()) t =
  with_lock t @@ fun () ->
  let* counts = refcounts t in
  match
    write_refs_exn t counts;
    (* stale temp files from interrupted atomic writes go first *)
    List.iter remove_if_present (tmp_entries (objects_dir t));
    List.iter remove_if_present (tmp_entries (traces_dir t));
    let* objects = listing (objects_dir t) in
    let live = ref 0 and swept = ref 0 and swept_bytes = ref 0 in
    List.iter
      (fun key ->
        if Hashtbl.mem counts key then incr live
        else begin
          let p = object_path t key in
          let sz = file_size p in
          on_sweep key;
          match Sys.remove p with
          | () ->
            incr swept;
            swept_bytes := !swept_bytes + sz;
            Telemetry.incr tm_gc_swept
          | exception Sys_error _ -> ()
        end)
      objects;
    Ok
      { live_objects = !live;
        swept_objects = !swept;
        swept_bytes = !swept_bytes }
  with
  | r -> r
  | exception Io.Io_error e -> Error (Io e)

(* ---- stats ------------------------------------------------------------ *)

type stats = {
  n_traces : int;
  n_objects : int;
  object_bytes : int;
  manifest_bytes : int;
  logical_bytes : int;
  shared_objects : int;
}

let stats t =
  with_lock t @@ fun () ->
  let* names = listing (traces_dir t) in
  let* objects = listing (objects_dir t) in
  let counts = Hashtbl.create 64 in
  let logical = ref 0 and manifest_bytes = ref 0 in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        let* m = read_manifest t name in
        manifest_bytes := !manifest_bytes + file_size (manifest_path t name);
        List.iter
          (fun k ->
            logical := !logical + key_length k;
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          (manifest_keys m);
        Ok ())
      (Ok ()) names
  in
  let object_bytes =
    List.fold_left (fun acc k -> acc + file_size (object_path t k)) 0 objects
  in
  let shared =
    Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) counts 0
  in
  Ok
    { n_traces = List.length names;
      n_objects = List.length objects;
      object_bytes;
      manifest_bytes = !manifest_bytes;
      logical_bytes = !logical;
      shared_objects = shared }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>traces:          %d@,objects:         %d@,object bytes:    %d@,\
     manifest bytes:  %d@,logical bytes:   %d@,shared objects:  %d@,\
     dedup ratio:     %.2f@]"
    s.n_traces s.n_objects s.object_bytes s.manifest_bytes s.logical_bytes
    s.shared_objects
    (if s.object_bytes = 0 then 1.0
     else float_of_int s.logical_bytes /. float_of_int s.object_bytes)

(* ---- recording sink --------------------------------------------------- *)

(* Streaming state for {!sink}: objects are stored the moment a chunk
   or image leaves the recorder; file snapshots accumulate (deltas can
   rewrite earlier bytes) and land as blocks at commit, together with
   the manifest.  A recording killed mid-run therefore leaves orphan
   objects and no manifest. *)
type sink_state = {
  mutable ss_header : (bool * string) option;
  mutable ss_images : (string * string) list; (* reversed (path, key) *)
  ss_files : (string, Buffer.t) Hashtbl.t;
  mutable ss_chunks : (int * int * int * string) list; (* reversed *)
  ss_acc : store_result ref;
}

let sink t ~name =
  if not (valid_name name) then raise (Repo_error (invalid_name name));
  let ss =
    { ss_header = None; ss_images = []; ss_files = Hashtbl.create 8;
      ss_chunks = [];
      ss_acc =
        ref
          { new_objects = 0; shared_objects = 0; new_bytes = 0;
            shared_bytes = 0 } }
  in
  let store data = with_lock t (fun () -> store_object_exn t ss.ss_acc data) in
  let put (ev : Trace.Sink.event) =
    match ev with
    | Trace.Sink.Header { compressed; initial_exe } ->
      ss.ss_header <- Some (compressed, initial_exe)
    | Trace.Sink.Image { path; img } ->
      ss.ss_images <- (path, store (encode_image img)) :: ss.ss_images
    | Trace.Sink.File_delta { path; offset; data } ->
      let b =
        match Hashtbl.find_opt ss.ss_files path with
        | Some b -> b
        | None ->
          let b = Buffer.create (String.length data) in
          Hashtbl.add ss.ss_files path b;
          b
      in
      if offset < Buffer.length b then begin
        let prefix = Buffer.sub b 0 offset in
        Buffer.clear b;
        Buffer.add_string b prefix
      end;
      Buffer.add_string b data
    | Trace.Sink.Chunk { first_frame; n_frames; kinds; stored } ->
      ss.ss_chunks <-
        (first_frame, n_frames, kinds, store stored) :: ss.ss_chunks
    | Trace.Sink.Journal _ -> ()
  in
  let commit (stats : Trace.stats) (_ : Trace.chunk_info array) =
    let compressed, initial_exe =
      match ss.ss_header with
      | Some h -> h
      | None -> (false, "<unknown>") (* unreachable: Header precedes commit *)
    in
    let m_files =
      Hashtbl.fold (fun p b acc -> (p, Buffer.contents b) :: acc) ss.ss_files []
      |> List.sort compare
      |> List.map (fun (p, data) ->
             ( p, String.length data,
               List.map (fun blk -> store blk) (split_blocks data) ))
    in
    let manifest =
      { m_compressed = compressed; m_initial_exe = initial_exe;
        m_stats = stats;
        m_images = List.rev ss.ss_images; m_files;
        m_chunks = List.rev ss.ss_chunks }
    in
    with_lock t @@ fun () ->
    write_file_exn (manifest_path t name) (encode_manifest manifest)
  in
  let close () =
    (* no manifest: whatever objects landed are orphans until gc *)
    Hashtbl.reset ss.ss_files;
    ss.ss_chunks <- [];
    ss.ss_images <- []
  in
  Trace.Sink.make ~name:("repo:" ^ name) ~put ~commit ~close ()

(* ---- verify ----------------------------------------------------------- *)

let verify t =
  List.fold_left
    (fun acc name ->
      let* () = acc in
      let* _ = load_trace t ~name in
      Ok ())
    (Ok ()) (list t)
