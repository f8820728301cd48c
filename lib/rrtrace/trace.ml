(* Chunk-indexed trace store: writer, cursor reader, persistence.

   General frame data is serialized ({!Event}) and deflate-compressed in
   chunks — the "all other trace data" stream of paper §2.7/Table 2.
   Memory-mapped executables and block-cloned file data are *not* run
   through the compressor: they are cloned (hard-link/FICLONE style) and
   accounted separately, which is exactly what makes rr traces cheap.

   Unlike a decoded event array, the store keeps only the compressed
   chunks plus a per-chunk index {first_frame; n_frames; byte_offset;
   kinds; crc32}.  Frames are decoded one chunk at a time on demand
   through {!Reader}, with a small LRU of decoded chunks, so memory
   stays proportional to one chunk and a seek costs O(log n_chunks) —
   the property the debugger's checkpoint/reverse-execution substrate
   (paper §6.1) leans on.

   One serial pipeline: the writer deflates each chunk as it seals it,
   and the reader inflates a chunk on first access.  A trace value
   belongs to one domain; nothing in it is shared or locked.

   Durability (paper §2.7 "deployability" read as: a trace must survive
   the process that wrote it): all persistence flows through the
   pluggable {!Io} layer; the on-disk v3 format is a CRC-guarded record
   stream with a commit footer, optionally journaled incrementally
   during recording, and {!salvage} recovers the longest verifiable
   chunk prefix of a damaged file.  See DESIGN.md §4e. *)

type stats = {
  mutable n_events : int;
  mutable raw_bytes : int; (* frame bytes before compression *)
  mutable compressed_bytes : int;
  mutable cloned_blocks : int; (* 4 KiB blocks snapshotted by cloning *)
  mutable cloned_bytes : int; (* bytes snapshotted by cloning/hard links *)
  mutable copied_file_bytes : int; (* file bytes copied (cloning disabled) *)
  mutable n_chunks : int;
  mutable n_buffered_syscalls : int; (* syscalls recorded via syscallbuf *)
  mutable n_traced_syscalls : int;
  (* Reader-side chunk-LRU traffic.  Runtime-only: not persisted (the
     stats section stays 9 uvarints) and reset on load. *)
  mutable lru_hits : int;
  mutable lru_misses : int;
  mutable lru_evictions : int;
}

let new_stats () =
  { n_events = 0;
    raw_bytes = 0;
    compressed_bytes = 0;
    cloned_blocks = 0;
    cloned_bytes = 0;
    copied_file_bytes = 0;
    n_chunks = 0;
    n_buffered_syscalls = 0;
    n_traced_syscalls = 0;
    lru_hits = 0;
    lru_misses = 0;
    lru_evictions = 0 }

let copy_stats s = { s with n_events = s.n_events }

let tm_chunk_hit = Telemetry.counter "trace.chunk.hit"
let tm_chunk_miss = Telemetry.counter "trace.chunk.miss"
let tm_chunk_evict = Telemetry.counter "trace.chunk.evict"
let tm_chunk_flush = Telemetry.counter "trace.chunk.flush"
let tm_deflate_ratio = Telemetry.histogram "trace.deflate.ratio_pct"
let tm_crc_fail = Telemetry.counter "trace.crc_fail"
let tm_salvage_runs = Telemetry.counter "salvage.runs"
let tm_salvage_chunks = Telemetry.counter "salvage.chunks_recovered"
let tm_salvage_frames = Telemetry.counter "salvage.frames_recovered"
let tm_salvage_lost = Telemetry.counter "salvage.bytes_lost"
let tm_ring_dropped = Telemetry.counter "ring.dropped_chunks"
let tm_ring_resident = Telemetry.gauge "ring.resident_bytes"

(* ---- typed errors ---------------------------------------------------- *)

type error =
  | Truncated of { path : string; detail : string }
  | Bad_magic of { path : string }
  | Version_skew of { path : string; found : int; expected : int }
  | Chunk_crc of int
  | Corrupt of { path : string; detail : string }
  | Io of Io.error

exception Format_error of error

(* The header's version field.  4 is the v3 record stream with
   delta-coded registers inside the chunks; a header saying 3 (plain
   register arrays) is reported as [Version_skew], like the older
   RRTRACE1/RRTRACE2 containers. *)
let format_version = 4

let pp_error ppf = function
  | Truncated { path; detail } ->
    Fmt.pf ppf "%s: truncated trace file (%s)" path detail
  | Bad_magic { path } -> Fmt.pf ppf "%s: not an rr trace file (bad magic)" path
  | Version_skew { path; found; expected } ->
    Fmt.pf ppf "%s: trace format version %d, this build reads %d" path found
      expected
  | Chunk_crc i -> Fmt.pf ppf "chunk %d failed CRC verification" i
  | Corrupt { path; detail } -> Fmt.pf ppf "%s: corrupt trace file (%s)" path detail
  | Io e -> Io.pp_error ppf e

let error_to_string e = Fmt.str "%a" pp_error e

type chunk_info = {
  first_frame : int;
  n_frames : int;
  byte_offset : int; (* into the concatenated stored-chunk stream *)
  stored_len : int;
  kinds : int; (* OR of Event.kind_bit for every frame in the chunk *)
  crc32 : int; (* CRC-32 of the stored bytes *)
}

type t = {
  index : chunk_info array;
  chunks : string array; (* stored (possibly deflated) chunk bytes *)
  compressed : bool;
  images : (string, Image.t) Hashtbl.t; (* trace path -> executable image *)
  files : (string, string) Hashtbl.t; (* trace path -> snapshotted bytes *)
  stats : stats;
  initial_exe : string;
  origin : string; (* path the trace was loaded from, for error context *)
  (* LRU of decoded chunks, shared by every cursor over this trace; MRU
     first.  [chunk_decodes] counts cache misses — the number of chunks
     actually inflated+decoded, which tests use to prove laziness. *)
  mutable cache : (int * Event.t array) list;
  mutable chunk_decodes : int;
  mutable sidecar : Trace_index.t option; (* derived index, if built *)
}

let make_t ?(origin = "<memory>") ~index ~chunks ~compressed ~images ~files
    ~stats ~initial_exe () =
  { index;
    chunks;
    compressed;
    images;
    files;
    stats;
    initial_exe;
    origin;
    cache = [];
    chunk_decodes = 0;
    sidecar = None }

let default_chunk_limit = 1 lsl 16
let cache_slots = 8

(* ---- v3 record stream ------------------------------------------------

   The file is a stream of self-delimiting records between an 8-byte
   magic and a 16-byte commit footer:

     magic "RRTRACE3"                              8 bytes
     record*                                       see below
     trailer record ('T')
     footer: trailer offset (8 bytes LE) + "RRCOMMIT"

   Each record is

     tag                  1 byte
     payload length       uvarint
     payload              bytes
     crc32(tag, payload)  4 bytes LE

   Tags: 'H' header (version, compressed, initial exe) — always first;
   'I' snapshotted image; 'D' file delta (path, offset, suffix bytes);
   'C' chunk (first_frame, n_frames, kinds, then the stored bytes);
   'J' journal (a stats snapshot, written every few chunks by a
   journaling writer); 'T' trailer (final stats + the chunk index with
   per-chunk CRCs).

   The CRC does not cover the length varint: a corrupted length either
   lands on a mis-framed record whose CRC then fails, or runs past the
   region being scanned — both are detected.

   Ordering invariant: every 'I' and 'D' record precedes the first 'C'
   record whose frames reference it.  That is what makes a salvaged
   prefix *replayable*, not merely decodable: any prefix of the record
   stream carries the images and file snapshots its chunks need.

   [finish] writes the trailer and footer last, so the footer's
   presence is the commit point — a reader that finds "RRCOMMIT" at EOF
   knows the writer ran to completion; anything else is salvage
   territory. *)

let magic_v3 = "RRTRACE3"

(* Older containers: recognised only to be rejected with
   [Version_skew], never read. *)
let legacy_magics = [ ("RRTRACE1", 1); ("RRTRACE2", 2) ]
let footer_magic = "RRCOMMIT"

(* How many chunks a journaling writer streams between 'J' records. *)
let journal_interval = 4

let tag_header = 'H'
let tag_image = 'I'
let tag_file = 'D'
let tag_chunk = 'C'
let tag_journal = 'J'
let tag_trailer = 'T'
let tag_index = 'P' (* sidecar index tables (Trace_index meta) *)
let tag_index_cp = 'K' (* one durable checkpoint blob *)

let crc_mask = 0xffffffff

let write_record io ~tag payload =
  let tag_s = String.make 1 tag in
  Io.write io tag_s;
  let lb = Codec.sink () in (* chunk-lifecycle *)
  Codec.put_uvarint lb (String.length payload);
  Io.write io (Buffer.contents lb);
  Io.write io payload;
  let crc = Crc32.string ~crc:(Crc32.string tag_s) payload in
  let cb = Bytes.create 4 in (* chunk-lifecycle *)
  Bytes.set_int32_le cb 0 (Int32.of_int crc);
  Io.write io (Bytes.to_string cb)

let put_stats b s =
  List.iter (Codec.put_uvarint b)
    [ s.n_events; s.raw_bytes; s.compressed_bytes; s.cloned_blocks;
      s.cloned_bytes; s.copied_file_bytes; s.n_chunks;
      s.n_buffered_syscalls; s.n_traced_syscalls ]

let get_stats s =
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
  { n_events; raw_bytes; compressed_bytes; cloned_blocks; cloned_bytes;
    copied_file_bytes; n_chunks; n_buffered_syscalls; n_traced_syscalls;
    (* LRU traffic is runtime-only: a loaded trace starts cold. *)
    lru_hits = 0;
    lru_misses = 0;
    lru_evictions = 0 }

let put_chunk_info b ci =
  Codec.put_uvarint b ci.first_frame;
  Codec.put_uvarint b ci.n_frames;
  Codec.put_uvarint b ci.byte_offset;
  Codec.put_uvarint b ci.stored_len;
  Codec.put_uvarint b ci.kinds;
  Codec.put_uvarint b ci.crc32

let get_chunk_info s =
  let first_frame = Codec.get_uvarint s in
  let n_frames = Codec.get_uvarint s in
  let byte_offset = Codec.get_uvarint s in
  let stored_len = Codec.get_uvarint s in
  let kinds = Codec.get_uvarint s in
  let crc32 = Codec.get_uvarint s in
  { first_frame; n_frames; byte_offset; stored_len; kinds; crc32 }

let header_payload ~compressed ~initial_exe =
  let b = Codec.sink () in (* chunk-lifecycle *)
  Codec.put_uvarint b format_version;
  Codec.put_bool b compressed;
  Codec.put_string b initial_exe;
  Buffer.contents b

let image_payload ~path img =
  let b = Codec.sink () in (* chunk-lifecycle *)
  Codec.put_string b path;
  Image_codec.put_image b img;
  Buffer.contents b

let file_payload ~path ~offset suffix =
  let b = Codec.sink () in (* chunk-lifecycle *)
  Codec.put_string b path;
  Codec.put_uvarint b offset;
  Codec.put_string b suffix;
  Buffer.contents b

let chunk_payload ~first_frame ~n_frames ~kinds stored =
  let b = Codec.sink () in (* chunk-lifecycle *)
  Codec.put_uvarint b first_frame;
  Codec.put_uvarint b n_frames;
  Codec.put_uvarint b kinds;
  Buffer.add_string b stored;
  Buffer.contents b

let journal_payload stats =
  let b = Codec.sink () in (* chunk-lifecycle *)
  put_stats b stats;
  Buffer.contents b

let trailer_payload stats index =
  let b = Codec.sink () in (* chunk-lifecycle *)
  put_stats b stats;
  Codec.put_list b put_chunk_info (Array.to_list index);
  Buffer.contents b

let footer_bytes ~trailer_off =
  let fb = Bytes.create 16 in (* chunk-lifecycle *)
  Bytes.set_int64_le fb 0 (Int64.of_int trailer_off);
  Bytes.blit_string footer_magic 0 fb 8 8;
  Bytes.to_string fb

(* ---- sinks -----------------------------------------------------------

   A {!Sink.t} is the one place frames, chunks, images and file
   snapshots leave a {!Writer}: the streaming file journal, the bounded
   in-memory flight-recorder ring, and the content-addressed repository
   (repo.ml) are all implementations of the same five-event interface.
   Events arrive in trace-stream order — header first, every image and
   file delta before the first chunk that references it, a stats
   journal mark every few chunks — so a sink that persists events as
   they arrive reproduces exactly the v3 record stream, and any prefix
   it manages to persist is salvageable. *)

type trace = t
(* Alias so submodules defining their own [t] can still name the trace
   type. *)

module Sink = struct
  type event =
    | Header of { compressed : bool; initial_exe : string }
    | Image of { path : string; img : Image.t }
    | File_delta of { path : string; offset : int; data : string }
    | Chunk of { first_frame : int; n_frames : int; kinds : int; stored : string }
    | Journal of stats

  type t = {
    sk_name : string;
    sk_put : event -> unit;
    sk_commit : stats -> chunk_info array -> unit;
    sk_close : unit -> unit; (* abort: release resources, commit nothing *)
    sk_bounded : bool; (* the writer need not retain consumed chunks *)
    sk_result : unit -> trace option; (* bounded sinks build the result *)
  }

  let make ?(bounded = false) ~name ~put ~commit ~close () =
    { sk_name = name;
      sk_put = put;
      sk_commit = commit;
      sk_close = close;
      sk_bounded = bounded;
      sk_result = (fun () -> None) }

  let name s = s.sk_name

  (* The streaming file sink — exactly the incremental v3 journal.  The
     magic and header go out on the first event, every image/file/chunk
     record as it arrives, and [commit] writes the trailer and footer
     before closing the writer: a sink killed at any byte leaves a
     salvageable prefix. *)
  let of_io io =
    let put = function
      | Header { compressed; initial_exe } ->
        Io.write io magic_v3;
        write_record io ~tag:tag_header (header_payload ~compressed ~initial_exe)
      | Image { path; img } ->
        write_record io ~tag:tag_image (image_payload ~path img)
      | File_delta { path; offset; data } ->
        write_record io ~tag:tag_file (file_payload ~path ~offset data)
      | Chunk { first_frame; n_frames; kinds; stored } ->
        write_record io ~tag:tag_chunk
          (chunk_payload ~first_frame ~n_frames ~kinds stored)
      | Journal stats -> write_record io ~tag:tag_journal (journal_payload stats)
    in
    let commit stats index =
      let trailer_off = Io.written io in
      write_record io ~tag:tag_trailer (trailer_payload stats index);
      Io.write io (footer_bytes ~trailer_off);
      Io.close_writer io
    in
    let close () = try Io.close_writer io with Io.Io_error _ -> () in
    make ~name:(Io.writer_path io) ~put ~commit ~close ()
end

(* ---- flight-recorder ring --------------------------------------------

   A bounded in-memory sink: at most [budget] resident chunks, dropped
   oldest-first in whole journal-watermark groups (every chunk between
   two 'J' marks shares a group), so the retained window always starts
   right after a journal mark and the stats snapshot paired with it is
   never newer than the chunks it describes.  Header, images and file
   snapshots are always retained — they are tiny next to the chunk
   stream and every retained chunk may reference them — which is what
   makes the dumped window decodable on its own. *)

type ring_entry = {
  re_first : int;
  re_n : int;
  re_kinds : int;
  re_stored : string;
  re_group : int; (* journal-watermark group the chunk belongs to *)
}

type ring = {
  r_budget : int; (* max resident chunks *)
  r_q : ring_entry Queue.t; (* oldest first *)
  mutable r_bytes : int; (* resident stored bytes *)
  mutable r_dropped_chunks : int;
  mutable r_dropped_frames : int;
  mutable r_group : int; (* current (still-open) watermark group *)
  mutable r_header : (bool * string) option; (* compressed, initial exe *)
  r_images : (string, Image.t) Hashtbl.t;
  r_files : (string, string) Hashtbl.t;
  mutable r_stats : stats option; (* newest journaled stats snapshot *)
}

type ring_report = {
  rr_base_frame : int; (* trace index of the window's first frame *)
  rr_chunks : int;
  rr_frames : int;
  rr_dropped_chunks : int;
  rr_dropped_frames : int;
  rr_resident_bytes : int;
}

let pp_ring_report ppf r =
  Fmt.pf ppf
    "ring: %d chunks (%d frames) resident (%d bytes) from frame %d; dropped \
     %d chunks (%d frames)"
    r.rr_chunks r.rr_frames r.rr_resident_bytes r.rr_base_frame
    r.rr_dropped_chunks r.rr_dropped_frames

let ring ~chunks =
  { r_budget = max 1 chunks;
    r_q = Queue.create ();
    r_bytes = 0;
    r_dropped_chunks = 0;
    r_dropped_frames = 0;
    r_group = 0;
    r_header = None;
    r_images = Hashtbl.create 8;
    r_files = Hashtbl.create 8;
    r_stats = None }

let ring_drop_front r =
  let e = Queue.pop r.r_q in
  r.r_bytes <- r.r_bytes - String.length e.re_stored;
  r.r_dropped_chunks <- r.r_dropped_chunks + 1;
  r.r_dropped_frames <- r.r_dropped_frames + e.re_n;
  Telemetry.incr tm_ring_dropped

let ring_put r = function
  | Sink.Header { compressed; initial_exe } ->
    r.r_header <- Some (compressed, initial_exe)
  | Sink.Image { path; img } -> Hashtbl.replace r.r_images path img
  | Sink.File_delta { path; offset; data } ->
    let current =
      match Hashtbl.find_opt r.r_files path with Some d -> d | None -> ""
    in
    let offset = min offset (String.length current) in
    Hashtbl.replace r.r_files path (String.sub current 0 offset ^ data)
  | Sink.Chunk { first_frame; n_frames; kinds; stored } ->
    Queue.push
      { re_first = first_frame;
        re_n = n_frames;
        re_kinds = kinds;
        re_stored = stored;
        re_group = r.r_group }
      r.r_q;
    r.r_bytes <- r.r_bytes + String.length stored;
    (* Drop-oldest, whole watermark groups at a time.  Degenerate case:
       if the budget is smaller than one group, chunks of the open group
       drop singly — alignment is best-effort there. *)
    while Queue.length r.r_q > r.r_budget do
      let g = (Queue.peek r.r_q).re_group in
      if g = r.r_group then ring_drop_front r
      else
        while
          (not (Queue.is_empty r.r_q)) && (Queue.peek r.r_q).re_group = g
        do
          ring_drop_front r
        done
    done;
    Telemetry.set_gauge tm_ring_resident r.r_bytes
  | Sink.Journal stats ->
    r.r_stats <- Some (copy_stats stats);
    r.r_group <- r.r_group + 1

(* Snapshot the retained window as a standalone trace: chunk indexes
   rebased to frame 0 (the loader's contiguity invariant), per-chunk
   CRCs minted over the resident bytes, images and files copied.  The
   window replays from its own frame 0 only when nothing was dropped
   ([rr_base_frame = 0]); a truncated window is still decodable,
   saveable and salvageable — DESIGN.md §4j spells out the
   limitation. *)
let ring_trace r =
  let compressed, initial_exe =
    match r.r_header with Some h -> h | None -> (true, "")
  in
  let entries = Array.of_seq (Queue.to_seq r.r_q) in
  let n = Array.length entries in
  let base = if n = 0 then 0 else entries.(0).re_first in
  let off = ref 0 and frames = ref 0 in
  let index =
    Array.map
      (fun e ->
        let ci =
          { first_frame = e.re_first - base;
            n_frames = e.re_n;
            byte_offset = !off;
            stored_len = String.length e.re_stored;
            kinds = e.re_kinds;
            crc32 = Crc32.string e.re_stored }
        in
        off := !off + ci.stored_len;
        frames := !frames + e.re_n;
        ci)
      entries
  in
  let chunks = Array.map (fun e -> e.re_stored) entries in
  let stats =
    match r.r_stats with Some s -> copy_stats s | None -> new_stats ()
  in
  stats.n_events <- !frames;
  stats.n_chunks <- n;
  stats.compressed_bytes <- !off;
  let t =
    make_t ~origin:"<ring>" ~index ~chunks ~compressed
      ~images:(Hashtbl.copy r.r_images) ~files:(Hashtbl.copy r.r_files)
      ~stats ~initial_exe ()
  in
  ( t,
    { rr_base_frame = base;
      rr_chunks = n;
      rr_frames = !frames;
      rr_dropped_chunks = r.r_dropped_chunks;
      rr_dropped_frames = r.r_dropped_frames;
      rr_resident_bytes = r.r_bytes } )

let ring_sink r =
  { (Sink.make ~bounded:true ~name:"<ring>" ~put:(ring_put r)
       ~commit:(fun stats _index -> r.r_stats <- Some (copy_stats stats))
       ~close:(fun () -> ())
       ())
    with
    Sink.sk_result = (fun () -> Some (fst (ring_trace r)))
  }

module Writer = struct
  (* Incremental-sink state: the trace streams to [s_sink] *while it is
     being recorded*, so a writer killed mid-record leaves a salvageable
     record-stream prefix (file sink), a live ring window (ring sink) or
     a set of content-addressed objects (repo sink) instead of nothing.
     [j_marks] remembers the (length, crc) of every file snapshot
     already streamed, so the growing per-task cloned-data files emit
     suffix deltas rather than full rewrites. *)
  type sstate = {
    s_sink : Sink.t;
    mutable j_since_mark : int; (* chunks streamed since the last mark *)
    j_marks : (string, int * int) Hashtbl.t; (* path -> (len, crc) *)
  }

  type w = {
    mutable acc_chunks : string list; (* sealed stored bytes, reversed *)
    mutable acc_index : chunk_info list; (* reversed *)
    mutable acc_off : int; (* running byte_offset *)
    mutable pending : Codec.sink;
    ectx : Event.ectx; (* frame codec state, reset at chunk boundaries *)
    mutable pending_frames : int;
    mutable pending_kinds : int;
    mutable frames_flushed : int; (* first_frame of the pending chunk *)
    chunk_limit : int;
    images : (string, Image.t) Hashtbl.t;
    files : (string, string) Hashtbl.t;
    stats : stats;
    mutable exe : string;
    compress : bool;
    sink : sstate option;
    bounded : bool; (* bounded sink: sealed chunk bytes are not kept *)
    mutable closed : bool; (* finish or abort already ran *)
  }

  let create ?(compress = true) ?(chunk_limit = default_chunk_limit) ?sink
      ~initial_exe () =
    let bounded =
      match sink with Some s -> s.Sink.sk_bounded | None -> false
    in
    let sink =
      match sink with
      | None -> None
      | Some s ->
        s.Sink.sk_put (Sink.Header { compressed = compress; initial_exe });
        Some { s_sink = s; j_since_mark = 0; j_marks = Hashtbl.create 8 }
    in
    { acc_chunks = [];
      acc_index = [];
      acc_off = 0;
      pending = Codec.sink (); (* chunk-lifecycle *)
      ectx = Event.ectx ();
      pending_frames = 0;
      pending_kinds = 0;
      frames_flushed = 0;
      chunk_limit;
      images = Hashtbl.create 8;
      files = Hashtbl.create 8;
      stats = new_stats ();
      exe = initial_exe;
      compress;
      sink;
      bounded;
      closed = false }

  (* Stream every file snapshot that changed since its last mark.  A
     pure append (old bytes are a prefix, by length+CRC) emits only the
     suffix; anything else rewrites from offset 0.  Runs before each
     chunk event so any persisted prefix satisfies the ordering
     invariant (chunks never reference file state the stream has not
     shown). *)
  let journal_files w j =
    let paths =
      Hashtbl.fold (fun p _ acc -> p :: acc) w.files []
      |> List.sort compare
    in
    List.iter
      (fun path ->
        let data = Hashtbl.find w.files path in
        let len = String.length data in
        let crc = Crc32.string data in
        let old_len, old_crc =
          match Hashtbl.find_opt j.j_marks path with
          | Some m -> m
          | None -> (0, 0)
        in
        if len <> old_len || crc <> old_crc then begin
          let offset, data =
            if len > old_len
               && Crc32.sub data ~pos:0 ~len:old_len = old_crc
            then (old_len, String.sub data old_len (len - old_len))
            else (0, data)
          in
          j.s_sink.Sink.sk_put (Sink.File_delta { path; offset; data });
          Hashtbl.replace j.j_marks path (len, crc)
        end)
      paths

  (* Seal the pending frames as one chunk: deflate it, build its index
     entry (with CRC), account compression, and — with a sink — stream it
     out behind its file deltas.  A bounded sink owns the chunk bytes
     from here on; the writer keeps only the index entry. *)
  let flush_chunk w =
    if w.pending_frames > 0 then begin
      let raw = Buffer.contents w.pending in
      Buffer.clear w.pending;
      (* Delta state must not leak across the chunk boundary — the
         decoder starts every chunk from a fresh context. *)
      Event.reset_ectx w.ectx;
      Telemetry.incr tm_chunk_flush;
      let stored =
        if w.compress then
          Timeline.scope "trace.deflate" (fun () -> Compress.deflate raw)
        else Timeline.scope "trace.store" (fun () -> raw)
      in
      let stored_len = String.length stored in
      w.stats.n_chunks <- w.stats.n_chunks + 1;
      w.stats.compressed_bytes <- w.stats.compressed_bytes + stored_len;
      if raw <> "" then
        Telemetry.observe tm_deflate_ratio
          (stored_len * 100 / String.length raw);
      let ci =
        { first_frame = w.frames_flushed;
          n_frames = w.pending_frames;
          byte_offset = w.acc_off;
          stored_len;
          kinds = w.pending_kinds;
          crc32 = Crc32.string stored }
      in
      w.frames_flushed <- w.frames_flushed + w.pending_frames;
      w.pending_frames <- 0;
      w.pending_kinds <- 0;
      w.acc_off <- w.acc_off + stored_len;
      if not w.bounded then w.acc_chunks <- stored :: w.acc_chunks;
      w.acc_index <- ci :: w.acc_index;
      match w.sink with
      | None -> ()
      | Some j ->
        journal_files w j;
        j.s_sink.Sink.sk_put
          (Sink.Chunk
             { first_frame = ci.first_frame;
               n_frames = ci.n_frames;
               kinds = ci.kinds;
               stored });
        j.j_since_mark <- j.j_since_mark + 1;
        if j.j_since_mark >= journal_interval then begin
          j.s_sink.Sink.sk_put (Sink.Journal w.stats);
          j.j_since_mark <- 0
        end
    end

  (* Append one frame; returns the serialized size (for cost charging). *)
  let event w e =
    w.stats.n_events <- w.stats.n_events + 1;
    w.pending_frames <- w.pending_frames + 1;
    w.pending_kinds <- w.pending_kinds lor Event.kind_bit e;
    let before = Buffer.length w.pending in
    Event.encode w.ectx w.pending e;
    let sz = Buffer.length w.pending - before in
    w.stats.raw_bytes <- w.stats.raw_bytes + sz;
    (match e with
    | Event.E_buf_flush { records; _ } ->
      w.stats.n_buffered_syscalls <-
        w.stats.n_buffered_syscalls + List.length records
    | Event.E_syscall _ ->
      w.stats.n_traced_syscalls <- w.stats.n_traced_syscalls + 1
    | Event.E_clone _ | Event.E_exec _ | Event.E_mmap _ | Event.E_signal _
    | Event.E_sched _ | Event.E_insn_trap _ | Event.E_patch _
    | Event.E_exit _ | Event.E_rr_setup _ | Event.E_syscall_enter _
    | Event.E_checksum _ ->
      ());
    if Buffer.length w.pending >= w.chunk_limit then flush_chunk w;
    sz

  (* Snapshot an executable image into the trace (hard link / clone):
     costs no data copying, only accounting.  A journaling writer
     streams the image immediately — before any chunk can reference
     it. *)
  let add_image w ~path img =
    if not (Hashtbl.mem w.images path) then begin
      Hashtbl.replace w.images path img;
      let size = Image.byte_size img in
      w.stats.cloned_bytes <- w.stats.cloned_bytes + size;
      w.stats.cloned_blocks <-
        w.stats.cloned_blocks + ((size + 4095) / 4096);
      match w.sink with
      | Some j -> j.s_sink.Sink.sk_put (Sink.Image { path; img })
      | None -> ()
    end

  (* Snapshot file bytes.  [cloned] distinguishes free COW clones from
     real copies (the no-cloning configuration of Table 1).  Re-adding a
     path (the growing per-task cloned-data file) accounts only the
     growth. *)
  let add_file w ~path ~cloned data =
    let old_size =
      match Hashtbl.find_opt w.files path with
      | Some prev -> String.length prev
      | None -> 0
    in
    Hashtbl.replace w.files path data;
    let delta = max 0 (String.length data - old_size) in
    if cloned then begin
      w.stats.cloned_bytes <- w.stats.cloned_bytes + delta;
      w.stats.cloned_blocks <- w.stats.cloned_blocks + ((delta + 4095) / 4096)
    end
    else w.stats.copied_file_bytes <- w.stats.copied_file_bytes + delta

  let find_file w path = Hashtbl.find_opt w.files path

  (* Seal the last chunk, assemble the index, and — with a sink —
     commit: final file deltas, then the sink's own commit step
     (trailer + footer + close for the file sink, the manifest for the
     repo sink).  A sink failure propagates as {!Io.Io_error} to the
     caller (the recorder wraps it in its own typed error), and
     whatever prefix reached the sink is salvage input.  A bounded sink
     supplies the resulting trace — the retained ring window — since
     the writer kept no chunk bytes. *)
  let finish w =
    Timeline.scope "trace.commit" @@ fun () ->
    flush_chunk w;
    let index = Array.of_list (List.rev w.acc_index) in
    let chunks = Array.of_list (List.rev w.acc_chunks) in
    (match w.sink with
    | None -> ()
    | Some j ->
      journal_files w j;
      j.s_sink.Sink.sk_commit w.stats index);
    w.closed <- true;
    let bounded_result =
      match w.sink with
      | Some j when w.bounded -> j.s_sink.Sink.sk_result ()
      | Some _ | None -> None
    in
    match bounded_result with
    | Some t -> t
    | None ->
      make_t ~index ~chunks ~compressed:w.compress ~images:w.images
        ~files:w.files ~stats:w.stats ~initial_exe:w.exe ()

  (* Release a writer without committing: close the sink (for the file
     sink, the journal fd — the leak a killed recording used to leave
     behind).  Idempotent, and safe after a failed [finish]; never
     raises on sink close errors, because abort runs on error paths. *)
  let abort w =
    if not w.closed then begin
      w.closed <- true;
      match w.sink with
      | Some j -> ( try j.s_sink.Sink.sk_close () with _ -> ())
      | None -> ()
    end
end

let n_events t = t.stats.n_events

let stats t = t.stats

let chunk_index t = t.index

let decoded_chunks t = t.chunk_decodes

let initial_exe t = t.initial_exe

let compressed t = t.compressed

let index t = t.sidecar

let set_index t ix =
  if Trace_index.n_events ix <> t.stats.n_events then
    Fmt.invalid_arg "Trace.set_index: index covers %d frames, trace has %d"
      (Trace_index.n_events ix) t.stats.n_events;
  t.sidecar <- Some ix

let drop_index t = t.sidecar <- None

let image t path =
  match Hashtbl.find_opt t.images path with
  | Some img -> img
  | None -> Fmt.invalid_arg "trace: no image %s" path

let file t path =
  match Hashtbl.find_opt t.files path with
  | Some d -> d
  | None -> Fmt.invalid_arg "trace: no file %s" path

(* ---- chunk decoding (the only path from stored bytes to frames) ----- *)

let decode_chunk_raw t ~idx ci stored =
  if Crc32.string stored <> ci.crc32 then begin
    Telemetry.incr tm_crc_fail;
    raise (Format_error (Chunk_crc idx))
  end;
  try
    let raw =
      if t.compressed then
        Timeline.scope "trace.inflate" (fun () -> Compress.inflate stored)
      else stored
    in
    let s = Codec.source raw in
    let ectx = Event.ectx () in
    let out = Array.make ci.n_frames Event.(E_exit { tid = 0; status = 0 }) in
    for i = 0 to ci.n_frames - 1 do
      out.(i) <- Event.decode ectx s
    done;
    if not (Codec.eof s) then
      raise (Codec.Corrupt "trailing bytes after last frame");
    out
  with
  | Compress.Corrupt msg | Codec.Corrupt msg ->
    raise
      (Format_error
         (Corrupt
            { path = t.origin;
              detail =
                Fmt.str "corrupt chunk %d at frame %d: %s" idx ci.first_frame
                  msg }))

(* Fetch chunk [ci_idx] decoded, through the LRU: a hit moves it to the
   front, a miss inflates it and evicts the least recently used chunk
   past [cache_slots]. *)
let chunk_frames t ci_idx =
  match List.assoc_opt ci_idx t.cache with
  | Some frames ->
    t.stats.lru_hits <- t.stats.lru_hits + 1;
    Telemetry.incr tm_chunk_hit;
    t.cache <- (ci_idx, frames) :: List.remove_assoc ci_idx t.cache;
    frames
  | None ->
    let frames =
      decode_chunk_raw t ~idx:ci_idx t.index.(ci_idx) t.chunks.(ci_idx)
    in
    t.chunk_decodes <- t.chunk_decodes + 1;
    t.stats.lru_misses <- t.stats.lru_misses + 1;
    Telemetry.incr tm_chunk_miss;
    t.cache <- (ci_idx, frames) :: t.cache;
    if List.length t.cache > cache_slots then begin
      t.stats.lru_evictions <-
        t.stats.lru_evictions + (List.length t.cache - cache_slots);
      Telemetry.incr tm_chunk_evict;
      t.cache <- List.filteri (fun i _ -> i < cache_slots) t.cache
    end;
    frames

(* Binary search: the chunk containing frame [i]. *)
let chunk_of_frame t i =
  let lo = ref 0 and hi = ref (Array.length t.index - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.index.(mid).first_frame <= i then lo := mid else hi := mid - 1
  done;
  !lo

module Reader = struct
  type cursor = { t : t; mutable pos : int }

  let open_ t = { t; pos = 0 }

  let pos c = c.pos
  let length c = n_events c.t
  let at_end c = c.pos >= n_events c.t

  let seek c i =
    if i < 0 || i > n_events c.t then
      Fmt.invalid_arg "Trace.Reader.seek: %d out of range [0,%d]" i
        (n_events c.t);
    c.pos <- i

  let frame t i =
    if i < 0 || i >= n_events t then
      Fmt.invalid_arg "Trace.Reader.frame: %d out of range [0,%d)" i
        (n_events t);
    let ci_idx = chunk_of_frame t i in
    (chunk_frames t ci_idx).(i - t.index.(ci_idx).first_frame)

  let peek c = if at_end c then None else Some (frame c.t c.pos)

  let next c =
    match peek c with
    | None -> invalid_arg "Trace.Reader.next: at end of trace"
    | Some e ->
      c.pos <- c.pos + 1;
      e

  (* Fold over every frame of the trace, one chunk at a time.  Chunks
     pass through the LRU, so a whole-trace fold costs one decode per
     chunk and holds at most [cache_slots] of them. *)
  let fold f t acc =
    let acc = ref acc in
    Array.iteri
      (fun ci_idx ci ->
        let frames = chunk_frames t ci_idx in
        Array.iteri (fun j e -> acc := f (ci.first_frame + j) e !acc) frames)
      t.index;
    !acc

  let iter f t = fold (fun i e () -> f i e) t ()

  let to_array t =
    Array.init (n_events t) (fun i -> frame t i)

  (* Frame searches.  [kind_mask], when given, lets the index skip whole
     chunks containing no frame of the wanted kinds — those chunks are
     never inflated. *)
  let chunk_may_match ci = function
    | None -> true
    | Some mask -> ci.kinds land mask <> 0

  let find_from ?kind_mask t from p =
    let n = n_events t in
    let from = max from 0 in
    if from >= n then None
    else begin
      let result = ref None in
      let ci_idx = ref (chunk_of_frame t from) in
      while !result = None && !ci_idx < Array.length t.index do
        let ci = t.index.(!ci_idx) in
        if chunk_may_match ci kind_mask then begin
          let frames = chunk_frames t !ci_idx in
          let j = ref (max 0 (from - ci.first_frame)) in
          while !result = None && !j < ci.n_frames do
            if p frames.(!j) then result := Some (ci.first_frame + !j);
            incr j
          done
        end;
        incr ci_idx
      done;
      !result
    end

  let rfind_before ?kind_mask t before p =
    let n = n_events t in
    let start = min (before - 1) (n - 1) in
    if start < 0 then None
    else begin
      let result = ref None in
      let ci_idx = ref (chunk_of_frame t start) in
      while !result = None && !ci_idx >= 0 do
        let ci = t.index.(!ci_idx) in
        if chunk_may_match ci kind_mask then begin
          let frames = chunk_frames t !ci_idx in
          let j = ref (min (ci.n_frames - 1) (start - ci.first_frame)) in
          while !result = None && !j >= 0 do
            if p frames.(!j) then result := Some (ci.first_frame + !j);
            decr j
          done
        end;
        decr ci_idx
      done;
      !result
    end
end

(* Rebuild the chunk stream with every frame rewritten by [f], keeping
   chunk boundaries.  A testing/tooling device (trace surgery, tamper
   injection); stats carry over with the frame-stream byte counts
   recomputed, and per-chunk CRCs recomputed over the new stored
   bytes. *)
let map_frames f t =
  let stats =
    { t.stats with
      raw_bytes = 0;
      compressed_bytes = 0;
      lru_hits = 0;
      lru_misses = 0;
      lru_evictions = 0 }
  in
  let remake ~index ~chunks =
    make_t ~index ~chunks ~compressed:t.compressed ~images:t.images
      ~files:t.files ~stats ~initial_exe:t.initial_exe ()
  in
  let n_chunks = Array.length t.index in
  if n_chunks = 0 then remake ~index:t.index ~chunks:t.chunks
  else begin
  let chunks = Array.make n_chunks "" in
  let index = Array.make n_chunks t.index.(0) in
  let byte_offset = ref 0 in
  let ectx = Event.ectx () in
  Array.iteri
    (fun ci_idx ci ->
      let frames = decode_chunk_raw t ~idx:ci_idx ci t.chunks.(ci_idx) in
      let kinds = ref 0 in
      let b = Codec.sink () in (* chunk-lifecycle *)
      Event.reset_ectx ectx;
      Array.iteri
        (fun j e ->
          let e' = f (ci.first_frame + j) e in
          kinds := !kinds lor Event.kind_bit e';
          Event.encode ectx b e')
        frames;
      let raw = Buffer.contents b in
      stats.raw_bytes <- stats.raw_bytes + String.length raw;
      let stored = if t.compressed then Compress.deflate raw else raw in
      stats.compressed_bytes <- stats.compressed_bytes + String.length stored;
      chunks.(ci_idx) <- stored;
      index.(ci_idx) <-
        { ci with
          byte_offset = !byte_offset;
          stored_len = String.length stored;
          kinds = !kinds;
          crc32 = Crc32.string stored };
      byte_offset := !byte_offset + String.length stored)
    t.index;
  remake ~index ~chunks
  end

(* ---- parts access (the repository layer's view) ---------------------- *)

let chunk_stored t i = t.chunks.(i)

let images t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.images []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let files t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.files []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

(* Validating assembly from externally stored parts (the repository's
   manifest + object store): the same structural invariants the strict
   loader enforces — chunk contiguity from frame 0, no empty chunks,
   stats agreeing with the chunk stream — checked up front, with
   byte_offset/stored_len/crc32 recomputed from the actual bytes. *)
let of_parts ?(origin = "<parts>") ~compressed ~initial_exe ~chunks:parts
    ~images:imgs ~files:fls ~stats:st () =
  let exception Bad of string in
  try
    let n = Array.length parts in
    let index =
      Array.make n
        { first_frame = 0;
          n_frames = 0;
          byte_offset = 0;
          stored_len = 0;
          kinds = 0;
          crc32 = 0 }
    in
    let chunks = Array.make n "" in
    let off = ref 0 and frame = ref 0 in
    Array.iteri
      (fun i (first_frame, n_frames, kinds, stored) ->
        if first_frame <> !frame then
          raise (Bad (Fmt.str "chunk index gap at frame %d" !frame));
        if n_frames <= 0 then raise (Bad "empty chunk record");
        index.(i) <-
          { first_frame;
            n_frames;
            byte_offset = !off;
            stored_len = String.length stored;
            kinds;
            crc32 = Crc32.string stored };
        chunks.(i) <- stored;
        off := !off + String.length stored;
        frame := !frame + n_frames)
      parts;
    if st.n_events <> !frame then
      raise
        (Bad
           (Fmt.str "stats claim %d frames, chunks cover %d" st.n_events
              !frame));
    let stats = copy_stats st in
    stats.n_chunks <- n;
    stats.compressed_bytes <- !off;
    let images = Hashtbl.create 8 and files = Hashtbl.create 8 in
    List.iter (fun (p, img) -> Hashtbl.replace images p img) imgs;
    List.iter (fun (p, d) -> Hashtbl.replace files p d) fls;
    Ok
      (make_t ~origin ~index ~chunks ~compressed ~images ~files ~stats
         ~initial_exe ())
  with Bad detail -> Error (Corrupt { path = origin; detail })

(* ---- saving ---------------------------------------------------------- *)

let save_io t io =
  Timeline.scope "trace.save" @@ fun () ->
  try
    Io.write io magic_v3;
    write_record io ~tag:tag_header
      (header_payload ~compressed:t.compressed ~initial_exe:t.initial_exe);
    let assoc tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    let by_path (a, _) (b, _) = compare (a : string) b in
    List.iter
      (fun (path, img) ->
        write_record io ~tag:tag_image (image_payload ~path img))
      (List.sort by_path (assoc t.images));
    List.iter
      (fun (path, data) ->
        write_record io ~tag:tag_file (file_payload ~path ~offset:0 data))
      (List.sort by_path (assoc t.files));
    Array.iteri
      (fun i ci ->
        write_record io ~tag:tag_chunk
          (chunk_payload ~first_frame:ci.first_frame ~n_frames:ci.n_frames
             ~kinds:ci.kinds t.chunks.(i)))
      t.index;
    (* Sidecar index records ride after the chunks, before the trailer:
       each is independently CRC'd, so a corrupt index drops on salvage
       while every chunk before it survives. *)
    (match t.sidecar with
    | None -> ()
    | Some ix ->
      let b = Codec.sink () in (* chunk-lifecycle *)
      Trace_index.put_meta b ix;
      write_record io ~tag:tag_index (Buffer.contents b);
      Array.iter
        (fun (frame, blob) ->
          let b = Codec.sink () in (* chunk-lifecycle *)
          Trace_index.put_checkpoint b ~frame ~blob;
          write_record io ~tag:tag_index_cp (Buffer.contents b))
        (Trace_index.checkpoints ix));
    let trailer_off = Io.written io in
    write_record io ~tag:tag_trailer (trailer_payload t.stats t.index);
    Io.write io (footer_bytes ~trailer_off);
    Io.close_writer io;
    Ok ()
  with Io.Io_error e ->
    (try Io.close_writer io with Io.Io_error _ -> ());
    Error (Io e)

let save t path =
  match Io.file_writer path with
  | io -> save_io t io
  | exception Io.Io_error e -> Error (Io e)

let save_exn t path =
  match save t path with Ok () -> () | Error e -> raise (Format_error e)

(* ---- loading --------------------------------------------------------- *)

(* One parsed record attempt.  [R_short] covers both genuine truncation
   and a corrupted length varint that points past the scan region —
   indistinguishable without the CRC, and treated the same way by both
   the strict and lax paths. *)
type rec_result =
  | R_ok of char * string * int (* tag, payload, offset past the record *)
  | R_short
  | R_bad_crc of char
  | R_bad of string

let le32_at data off =
  Int32.to_int (String.get_int32_le data off) land crc_mask

let parse_record data ~limit pos =
  if pos >= limit then R_short
  else begin
    let tag = data.[pos] in
    let rec uv p shift acc =
      if p >= limit then Error `Short
      else if shift > 62 then Error `Bad
      else begin
        let b = Char.code data.[p] in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then Ok (acc, p + 1) else uv (p + 1) (shift + 7) acc
      end
    in
    match uv (pos + 1) 0 0 with
    | Error `Short -> R_short
    | Error `Bad -> R_bad "record length varint too long"
    | Ok (len, body) ->
      if body + len + 4 > limit then R_short
      else begin
        let payload = String.sub data body len in
        let stored_crc = le32_at data (body + len) in
        let crc = Crc32.sub data ~pos ~len:1 in
        let crc = Crc32.sub ~crc data ~pos:body ~len in
        if crc <> stored_crc then begin
          Telemetry.incr tm_crc_fail;
          R_bad_crc tag
        end
        else R_ok (tag, payload, body + len + 4)
      end
  end

(* Shared record-application state for the strict loader and the lax
   salvage scanner.  Chunks get their index entry (and a freshly
   computed stored-bytes CRC) as they stream past; 'J' journals pile up
   so salvage can pick the newest one consistent with the chunks it
   kept. *)
type scan_state = {
  mutable sc_header : (bool * string) option; (* compressed, initial exe *)
  mutable sc_rev_chunks : (chunk_info * string) list;
  mutable sc_frames : int;
  mutable sc_off : int;
  sc_images : (string, Image.t) Hashtbl.t;
  sc_files : (string, string) Hashtbl.t;
  mutable sc_journals : stats list; (* newest first *)
  mutable sc_trailer : (stats * chunk_info list) option;
  mutable sc_index : Trace_index.t option;
  mutable sc_rev_cps : (int * string) list; (* checkpoint records, reversed *)
}

let new_scan_state () =
  { sc_header = None;
    sc_rev_chunks = [];
    sc_frames = 0;
    sc_off = 0;
    sc_images = Hashtbl.create 8;
    sc_files = Hashtbl.create 8;
    sc_journals = [];
    sc_trailer = None;
    sc_index = None;
    sc_rev_cps = [] }

(* Apply one CRC-valid record.  Raises [Codec.Corrupt] on a malformed
   payload and {!Format_error} on version skew; the strict loader turns
   the former into a typed [Corrupt], the salvage scanner turns either
   into "damage starts here". *)
let apply_record st ~path tag payload =
  let s = Codec.source payload in
  let check_consumed () =
    if not (Codec.eof s) then raise (Codec.Corrupt "trailing record bytes")
  in
  if tag = tag_header then begin
    let version = Codec.get_uvarint s in
    if version <> format_version then
      raise
        (Format_error
           (Version_skew { path; found = version; expected = format_version }));
    let compressed = Codec.get_bool s in
    let exe = Codec.get_string s in
    check_consumed ();
    st.sc_header <- Some (compressed, exe)
  end
  else if tag = tag_image then begin
    let p = Codec.get_string s in
    let img = Image_codec.get_image s in
    check_consumed ();
    Hashtbl.replace st.sc_images p img
  end
  else if tag = tag_file then begin
    let p = Codec.get_string s in
    let offset = Codec.get_uvarint s in
    let suffix = Codec.get_string s in
    check_consumed ();
    let current =
      match Hashtbl.find_opt st.sc_files p with Some d -> d | None -> ""
    in
    if offset > String.length current then
      raise (Codec.Corrupt "file delta offset past current length");
    Hashtbl.replace st.sc_files p (String.sub current 0 offset ^ suffix)
  end
  else if tag = tag_chunk then begin
    let first_frame = Codec.get_uvarint s in
    let n_frames = Codec.get_uvarint s in
    let kinds = Codec.get_uvarint s in
    let stored = Codec.take s (String.length payload - Codec.pos s) in
    if first_frame <> st.sc_frames then
      raise (Codec.Corrupt "chunk index gap (first_frame mismatch)");
    if n_frames = 0 then raise (Codec.Corrupt "empty chunk record");
    let ci =
      { first_frame;
        n_frames;
        byte_offset = st.sc_off;
        stored_len = String.length stored;
        kinds;
        crc32 = Crc32.string stored }
    in
    st.sc_rev_chunks <- (ci, stored) :: st.sc_rev_chunks;
    st.sc_frames <- st.sc_frames + n_frames;
    st.sc_off <- st.sc_off + String.length stored
  end
  else if tag = tag_journal then begin
    let stats = get_stats s in
    check_consumed ();
    st.sc_journals <- stats :: st.sc_journals
  end
  else if tag = tag_trailer then begin
    let stats = get_stats s in
    let index = Codec.get_list s get_chunk_info in
    check_consumed ();
    st.sc_trailer <- Some (stats, index)
  end
  else if tag = tag_index then begin
    let ix = Trace_index.get_meta s in
    check_consumed ();
    st.sc_index <- Some ix
  end
  else if tag = tag_index_cp then begin
    let frame, blob = Trace_index.get_checkpoint s in
    check_consumed ();
    st.sc_rev_cps <- (frame, blob) :: st.sc_rev_cps
  end
  else raise (Codec.Corrupt (Fmt.str "unknown record tag %C" tag))

(* Attach a scanned sidecar to a built trace, if it covers exactly the
   frames the trace carries.  A mismatched index (a salvage kept fewer
   chunks than the index describes) is silently dropped: the index is
   derived data and scans still answer. *)
let attach_scanned_index st t =
  match st.sc_index with
  | Some ix when Trace_index.n_events ix = t.stats.n_events ->
    List.iter
      (fun (frame, blob) ->
        if frame <= t.stats.n_events then
          Trace_index.add_checkpoint ix ~frame ~blob)
      (List.rev st.sc_rev_cps);
    t.sidecar <- Some ix
  | Some _ | None -> ()

let corrupt ~path detail = Corrupt { path; detail }

(* Strict v3 load: the footer must commit the file, every record must
   be CRC-valid, and the trailer index must agree field-for-field with
   the chunks actually scanned.  No chunk is inflated — frame-level
   validation stays lazy — but every stored byte is CRC-covered by its
   record, so bit rot is caught here, not at first access. *)
let load_v3 ~path data =
  let file_len = String.length data in
  if file_len < 8 + 16 then
    Error (Truncated { path; detail = "no room for header and footer" })
  else if String.sub data (file_len - 8) 8 <> footer_magic then
    Error
      (Truncated
         { path; detail = "missing commit footer (writer did not finish)" })
  else begin
    let toff = Int64.to_int (String.get_int64_le data (file_len - 16)) in
    if toff < 8 || toff > file_len - 16 then
      Error (corrupt ~path "trailer offset out of bounds")
    else begin
      let st = new_scan_state () in
      let body_end = file_len - 16 in
      let exception Stop of error in
      try
        let pos = ref 8 in
        let chunk_ord = ref 0 in
        while !pos < toff do
          match parse_record data ~limit:toff !pos with
          | R_ok (tag, payload, next) ->
            if tag = tag_chunk then incr chunk_ord;
            (try apply_record st ~path tag payload with
            | Codec.Corrupt msg -> raise (Stop (corrupt ~path msg))
            | Format_error e -> raise (Stop e));
            pos := next
          | R_short -> raise (Stop (corrupt ~path "record overruns the trailer"))
          | R_bad_crc tag when tag = tag_chunk ->
            raise (Stop (Chunk_crc !chunk_ord))
          | R_bad_crc _ -> raise (Stop (corrupt ~path "record CRC mismatch"))
          | R_bad msg -> raise (Stop (corrupt ~path msg))
        done;
        (* The trailer record itself, which must fill [toff, body_end). *)
        (match parse_record data ~limit:body_end toff with
        | R_ok (tag, payload, next) when tag = tag_trailer && next = body_end
          -> (
          try apply_record st ~path tag payload with
          | Codec.Corrupt msg -> raise (Stop (corrupt ~path msg))
          | Format_error e -> raise (Stop e))
        | R_ok _ -> raise (Stop (corrupt ~path "malformed trailer record"))
        | R_short -> raise (Stop (corrupt ~path "trailer record truncated"))
        | R_bad_crc _ -> raise (Stop (corrupt ~path "trailer CRC mismatch"))
        | R_bad msg -> raise (Stop (corrupt ~path msg)));
        let compressed, initial_exe =
          match st.sc_header with
          | Some h -> h
          | None -> raise (Stop (corrupt ~path "missing header record"))
        in
        let stats, tindex =
          match st.sc_trailer with
          | Some t -> t
          | None -> raise (Stop (corrupt ~path "missing trailer record"))
        in
        let scanned = Array.of_list (List.rev st.sc_rev_chunks) in
        let tindex = Array.of_list tindex in
        if Array.length tindex <> Array.length scanned then
          raise
            (Stop
               (corrupt ~path
                  (Fmt.str "trailer indexes %d chunks, stream has %d"
                     (Array.length tindex) (Array.length scanned))));
        Array.iteri
          (fun i ti ->
            let si, _ = scanned.(i) in
            if ti.crc32 <> si.crc32 then begin
              Telemetry.incr tm_crc_fail;
              raise (Stop (Chunk_crc i))
            end;
            if ti <> si then
              raise
                (Stop
                   (corrupt ~path
                      (Fmt.str "trailer disagrees with stream on chunk %d" i))))
          tindex;
        if stats.n_events <> st.sc_frames then
          raise
            (Stop
               (corrupt ~path
                  (Fmt.str "stream covers %d frames, stats claim %d"
                     st.sc_frames stats.n_events)));
        if stats.n_chunks <> Array.length scanned then
          raise
            (Stop
               (corrupt ~path
                  (Fmt.str "stream has %d chunks, stats claim %d"
                     (Array.length scanned) stats.n_chunks)));
        (match st.sc_index with
        | Some ix when Trace_index.n_events ix <> stats.n_events ->
          raise
            (Stop
               (corrupt ~path
                  (Fmt.str "index covers %d frames, trace has %d"
                     (Trace_index.n_events ix) stats.n_events)))
        | Some _ | None -> ());
        let t =
          make_t ~origin:path ~index:(Array.map fst scanned)
            ~chunks:(Array.map snd scanned) ~compressed ~images:st.sc_images
            ~files:st.sc_files ~stats ~initial_exe ()
        in
        attach_scanned_index st t;
        Ok t
      with Stop e -> Error e
    end
  end

(* The 8-byte magic picks the reader: the v3 record stream, a rejected
   legacy container, or not a trace at all. *)
let by_magic ~path data ~v3 =
  if String.length data < 8 then
    Error (Truncated { path; detail = "shorter than the magic" })
  else begin
    let magic = String.sub data 0 8 in
    if magic = magic_v3 then v3 ~path data
    else
      match List.assoc_opt magic legacy_magics with
      | Some found -> Error (Version_skew { path; found; expected = format_version })
      | None -> Error (Bad_magic { path })
  end

let open_io r =
  match Io.read_all r with
  | data -> by_magic ~path:(Io.reader_path r) data ~v3:load_v3
  | exception Io.Io_error e -> Error (Io e)

let open_ path = open_io (Io.file_reader path)

let open_exn path =
  match open_ path with Ok t -> t | Error e -> raise (Format_error e)

(* ---- salvage --------------------------------------------------------- *)

type salvage_report = {
  sr_path : string;
  sr_total_bytes : int;
  sr_valid_bytes : int; (* prefix that scanned as CRC-valid records *)
  sr_chunks_recovered : int;
  sr_frames_recovered : int;
  sr_chunks_lost : int option; (* None: total unknown (no trailer found) *)
  sr_frames_lost : int option;
  sr_files_recovered : int;
  sr_images_recovered : int;
  sr_committed : bool; (* the commit footer was present and valid *)
  sr_damage : string option; (* None: nothing wrong with the file *)
}

let pp_salvage_report ppf r =
  Fmt.pf ppf
    "%s: %d/%d bytes valid, recovered %d chunks (%d frames), %d files, %d \
     images;%s%s%s"
    r.sr_path r.sr_valid_bytes r.sr_total_bytes r.sr_chunks_recovered
    r.sr_frames_recovered r.sr_files_recovered r.sr_images_recovered
    (match r.sr_chunks_lost with
    | Some c ->
      Fmt.str " lost %d chunks (%s frames);" c
        (match r.sr_frames_lost with Some f -> string_of_int f | None -> "?")
    | None -> " loss unknown (no trailer);")
    (if r.sr_committed then " committed" else " uncommitted")
    (match r.sr_damage with
    | Some d -> Fmt.str "; damage: %s" d
    | None -> "; intact")

(* Lax scan + decode-verify: recover the longest prefix of the record
   stream that is CRC-valid, well-formed *and* whose chunks actually
   inflate and decode.  Everything past the first damage — or the first
   undecodable chunk — is reported lost, never silently included. *)
let salvage_v3 ~path data =
  let file_len = String.length data in
  let committed =
    file_len >= 24
    && String.sub data (file_len - 8) 8 = footer_magic
    &&
    let toff = Int64.to_int (String.get_int64_le data (file_len - 16)) in
    toff >= 8 && toff <= file_len - 16
  in
  (* With a valid footer the last 16 bytes are framing, not records. *)
  let limit = if committed then file_len - 16 else file_len in
  let st = new_scan_state () in
  let pos = ref 8 in
  let damage = ref None in
  let skew = ref None in (* a readable header of another version *)
  while !damage = None && !pos < limit do
    match parse_record data ~limit !pos with
    | R_ok (tag, payload, next) -> (
      match apply_record st ~path tag payload with
      | () -> pos := next
      | exception Codec.Corrupt msg ->
        damage := Some (Fmt.str "byte %d: %s" !pos msg)
      | exception Format_error e ->
        skew := Some e;
        damage := Some (Fmt.str "byte %d: %s" !pos (error_to_string e)))
    | R_short -> damage := Some (Fmt.str "byte %d: truncated record" !pos)
    | R_bad_crc tag ->
      damage := Some (Fmt.str "byte %d: record %C failed CRC" !pos tag)
    | R_bad msg -> damage := Some (Fmt.str "byte %d: %s" !pos msg)
  done;
  let valid_bytes = !pos in
  match (st.sc_header, !skew) with
  | None, Some e -> Error e
  | None, None ->
    (* Nothing before the first chunk survived: unrecoverable. *)
    Error
      (corrupt ~path
         (Fmt.str "header record unrecoverable (%s)"
            (match !damage with Some d -> d | None -> "empty stream")))
  | Some (compressed, initial_exe), _ ->
    let scanned = Array.of_list (List.rev st.sc_rev_chunks) in
    (* Decode-verify: keep the longest chunk prefix that inflates and
       decodes.  A probe [t] carries the compressed flag and origin for
       error context; its cache fills harmlessly and is discarded. *)
    let probe =
      make_t ~origin:path ~index:(Array.map fst scanned)
        ~chunks:(Array.map snd scanned) ~compressed ~images:st.sc_images
        ~files:st.sc_files ~stats:(new_stats ()) ~initial_exe ()
    in
    let keep = ref (Array.length scanned) in
    (try
       Array.iteri
         (fun i (ci, stored) ->
           match decode_chunk_raw probe ~idx:i ci stored with
           | _ -> ()
           | exception Format_error e ->
             keep := i;
             if !damage = None then
               damage := Some (Fmt.str "chunk %d: %s" i (error_to_string e));
             raise Exit)
         scanned
     with Exit -> ());
    let kept = Array.sub scanned 0 !keep in
    let frames_recovered =
      Array.fold_left (fun acc (ci, _) -> acc + ci.n_frames) 0 kept
    in
    (* Final stats: structural fields recomputed from the kept prefix;
       accounting fields (raw/cloned/copied/syscall counts) from the
       best stats snapshot not newer than the salvage point — the
       trailer if everything survived, else the newest journal whose
       chunk count the kept prefix still covers. *)
    let n_kept = Array.length kept in
    let base =
      match st.sc_trailer with
      | Some (ts, _) when !damage = None && n_kept = Array.length scanned ->
        Some ts
      | _ ->
        List.find_opt (fun js -> js.n_chunks <= n_kept) st.sc_journals
    in
    let stats =
      match base with Some b -> copy_stats b | None -> new_stats ()
    in
    stats.n_events <- frames_recovered;
    stats.n_chunks <- n_kept;
    stats.compressed_bytes <-
      Array.fold_left (fun acc (ci, _) -> acc + ci.stored_len) 0 kept;
    let t =
      make_t ~origin:path ~index:(Array.map fst kept)
        ~chunks:(Array.map snd kept) ~compressed ~images:st.sc_images
        ~files:st.sc_files ~stats ~initial_exe ()
    in
    attach_scanned_index st t;
    let chunks_lost, frames_lost =
      match st.sc_trailer with
      | Some (ts, _) ->
        (Some (ts.n_chunks - n_kept), Some (ts.n_events - frames_recovered))
      | None when !damage = None ->
        (* Clean scan to EOF but no trailer: the writer died before the
           commit — the stream itself is all there is. *)
        (Some (Array.length scanned - n_kept),
         Some (st.sc_frames - frames_recovered))
      | None -> (None, None)
    in
    let report =
      { sr_path = path;
        sr_total_bytes = file_len;
        sr_valid_bytes = valid_bytes;
        sr_chunks_recovered = n_kept;
        sr_frames_recovered = frames_recovered;
        sr_chunks_lost = chunks_lost;
        sr_frames_lost = frames_lost;
        sr_files_recovered = Hashtbl.length st.sc_files;
        sr_images_recovered = Hashtbl.length st.sc_images;
        sr_committed = committed;
        sr_damage = !damage }
    in
    Telemetry.add tm_salvage_chunks n_kept;
    Telemetry.add tm_salvage_frames frames_recovered;
    Telemetry.add tm_salvage_lost (max 0 (file_len - valid_bytes));
    Ok (t, report)

let salvage_io r =
  match Io.read_all r with
  | data ->
    Telemetry.incr tm_salvage_runs;
    by_magic ~path:(Io.reader_path r) data ~v3:salvage_v3
  | exception Io.Io_error e -> Error (Io e)

let salvage path = salvage_io (Io.file_reader path)

let pp_stats ppf s =
  Fmt.pf ppf
    "events=%d raw=%dB compressed=%dB (%.2fx) cloned=%dB (%d blocks) \
     copied=%dB buffered-syscalls=%d traced-syscalls=%d lru=%d/%d \
     hit/miss (%d evicted)"
    s.n_events s.raw_bytes s.compressed_bytes
    (Compress.ratio ~original:s.raw_bytes ~compressed:s.compressed_bytes)
    s.cloned_bytes s.cloned_blocks s.copied_file_bytes s.n_buffered_syscalls
    s.n_traced_syscalls s.lru_hits s.lru_misses s.lru_evictions
