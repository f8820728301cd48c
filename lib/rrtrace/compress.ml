(* A DEFLATE-style compressor: LZ77 with hash-chain matching over a 32 KiB
   window, followed by canonical Huffman coding of a literal/length
   alphabet and a distance alphabet with extra bits — the same structure
   as zlib's "deflate", which rr uses for all general trace data (paper
   §2.7).  The bitstream is our own (single block, code lengths stored
   verbatim), so it is not zlib-compatible, but the algorithmic costs and
   achieved ratios are comparable for trace-like data.

   The match search is greedy and walks at most [max_chain] candidates,
   newest first; like zlib it stops at the first full-length match, and
   it skips a candidate that differs at the current best length, since
   only a strictly longer match replaces the best.  Tokens are plain
   ints and symbol frequencies are counted as they are made.  Inflate
   writes into an output of the declared size, which is bounded by the
   most a stream of its length can expand to. *)

let window_size = 32768
let min_match = 4
let max_match = 258
let hash_bits = 15
let hash_size = 1 lsl hash_bits
let max_chain = 64

(* Symbol alphabet: 0..255 literals, 256 end-of-block, 257.. length codes. *)
let eob = 256

(* Length codes: (base, extra_bits), deflate's table. *)
let len_table =
  [| (3, 0); (4, 0); (5, 0); (6, 0); (7, 0); (8, 0); (9, 0); (10, 0);
     (11, 1); (13, 1); (15, 1); (17, 1); (19, 2); (23, 2); (27, 2); (31, 2);
     (35, 3); (43, 3); (51, 3); (59, 3); (67, 4); (83, 4); (99, 4); (115, 4);
     (131, 5); (163, 5); (195, 5); (227, 5); (258, 0) |]

let dist_table =
  [| (1, 0); (2, 0); (3, 0); (4, 0); (5, 1); (7, 1); (9, 2); (13, 2);
     (17, 3); (25, 3); (33, 4); (49, 4); (65, 5); (97, 5); (129, 6); (193, 6);
     (257, 7); (385, 7); (513, 8); (769, 8); (1025, 9); (1537, 9);
     (2049, 10); (3073, 10); (4097, 11); (6145, 11); (8193, 12); (12289, 12);
     (16385, 13); (24577, 13) |]

let num_lit_syms = 257 + Array.length len_table
let num_dist_syms = Array.length dist_table

(* [code_index table limit]: byte [v] is the row of [table] whose range
   holds [v], i.e. the last row with base ≤ v (row 0 below the first). *)
let code_index table limit =
  let t = Bytes.make (limit + 1) '\000' in
  let n = Array.length table in
  for c = 0 to n - 1 do
    let lo = fst table.(c) in
    let hi = if c + 1 < n then fst table.(c + 1) - 1 else limit in
    Bytes.fill t lo (hi - lo + 1) (Char.chr c)
  done;
  t

let len_code = code_index len_table max_match
let dist_code = code_index dist_table window_size
let code t v = Char.code (Bytes.unsafe_get t v)

(* A token is a literal byte, or [match_flag lor (len lsl 16) lor dist]
   (dist ≤ 32768 fits 16 bits, len ≤ 258 fits 9). *)
let match_flag = 1 lsl 25

let hash4 s i =
  (Char.code (String.unsafe_get s i)
  + (Char.code (String.unsafe_get s (i + 1)) lsl 5)
  + (Char.code (String.unsafe_get s (i + 2)) lsl 10)
  + (Char.code (String.unsafe_get s (i + 3)) lsl 15))
  land (hash_size - 1)
[@@inline]

(* Hash-chain heads and links, one pair per domain and reused by every
   call, since allocating them per chunk cost more than the search:
   [head] is reset per call, and [prev] is a ring over the window.  A
   position is only followed on the chain while it is inside the window,
   so its [prev] slot has not been reused yet. *)
let chains_key =
  Domain.DLS.new_key (fun () ->
      (Array.make hash_size (-1), Array.make window_size (-1)))

(* Greedy LZ77 tokenization with hash chains.  Returns the tokens and
   their count, and adds each token's symbols to the frequency tables. *)
let tokenize src lit_freq dist_freq =
  let n = String.length src in
  let head, prev = Domain.DLS.get chains_key in
  Array.fill head 0 hash_size (-1);
  let tokens = ref (Array.make (1 + (n / 16)) 0) and ntok = ref 0 in
  let emit t =
    if !ntok = Array.length !tokens then begin
      let bigger = Array.make (2 * !ntok) 0 in
      Array.blit !tokens 0 bigger 0 !ntok;
      tokens := bigger
    end;
    Array.unsafe_set !tokens !ntok t;
    incr ntok
  in
  (* Both indices are masked to their array's size. *)
  let[@inline] insert pos =
    if pos + min_match <= n then begin
      let h = hash4 src pos in
      let slot = pos land (window_size - 1) in
      Array.unsafe_set prev slot (Array.unsafe_get head h);
      Array.unsafe_set head h pos
    end
  in
  let literal pos =
    let c = Char.code (String.unsafe_get src pos) in
    emit c;
    lit_freq.(c) <- lit_freq.(c) + 1
  in
  let i = ref 0 in
  while !i < n do
    let pos = !i in
    if pos + min_match > n then begin
      literal pos;
      incr i
    end
    else begin
      (* Find the longest match on the chain. *)
      let lim = Int.min max_match (n - pos) in
      let best_len = ref 0 and best_dist = ref 0 in
      let cand = ref head.(hash4 src pos) in
      let chain = ref 0 in
      while !cand >= 0 && !chain < max_chain do
        let c = !cand in
        if pos - c <= window_size then begin
          let b = !best_len in
          (* b < lim here, so both offsets are inside [src]. *)
          if String.unsafe_get src (c + b) = String.unsafe_get src (pos + b)
          then begin
            let l = ref 0 in
            while
              !l < lim
              && String.unsafe_get src (c + !l) = String.unsafe_get src (pos + !l)
            do
              incr l
            done;
            if !l > b then begin
              best_len := !l;
              best_dist := pos - c
            end
          end;
          cand :=
            if !best_len = lim then -1 else prev.(c land (window_size - 1));
          incr chain
        end
        else cand := -1
      done;
      let len = !best_len in
      if len >= min_match then begin
        let dist = !best_dist in
        emit (match_flag lor (len lsl 16) lor dist);
        let lc = 257 + code len_code len and dc = code dist_code dist in
        lit_freq.(lc) <- lit_freq.(lc) + 1;
        dist_freq.(dc) <- dist_freq.(dc) + 1;
        for p = pos to pos + len - 1 do insert p done;
        i := pos + len
      end
      else begin
        literal pos;
        insert pos;
        incr i
      end
    end
  done;
  (!tokens, !ntok)

(* Entropy-coded body; [deflate] below falls back to a stored block when
   this doesn't pay (small inputs can't amortize the code-length tables,
   like deflate's stored-block case). *)
let deflate_huffman src =
  let lit_freq = Array.make num_lit_syms 0 in
  let dist_freq = Array.make num_dist_syms 0 in
  let tokens, ntok = tokenize src lit_freq dist_freq in
  lit_freq.(eob) <- lit_freq.(eob) + 1;
  let lit_enc = Huffman.encoder lit_freq in
  let dist_enc = Huffman.encoder dist_freq in
  let w = Bitio.writer () in
  (* Header: original size, then the two code-length tables (4 bits...
     lengths go to 15, so 4 bits each). *)
  Bitio.put_bits w (String.length src land 0xffffff) 24;
  Bitio.put_bits w (String.length src lsr 24) 24;
  Array.iter (fun l -> Bitio.put_bits w l 4) lit_enc.Huffman.lens;
  Array.iter (fun l -> Bitio.put_bits w l 4) dist_enc.Huffman.lens;
  for k = 0 to ntok - 1 do
    let t = tokens.(k) in
    if t land match_flag = 0 then Huffman.write_symbol w lit_enc t
    else begin
      let len = (t lsr 16) land 0x1ff and dist = t land 0xffff in
      let lc = code len_code len in
      let base, extra = len_table.(lc) in
      Huffman.write_symbol w lit_enc (257 + lc);
      if extra > 0 then Bitio.put_bits w (len - base) extra;
      let dc = code dist_code dist in
      let dbase, dextra = dist_table.(dc) in
      Huffman.write_symbol w dist_enc dc;
      if dextra > 0 then Bitio.put_bits w (dist - dbase) dextra
    end
  done;
  Huffman.write_symbol w lit_enc eob;
  Bitio.finish w

let tm_deflate_in = Telemetry.counter "compress.deflate_bytes_in"
let tm_deflate_out = Telemetry.counter "compress.deflate_bytes_out"
let tm_inflate_out = Telemetry.counter "compress.inflate_bytes"

let deflate src =
  let packed = deflate_huffman src in
  let stored =
    if String.length packed + 1 <= String.length src then "\001" ^ packed
    else "\000" ^ src
  in
  Telemetry.add tm_deflate_in (String.length src);
  Telemetry.add tm_deflate_out (String.length stored);
  stored

exception Corrupt of string

let inflate_huffman data =
  let r = Bitio.reader data in
  try
    let lo = Bitio.get_bits r 24 in
    let hi = Bitio.get_bits r 24 in
    let size = lo lor (hi lsl 24) in
    (* Each byte holds at most 8 symbols, each at most one 258-byte match. *)
    if size > 8 * max_match * String.length data then
      raise (Corrupt "declared size too large");
    let lit_lens = Array.init num_lit_syms (fun _ -> Bitio.get_bits r 4) in
    let dist_lens = Array.init num_dist_syms (fun _ -> Bitio.get_bits r 4) in
    let lit_dec = Huffman.decoder lit_lens in
    let dist_dec = Huffman.decoder dist_lens in
    let out = Bytes.create size in (* chunk-lifecycle: one per inflate *)
    (* [fill o] decodes symbols from output offset [o] to end of block. *)
    let rec fill o =
      let s = Huffman.read_symbol r lit_dec in
      if s < 256 then begin
        if o >= size then raise (Corrupt "size mismatch");
        Bytes.unsafe_set out o (Char.unsafe_chr s);
        fill (o + 1)
      end
      else if s = eob then o
      else begin
        let base, extra = len_table.(s - 257) in
        let len = base + if extra > 0 then Bitio.get_bits r extra else 0 in
        let dbase, dextra = dist_table.(Huffman.read_symbol r dist_dec) in
        let dist = dbase + if dextra > 0 then Bitio.get_bits r dextra else 0 in
        if dist > o then raise (Corrupt "distance before start");
        if len > size - o then raise (Corrupt "size mismatch");
        if dist >= len then Bytes.blit out (o - dist) out o len
        else
          (* Overlapping copies are the LZ77 norm: byte-by-byte. *)
          for k = o to o + len - 1 do
            Bytes.unsafe_set out k (Bytes.unsafe_get out (k - dist))
          done;
        fill (o + len)
      end
    in
    if fill 0 <> size then raise (Corrupt "size mismatch");
    Bytes.unsafe_to_string out
  with
  | Bitio.Truncated -> raise (Corrupt "truncated")
  | Huffman.Bad_code -> raise (Corrupt "bad code")

let inflate data =
  if String.length data = 0 then raise (Corrupt "empty stream")
  else
    let body = String.sub data 1 (String.length data - 1) in
    let out =
      match data.[0] with
      | '\000' -> body
      | '\001' -> inflate_huffman body
      | _ -> raise (Corrupt "bad mode byte")
    in
    Telemetry.add tm_inflate_out (String.length out);
    out

let ratio ~original ~compressed =
  if compressed = 0 then 0. else float_of_int original /. float_of_int compressed
