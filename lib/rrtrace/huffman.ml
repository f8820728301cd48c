(* Canonical, length-limited Huffman codes.

   [lengths] computes code lengths from symbol frequencies (heap-built
   Huffman tree, with iterative frequency flattening if the depth limit
   is exceeded); [canonical] assigns the canonical codes.  The encoder
   keeps each code bit-reversed, so a symbol is one [Bitio.put_bits]
   into the LSB-first stream.  The decoder is zlib puff's: per-length
   code counts plus the symbols in canonical order, read one bit at a
   time with no table beyond those two arrays. *)

let max_code_len = 15

(* A tiny binary min-heap over (weight, node index). *)
module Heap = struct
  type t = { mutable a : (int * int) array; mutable n : int }

  let create cap = { a = Array.make (max cap 1) (0, 0); n = 0 }

  let swap h i j =
    let t = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- t

  let push h x =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) (0, 0) in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- x;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && fst h.a.((!i - 1) / 2) > fst h.a.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.n && fst h.a.(l) < fst h.a.(!smallest) then smallest := l;
      if r < h.n && fst h.a.(r) < fst h.a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top

  let size h = h.n
end

(* Code lengths for [freqs]; symbols with zero frequency get length 0. *)
let rec lengths freqs =
  let n = Array.length freqs in
  let present = ref [] in
  Array.iteri (fun i f -> if f > 0 then present := i :: !present) freqs;
  match !present with
  | [] -> Array.make n 0
  | [ only ] ->
    let out = Array.make n 0 in
    out.(only) <- 1;
    out
  | symbols ->
    let nsym = List.length symbols in
    (* internal tree: nodes 0..nsym-1 are leaves (mapped to symbols),
       further nodes are internal; parent links give depths. *)
    let parent = Array.make ((2 * nsym) - 1) (-1) in
    let heap = Heap.create nsym in
    let sym_of_leaf = Array.of_list (List.rev symbols) in
    Array.iteri (fun leaf s -> Heap.push heap (freqs.(s), leaf)) sym_of_leaf;
    let next = ref nsym in
    while Heap.size heap > 1 do
      let w1, n1 = Heap.pop heap in
      let w2, n2 = Heap.pop heap in
      parent.(n1) <- !next;
      parent.(n2) <- !next;
      Heap.push heap (w1 + w2, !next);
      incr next
    done;
    let depth_of leaf =
      let rec up node d = if parent.(node) = -1 then d else up parent.(node) (d + 1) in
      up leaf 0
    in
    let out = Array.make n 0 in
    let too_deep = ref false in
    Array.iteri
      (fun leaf s ->
        let d = depth_of leaf in
        if d > max_code_len then too_deep := true;
        out.(s) <- d)
      sym_of_leaf;
    if !too_deep then
      (* Flatten the distribution and retry; converges quickly. *)
      lengths (Array.map (fun f -> if f > 0 then 1 + (f / 2) else 0) freqs)
    else out

(* Canonical code assignment: shorter codes first, ties by symbol. *)
let canonical lens =
  let n = Array.length lens in
  let count = Array.make (max_code_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lens;
  let next = Array.make (max_code_len + 2) 0 in
  let code = ref 0 in
  for l = 1 to max_code_len do
    code := (!code + count.(l - 1)) lsl 1;
    next.(l) <- !code
  done;
  let codes = Array.make n 0 in
  for s = 0 to n - 1 do
    let l = lens.(s) in
    if l > 0 then begin
      codes.(s) <- next.(l);
      next.(l) <- next.(l) + 1
    end
  done;
  codes

type encoder = { lens : int array; rev_codes : int array }

(* [code] with its low [len] bits in reverse order. *)
let reverse code len =
  let r = ref 0 in
  for i = 0 to len - 1 do
    r := (!r lsl 1) lor ((code lsr i) land 1)
  done;
  !r

let encoder freqs =
  let lens = lengths freqs in
  { lens; rev_codes = Array.map2 reverse (canonical lens) lens }

(* Canonical codes are MSB-first; reversed, the first bit of the code is
   the first bit into the LSB-first stream. *)
let write_symbol w enc s =
  let len = enc.lens.(s) in
  assert (len > 0);
  Bitio.put_bits w enc.rev_codes.(s) len

type decoder = {
  count : int array; (* count.(l): codes of length l, for l ≥ 1 *)
  symbol : int array; (* symbols ordered by (length, symbol) *)
  max_len : int;
}

exception Bad_code

let decoder lens =
  let max_len = Array.fold_left max 0 lens in
  let count = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> count.(l) <- count.(l) + 1) lens;
  (* offs.(l): where the symbols of length l start in [symbol]. *)
  let offs = Array.make (max_len + 1) 0 in
  for l = 1 to max_len - 1 do
    offs.(l + 1) <- offs.(l) + count.(l)
  done;
  let symbol = Array.make (Array.length lens - count.(0)) 0 in
  Array.iteri
    (fun s l ->
      if l > 0 then begin
        symbol.(offs.(l)) <- s;
        offs.(l) <- offs.(l) + 1
      end)
    lens;
  { count; symbol; max_len }

(* At length [len], [code] holds the bits read so far (shifted for the
   next one), the [count] codes of this length start at canonical code
   [first], and their symbols start at [symbol.(index)].  Invariant:
   [code >= first], so a hit indexes inside the length's run. *)
let read_symbol r dec =
  let rec go len code first index =
    if len > dec.max_len then raise Bad_code;
    let code = code lor Bitio.get_bit r in
    let count = dec.count.(len) in
    if code - count < first then dec.symbol.(index + (code - first))
    else go (len + 1) (code lsl 1) ((first + count) lsl 1) (index + count)
  in
  go 1 0 0 0
