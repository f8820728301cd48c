(** Canonical, length-limited Huffman codes: code-length computation from
    frequencies, canonical code assignment, one-call symbol writes and a
    canonical count/symbol decoder (zlib puff's). *)

val max_code_len : int

val lengths : int array -> int array
(** Code lengths from symbol frequencies; zero-frequency symbols get 0.
    Lengths never exceed {!max_code_len} (frequency flattening retries). *)

val canonical : int array -> int array
(** Canonical code assignment from lengths. *)

type encoder = { lens : int array; rev_codes : int array }
(** [rev_codes.(s)] is the canonical code of [s], bit-reversed over its
    [lens.(s)] bits for the LSB-first stream. *)

val encoder : int array -> encoder
val write_symbol : Bitio.writer -> encoder -> int -> unit

type decoder

exception Bad_code

val decoder : int array -> decoder

val read_symbol : Bitio.reader -> decoder -> int
(** Raises {!Bad_code} when the bits read match no code of the table,
    and [Bitio.Truncated] when the stream ends first. *)
