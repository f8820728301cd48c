(** A DEFLATE-style compressor: LZ77 with hash-chain matching over a
    32 KiB window, then canonical-Huffman coding of the literal/length
    and distance alphabets with extra bits — the structure of zlib's
    "deflate", which rr uses for all general trace data (paper §2.7).
    Small inputs fall back to a stored block.

    The output is a fixed function of the input: the trace format.  The
    greedy match search ends early at a full-length match, as zlib's
    does, which cannot change the match it picks; tokens are ints, and
    inflate decodes with a canonical count/symbol table. *)

exception Corrupt of string

val deflate : string -> string

val inflate : string -> string
(** Raises {!Corrupt} on malformed input, and on a declared size larger
    than the stream could expand to, before allocating it. *)

val ratio : original:int -> compressed:int -> float
