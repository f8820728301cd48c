(** LSB-first bit streams, as DEFLATE uses. *)

type writer

val writer : unit -> writer

val put_bits : writer -> int -> int -> unit
(** [put_bits w v n] appends the low [n] bits of [v] (n ≤ 24). *)

val finish : writer -> string
(** Flush the final partial byte and return the stream. *)

type reader

exception Truncated

val reader : string -> reader
val get_bits : reader -> int -> int
val get_bit : reader -> int
(** [get_bits r 1], refilling at most one byte. *)
