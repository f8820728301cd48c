(* LSB-first bit streams, as DEFLATE uses. *)

type writer = {
  buf : Buffer.t;
  mutable acc : int; (* pending bits, LSB first *)
  mutable nbits : int;
}

let writer () = { buf = Buffer.create 4096; acc = 0; nbits = 0 }

let put_bits w v n =
  assert (n >= 0 && n <= 24);
  w.acc <- w.acc lor ((v land ((1 lsl n) - 1)) lsl w.nbits);
  w.nbits <- w.nbits + n;
  while w.nbits >= 8 do
    Buffer.add_char w.buf (Char.unsafe_chr (w.acc land 0xff));
    w.acc <- w.acc lsr 8;
    w.nbits <- w.nbits - 8
  done

(* Flush the final partial byte and return the stream. *)
let finish w =
  if w.nbits > 0 then begin
    Buffer.add_char w.buf (Char.chr (w.acc land 0xff));
    w.acc <- 0;
    w.nbits <- 0
  end;
  Buffer.contents w.buf

type reader = {
  src : string;
  mutable pos : int;
  mutable racc : int;
  mutable rnbits : int;
}

exception Truncated

let reader src = { src; pos = 0; racc = 0; rnbits = 0 }

let get_bits r n =
  assert (n >= 0 && n <= 24);
  while r.rnbits < n do
    if r.pos >= String.length r.src then raise Truncated;
    r.racc <- r.racc lor (Char.code (String.unsafe_get r.src r.pos) lsl r.rnbits);
    r.pos <- r.pos + 1;
    r.rnbits <- r.rnbits + 8
  done;
  let v = r.racc land ((1 lsl n) - 1) in
  r.racc <- r.racc lsr n;
  r.rnbits <- r.rnbits - n;
  v

(* The Huffman decoder's per-bit read: refill at most one byte. *)
let get_bit r =
  if r.rnbits = 0 then begin
    if r.pos >= String.length r.src then raise Truncated;
    r.racc <- Char.code (String.unsafe_get r.src r.pos);
    r.pos <- r.pos + 1;
    r.rnbits <- 8
  end;
  let b = r.racc land 1 in
  r.racc <- r.racc lsr 1;
  r.rnbits <- r.rnbits - 1;
  b
