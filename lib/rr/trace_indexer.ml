(* One-shot index construction: a single forward replay of the trace
   with the address-space write observer installed, noting per frame the
   pc, the pages written, and the virtual clock — plus durable
   checkpoint images every [checkpoint_every] frames (and at both ends)
   so a later session seeks in O(delta) from a cold open.

   The pass costs one full replay; the point is to pay it once and store
   the result in the trace ('P'/'K' records). *)

module K = Kernel
module A = Addr_space

let tm_build = Telemetry.counter "index.build"

(* Cap the durable-checkpoint count by default: each blob carries a full
   page image (no cross-blob sharing), so "a handful per trace" is the
   deployable default and tests shrink the interval explicitly. *)
let default_every n = max 1 ((n + 15) / 16)

let build ?(opts = Replayer.default_opts) ?checkpoint_every trace =
  Telemetry.incr tm_build;
  Timeline.scope "index.session" @@ fun () ->
  Timeline.scope "index.build_time" (fun () ->
      let n = Trace.n_events trace in
      let every =
        match checkpoint_every with
        | Some e -> max 1 e
        | None -> default_every n
      in
      let r = Replayer.start ~opts trace in
      let b = Trace_index.builder ~clock0:(K.now (Replayer.kernel r)) in
      let checkpoint () =
        let frame = Replayer.cursor_index r in
        Trace_index.note_checkpoint b ~frame
          ~blob:(Replayer.encode_snapshot (Replayer.snapshot r))
      in
      checkpoint ();
      let touched : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      (* The last page noted in this frame: most stores hit it again, and
         noting it twice changes nothing. *)
      let last = ref (-1) in
      A.set_write_observer (fun _space ~addr ~len ->
          if len > 0 then begin
            let lo = Mem.page_index addr
            and hi = Mem.page_index (addr + len - 1) in
            if lo <> !last || hi <> lo then
              for p = lo to hi do
                Hashtbl.replace touched p ()
              done;
            last := hi
          end);
      Fun.protect
        ~finally:(fun () ->
          A.clear_write_observer ();
          Timeline.clear_virtual_clock ())
        (fun () ->
          while not (Replayer.at_end r) do
            Hashtbl.reset touched;
            last := -1;
            let e = Replayer.step r in
            let pages = Hashtbl.fold (fun p () acc -> p :: acc) touched [] in
            Trace_index.note_frame b e ~pages
              ~clock:(K.now (Replayer.kernel r));
            let pos = Replayer.cursor_index r in
            if pos = n || pos mod every = 0 then checkpoint ()
          done);
      Trace_index.finish b)

let build_and_attach ?opts ?checkpoint_every trace =
  let ix = build ?opts ?checkpoint_every trace in
  Trace.set_index trace ix;
  ix
