(* Chaos mode: make a rare data race reproducible.

     dune exec examples/race_hunt.exe

   Two threads race to write a shared cell; the program's exit code
   reveals which write landed last.  Under the recorder's default
   deterministic schedule one interleaving dominates; chaos mode (paper
   §8) randomizes priorities and timeslices until the rare one appears —
   and once recorded, the race replays identically every time. *)

module K = Kernel
module G = Guest

let ( @. ) = List.append

let cell = 0x120000

(* Parent and child both write the cell after some work; the parent then
   reports what survived.  Exit code 2 = the child's write landed last —
   the "lost update" the default schedule hides. *)
let build k =
  Vfs.mkdir_p (K.vfs k) "/bin";
  let b = G.create () in
  let child_stack = G.bss b 4096 + 4096 in
  G.emit b
    (G.sys_clone_thread ~child_sp:(G.imm child_stack)
    @. [ Asm.jz 0 "child" ]
    @. G.compute_loop b ~n:3000
    @. [ Asm.movi 9 cell; Asm.movi 10 1; Asm.store 10 9 0 ]
    @. G.compute_loop b ~n:3000
    @. [ Asm.movi 9 cell; Asm.load 11 9 0; Asm.movr 1 11 ]
    @. G.sc Sysno.exit_group [ G.reg 1 ]
    @. [ Asm.label "child" ]
    @. G.compute_loop b ~n:3000
    @. [ Asm.movi 9 cell; Asm.movi 10 2; Asm.store 10 9 0 ]
    @. G.sys_exit 0);
  K.install_image k ~path:"/bin/racy" (G.build b ~name:"racy" ())

let record ~chaos ~seed =
  let opts = Recorder.make_opts ~chaos ~seed ~timeslice_rcbs:2_000 () in
  Recorder.record ~opts ~setup:build ~exe:"/bin/racy" ()

let hunt ~chaos ~tries =
  let hits = ref 0 in
  let first = ref None in
  for seed = 1 to tries do
    let trace, stats, _ = record ~chaos ~seed in
    if stats.Recorder.exit_status = Some 2 then begin
      incr hits;
      if !first = None then first := Some (seed, trace)
    end
  done;
  (!hits, !first)

let () =
  let tries = 30 in
  let default_hits, _ = hunt ~chaos:false ~tries in
  Fmt.pr "default scheduling: lost update captured in %d/%d recordings@."
    default_hits tries;
  let chaos_hits, first = hunt ~chaos:true ~tries in
  Fmt.pr "chaos mode:         lost update captured in %d/%d recordings@."
    chaos_hits tries;
  match first with
  | None ->
    Fmt.pr "no capture this run — increase the attempt count.@.";
    exit 1
  | Some (seed, trace) ->
    Fmt.pr "chaos seed %d caught the race; replaying it three times:@." seed;
    for i = 1 to 3 do
      let stats, _ = Replayer.replay trace in
      assert (stats.Replayer.exit_status = Some 2);
      Fmt.pr "  replay %d: exit=2 — the lost update reproduced@." i
    done;
    Fmt.pr
      "a heisenbug made deterministic: every replay shows the same \
       interleaving.@."
