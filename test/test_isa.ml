(* Tests for the ISA substrate: assembler, memory, CPU semantics, PMU
   determinism. *)

open Isa_test_util

let test_assemble_labels () =
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.label "start";
        Asm.movi 1 5;
        Asm.label "loop";
        Asm.subi 1 1;
        Asm.jnz 1 "loop";
        Asm.ret ]
  in
  Alcotest.(check int) "start" 0x1000 (Asm.symbol prog "start");
  Alcotest.(check int) "loop" 0x1001 (Asm.symbol prog "loop");
  Alcotest.(check int) "length" 4 (Asm.length prog)

let test_assemble_duplicate () =
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.label "x"; Asm.label "x" ]))

let test_assemble_undefined () =
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nowhere") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.jmp "nowhere" ]))

let test_mem_rw () =
  let space = Addr_space.create ~id:1 in
  ignore (Addr_space.map space ~addr:0x4000 ~len:8192 ~prot:Mem.prot_rw ());
  Addr_space.write_u64 space 0x4000 42;
  Alcotest.(check int) "u64" 42 (Addr_space.read_u64 space 0x4000);
  Addr_space.write_u64 space 0x4ffc (-123456789);
  Alcotest.(check int) "cross-page u64" (-123456789)
    (Addr_space.read_u64 space 0x4ffc);
  Addr_space.write_u8 space 0x4100 0x7f;
  Alcotest.(check int) "u8" 0x7f (Addr_space.read_u8 space 0x4100)

let test_mem_unmapped () =
  let space = Addr_space.create ~id:1 in
  (match Addr_space.read_u64 space 0x9999_0000 with
  | _ -> Alcotest.fail "expected Segv"
  | exception Addr_space.Segv { addr; _ } ->
    Alcotest.(check int) "fault addr" 0x9999_0000 addr);
  (* Unmapping the page the last access went through must not leave it
     reachable. *)
  ignore (Addr_space.map space ~addr:0x4000 ~len:8192 ~prot:Mem.prot_rw ());
  Addr_space.write_u64 space 0x4000 5;
  Alcotest.(check int) "cached read" 5 (Addr_space.read_u64 space 0x4000);
  Addr_space.unmap space ~addr:0x4000 ~len:4096;
  (match Addr_space.read_u64 space 0x4000 with
  | _ -> Alcotest.fail "read of an unmapped page succeeded"
  | exception Addr_space.Segv { addr; _ } ->
    Alcotest.(check int) "unmapped fault addr" 0x4000 addr);
  Alcotest.(check int) "the other page survives" 0
    (Addr_space.read_u64 space 0x5000)

let test_mem_prot () =
  let space = Addr_space.create ~id:1 in
  ignore (Addr_space.map space ~addr:0x4000 ~len:4096 ~prot:Mem.prot_r ());
  Alcotest.(check int) "readable" 0 (Addr_space.read_u64 space 0x4000);
  (match Addr_space.write_u64 space 0x4000 1 with
  | () -> Alcotest.fail "expected Segv on write"
  | exception Addr_space.Segv _ -> ());
  (* force bypasses protection (kernel access) *)
  Addr_space.write_u64 ~force:true space 0x4000 7;
  Alcotest.(check int) "forced write" 7 (Addr_space.read_u64 space 0x4000)

let test_mem_cow_fork () =
  let parent = Addr_space.create ~id:1 in
  ignore (Addr_space.map parent ~addr:0x4000 ~len:4096 ~prot:Mem.prot_rw ());
  Addr_space.write_u64 parent 0x4000 111;
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check int) "child sees parent data" 111
    (Addr_space.read_u64 child 0x4000);
  Addr_space.write_u64 child 0x4000 222;
  Alcotest.(check int) "parent unchanged after child write" 111
    (Addr_space.read_u64 parent 0x4000);
  Addr_space.write_u64 parent 0x4008 333;
  Alcotest.(check int) "child unchanged after parent write" 0
    (Addr_space.read_u64 child 0x4008);
  (* The parent writes first this time, to the page its last access
     went through: the write must unshare it. *)
  let child2 = Addr_space.fork parent ~id:3 in
  Addr_space.write_u64 parent 0x4000 444;
  Alcotest.(check int) "parent sees its write" 444
    (Addr_space.read_u64 parent 0x4000);
  Alcotest.(check int) "second child keeps the old bytes" 111
    (Addr_space.read_u64 child2 0x4000)

let test_pss_sharing () =
  let parent = Addr_space.create ~id:1 in
  ignore (Addr_space.map parent ~addr:0x4000 ~len:8192 ~prot:Mem.prot_rw ());
  let solo = Addr_space.pss parent in
  Alcotest.(check (float 0.01)) "two pages" 8192.0 solo;
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check (float 0.01)) "parent PSS halves" 4096.0
    (Addr_space.pss parent);
  Alcotest.(check (float 0.01)) "child PSS halves" 4096.0
    (Addr_space.pss child);
  (* Writing unshares one page: 4096 (private) + 2048 (shared). *)
  Addr_space.write_u64 child 0x4000 1;
  Alcotest.(check (float 0.01)) "child PSS after COW" 6144.0
    (Addr_space.pss child)

let test_cpu_arith_loop () =
  (* sum 1..10 into r2 *)
  let ctx =
    run_program
      [ Asm.movi 1 10;
        Asm.movi 2 0;
        Asm.label "loop";
        Asm.I (Insn.Alu (Insn.Add, 2, Insn.Reg 1));
        Asm.subi 1 1;
        Asm.jnz 1 "loop";
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "sum" 55 ctx.Cpu.regs.(2)

let test_cpu_rcb_counts_conditional_only () =
  let ctx =
    run_program
      [ Asm.movi 1 7;
        Asm.label "loop";
        Asm.subi 1 1;
        Asm.jmp "next"; (* unconditional: no RCB *)
        Asm.label "next";
        Asm.jnz 1 "loop"; (* conditional: one RCB each retirement *)
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "rcb = loop iterations" 7 ctx.Cpu.pmu.Pmu.rcb

let test_cpu_call_ret_stack () =
  let ctx =
    run_program
      [ Asm.movi 15 0x5000; (* sp *)
        Asm.call "fn";
        Asm.movi 3 99;
        Asm.I Insn.Halt;
        Asm.label "fn";
        Asm.movi 2 42;
        Asm.ret ]
  in
  Alcotest.(check int) "callee ran" 42 ctx.Cpu.regs.(2);
  Alcotest.(check int) "fell through after ret" 99 ctx.Cpu.regs.(3);
  Alcotest.(check int) "sp balanced" 0x5000 ctx.Cpu.regs.(15)

let test_cpu_cas () =
  let ctx =
    run_program
      [ Asm.movi 1 0x4000;
        Asm.movi 2 0; (* expected *)
        Asm.movi 3 7; (* new *)
        Asm.I (Insn.Cas (1, 2, 3, 4));
        Asm.movi 5 7; (* expected now 7 *)
        Asm.movi 6 9;
        Asm.I (Insn.Cas (1, 5, 6, 7));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "first cas succeeded" 1 ctx.Cpu.regs.(4);
  Alcotest.(check int) "second cas succeeded" 1 ctx.Cpu.regs.(7);
  Alcotest.(check int) "value" 9 (Addr_space.read_u64 ctx.Cpu.space 0x4000)

let test_cpu_cas_failure_loads_current () =
  let ctx =
    run_program
      [ Asm.movi 1 0x4000;
        Asm.movi 8 55;
        Asm.store 8 1 0;
        Asm.movi 2 1; (* wrong expectation *)
        Asm.movi 3 7;
        Asm.I (Insn.Cas (1, 2, 3, 4));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "cas failed" 0 ctx.Cpu.regs.(4);
  Alcotest.(check int) "expected reg updated to current" 55 ctx.Cpu.regs.(2);
  Alcotest.(check int) "memory untouched" 55
    (Addr_space.read_u64 ctx.Cpu.space 0x4000)

let test_cpu_div_zero_faults () =
  let stop =
    run_program_stop
      [ Asm.movi 1 10; Asm.I (Insn.Alu (Insn.Div, 1, Insn.Imm 0)) ]
  in
  match stop with
  | Some (Cpu.Stop_fault (Cpu.F_div _)) -> ()
  | other -> Alcotest.failf "expected div fault, got %a" pp_stop_opt other

let test_cpu_breakpoint () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000 [ Asm.movi 1 1; Asm.movi 2 2; Asm.movi 3 3 ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  Addr_space.bp_set space 0x1001;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  Alcotest.(check int) "stopped after one insn" 1 steps;
  (match stop with
  | Some Cpu.Stop_bkpt -> ()
  | other -> Alcotest.failf "expected bkpt, got %a" pp_stop_opt other);
  Alcotest.(check int) "pc at breakpoint" 0x1001 ctx.Cpu.pc;
  (* Clearing the breakpoint lets execution continue. *)
  Addr_space.bp_clear space 0x1001;
  ignore (Cpu.run null_env ctx ~fuel:100);
  Alcotest.(check int) "resumed" 3 ctx.Cpu.regs.(3)

let test_cpu_singlestep () =
  let space = fresh_space () in
  let prog = Asm.assemble ~base:0 [ Asm.movi 1 1; Asm.movi 2 2 ] in
  Addr_space.text_load space ~base:0 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.single_step <- true;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  Alcotest.(check int) "one step" 1 steps;
  match stop with
  | Some Cpu.Stop_singlestep -> ()
  | other -> Alcotest.failf "expected singlestep, got %a" pp_stop_opt other

let test_cpu_emit_jit () =
  (* Emit "mov r5, 77" at a fresh text address, then jump to it.  0x9000
     is on no text page until the Emit creates one, while the running
     program's page at 0x1000 is the space's cached one. *)
  let mov_encoded =
    match Insn.encode (Insn.Mov (5, Insn.Imm 77)) with
    | Some v -> v
    | None -> Alcotest.fail "encode"
  in
  let ret_encoded =
    match Insn.encode Insn.Ret with Some v -> v | None -> assert false
  in
  let ctx =
    run_program
      [ Asm.movi 15 0x5000;
        Asm.movi 1 0x9000; (* jit target *)
        Asm.movi 2 mov_encoded;
        Asm.I (Insn.Emit (1, 2));
        Asm.movi 1 0x9001;
        Asm.movi 2 ret_encoded;
        Asm.I (Insn.Emit (1, 2));
        Asm.movi 6 0x9000;
        Asm.I (Insn.Callr 6);
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "jitted code ran" 77 ctx.Cpu.regs.(5)

let test_emit_marks_written_text () =
  let ctx =
    run_program
      [ Asm.movi 1 0x9000;
        Asm.movi 2 0; (* Nop *)
        Asm.I (Insn.Emit (1, 2));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check bool) "written text recorded" true
    (Addr_space.text_was_written ctx.Cpu.space 0x9000);
  Alcotest.(check bool) "static text not marked" false
    (Addr_space.text_was_written ctx.Cpu.space 0x1000)

let test_pmu_interrupt_fires_with_skid () =
  let space = fresh_space () in
  let items =
    [ Asm.movi 1 1000; Asm.label "loop"; Asm.subi 1 1; Asm.jnz 1 "loop";
      Asm.I Insn.Halt ]
  in
  let prog = Asm.assemble ~base:0x1000 items in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  Pmu.program_interrupt ctx.Cpu.pmu ~target:100 ~skid:11;
  let stop, _ = Cpu.run null_env ctx ~fuel:100000 in
  (match stop with
  | Some Cpu.Stop_pmu -> ()
  | other -> Alcotest.failf "expected pmu, got %a" pp_stop_opt other);
  Alcotest.(check bool) "rcb past target (skid)" true
    (ctx.Cpu.pmu.Pmu.rcb >= 100);
  Alcotest.(check bool) "skid bounded"
    true
    (ctx.Cpu.pmu.Pmu.rcb <= 100 + Pmu.max_skid)

let test_pmu_rcb_deterministic () =
  (* Two runs of the same program, different entropy for rdtsc/rdrand:
     identical RCB counts even though register contents differ. *)
  let items =
    [ Asm.movi 1 50;
      Asm.label "loop";
      Asm.I (Insn.Rdtsc 4);
      Asm.I (Insn.Rdrand 5);
      Asm.subi 1 1;
      Asm.jnz 1 "loop";
      Asm.I Insn.Halt ]
  in
  let run seed =
    let space = fresh_space () in
    let prog = Asm.assemble ~base:0x1000 items in
    Addr_space.text_load space ~base:0x1000 prog.Asm.code;
    let ctx = Cpu.create ~space in
    ctx.Cpu.pc <- 0x1000;
    let e = Entropy.create seed in
    let env =
      { Cpu.rdtsc = (fun () -> Entropy.bits e); rdrand = (fun () -> Entropy.bits e) }
    in
    ignore (Cpu.run env ctx ~fuel:100000);
    ctx
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check bool) "rdrand differed" true (a.Cpu.regs.(5) <> b.Cpu.regs.(5));
  Alcotest.(check int) "rcb identical" a.Cpu.pmu.Pmu.rcb b.Cpu.pmu.Pmu.rcb

let test_insn_encode_roundtrip () =
  let cases =
    [ Insn.Nop;
      Insn.Syscall;
      Insn.Ret;
      Insn.Pause;
      Insn.Mov (3, Insn.Imm 1234);
      Insn.Alu (Insn.Add, 7, Insn.Imm 9);
      Insn.Jcc (Insn.Ne, 2, Insn.Imm 0, 0x4242);
      Insn.Jmp 0x1234 ]
  in
  List.iter
    (fun insn ->
      match Insn.encode insn with
      | None -> Alcotest.failf "unencodable: %a" Insn.pp insn
      | Some w -> (
        match Insn.decode w with
        | Some insn' when insn' = insn -> ()
        | Some insn' ->
          Alcotest.failf "roundtrip %a -> %a" Insn.pp insn Insn.pp insn'
        | None -> Alcotest.failf "undecodable: %a" Insn.pp insn))
    cases;
  Alcotest.(check bool) "unencodable refused" true
    (Insn.encode (Insn.Cas (1, 2, 3, 4)) = None)

let qcheck_entropy_range =
  QCheck.Test.make ~name:"entropy range stays in bounds" ~count:500
    QCheck.(pair small_int (pair small_int small_int))
    (fun (seed, (a, b)) ->
      let lo = min a b and hi = max a b in
      let e = Entropy.create seed in
      let v = Entropy.range e lo hi in
      v >= lo && v <= hi)

let qcheck_mem_roundtrip =
  QCheck.Test.make ~name:"memory u64 write/read roundtrip" ~count:300
    QCheck.(pair (int_bound 16300) int)
    (fun (off, v) ->
      let space = Addr_space.create ~id:1 in
      ignore (Addr_space.map space ~addr:0x4000 ~len:(4 * 4096 + 4096) ~prot:Mem.prot_rw ());
      Addr_space.write_u64 space (0x4000 + off) v;
      Addr_space.read_u64 space (0x4000 + off) = v)

let qcheck_bytes_roundtrip =
  QCheck.Test.make ~name:"memory bytes blit roundtrip" ~count:200
    QCheck.(pair (int_bound 8000) (string_of_size Gen.(0 -- 600)))
    (fun (off, s) ->
      let space = Addr_space.create ~id:1 in
      ignore (Addr_space.map space ~addr:0 ~len:16384 ~prot:Mem.prot_rw ());
      Addr_space.write_bytes space off (Bytes.of_string s);
      Bytes.to_string (Addr_space.read_bytes space off (String.length s)) = s)

(* Program-level determinism: a random straight-line program over a
   scratch page produces identical machine state on every run — the
   bedrock assumption of record and replay ("CPUs are mostly
   deterministic", §2.1). *)
let random_program_gen =
  QCheck.Gen.(
    let op =
      oneofl [ Insn.Add; Insn.Sub; Insn.Mul; Insn.And; Insn.Or; Insn.Xor ]
    in
    let insn =
      oneof
        [ map2 (fun r v -> Asm.movi r (v land 0xffff)) (int_bound 12) int;
          map3 (fun o r v -> Asm.I (Insn.Alu (o, r, Insn.Imm ((v land 0xff) + 1))))
            op (int_bound 12) int;
          map2 (fun r s -> Asm.I (Insn.Alu (Insn.Add, r, Insn.Reg s)))
            (int_bound 12) (int_bound 12);
          map2 (fun r off -> Asm.store r 14 (off land 0xff0))
            (int_bound 12) int;
          map2 (fun r off -> Asm.load r 14 (off land 0xff0))
            (int_bound 12) int ]
    in
    map (fun l -> Asm.movi 14 0x4000 :: (l @ [ Asm.I Insn.Halt ]))
      (list_size (1 -- 60) insn))

let qcheck_program_determinism =
  QCheck.Test.make ~name:"straight-line programs are deterministic" ~count:150
    (QCheck.make random_program_gen) (fun items ->
      let run () =
        let ctx = run_program items in
        ( Array.to_list (Cpu.copy_regs ctx),
          Bytes.to_string
            (Addr_space.read_bytes ~force:true ctx.Cpu.space 0x4000 4096),
          Pmu.snapshot ctx.Cpu.pmu )
      in
      run () = run ())

let qcheck_rcb_equals_jcc_retired =
  QCheck.Test.make ~name:"RCB = retired conditional branches exactly"
    ~count:100
    QCheck.(int_range 1 500)
    (fun n ->
      (* a loop of n iterations with exactly one Jcc: rcb must be n *)
      let ctx =
        run_program
          [ Asm.movi 1 n;
            Asm.label "l";
            Asm.subi 1 1;
            Asm.jnz 1 "l";
            Asm.I Insn.Halt ]
      in
      ctx.Cpu.pmu.Pmu.rcb = n)

(* ---- the allocation-free step loop --------------------------------- *)

(* Every common instruction shape, in a loop of about 100k retired
   instructions.  An ordinary instruction must not allocate: the text and
   data lookups hit the space's one-entry caches and the ALU computes an
   unboxed int.  This is a count, not a timing, so it is deterministic. *)
let test_step_loop_allocation_free () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.movi 15 0x5000;
        Asm.movi 14 0x4000;
        Asm.movi 1 6_000;
        Asm.label "loop";
        Asm.movr 2 1;
        Asm.addi 2 3;
        Asm.I (Insn.Alu (Insn.Xor, 2, Insn.Reg 1));
        Asm.I (Insn.Alu (Insn.Div, 2, Insn.Imm 7));
        Asm.store 2 14 8;
        Asm.load 3 14 8;
        Asm.store8 3 14 16;
        Asm.load8 4 14 16;
        Asm.push (Insn.Reg 4);
        Asm.pop 5;
        Asm.call "fn";
        Asm.movr 7 1;
        Asm.I (Insn.Cas (14, 6, 7, 8));
        Asm.subi 1 1;
        Asm.jnz 1 "loop";
        Asm.I Insn.Halt;
        Asm.label "fn";
        Asm.addi 9 1;
        Asm.ret ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  let before = Gc.minor_words () in
  let stop, steps = Cpu.run null_env ctx ~fuel:1_000_000 in
  let words = Gc.minor_words () -. before in
  (match stop with
  | Some (Cpu.Stop_fault (Cpu.F_ill _)) -> ()
  | other -> Alcotest.failf "expected the final halt, got %a" pp_stop_opt other);
  Alcotest.(check bool) "ran about 100k instructions" true (steps > 90_000);
  let rate = words /. float_of_int steps in
  if rate >= 0.05 then
    Alcotest.failf "%.3f minor words per instruction over %d steps" rate steps

(* ---- cache invalidation -------------------------------------------- *)

let test_tlb_protect_faults_next_store () =
  (* The page is COW-shared with a fork, so [protect] unshares it: the
     cache must not keep the frame the child still maps. *)
  let space = fresh_space () in
  Addr_space.write_u64 space 0x4000 1;
  let child = Addr_space.fork space ~id:2 in
  Alcotest.(check int) "cached" 1 (Addr_space.read_u64 space 0x4000);
  Addr_space.protect space ~addr:0x4000 ~len:4096 ~prot:Mem.prot_r;
  (match Addr_space.write_u64 space 0x4000 2 with
  | () -> Alcotest.fail "store to a read-only page succeeded"
  | exception Addr_space.Segv { access = Addr_space.Write; _ } -> ()
  | exception Addr_space.Segv _ -> Alcotest.fail "wrong access kind");
  Alcotest.(check int) "value kept" 1 (Addr_space.read_u64 space 0x4000);
  Addr_space.write_u64 ~force:true space 0x4000 3;
  Alcotest.(check int) "forced write lands" 3 (Addr_space.read_u64 space 0x4000);
  Alcotest.(check int) "child keeps its frame" 1
    (Addr_space.read_u64 child 0x4000);
  Addr_space.write_u64 child 0x4000 4;
  Alcotest.(check int) "child still writable" 4
    (Addr_space.read_u64 child 0x4000)

let test_install_page_replaces_cached_frame () =
  let space = fresh_space () in
  Addr_space.write_u64 space 0x4000 1;
  let frame = Mem.fresh_page () in
  Bytes.set_int64_le frame.Mem.bytes 0 2L;
  Addr_space.install_page space ~index:(Mem.page_index 0x4000) frame;
  Alcotest.(check int) "reads the installed frame" 2
    (Addr_space.read_u64 space 0x4000);
  Alcotest.(check int) "installed frame is referenced" 2 frame.Mem.refs

let test_exec_drops_stale_text () =
  (* Run a program, then replace the image the way execve does:
     the cached text page must not survive [unmap_all]. *)
  let space = fresh_space () in
  let old_prog =
    Asm.assemble ~base:0x1000
      [ Asm.movi 1 1; Asm.movi 2 2; Asm.movi 3 3; Asm.I Insn.Halt ]
  in
  Addr_space.text_load space ~base:0x1000 old_prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  ignore (Cpu.run null_env ctx ~fuel:100);
  Alcotest.(check int) "old image ran" 3 ctx.Cpu.regs.(3);
  Addr_space.unmap_all space;
  let new_prog = Asm.assemble ~base:0x1000 [ Asm.movi 1 10 ] in
  Addr_space.text_load space ~base:0x1000 new_prog.Asm.code;
  Cpu.set_regs ctx (Array.make Insn.num_regs 0);
  ctx.Cpu.pc <- 0x1000;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  Alcotest.(check int) "new image ran" 10 ctx.Cpu.regs.(1);
  Alcotest.(check int) "old code past the new image is gone" 0
    ctx.Cpu.regs.(2);
  Alcotest.(check int) "one instruction" 1 steps;
  Alcotest.(check int) "text count" 1 (Addr_space.text_count space);
  match stop with
  | Some (Cpu.Stop_fault (Cpu.F_ill 0x1001)) -> ()
  | other -> Alcotest.failf "expected ILL at 0x1001, got %a" pp_stop_opt other

let test_breakpoint_after_empty_run () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.movi 1 3; Asm.label "l"; Asm.subi 1 1; Asm.jnz 1 "l"; Asm.movi 2 9;
        Asm.I Insn.Halt ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  let _, steps = Cpu.run null_env ctx ~fuel:2 in
  Alcotest.(check int) "ran with no breakpoint" 2 steps;
  Addr_space.bp_set space 0x1003;
  let stop, _ = Cpu.run null_env ctx ~fuel:100 in
  (match stop with
  | Some Cpu.Stop_bkpt -> ()
  | other -> Alcotest.failf "expected bkpt, got %a" pp_stop_opt other);
  Alcotest.(check int) "pc at breakpoint" 0x1003 ctx.Cpu.pc;
  Alcotest.(check int) "not yet executed" 0 ctx.Cpu.regs.(2)

(* A page-crossing store writes nothing when either page faults, and the
   write observer sees it once. *)
let test_write_u64_cross_page_atomic () =
  let space = Addr_space.create ~id:1 in
  ignore (Addr_space.map space ~addr:0x4000 ~len:4096 ~prot:Mem.prot_rw ());
  ignore (Addr_space.map space ~addr:0x5000 ~len:4096 ~prot:Mem.prot_r ());
  let calls = ref 0 in
  Addr_space.set_write_observer (fun _ ~addr:_ ~len:_ -> incr calls);
  Fun.protect ~finally:Addr_space.clear_write_observer (fun () ->
      let expect_fault what =
        match Addr_space.write_u64 space 0x4ffc (-1) with
        | () -> Alcotest.failf "%s: store succeeded" what
        | exception Addr_space.Segv { addr; access = Addr_space.Write } ->
          Alcotest.(check int) (what ^ ": fault addr") 0x5000 addr;
          Alcotest.(check int) (what ^ ": first page untouched") 0
            (Addr_space.read_u64 space 0x4ff8)
        | exception Addr_space.Segv _ -> Alcotest.failf "%s: wrong access" what
      in
      expect_fault "read-only second page";
      Addr_space.unmap space ~addr:0x5000 ~len:4096;
      expect_fault "unmapped second page";
      ignore (Addr_space.map space ~addr:0x5000 ~len:4096 ~prot:Mem.prot_rw ());
      calls := 0;
      Addr_space.write_u64 space 0x4ffc 0x0102030405060708;
      Alcotest.(check int) "observed once" 1 !calls;
      Alcotest.(check int) "value" 0x0102030405060708
        (Addr_space.read_u64 space 0x4ffc);
      Alcotest.(check int) "low half on the first page" 0x05060708
        (Addr_space.read_u64 space 0x4ff8 lsr 32))

(* A checkpoint blob rebuilds every space's text exactly: recorded and
   patched code as well as JIT-emitted code. *)
let test_snapshot_preserves_text () =
  let w =
    Wl_octane.make
      ~params:{ Wl_octane.threads = 2; iters = 20; calls_per_emit = 20; crunch = 200 }
      ()
  in
  let recd, _ = Workload.record w in
  let trace = recd.Workload.trace in
  let r = Replayer.start trace in
  let half = Trace.n_events trace / 2 in
  while Replayer.cursor_index r < half do
    ignore (Replayer.step r)
  done;
  let snap =
    Replayer.decode_snapshot (Replayer.encode_snapshot (Replayer.snapshot r))
  in
  let r2 = Replayer.restore_exn trace snap in
  let spaces r =
    List.map
      (fun t -> (t.Task.tid, t.Task.proc.Task.space))
      (Kernel.live_tasks (Replayer.kernel r))
    |> List.sort compare
  in
  let before = spaces r and after = spaces r2 in
  Alcotest.(check (list int)) "same tasks" (List.map fst before)
    (List.map fst after);
  let jit = ref 0 in
  List.iter2
    (fun (tid, a) (_, b) ->
      Alcotest.(check int)
        (Printf.sprintf "task %d: text count" tid)
        (Addr_space.text_count a) (Addr_space.text_count b);
      Addr_space.text_fold
        (fun addr insn () ->
          if Addr_space.text_was_written a addr then incr jit;
          if Addr_space.text_get b addr <> Some insn then
            Alcotest.failf "task %d: text differs at %#x" tid addr)
        a ())
    before after;
  Alcotest.(check bool) "the checkpoint holds emitted code" true (!jit > 0)

(* Stepping one instruction at a time ends in the same state as one long
   run: fuel boundaries and the caches change nothing observable. *)
let stepping_program_gen =
  QCheck.Gen.(
    let reg = int_bound 12 in
    let alu =
      oneofl
        Insn.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
    in
    let insn =
      oneof
        [ map2 (fun r v -> Asm.movi r (v land 0xffff)) reg int;
          map3 (fun o r s -> Asm.I (Insn.Alu (o, r, Insn.Reg s))) alu reg reg;
          map3 (fun o r v -> Asm.I (Insn.Alu (o, r, Insn.Imm (v land 0xff))))
            alu reg int;
          map2 (fun r off -> Asm.store r 14 (off mod 0x1ff9)) reg nat;
          map2 (fun r off -> Asm.load r 14 (off mod 0x1ff9)) reg nat;
          map2 (fun r off -> Asm.store8 r 14 (off land 0x1fff)) reg nat;
          map2 (fun r off -> Asm.load8 r 14 (off land 0x1fff)) reg nat;
          map (fun r -> Asm.push (Insn.Reg r)) reg;
          map Asm.pop reg;
          map3 (fun e n d -> Asm.I (Insn.Cas (14, e, n, d))) reg reg reg ]
    in
    map2
      (fun n body ->
        [ Asm.movi 14 0x4000; Asm.movi 15 0x5f00; Asm.movi 13 n;
          Asm.label "top" ]
        @ body
        @ [ Asm.subi 13 1; Asm.jnz 13 "top"; Asm.I Insn.Halt ])
      (int_range 1 5)
      (list_size (1 -- 30) insn))

let qcheck_stepping_matches_long_run =
  QCheck.Test.make ~name:"fuel:1 stepping matches one long run" ~count:150
    (QCheck.make stepping_program_gen) (fun items ->
      let start () =
        let space = fresh_space () in
        let prog = Asm.assemble ~base:0x1000 items in
        Addr_space.text_load space ~base:0x1000 prog.Asm.code;
        let ctx = Cpu.create ~space in
        ctx.Cpu.pc <- 0x1000;
        ctx
      in
      let state ctx stop =
        ( stop,
          Array.to_list (Cpu.copy_regs ctx),
          ctx.Cpu.pc,
          Pmu.snapshot ctx.Cpu.pmu,
          Checksum.space ctx.Cpu.space )
      in
      let long = start () in
      let stop, _ = Cpu.run null_env long ~fuel:1_000_000 in
      let stepped = start () in
      let rec step n =
        match Cpu.run null_env stepped ~fuel:1 with
        | None, 1 when n < 1_000_000 -> step (n + 1)
        | stop, _ -> stop
      in
      let stop' = step 0 in
      state long stop = state stepped stop')

let suites =
  [ ( "isa.asm",
      [ Alcotest.test_case "labels" `Quick test_assemble_labels;
        Alcotest.test_case "duplicate label" `Quick test_assemble_duplicate;
        Alcotest.test_case "undefined label" `Quick test_assemble_undefined ] );
    ( "isa.mem",
      [ Alcotest.test_case "read/write" `Quick test_mem_rw;
        Alcotest.test_case "unmapped faults" `Quick test_mem_unmapped;
        Alcotest.test_case "protection" `Quick test_mem_prot;
        Alcotest.test_case "COW fork" `Quick test_mem_cow_fork;
        Alcotest.test_case "PSS sharing" `Quick test_pss_sharing;
        QCheck_alcotest.to_alcotest qcheck_mem_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_bytes_roundtrip ] );
    ( "isa.cpu",
      [ Alcotest.test_case "arith loop" `Quick test_cpu_arith_loop;
        Alcotest.test_case "rcb counts conditionals only" `Quick
          test_cpu_rcb_counts_conditional_only;
        Alcotest.test_case "call/ret" `Quick test_cpu_call_ret_stack;
        Alcotest.test_case "cas success" `Quick test_cpu_cas;
        Alcotest.test_case "cas failure" `Quick test_cpu_cas_failure_loads_current;
        Alcotest.test_case "div by zero" `Quick test_cpu_div_zero_faults;
        Alcotest.test_case "breakpoint" `Quick test_cpu_breakpoint;
        Alcotest.test_case "single-step" `Quick test_cpu_singlestep;
        Alcotest.test_case "emit + run jitted code" `Quick test_cpu_emit_jit;
        Alcotest.test_case "emit marks written text" `Quick
          test_emit_marks_written_text ] );
    ( "isa.pmu",
      [ Alcotest.test_case "interrupt fires late (skid)" `Quick
          test_pmu_interrupt_fires_with_skid;
        Alcotest.test_case "rcb deterministic across entropy" `Quick
          test_pmu_rcb_deterministic ] );
    ( "isa.insn",
      [ Alcotest.test_case "encode/decode roundtrip" `Quick
          test_insn_encode_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_entropy_range ] );
    ( "isa.determinism",
      [ QCheck_alcotest.to_alcotest qcheck_program_determinism;
        QCheck_alcotest.to_alcotest qcheck_rcb_equals_jcc_retired;
        QCheck_alcotest.to_alcotest qcheck_stepping_matches_long_run ] );
    ( "isa.fastpath",
      [ Alcotest.test_case "step loop allocates nothing" `Quick
          test_step_loop_allocation_free;
        Alcotest.test_case "protect faults the next store" `Quick
          test_tlb_protect_faults_next_store;
        Alcotest.test_case "install_page replaces a cached frame" `Quick
          test_install_page_replaces_cached_frame;
        Alcotest.test_case "exec drops stale text" `Quick
          test_exec_drops_stale_text;
        Alcotest.test_case "breakpoint after an empty-table run" `Quick
          test_breakpoint_after_empty_run;
        Alcotest.test_case "page-crossing store is atomic" `Quick
          test_write_u64_cross_page_atomic;
        Alcotest.test_case "snapshot preserves text" `Quick
          test_snapshot_preserves_text ] ) ]
