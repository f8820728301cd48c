(* The emergency debugger (paper §6.2): Diagnostics.dump must render
   every task's registers and stop status, include the telemetry event
   ring's tail after a failure, and survive degenerate kernels. *)

module K = Kernel
module T = Task

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else go (i + 1)
  in
  nl = 0 || go 0

let check_contains what hay needle =
  Alcotest.(check bool) (what ^ ": dump mentions " ^ needle) true
    (contains hay needle)

(* A fresh kernel with no tasks must still produce a well-formed dump. *)
let test_empty_kernel () =
  Telemetry.reset ();
  let k = K.create ~seed:3 () in
  let d = Diagnostics.dump k in
  check_contains "empty" d "=== emergency state dump";
  check_contains "empty" d "=== end dump ===";
  Alcotest.(check bool) "no tasks listed" false (contains d "task ");
  (* an empty ring renders no telemetry section *)
  Alcotest.(check bool) "no event section" false
    (contains d "--- telemetry:")

(* Mid-replay, the dump lists every live task: tid, registers, stop
   status, pc and address-space shape. *)
let test_tasks_rendered () =
  Telemetry.reset ();
  let recd, _ = Workload.record (Wl_cp.make ()) in
  let r = Replayer.start recd.Workload.trace in
  for _ = 1 to 12 do
    if not (Replayer.at_end r) then ignore (Replayer.step r)
  done;
  let k = Replayer.kernel r in
  let d = Diagnostics.dump ~msg:"mid-replay probe" k in
  check_contains "tasks" d "mid-replay probe";
  let tasks = K.all_tasks k in
  Alcotest.(check bool) "kernel has live tasks" true (tasks <> []);
  List.iter
    (fun (t : T.t) ->
      check_contains "tasks" d (Printf.sprintf "task %d (pid %d" t.T.tid
                                  t.T.proc.T.pid))
    tasks;
  check_contains "tasks" d "regs:";
  check_contains "tasks" d "pc=";
  check_contains "tasks" d "regions"

(* After a divergence the dump carries the event ring's tail — the
   frames leading up to the failure, including the diverging frame's
   own entry: the ptrace-stop instants that share the ring must not
   push it out. *)
let test_divergence_dump_has_ring () =
  Telemetry.reset ();
  let opts = Recorder.make_opts ~intercept:false () in
  let recd, _ = Workload.record ~opts (Wl_cp.make ()) in
  let tampered = ref false in
  let trace =
    Trace.map_frames
      (fun _ e ->
        match e with
        | Event.E_syscall ({ regs_after; _ } as sc) when not !tampered ->
          tampered := true;
          let regs_after = Array.copy regs_after in
          regs_after.(3) <- regs_after.(3) + 987654;
          Event.E_syscall { sc with regs_after }
        | e -> e)
      recd.Workload.trace
  in
  Alcotest.(check bool) "found a frame to tamper" true !tampered;
  let r = Replayer.start trace in
  let diverged = ref false in
  (try
     while not (Replayer.at_end r) do
       ignore (Replayer.step r)
     done
   with Replayer.Divergence _ -> diverged := true);
  Alcotest.(check bool) "tampered trace diverged" true !diverged;
  let d = Diagnostics.dump (Replayer.kernel r) in
  check_contains "divergence" d "--- telemetry: last";
  check_contains "divergence" d "#";
  (* the cursor stays on the frame that failed to apply *)
  check_contains "divergence" d
    (Printf.sprintf " frame=%d " (Replayer.cursor_index r))

let suites =
  [ ( "diagnostics",
      [ Alcotest.test_case "empty kernel" `Quick test_empty_kernel;
        Alcotest.test_case "tasks rendered" `Quick test_tasks_rendered;
        Alcotest.test_case "divergence dump has ring tail" `Quick
          test_divergence_dump_has_ring ] ) ]
