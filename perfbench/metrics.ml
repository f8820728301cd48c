(* The metric catalogue, shared by the benchmark, its tests and the
   BENCHMARK.json consistency check.  [better] is the direction a
   change should move the metric. *)

type better = Lower | Higher

(* How a value is put on the reference machine's scale (see
   [Rrbench.calibrate]): host times are multiplied by the speed factor
   measured just before them and host rates divided by it; counts,
   ratios, sizes and virtual-clock values are reported as read. *)
type scale = Time | Rate | Exact

type m = {
  name : string;
  unit_ : string;
  better : better;
  scale : scale;
  doc : string;
}

let m name unit_ better doc = { name; unit_; better; scale = Exact; doc }
let host name unit_ better doc = { (m name unit_ better doc) with scale = Time }
let rate name unit_ better doc = { (m name unit_ better doc) with scale = Rate }

(* Printed, with tracing off, by every workload. *)
let end_to_end =
  [ host "record_s" "s" Lower "guest start until the trace is saved to a file";
    host "replay_s" "s" Lower "cold open of the saved trace plus replay to the end";
    rate "record_minsn_per_s" "Minsn/s" Higher
      "guest instructions retired per host second of recording";
    host "index_s" "s" Lower "build the trace index and save the indexed trace";
    host "seek_s" "s" Lower
      "mean latency of one debugger call (seek_to_frame, prev_exec or \
       last_write) on a cold-opened indexed trace";
    host "seek_tail_s" "s" Lower
      "the same calls at the highest percentile with 10 calls beyond it";
    m "record_vslowdown" "x" Lower
      "virtual recording time over the untraced baseline (Table 1 shape)";
    m "replay_vslowdown" "x" Lower "virtual replay time over the baseline";
    m "trace_kb" "KiB" Lower "saved trace size, without the index";
    host "setup_s" "s" Lower
      "input generation plus the untraced baseline run the ratios divide by";
    m "peak_rss_mb" "MiB" Lower
      "peak resident memory through set-up and one record, replay and \
       index cycle" ]

(* The program's own timeline stages, charged host self time in the
   traced run.  The cost model charges virtual time only to the first
   four; the others read 0 on the virtual clock by construction, so
   their virtual self time is not reported. *)
let virtual_stages = [ "kern.run"; "record.stop"; "record.syscall"; "replay.frame" ]

let stages = virtual_stages @ [ "record.setup"; "trace.deflate"; "trace.inflate" ]

(* Printed, with tracing on, by every workload. *)
let per_layer =
  [ rate "isa.baseline_minsn_per_s" "Minsn/s" Higher
      "interpreter speed on the untraced baseline";
    host "kern.baseline_s" "s" Lower "host time of the untraced baseline";
    m "kern.syscalls" "count" Lower "system calls made while recording";
    m "kern.ptrace_stops" "count" Lower "ptrace stops while recording";
    m "kern.insns_retired" "count" Lower "guest instructions retired while recording";
    host "rr.record_overhead_s" "s" Lower "record_s minus kern.baseline_s";
    m "rr.stops_per_frame" "ratio" Lower "ptrace stops per trace frame";
    m "rr.stop_elided" "count" Higher "ptrace stops the recorder elided";
    m "rr.syscallbuf_hit_ratio" "ratio" Higher
      "buffered syscalls over buffered plus fallback";
    rate "rr.replay_minsn_per_s" "Minsn/s" Higher
      "guest instructions per host second of replay";
    host "rrtrace.save_s" "s" Lower "Trace.save of the recorded trace";
    host "rrtrace.open_s" "s" Lower "Trace.open_ of the saved trace";
    host "rrtrace.decode_s" "s" Lower "Reader.iter over a cold trace, no replay";
    rate "rrtrace.deflate_mb_per_s" "MB/s" Higher
      "Compress.deflate over the trace's own chunks";
    rate "rrtrace.inflate_mb_per_s" "MB/s" Higher
      "Compress.inflate over the trace's own chunks";
    m "rrtrace.compress_ratio" "ratio" Higher "raw over stored chunk bytes";
    m "rrtrace.chunk_hit_ratio" "ratio" Higher
      "chunk LRU hits over hits plus misses";
    m "rr.index_checkpoints" "count" Higher "durable checkpoints in the index";
    host "rr.snapshot_decode_s" "s" Lower
      "Replayer.decode_snapshot over every durable checkpoint";
    m "rr.seek_frames_replayed" "frames" Lower
      "per seek: target minus its nearest durable checkpoint";
    m "rr.index_hit_ratio" "ratio" Higher
      "queries answered from the index over all queries";
    m "rr.checkpoints_restored" "count" Lower
      "checkpoints restored during one query pass";
    m "exec.pool_tasks" "count" Lower "tasks run on the domain pool";
    m "obs.tracing_overhead_pct" "%" Lower
      "traced cycle time over untraced cycle time, minus one";
    m "bench.calibration_s" "s" Lower
      "the calibration loop as timed in this run, before any scaling" ]
  @ List.map
      (fun s -> host (s ^ ".host_self_s") "s" Lower (s ^ " self time, host clock"))
      stages
  @ List.map
      (fun s -> m (s ^ ".virtual_self_s") "s" Lower (s ^ " self time, virtual clock"))
      virtual_stages
