(** A domain-based worker pool with a bounded task queue and futures.

    This is the only place in the tree allowed to call [Domain.spawn]
    (enforced by [tools/check_format.sh]): every parallel stage — today
    the fleet benchmark's concurrent recorders — goes through a
    [Pool.t], so concurrency policy (worker count, queue depth,
    backpressure) lives in one module.

    Semantics:
    - [jobs <= 1] spawns no domains at all: [submit] runs the task
      inline on the caller's thread and returns an already-resolved
      future.  The serial path is therefore exactly the pre-pool code
      path, which is what makes "parallel output must be byte-identical
      to serial output" testable.
    - [jobs > 1] spawns [jobs] worker domains that drain a FIFO queue.
      [submit] blocks once [queue_limit] tasks are pending
      (backpressure: a producer cannot race arbitrarily far ahead of
      the workers), and task start order equals submission order.
    - Futures are single-assignment cells; [await] blocks until the
      task completes and re-raises the task's exception, if any, in the
      awaiting thread.

    Instrumentation: [pool.tasks] counts every submitted task (inline
    ones included); the [pool.queue_depth] gauge tracks the pending
    queue.  Tasks may freely use {!Telemetry} — the registry is
    domain-safe. *)

type t

type 'a future

val create : ?queue_limit:int -> jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool of [max 1 jobs] workers.  On a
    single-core host ([Domain.recommended_domain_count () <= 1]) the
    pool degrades to [jobs = 1] — the inline serial path — regardless
    of the request: extra domains there only time-slice against the
    submitter.  [queue_limit] (default [2 * jobs]) bounds the number
    of tasks waiting to start; at the bound, {!submit} blocks. *)

val jobs : t -> int
(** The effective worker count (≥ 1; see {!create} for the single-core
    clamp). *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  Raises [Invalid_argument] if the pool has been
    shut down.  With one job, the task runs inline before [submit]
    returns. *)

val is_ready : 'a future -> bool
(** Whether the task has completed (successfully or not) — a
    non-blocking probe, so an opportunistic consumer (the trace
    writer's journal drain) can collect finished work without stalling
    behind a slow task. *)

val await : 'a future -> 'a
(** The task's result, blocking until it completes.  Re-raises the
    task's exception.  [await] may be called from any domain, any
    number of times. *)

val shutdown : t -> unit
(** Drain the queue, run every pending task, and join the worker
    domains.  Idempotent.  Futures already obtained stay valid. *)
