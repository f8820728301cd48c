(* Domain worker pool (see pool.mli for the contract).

   One mutex per pool guards the task queue; one mutex per future
   guards its result cell.  Workers never take both at once (the pool
   lock is released before a task runs), so there is no lock-order
   hazard.  [jobs <= 1] is the fully inline serial path: no domains,
   no queue, no locks on the hot path. *)

let tm_tasks = Telemetry.counter "pool.tasks"
let tm_queue_depth = Telemetry.gauge "pool.queue_depth"

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

type t = {
  n_jobs : int;
  queue_limit : int;
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;
  not_empty : Condition.t; (* workers wait here for tasks *)
  not_full : Condition.t; (* submitters wait here for queue room *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let resolved state = { fm = Mutex.create (); fc = Condition.create (); state }

let resolve fut state =
  Mutex.lock fut.fm;
  fut.state <- state;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let is_ready fut =
  Mutex.lock fut.fm;
  let r = fut.state <> Pending in
  Mutex.unlock fut.fm;
  r

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fc fut.fm;
      wait ()
    | Done v ->
      Mutex.unlock fut.fm;
      v
    | Failed e ->
      Mutex.unlock fut.fm;
      raise e
  in
  wait ()

let run_task f =
  try Done (Timeline.scope "pool.run" f) with e -> Failed e

(* A worker loops: pop a task (or sleep), run it outside the pool lock.
   Shutdown is observed only with an empty queue, so pending tasks
   always run — futures never dangle. *)
let worker p () =
  let rec loop () =
    Mutex.lock p.m;
    while Queue.is_empty p.queue && not p.closed do
      Condition.wait p.not_empty p.m
    done;
    if Queue.is_empty p.queue then Mutex.unlock p.m (* closed: exit *)
    else begin
      let task = Queue.pop p.queue in
      Telemetry.set_gauge tm_queue_depth (Queue.length p.queue);
      Timeline.sample "pool.queue_depth" (Queue.length p.queue);
      Condition.signal p.not_full;
      Mutex.unlock p.m;
      task ();
      loop ()
    end
  in
  loop ()

let create ?queue_limit ~jobs () =
  (* Degrade to the inline serial path when the host has a single core:
     spawned domains would only time-slice against the submitter.
     Results are identical either way, so this is purely a scheduling
     decision. *)
  let n_jobs =
    if Domain.recommended_domain_count () <= 1 then 1 else max 1 jobs
  in
  let queue_limit =
    match queue_limit with Some q -> max 1 q | None -> 2 * n_jobs
  in
  let p =
    { n_jobs;
      queue_limit;
      queue = Queue.create ();
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closed = false;
      workers = [] }
  in
  if n_jobs > 1 then
    p.workers <-
      List.init n_jobs (fun i ->
          Domain.spawn (fun () ->
              (* Name the worker's timeline lane before any task runs;
                 the default domain lane id keeps it disjoint from
                 guest tids. *)
              Timeline.set_lane
                ~name:(Printf.sprintf "pool.worker-%d" i)
                (Timeline.current_lane ());
              worker p ()));
  p

let jobs p = p.n_jobs

let submit p f =
  Telemetry.incr tm_tasks;
  if p.n_jobs <= 1 then begin
    if p.closed then invalid_arg "Pool.submit: pool is shut down";
    resolved (run_task f)
  end
  else begin
    let fut = resolved Pending in
    let task () = resolve fut (run_task f) in
    Mutex.lock p.m;
    if p.closed then begin
      Mutex.unlock p.m;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    while Queue.length p.queue >= p.queue_limit do
      Condition.wait p.not_full p.m
    done;
    Queue.push task p.queue;
    Telemetry.set_gauge tm_queue_depth (Queue.length p.queue);
    Timeline.sample "pool.queue_depth" (Queue.length p.queue);
    Condition.signal p.not_empty;
    Mutex.unlock p.m;
    fut
  end

let shutdown p =
  Mutex.lock p.m;
  let already = p.closed in
  p.closed <- true;
  Condition.broadcast p.not_empty;
  Condition.broadcast p.not_full;
  let workers = p.workers in
  p.workers <- [];
  Mutex.unlock p.m;
  if not already then List.iter Domain.join workers
