(** Worker pool over OCaml 5 domains.

    {!create} starts a pool, {!run} evaluates a batch on it and blocks
    until the batch is done, {!submit} hands a thunk to a worker without
    blocking, and {!shutdown} stops the pool.  {!map} is the three in
    one call.  Workers block on a condition variable between batches,
    so a search loop that submits a small batch per round pays no
    domain spawn per round, and a shut-down pool's domains park for the
    next pool to reuse.

    A batch runs on the caller plus [jobs - 1] workers: the domain that
    calls {!run} claims elements of its own batch alongside the
    workers, so a [jobs = 2] batch occupies exactly two domains.  A
    blocked third domain would still have to join every minor
    collection — each one a stop-the-world section across all domains —
    and be interrupted for it.  The serve daemon's pool
    ([~oversubscribe:true]) keeps [jobs] dedicated workers, since its
    reactor domain never computes.

    Results preserve input order and do not depend on the worker
    count; with [jobs <= 1] everything runs inline on the calling
    domain — the sequential reference used by the determinism tests. *)

type t = {
  size : int;  (** domains that compute a batch; see {!size} *)
  workers : int;  (** dedicated worker domains; 0 = inline pool *)
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable attached : int;  (** workers assigned and not yet gone *)
  workers_gone : Condition.t;
  mutable failure : exn option;  (** first exception a submitted task raised *)
}

let worker (p : t) =
  let rec loop () =
    Mutex.lock p.mutex;
    while Queue.is_empty p.queue && not p.stopping do
      Condition.wait p.work_available p.mutex
    done;
    if Queue.is_empty p.queue then (* stopping *)
      Mutex.unlock p.mutex
    else begin
      let task = Queue.pop p.queue in
      Mutex.unlock p.mutex;
      (match task () with
      | () -> ()
      | exception e ->
          Mutex.lock p.mutex;
          if p.failure = None then p.failure <- Some e;
          Mutex.unlock p.mutex);
      loop ()
    end
  in
  loop ()

(** The worker has left [p]: once every worker has, {!shutdown}
    returns. *)
let detach (p : t) =
  Mutex.lock p.mutex;
  p.attached <- p.attached - 1;
  if p.attached = 0 then Condition.broadcast p.workers_gone;
  Mutex.unlock p.mutex

(* Worker domains outlive their pool: a domain leaving a pool parks
   here while the process has at most [max_live] worker domains, and
   the next {!create} reuses it instead of spawning.  With a domain
   spawned and retired per pool, a process that opens a session per
   batch grew its heap with every session it closed while its live
   data stayed constant; with the domains kept, it does not grow. *)
let max_live = max 1 (Domain.recommended_domain_count ())

let park_mutex = Mutex.create ()
let park_cond = Condition.create ()

(** One entry per worker a pool still waits for. *)
let assignments : t Queue.t = Queue.create ()

(** Domains waiting for an assignment, or spawned to take one. *)
let available = ref 0

(** Worker domains alive: in a pool, parked, or starting. *)
let live = ref 0

(* Runs with [park_mutex] held and this domain counted in
   [available]; releases the mutex. *)
let rec park () =
  while Queue.is_empty assignments do
    Condition.wait park_cond park_mutex
  done;
  let p = Queue.pop assignments in
  decr available;
  Mutex.unlock park_mutex;
  worker p;
  (* counted as available before leaving the pool, so a {!create}
     right after the pool's {!shutdown} takes this domain instead of
     spawning one *)
  Mutex.lock park_mutex;
  let stay = !live <= max_live in
  if stay then incr available else decr live;
  Mutex.unlock park_mutex;
  detach p;
  if stay then begin
    Mutex.lock park_mutex;
    park ()
  end

(** [create ~jobs] starts a pool whose batches run on
    [min jobs recommended] domains: the caller of {!run} plus
    [jobs - 1] workers, taken from parked domains first and spawned for
    the rest.  With [jobs <= 1], or on a single-core host, no worker is
    used and {!run} executes inline.  The clamp to the hardware keeps
    domains from outnumbering cores: OCaml 5 minor collections are
    stop-the-world across domains, so excess domains make an
    allocation-heavy workload {e slower}.

    [~oversubscribe:true] is for a caller that never computes — the
    serve reactor: the pool gets [jobs] dedicated workers (bounded by
    [max 16 recommended]), which the OS timeslices even on one core,
    so a short compile can overtake a long DSE sweep. *)
let create ?(oversubscribe = false) ~(jobs : int) () : t =
  let size, workers =
    if jobs <= 1 then (1, 0)
    else if oversubscribe then
      let w = min jobs (max 16 (Domain.recommended_domain_count ())) in
      (w, w)
    else
      let d = min jobs (max 1 (Domain.recommended_domain_count ())) in
      (d, d - 1)
  in
  let p =
    {
      size;
      workers;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      attached = workers;
      workers_gone = Condition.create ();
      failure = None;
    }
  in
  Mutex.lock park_mutex;
  for _ = 1 to workers do
    Queue.push p assignments
  done;
  let spawn = max 0 (Queue.length assignments - !available) in
  available := !available + spawn;
  live := !live + spawn;
  Condition.broadcast park_cond;
  Mutex.unlock park_mutex;
  for _ = 1 to spawn do
    ignore
      (Domain.spawn (fun () ->
           Mutex.lock park_mutex;
           park ()))
  done;
  p

(** Domains that compute a batch: the caller plus the workers (1 when
    inline); for an oversubscribed pool, its dedicated workers. *)
let size (p : t) : int = p.size

(** [run p f xs] evaluates [f] on every element of [xs] and blocks
    until the whole batch is done, preserving input order.  The caller
    works on the batch itself: it and up to [jobs - 1] queued tokens
    claim elements from one atomic counter, so a token never runs
    another batch's elements or a {!submit}ted task, and a batch issued
    from a worker completes even when every other worker is busy.
    Results are independent of the worker count.  A task that raises
    poisons only its own slot: the exception is re-raised here after
    the batch drains, so the pool stays usable. *)
let run (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  if p.workers = 0 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let output : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let unfinished = Atomic.make n in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        output.(i) <-
          Some (match f input.(i) with v -> Ok v | exception e -> Error e);
        if Atomic.fetch_and_add unfinished (-1) = 1 then begin
          Mutex.lock p.mutex;
          Condition.broadcast p.batch_done;
          Mutex.unlock p.mutex
        end;
        claim ()
      end
    in
    Mutex.lock p.mutex;
    if p.stopping then begin
      Mutex.unlock p.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    for _ = 1 to min p.workers (n - 1) do
      Queue.push claim p.queue;
      Condition.signal p.work_available
    done;
    Mutex.unlock p.mutex;
    claim ();
    Mutex.lock p.mutex;
    while Atomic.get unfinished > 0 do
      Condition.wait p.batch_done p.mutex
    done;
    Mutex.unlock p.mutex;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         output)
  end

(** [submit p task] enqueues [task] for a worker domain without
    blocking; it runs whenever a worker frees up and its completion is
    never waited on here.  Returns [false] — and does {e not} enqueue —
    on an inline pool or a stopped pool, so the caller knows to run the
    thunk itself.  [task] may call {!run} on this same pool: the task's
    domain then works on that batch itself. *)
let submit (p : t) (task : unit -> unit) : bool =
  if p.workers = 0 then false
  else begin
    Mutex.lock p.mutex;
    let accepted = not p.stopping in
    if accepted then begin
      Queue.push task p.queue;
      Condition.signal p.work_available
    end;
    Mutex.unlock p.mutex;
    accepted
  end

(** Stop the workers and wait until each has left the pool (to park
    or exit); re-raises the first exception a {!submit}ted task
    raised.  Idempotent. *)
let shutdown (p : t) : unit =
  Mutex.lock p.mutex;
  p.stopping <- true;
  Condition.broadcast p.work_available;
  while p.attached > 0 do
    Condition.wait p.workers_gone p.mutex
  done;
  let failure = p.failure in
  p.failure <- None;
  Mutex.unlock p.mutex;
  Option.iter raise failure

(** [map ~jobs f xs] is {!run} on a pool of [jobs] that lives for this
    one call: [f] runs on the caller plus up to [jobs - 1] parked
    workers, and the result keeps input order.  If [f] raises, the
    exception of the first failing element is re-raised once every
    element has run. *)
let map ~(jobs : int) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let p = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> run p f xs)

(** A reasonable default worker count for this machine. *)
let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(** Fanout record handed to {!Llvmir.Pass.run_pipeline_parallel}: the
    pool's {!map} plus a wall clock.  Lives here because [llvmir] sits
    below both this pool and [unix] in the layering. *)
let fanout ~(jobs : int) : Llvmir.Pass.fanout =
  { Llvmir.Pass.jobs; now = Unix.gettimeofday; map = (fun f xs -> map ~jobs f xs) }
