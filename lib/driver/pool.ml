(** Worker pool over OCaml 5 domains.

    Two entry points share the machinery:

    - {!map} — the one-shot path: spawn up to [jobs] domains, apply a
      function to every element, join.  Work items are claimed from a
      shared atomic counter, so the pool load-balances automatically.
    - {!create}/{!run}/{!shutdown} — the {e live}-pool path used by the
      incremental driver session: workers are spawned once, block on a
      condition variable between batches, and successive {!run} calls
      reuse them.  A search loop that submits a small batch per round
      does not pay a domain-spawn per round, and a shut-down pool's
      domains park for the next pool to reuse.

    Both paths preserve input order in the result and run inline on the
    calling domain when [jobs <= 1] — the sequential reference used by
    the determinism tests. *)

(* ------------------------------------------------------------------ *)
(* One-shot map                                                       *)
(* ------------------------------------------------------------------ *)

(** [map ~jobs f xs] applies [f] to every element of [xs], on up to
    [jobs] domains, preserving input order in the result.  [f] should
    not raise: an exception in a worker tears down the whole pool (it
    is re-raised by [Domain.join]).  Like {!create}, the worker count
    is clamped to the hardware: on a single-core machine the map runs
    inline, since extra domains only add stop-the-world GC
    coordination. *)
let map ~(jobs : int) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  let jobs = min jobs (Domain.recommended_domain_count ()) in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let output = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      (* Allocation-heavy work items make the default (256k-word)
         minor heap the bottleneck: every domain's minor collection is
         a stop-the-world sync, so at 4+ domains the pool spends its
         speedup waiting on barriers.  A larger per-domain minor heap
         trades a few MB per worker for an ~4x lower barrier rate;
         workers are short-lived, the setting dies with the domain. *)
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1024 * 1024 };
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          output.(i) <- Some (f input.(i));
          go ()
        end
      in
      go ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) output)
  end

(** A reasonable default worker count for this machine. *)
let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(** Fanout record handed to {!Llvmir.Pass.run_pipeline_parallel}: the
    pool's {!map} plus a wall clock.  Lives here because [llvmir] sits
    below both this pool and [unix] in the layering. *)
let fanout ~(jobs : int) : Llvmir.Pass.fanout =
  { Llvmir.Pass.jobs; now = Unix.gettimeofday; map = (fun f xs -> map ~jobs f xs) }

(* ------------------------------------------------------------------ *)
(* Live pool                                                          *)
(* ------------------------------------------------------------------ *)

(** A queued unit of work.  [t_batch] tasks belong to a blocking
    {!run} batch and participate in its [pending] accounting;
    {!submit}ted tasks do not — a worker must never signal
    [batch_done] for them, or a concurrent {!run} would return with
    slots still unfilled. *)
type task = { t_run : unit -> unit; t_batch : bool }

type t = {
  jobs : int;  (** worker-domain count; 0 = inline sequential pool *)
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  queue : task Queue.t;
  mutable pending : int;  (** batch tasks queued or running *)
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
      (match task.t_run () with
      | () -> ()
      | exception e ->
          Mutex.lock p.mutex;
          if p.failure = None then p.failure <- Some e;
          Mutex.unlock p.mutex);
      if task.t_batch then begin
        Mutex.lock p.mutex;
        p.pending <- p.pending - 1;
        if p.pending = 0 then Condition.broadcast p.batch_done;
        Mutex.unlock p.mutex
      end;
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

(** [create ~jobs] starts a pool of [min jobs recommended]
    workers (at least 0: with [jobs <= 1] no domain is used and {!run}
    executes inline), taking parked domains first and spawning the
    rest.  By default the pool never oversubscribes the hardware —
    OCaml 5 minor collections are stop-the-world across domains, so
    excess domains make allocation-heavy workloads {e slower}.
    [~oversubscribe:true] lifts that clamp (still bounded by
    [max 16 recommended]): the serve reactor wants
    concurrency-for-latency — a short compile overtaking a long DSE
    sweep — which the OS scheduler provides by timeslicing domains
    even on a single core. *)
let create ?(oversubscribe = false) ~(jobs : int) () : t =
  let jobs =
    if jobs <= 1 then 0
    else if oversubscribe then
      min jobs (max 16 (Domain.recommended_domain_count ()))
    else min jobs (max 1 (Domain.recommended_domain_count ()))
  in
  let p =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      stopping = false;
      attached = jobs;
      workers_gone = Condition.create ();
      failure = None;
    }
  in
  Mutex.lock park_mutex;
  for _ = 1 to jobs do
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

(** Number of worker domains actually running (1 when inline). *)
let size (p : t) : int = max 1 p.jobs

(** [run p f xs] evaluates [f] on every element of [xs] on the pool's
    workers and blocks until the whole batch is done, preserving input
    order.  Results are independent of the worker count.  A task that
    raises poisons only its own slot: the exception is re-raised here
    after the batch drains, so the pool stays usable. *)
let run (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  if p.jobs = 0 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let output : ('b, exn) result option array = Array.make n None in
    let task i () =
      output.(i) <-
        Some (match f input.(i) with v -> Ok v | exception e -> Error e)
    in
    Mutex.lock p.mutex;
    if p.stopping then begin
      Mutex.unlock p.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.push { t_run = task i; t_batch = true } p.queue
    done;
    p.pending <- p.pending + n;
    Condition.broadcast p.work_available;
    while p.pending > 0 do
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
    on an inline pool ([jobs <= 1]) or a stopped pool, so the caller
    knows to run the thunk itself.  [task] must not call {!run} with a
    multi-element batch on this same pool: with every worker busy
    executing submitted tasks, the nested batch would deadlock.
    (Single-element batches are safe — {!run} executes those inline.) *)
let submit (p : t) (task : unit -> unit) : bool =
  if p.jobs = 0 then false
  else begin
    Mutex.lock p.mutex;
    let accepted = not p.stopping in
    if accepted then begin
      Queue.push { t_run = task; t_batch = false } p.queue;
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
