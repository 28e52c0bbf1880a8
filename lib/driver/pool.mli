(** Worker pool over OCaml 5 domains, reused across batches.  A batch
    runs on the caller plus [jobs - 1] workers; the serve daemon's pool
    ([~oversubscribe:true]) keeps [jobs] dedicated workers.  Results
    preserve input order and run inline when [jobs <= 1]. *)

(** [map ~jobs f xs] is {!create} + {!run} + {!shutdown}: [f] runs on
    the caller plus up to [jobs - 1] workers, input order preserved.
    The first failing element's exception is re-raised after every
    element has run. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** A reasonable default worker count for this machine. *)
val default_jobs : unit -> int

(** Fanout record for {!Llvmir.Pass.run_pipeline_parallel}: this
    pool's {!map} with a [Unix.gettimeofday] wall clock for
    worker-side timings. *)
val fanout : jobs:int -> Llvmir.Pass.fanout

(** A live pool: workers are taken once and reused by every {!run}. *)
type t

(** [create ~jobs ()] makes a pool whose batches run on the caller of
    {!run} plus [jobs - 1] workers, clamped to the hardware
    ([jobs <= 1] or one core means inline, no worker), reusing domains
    parked by an earlier {!shutdown} and spawning the rest.
    [~oversubscribe:true] is for a caller that never computes (the
    serve reactor): [jobs] dedicated workers, not clamped to the
    hardware, so a short job can overtake a long one even on few
    cores. *)
val create : ?oversubscribe:bool -> jobs:int -> unit -> t

(** Domains that compute a batch: the caller plus the workers (1 when
    inline); for an oversubscribed pool, its dedicated workers. *)
val size : t -> int

(** [run p f xs] evaluates the batch, blocking until done; the calling
    domain claims elements of this batch alongside the workers, and
    never a {!submit}ted task.  Input order preserved, results
    independent of worker count.  A task's exception is re-raised here
    after the batch drains.
    @raise Invalid_argument after {!shutdown}. *)
val run : t -> ('a -> 'b) -> 'a list -> 'b list

(** [submit p task] enqueues [task] on a worker without blocking;
    [false] (nothing enqueued) on an inline or stopped pool — run the
    thunk yourself.  [task] may call {!run} on the same pool: its
    domain then works on that batch itself. *)
val submit : t -> (unit -> unit) -> bool

(** Stop the workers and wait until each has left the pool.  A worker
    domain stays parked for the next {!create} while the process has at
    most [Domain.recommended_domain_count ()] worker domains; the rest
    exit.  Re-raises the first
    exception a {!submit}ted task raised.  Idempotent. *)
val shutdown : t -> unit
