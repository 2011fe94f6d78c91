(** Wall-clock serving: the {!Admission} core, the same one {!Server}
    simulates, driven from a pool of worker domains around real engine
    executions.

    The shed decisions, queue discipline, breakers, responses and their
    telemetry are the simulation's by construction. Three things differ
    on purpose:
    - Memory: a worker takes the request off the queue, then blocks on
      {!Gb_par.Budget.reserve}; a request whose deadline passes while it
      waits is answered [Deadline_exceeded `Queued] without executing.
      Memory admission shares {!Genbase.Harness.memory_budget} with
      batch grids by default.
    - Clock and trace track: wall seconds since {!create}; instants go
      to the wall track, and a queued expiry is stamped when a worker's
      sweep observes it.
    - Engine outcomes: [Completed]/[Degraded] are served, [Timed_out] is
      [Deadline_exceeded `Running], anything else is [Served Failed_];
      the breaker counts [Unsupported] as healthy.

    Deadlines are enforced cooperatively: the remaining budget is passed
    to {!Genbase.Engine.run}, which arms {!Gb_util.Deadline.Ambient} so
    kernel checkpoints abort overrunning queries. *)

type config = {
  lanes : int;  (** worker domains executing queries *)
  queue_depth : int;
  policy : Admission.policy;
  breaker : Breaker.config;
  budget : Gb_par.Budget.t;
}

val default_config : unit -> config
(** 2 lanes, depth-8 FIFO queue, the harness memory budget. *)

type t

val create : ?config:config -> unit -> t
(** Spawns the worker domains. Raises [Invalid_argument] on a
    non-positive lane count or negative queue depth. *)

type handle
(** A pending submission; redeem with {!await} (blocking, any thread). *)

val submit :
  t ->
  engine:Genbase.Engine.t ->
  ds:Genbase.Dataset.t ->
  ?params:Genbase.Query.params ->
  ?trace:int ->
  deadline_s:float ->
  Genbase.Query.t ->
  handle
(** Admission happens synchronously: a full queue, an open breaker or an
    over-capacity working set resolve the handle immediately with the
    corresponding [Shed] (retry-after hints included); otherwise the
    query queues for a lane. Raises [Invalid_argument] after
    {!shutdown}, before the request is counted anywhere.

    [?trace] links this submission to an existing trace (a client
    resubmitting a shed request passes the first attempt's trace id);
    defaults to a fresh id. With tracing enabled every submission emits
    a wall-track [serve.admit] instant carrying the decision, a queued
    expiry a [serve.expire] instant, and executions attach the trace id
    to their [serve.exec] span; with telemetry enabled the core feeds
    the labeled [genbase_serve_*] families exactly as for the simulated
    server. *)

val await : handle -> Outcome.response
(** Block until the submission resolves. [engine_outcome] carries the
    raw engine verdict for served and timed-out executions. *)

val run :
  t ->
  engine:Genbase.Engine.t ->
  ds:Genbase.Dataset.t ->
  ?params:Genbase.Query.params ->
  deadline_s:float ->
  Genbase.Query.t ->
  Outcome.response
(** [await (submit ...)]. *)

val shutdown : t -> unit
(** Drain the queue (queued work still executes), stop accepting new
    submissions, and join the workers. *)
