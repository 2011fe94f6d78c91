(** The admission core shared by both servers.

    One implementation of the serving policy: the arrival-time shed
    decisions (working set over the whole budget, full queue with a
    drain-estimate retry-after hint, circuit-breaker fast-fail), the
    per-engine breaker table, the bounded FIFO/SJF queue with its
    deadline sweep, response construction, and the response taps
    (flight recorder, the labeled [genbase_serve_*] families, the
    [serve.admit] / [serve.expire] instants).

    {!Server} drives it from a discrete-event loop on the sim clock,
    {!Live} from worker domains on the wall clock; each driver keeps
    only how it runs work (lanes, memory reservation, execution). The
    core holds no lock: a concurrent driver serializes every call
    except {!respond}, which touches no queue or breaker state. *)

type policy =
  | Fifo  (** strict arrival order *)
  | Sjf
      (** shortest job first by [service_s]; equal estimates fall back
          to arrival order, so SJF never reorders identical work *)

val policies : (string * policy) list
(** Name/value pairs, the single source for CLI parsing and usage. *)

val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result

type clock =
  | Sim of (unit -> float)
      (** simulated seconds: instants land on the sim track at the
          clock's reading, and a queued request whose deadline passed is
          stamped at its deadline instant, which the simulation knows
          exactly *)
  | Wall of (unit -> float)
      (** wall seconds: instants land on the wall track, and a queued
          expiry is stamped when the sweep observes it, the instant its
          client learns of it *)

type request = {
  id : int;  (** unique per submission *)
  key : int;  (** client identity, echoed in the response *)
  trace : int;  (** links every attempt and span of one logical request *)
  attempt : int;  (** 1-based submission attempt *)
  engine : string;  (** breaker scope *)
  query : Genbase.Query.t;
  deadline_s : float;  (** budget relative to admission *)
  service_s : float;  (** SJF rank *)
  bytes : int;  (** working set, checked against the memory capacity *)
}

type 'a entry = {
  req : request;
  submitted_s : float;
  deadline_at : float;  (** admission instant + [deadline_s] *)
  seq : int;  (** admission order, the FIFO key and SJF tie-break *)
  payload : 'a;  (** the driver's own per-request state *)
}

type 'a t

val create :
  clock:clock ->
  lanes:int ->
  queue_depth:int ->
  policy:policy ->
  breaker:Breaker.config ->
  mem_capacity:int ->
  deliver:('a -> Outcome.response -> unit) ->
  'a t
(** [deliver payload response] hands every response to the driver,
    after the taps. [lanes] scales the queue-full retry-after hint. *)

val arrive : 'a t -> ?submitted_s:float -> request -> 'a -> bool
(** Admission decision for one request at the clock's current reading:
    counts it, then sheds it (memory, queue full, breaker open; the
    response is delivered before [arrive] returns) or queues it. True
    when queued. [submitted_s] is the client's submission instant,
    default the admission instant. *)

val sweep : 'a t -> unit
(** Resolve every queued request whose deadline has passed as
    [Deadline_exceeded `Queued], releasing any breaker probe it held. *)

val head : 'a t -> 'a entry option
(** The entry the policy runs next, left in the queue. *)

val take : 'a t -> 'a entry -> unit
(** Remove an entry that is starting to run; observes its queue wait. *)

val length : 'a t -> int

val record : 'a t -> 'a entry -> ok:bool -> unit
(** Report an executed request's verdict to its engine's breaker. *)

val abandon : 'a t -> 'a entry -> unit
(** Release the admission of a request that will never execute. *)

val respond :
  'a t ->
  'a entry ->
  ?engine_outcome:Genbase.Engine.outcome ->
  started:float ->
  finished:float ->
  Outcome.disposition ->
  unit
(** Build the response of an entry that left the queue (queue wait
    [started - submitted_s], execution [finished - started]), run the
    taps and deliver it. *)

val mem_reserved : int -> unit
(** Set the reserved-working-set gauge (telemetry flag). *)

val breaker_trips : 'a t -> (string * int) list
(** Trips per engine that has seen a request, sorted by name. *)

val latency_family : Gb_obs.Telemetry.hist_family
(** The [genbase_serve_latency_seconds] family, observed for every
    [Served _] response — exposed so callers can compare its
    interpolated quantiles against exact post-hoc percentiles. *)
