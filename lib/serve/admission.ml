(* The admission core: every policy decision the simulated and the live
   server share. Pipeline for one request: arrival-time admission
   (working-set cap, bounded queue, per-engine circuit breaker) -> queue
   (FIFO or shortest-job-first) -> the driver runs it -> exactly one
   Outcome.response through [emit].

   Determinism: the queue is a list in reverse admission order and every
   scan over it (sweep, drain estimate, removal) keeps that order, so a
   driver replaying the same calls gets bit-identical responses. The
   list is capped by queue_depth, so the O(n) head scan stays short. *)

module Obs = Gb_obs.Obs
module Tele = Gb_obs.Telemetry

type policy = Fifo | Sjf

let policies = [ ("fifo", Fifo); ("sjf", Sjf) ]

let policy_to_string = function Fifo -> "fifo" | Sjf -> "sjf"

let policy_of_string s =
  match List.assoc_opt (String.lowercase_ascii (String.trim s)) policies with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown queue policy %S (expected %s)" s
         (String.concat " or " (List.map fst policies)))

type clock = Sim of (unit -> float) | Wall of (unit -> float)

type request = {
  id : int;
  key : int;
  trace : int;
  attempt : int;
  engine : string;
  query : Genbase.Query.t;
  deadline_s : float;
  service_s : float;
  bytes : int;
}

type 'a entry = {
  req : request;
  submitted_s : float;
  deadline_at : float;
  seq : int;
  payload : 'a;
}

type 'a t = {
  clock : clock;
  now : unit -> float;
  lanes : int;
  queue_depth : int;
  policy : policy;
  breaker_config : Breaker.config;
  mem_capacity : int;
  deliver : 'a -> Outcome.response -> unit;
  breakers : (string, Breaker.t) Hashtbl.t;
  mutable queue : 'a entry list;
  mutable arrivals : int;  (** the last entry's seq *)
}

(* Labeled families (telemetry flag). Latency is observed for every
   [Served _] response — the same set Loadgen's exact post-hoc
   percentiles cover, which is what makes the interpolated p99
   comparable to the summary's p99 within one bucket width. *)
let f_requests =
  Tele.counter_family ~help:"Requests arriving at the server"
    "genbase_serve_requests_total"

let f_responses =
  Tele.counter_family ~help:"Responses by final disposition"
    "genbase_serve_responses_total"

let f_latency =
  Tele.hist_family ~help:"End-to-end latency of served requests (seconds)"
    "genbase_serve_latency_seconds"

let f_queue_wait =
  Tele.hist_family ~help:"Queue wait before execution (seconds)"
    "genbase_serve_queue_wait_seconds"

let g_queue_depth =
  Tele.gauge_family ~help:"Admission-queue depth" "genbase_serve_queue_depth"

let g_mem =
  Tele.gauge_family ~help:"Reserved working-set bytes"
    "genbase_serve_mem_reserved_bytes"

let latency_family = f_latency

let labels r = [ ("engine", r.engine); ("query", Genbase.Query.name r.query) ]

let mem_reserved used =
  if Tele.enabled () then Tele.set g_mem [] (float_of_int used)

let create ~clock ~lanes ~queue_depth ~policy ~breaker ~mem_capacity ~deliver =
  {
    clock;
    now = (match clock with Sim now | Wall now -> now);
    lanes;
    queue_depth;
    policy;
    breaker_config = breaker;
    mem_capacity;
    deliver;
    breakers = Hashtbl.create 8;
    queue = [];
    arrivals = 0;
  }

let length t = List.length t.queue

let breaker t engine =
  match Hashtbl.find_opt t.breakers engine with
  | Some b -> b
  | None ->
    let b = Breaker.create ~config:t.breaker_config ~now:t.now engine in
    Hashtbl.add t.breakers engine b;
    b

let record t e ~ok = Breaker.record (breaker t e.req.engine) ~ok
let abandon t e = Breaker.abandon (breaker t e.req.engine)

let breaker_trips t =
  Hashtbl.fold (fun name b acc -> (name, Breaker.trips b) :: acc) t.breakers []
  |> List.sort compare

let set_depth t =
  if Tele.enabled () then Tele.set g_queue_depth [] (float_of_int (length t))

(* Sim-track instants carry the clock's reading (or [ts]); wall-track
   ones take the trace's own wall stamp. *)
let instant t ?ts e name extra =
  if Obs.active () then
    let attrs =
      ("trace", Obs.Int e.req.trace) :: ("id", Obs.Int e.req.id) :: extra
    in
    match t.clock with
    | Sim now ->
      Obs.Span.instant ~track:Obs.Sim ~ts:(Option.value ts ~default:(now ()))
        ~attrs ~name ()
    | Wall _ -> Obs.Span.instant ~track:Obs.Wall ~attrs ~name ()

(* Build the response, run the taps, then hand it to the driver. The
   taps are the flight recorder (tail-sampling decision, shed-spike
   detection; one atomic load each while not recording) and the labeled
   families. *)
let emit t e ?retry_after ?engine_outcome ~finished ~wait ~exec disposition =
  let resp =
    {
      Outcome.id = e.req.id;
      key = e.req.key;
      trace = e.req.trace;
      attempt = e.req.attempt;
      engine = e.req.engine;
      query = e.req.query;
      submitted_s = e.submitted_s;
      finished_s = finished;
      queue_wait_s = wait;
      exec_s = exec;
      disposition;
      retry_after_s = retry_after;
      engine_outcome;
    }
  in
  (match disposition with
  | Outcome.Shed _ -> Gb_obs.Recorder.observe_shed ~now:finished
  | _ -> ());
  let latency = Outcome.latency_s resp in
  Gb_obs.Recorder.observe_response ~trace:e.req.trace ~latency_s:latency
    ~ok:(Outcome.goodput resp) ~now:finished;
  if Tele.enabled () then begin
    let labels = labels e.req in
    Tele.incr f_responses (("disposition", Outcome.label resp) :: labels);
    match disposition with
    | Outcome.Served _ -> Tele.observe f_latency labels latency
    | Outcome.Shed _ | Outcome.Deadline_exceeded _ -> ()
  end;
  t.deliver e.payload resp

let respond t e ?engine_outcome ~started ~finished disposition =
  emit t e ?engine_outcome ~finished ~wait:(started -. e.submitted_s)
    ~exec:(finished -. started) disposition

let arrive t ?submitted_s req payload =
  if Tele.enabled () then Tele.incr f_requests (labels req);
  let now = t.now () in
  t.arrivals <- t.arrivals + 1;
  let e =
    {
      req;
      submitted_s = Option.value submitted_s ~default:now;
      deadline_at = now +. req.deadline_s;
      seq = t.arrivals;
      payload;
    }
  in
  (* One instant per arrival carrying the admission decision, linked to
     the rest of the request's spans by the trace attribute. *)
  let decide decision =
    instant t e "serve.admit"
      [
        ("attempt", Obs.Int req.attempt);
        ("engine", Obs.Str req.engine);
        ("decision", Obs.Str decision);
      ]
  in
  let shed reason ?retry_after () =
    decide ("shed:" ^ Outcome.shed_reason_label reason);
    emit t e ?retry_after ~finished:now ~wait:0. ~exec:0. (Outcome.Shed reason);
    false
  in
  if req.bytes > t.mem_capacity then
    (* Could never run next to anything; a batch harness runs such a
       query alone, a server refuses to stall the fleet for it. *)
    shed Outcome.Memory ()
  else if length t >= t.queue_depth then
    (* Hint: roughly one drain of the current backlog across the lanes. *)
    let backlog =
      List.fold_left (fun acc q -> acc +. q.req.service_s) 0. t.queue
    in
    shed Outcome.Queue_full
      ~retry_after:(Float.max 0.05 (backlog /. float_of_int t.lanes))
      ()
  else
    match Breaker.admit (breaker t req.engine) with
    | `Fast_fail retry_after -> shed Outcome.Breaker_open ~retry_after ()
    | `Admit ->
      decide "admitted";
      t.queue <- e :: t.queue;
      set_depth t;
      true

(* Expire queued entries whose deadline passed before they reached a
   lane. Judged lazily at dispatch points. *)
let sweep t =
  let now = t.now () in
  let expired, live = List.partition (fun e -> e.deadline_at < now) t.queue in
  t.queue <- live;
  List.iter
    (fun e ->
      abandon t e;
      let at = match t.clock with Sim _ -> e.deadline_at | Wall _ -> now in
      instant t ~ts:at e "serve.expire" [ ("engine", Obs.Str e.req.engine) ];
      respond t e ~started:at ~finished:at (Outcome.Deadline_exceeded `Queued))
    expired;
  set_depth t

(* FIFO takes the oldest entry; SJF the cheapest estimate, ties to the
   oldest so equal-cost work keeps arrival order and no request starves
   behind an equal peer. *)
let head t =
  match t.queue with
  | [] -> None
  | first :: rest ->
    let better a b =
      match t.policy with
      | Fifo -> if b.seq < a.seq then b else a
      | Sjf ->
        let c = Float.compare b.req.service_s a.req.service_s in
        if c < 0 || (c = 0 && b.seq < a.seq) then b else a
    in
    Some (List.fold_left better first rest)

let take t e =
  t.queue <- List.filter (fun q -> q.seq <> e.seq) t.queue;
  set_depth t;
  if Tele.enabled () then
    Tele.observe f_queue_wait (labels e.req)
      (t.now () -. e.submitted_s)
