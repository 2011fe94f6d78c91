(* Wall-clock serving: the Admission core driven from worker domains
   around real engine executions. Admission owns the shed decisions, the
   FIFO/SJF queue, the breakers and every response, as for the simulated
   server; this file owns the lock that serializes calls into it, the
   worker domains, the tickets clients block on, the blocking memory
   reservation (a request whose deadline passes while it waits for
   memory never executes), and the mapping from Engine.outcome to a
   disposition and a breaker verdict.

   Each lane is one domain; kernels inside an engine still use the
   shared [Gb_par.Pool] for their own data parallelism, so this trades
   kernel-level for query-level parallelism exactly like the harness's
   concurrent grid cells. Deadlines ride the ambient mechanism:
   [Engine.run] arms [Deadline.Ambient] with the remaining budget and
   the kernels' cooperative checkpoints turn an overrun into
   [Timed_out]. *)

module Engine = Genbase.Engine
module Query = Genbase.Query

type config = {
  lanes : int;
  queue_depth : int;
  policy : Admission.policy;
  breaker : Breaker.config;
  budget : Gb_par.Budget.t;
}

let default_config () =
  {
    lanes = 2;
    queue_depth = 8;
    policy = Admission.Fifo;
    breaker = Breaker.default_config;
    budget = Genbase.Harness.memory_budget ();
  }

type ticket = {
  t_m : Mutex.t;
  t_cv : Condition.t;
  mutable t_resp : Outcome.response option;
}

type work = {
  engine : Engine.t;
  ds : Genbase.Dataset.t;
  params : Query.params;
  ticket : ticket;
}

type t = {
  cfg : config;
  now : unit -> float;  (** wall seconds since [create] *)
  m : Mutex.t;  (** guards [core], [stopping] and [next_id] *)
  cv : Condition.t;
  core : work Admission.t;
  mutable stopping : bool;
  mutable next_id : int;
  mutable workers : unit Domain.t list;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let deliver w (resp : Outcome.response) =
  Mutex.lock w.ticket.t_m;
  w.ticket.t_resp <- Some resp;
  Condition.broadcast w.ticket.t_cv;
  Mutex.unlock w.ticket.t_m

let classify = function
  | Engine.Completed _ -> Outcome.Served Outcome.Ok_
  | Engine.Degraded _ -> Outcome.Served Outcome.Degraded_
  | Engine.Timed_out -> Outcome.Deadline_exceeded `Running
  | Engine.Out_of_memory | Engine.Errored _ | Engine.Unsupported ->
    Outcome.Served Outcome.Failed_

(* Breaker health: completions (possibly degraded) are successes;
   [Unsupported] is a static capability gap, not an engine fault, so it
   neither helps nor hurts — counting it as failure would trip breakers
   on engines that simply skip a query. *)
let breaker_ok = function
  | Engine.Completed _ | Engine.Degraded _ | Engine.Unsupported -> true
  | Engine.Timed_out | Engine.Out_of_memory | Engine.Errored _ -> false

let execute t (e : work Admission.entry) =
  let w = e.Admission.payload in
  let started = t.now () in
  let budget = t.cfg.budget in
  let granted = Gb_par.Budget.reserve budget ~bytes:e.req.bytes in
  Admission.mem_reserved (Gb_par.Budget.used budget);
  Fun.protect
    ~finally:(fun () ->
      Gb_par.Budget.release budget ~bytes:granted;
      Admission.mem_reserved (Gb_par.Budget.used budget))
    (fun () ->
      let remaining = e.deadline_at -. t.now () in
      if remaining <= 0. then begin
        (* Expired while waiting for memory: never executed. *)
        locked t (fun () -> Admission.abandon t.core e);
        let at = t.now () in
        Admission.respond t.core e ~started:at ~finished:at
          (Outcome.Deadline_exceeded `Queued)
      end
      else begin
        let outcome =
          Gb_obs.Obs.Span.with_ ~cat:"serve" ~name:"serve.exec"
            ~attrs:
              [
                ("trace", Gb_obs.Obs.Int e.req.trace);
                ("id", Gb_obs.Obs.Int e.req.id);
                ("engine", Gb_obs.Obs.Str e.req.engine);
                ("query", Gb_obs.Obs.Str (Query.name e.req.query));
                ("queue_wait_s", Gb_obs.Obs.Float (started -. e.submitted_s));
              ]
            (fun () ->
              Engine.run w.engine w.ds e.req.query ~params:w.params
                ~timeout_s:remaining ())
        in
        let finished = t.now () in
        locked t (fun () -> Admission.record t.core e ~ok:(breaker_ok outcome));
        Admission.respond t.core e ~engine_outcome:outcome ~started ~finished
          (classify outcome)
      end)

let worker t =
  Gb_obs.Obs.set_domain_tid (128 + (Domain.self () :> int));
  let rec loop () =
    Mutex.lock t.m;
    Admission.sweep t.core;
    match Admission.head t.core with
    | Some e ->
      Admission.take t.core e;
      Mutex.unlock t.m;
      execute t e;
      loop ()
    | None ->
      if t.stopping then Mutex.unlock t.m
      else begin
        Condition.wait t.cv t.m;
        Mutex.unlock t.m;
        loop ()
      end
  in
  loop ()

let create ?config () =
  let cfg = match config with Some c -> c | None -> default_config () in
  if cfg.lanes < 1 then invalid_arg "Live.create: lanes";
  if cfg.queue_depth < 0 then invalid_arg "Live.create: queue_depth";
  let epoch = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. epoch in
  let t =
    {
      cfg;
      now;
      m = Mutex.create ();
      cv = Condition.create ();
      core =
        Admission.create
          ~clock:(Admission.Wall now)
          ~lanes:cfg.lanes ~queue_depth:cfg.queue_depth ~policy:cfg.policy
          ~breaker:cfg.breaker
          ~mem_capacity:(Gb_par.Budget.capacity cfg.budget)
          ~deliver;
      stopping = false;
      next_id = 0;
      workers = [];
    }
  in
  t.workers <- List.init cfg.lanes (fun _ -> Domain.spawn (fun () -> worker t));
  t

type handle = ticket

let await (tk : handle) =
  Mutex.lock tk.t_m;
  let rec wait () =
    match tk.t_resp with
    | Some r -> Mutex.unlock tk.t_m; r
    | None -> Condition.wait tk.t_cv tk.t_m; wait ()
  in
  wait ()

let submit t ~engine ~ds ?(params = Query.default_params) ?trace ~deadline_s
    query =
  let ticket =
    { t_m = Mutex.create (); t_cv = Condition.create (); t_resp = None }
  in
  let spec = ds.Gb_datagen.Generate.spec in
  let service_s =
    Estimate.service_s ~engine:engine.Engine.name
      ~genes:spec.Gb_datagen.Spec.genes ~patients:spec.Gb_datagen.Spec.patients
      query
  in
  let bytes = Genbase.Harness.cell_bytes ds in
  locked t (fun () ->
      if t.stopping then invalid_arg "Live.submit: server is shut down";
      t.next_id <- t.next_id + 1;
      let id = t.next_id in
      let req =
        {
          Admission.id;
          key = id;
          trace = Option.value trace ~default:id;
          attempt = 1;
          engine = engine.Engine.name;
          query;
          deadline_s;
          service_s;
          bytes;
        }
      in
      if Admission.arrive t.core req { engine; ds; params; ticket } then
        Condition.signal t.cv);
  ticket

let run t ~engine ~ds ?params ~deadline_s query =
  await (submit t ~engine ~ds ?params ~deadline_s query)

let shutdown t =
  locked t (fun () ->
      t.stopping <- true;
      Condition.broadcast t.cv);
  List.iter Domain.join t.workers;
  t.workers <- []
