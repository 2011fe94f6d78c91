(* The overload-safe query server as a deterministic discrete-event
   simulation: a driver of the Admission core on the sim clock.

   Admission owns the shed decisions, the FIFO/SJF queue, the breakers
   and every response. This file owns what only a simulation has: the
   event heap, the lanes, memory reservation at dispatch against a
   Par.Budget (a reservation that does not fit keeps its queue place and
   marks when it first blocked), and execution truncated at the
   request's deadline, the sim analogue of the kernels' cooperative
   checkpoints.

   Determinism: events are ordered by (time, insertion seq); service
   times, breaker transitions and retry-driven re-arrivals are all pure
   functions of the inputs, so a run replays bit-for-bit. *)

module Sim = Gb_util.Clock.Sim
module Obs = Gb_obs.Obs

type config = {
  lanes : int;
  queue_depth : int;
  policy : Admission.policy;
  mem_bytes : int;
  breaker : Breaker.config;
}

let default_config =
  {
    lanes = 4;
    queue_depth = 16;
    policy = Admission.Fifo;
    mem_bytes = 4096 * 1024 * 1024;
    breaker = Breaker.default_config;
  }

type request = {
  id : int;
  key : int;
  trace : int;
  attempt : int;
  engine : string;
  query : Genbase.Query.t;
  arrival_s : float;
  deadline_s : float;
  service_s : float;
  bytes : int;
  fail : bool;
}

type stats = {
  max_queue_len : int;
  max_mem_used : int;
  breaker_trips : (string * int) list;
}

(* --- internal state --- *)

type pending = {
  fail : bool;
  mutable mem_blocked_at : float option;
      (** first dispatch attempt that failed memory reservation — the
          start of the queue wait's memory-budget tail *)
}

type running = {
  entry : pending Admission.entry;
  started_s : float;
  reserved : int;
  cancelled : bool;  (** finish event is the deadline, not completion *)
}

type ev = Arrive of request | Finish of int  (** lane *)

type event = { at : float; eseq : int; ev : ev }

(* The request's identity on its queue and exec spans. *)
let span_attrs (r : Admission.request) =
  [
    ("trace", Obs.Int r.trace);
    ("id", Obs.Int r.id);
    ("attempt", Obs.Int r.attempt);
    ("engine", Obs.Str r.engine);
  ]

let admission_request (r : request) =
  {
    Admission.id = r.id;
    key = r.key;
    trace = r.trace;
    attempt = r.attempt;
    engine = r.engine;
    query = r.query;
    deadline_s = r.deadline_s;
    service_s = r.service_s;
    bytes = r.bytes;
  }

let run ?(config = default_config) ?(on_response = fun _ -> []) requests =
  if config.lanes < 1 then invalid_arg "Server.run: lanes";
  if config.queue_depth < 0 then invalid_arg "Server.run: queue_depth";
  let clock = Sim.create () in
  let now () = Sim.now clock in
  let budget = Gb_par.Budget.create ~bytes:(max 1 config.mem_bytes) in
  let events = Gb_util.Heap.create ~cmp:(fun a b ->
      match Float.compare a.at b.at with 0 -> compare a.eseq b.eseq | c -> c)
  in
  let eseq = ref 0 in
  let push_event at ev =
    incr eseq;
    Gb_util.Heap.push events { at; eseq = !eseq; ev }
  in
  let lanes : running option array = Array.make config.lanes None in
  let responses = ref [] in
  let max_queue_len = ref 0 and max_mem_used = ref 0 in
  let adm =
    Admission.create ~clock:(Admission.Sim now) ~lanes:config.lanes
      ~queue_depth:config.queue_depth ~policy:config.policy
      ~breaker:config.breaker ~mem_capacity:config.mem_bytes
      ~deliver:(fun _ resp ->
        responses := resp :: !responses;
        List.iter
          (fun (r : request) ->
            push_event (Float.max r.arrival_s resp.Outcome.finished_s) (Arrive r))
          (on_response resp))
  in
  let rec dispatch () =
    Admission.sweep adm;
    match Array.find_index Option.is_none lanes with
    | None -> ()
    | Some lane -> (
      match Admission.head adm with
      | None -> ()
      | Some e -> (
        (* Memory admission: the pipeline's Par.Budget stage. A
           reservation that does not fit right now keeps its place in
           the queue — execution, not queueing, is what the budget
           bounds — and the next Finish retries the dispatch. *)
        match Gb_par.Budget.try_reserve budget ~bytes:e.req.bytes with
        | None ->
          if e.payload.mem_blocked_at = None then
            e.payload.mem_blocked_at <- Some (now ())
        | Some reserved ->
          Admission.take adm e;
          max_mem_used := max !max_mem_used (Gb_par.Budget.used budget);
          Admission.mem_reserved (Gb_par.Budget.used budget);
          let t = now () in
          let completes_at = t +. e.req.service_s in
          (* Cooperative cancellation, sim form: finishing strictly
             after the deadline means the checkpoint fires at the
             deadline instant; finishing exactly on it is a served
             query (Deadline.expired is a strict comparison). *)
          let cancelled = completes_at > e.deadline_at in
          let finish_at = if cancelled then e.deadline_at else completes_at in
          lanes.(lane) <- Some { entry = e; started_s = t; reserved; cancelled };
          if Obs.active () then begin
            (* The tail of the wait spent blocked on the memory budget
               rides along so the critical-path analyzer can split
               queue wait from memory wait. *)
            let mem_attr =
              match e.payload.mem_blocked_at with
              | Some b when t > b -> [ ("mem_wait_s", Obs.Float (t -. b)) ]
              | _ -> []
            in
            Obs.Span.emit ~cat:"serve" ~name:"queue"
              ~attrs:(span_attrs e.req @ mem_attr)
              ~tid:0 ~t0:e.submitted_s ~t1:t ()
          end;
          push_event finish_at (Finish lane);
          dispatch ()))
  in
  let arrive (r : request) =
    let pending = { fail = r.fail; mem_blocked_at = None } in
    if Admission.arrive adm ~submitted_s:r.arrival_s (admission_request r) pending
    then begin
      max_queue_len := max !max_queue_len (Admission.length adm);
      dispatch ()
    end
  in
  let finish lane =
    match lanes.(lane) with
    | None -> assert false
    | Some run ->
      lanes.(lane) <- None;
      Gb_par.Budget.release budget ~bytes:run.reserved;
      let t = now () in
      let e = run.entry in
      let ok = (not run.cancelled) && not e.payload.fail in
      Admission.record adm e ~ok;
      Admission.mem_reserved (Gb_par.Budget.used budget);
      if Obs.active () then begin
        Obs.Span.emit ~cat:"serve" ~name:"exec"
          ~attrs:(span_attrs e.req @ [ ("ok", Obs.Bool ok) ])
          ~tid:(lane + 1) ~t0:run.started_s ~t1:t ();
        if run.cancelled then
          Obs.Span.instant ~track:Obs.Sim ~ts:t
            ~attrs:
              [
                ("trace", Obs.Int e.req.trace);
                ("id", Obs.Int e.req.id);
                ("engine", Obs.Str e.req.engine);
              ]
            ~name:"serve.cancel" ()
      end;
      let disposition =
        if run.cancelled then Outcome.Deadline_exceeded `Running
        else if e.payload.fail then Outcome.Served Outcome.Failed_
        else Outcome.Served Outcome.Ok_
      in
      Admission.respond adm e ~started:run.started_s ~finished:t disposition;
      dispatch ()
  in
  List.iter (fun r -> push_event r.arrival_s (Arrive r)) requests;
  let rec loop () =
    match Gb_util.Heap.pop events with
    | None -> ()
    | Some { at; ev; _ } ->
      Sim.advance clock (Float.max 0. (at -. Sim.now clock));
      (match ev with Arrive r -> arrive r | Finish lane -> finish lane);
      loop ()
  in
  loop ();
  (* Anything still queued when the arrival stream dries up gets
     dispatched by the Finish cascade above; a non-empty queue here
     would mean a lost wakeup. *)
  assert (Admission.length adm = 0);
  let stats =
    {
      max_queue_len = !max_queue_len;
      max_mem_used = !max_mem_used;
      breaker_trips = Admission.breaker_trips adm;
    }
  in
  (List.sort (fun a b -> compare a.Outcome.id b.Outcome.id) !responses, stats)
