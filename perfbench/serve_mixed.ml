(* serve-mixed: a seeded request mix through the live server, driven as
   a closed loop by one generator thread that keeps [outstanding]
   requests in flight — twice the lane count, so the admission queue is
   never empty. Small data, so per-request fixed costs (admission,
   queueing, dispatch, store loads) dominate. *)

open Genbase
module Spec = Gb_datagen.Spec
module Live = Gb_serve.Live
module Outcome = Gb_serve.Outcome
module Oracle = Gb_conformance.Oracle
module Telemetry = Gb_obs.Telemetry

let lanes = 2
let outstanding = 2 * lanes
let copies = 3
let deadline_s = 60.

let engines =
  [
    (Engine_scidb.engine, Cells.Array_db);
    (Engine_sql.colstore_udf, Cells.Sql (Engine_sql.Col_backend, `Udf));
    (Engine_sql.postgres_r, Cells.Sql (Engine_sql.Row_backend, `Export_to_r));
  ]

type sent = {
  resp : Outcome.response;
  submit_start_ns : int;
  submit_ns : int;  (** time spent inside [Live.submit] *)
}

let make ?(spec = Spec.of_size Spec.Small) ~seed () =
  let ds = Grid.generate spec seed in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let live = Live.create ~config:{ (Live.default_config ()) with Live.lanes } () in
  let mix =
    Array.of_list
      (List.concat
         (List.init copies (fun _ ->
              List.concat_map (fun (e, _) -> List.map (fun q -> (e, q)) Query.all) engines)))
  in
  Gb_util.Prng.shuffle (Gb_util.Prng.create (Measure.derive seed 3)) mix;
  let kept = ref [] and seen = Hashtbl.create 64 and scrape_errors = ref [] in
  (* As [Cells.keep_new]: each distinct answer is gated once. *)
  let keep_new (r : Outcome.response) =
    match Option.bind r.engine_outcome Engine.payload_of with
    | None -> true
    | Some p ->
      Cells.fresh seen
        (r.engine ^ "/" ^ Query.name r.query, Gb_conformance.Compare.fingerprint p)
  in
  let loop () =
    let inflight = Queue.create () and sent = ref [] and next = ref 0 in
    let submit () =
      let engine, q = mix.(!next) in
      incr next;
      let t0 = Measure.now_ns () in
      let h = Live.submit live ~engine ~ds ~deadline_s q in
      Queue.push (h, t0, Measure.now_ns () - t0) inflight
    in
    let (), wall =
      Measure.time (fun () ->
          while !next < min outstanding (Array.length mix) do submit () done;
          while not (Queue.is_empty inflight) do
            let h, submit_start_ns, submit_ns = Queue.pop inflight in
            sent := { resp = Live.await h; submit_start_ns; submit_ns } :: !sent;
            if !next < Array.length mix then submit ()
          done)
    in
    let sent = List.rev !sent in
    kept := List.filter keep_new (List.map (fun s -> s.resp) sent) @ !kept;
    ( sent,
      Workload.tally ~wall
        ~latencies:(List.map (fun s -> Outcome.latency_s s.resp) sent)
        ~failed_of:(fun s -> not (Outcome.goodput s.resp))
        sent )
  in
  let pass () = snd (loop ()) in
  let traced_pass () =
    let sent, p = loop () in
    let ns s = int_of_float (s *. 1e9) in
    List.iter
      (fun s ->
        let r = s.resp in
        let trace = r.Outcome.trace in
        ignore
          (Trace.emit ~trace ~layer:"serve" ~start_ns:s.submit_start_ns
             ~end_ns:(s.submit_start_ns + s.submit_ns) "Live.submit");
        (* The request as its response fields describe it: queue wait,
           then execution, then whatever remains (dispatch, delivery). *)
        let start = s.submit_start_ns in
        let stop = start + ns (Outcome.latency_s r) in
        let q_end = min stop (start + ns r.Outcome.queue_wait_s) in
        let e_end = min stop (start + ns (r.Outcome.queue_wait_s +. r.Outcome.exec_s)) in
        let id =
          Trace.emit ~trace ~layer:"request" ~start_ns:start ~end_ns:stop
            ~attrs:[ ("engine", r.Outcome.engine); ("disposition", Outcome.label r) ]
            ("request:" ^ Query.name r.Outcome.query)
        in
        ignore (Trace.emit ~parent:id ~trace ~layer:"queue" ~start_ns:start ~end_ns:q_end "queue");
        ignore (Trace.emit ~parent:id ~trace ~layer:"exec" ~start_ns:q_end ~end_ns:e_end "exec"))
      sent;
    let resps = List.map (fun s -> s.resp) sent in
    let field f = List.map f resps in
    let set_p50_tail name xs =
      Trace.metric_set (name ^ "_p50_s") (Measure.median xs);
      Trace.metric_set (name ^ "_tail_s") (Measure.tail xs).Measure.value
    in
    Trace.metric_set "serve.submit_s"
      (Measure.median (List.map (fun s -> Measure.seconds_of_ns s.submit_ns) sent));
    set_p50_tail "serve.queue_wait" (field (fun r -> r.Outcome.queue_wait_s));
    set_p50_tail "serve.exec" (field (fun r -> r.Outcome.exec_s));
    let count pred = float_of_int (List.length (List.filter pred resps)) in
    Trace.metric_set "serve.shed"
      (count (fun r -> match r.Outcome.disposition with Outcome.Shed _ -> true | _ -> false));
    Trace.metric_set "serve.expired"
      (count (fun r ->
           match r.Outcome.disposition with Outcome.Deadline_exceeded _ -> true | _ -> false));
    (* The engines reload their stores inside every request. *)
    Cells.probe_stores ds (List.map snd engines);
    let text =
      Trace.with_ ~layer:"telemetry" ~metric:"telemetry.scrape_s" "Expo.render"
        (fun () -> Gb_obs.Expo.render (Telemetry.snapshot ()))
    in
    (match Gb_obs.Expo.parse text with
    | Ok fams ->
      Trace.metric_set "telemetry.series"
        (float_of_int
           (List.fold_left (fun a f -> a + List.length f.Telemetry.rows) 0 fams))
    | Error e -> scrape_errors := ("telemetry exposition: " ^ e) :: !scrape_errors);
    p
  in
  let gate () =
    let reference = Grid.references ds in
    !scrape_errors
    @ List.filter_map
      (fun (r : Outcome.response) ->
        match r.engine_outcome with
        | None -> None
        | Some o -> (
          let q = r.query in
          match
            Oracle.classify
              ~tol:(Oracle.tolerance_for ~engine:r.engine q)
              ~p_threshold:Query.default_params.p_threshold
              ~reference:(reference q) o
          with
          | Oracle.Match _ | Oracle.Degraded_match _ | Oracle.Engine_failed _ -> None
          | c ->
            Some
              (Printf.sprintf "request %d %s/%s: %s" r.id r.engine (Query.name q)
                 (Oracle.describe c))))
      !kept
  in
  let teardown () =
    Live.shutdown live;
    Telemetry.set_enabled false
  in
  { Workload.pass; traced_pass; gate; teardown }
