(* stream-ingest: writes beside reads on the same kernels. Each batch of
   an ingest log (appends, in-place updates, variants) is applied with
   [Exec.step], then every query family is refreshed with
   [Exec.refresh]; one operation is one such batch. *)

open Genbase
module Spec = Gb_datagen.Spec
module Ingest = Gb_stream.Ingest
module Exec = Gb_stream.Exec
module Oracle = Gb_conformance.Oracle

let profile = Ingest.profile ~batches:24 ~appends:8 ~updates:4 ~variants:2 ()

let make ?(spec = Spec.of_size Spec.Medium) ~seed () =
  let ds = Grid.generate spec seed in
  let log = Ingest.generate ~seed:(Measure.derive seed 2) ~profile ds in
  let fresh () = Exec.create ~queries:Query.all ds log in
  let ready = ref (Some (fresh ())) in
  let last = ref None in
  (* One pass over the whole log on a fresh executor; building it is
     set-up (timed in [setup_s] the first time), not part of the pass. *)
  let loop ~traced =
    let exec = match !ready with Some e -> e | None -> fresh () in
    ready := None;
    let stale = ref 0 and refreshes = ref 0 in
    let batch () =
      let (), dt =
        Measure.time (fun () ->
            Trace.with_ ~layer:"batch"
              (Printf.sprintf "batch:%d" (Exec.watermark exec + 1))
              (fun () ->
                Trace.with_ ~layer:"stream" ~metric:"stream.apply_s" "Exec.step"
                  (fun () -> Exec.step exec);
                List.iter
                  (fun q ->
                    let name = Query.name q in
                    Trace.with_ ~layer:"stream"
                      ~metric:("stream.refresh_s." ^ name)
                      ("Exec.refresh/" ^ name)
                      (fun () -> ignore (Sys.opaque_identity (Exec.refresh exec q)));
                    incr refreshes;
                    (* Served from a stale materialisation: no work done. *)
                    if Exec.staleness exec q > 0 then incr stale)
                  Query.all))
      in
      dt
    in
    let latencies, wall =
      Measure.time (fun () -> List.init (Array.length log.Ingest.batches) (fun _ -> batch ()))
    in
    last := Some exec;
    if traced then begin
      Trace.metric_set "stream.events" (float_of_int (Ingest.events log));
      Trace.metric_set "stream.stale_refreshes" (float_of_int !stale);
      Trace.metric_set "stream.useful_refresh_frac"
        (float_of_int (!refreshes - !stale) /. float_of_int !refreshes)
    end;
    Workload.tally ~wall ~latencies ~failed_of:(fun _ -> false) latencies
  in
  let gate () =
    match !last with
    | None -> [ "no pass ran" ]
    | Some exec ->
      List.filter_map
        (fun (q, c) ->
          match c with
          | Oracle.Match _ | Oracle.Degraded_match _ -> None
          | c -> Some (Printf.sprintf "refresh %s: %s" (Query.name q) (Oracle.describe c)))
        (Gb_stream.Check.check_all exec Query.all)
  in
  {
    Workload.pass = (fun () -> loop ~traced:false);
    traced_pass = (fun () -> loop ~traced:true);
    gate;
    teardown = ignore;
  }
