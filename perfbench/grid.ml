(* grid-small and analytics-medium: engine x query cells, run in a fixed
   order, one [Engine.run] per operation. *)

open Genbase
module Spec = Gb_datagen.Spec
module Oracle = Gb_conformance.Oracle
module Pool = Gb_par.Pool

let params = Query.default_params

(* Left out of grid-small, with the reason recorded in BENCHMARK.json
   and the README: MADlib's SVD (~2.1 s of deliberately simulated power
   iteration) and Hadoop's SVD (~2.0 s) each take about twice as long as
   the other 37 cells of a data set together. *)
let excluded = [ ("Postgres + Madlib", Query.Q4_svd); ("Hadoop", Query.Q4_svd) ]

let grid_cells =
  let engines =
    [
      (Engine_r.engine, Cells.R);
      (Engine_sql.postgres_r, Cells.Sql (Engine_sql.Row_backend, `Export_to_r));
      (Engine_madlib.engine, Cells.Madlib);
      (Engine_sql.colstore_r, Cells.Sql (Engine_sql.Col_backend, `Export_to_r));
      (Engine_sql.colstore_udf, Cells.Sql (Engine_sql.Col_backend, `Udf));
      (Engine_scidb.engine, Cells.Array_db);
      (Engine_hadoop.engine, Cells.Mapreduce);
    ]
  in
  List.concat_map
    (fun (engine, kind) ->
      List.filter_map
        (fun query ->
          let name = engine.Engine.name in
          if
            Oracle.whitelisted_unsupported ~engine:name query
            || List.mem (name, query) excluded
          then None
          else Some { Cells.engine; kind; query })
        Query.all)
    engines

let analytics_queries =
  [ Query.Q1_regression; Query.Q2_covariance; Query.Q3_biclustering; Query.Q4_svd ]

let analytics_cells =
  List.concat_map
    (fun (engine, kind) ->
      List.map (fun query -> { Cells.engine; kind; query }) analytics_queries)
    [ (Engine_scidb.engine, Cells.Array_db); (Engine_pbdr.engine ~nodes:4, Cells.Cluster) ]

let generate ?(salt = 1) spec seed =
  let ds, s =
    Measure.time (fun () -> Dataset.generate ~seed:(Measure.derive seed salt) spec)
  in
  Trace.metric_add "datagen.generate_s" s;
  ds

(* Per-query reference answers, computed once: Vanilla R itself where
   its modelled cell budget admits the data set, else the same Qcommon
   calls without the budget. *)
let references ds =
  let tbl = Hashtbl.create 8 in
  fun q ->
    match Hashtbl.find_opt tbl q with
    | Some o -> o
    | None ->
      let o =
        match Engine.run Oracle.reference ds q ~params ~timeout_s:600. () with
        | Engine.Out_of_memory ->
          Engine.Completed ({ dm = 0.; analytics = 0. }, Cells.reference ds params q)
        | o -> o
      in
      Hashtbl.replace tbl q o;
      o

(* Data set [d] of a run is generated from [derive seed (salt d)]:
   salt 1 (the one data set of the other workloads) first, then salts
   past the ingest-log and request-mix ones. *)
let salt d = if d = 0 then 1 else 3 + d

(* One pass runs every cell on each of the workload's data sets in turn.
   A GenBase query's work depends on its data set (Q2's cohort is the
   patients with one of 21 diseases), so a pass over several data sets
   varies less from seed to seed than a pass over one. *)
let make ~cells ~datasets ~timeout_s ~kernel_speedup spec ~seed =
  let dss = Array.init datasets (fun d -> generate ~salt:(salt d) spec seed) in
  let per_ds f = Array.map f dss in
  let references = per_ds references in
  let seen = per_ds (fun _ -> Hashtbl.create 64) in
  let kept = per_ds (fun _ -> []) and last = per_ds (fun _ -> []) in
  let traced_kept = per_ds (fun _ -> []) in
  let failed_of r = Cells.failed r.Cells.outcome in
  let over_datasets f =
    let rs, wall = Measure.time (fun () -> Array.to_list (Array.mapi f dss)) in
    let rs = List.concat rs in
    Workload.tally ~wall ~latencies:(List.map (fun r -> r.Cells.wall) rs) ~failed_of rs
  in
  let pass () =
    over_datasets (fun d ds ->
        let rs = List.map (Cells.run ~ds ~params ~timeout_s) cells in
        kept.(d) <- Cells.keep_new seen.(d) rs @ kept.(d);
        last.(d) <- rs;
        rs)
  in
  let traced_pass () =
    Array.iter Cells.engine_split last;
    let p =
      over_datasets (fun d ds ->
          let rs = List.map (Cells.traced ~ds ~params ~timeout_s) cells in
          traced_kept.(d) <- rs;
          rs)
    in
    (* Grid SQL cells already load their stores inside their spans. *)
    Cells.probe_stores dss.(0)
      (List.filter_map
         (fun c -> match c.Cells.kind with Cells.Sql _ -> None | k -> Some k)
         cells);
    if kernel_speedup then begin
      (* The kernel calls of this workload's queries, untraced at one
         domain, then traced at two. *)
      let refs () =
        Array.iter
          (fun ds ->
            List.iter (fun q -> ignore (Cells.reference ds params q)) analytics_queries)
          dss
      in
      Trace.enabled := false;
      Pool.set_jobs 1;
      let (), t1 = Measure.time refs in
      Pool.set_jobs 2;
      Trace.enabled := true;
      let (), tn =
        Measure.time (fun () ->
            Array.iter
              (fun ds ->
                List.iter
                  (fun q ->
                    Trace.with_ ~layer:"reference" ("reference:" ^ Query.name q)
                      (fun () -> ignore (Cells.reference ds params q)))
                  analytics_queries)
              dss)
      in
      Trace.metric_set "par.kernel_speedup" (t1 /. tn);
      Pool.set_jobs 1
    end;
    p
  in
  let gate () =
    List.concat
      (List.init datasets (fun d ->
           Cells.gate ~reference:references.(d) kept.(d)
           @ (if traced_kept.(d) = [] then []
              else Cells.fingerprint_errors ~untraced:last.(d) ~traced:traced_kept.(d))))
  in
  { Workload.pass; traced_pass; gate; teardown = ignore }

let grid_small ?(spec = Spec.of_size Spec.Small) ~seed () =
  make ~cells:grid_cells ~datasets:3 ~timeout_s:60. ~kernel_speedup:false
    spec ~seed

let analytics_medium ?(spec = Spec.of_size Spec.Medium) ~seed () =
  make ~cells:analytics_cells ~datasets:2 ~timeout_s:120.
    ~kernel_speedup:true spec ~seed
