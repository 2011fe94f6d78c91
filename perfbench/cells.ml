(* Engine x query cells: the grid-small and analytics-medium passes.

   Untraced, a cell is one [Engine.run] timed from outside, once, at wall
   time. Traced, the SQL engines and Vanilla R are recomposed from the
   public calls their [Engine.run] makes (store load, Relops plans, the
   CSV boundary, Qcommon/Covariance kernels), each wrapped in a layer
   span; engines the benchmark cannot take apart run whole inside one
   cell span that carries their reported split. *)

open Genbase
module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate
module Oracle = Gb_conformance.Oracle
module Compare = Gb_conformance.Compare
module Export = Gb_relational.Export

type kind =
  | R
  | Sql of Engine_sql.backend * [ `Export_to_r | `Udf ]
  | Madlib
  | Array_db
  | Mapreduce
  | Cluster

type cell = { engine : Engine.t; kind : kind; query : Query.t }

let wall_clock = function
  | R | Sql _ | Madlib -> true
  | Array_db | Mapreduce | Cluster -> false

let cell_name c = Printf.sprintf "%s/%s" c.engine.Engine.name (Query.name c.query)

let failed = function
  | Engine.Completed _ | Engine.Degraded _ -> false
  | Engine.Timed_out | Engine.Out_of_memory | Engine.Errored _
  | Engine.Unsupported ->
    true

(* {1 Layer-wrapped public calls} *)

let span ?metric ?attrs layer name f = Trace.with_ ?metric ?attrs ~layer name f

let storage metric name f =
  span ~metric "storage" name (fun () ->
      Trace.metric_add "storage.loads" 1.;
      f ())

let store_span = function
  | Engine_sql.Row_backend -> ("storage.row_load_s", "Engine_sql.make_db/row")
  | Engine_sql.Col_backend -> ("storage.col_load_s", "Engine_sql.make_db/col")

let relational name f = span ~metric:"relational.dm_s" "relational" name f

let pivoted m =
  let r, c = Mat.dims m in
  if !Trace.enabled then
    Trace.metric_add "relational.cells_pivoted" (float_of_int (r * c));
  m

let kernel metric name f = span ~metric "kernel" name f

(* The boundary's two halves, as [Export.roundtrip_matrix] composes
   them, so the shipped bytes are counted without serializing twice. *)
let recast m =
  span ~metric:"export.recast_s" "export" "Export.roundtrip_matrix" (fun () ->
      let csv = Export.matrix_to_csv m in
      if !Trace.enabled then
        Trace.metric_add "export.csv_bytes" (float_of_int (String.length csv));
      Export.csv_to_matrix csv)

let recast_vec y =
  Mat.col (recast (Mat.init (Array.length y) 1 (fun i _ -> y.(i)))) 0

let regression x y =
  kernel "kernel.regression_s" "Qcommon.regression_of" (fun () ->
      Qcommon.regression_of x y)

let covariance ~gene_ids ~top_fraction m =
  let c = kernel "kernel.covariance_s" "Covariance.matrix" (fun () ->
      Gb_linalg.Covariance.matrix m)
  in
  if !Trace.enabled then begin
    let r, k = Mat.dims m in
    Trace.metric_add "kernel.gemm_flops" (2. *. float_of_int r *. float_of_int k *. float_of_int k)
  end;
  kernel "kernel.top_fraction_s" "Covariance.top_fraction" (fun () ->
      let pairs = Gb_linalg.Covariance.top_fraction c top_fraction in
      Engine.Cov_pairs
        {
          n_genes = Array.length gene_ids;
          top_pairs = List.map (fun (i, j, v) -> (gene_ids.(i), gene_ids.(j), v)) pairs;
        })

let biclusters m =
  kernel "kernel.bicluster_s" "Qcommon.biclusters_of" (fun () ->
      Qcommon.biclusters_of m)

let svd ~k m = kernel "kernel.svd_s" "Qcommon.svd_of" (fun () -> Qcommon.svd_of ~k m)

let enrichment (ds : Dataset.t) (params : Query.params) ~go_pairs scores =
  kernel "kernel.enrichment_s" "Qcommon.enrichment_of" (fun () ->
      Qcommon.enrichment_of ~n_genes:(Array.length scores) ~go_pairs
        ~go_terms:ds.G.spec.Gb_datagen.Spec.go_terms
        ~p_threshold:params.Query.p_threshold ~scores)

let overlaps (ds : Dataset.t) pairs =
  Qcommon.overlaps_of ~n_variants:(Array.length ds.G.variants)
    ~n_genes:(Array.length ds.G.genes) pairs

(* {1 Recomposed cells} *)

(* Vanilla R's answer from the same Qcommon selections and kernel calls
   [Engine_r] makes, without its modelled cell budget: the recomposed R
   cell, and the reference wherever that budget trips. *)
let reference (ds : Dataset.t) (params : Query.params) q =
  let select f = span "select" "Qcommon.select" f in
  let x = ds.G.expression in
  match q with
  | Query.Q1_regression ->
    let x, y =
      select (fun () ->
          let ids = Qcommon.genes_with_func_below ds params.func_threshold in
          ( Mat.sub_cols x ids,
            Array.map (fun (p : G.patient) -> p.drug_response) ds.G.patients ))
    in
    regression x y
  | Query.Q2_covariance ->
    let m =
      select (fun () ->
          Mat.sub_rows x (Qcommon.patients_with_disease ds params.disease_id))
    in
    covariance
      ~gene_ids:(Array.init (Array.length ds.G.genes) Fun.id)
      ~top_fraction:params.cov_top_fraction m
  | Query.Q3_biclustering ->
    biclusters
      (select (fun () ->
           Mat.sub_rows x
             (Qcommon.patients_by_age_gender ds ~max_age:params.max_age
                ~gender:params.gender)))
  | Query.Q4_svd ->
    svd ~k:params.svd_k
      (select (fun () ->
           Mat.sub_cols x (Qcommon.genes_with_func_below ds params.func_threshold)))
  | Query.Q5_statistics ->
    let scores =
      select (fun () ->
          Qcommon.enrichment_scores
            (Mat.sub_rows x (Qcommon.sampled_patients ds params.sample_fraction)))
    in
    enrichment ds params ~go_pairs:ds.G.go scores
  | Query.Q6_overlap ->
    let vs, gs =
      select (fun () -> (Qcommon.variant_ivs ds, Qcommon.gene_ivs ds))
    in
    kernel "kernel.overlap_s" "Ranges.nested_loop_join" (fun () ->
        overlaps ds
          (Gb_util.Ranges.nested_loop_join ~min_overlap:params.min_overlap_bp
             vs gs))

(* [Engine_sql]'s query bodies, call for call. *)
let sql (ds : Dataset.t) (params : Query.params) backend boundary q =
  let db =
    let metric, name = store_span backend in
    storage metric name (fun () -> Engine_sql.make_db backend ds ~check:ignore)
  in
  let cross m = match boundary with `Udf -> m | `Export_to_r -> recast m in
  let cross_vec y = match boundary with `Udf -> y | `Export_to_r -> recast_vec y in
  match q with
  | Query.Q1_regression ->
    let x, y, _ = relational "Relops.q1_dm" (fun () -> Relops.q1_dm db params) in
    let x = cross (pivoted x) in
    let y = cross_vec y in
    regression x y
  | Query.Q2_covariance ->
    let m, gene_ids = relational "Relops.q2_dm" (fun () -> Relops.q2_dm db params) in
    let payload =
      covariance ~gene_ids ~top_fraction:params.cov_top_fraction
        (cross (pivoted m))
    in
    let pairs = match payload with Engine.Cov_pairs p -> p.top_pairs | _ -> [] in
    ignore
      (relational "Relops.q2_join_metadata" (fun () ->
           Relops.q2_join_metadata db pairs));
    payload
  | Query.Q3_biclustering ->
    let m = cross (pivoted (relational "Relops.q3_dm" (fun () -> Relops.q3_dm db params))) in
    (* The UDF interface marshals the matrix three more times. *)
    if boundary = `Udf then for _ = 1 to 3 do ignore (recast m) done;
    biclusters m
  | Query.Q4_svd ->
    let x, _ = relational "Relops.q4_dm" (fun () -> Relops.q4_dm db params) in
    svd ~k:params.svd_k (cross (pivoted x))
  | Query.Q5_statistics ->
    let scores, go_pairs =
      relational "Relops.q5_dm" (fun () ->
          Relops.q5_dm db params ~n_patients:(Array.length ds.G.patients))
    in
    enrichment ds params ~go_pairs (cross_vec scores)
  | Query.Q6_overlap ->
    let pairs = relational "Relops.q6_dm" (fun () -> Relops.q6_dm db params) in
    kernel "kernel.overlap_s" "Qcommon.overlaps_of" (fun () -> overlaps ds pairs)

(* {1 Passes} *)

type result = { cell : cell; outcome : Engine.outcome; wall : float }

let run ~ds ~params ~timeout_s c =
  let outcome, wall =
    Measure.time (fun () -> Engine.run c.engine ds c.query ~params ~timeout_s ())
  in
  { cell = c; outcome; wall }

let reported_attrs outcome =
  match Engine.timing_of outcome with
  | None -> [ ("outcome", Format.asprintf "%a" Engine.pp_outcome outcome) ]
  | Some t ->
    [
      ("reported_dm_s", Printf.sprintf "%.9f" t.Engine.dm);
      ("reported_analytics_s", Printf.sprintf "%.9f" t.Engine.analytics);
    ]

(* One traced cell. Recomposed cells complete with a zero reported
   split: only their payload (checked against [Engine.run]'s) and their
   spans are used. *)
let traced ~ds ~params ~timeout_s c =
  let name = "cell:" ^ cell_name c in
  match c.kind with
  | R | Sql _ ->
    let outcome, wall =
      Measure.time (fun () ->
          match
            span "cell" name (fun () ->
                match c.kind with
                | Sql (backend, boundary) -> sql ds params backend boundary c.query
                | _ -> reference ds params c.query)
          with
          | payload -> Engine.Completed ({ dm = 0.; analytics = 0. }, payload)
          | exception e -> Engine.Errored (Printexc.to_string e))
    in
    { cell = c; outcome; wall }
  | Madlib | Array_db | Mapreduce | Cluster ->
    let r =
      span ~attrs:(fun r -> reported_attrs r.outcome) "cell" name (fun () ->
          run ~ds ~params ~timeout_s c)
    in
    (match (c.kind, Engine.timing_of r.outcome) with
    | Madlib, Some t -> Trace.metric_add "madlib.analytics_s" t.Engine.analytics
    | Mapreduce, Some t ->
      Trace.metric_add "mapreduce.wall_s" r.wall;
      Trace.metric_add "mapreduce.modelled_s" (Engine.total t)
    | Cluster, Some t ->
      Trace.metric_add "cluster.wall_s" r.wall;
      Trace.metric_add "cluster.modelled_s" (Engine.total t)
    | _ -> ());
    r

(* Store loads that happen inside calls the benchmark cannot take
   apart, timed once per store kind through the same public loaders. *)
let probe_stores ds kinds =
  List.iter
    (function
      | Array_db ->
        storage "storage.array_load_s" "Dataset.load_array_db" (fun () ->
            ignore (Sys.opaque_identity (Dataset.load_array_db ds)))
      | Mapreduce ->
        storage "storage.text_load_s" "Dataset.load_hadoop_db" (fun () ->
            ignore (Sys.opaque_identity (Dataset.load_hadoop_db ds)))
      | Sql (backend, _) ->
        let metric, name = store_span backend in
        storage metric name (fun () ->
            ignore (Sys.opaque_identity (Engine_sql.make_db backend ds ~check:ignore)))
      | R | Madlib | Cluster -> ())
    (List.sort_uniq compare kinds)

(* What the wall-clock engines report against what the outside clock
   saw: the gap is in-query work (store loads) the figures never show. *)
let engine_split results =
  List.iter
    (fun r ->
      match Engine.timing_of r.outcome with
      | Some t when wall_clock r.cell.kind ->
        Trace.metric_add "engine.reported_dm_s" t.Engine.dm;
        Trace.metric_add "engine.reported_analytics_s" t.Engine.analytics;
        Trace.metric_add "engine.unreported_s" (r.wall -. Engine.total t)
      | _ -> ())
    results

(* {1 Correctness gate} *)

let classify ~reference r =
  let q = r.cell.query in
  Oracle.classify
    ~tol:(Oracle.tolerance_for ~engine:r.cell.engine.Engine.name q)
    ~p_threshold:Query.default_params.p_threshold ~reference r.outcome

(* The results not yet kept for the gate: an answer a later pass
   reproduces bit for bit adds nothing to check, and keeping every copy
   would grow the heap (and the high-water mark) with the pass count. *)
let fresh seen key =
  let unseen = not (Hashtbl.mem seen key) in
  Hashtbl.replace seen key ();
  unseen

let keep_new seen results =
  List.filter
    (fun r ->
      match Engine.payload_of r.outcome with
      | None -> true
      | Some p -> fresh seen (cell_name r.cell, Compare.fingerprint p))
    results

(* Errors for a batch of results against per-query references; engine
   failures are not errors here (they count in [failed]). *)
let gate ~reference results =
  List.filter_map
    (fun r ->
      match classify ~reference:(reference r.cell.query) r with
      | Oracle.Match _ | Oracle.Degraded_match _ | Oracle.Engine_failed _ -> None
      | c -> Some (Printf.sprintf "%s: %s" (cell_name r.cell) (Oracle.describe c)))
    results

let fingerprint_errors ~untraced ~traced =
  List.concat
    (List.map2
       (fun u t ->
         match (u.cell.kind, Engine.payload_of u.outcome, Engine.payload_of t.outcome) with
         | (R | Sql _), Some a, Some b
           when Compare.fingerprint a <> Compare.fingerprint b ->
           [ Printf.sprintf "%s: recomposed payload differs from Engine.run's" (cell_name u.cell) ]
         | (R | Sql _), _, None -> [ cell_name u.cell ^ ": recomposition failed" ]
         | _ -> [])
       untraced traced)
