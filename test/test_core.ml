open Genbase
module Spec = Gb_datagen.Spec

let tiny = Dataset.generate (Spec.custom ~genes:60 ~patients:160)

let run_ok e q =
  match Engine.run e tiny q ~timeout_s:60. () with
  | Engine.Completed (t, p) ->
    Alcotest.(check bool) "dm >= 0" (t.Engine.dm >= 0.) true;
    Alcotest.(check bool) "analytics >= 0" (t.Engine.analytics >= 0.) true;
    p
  | o ->
    Alcotest.failf "%s on %s: %s" e.Engine.name (Query.name q)
      (Format.asprintf "%a" Engine.pp_outcome o)

let all_engines =
  [
    Engine_r.engine;
    Engine_sql.postgres_r;
    Engine_madlib.engine;
    Engine_sql.colstore_r;
    Engine_sql.colstore_udf;
    Engine_scidb.engine;
    Engine_phi.engine;
    Engine_hadoop.engine;
    Engine_pbdr.engine ~nodes:2;
    Engine_scidb_mn.engine ~nodes:2;
    Engine_colstore_mn.pbdr ~nodes:2;
    Engine_colstore_mn.udf ~nodes:2;
  ]

let supporting q =
  List.filter (fun e -> e.Engine.supports q) all_engines

(* --- cross-engine agreement --- *)

let test_q1_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q1_regression))
      (supporting Query.Q1_regression)
  in
  let ref_intercept, ref_coefs =
    match List.assoc "Vanilla R" results with
    | Engine.Regression r -> (r.intercept, r.coefficients)
    | _ -> Alcotest.fail "bad payload"
  in
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Regression r ->
        Alcotest.(check (float 1e-3)) (name ^ " intercept") ref_intercept
          r.intercept;
        Alcotest.(check int)
          (name ^ " coef count")
          (Array.length ref_coefs)
          (Array.length r.coefficients);
        Array.iteri
          (fun i c ->
            Alcotest.(check (float 1e-3)) (name ^ " coef") c r.coefficients.(i))
          ref_coefs
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q2_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q2_covariance))
      (supporting Query.Q2_covariance)
  in
  let ref_pairs =
    match List.assoc "SciDB" results with
    | Engine.Cov_pairs p -> p.top_pairs
    | _ -> Alcotest.fail "bad payload"
  in
  let key (a, b, _) = (a, b) in
  let ref_keys = List.map key ref_pairs in
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Cov_pairs p ->
        Alcotest.(check int) (name ^ " pair count") (List.length ref_pairs)
          (List.length p.top_pairs);
        (* Same gene pairs survive the threshold (order may vary on ties
           between near-equal covariances, so compare as sets). *)
        let keys = List.map key p.top_pairs in
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "%s has pair (%d,%d)" name (fst k) (snd k))
              true (List.mem k keys))
          ref_keys
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q3_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q3_biclustering))
      (supporting Query.Q3_biclustering)
  in
  let reference =
    match List.assoc "Vanilla R" results with
    | Engine.Biclusters b -> b.clusters
    | _ -> Alcotest.fail "bad payload"
  in
  Alcotest.(check bool) "reference found clusters" (reference <> []) true;
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Biclusters b ->
        Alcotest.(check int) (name ^ " cluster count") (List.length reference)
          (List.length b.clusters);
        List.iter2
          (fun (r1, c1, _) (r2, c2, _) ->
            Alcotest.(check (array int)) (name ^ " rows") r1 r2;
            Alcotest.(check (array int)) (name ^ " cols") c1 c2)
          reference b.clusters
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q4_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q4_svd))
      (supporting Query.Q4_svd)
  in
  let reference =
    match List.assoc "Vanilla R" results with
    | Engine.Singular_values s -> s
    | _ -> Alcotest.fail "bad payload"
  in
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Singular_values s ->
        (* Approximate engines (MADlib power iteration) get a loose bound
           on the top value; exact Lanczos engines must agree closely. *)
        let tol = if name = "Postgres + Madlib" then 0.05 else 1e-5 in
        Alcotest.(check bool)
          (name ^ " top singular value")
          (Float.abs (s.(0) -. reference.(0)) < tol *. reference.(0) +. 1e-9)
          true
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q5_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q5_statistics))
      (supporting Query.Q5_statistics)
  in
  let reference =
    match List.assoc "Vanilla R" results with
    | Engine.Enrichment e -> e
    | _ -> Alcotest.fail "bad payload"
  in
  Alcotest.(check bool) "found enriched terms" (reference <> []) true;
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Enrichment e ->
        Alcotest.(check (list int))
          (name ^ " same terms")
          (List.map fst reference) (List.map fst e)
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q5_planted_terms_found () =
  match run_ok Engine_scidb.engine Query.Q5_statistics with
  | Engine.Enrichment found ->
    let found_ids = List.map fst found in
    Array.iter
      (fun term ->
        Alcotest.(check bool)
          (Printf.sprintf "planted term %d enriched" term)
          true (List.mem term found_ids))
      tiny.Gb_datagen.Generate.planted.Gb_datagen.Generate.enriched_terms
  | _ -> Alcotest.fail "bad payload"

(* --- support matrix --- *)

let test_support_matrix () =
  Alcotest.(check bool) "madlib no biclustering"
    (not (Engine_madlib.engine.Engine.supports Query.Q3_biclustering))
    true;
  Alcotest.(check bool) "hadoop no statistics"
    (not (Engine_hadoop.engine.Engine.supports Query.Q5_statistics))
    true;
  Alcotest.(check bool) "hadoop no biclustering"
    (not (Engine_hadoop.engine.Engine.supports Query.Q3_biclustering))
    true;
  List.iter
    (fun q ->
      Alcotest.(check bool) "scidb supports all"
        (Engine_scidb.engine.Engine.supports q)
        true)
    Query.all

let test_unsupported_outcome () =
  match
    Engine.run Engine_madlib.engine tiny Query.Q3_biclustering ~timeout_s:5. ()
  with
  | Engine.Unsupported -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* --- memory-budget behavior --- *)

let test_r_fails_on_large () =
  let large = Dataset.of_size Spec.Large in
  match Engine.run Engine_r.engine large Query.Q1_regression ~timeout_s:60. () with
  | Engine.Out_of_memory -> ()
  | o ->
    Alcotest.failf "expected out-of-memory, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

let test_r_ok_on_small () =
  let small = Dataset.of_size Spec.Small in
  match Engine.run Engine_r.engine small Query.Q1_regression ~timeout_s:60. () with
  | Engine.Completed _ -> ()
  | o ->
    Alcotest.failf "expected success, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

(* --- timeout behavior --- *)

let test_timeout_reported () =
  match
    Engine.run Engine_hadoop.engine tiny Query.Q4_svd ~timeout_s:0.2 ()
  with
  | Engine.Timed_out -> ()
  | o ->
    Alcotest.failf "expected timeout, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

(* --- export boundary shows up in timing --- *)

let test_export_boundary_costs () =
  let medium = Dataset.of_size Spec.Medium in
  let dm_of e =
    match Engine.run e medium Query.Q1_regression ~timeout_s:120. () with
    | Engine.Completed (t, _) -> t.Engine.dm
    | _ -> Alcotest.fail "run failed"
  in
  let with_export = dm_of Engine_sql.colstore_r in
  let without = dm_of Engine_sql.colstore_udf in
  Alcotest.(check bool) "export costs more DM" (with_export > without) true

(* --- harness --- *)

let test_harness_cells_and_figures () =
  let config =
    { Harness.quick_config with timeout_s = 20. }
  in
  let cells = Harness.single_node_cells config in
  Alcotest.(check int) "7 engines x 6 queries" 42 (List.length cells);
  let figs = Harness.fig1 cells in
  Alcotest.(check int) "five charts" 5 (List.length figs);
  List.iter
    (fun f -> Alcotest.(check bool) "chart nonempty" (String.length f > 100) true)
    figs;
  let fig2 = Harness.fig2 cells in
  Alcotest.(check int) "two charts" 2 (List.length fig2);
  (* Figure 2 omits Postgres rows, per the paper. *)
  List.iter
    (fun chart ->
      Alcotest.(check bool) "no Postgres row"
        (not
           (String.split_on_char '\n' chart
           |> List.exists (fun line ->
                  String.length line > 2
                  && String.sub line 0 2 = "| "
                  && String.length line > 10
                  && String.sub line 2 8 = "Postgres")))
        true)
    fig2

let test_harness_total_seconds () =
  let c =
    {
      Harness.engine = "x";
      nodes = 1;
      query = Query.Q1_regression;
      size = Spec.Small;
      outcome = Engine.Timed_out;
      breakdown = [];
      counters = [];
    }
  in
  Alcotest.(check (option (float 0.))) "timeout is infinite" (Some infinity)
    (Harness.total_seconds c);
  let u = { c with outcome = Engine.Unsupported } in
  Alcotest.(check (option (float 0.))) "unsupported is none" None
    (Harness.total_seconds u)

let test_degenerate_selection_reports_error () =
  (* A disease id outside the generated range selects no patients; the
     covariance query cannot run, and the engine must report an error
     outcome rather than crash. *)
  let params = { Query.default_params with Query.disease_id = 9999 } in
  match
    Engine.run Engine_r.engine tiny Query.Q2_covariance ~params ~timeout_s:10.
      ()
  with
  | Engine.Errored _ -> ()
  | o ->
    Alcotest.failf "expected error outcome, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

let test_errored_counts_as_infinite () =
  let c =
    {
      Harness.engine = "x";
      nodes = 1;
      query = Query.Q2_covariance;
      size = Spec.Small;
      outcome = Engine.Errored "boom";
      breakdown = [];
      counters = [];
    }
  in
  Alcotest.(check (option (float 0.))) "infinite" (Some infinity)
    (Harness.total_seconds c)

let test_parse_budget_mb () =
  let ok s n = Alcotest.(check bool) s true (Harness.parse_budget_mb s = Ok n) in
  let bad s =
    Alcotest.(check bool) s true (Result.is_error (Harness.parse_budget_mb s))
  in
  ok "4096" 4096;
  ok " 1 " 1;
  ok (string_of_int (max_int / (1024 * 1024))) (max_int / (1024 * 1024));
  bad "0";
  bad "-5";
  bad "abc";
  bad "";
  bad "1.5";
  bad (string_of_int ((max_int / (1024 * 1024)) + 1))

let suite =
  [
    ("q1 cross-engine agreement", `Quick, test_q1_agreement);
    ("q2 cross-engine agreement", `Quick, test_q2_agreement);
    ("q3 cross-engine agreement", `Quick, test_q3_agreement);
    ("q4 cross-engine agreement", `Quick, test_q4_agreement);
    ("q5 cross-engine agreement", `Quick, test_q5_agreement);
    ("q5 planted terms found", `Quick, test_q5_planted_terms_found);
    ("support matrix", `Quick, test_support_matrix);
    ("unsupported outcome", `Quick, test_unsupported_outcome);
    ("vanilla R fails on large", `Quick, test_r_fails_on_large);
    ("vanilla R ok on small", `Quick, test_r_ok_on_small);
    ("timeout reported", `Quick, test_timeout_reported);
    ("export boundary costs", `Quick, test_export_boundary_costs);
    ("harness cells and figures", `Slow, test_harness_cells_and_figures);
    ("harness outcome mapping", `Quick, test_harness_total_seconds);
    ("degenerate selection errors", `Quick, test_degenerate_selection_reports_error);
    ("errored counts as infinite", `Quick, test_errored_counts_as_infinite);
    ("memory budget parsing", `Quick, test_parse_budget_mb);
  ]

