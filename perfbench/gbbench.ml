(* The repository benchmark.

     gbbench --workload NAME --seed N --seconds S --trace 0|1
     gbbench --self-test BENCHMARK.json

   One run sets up its workload from the seed (several times, reporting
   the median set-up time), measures whole passes over the workload's
   fixed operation list until [--seconds] have elapsed, then checks every
   answer it kept. The last line of standard output is one JSON object:
   the end-to-end metrics untraced, the per-layer metrics with
   [--trace 1]. A wrong answer prints [correct: false] and exits 1. *)

module Spec = Gb_datagen.Spec

type better = Lower | Higher

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("wall_s", "s", Lower);
    ("peak_rss_mb", "MiB", Lower);
    ("completed_frac", "ratio", Higher);
    ("goodput_per_s", "1/s", Higher);
  ]

let per_layer =
  let s name = (name, "s", Lower) and count name = (name, "count", Lower) in
  [
    s "op.p50_s";
    s "op.tail_s";
    s "datagen.generate_s";
    s "storage.row_load_s";
    s "storage.col_load_s";
    s "storage.array_load_s";
    s "storage.text_load_s";
    count "storage.loads";
    s "relational.dm_s";
    count "relational.cells_pivoted";
    s "export.recast_s";
    ("export.csv_bytes", "bytes", Lower);
    s "engine.reported_dm_s";
    s "engine.reported_analytics_s";
    s "engine.unreported_s";
    s "madlib.analytics_s";
    s "mapreduce.wall_s";
    s "mapreduce.modelled_s";
    s "kernel.regression_s";
    s "kernel.covariance_s";
    s "kernel.top_fraction_s";
    s "kernel.bicluster_s";
    s "kernel.svd_s";
    s "kernel.enrichment_s";
    s "kernel.overlap_s";
    ("kernel.gemm_flops", "flop", Lower);
    count "par.domains";
    ("par.kernel_speedup", "ratio", Higher);
    s "cluster.wall_s";
    s "cluster.modelled_s";
    s "serve.submit_s";
    s "serve.queue_wait_p50_s";
    s "serve.queue_wait_tail_s";
    s "serve.exec_p50_s";
    s "serve.exec_tail_s";
    count "serve.shed";
    count "serve.expired";
    s "telemetry.scrape_s";
    count "telemetry.series";
    s "stream.apply_s";
  ]
  @ List.map
      (fun q -> s ("stream.refresh_s." ^ Genbase.Query.name q))
      Genbase.Query.all
  @ [
      count "stream.events";
      count "stream.stale_refreshes";
      ("stream.useful_refresh_frac", "ratio", Higher);
      ("gc.alloc_mb", "MiB", Lower);
      count "gc.major_collections";
      s "host.reference_s";
      s "host.raw_wall_s";
      s "trace.wall_s";
      s "trace.overhead_s";
    ]

type workload = { name : string; make : Spec.t option -> int -> Workload.env }

let workloads =
  [
    { name = "grid-small"; make = (fun spec seed -> Grid.grid_small ?spec ~seed ()) };
    {
      name = "analytics-medium";
      make = (fun spec seed -> Grid.analytics_medium ?spec ~seed ());
    };
    { name = "serve-mixed"; make = (fun spec seed -> Serve_mixed.make ?spec ~seed ()) };
    { name = "stream-ingest"; make = (fun spec seed -> Stream_ingest.make ?spec ~seed ()) };
  ]

type result = {
  errors : string list;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;
}

let setups = 7

let run_workload ?spec ~seconds ~trace w seed =
  Trace.reset ();
  (* Every timed pass runs at one domain: on the two shared cores a
     second domain made the passes no faster, and a stall of either core
     holds up the pool. *)
  Gb_par.Pool.set_jobs 1;
  (* Reference steps (see [Measure.reference_step]) after each set-up
     and after each pass, kept apart to scale each. *)
  let setup_refs = ref [] and pass_refs = ref [] in
  let setup () =
    let r = Measure.time (fun () -> w.make spec seed) in
    setup_refs := Measure.reference_step () :: !setup_refs;
    r
  in
  (* Set up several times; keep the last, tear the others down. *)
  let rec set_up n acc =
    let env, dt = setup () in
    if n = 1 then (env, dt :: acc)
    else begin
      env.Workload.teardown ();
      set_up (n - 1) (dt :: acc)
    end
  in
  let env, setup_times = set_up (if trace then 1 else setups) [] in
  let finish passes metrics notes =
    let errors =
      env.Workload.gate ()
      @ List.map (fun n -> "tiling broken in span " ^ n) (Trace.tiling_errors ())
    in
    env.Workload.teardown ();
    let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
    {
      errors;
      attempted = sum (fun p -> p.Workload.attempted);
      failed = sum (fun p -> p.Workload.failed);
      metrics;
      notes;
    }
  in
  (* Whole passes, each from a compacted heap (outside its timing) and
     followed by reference steps for a tenth of its wall time (at least
     one), for as long as another pass of the last one's length still
     fits in [seconds]; at least one. A fixed pass count per run keeps
     the heap high-water mark comparable between runs. *)
  let t0 = Unix.gettimeofday () in
  let rec reference_for budget =
    let dt = Measure.reference_step () in
    pass_refs := dt :: !pass_refs;
    if budget -. dt > 0. then reference_for (budget -. dt)
  in
  let rec go acc =
    Gc.compact ();
    let p = env.Workload.pass () in
    reference_for (p.Workload.wall /. 10.);
    let acc = p :: acc in
    if Unix.gettimeofday () -. t0 +. p.Workload.wall <= seconds then go acc
    else List.rev acc
  in
  let gc0 = Measure.gc_now () in
  let passes = go [] in
  let gc = Measure.gc_delta gc0 (Measure.gc_now ()) in
  let sum f = List.fold_left (fun a p -> a +. f p) 0. passes in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  (* The mean pass, in raw seconds and at reference speed: the run's
     total integrates the host's speed phases it met, where the median
     of a few passes jumps from one phase to the other. *)
  let wall = sum (fun p -> p.Workload.wall) /. float_of_int (List.length passes) in
  let reference = mean !pass_refs in
  let at_reference_speed = Measure.reference_s /. reference in
  let lat = List.concat_map (fun p -> p.Workload.latencies) passes in
  let tail = Measure.tail lat in
  let summary =
    Printf.sprintf
      "passes %d (%s s), mean %.6f s; reference step %.6f s over %d, %.6f s over %d after set-ups; op.tail_s is p%d over %d operations"
      (List.length passes)
      (String.concat ", " (List.map (fun p -> Printf.sprintf "%.3f" p.Workload.wall) passes))
      wall reference (List.length !pass_refs) (mean !setup_refs) (List.length !setup_refs)
      tail.Measure.pct tail.Measure.samples
  in
  if not trace then begin
    let attempted = sum (fun p -> float_of_int p.Workload.attempted) in
    let failed = sum (fun p -> float_of_int p.Workload.failed) in
    finish passes
      [
        ( "setup_s",
          Measure.median setup_times *. Measure.reference_s /. mean !setup_refs,
          "s" );
        ("wall_s", wall *. at_reference_speed, "s");
        ("peak_rss_mb", Measure.peak_rss_mb (), "MiB");
        ("completed_frac", 1. -. (failed /. attempted), "ratio");
        ( "goodput_per_s",
          sum (fun p -> float_of_int p.Workload.good)
          /. (sum (fun p -> p.Workload.wall) *. at_reference_speed),
          "1/s" );
      ]
      [ summary ]
  end
  else begin
    let per_pass x = x /. float_of_int (List.length passes) in
    Trace.metric_set "op.p50_s" (Measure.percentile (Measure.sorted lat) 50.);
    Trace.metric_set "op.tail_s" tail.Measure.value;
    Trace.metric_set "gc.alloc_mb" (per_pass gc.Measure.alloc_mb);
    Trace.metric_set "gc.major_collections" (per_pass (float_of_int gc.Measure.major_collections));
    Gc.compact ();
    Trace.enabled := true;
    let traced =
      Fun.protect ~finally:(fun () -> Trace.enabled := false) env.Workload.traced_pass
    in
    let overhead = traced.Workload.wall -. wall in
    Trace.metric_set "par.domains" (float_of_int (Gb_par.Pool.jobs ()));
    Trace.metric_set "host.reference_s" reference;
    Trace.metric_set "host.raw_wall_s" wall;
    Trace.metric_set "trace.wall_s" traced.Workload.wall;
    Trace.metric_set "trace.overhead_s" overhead;
    let metrics = List.map (fun (n, u, _) -> (n, Trace.metric n, u)) per_layer in
    finish (passes @ [ traced ]) metrics
      [
        summary;
        Printf.sprintf "tracing overhead %.6f s (traced pass %.6f s, mean untraced pass %.6f s)"
          overhead traced.Workload.wall wall;
      ]
  end

let json_of r =
  let metric (n, v, u) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.errors = []) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let write_trace name seed =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Printf.sprintf "%s/trace-%s-%d.json" dir name seed in
  Trace.write file;
  file

let bench ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  Printf.printf "workload %s, seed %d: dataset seed %Ld, ingest-log seed %Ld, request-mix seed %Ld\n%!"
    w.name seed (Measure.derive seed 1) (Measure.derive seed 2) (Measure.derive seed 3);
  let r = run_workload ~seconds ~trace w seed in
  if trace then Printf.printf "spans written to %s\n" (write_trace w.name seed);
  List.iter print_endline r.notes;
  List.iter (fun e -> Printf.printf "WRONG ANSWER: %s\n" e) r.errors;
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "metric %s is not finite\n" n;
        exit 3
      end)
    r.metrics;
  print_endline (json_of r);
  exit (if r.errors = [] then 0 else 1)

(* {1 Self-test} *)

(* Every payload nudged just past any tolerance profile. *)
let corrupt (p : Genbase.Engine.payload) : Genbase.Engine.payload =
  match p with
  | Regression r -> Regression { r with intercept = r.intercept +. 1. +. Float.abs r.intercept }
  | Cov_pairs c ->
    Cov_pairs
      { c with top_pairs = List.map (fun (i, j, v) -> (i, j, (2. *. v) +. 1.)) c.top_pairs }
  | Biclusters { clusters } ->
    Biclusters { clusters = List.map (fun (r, c, msr) -> (r, c, (2. *. msr) +. 1.)) clusters }
  | Singular_values s -> Singular_values (Array.map (fun v -> (2. *. v) +. 1.) s)
  | Enrichment e -> Enrichment ((-1, 1e-12) :: e)
  | Overlaps o -> Overlaps { o with pairs = (-1, -1, 1) :: o.pairs }

let self_test spec_file =
  let fails = ref [] in
  let check ok msg = if not ok then fails := msg :: !fails in
  let declared =
    let ic = open_in_bin spec_file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Gb_obs.Json.parse text with
    | Error e -> failwith (spec_file ^ ": " ^ e)
    | Ok j ->
      fun key ->
        Option.value ~default:[] (Option.bind (Gb_obs.Json.member key j) Gb_obs.Json.to_arr)
        |> List.map (fun m ->
               let field k = Option.bind (Gb_obs.Json.member k m) Gb_obs.Json.to_str in
               ( Option.value ~default:"?" (field "name"),
                 Option.value ~default:"?" (field "unit"),
                 Option.value ~default:"?" (field "better") ))
        |> List.sort compare
  in
  let direction = function Lower -> "lower" | Higher -> "higher" in
  let declared_as table =
    List.sort compare (List.map (fun (n, u, b) -> (n, u, direction b)) table)
  in
  let names table = List.sort compare (List.map (fun (n, u, _) -> (n, u)) table) in
  check (declared "end_to_end" = declared_as end_to_end) "end_to_end metrics differ from BENCHMARK.json";
  check (declared "per_layer" = declared_as per_layer) "per_layer metrics differ from BENCHMARK.json";
  let tiny = Spec.custom ~genes:40 ~patients:110 in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run_workload ~spec:tiny ~seconds:0. ~trace w 7 in
          let label = Printf.sprintf "%s (trace %b)" w.name trace in
          check (r.errors = []) (label ^ ": " ^ String.concat "; " r.errors);
          check (r.failed = 0 && r.attempted > 0) (label ^ ": operations failed");
          check
            (List.sort compare (List.map (fun (n, _, u) -> (n, u)) r.metrics)
            = names (if trace then per_layer else end_to_end))
            (label ^ ": emitted metrics or units differ from the declared ones");
          check
            (List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics)
            (label ^ ": non-finite metric");
          if trace then begin
            check (Trace.tilings () <> []) (label ^ ": no tiled spans");
            check (Trace.tiling_errors () = []) (label ^ ": tiling identity broken")
          end)
        [ false; true ])
    workloads;
  (* The gate must trip on a wrong answer for every query family. *)
  let ds = Genbase.Dataset.generate ~seed:7L tiny in
  let reference = Grid.references ds in
  List.iter
    (fun q ->
      let good = reference q in
      let bad =
        match good with
        | Genbase.Engine.Completed (t, p) -> Genbase.Engine.Completed (t, corrupt p)
        | o -> o
      in
      let cell = { Cells.engine = Genbase.Engine_r.engine; kind = Cells.R; query = q } in
      let result outcome = { Cells.cell; outcome; wall = 0. } in
      check (Cells.gate ~reference [ result good ] = []) ("gate rejects a correct " ^ Genbase.Query.name q);
      check (Cells.gate ~reference [ result bad ] <> []) ("gate accepts a corrupted " ^ Genbase.Query.name q))
    Genbase.Query.all;
  match !fails with
  | [] ->
    print_endline "self-test: ok";
    exit 0
  | fs ->
    List.iter (fun f -> Printf.printf "self-test FAILED: %s\n" f) (List.rev fs);
    exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1) in
  let self = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S seconds of measured passes (>= 0)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced (1) run");
      ("--self-test", Arg.Set_string self, "FILE self-test against BENCHMARK.json");
    ]
  in
  let usage = "gbbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self <> "" then self_test !self
  else if !workload = "" || !seed < 0 || !seconds < 0. || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end
  else bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
