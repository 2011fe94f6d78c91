(* The benchmark's own tracer: spans recorded around calls into the
   program's public API, kept in memory and written out at exit, plus
   the per-layer metric accumulators the traced run reports. Nothing
   here reaches inside the program. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  layer : string;
  trace : int;  (** request id shared by one request's spans; -1 if none *)
  start_ns : int;
  end_ns : int;
  attrs : (string * string) list;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let layer_metrics : (string, float) Hashtbl.t = Hashtbl.create 64

let metric_add name v =
  let old = Option.value ~default:0. (Hashtbl.find_opt layer_metrics name) in
  Hashtbl.replace layer_metrics name (old +. v)

let metric_set name v = Hashtbl.replace layer_metrics name v
let metric name = Option.value ~default:0. (Hashtbl.find_opt layer_metrics name)

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  Hashtbl.reset layer_metrics

let emit ?(parent = -1) ?(trace = -1) ?(attrs = []) ~layer ~start_ns ~end_ns
    name =
  let id = !next_id in
  incr next_id;
  recorded :=
    { id; parent; name; layer; trace; start_ns; end_ns; attrs } :: !recorded;
  id

(* Run [f] inside a span (a child of the innermost open span) when
   tracing is on, adding its duration to the per-layer [metric]; a plain
   call otherwise. *)
let with_ ?trace ?(attrs = fun _ -> []) ?metric ~layer name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = !next_id in
    incr next_id;
    stack := id :: !stack;
    let start_ns = Measure.now_ns () in
    let r = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
    let end_ns = Measure.now_ns () in
    recorded :=
      {
        id;
        parent;
        name;
        layer;
        trace = Option.value ~default:(-1) trace;
        start_ns;
        end_ns;
        attrs = attrs r;
      }
      :: !recorded;
    Option.iter
      (fun m -> metric_add m (Measure.seconds_of_ns (end_ns - start_ns)))
      metric;
    r
  end

let spans () = List.rev !recorded
let duration s = s.end_ns - s.start_ns

let children () =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s)
    !recorded;
  tbl

(* Per parent span: each layer's self time (its children's durations
   summed by layer) and the [other] remainder, which together tile the
   parent exactly. *)
type tiling = {
  span : span;
  by_layer : (string * int) list;
  other_ns : int;
}

let tilings () =
  let kids = children () in
  List.filter_map
    (fun s ->
      match Hashtbl.find_all kids s.id with
      | [] -> None
      | cs ->
        let by_layer =
          List.fold_left
            (fun acc c ->
              let old = Option.value ~default:0 (List.assoc_opt c.layer acc) in
              (c.layer, old + duration c) :: List.remove_assoc c.layer acc)
            [] cs
          |> List.sort compare
        in
        let covered = List.fold_left (fun a (_, d) -> a + d) 0 by_layer in
        Some { span = s; by_layer; other_ns = duration s - covered })
    (spans ())

(* Children must lie inside their parent and not overlap one another,
   so that [other] is a real (non-negative) remainder. *)
let tiling_errors () =
  let kids = children () in
  List.filter_map
    (fun t ->
      let cs =
        Hashtbl.find_all kids t.span.id
        |> List.sort (fun a b -> compare a.start_ns b.start_ns)
      in
      let rec disjoint = function
        | a :: (b :: _ as rest) -> a.end_ns <= b.start_ns && disjoint rest
        | _ -> true
      in
      let inside c = c.start_ns >= t.span.start_ns && c.end_ns <= t.span.end_ns in
      if List.for_all inside cs && disjoint cs && t.other_ns >= 0 then None
      else Some t.span.name)
    (tilings ())

let write file =
  let oc = open_out file in
  let tl = Hashtbl.create 256 in
  List.iter (fun t -> Hashtbl.replace tl t.span.id t) (tilings ());
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      let str v = Gb_obs.Json.JStr v and num v = Gb_obs.Json.Num (float_of_int v) in
      let tiling =
        match Hashtbl.find_opt tl s.id with
        | None -> []
        | Some t ->
          [
            ("other_ns", num t.other_ns);
            ( "layer_self_ns",
              Gb_obs.Json.Obj (List.map (fun (l, d) -> (l, num d)) t.by_layer) );
          ]
      in
      let obj =
        Gb_obs.Json.Obj
          ([
             ("id", num s.id);
             ("parent", num s.parent);
             ("name", str s.name);
             ("layer", str s.layer);
             ("trace", num s.trace);
             ("start_ns", num s.start_ns);
             ("end_ns", num s.end_ns);
             ("attrs", Gb_obs.Json.Obj (List.map (fun (k, v) -> (k, str v)) s.attrs));
           ]
          @ tiling)
      in
      if i > 0 then output_string oc ",\n";
      output_string oc (Gb_obs.Json.to_string obj))
    (spans ());
  output_string oc "\n]\n";
  close_out oc
