(* Clocks, order statistics and process counters shared by every
   workload. Span times are integer nanoseconds so that a cell's layer
   self times plus its [other] remainder add up to the cell exactly. *)

let epoch = Unix.gettimeofday ()
let now_ns () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e9)
let seconds_of_ns ns = float_of_int ns /. 1e9

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile ([p] in (0, 100]) of a non-empty sample. *)
let percentile a p =
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match xs with
  | [] -> invalid_arg "Measure.median: empty sample"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {1 Host speed}

   On a shared host the speed one process sees swings by up to 1.7x in
   phases of seconds to minutes, and whatever runs in a slow phase is
   slow: the program and the benchmark's own code alike. A run therefore
   times a fixed reference step of the benchmark's own code between its
   timed parts and reports end-to-end times at reference speed, scaled by
   [reference_s] / (mean reference step). The step calls nothing in the
   program and does the kinds of work the program does, allocation
   included: a float matrix product, a string-keyed hash table, a list
   sort, and printing and parsing floats. (A step that allocated nothing
   was tried and did not follow the program's slow phases.) It shares the
   collector with the program, so its collections mark the program's
   heap. *)

(* The reference step's time at reference speed: about its time in the
   fast phases of the 2-core host the benchmark was built on. *)
let reference_s = 0.05

let reference_step () =
  let t0 = Unix.gettimeofday () in
  let n = 160 in
  let a = Array.init n (fun i -> Array.init n (fun j -> float_of_int ((i * j) mod 7))) in
  let c = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    let ci = c.(i) and ai = a.(i) in
    for k = 0 to n - 1 do
      let aik = ai.(k) and ak = a.(k) in
      for j = 0 to n - 1 do ci.(j) <- ci.(j) +. (aik *. ak.(j)) done
    done
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 30_000 do Hashtbl.replace h (string_of_int (i * 7919)) (float_of_int i) done;
  let l = List.sort Float.compare (List.init 60_000 (fun i -> float_of_int (i * 7919 mod 10007))) in
  let b = Buffer.create 1024 in
  List.iteri (fun i x -> if i < 20_000 then Printf.bprintf b "%.6f," x) l;
  let parsed =
    List.filter_map float_of_string_opt (String.split_on_char ',' (Buffer.contents b))
  in
  ignore (Sys.opaque_identity (c, Hashtbl.length h, List.length parsed));
  Unix.gettimeofday () -. t0

type tail = { pct : int; value : float; samples : int }

(* The highest whole percentile that still has at least ten samples
   beyond it; below 20 samples no percentile above the median has, and
   the median is reported instead. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.tail: empty sample";
  let beyond p =
    n - int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n))
  in
  let rec pick p = if p <= 50 || beyond p >= 10 then p else pick (p - 1) in
  let pct = pick 99 in
  { pct; value = percentile a (float_of_int pct); samples = n }

(* Process high-water resident set ([VmHWM]), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type gc = { alloc_mb : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    alloc_mb =
      (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
      *. float_of_int (Sys.word_size / 8)
      /. 1048576.;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    alloc_mb = b.alloc_mb -. a.alloc_mb;
    major_collections = b.major_collections - a.major_collections;
  }

(* splitmix64: independent sub-seeds from the one workload seed. *)
let derive seed salt =
  let open Int64 in
  let z = add (of_int seed) (mul (of_int salt) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)
