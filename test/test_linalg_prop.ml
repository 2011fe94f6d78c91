(* Property-based checks on the linear-algebra kernels: QR orthogonality,
   SVD reconstruction, parallel kernels against sequential ones, the
   streaming moment sketches, and Q2's top-fraction selection against the
   full stable sort it replaced. *)

module Mat = Gb_linalg.Mat
module Blas = Gb_linalg.Blas
module Qr = Gb_linalg.Qr
module Svd = Gb_linalg.Svd
module Covariance = Gb_linalg.Covariance
module Prng = Gb_util.Prng

let seed_gen = QCheck.Gen.(map Int64.of_int (int_range 1 1_000_000))

let arb_tall =
  (* rows >= cols, as Householder QR requires *)
  QCheck.make
    ~print:(fun (r, c, s) -> Printf.sprintf "%dx%d seed %Ld" r c s)
    QCheck.Gen.(
      int_range 1 12 >>= fun c ->
      int_range c 30 >>= fun r ->
      seed_gen >|= fun s -> (r, c, s))

let random_mat rows cols seed = Mat.random (Prng.create seed) rows cols

let prop_qr_orthogonal =
  QCheck.Test.make ~name:"QR: Q has orthonormal columns" ~count:100 arb_tall
    (fun (rows, cols, seed) ->
      let q = Qr.q (Qr.factorize (random_mat rows cols seed)) in
      let qtq = Blas.ata q in
      let d = Mat.max_abs_diff qtq (Mat.identity cols) in
      if d < 1e-10 then true
      else QCheck.Test.fail_reportf "max |QᵀQ - I| = %g" d)

let prop_qr_reproduces =
  QCheck.Test.make ~name:"QR: Q·R reproduces the input" ~count:100 arb_tall
    (fun (rows, cols, seed) ->
      let m = random_mat rows cols seed in
      let f = Qr.factorize m in
      let d = Mat.max_abs_diff (Blas.gemm (Qr.q f) (Qr.r f)) m in
      if d < 1e-10 then true else QCheck.Test.fail_reportf "max |QR - M| = %g" d)

let prop_svd_reconstructs =
  QCheck.Test.make ~name:"SVD: full-rank reconstruction" ~count:60 arb_tall
    (fun (rows, cols, seed) ->
      let m = random_mat rows cols seed in
      let k = min rows cols in
      let svd = Svd.top_k ~rng:(Prng.create 1L) m k in
      let err = Svd.reconstruction_error m svd in
      let budget = 1e-6 *. Float.max 1. (Mat.frobenius m) in
      if err < budget then true
      else QCheck.Test.fail_reportf "‖M - USVᵀ‖ = %g (budget %g)" err budget)

let prop_svd_descending =
  QCheck.Test.make ~name:"SVD: singular values descending, non-negative"
    ~count:100 arb_tall (fun (rows, cols, seed) ->
      let svd = Svd.top_k ~rng:(Prng.create 1L) (random_mat rows cols seed) (min rows cols) in
      let ok = ref (Array.for_all (fun s -> s >= 0.) svd.Svd.s) in
      Array.iteri
        (fun i s -> if i > 0 && s > svd.Svd.s.(i - 1) +. 1e-12 then ok := false)
        svd.Svd.s;
      !ok)


(* --- parallel kernels vs sequential, via the conformance comparators ---

   The Domain-pool kernels partition over output elements, so any domain
   count must reproduce the sequential bits exactly; the conformance
   comparator check (the cross-engine tolerance machinery) is the
   coarser contract the benchmark itself relies on, asserted on top. *)

let with_jobs jobs f =
  Gb_par.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Gb_par.Pool.reset_jobs ()) f

let arb_cov =
  (* Covariance.matrix needs at least two rows. *)
  QCheck.make
    ~print:(fun (r, c, s) -> Printf.sprintf "%dx%d seed %Ld" r c s)
    QCheck.Gen.(
      int_range 2 10 >>= fun c ->
      int_range (max 2 c) 24 >>= fun r ->
      seed_gen >|= fun s -> (r, c, s))

let prop_parallel_gemm_bitwise =
  QCheck.Test.make ~name:"parallel GEMM bitwise-matches sequential" ~count:40
    arb_cov (fun (rows, cols, seed) ->
      let a = random_mat rows cols seed in
      let b = random_mat cols rows (Int64.add seed 1L) in
      (* One multiply per jobs level, fingerprinted bit-exactly. *)
      let product jobs =
        with_jobs jobs (fun () ->
            let c = Blas.gemm a b in
            let flat = Array.init (rows * rows) (fun i ->
                Mat.get c (i / rows) (i mod rows))
            in
            Gb_conformance.Compare.fingerprint
              (Genbase.Engine.Singular_values flat))
      in
      let reference = product 1 in
      if product 1 <> reference then
        QCheck.Test.fail_report "1-domain GEMM not deterministic"
      else
        match List.find_opt (fun j -> product j <> reference) [ 2; 3; 4 ] with
        | Some j ->
          QCheck.Test.fail_reportf "GEMM at %d domains diverges bitwise" j
        | None -> true)

let prop_parallel_covariance_conforms =
  QCheck.Test.make ~name:"parallel covariance conforms to sequential"
    ~count:40 arb_cov (fun (rows, cols, seed) ->
      let m = random_mat rows cols seed in
      let gene_ids = Array.init cols Fun.id in
      let payload jobs =
        with_jobs jobs (fun () ->
            Genbase.Qcommon.covariance_of ~gene_ids ~top_fraction:0.5 m)
      in
      let reference = payload 1 in
      (* 1 domain is bitwise stable run-to-run. *)
      if
        Gb_conformance.Compare.fingerprint (payload 1)
        <> Gb_conformance.Compare.fingerprint reference
      then QCheck.Test.fail_report "1-domain covariance not bit-stable"
      else
        let bad =
          List.filter_map
            (fun jobs ->
              let v =
                Gb_conformance.Compare.compare_payload
                  ~tol:Gb_conformance.Compare.approximate ~reference
                  (payload jobs)
              in
              if Gb_conformance.Compare.equivalent v then None
              else Some (jobs, Gb_conformance.Compare.divergence v))
            [ 2; 3; 4 ]
        in
        match bad with
        | [] -> true
        | (jobs, d) :: _ ->
          QCheck.Test.fail_reportf
            "covariance at %d domains diverges by %g under approximate tol"
            jobs d)

(* Mergeable-moment laws behind the streaming covariance maintainer:
   sketching arbitrary batch splits of an arbitrary row permutation and
   merging must agree with the one-shot sketch to 1e-9, and downdating
   (remove_row) must be the inverse of add_row to the same tolerance. *)
module Moments = Gb_linalg.Moments

let arb_sketch =
  QCheck.make
    ~print:(fun (r, c, s) -> Printf.sprintf "%dx%d seed %Ld" r c s)
    QCheck.Gen.(
      int_range 1 8 >>= fun c ->
      int_range 2 40 >>= fun r ->
      seed_gen >|= fun s -> (r, c, s))

let max_abs a b =
  let d = ref 0. in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

let prop_moments_merge_covariance =
  QCheck.Test.make
    ~name:"merged batched-moment covariance == one-shot (splits + permutations)"
    ~count:100 arb_sketch (fun (rows, cols, seed) ->
      let rng = Prng.create seed in
      let m = Mat.random rng rows cols in
      let oneshot = Moments.of_matrix m in
      let perm = Array.init rows Fun.id in
      Prng.shuffle rng perm;
      let merged = ref (Moments.create cols) in
      let batch = ref (Moments.create cols) in
      Array.iter
        (fun i ->
          Moments.add_row !batch (Mat.row m i);
          if Prng.bool rng then begin
            merged := Moments.merge !merged !batch;
            batch := Moments.create cols
          end)
        perm;
      let merged = Moments.merge !merged !batch in
      let d_mean = max_abs (Moments.means merged) (Moments.means oneshot) in
      let d_cov =
        Mat.max_abs_diff (Moments.covariance merged) (Moments.covariance oneshot)
      in
      if d_mean < 1e-9 && d_cov < 1e-9 then true
      else QCheck.Test.fail_reportf "mean %g cov %g" d_mean d_cov)

let prop_moments_downdate =
  QCheck.Test.make ~name:"remove_row inverts add_row" ~count:100 arb_sketch
    (fun (rows, cols, seed) ->
      let rng = Prng.create seed in
      let m = Mat.random rng (rows + 2) cols in
      (* keep at least 2 rows so covariance stays defined *)
      let removed = Array.init rows (fun _ -> Prng.bool rng) in
      let kept =
        Array.of_list
          (List.filteri (fun i _ -> i >= rows || not removed.(i))
             (List.init (rows + 2) Fun.id))
      in
      let sk = Moments.of_matrix m in
      Array.iteri
        (fun i r -> if r then Moments.remove_row sk (Mat.row m i))
        removed;
      let direct = Moments.of_matrix (Mat.sub_rows m kept) in
      let d = Mat.max_abs_diff (Moments.covariance sk) (Moments.covariance direct) in
      if d < 1e-9 then true else QCheck.Test.fail_reportf "cov diff %g" d)

(* The original Q2 shaping, kept here as the oracle: every upper-triangle
   pair consed in generation order (so the list is latest-first), then a
   stable sort by |v| descending, then the first [keep]. *)
let top_fraction_by_sort c q =
  let n = c.Mat.cols in
  let all = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      all := (i, j, Mat.unsafe_get c i j) :: !all
    done
  done;
  let sorted =
    List.stable_sort
      (fun (_, _, a) (_, _, b) -> Float.compare (Float.abs b) (Float.abs a))
      !all
  in
  let keep = max 1 (int_of_float (ceil (q *. float_of_int (List.length sorted)))) in
  List.filteri (fun i _ -> i < keep) sorted

(* Square matrices of 0-40 columns whose entries are mostly small integers
   (so |v| ties are everywhere), with NaN, -0.0 and 0.0 mixed in. *)
let arb_top_fraction =
  let entry =
    QCheck.Gen.(
      frequency
        [
          (8, int_range (-3) 3 >|= float_of_int);
          (1, return Float.nan);
          (1, return (-0.));
          (1, return 0.);
          (1, float_range (-10.) 10.);
        ])
  in
  let q =
    QCheck.Gen.(
      frequency
        [
          (1, return 1e-6);
          (3, float_bound_exclusive 1. >|= fun x -> 1. -. x);
          (1, return 1.);
        ])
  in
  QCheck.make
    ~print:(fun (n, cells, q) ->
      Printf.sprintf "n=%d q=%h [%s]" n q
        (String.concat "; "
           (Array.to_list (Array.map (Printf.sprintf "%h") cells))))
    QCheck.Gen.(
      int_range 0 40 >>= fun n ->
      array_size (return (n * n)) entry >>= fun cells ->
      q >|= fun q -> (n, cells, q))

let prop_top_fraction_matches_sort =
  QCheck.Test.make ~name:"top_fraction equals the stable full sort, bitwise"
    ~count:300 arb_top_fraction (fun (n, cells, q) ->
      let c = Mat.init n n (fun i j -> cells.((i * n) + j)) in
      let bits = List.map (fun (i, j, v) -> (i, j, Int64.bits_of_float v)) in
      let expected = bits (top_fraction_by_sort c q)
      and got = bits (Covariance.top_fraction c q) in
      if got = expected then true
      else
        QCheck.Test.fail_reportf
          "%d pairs expected, %d returned; first difference at %d"
          (List.length expected) (List.length got)
          (let rec first i = function
             | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else i
             | _ -> i
           in
           first 0 (expected, got)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_qr_orthogonal;
      prop_qr_reproduces;
      prop_svd_reconstructs;
      prop_svd_descending;
      prop_parallel_gemm_bitwise;
      prop_parallel_covariance_conforms;
      prop_moments_merge_covariance;
      prop_moments_downdate;
      prop_top_fraction_matches_sort;
    ]
