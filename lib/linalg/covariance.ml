let scale_factor rows =
  if rows < 2 then invalid_arg "Covariance: need at least two rows";
  1. /. float_of_int (rows - 1)

let matrix m =
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"covariance.matrix"
    ~attrs:[ ("rows", Gb_obs.Obs.Int m.Mat.rows); ("cols", Gb_obs.Obs.Int m.Mat.cols) ]
  @@ fun () ->
  let centered = Mat.center_cols m in
  Mat.scale (scale_factor m.Mat.rows) (Blas.ata centered)

let matrix_naive m =
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"covariance.matrix_naive"
    ~attrs:[ ("rows", Gb_obs.Obs.Int m.Mat.rows); ("cols", Gb_obs.Obs.Int m.Mat.cols) ]
  @@ fun () ->
  let centered = Mat.center_cols m in
  let t = Mat.transpose centered in
  Mat.scale (scale_factor m.Mat.rows) (Blas.gemm_naive t centered)

(* [select b m] permutes [b] so that [b.(m)] holds the value of rank [m] in
   ascending [Float.compare] order, and returns it. Quickselect with a
   median-of-three pivot and a three-way partition, so runs of equal
   values (common in the small-integer and zero covariances) cost one pass. *)
let select b m =
  let get = Float.Array.unsafe_get and set = Float.Array.unsafe_set in
  let swap i j =
    let t = get b i in
    set b i (get b j);
    set b j t
  in
  let median3 x y z =
    if Float.compare x y <= 0 then
      if Float.compare y z <= 0 then y else if Float.compare x z <= 0 then z else x
    else if Float.compare x z <= 0 then x
    else if Float.compare y z <= 0 then z
    else y
  in
  let rec go lo hi =
    if lo >= hi then get b m
    else begin
      let pivot = median3 (get b lo) (get b ((lo + hi) / 2)) (get b hi) in
      (* b[lo..lt-1] < pivot, b[lt..gt] = pivot, b[gt+1..hi] > pivot *)
      let lt = ref lo and i = ref lo and gt = ref hi in
      while !i <= !gt do
        let c = Float.compare (get b !i) pivot in
        if c < 0 then begin
          swap !lt !i;
          incr lt;
          incr i
        end
        else if c > 0 then begin
          swap !i !gt;
          decr gt
        end
        else incr i
      done;
      if m < !lt then go lo (!lt - 1)
      else if m > !gt then go (!gt + 1) hi
      else pivot
    end
  in
  go 0 (Float.Array.length b - 1)

let top_fraction c q =
  if Float.is_nan q || q <= 0. || q > 1. then
    invalid_arg (Printf.sprintf "Covariance.top_fraction: q = %g not in (0, 1]" q);
  let n = c.Mat.cols in
  if n < 2 then []
  else begin
    let d = c.Mat.data in
    let mag k = Float.abs (Bigarray.Array1.unsafe_get d k) in
    let pairs = n * (n - 1) / 2 in
    let keep = min pairs (max 1 (int_of_float (ceil (q *. float_of_int pairs)))) in
    (* |c_ij| of the upper triangle in generation order (i, then j) *)
    let b = Float.Array.create pairs in
    let g = ref 0 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        Float.Array.unsafe_set b !g (mag ((i * n) + j));
        incr g
      done
    done;
    let t = select b (pairs - keep) in
    (* Kept pairs as flat indices [i*n + j], whose order is generation
       order: everything strictly above [t], then the ties latest-first. *)
    let kept = Array.make keep 0 and filled = ref 0 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let k = (i * n) + j in
        if Float.compare (mag k) t > 0 then begin
          kept.(!filled) <- k;
          incr filled
        end
      done
    done;
    let i = ref (n - 2) in
    while !filled < keep do
      let j = ref (n - 1) in
      while !filled < keep && !j > !i do
        let k = (!i * n) + !j in
        if Float.compare (mag k) t = 0 then begin
          kept.(!filled) <- k;
          incr filled
        end;
        decr j
      done;
      decr i
    done;
    (* Sort positions into [kept] against a compact copy of the keys: the
       kept pairs are scattered over [c], so reading [c] in the comparison
       would miss the cache. *)
    let keys = Float.Array.init keep (fun p -> mag kept.(p)) in
    let key = Float.Array.unsafe_get keys in
    let order = Array.init keep Fun.id in
    Array.stable_sort
      (fun p1 p2 ->
        match Float.compare (key p2) (key p1) with
        | 0 -> Int.compare (Array.unsafe_get kept p2) (Array.unsafe_get kept p1)
        | o -> o)
      order;
    let out = ref [] in
    for r = keep - 1 downto 0 do
      let k = kept.(order.(r)) in
      out := (k / n, k mod n, Bigarray.Array1.unsafe_get d k) :: !out
    done;
    !out
  end
