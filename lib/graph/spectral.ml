(* The vector kernels are plain loops over unboxed float arrays: no closure
   captures an accumulator, so nothing is boxed per arc or per entry.  Every
   sum runs in index order (rows ascending, as [Csr.iter_neighbors] visits
   them), so the results are bit-identical to the closure formulation that
   test/oracles.ml keeps. *)
let matvec (g : Csr.t) src dst =
  let xadj = g.Csr.xadj and adjncy = g.Csr.adjncy in
  for v = 0 to g.Csr.n - 1 do
    let acc = ref 0.0 in
    for i = xadj.{v} to xadj.{v + 1} - 1 do
      acc := !acc +. src.(adjncy.{i})
    done;
    dst.(v) <- !acc
  done

(* Remove the component along the all-ones direction (the Perron vector of a
   regular graph), so power iteration converges to max(|λ₂|, |λₙ|). *)
let deflate_ones vec =
  let n = Array.length vec in
  if n > 0 then begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. vec.(i)
    done;
    let mean = !sum /. float_of_int n in
    for i = 0 to n - 1 do
      vec.(i) <- vec.(i) -. mean
    done
  end

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm vec = sqrt (dot vec vec)

(* [dst.(i) <- src.(i) /. d] *)
let div_into src d dst =
  for i = 0 to Array.length src - 1 do
    dst.(i) <- src.(i) /. d
  done

let normalize vec =
  let len = norm vec in
  if len > 0.0 then div_into vec len vec

let lambda ?(iterations = 300) ?(seed = 0x5eed) g =
  let n = Csr.n g in
  if n <= 1 then 0.0
  else begin
    let rng = Prng.create seed in
    let v = Array.init n (fun _ -> Prng.float rng -. 0.5) in
    deflate_ones v;
    normalize v;
    let w = Array.make n 0.0 in
    let estimate = ref 0.0 in
    for _ = 1 to iterations do
      matvec g v w;
      deflate_ones w;
      estimate := norm w;
      Array.blit w 0 v 0 n;
      normalize v
    done;
    !estimate
  end

let expansion_ratio ?iterations ?seed g =
  let delta = ref 0 in
  for v = 0 to Csr.n g - 1 do
    delta := max !delta (Csr.degree g v)
  done;
  if !delta = 0 then 0.0 else lambda ?iterations ?seed g /. float_of_int !delta

let is_expander ?(threshold = 0.5) g = expansion_ratio g <= threshold

(* ---- Lanczos with full reorthogonalization on the deflated operator ---- *)

(* Number of eigenvalues of the symmetric tridiagonal (alpha, beta) smaller
   than x, by the Sturm sequence / LDL^T sign count. *)
let sturm_count alpha beta x =
  let m = Array.length alpha in
  let count = ref 0 in
  let d = ref 1.0 in
  for i = 0 to m - 1 do
    let b2 = if i = 0 then 0.0 else beta.(i - 1) *. beta.(i - 1) in
    let nd = alpha.(i) -. x -. (b2 /. !d) in
    let nd = if Float.abs nd < 1e-300 then -1e-300 else nd in
    if nd < 0.0 then incr count;
    d := nd
  done;
  !count

let tridiag_extreme alpha beta =
  let m = Array.length alpha in
  if m = 0 then 0.0
  else begin
    (* Gershgorin bounds *)
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to m - 1 do
      let r =
        (if i > 0 then Float.abs beta.(i - 1) else 0.0)
        +. if i < m - 1 then Float.abs beta.(i) else 0.0
      in
      lo := min !lo (alpha.(i) -. r);
      hi := max !hi (alpha.(i) +. r)
    done;
    let bisect target_count =
      (* smallest x such that (number of eigenvalues < x) >= target_count *)
      let a = ref !lo and b = ref (!hi +. 1e-9) in
      for _ = 1 to 100 do
        let mid = 0.5 *. (!a +. !b) in
        if sturm_count alpha beta mid >= target_count then b := mid else a := mid
      done;
      0.5 *. (!a +. !b)
    in
    let smallest = bisect 1 in
    let largest = bisect m in
    max (Float.abs smallest) (Float.abs largest)
  end

let lambda_lanczos ?(iterations = 60) ?(seed = 0x5eed) g =
  let n = Csr.n g in
  if n <= 1 then 0.0
  else begin
    let m = min iterations (max 1 (n - 1)) in
    let rng = Prng.create seed in
    let v = Array.init n (fun _ -> Prng.float rng -. 0.5) in
    deflate_ones v;
    normalize v;
    let basis = Array.make m [||] in
    let alpha = Array.make m 0.0 in
    let beta = Array.make (max 0 (m - 1)) 0.0 in
    let w = Array.make n 0.0 in
    let steps = ref 0 in
    (try
       for j = 0 to m - 1 do
         basis.(j) <- Array.copy v;
         matvec g v w;
         deflate_ones w;
         alpha.(j) <- dot w v;
         (* full reorthogonalization against the stored basis *)
         for i = 0 to j do
           let c = dot w basis.(i) and b = basis.(i) in
           for idx = 0 to n - 1 do
             w.(idx) <- w.(idx) -. (c *. b.(idx))
           done
         done;
         incr steps;
         if j < m - 1 then begin
           let b = norm w in
           if b < 1e-10 then raise Exit;
           beta.(j) <- b;
           div_into w b v
         end
       done
     with Exit -> ());
    let k = !steps in
    tridiag_extreme (Array.sub alpha 0 k) (Array.sub beta 0 (max 0 (k - 1)))
  end
