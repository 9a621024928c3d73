(* Bit-parallel kernel tests: the batched BFS (Bfs_batch) and everything
   rebuilt on top of it (Stretch certification, all-pairs distances,
   eccentricity/diameter signalling) must be bit-identical to the scalar
   reference paths, on connected and disconnected graphs alike.  The detour
   and support-count kernels, the spectral loops and BFS path extraction
   must agree exactly with the reference copies in oracles.ml. *)

let check = Alcotest.check

(* random graph that is disconnected reasonably often: sparse ER *)
let random_graph seed n p = Generators.erdos_renyi (Prng.create seed) n p

(* random subgraph on the same node set: keep each edge with probability
   [keep] — the generic "spanner pair" for certification properties *)
let random_subgraph seed keep g =
  let rng = Prng.create seed in
  let h = Graph.create (Graph.n g) in
  Graph.iter_edges g (fun u v -> if Prng.bool rng keep then ignore (Graph.add_edge h u v));
  h

(* ---- Bfs_batch vs scalar BFS ---- *)

let test_batch_empty_and_invalid () =
  let g = Csr.snapshot (Generators.cycle 5) in
  check Alcotest.int "no sources, no rows" 0 (Array.length (Bfs_batch.run g [||]));
  let too_many = Array.make (Bfs_batch.width + 1) 0 in
  let expects_invalid name f =
    check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  expects_invalid "width overflow" (fun () -> Bfs_batch.run g too_many);
  expects_invalid "source range" (fun () -> Bfs_batch.run g [| 5 |]);
  expects_invalid "negative source" (fun () -> Bfs_batch.run g [| -1 |])

let test_batch_duplicates () =
  let g = Csr.snapshot (Generators.torus 4 4) in
  let rows = Bfs_batch.run g [| 3; 3; 3 |] in
  let d = Bfs.distances g 3 in
  Array.iter (fun row -> check Alcotest.(array int) "duplicated source rows" d row) rows

let test_batches_cover () =
  check Alcotest.int "empty" 0 (Array.length (Bfs_batch.batches 0));
  List.iter
    (fun n ->
      let bs = Bfs_batch.batches n in
      let seen = Array.concat (Array.to_list bs) in
      check Alcotest.bool "consecutive cover" true (seen = Array.init n (fun i -> i));
      Array.iter
        (fun b -> check Alcotest.bool "batch size" true (Array.length b <= Bfs_batch.width))
        bs)
    [ 1; Bfs_batch.width; Bfs_batch.width + 1; 200 ]

let prop_batch_matches_scalar =
  QCheck.Test.make ~name:"batched BFS rows = scalar distances" ~count:60
    QCheck.(triple small_int (int_range 2 60) (int_range 0 100))
    (fun (seed, n, pct) ->
      (* pct sweeps from almost surely disconnected to dense *)
      let g = Csr.snapshot (random_graph seed n (float_of_int pct /. 100.0 *. 0.2)) in
      let k = 1 + (seed mod min n Bfs_batch.width) in
      let sources = Array.init k (fun i -> (seed + (i * 7)) mod n) in
      let rows = Bfs_batch.run g sources in
      Array.for_all2 (fun row s -> row = Bfs.distances g s) rows sources)

let prop_batch_bounded_matches_scalar =
  QCheck.Test.make ~name:"bounded batched BFS = scalar bounded distances" ~count:60
    QCheck.(triple small_int (int_range 2 60) (int_range 0 5))
    (fun (seed, n, bound) ->
      let g = Csr.snapshot (random_graph seed n 0.08) in
      let k = 1 + (seed mod min n Bfs_batch.width) in
      let sources = Array.init k (fun i -> (seed + (i * 3)) mod n) in
      let rows = Bfs_batch.run ~bound g sources in
      Array.for_all2 (fun row s -> row = Bfs.distances_bounded g s ~bound) rows sources)

let prop_all_distances_matches_scalar =
  QCheck.Test.make ~name:"all_distances(_parallel) = per-source scalar BFS" ~count:30
    QCheck.(pair small_int (int_range 1 80))
    (fun (seed, n) ->
      let g = Csr.snapshot (random_graph seed n 0.1) in
      let want = Array.init n (Bfs.distances g) in
      Bfs.all_distances g = want && Bfs.all_distances_parallel ~domains:3 g = want)

(* ---- Stretch certification vs the per-edge reference ---- *)

let prop_exact_matches_reference =
  QCheck.Test.make ~name:"grouped+batched Stretch.exact = per-edge reference" ~count:50
    QCheck.(triple small_int (int_range 2 50) (int_range 0 100))
    (fun (seed, n, keep_pct) ->
      let g = random_graph (seed + 1) n 0.15 in
      let h = random_subgraph (seed + 2) (float_of_int keep_pct /. 100.0) g in
      let want = Stretch.exact_reference g h in
      Stretch.exact g h = want
      && Stretch.exact_parallel ~domains:4 g h = want
      && Stretch.exact ~snapshot:(Csr.snapshot h) g h = want)

let prop_exact_bounded_matches_reference =
  QCheck.Test.make ~name:"bounded certification = bounded reference" ~count:50
    QCheck.(triple small_int (int_range 2 50) (int_range 0 6))
    (fun (seed, n, bound) ->
      let bound = max 1 bound in
      let g = random_graph (seed + 1) n 0.15 in
      let h = random_subgraph (seed + 5) 0.6 g in
      let want = Stretch.exact_reference ~bound g h in
      Stretch.exact_bounded g h ~bound = want
      && Stretch.exact_grouped ~bound g h = want
      && Stretch.exact_parallel ~domains:3 ~bound g h = want)

let prop_violations_consistent =
  QCheck.Test.make ~name:"violations = removed edges beyond the bound, sorted" ~count:40
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph (seed + 1) n 0.2 in
      let h = random_subgraph (seed + 9) 0.5 g in
      let bound = 3 in
      let hc = Csr.snapshot h in
      let want = ref [] in
      Graph.iter_edges g (fun u v ->
          if not (Graph.mem_edge h u v) then begin
            let d = Bfs.distance hc u v in
            if d < 0 || d > bound then want := (u, v) :: !want
          end);
      Stretch.violations g h ~bound = List.sort compare !want)

let test_stretch_spanner_pair () =
  (* a real construction: certificates identical across all three kernels *)
  let g = Generators.random_regular (Prng.create 5) 80 16 in
  let h = Classic.greedy g ~k:2 in
  let want = Stretch.exact_reference g h in
  check Alcotest.int "exact" want (Stretch.exact g h);
  check Alcotest.int "grouped" want (Stretch.exact_grouped g h);
  check Alcotest.int "parallel" want (Stretch.exact_parallel ~domains:4 g h)

let test_exact_disconnected_early_exit () =
  let g = Generators.cycle 12 in
  let h = Graph.create 12 in
  check Alcotest.int "exact = max_int" max_int (Stretch.exact g h);
  check Alcotest.int "parallel = max_int" max_int (Stretch.exact_parallel ~domains:4 g h);
  check Alcotest.int "reference = max_int" max_int (Stretch.exact_reference g h)

let prop_sampled_pairs_snapshot_invariant =
  QCheck.Test.make ~name:"sampled_pairs draws are snapshot-invariant" ~count:20
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph (seed + 1) n 0.2 in
      let h = random_subgraph (seed + 3) 0.7 g in
      let a = Stretch.sampled_pairs (Prng.create seed) g h ~samples:50 in
      let b =
        Stretch.sampled_pairs
          ~snapshots:(Csr.snapshot g, Csr.snapshot h)
          (Prng.create seed) g h ~samples:50
      in
      a = b)

(* ---- disconnection signalling ---- *)

let test_eccentricity_signals () =
  let c = Csr.snapshot (Generators.path 6) in
  check Alcotest.int "path end" 5 (Bfs.eccentricity c 0);
  let g = Generators.path 6 in
  ignore (Graph.isolate g 5);
  let c = Csr.snapshot g in
  check Alcotest.int "disconnected = max_int" max_int (Bfs.eccentricity c 0)

let test_diameter_signals () =
  let c = Csr.snapshot (Generators.cycle 9) in
  check Alcotest.int "cycle diameter" 4 (Bfs.diameter_sampled c (Prng.create 1) ~samples:20);
  let g = Generators.cycle 9 in
  ignore (Graph.isolate g 0);
  let c = Csr.snapshot g in
  check Alcotest.int "disconnected = max_int" max_int
    (Bfs.diameter_sampled c (Prng.create 1) ~samples:20)

(* ---- Parallel.max_range_saturating ---- *)

let prop_saturating_matches_max =
  QCheck.Test.make ~name:"max_range_saturating = max_range at top saturate" ~count:80
    QCheck.(pair (int_range 0 200) (int_range 1 4))
    (fun (n, domains) ->
      let f i = (i * 37) mod 101 in
      Parallel.max_range_saturating ~domains n f ~saturate:max_int
      = Parallel.max_range ~domains n f)

let test_saturating_early_exit () =
  (* once the saturation value is seen the remaining indices may be skipped,
     but the result must still include it *)
  let hits = Atomic.make 0 in
  let f i =
    Atomic.incr hits;
    if i = 3 then 1000 else i
  in
  let r = Parallel.max_range_saturating ~domains:1 100 f ~saturate:1000 in
  check Alcotest.int "saturated max" 1000 r;
  check Alcotest.bool "skipped the tail" true (Atomic.get hits <= 10);
  check Alcotest.int "empty range" min_int
    (Parallel.max_range_saturating ~domains:2 0 (fun i -> i) ~saturate:5)

(* ---- scratch arenas ---- *)

let test_scratch_resizes () =
  (* growing then shrinking the graph exercises realloc and reuse paths *)
  List.iter
    (fun n ->
      let c = Csr.snapshot (Generators.cycle n) in
      check Alcotest.int "cycle distance" (n / 2) (Bfs.distance c 0 (n / 2)))
    [ 4; 64; 8; 128; 6 ]

(* ---- Detour kernel, allocation-free spectral loops and path extraction
   vs the reference copies in oracles.ml ---- *)

let graph_pair_gen =
  (* (seed, n, density %, keep %): G from sparse to dense, H a random
     subgraph from nearly empty to nearly all of G *)
  QCheck.(quad small_int (int_range 2 36) (int_range 0 100) (int_range 0 100))

let subgraph_of (seed, n, pct, keep) =
  random_graph seed n (float_of_int pct /. 100.0 *. 0.5)
  |> random_subgraph (seed + 1) (float_of_int keep /. 100.0)

(* every ordered pair, row-major (reuses the marks of u) then column-major
   (re-marks on every query) *)
let for_all_pairs n f =
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && not (f u v) then ok := false
    done
  done;
  for v = 0 to n - 1 do
    for u = 0 to n - 1 do
      if u <> v && not (f u v) then ok := false
    done
  done;
  !ok

(* [agree] over all pairs, then around a removal of an edge (a, b) of [h]:
   queries from [a] just before and just after it, so a kernel still holding
   the old N_H(a) would answer wrongly *)
let agrees_under_mutation h agree =
  let from a = List.for_all (fun v -> v = a || agree a v) (List.init (Graph.n h) Fun.id) in
  for_all_pairs (Graph.n h) agree
  &&
  match Graph.edges h with
  | [] -> true
  | (a, b) :: _ ->
      let before = from a in
      ignore (Graph.remove_edge h a b);
      before && from a && for_all_pairs (Graph.n h) agree

let prop_short_detour_matches_oracle =
  QCheck.Test.make ~name:"has_short_detour = 2/3-detour enumeration non-empty" ~count:80
    graph_pair_gen (fun params ->
      let h = subgraph_of params in
      let k = Support.detours h in
      agrees_under_mutation h (fun u v ->
          Support.has_short_detour k ~u ~v = Oracles.has_short_detour h ~u ~v))

let prop_candidates_match_oracle =
  QCheck.Test.make ~name:"detour candidate lists = enumeration oracle" ~count:60
    graph_pair_gen (fun params ->
      let h = subgraph_of params in
      let kernels = List.map (fun cap -> (cap, Support.detours ~cap h)) [ 0; 1; 3; 64 ] in
      let agree u v =
        List.for_all
          (fun (cap, k) ->
            Support.detour_candidates k ~u ~v
            = Array.of_list (Oracles.detour_candidates h ~u ~v ~cap))
          kernels
      in
      let mutated = agrees_under_mutation h agree in
      (* a committed H iterates its rows in a different order *)
      ignore (Csr.snapshot h);
      mutated && for_all_pairs (Graph.n h) agree)

(* route the same matchings through a DC-spanner's router and the oracle
   router from equal generator states: paths (or a disconnection error) and
   the generators' final states must agree.  The oracle routes over a copy
   of H taken first: a BFS fallback commits H's delta log, which reorders
   its neighbor scans for the pairs after it. *)
let routers_agree g (dc : Dc.t) ~cap seed =
  let rng = Prng.create seed in
  let route f = try Some (f ()) with Invalid_argument _ -> None in
  List.for_all
    (fun _ ->
      let pairs = Matching.random_maximal rng g in
      let r1 = Prng.copy rng and r2 = Prng.copy rng in
      let h = Graph.copy dc.Dc.spanner in
      let got = route (fun () -> dc.Dc.route_matching r1 pairs) in
      let want = route (fun () -> Oracles.route_matching h ~cap r2 pairs) in
      ignore (Prng.int64 rng);
      got = want && Prng.int64 r1 = Prng.int64 r2)
    [ 1; 2; 3 ]

let prop_regular_router_matches_oracle =
  QCheck.Test.make ~name:"Regular_dc router = oracle router" ~count:30
    QCheck.(triple small_int bool (int_range 1 64))
    (fun (seed, repair, cap) ->
      let rng = Prng.create seed in
      let n = 40 + (2 * (seed mod 10)) in
      let g = Generators.random_regular rng n (8 + (seed mod 7)) in
      let t = Regular_dc.build ~repair rng g in
      routers_agree g (Regular_dc.to_dc ~detour_cap:cap t g) ~cap seed)

let prop_irregular_router_matches_oracle =
  QCheck.Test.make ~name:"Irregular_dc router = oracle router" ~count:30
    QCheck.(triple small_int bool (int_range 1 64))
    (fun (seed, repair, cap) ->
      let rng = Prng.create seed in
      let g = random_graph seed 50 0.3 in
      let t = Irregular_dc.build ~repair rng g in
      routers_agree g (Irregular_dc.to_dc ~detour_cap:cap t g) ~cap seed)

(* ---- support-count kernel vs the bit-matrix oracle ---- *)

let neighbor_rows g = Array.init (Graph.n g) (Graph.neighbors g)

(* the kernel's and the oracle's reinsertion agree on the count and on every
   neighbor list of the spanner (hence on its delta-log order), and the
   kernel leaves G's own neighbor order alone *)
let reinsert_agrees g sampled ~a ~b =
  let before = neighbor_rows g in
  let h, r = Support.reinsert g sampled ~a ~b in
  let rows_unchanged = neighbor_rows g = before in
  let h', r' = Oracles.reinsert g sampled ~a ~b in
  r = r' && neighbor_rows h = neighbor_rows h' && rows_unchanged

(* G stored three ways: an uncommitted delta log built by add_edge in a
   shuffled order, a committed base, or a committed base with deletions and
   additions on top *)
let stored seed mode g =
  let rng = Prng.create seed in
  let edges = Graph.edge_array g in
  Prng.shuffle rng edges;
  let h = Graph.create (Graph.n g) in
  let cut = if mode = 2 then Array.length edges / 5 else 0 in
  Array.iteri (fun i (u, v) -> if i >= cut then ignore (Graph.add_edge h u v)) edges;
  if mode >= 1 then ignore (Graph.snapshot h);
  if mode = 2 then begin
    Array.iteri (fun i (u, v) -> if i < cut then ignore (Graph.add_edge h u v)) edges;
    (* remove a few committed edges, then put half of them back *)
    Array.iteri
      (fun i (u, v) -> if i >= cut && i < 2 * cut then ignore (Graph.remove_edge h u v))
      edges;
    Array.iteri
      (fun i (u, v) -> if i >= cut && i < 2 * cut && i mod 2 = 0 then ignore (Graph.add_edge h u v))
      edges
  end;
  h

let support_family seed family =
  let rng = Prng.create seed in
  match family with
  | 0 -> Generators.random_regular rng (2 * (12 + (seed mod 14))) (4 + (seed mod 9))
  | 1 -> random_graph seed (10 + (seed mod 40)) (0.1 +. (float_of_int (seed mod 5) *. 0.1))
  | 2 -> Generators.torus (3 + (seed mod 5)) (3 + (seed mod 6))
  | _ -> Generators.complete (2 + (seed mod 12))

let prop_reinsert_matches_oracle =
  QCheck.Test.make ~name:"reinsert = bit-matrix oracle (families, storage, a/b edges)"
    ~count:120
    QCheck.(
      pair (triple small_int (int_range 0 3) (int_range 0 2))
        (triple (int_range (-2) 6) (int_range (-2) 8) (int_range 0 100)))
    (fun ((seed, family, mode), (a, b, keep)) ->
      let g = stored seed mode (support_family seed family) in
      let sampled = random_subgraph (seed + 1) (float_of_int keep /. 100.0) g in
      (* a constant b, and a per-edge one that also takes values <= 0 *)
      reinsert_agrees g sampled ~a ~b:(fun _ _ -> b)
      && reinsert_agrees g sampled ~a ~b:(fun u v ->
             (min (Graph.degree g u) (Graph.degree g v) / 4) + b - 2 + ((u + v) mod 3)))

let prop_pipelines_match_oracle =
  QCheck.Test.make ~name:"Regular_dc / Irregular_dc reinsertion = oracle" ~count:40
    QCheck.(triple small_int (int_range 0 2) (int_range 0 2))
    (fun (seed, thresholds, mode) ->
      let rng = Prng.create seed in
      let n = 2 * (15 + (seed mod 10)) in
      let g = stored seed mode (Generators.random_regular rng n (6 + (seed mod 9))) in
      let thresholds =
        match thresholds with
        | 0 -> Regular_dc.Scaled
        | 1 -> Regular_dc.Paper
        | _ -> Regular_dc.Explicit (seed mod 4, 1 + (seed mod 5))
      in
      let t = Regular_dc.build ~thresholds ~repair:false (Prng.create seed) g in
      let h, r =
        Oracles.reinsert g t.Regular_dc.sampled ~a:t.Regular_dc.support_a
          ~b:(fun _ _ -> t.Regular_dc.support_b)
      in
      (* Irregular_dc's thresholds: a = max 2 ⌈ln n⌉, b = max 1 (min degree / 4) *)
      let e = random_graph seed n 0.3 in
      let ti = Irregular_dc.build ~repair:false (Prng.create seed) e in
      let a = max 2 (int_of_float (ceil (log (float_of_int n)))) in
      let hi, ri =
        Oracles.reinsert e ti.Irregular_dc.sampled ~a ~b:(fun u v ->
            max 1 (min (Graph.degree e u) (Graph.degree e v) / 4))
      in
      r = t.Regular_dc.reinserted
      && neighbor_rows h = neighbor_rows t.Regular_dc.spanner
      && ri = ti.Irregular_dc.reinserted
      && neighbor_rows hi = neighbor_rows ti.Irregular_dc.spanner)

(* The kernel is O(n + m) words; the bit-matrix it replaced was n²/63 words,
   1.6·10⁸ at this size.  Words allocated = minor + major - promoted (a
   promoted word is counted in both); [Gc.quick_stat] folds in the current
   domain's counts only at a minor collection, hence the [Gc.minor] before
   each read.  Each reinserted edge also costs
   [Graph.add_edge]'s delta log, about 25 words at this size: a hash-table
   entry, two list cells with tuples and a share of the commits. *)
let test_reinsert_memory () =
  let n = 100_000 in
  let g = Generators.expander (Prng.create 3) n 16 in
  let sampled = random_subgraph 4 0.25 g in
  let bound = 20 * (n + Graph.m g) in
  let measure ~a ~b =
    let words () =
      Gc.minor ();
      let s = Gc.quick_stat () in
      s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
    in
    let before = words () in
    let _, reinserted = Support.reinsert g sampled ~a ~b:(fun _ _ -> b) in
    let used = int_of_float (words () -. before) in
    Printf.printf "a=%d b=%d: %d words, %d reinserted\n" a b used reinserted;
    (used, reinserted)
  in
  (* a = 0, b = 1: the router v makes every base 1-supported, so nothing is
     reinserted and only the kernel allocates *)
  let kernel, none = measure ~a:0 ~b:1 in
  check Alcotest.int "all supported" 0 none;
  if kernel >= bound then Alcotest.failf "kernel allocated %d words >= %d" kernel bound;
  (* Algorithm 1's scaled thresholds for Δ = 16: a = ⌈ln n⌉, b = Δ/4 *)
  let words, reinserted = measure ~a:12 ~b:4 in
  check Alcotest.bool "reinserts" true (reinserted > 0);
  let bound = bound + (30 * reinserted) in
  if words >= bound then Alcotest.failf "reinsert allocated %d words >= %d" words bound

let bits = Array.map Int64.bits_of_float

let prop_matvec_bit_identical =
  QCheck.Test.make ~name:"Spectral.matvec bit-identical to closure matvec" ~count:60
    QCheck.(triple small_int (int_range 1 60) (int_range 0 100))
    (fun (seed, n, pct) ->
      let c = Csr.snapshot (random_graph seed n (float_of_int pct /. 100.0 *. 0.5)) in
      let rng = Prng.create seed in
      let x = Array.init n (fun _ -> (Prng.float rng -. 0.5) *. 1e3) in
      let got = Array.make n nan and want = Array.make n nan in
      Spectral.matvec c x got;
      Oracles.matvec c x want;
      bits got = bits want)

let test_lambda_bit_identical () =
  List.iter
    (fun (name, g) ->
      let c = Csr.snapshot g in
      check Alcotest.int64 name
        (Int64.bits_of_float (Oracles.lambda ~iterations:80 c))
        (Int64.bits_of_float (Spectral.lambda ~iterations:80 c)))
    [
      ("regular", Generators.random_regular (Prng.create 3) 200 12);
      ("torus", Generators.torus 9 11);
      ("sparse erdos", random_graph 4 120 0.03);
    ]

let prop_paths_match_oracle =
  QCheck.Test.make ~name:"shortest_path / random_shortest_path = reference copy" ~count:60
    QCheck.(triple small_int (int_range 1 40) (int_range 0 100))
    (fun (seed, n, pct) ->
      (* pct near 0: mostly disconnected pairs *)
      let c = Csr.snapshot (random_graph seed n (float_of_int pct /. 100.0 *. 0.3)) in
      let r1 = Prng.create seed and r2 = Prng.create seed in
      for_all_pairs n (fun u v ->
          let same =
            Bfs.shortest_path c u v = Oracles.shortest_path c u v
            && Bfs.random_shortest_path c r1 u v = Oracles.random_shortest_path c r2 u v
          in
          (* interleave another scratch-arena query between path extractions *)
          ignore (Bfs.distance c v u);
          same)
      && Prng.int64 r1 = Prng.int64 r2)

(* ---- unsafe-site oracles ----

   The kernels of dcs_lint's unsafe-audit allowlist (bfs_batch.ml among
   them) may use Array.unsafe_*; every site carries a (* SAFETY: ... *)
   argument.  These properties back those arguments with an independent,
   fully bounds-checked oracle written against the plain Graph API — on
   random graphs including empty, singleton and disconnected inputs.  The
   bit-matrix reference oracle of the support tests ([Oracles.Bitmat]) is
   held to the same neighbor-set oracle. *)

module Bitmat = Oracles.Bitmat

(* queue-based BFS over Graph adjacency: no CSR, no bit-packing, no unsafe *)
let oracle_distances g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let oracle_common_count g u z =
  let acc = ref 0 in
  Graph.iter_neighbors g u (fun w -> if Graph.mem_edge g z w then incr acc);
  !acc

let prop_batch_matches_oracle =
  QCheck.Test.make ~name:"batched BFS rows = bounds-checked oracle" ~count:60
    QCheck.(triple small_int (int_range 1 40) (int_range 0 100))
    (fun (seed, n, pct) ->
      (* pct near 0 gives empty-edge/disconnected graphs, near 100 dense *)
      let g = random_graph seed n (float_of_int pct /. 100.0 *. 0.25) in
      let c = Csr.snapshot g in
      let k = 1 + (seed mod min n Bfs_batch.width) in
      let sources = Array.init k (fun i -> (seed + (i * 11)) mod n) in
      let rows = Bfs_batch.run c sources in
      Array.for_all2 (fun row s -> row = oracle_distances g s) rows sources)

let prop_bitmat_matches_oracle =
  QCheck.Test.make ~name:"Bitmat = bounds-checked neighbor-set oracle" ~count:60
    QCheck.(triple small_int (int_range 1 40) (int_range 0 100))
    (fun (seed, n, pct) ->
      let g = random_graph seed n (float_of_int pct /. 100.0 *. 0.25) in
      let bm = Bitmat.of_graph g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for z = 0 to n - 1 do
          let oracle = oracle_common_count g u z in
          if Bitmat.common_count bm u z <> oracle then ok := false;
          if Bitmat.mem bm u z <> Graph.mem_edge g u z then ok := false;
          (* at_least must agree with the exact count at, below and above
             the threshold (and for the k <= 0 shortcut) *)
          List.iter
            (fun k ->
              if Bitmat.common_count_at_least bm u z k <> (oracle >= k) then ok := false)
            [ -1; 0; oracle; oracle + 1 ]
        done
      done;
      !ok)

let test_unsafe_degenerate_inputs () =
  (* empty graph: no sources to run, nothing to intersect *)
  let empty = Csr.snapshot (Graph.create 0) in
  check Alcotest.int "empty graph, no rows" 0 (Array.length (Bfs_batch.run empty [||]));
  let bm0 = Bitmat.of_graph (Graph.create 0) in
  ignore bm0;
  (* singleton: one node, no edges *)
  let one = Graph.create 1 in
  let rows = Bfs_batch.run (Csr.snapshot one) [| 0 |] in
  check Alcotest.(array (array int)) "singleton distances" [| [| 0 |] |] rows;
  let bm1 = Bitmat.of_graph one in
  check Alcotest.int "singleton common" 0 (Bitmat.common_count bm1 0 0);
  check Alcotest.bool "singleton mem" false (Bitmat.mem bm1 0 0);
  (* disconnected: two components, cross distances signal -1 *)
  let g = Generators.two_cliques_matching 8 in
  let h = Graph.create (Graph.n g) in
  Graph.iter_edges g (fun u v -> if u < 4 && v < 4 then ignore (Graph.add_edge h u v));
  let rows = Bfs_batch.run (Csr.snapshot h) [| 0; 5 |] in
  check Alcotest.(array int) "cross component -1" (oracle_distances h 0) rows.(0);
  check Alcotest.(array int) "isolated source" (oracle_distances h 5) rows.(1)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "kernels"
    [
      ( "bfs-batch",
        Alcotest.test_case "empty/invalid" `Quick test_batch_empty_and_invalid
        :: Alcotest.test_case "duplicate sources" `Quick test_batch_duplicates
        :: Alcotest.test_case "batches cover" `Quick test_batches_cover
        :: q
             [
               prop_batch_matches_scalar;
               prop_batch_bounded_matches_scalar;
               prop_all_distances_matches_scalar;
             ] );
      ( "stretch",
        Alcotest.test_case "spanner pair" `Quick test_stretch_spanner_pair
        :: Alcotest.test_case "disconnected" `Quick test_exact_disconnected_early_exit
        :: q
             [
               prop_exact_matches_reference;
               prop_exact_bounded_matches_reference;
               prop_violations_consistent;
               prop_sampled_pairs_snapshot_invariant;
             ] );
      ( "signalling",
        [
          Alcotest.test_case "eccentricity" `Quick test_eccentricity_signals;
          Alcotest.test_case "diameter" `Quick test_diameter_signals;
        ] );
      ( "parallel",
        Alcotest.test_case "early exit" `Quick test_saturating_early_exit
        :: q [ prop_saturating_matches_max ] );
      ("scratch", [ Alcotest.test_case "resizes" `Quick test_scratch_resizes ]);
      ( "detour-kernel",
        q
          [
            prop_short_detour_matches_oracle;
            prop_candidates_match_oracle;
            prop_regular_router_matches_oracle;
            prop_irregular_router_matches_oracle;
          ] );
      ( "spectral",
        Alcotest.test_case "lambda bit-identical" `Quick test_lambda_bit_identical
        :: q [ prop_matvec_bit_identical ] );
      ("paths", q [ prop_paths_match_oracle ]);
      ( "support-kernel",
        Alcotest.test_case "O(n + m) memory" `Slow test_reinsert_memory
        :: q [ prop_reinsert_matches_oracle; prop_pipelines_match_oracle ] );
      ( "unsafe-oracles",
        Alcotest.test_case "degenerate inputs" `Quick test_unsafe_degenerate_inputs
        :: q [ prop_batch_matches_oracle; prop_bitmat_matches_oracle ] );
    ]
