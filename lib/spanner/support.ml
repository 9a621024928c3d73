(* ---- Support-count kernel ----
   For a source s, [cnt.(z) = base + |N(s) ∩ N(z)|] for the z the 2-hop walk
   from s reached, where [base = epoch lsl 32] (counts stay below 2³²); the
   entries of older epochs stay below [base], so bumping the epoch resets
   the array for free.  The walk runs over a flat copy of G read through
   [Graph.iter_neighbors]: G is never committed, because a commit reorders
   its rows, hence [repair]'s [iter_edges] walk, the order repair adds edges
   to H and the router's [Prng] draws. *)

type counts = {
  xadj : int array;
  adj : int array;  (* N(v) at [xadj.(v) .. xadj.(v+1) - 1], in iter_neighbors order *)
  cnt : int array;
  mutable base : int;
  mutable src : int;
}

let counts g =
  let n = Graph.n g in
  let xadj = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v) + Graph.degree g v
  done;
  let adj = Array.make xadj.(n) 0 in
  for v = 0 to n - 1 do
    ignore (Graph.fold_neighbors g v (fun i z -> adj.(i) <- z; i + 1) xadj.(v))
  done;
  { xadj; adj; cnt = Array.make n 0; base = 0; src = -1 }

let fill c s =
  if c.src <> s then begin
    c.base <- c.base + (1 lsl 32);
    c.src <- s;
    let { xadj; adj; cnt; base; _ } = c in
    for i = xadj.(s) to xadj.(s + 1) - 1 do
      let x = adj.(i) in
      for j = xadj.(x) to xadj.(x + 1) - 1 do
        let z = adj.(j) in
        let k = cnt.(z) in
        cnt.(z) <- (if k < base then base else k) + 1
      done
    done
  end

(* #a-supported extensions of (u, v) toward v — z ∈ N(v) \ {u} with
   |N(u) ∩ N(z)| ≥ a + 1 — stopping at [limit] *)
let extensions c ~u ~v ~a ~limit =
  if limit <= 0 then 0
  else begin
    fill c u;
    let { xadj; adj; cnt; base; _ } = c and need = a + 1 in
    let hits = ref 0 and i = ref xadj.(v) in
    while !hits < limit && !i < xadj.(v + 1) do
      let z = adj.(!i) in
      if z <> u && (if cnt.(z) >= base then cnt.(z) - base else 0) >= need then incr hits;
      incr i
    done;
    !hits
  end

(* [f u v] for every edge of G not in [skip] that is (a, b u v)-supported in
   neither direction, in [Graph.iter_edges g] order (the rows of [c] with
   [u < v]).  Pass 1 tests each edge toward v, grouped by u; pass 2 re-tests
   the rejects toward u, grouped by v with a counting sort.  So each node's
   counts are filled at most twice. *)
let unsupported c ~skip ~a ~b f =
  let { xadj; adj; _ } = c and n = Array.length c.xadj - 1 in
  let mark = Array.make n (-1) and pu = Array.make (Array.length adj / 2) 0 in
  let pv = Array.copy pu and pb = Array.copy pu and np = ref 0 in
  for u = 0 to n - 1 do
    Option.iter (fun s -> Graph.iter_neighbors s u (fun v -> mark.(v) <- u)) skip;
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let v = adj.(i) in
      if u < v && mark.(v) <> u then begin
        let bv = b u v in
        if extensions c ~u ~v ~a ~limit:bv < bv then begin
          pu.(!np) <- u;
          pv.(!np) <- v;
          pb.(!np) <- bv;
          incr np
        end
      end
    done
  done;
  let start = Array.make (n + 1) 0 in
  for k = 0 to !np - 1 do
    start.(pv.(k) + 1) <- start.(pv.(k) + 1) + 1
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let by_v = Array.make !np 0 in
  for k = 0 to !np - 1 do
    by_v.(start.(pv.(k))) <- k;
    start.(pv.(k)) <- start.(pv.(k)) + 1
  done;
  Array.iter
    (fun k ->
      if extensions c ~u:pv.(k) ~v:pu.(k) ~a ~limit:pb.(k) >= pb.(k) then pb.(k) <- 0)
    by_v;
  for k = 0 to !np - 1 do
    if pb.(k) > 0 then f pu.(k) pv.(k)
  done

let m_reinserted = Metrics.counter "spanner.reinserted"
let m_repaired = Metrics.counter "spanner.repaired"

let reinsert g sampled ~a ~b =
  Trace.with_span ~name:"spanner.sparsify" (fun () ->
      let spanner = Graph.copy sampled and reinserted = ref 0 in
      unsupported (counts g) ~skip:(Some sampled) ~a ~b (fun u v ->
          ignore (Graph.add_edge spanner u v);
          incr reinserted);
      Metrics.add m_reinserted !reinserted;
      (spanner, !reinserted))

(* ---- Marker-array detour kernel ----
   [stamp.(x) = epoch] iff [x ∈ N_H(src)]: a membership test is one array read.
   Scans follow [Graph.iter_neighbors], because the router's [Prng] draw
   indexes the candidate list in that order. *)

type marks = { stamp : int array; mutable epoch : int; mutable src : int; mutable version : int }

type detours = {
  h : Graph.t;
  mu : marks;
  mv : marks;
  twos : int array;  (* routers x of u–x–v, in discovery order *)
  threes : int array;  (* (x, z) of u–x–z–v at [2i], [2i+1], in discovery order *)
  mutable n2 : int;
  mutable n3 : int;
}

let detours ?(cap = 64) h =
  let marks () = { stamp = Array.make (Graph.n h) 0; epoch = 0; src = -1; version = -1 } in
  let twos = Array.make (max 1 cap) 0 and threes = Array.make (2 * max 1 cap) 0 in
  { h; mu = marks (); mv = marks (); twos; threes; n2 = 0; n3 = 0 }

(* mark N_H(s) unless [m] holds it already; returns the epoch *)
let mark h m s =
  if m.src <> s || m.version <> Graph.version h then begin
    m.epoch <- m.epoch + 1;
    m.src <- s;
    m.version <- Graph.version h;
    let stamp = m.stamp and ep = m.epoch in
    Graph.iter_neighbors h s (fun x -> stamp.(x) <- ep)
  end;
  m.epoch

let adjacent k ~u ~v =
  let ep = mark k.h k.mu u in
  k.mu.stamp.(v) = ep

let has_short_detour k ~u ~v =
  let h = k.h and near = k.mu.stamp and ep = mark k.h k.mu u in
  let hit x = if x <> v && near.(x) = ep then raise_notrace Exit in
  try
    Graph.iter_neighbors h v (fun z ->
        if z <> u then if near.(z) = ep then raise_notrace Exit else Graph.iter_neighbors h z hit);
    false
  with Exit -> true

(* up to [cap] detours of each kind; the first hit is kept even if [cap < 1] *)
let collect k ~u ~v =
  let h = k.h and cap = Array.length k.twos in
  let near_u = k.mu.stamp and eu = mark h k.mu u in
  let near_v = k.mv.stamp and ev = mark h k.mv v in
  k.n2 <- 0;
  k.n3 <- 0;
  (try
     Graph.iter_neighbors h u (fun x ->
         if near_v.(x) = ev then begin
           k.twos.(k.n2) <- x;
           k.n2 <- k.n2 + 1;
           if k.n2 = cap then raise_notrace Exit
         end)
   with Exit -> ());
  try
    Graph.iter_neighbors h v (fun z ->
        if z <> u then
          Graph.iter_neighbors h z (fun x ->
              if x <> v && near_u.(x) = eu then begin
                k.threes.(2 * k.n3) <- x;
                k.threes.((2 * k.n3) + 1) <- z;
                k.n3 <- k.n3 + 1;
                if k.n3 = cap then raise_notrace Exit
              end))
  with Exit -> ()

(* the [i]-th candidate: 2-detours first, each kind latest-found first *)
let candidate k ~u ~v i =
  if i < k.n2 then [| u; k.twos.(k.n2 - 1 - i); v |]
  else
    let j = k.n3 - 1 - (i - k.n2) in
    [| u; k.threes.(2 * j); k.threes.((2 * j) + 1); v |]

let detour_candidates k ~u ~v =
  collect k ~u ~v;
  Array.init (k.n2 + k.n3) (candidate k ~u ~v)

let repair g h =
  Trace.with_span ~name:"spanner.repair" (fun () ->
      let k = detours h and missing = ref [] in
      Graph.iter_edges g (fun u v ->
          if not (adjacent k ~u ~v || has_short_detour k ~u ~v) then missing := (u, v) :: !missing);
      List.iter (fun (u, v) -> ignore (Graph.add_edge h u v)) !missing;
      let repaired = List.length !missing in
      Metrics.add m_repaired repaired;
      repaired)

let route_matching k rng pairs =
  let csr = lazy (Csr.snapshot k.h) in
  Array.map
    (fun (u, v) ->
      if adjacent k ~u ~v then [| u; v |]
      else begin
        collect k ~u ~v;
        let c = k.n2 + k.n3 in
        if c > 0 then candidate k ~u ~v (Prng.int rng c)
        else
          match Bfs.shortest_path (Lazy.force csr) u v with
          | Some p -> p
          | None -> invalid_arg "Support.route_matching: spanner disconnected for pair"
      end)
    pairs

type census = {
  edges_total : int;
  edges_supported : int;
  extension_counts : int array;
  detour_counts : int array;
}

let census ?(sample = 200) ?(cap = 1000) rng g ~a ~b =
  let c = counts g and edges = Graph.edge_array g in
  let total = Array.length edges and unsupported_count = ref 0 in
  unsupported c ~skip:None ~a ~b:(fun _ _ -> b) (fun _ _ -> incr unsupported_count);
  let picked =
    if total <= sample then edges
    else Array.map (fun i -> edges.(i)) (Prng.sample_distinct rng ~n:total ~k:sample)
  in
  let limit = max 1 cap in
  let extension_counts =
    Array.map
      (fun (u, v) -> max (extensions c ~u ~v ~a ~limit) (extensions c ~u:v ~v:u ~a ~limit))
      picked
  in
  let k = detours ~cap g in
  let detour_counts = Array.map (fun (u, v) -> collect k ~u ~v; k.n3) picked in
  {
    edges_total = total;
    edges_supported = total - !unsupported_count;
    extension_counts;
    detour_counts;
  }
