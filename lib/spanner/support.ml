let base_support bm u z = Bitmat.common_count bm u z

let supported_extensions g bm ~u ~v ~a =
  Graph.fold_neighbors g v
    (fun acc z ->
      if z <> u && Bitmat.common_count_at_least bm u z (a + 1) then z :: acc else acc)
    []

let count_supported_extensions g bm ~u ~v ~a ~limit =
  let count = ref 0 in
  (try
     Graph.iter_neighbors g v (fun z ->
         if z <> u && Bitmat.common_count_at_least bm u z (a + 1) then begin
           incr count;
           if !count >= limit then raise Exit
         end)
   with Exit -> ());
  !count

let is_ab_supported_toward g bm ~u ~v ~a ~b =
  count_supported_extensions g bm ~u ~v ~a ~limit:b >= b

let is_ab_supported g bm u v ~a ~b =
  is_ab_supported_toward g bm ~u ~v ~a ~b || is_ab_supported_toward g bm ~u:v ~v:u ~a ~b

let reinsert g sampled ~a ~b =
  let bm = Bitmat.of_graph g and spanner = Graph.copy sampled and reinserted = ref 0 in
  Graph.iter_edges g (fun u v ->
      if not (Graph.mem_edge spanner u v || is_ab_supported g bm u v ~a ~b:(b u v)) then begin
        ignore (Graph.add_edge spanner u v);
        incr reinserted
      end);
  (spanner, !reinserted)

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
  let k = detours h and missing = ref [] in
  Graph.iter_edges g (fun u v ->
      if not (adjacent k ~u ~v || has_short_detour k ~u ~v) then missing := (u, v) :: !missing);
  List.iter (fun (u, v) -> ignore (Graph.add_edge h u v)) !missing;
  List.length !missing

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
  let bm = Bitmat.of_graph g in
  let edges = Graph.edge_array g in
  let total = Array.length edges in
  let supported = ref 0 in
  Array.iter (fun (u, v) -> if is_ab_supported g bm u v ~a ~b then incr supported) edges;
  let picked =
    if total <= sample then edges
    else Array.map (fun i -> edges.(i)) (Prng.sample_distinct rng ~n:total ~k:sample)
  in
  let extension_counts =
    Array.map
      (fun (u, v) ->
        max
          (count_supported_extensions g bm ~u ~v ~a ~limit:cap)
          (count_supported_extensions g bm ~u:v ~v:u ~a ~limit:cap))
      picked
  in
  let k = detours ~cap g in
  let detour_counts = Array.map (fun (u, v) -> collect k ~u ~v; k.n3) picked in
  { edges_total = total; edges_supported = !supported; extension_counts; detour_counts }
