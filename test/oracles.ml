(* Reference copies of kernels that lib/ has since replaced with faster,
   allocation-free versions.  They keep the original formulation — list
   enumeration over [Graph.mem_edge] probes, a packed adjacency bit-matrix,
   closure-captured float accumulators, a fresh distance array per BFS — and
   the property tests assert the library kernels agree with them exactly. *)

(* ---- Packed adjacency bit-matrix (bounds-checked) ---- *)

module Bitmat = struct
  (* one row of 63-bit words per node: bit [v mod 63] of word [v / 63] of
     row [u] is set iff [(u, v)] is an edge *)
  type t = { words : int; rows : int array array }

  let of_graph g =
    let n = Graph.n g in
    let words = (n + 62) / 63 in
    let rows = Array.init n (fun _ -> Array.make words 0) in
    let set u v = rows.(u).(v / 63) <- rows.(u).(v / 63) lor (1 lsl (v mod 63)) in
    Graph.iter_edges g (fun u v ->
        set u v;
        set v u);
    { words; rows }

  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
    go x 0

  (* [|N(u) ∩ N(z)|], scanning words until [k] common neighbors are found *)
  let count_upto t u z k =
    let ru = t.rows.(u) and rz = t.rows.(z) in
    let acc = ref 0 and i = ref 0 in
    while !acc < k && !i < t.words do
      acc := !acc + popcount (ru.(!i) land rz.(!i));
      incr i
    done;
    !acc

  let common_count t u z = count_upto t u z max_int
  let common_count_at_least t u z k = k <= 0 || count_upto t u z k >= k
  let mem t u v = t.rows.(u).(v / 63) land (1 lsl (v mod 63)) <> 0
end

(* ---- (a, b)-support test and reinsertion (Support, before the count kernel) ---- *)

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

(* ---- Detour enumeration (Support, before the marker-array kernel) ---- *)

let three_detours h ~u ~v ~cap =
  let out = ref [] in
  let count = ref 0 in
  (try
     Graph.iter_neighbors h v (fun z ->
         if z <> u && z <> v then
           Graph.iter_neighbors h z (fun x ->
               if x <> v && x <> u && x <> z && Graph.mem_edge h u x then begin
                 out := (x, z) :: !out;
                 incr count;
                 if !count >= cap then raise Exit
               end))
   with Exit -> ());
  !out

let two_detours h ~u ~v ~cap =
  let out = ref [] in
  let count = ref 0 in
  (try
     Graph.iter_neighbors h u (fun x ->
         if x <> v && Graph.mem_edge h x v then begin
           out := x :: !out;
           incr count;
           if !count >= cap then raise Exit
         end)
   with Exit -> ());
  !out

let detour_candidates h ~u ~v ~cap =
  List.map (fun x -> [| u; x; v |]) (two_detours h ~u ~v ~cap)
  @ List.map (fun (x, z) -> [| u; x; z; v |]) (three_detours h ~u ~v ~cap)

let has_short_detour h ~u ~v =
  two_detours h ~u ~v ~cap:1 <> [] || three_detours h ~u ~v ~cap:1 <> []

(* The matching router of Regular_dc / Irregular_dc. *)
let route_matching h ~cap rng pairs =
  let csr = lazy (Csr.snapshot h) in
  Array.map
    (fun (u, v) ->
      if Graph.mem_edge h u v then [| u; v |]
      else
        match detour_candidates h ~u ~v ~cap with
        | [] -> (
            match Bfs.shortest_path (Lazy.force csr) u v with
            | Some p -> p
            | None -> invalid_arg "Oracles.route_matching: spanner disconnected for pair")
        | candidates -> Prng.pick rng (Array.of_list candidates))
    pairs

(* ---- Spectral power iteration (closure formulation) ---- *)

let matvec g src dst =
  for v = 0 to Csr.n g - 1 do
    let acc = ref 0.0 in
    Csr.iter_neighbors g v (fun u -> acc := !acc +. src.(u));
    dst.(v) <- !acc
  done

let deflate_ones vec =
  let n = Array.length vec in
  if n > 0 then begin
    let mean = Array.fold_left ( +. ) 0.0 vec /. float_of_int n in
    for i = 0 to n - 1 do
      vec.(i) <- vec.(i) -. mean
    done
  end

let norm vec = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 vec)

let normalize vec =
  let len = norm vec in
  if len > 0.0 then Array.iteri (fun i x -> vec.(i) <- x /. len) vec

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

(* ---- BFS path extraction with a per-query distance array ---- *)

let path g u v ~choose =
  if u = v then Some [| u |]
  else begin
    let n = Csr.n g in
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(u) <- 0;
    Queue.add u queue;
    (* stop at the discovery of [v], as the library kernel does *)
    (try
       while not (Queue.is_empty queue) do
         let x = Queue.pop queue in
         Csr.iter_neighbors g x (fun w ->
             if dist.(w) < 0 then begin
               dist.(w) <- dist.(x) + 1;
               if w = v then raise Exit;
               Queue.add w queue
             end)
       done
     with Exit -> ());
    if dist.(v) < 0 then None
    else begin
      let rec build node acc =
        if node = u then node :: acc
        else begin
          let preds = ref [] in
          Csr.iter_neighbors g node (fun w ->
              if dist.(w) >= 0 && dist.(w) = dist.(node) - 1 then preds := w :: !preds);
          build (choose (List.sort compare !preds)) (node :: acc)
        end
      in
      Some (Array.of_list (build v []))
    end
  end

let shortest_path g u v = path g u v ~choose:List.hd

let random_shortest_path g rng u v =
  path g u v ~choose:(fun preds -> Prng.pick rng (Array.of_list preds))
