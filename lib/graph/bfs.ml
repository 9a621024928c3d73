(* Counters are batched: the hot loops below tally into their own locals and
   the metric cells are touched once per BFS run, so the disabled-mode cost
   is one flag check per *call*, not per node. *)
let m_runs = Metrics.counter "bfs.runs"
let m_visited = Metrics.counter "bfs.nodes_visited"
let m_frontier = Metrics.gauge "bfs.frontier_peak"

(* Per-domain scratch arena: the queue (and, for scalar distance queries,
   the dist/stamp pair) is reused across BFS runs on the same domain instead
   of being allocated per call.  Visited-ness is epoch-stamped so a reused
   dist array needs no O(n) clear: node [v] is reached iff
   [stamp.(v) = epoch].  Domains spawned by [Parallel] get fresh arenas. *)
module Scratch = struct
  type t = {
    mutable dist : int array;
    mutable stamp : int array;
    mutable queue : int array;
    mutable epoch : int;
  }

  let m_reuses = Metrics.counter "bfs.scratch_reuses"

  let key =
    Domain.DLS.new_key (fun () ->
        { dist = [||]; stamp = [||]; queue = [||]; epoch = 0 })

  let get n =
    let s = Domain.DLS.get key in
    if Array.length s.queue < n then begin
      s.dist <- Array.make n 0;
      s.stamp <- Array.make n (-1);
      s.queue <- Array.make n 0;
      s.epoch <- 0
    end
    else Metrics.incr m_reuses;
    s.epoch <- s.epoch + 1;
    s
end

let distances_impl g s ~bound =
  let n = Csr.n g in
  let sc = Scratch.get n in
  let dist = Array.make n (-1) in
  let queue = sc.Scratch.queue in
  let head = ref 0 and tail = ref 0 in
  dist.(s) <- 0;
  queue.(0) <- s;
  tail := 1;
  let frontier_peak = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    if dist.(v) < bound then
      Csr.iter_neighbors g v (fun u ->
          if dist.(u) < 0 then begin
            dist.(u) <- dist.(v) + 1;
            queue.(!tail) <- u;
            incr tail
          end);
    if !tail - !head > !frontier_peak then frontier_peak := !tail - !head
  done;
  if !Obs.metrics then begin
    Metrics.incr m_runs;
    Metrics.add m_visited !tail;
    Metrics.set_gauge m_frontier !frontier_peak
  end;
  dist

(* Scalar point-to-point BFS on the scratch arena: same traversal as
   [distances_impl] but the dist array is epoch-stamped and reused, so the
   per-edge certification path allocates nothing at all.  On return, node [w]
   was reached iff [stamp.(w) = epoch], with its hop count in [dist.(w)];
   both stay valid until the domain's next [Scratch.get].  The search stops
   at the *discovery* of [t], not at its pop: on dense graphs the final BFS
   layer dominates the work and the target is usually discovered long before
   its layer is settled. *)
let stamped_bfs g s t ~bound =
  let n = Csr.n g in
  let sc = Scratch.get n in
  let dist = sc.Scratch.dist
  and stamp = sc.Scratch.stamp
  and queue = sc.Scratch.queue
  and ep = sc.Scratch.epoch in
  let head = ref 0 and tail = ref 0 in
  stamp.(s) <- ep;
  dist.(s) <- 0;
  queue.(0) <- s;
  tail := 1;
  let frontier_peak = ref 1 in
  let finished = ref (t = s) in
  while (not !finished) && !head < !tail do
    let v = queue.(!head) in
    incr head;
    if dist.(v) < bound then begin
      try
        Csr.iter_neighbors g v (fun u ->
            if stamp.(u) <> ep then begin
              stamp.(u) <- ep;
              dist.(u) <- dist.(v) + 1;
              if u = t then raise Exit;
              queue.(!tail) <- u;
              incr tail
            end)
      with Exit -> finished := true
    end;
    if !tail - !head > !frontier_peak then frontier_peak := !tail - !head
  done;
  if !Obs.metrics then begin
    Metrics.incr m_runs;
    Metrics.add m_visited !tail;
    Metrics.set_gauge m_frontier !frontier_peak
  end;
  sc

let distance_impl g s t ~bound =
  let sc = stamped_bfs g s t ~bound in
  if sc.Scratch.stamp.(t) = sc.Scratch.epoch then sc.Scratch.dist.(t) else -1

let distances g s = distances_impl g s ~bound:max_int

let distances_bounded g s ~bound = distances_impl g s ~bound

let distance g u v = if u = v then 0 else distance_impl g u v ~bound:max_int

let distance_bounded g u v ~bound =
  if u = v then 0
  else begin
    let d = distance_impl g u v ~bound in
    if d > bound then -1 else d
  end

(* BFS parent tracking shared by the deterministic and randomized path
   extraction.  [choose] picks among shortest-path predecessors of a node. *)
let path_impl g u v ~choose =
  if u = v then Some [| u |]
  else begin
    let sc = stamped_bfs g u v ~bound:max_int in
    let dist = sc.Scratch.dist and stamp = sc.Scratch.stamp and ep = sc.Scratch.epoch in
    if stamp.(v) <> ep then None
    else begin
      let rec build node acc =
        if node = u then node :: acc
        else begin
          let preds = ref [] in
          Csr.iter_neighbors g node (fun w ->
              if stamp.(w) = ep && dist.(w) = dist.(node) - 1 then preds := w :: !preds);
          let parent = choose (List.sort compare !preds) in
          build parent (node :: acc)
        end
      in
      Some (Array.of_list (build v []))
    end
  end

let shortest_path g u v =
  let choose = function
    | [] -> assert false
    | p :: _ -> p
  in
  path_impl g u v ~choose

let random_shortest_path g rng u v =
  let choose preds =
    let arr = Array.of_list preds in
    Prng.pick rng arr
  in
  path_impl g u v ~choose

(* max over a distance row, [max_int] when some node is unreachable *)
let ecc_of_row dist =
  let worst = ref 0 and disconnected = ref false in
  Array.iter (fun d -> if d < 0 then disconnected := true else if d > !worst then worst := d) dist;
  if !disconnected then max_int else !worst

let eccentricity g v = ecc_of_row (distances g v)

let diameter_sampled g rng ~samples =
  let n = Csr.n g in
  if n = 0 then 0
  else begin
    let sources =
      if samples >= n then Array.init n (fun i -> i)
      else Prng.sample_distinct rng ~n ~k:samples
    in
    (* batched sweeps, Bfs_batch.width sources at a time *)
    let worst = ref 0 in
    let k = Array.length sources in
    let lo = ref 0 in
    while !worst < max_int && !lo < k do
      let len = min Bfs_batch.width (k - !lo) in
      let rows = Bfs_batch.run g (Array.sub sources !lo len) in
      Array.iter (fun row -> worst := max !worst (ecc_of_row row)) rows;
      lo := !lo + len
    done;
    !worst
  end

let all_distances g =
  Trace.with_span ~name:"bfs.all_distances" (fun () ->
      let n = Csr.n g in
      let out = Array.make n [||] in
      Array.iter
        (fun batch ->
          let rows = Bfs_batch.run g batch in
          Array.iteri (fun j row -> out.(batch.(j)) <- row) rows)
        (Bfs_batch.batches n);
      out)

let all_distances_parallel ?domains g =
  Trace.with_span ~name:"bfs.all_distances" (fun () ->
      let bs = Bfs_batch.batches (Csr.n g) in
      let parts = Parallel.map_range ?domains (Array.length bs) (fun b -> Bfs_batch.run g bs.(b)) in
      (* batches are consecutive source ranges, so concatenation is in order *)
      Array.concat (Array.to_list parts))
