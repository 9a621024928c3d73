type t = { spanner : Graph.t; sampled : Graph.t; reinserted : int; repaired : int }

let build ?(repair = true) rng g =
  let n = Graph.n g in
  let local_degree u v = min (Graph.degree g u) (Graph.degree g v) in
  (* Degree-local sampling: rho_uv = 1/sqrt(min degree of endpoints). *)
  let sampled =
    Trace.with_span ~name:"spanner.sampling" (fun () ->
        let sampled = Graph.empty_like g in
        Graph.iter_edges g (fun u v ->
            let rho = 1.0 /. sqrt (float_of_int (max 1 (local_degree u v))) in
            if Prng.bool rng rho then ignore (Graph.add_edge sampled u v));
        sampled)
  in
  (* Support-based reinsertion with per-edge thresholds. *)
  let a = max 2 (int_of_float (ceil (log (float_of_int (max 2 n))))) in
  let b u v = max 1 (local_degree u v / 4) in
  let spanner, reinserted = Support.reinsert g sampled ~a ~b in
  let repaired = if repair then Support.repair g spanner else 0 in
  { spanner; sampled; reinserted; repaired }

let to_dc ?(detour_cap = 64) t g =
  let route_matching = Support.route_matching (Support.detours ~cap:detour_cap t.spanner) in
  { Dc.name = "irregular"; graph = g; spanner = t.spanner; route_matching }
