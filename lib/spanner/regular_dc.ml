type thresholds = Scaled | Paper | Explicit of int * int

type t = {
  spanner : Graph.t;
  sampled : Graph.t;
  reinserted : int;
  repaired : int;
  support_a : int;
  support_b : int;
  delta : int;
  delta' : int;
}

let resolve_thresholds thresholds ~n ~delta ~delta' =
  match thresholds with
  | Explicit (a, b) -> (a, b)
  | Scaled ->
      let a = max 2 (int_of_float (ceil (log (float_of_int (max 2 n))))) in
      let b = max 1 (delta / 4) in
      (a, b)
  | Paper ->
      let c1 = 0.5 in
      let ln_n = log (float_of_int (max 2 n)) in
      let lambda = 128.0 *. ln_n *. ln_n /. c1 in
      let a = int_of_float (ceil (lambda *. float_of_int delta')) in
      let b = int_of_float (ceil (c1 *. float_of_int delta)) in
      (a, b)

let build ?(thresholds = Scaled) ?(repair = true) rng g =
  let n = Graph.n g in
  let delta = Graph.max_degree g in
  let delta' = max 1 (int_of_float (ceil (sqrt (float_of_int delta)))) in
  let rho = if delta = 0 then 1.0 else float_of_int delta' /. float_of_int delta in
  let support_a, support_b = resolve_thresholds thresholds ~n ~delta ~delta' in
  (* Line 3-5: keep each edge with probability ρ. *)
  let sampled =
    Trace.with_span ~name:"spanner.sampling" (fun () ->
        let sampled = Graph.empty_like g in
        Graph.iter_edges g (fun u v ->
            if Prng.bool rng rho then ignore (Graph.add_edge sampled u v));
        sampled)
  in
  (* Line 8-9: reinsert edges that are not (a, b)-supported in any direction. *)
  let spanner, reinserted = Support.reinsert g sampled ~a:support_a ~b:(fun _ _ -> support_b) in
  (* Repair pass: a supported removed edge is safe only if one of its
     3-detours survived the sampling (Corollary 2 makes failures rare but
     possible); reinserting the stragglers makes stretch 3 unconditional. *)
  let repaired = if repair then Support.repair g spanner else 0 in
  {
    spanner;
    sampled;
    reinserted;
    repaired;
    support_a;
    support_b;
    delta;
    delta';
  }

(* Candidate replacements are the 2- and 3-detours surviving in H; a uniform
   random choice spreads the congestion (Lemma 17 / proof of Lemma 7). *)
let to_dc ?(detour_cap = 64) t g =
  let route_matching = Support.route_matching (Support.detours ~cap:detour_cap t.spanner) in
  { Dc.name = "algorithm1"; graph = g; spanner = t.spanner; route_matching }
