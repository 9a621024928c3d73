(** The support structure of Section 4 (Figures 3 and 4).

    Definitions, for a graph [G]:
    - a {e 2-detour} with base [{u, z}] and router [x] is the edge pair
      [(u,x), (x,z)]; the base is [a]-{e supported} when at least [a] distinct
      routers exist, i.e. [|N(u) ∩ N(z)| ≥ a];
    - an {e extension} of edge [(u,v)] toward [v] is an edge [(v,z)] with
      [z ≠ u]; it is [a]-supported when the base [{u, z}] is
      [(a+1)]-supported (one of the 2-detours being the one through [v]);
    - edge [(u,v)] is [(a,b)]-{e supported toward} [v] when at least [b] of
      its extensions toward [v] are [a]-supported.  Each such edge owns
      [≥ a·b] 3-detours [u–x–z–v].

    Algorithm 1 keeps an edge out of the spanner only if it is
    [(λΔ', c₁Δ)]-supported in some direction — i.e. it has enough 3-detours
    that some survive the sampling w.h.p. *)

val reinsert : Graph.t -> Graph.t -> a:int -> b:(int -> int -> int) -> Graph.t * int
(** [reinsert g sampled ~a ~b] is a copy of [sampled] plus every edge
    [(u,v)] of [g] that is not [(a, b u v)]-supported in either direction
    (Algorithm 1, lines 8–9), added in [Graph.iter_edges g] order, and the
    number of edges it put back.  [b] is called once per edge of [g] missing
    from [sampled], with [u < v]; [b u v ≤ 0] counts as supported.  Runs on
    per-source common-neighbor counts over a flat copy of [g]: O(n + m)
    words, O(Σ_v deg(v)²) time; [g] is only read, never committed.  Traced
    as the [spanner.sparsify] span; adds to [spanner.reinserted]. *)

type detours
(** Marker-array detour kernel over a graph [H]: O(n) stamps marking [N_H(u)]
    and [N_H(v)], re-set only when [u]/[v] changes or [H] is mutated (mutable
    scratch: one per domain).  A detour of the pair [(u,v)] avoids the edge
    [(u,v)]: a 2-detour [u–x–v], or a 3-detour [u–x–z–v] with [x ≠ v],
    [z ≠ u], [x ≠ z]; [detours ~cap h] lists at most [cap] (default 64). *)

val detours : ?cap:int -> Graph.t -> detours

val has_short_detour : detours -> u:int -> v:int -> bool
(** Whether [(u,v)] has a detour in [H] — for a non-edge, [d_H(u,v) ≤ 3]. *)

val detour_candidates : detours -> u:int -> v:int -> Routing.path array
(** The router's candidates: 2-detours [[|u; x; v|]], then 3-detours
    [[|u; x; z; v|]], each latest-found first along [Graph.iter_neighbors]. *)

val repair : Graph.t -> Graph.t -> int
(** [repair g h] adds to [h] every edge of [g] missing from [h] without a
    detour in [h] (Algorithm 1's repair pass); returns how many.  Traced as
    the [spanner.repair] span; adds to the [spanner.repaired] counter. *)

val route_matching : detours -> Prng.t -> (int * int) array -> Routing.path array
(** The Lemma 17 router: an edge of [H] routes directly, a removed edge over
    a uniform pick from {!detour_candidates}, else over a BFS shortest path
    ([Invalid_argument] if [H] disconnects it). *)

type census = {
  edges_total : int;
  edges_supported : int;  (** members of [Ê] for the thresholds used *)
  extension_counts : int array;  (** per sampled edge: #a-supported extensions (best direction) *)
  detour_counts : int array;  (** per sampled edge: #3-detours (capped) *)
}

val census :
  ?sample:int -> ?cap:int -> Prng.t -> Graph.t -> a:int -> b:int -> census
(** Support census over (a sample of) the edges — the quantitative version of
    Figures 3–4 printed by the [figures/fig34_support] bench block.  Extension
    counts stop at [max 1 cap]. *)
