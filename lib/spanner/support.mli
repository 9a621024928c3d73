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

val base_support : Bitmat.t -> int -> int -> int
(** [base_support bm u z = |N(u) ∩ N(z)|], the number of 2-detours with base
    [{u, z}]. *)

val supported_extensions : Graph.t -> Bitmat.t -> u:int -> v:int -> a:int -> int list
(** [supported_extensions g bm ~u ~v ~a] lists the routers [z] of
    [a]-supported extensions [(v, z)] of the edge [(u, v)] toward [v]. *)

val is_ab_supported_toward : Graph.t -> Bitmat.t -> u:int -> v:int -> a:int -> b:int -> bool
(** Whether edge [(u,v)] is [(a,b)]-supported toward [v]. *)

val is_ab_supported : Graph.t -> Bitmat.t -> int -> int -> a:int -> b:int -> bool
(** Whether the edge is [(a,b)]-supported toward at least one direction —
    the membership test for [Ê] in Algorithm 1 (line 8). *)

val reinsert : Graph.t -> Graph.t -> a:int -> b:(int -> int -> int) -> Graph.t * int
(** [reinsert g sampled ~a ~b] is a copy of [sampled] plus every edge
    [(u,v)] of [g] that is not [(a, b u v)]-supported in either direction
    (Algorithm 1, lines 8–9), and the number of edges it put back. *)

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
    detour in [h] (Algorithm 1's repair pass); returns how many. *)

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
    Figures 3–4 printed by the [figures/fig34_support] bench block. *)
