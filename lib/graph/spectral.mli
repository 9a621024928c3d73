(** Spectral expansion estimation.

    The paper calls an [n]-node graph a (spectral) expander with expansion
    [λ] when [max(|λ₂|, |λₙ|) ≤ λ], where [λ₁ ≥ … ≥ λₙ] (by magnitude) are the
    adjacency eigenvalues.  For a Δ-regular graph the top eigenvector is the
    all-ones vector with eigenvalue Δ; the expansion is the dominant
    magnitude in its orthogonal complement, which power iteration with
    deflation recovers.  Every expander experiment in the benchmark harness
    *measures* this quantity instead of assuming it (DESIGN.md §3.1). *)

val matvec : Csr.t -> float array -> float array -> unit
(** [matvec g src dst] sets [dst] to [A·src] for the adjacency matrix [A] of
    [g], summing each row in ascending neighbor order.  Allocation-free: the
    power-iteration and Lanczos loops below call it once per step. *)

val lambda : ?iterations:int -> ?seed:int -> Csr.t -> float
(** [lambda g] estimates [max(|λ₂|, |λₙ|)] of the adjacency matrix by power
    iteration on the complement of the all-ones vector.  Intended for regular
    or near-regular graphs (all paper inputs).  [iterations] defaults to 300.
    Result is a slight under-estimate on hard instances; accurate to ~1% on
    the graph families used here (validated against closed forms in the test
    suite). *)

val lambda_lanczos : ?iterations:int -> ?seed:int -> Csr.t -> float
(** Like {!lambda} but via the Lanczos process (with full
    reorthogonalization) on the deflated operator, extracting the extreme
    eigenvalues of the tridiagonal matrix by Sturm bisection.  Converges much
    faster than power iteration when [|λ₂| ≈ |λ₃|]; the test suite asserts
    agreement with closed forms and with {!lambda}. *)

val expansion_ratio : ?iterations:int -> ?seed:int -> Csr.t -> float
(** [expansion_ratio g] is [lambda g / Δ] for a Δ-regular graph — the
    normalized second eigenvalue in [0, 1]; small means strong expander.
    Uses the maximum degree for near-regular graphs. *)

val is_expander : ?threshold:float -> Csr.t -> bool
(** [is_expander g] checks [expansion_ratio g <= threshold]
    (default [0.5]). *)
