(* perfbench client: a closed-loop, single-client benchmark of the spanner
   pipeline.

   One process runs one workload.  It generates the run's instances into the
   store (set-up), then runs operations back to back, one in flight at a
   time, until the time budget is spent and every slot has run once.  Every
   output is checked; a failed check fails that operation and never aborts
   the run.  The process prints one JSON line (schema perfbench-raw/1) that
   run.py turns into the benchmark report.

   An operation is a job (input graph -> certified spanner plus its report)
   on paper-pipeline, and a churn batch (draw events ->
   traffic under faults -> commit -> healed and re-certified) on
   churn-torus.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    --scratch DIR *)

let now_s () = Obs.now_us () /. 1e6

let span name f = Trace.with_span ~name:("bench." ^ name) f

let obs on =
  Obs.set_tracing on;
  Obs.set_metrics on

(* ---- small statistics ---- *)

(* linear interpolation between order statistics; [nan] on no samples *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let imax xs = fi (List.fold_left max 0 xs)

(* [keep_best key secs payload m] keeps the fastest repeat of each distinct
   operation, [key] naming it (a slot, and the batch round on churn-torus).
   Repeats run the same inputs and allocate the same, so a slower program
   slows every repeat, while a busy shared host slows only some of them. *)
module Op_key = struct
  type t = int * int

  let compare (a1, b1) (a2, b2) = match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
end

module Op_map = Map.Make (Op_key)

let keep_best key secs payload m =
  Op_map.update key
    (function Some (b, _) as kept when Float.compare b secs <= 0 -> kept | _ -> Some (secs, payload))
    m

let rec take k = function [] -> [] | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest

(* ---- seeds and the operation schedule ----

   The workload seed makes the inputs: the instance graphs and the churn
   event streams.  The constructions' own seeds are pinned per slot instead,
   so that a seed's figures do not also move with a construction's random
   draws (Elkin-Neiman k = 4, n = 10^4 keeps 21% to 53% of the edges over
   ten draws on one graph).

   Operation [j] runs slot [j mod slots], so a repeated slot must reproduce
   its first result exactly.  With tracing, the first cycle through the
   slots is traced and later cycles alternate, so the traced operations
   cover every slot once and the untraced ones time the same inputs for the
   tracing overhead.  Quality figures and program counters come from the
   first cycle of the run's mode only, so they depend on the seed and not on
   how many operations the time budget admitted. *)

let instance_seed seed slot = (seed * 1000) + slot
let construction_seed slot = 1 + slot
let churn_seed seed slot = (seed * 1000) + 500 + slot
let traced_op ~trace ~slots j = trace && j / slots mod 2 = 0
let min_ops ~trace ~slots = if trace then slots + 1 else slots

(* Set-up: generate every instance into the store, then regenerate slot 0
   until set-up has taken two seconds, so that setup_s is a median of
   several samples even where one instance takes milliseconds. *)
let setup ~count generate =
  let time_one slot =
    Gc.full_major ();
    let t = now_s () in
    let x = span "generate" (fun () -> generate slot) in
    (x, now_s () -. t)
  in
  let made = List.init count time_one in
  let rec more acc spent k =
    if spent >= 2.0 || k >= 40 then acc
    else
      let _, dt = time_one 0 in
      more (dt :: acc) (spent +. dt) (k + 1)
  in
  let times = List.map snd made in
  (Array.of_list (List.map fst made), times @ more [] (sum times) 0)

(* ---- program counters read around each traced operation ---- *)

let counter_names =
  [
    "csr.snapshot_builds";
    "csr.snapshot_hits";
    "bfs_batch.sweeps";
    "bfs_batch.words";
    "bfs.runs";
    "bfs.nodes_visited";
    "bfs.scratch_reuses";
    "spanner.repaired";
    "spanner.router_fallbacks";
  ]

let counter_cells = List.map (fun n -> (n, Metrics.counter n)) counter_names
let read_counters () = List.map (fun (n, c) -> (n, Metrics.counter_value c)) counter_cells
let counter_delta c1 c0 = List.map2 (fun (n, a) (_, b) -> (n, a - b)) c1 c0

(* summed counter deltas of several operations *)
let counter_sum deltas name = sum (List.map (fun d -> fi (List.assoc name d)) deltas)

(* ---- span accounting over the traced operations ---- *)

let main_tid = (Domain.self () :> int)
let span_words s = s.Trace.minor_words +. s.Trace.major_words
let span_end s = s.Trace.ts_us +. s.Trace.dur_us
let named name spans = List.filter (fun s -> s.Trace.name = name) spans
let total_s spans = sum (List.map (fun s -> s.Trace.dur_us) spans) /. 1e6

(* [inside outer s]: span [s] lies within one of the [outer] spans *)
let inside outer s =
  List.exists (fun o -> s.Trace.ts_us >= o.Trace.ts_us && span_end s <= span_end o) outer

(* Allocation attributed to bench spans: the words their own domain
   allocated while they were open, plus the words of the parallel chunks
   other domains ran inside them.  Chunks on the calling domain are already
   in the first term. *)
let layer_words spans bench =
  let chunks = List.filter (fun s -> s.Trace.tid <> main_tid) (named "parallel.chunk" spans) in
  sum (List.map span_words bench) +. sum (List.map span_words (List.filter (inside bench) chunks))

(* store figures of the set-up: one bench.generate span per generation, each
   of an instance with [arcs] adjacency entries *)
let store_layers ~arcs gen_spans =
  let count = fi (List.length gen_spans) and secs = total_s gen_spans in
  [
    ("store.generate_s", secs /. count);
    ("store.arcs_per_s", fi arcs *. count /. secs);
    ("store.words", sum (List.map span_words gen_spans) /. count);
  ]

(* ---- results ---- *)

type report = {
  attempted : int;
  failures : string list;  (** one entry per failed operation *)
  samples : float list;  (** the timed operations' seconds, in run order *)
  e2e : (string * float) list;
  layers : (string * float) list;  (** per-layer figures the workload reaches *)
  quality : (string * float) list;  (** seed-determined, compared by determinism.py *)
  counters : (string * float) list;  (** program counters of the first cycle *)
  xcheck : (string * string) list;  (** figures `dcs spanner` must reproduce *)
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d" (fun kb -> fi kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let registry_alpha name =
  match (Construction.find_exn name).Construction.alpha with
  | Some a -> int_of_float a
  | None -> invalid_arg ("registry entry without a constant alpha: " ^ name)

(* ================================================================== *)
(* Job workloads                                                       *)
(* ================================================================== *)

type job = {
  graph : Graph.t;  (** the input graph G as the job loaded it *)
  spanner : Graph.t;
  alpha : int;
  stretch : int;
  congestion : int;  (** worst matching congestion over the trials *)
  perm_stretch : float;  (** C_H / C_G of the permutation routing *)
  cli : (string * string) list;  (** figures `dcs spanner` prints for the same input *)
  malformed : string option;  (** a diagnostic that came out malformed *)
}

(* ['a] is a stored instance: on paper-pipeline, the file a job reads *)
type 'a pipeline = {
  slots : int;
  generate : scratch:string -> slot:int -> int -> 'a;
  run : 'a -> int -> job;
}

let paper_file scratch slot =
  Filename.concat scratch (Printf.sprintf "paper-pipeline.%d.graph" slot)

(* The paper's own regime: Algorithm 1 (Theorem 3) on random D-regular
   graphs with D >= n^{2/3}.  Each job is `dcs spanner --input FILE
   --general --seed s` in process: it reads the instance file, then runs
   Experiment.evaluate split into its layer calls, in the same order, so it
   consumes the generator exactly as the CLI does.  Reading the file in the
   job is what makes the two agree: Algorithm 1's output depends on the
   graph's iteration order, which differs between a generated graph, its
   committed CSR and a graph parsed from a file, although all three hold
   the same edge set. *)
let paper_pipeline =
  let ctor = Construction.find_exn "algorithm1" in
  let alpha = registry_alpha "algorithm1" in
  {
    slots = 3;
    generate =
      (fun ~scratch ~slot s ->
        let path = paper_file scratch slot in
        Graph_io.write (Generators.random_regular (Prng.create s) 1000 110) path;
        path);
    run =
      (fun path s ->
        let g = span "store" (fun () -> Graph_io.read path) in
        let rng = Prng.create (s + 1) in
        let dc = span "construction" (fun () -> Construction.build ctor rng g) in
        let h = dc.Dc.spanner in
        let gc, hc = span "store" (fun () -> (Csr.snapshot g, Csr.snapshot h)) in
        let stretch = span "certify" (fun () -> Stretch.exact_parallel ~snapshot:hc g h) in
        let lam_g, lam_h =
          span "diagnostics.spectral" (fun () -> (Spectral.lambda gc, Spectral.lambda hc))
        in
        let matching =
          span "diagnostics.matching" (fun () -> Dc.measure_matching dc rng ~trials:5)
        in
        let general =
          span "diagnostics.general" (fun () ->
              let problem = Problems.permutation rng g in
              let base = Sp_routing.route_random gc rng problem in
              Dc.measure_general dc rng base)
        in
        let malformed =
          if not (Float.is_finite lam_g && Float.is_finite lam_h) then
            Some "spectral estimate not finite"
          else if matching.Dc.max_congestion < 1 then Some "matching congestion below 1"
          else if general.Dc.base_congestion < 1 || not (Float.is_finite general.Dc.stretch) then
            Some "permutation routing report malformed"
          else None
        in
        {
          graph = g;
          spanner = h;
          alpha;
          stretch;
          congestion = matching.Dc.max_congestion;
          perm_stretch = general.Dc.stretch;
          malformed;
          cli =
            [
              ("m_spanner", string_of_int (Graph.m h));
              ("dist_stretch", string_of_int stretch);
              ("max_congestion", string_of_int matching.Dc.max_congestion);
              ("base_congestion", string_of_int general.Dc.base_congestion);
              ("spanner_congestion", string_of_int general.Dc.spanner_congestion);
            ];
        });
  }

(* One pass over E(G) against H's snapshot: how many G edges H keeps, how
   many it removes, and the removed edges' source groups (distinct smaller
   endpoints, the certifier's unit of work). *)
let scan_removed g hc =
  let kept = ref 0 and removed = ref 0 and groups = ref 0 in
  let seen = Bytes.make (Graph.n g) '\000' in
  Graph.iter_edges g (fun u v ->
      if Csr.mem_edge hc u v then incr kept
      else begin
        incr removed;
        let s = min u v in
        if Bytes.get seen s = '\000' then begin
          Bytes.set seen s '\001';
          incr groups
        end
      end);
  (!kept, !removed, !groups)

type job_sample = {
  slot : int;
  traced : bool;
  secs : float;
  m_g : int;
  m_h : int;
  max_detour : int;
  max_load : int;
  perm : float;
  removed : int;
  groups : int;
  repairs : int;
  deltas : (string * int) list;
}

(* H is a subgraph of G with the certified stretch, and the edge accounting
   closes: kept + removed = m(G), matching what the construction reports. *)
let check_job job ~kept ~removed =
  let g = job.graph and h = job.spanner in
  if Graph.n h <> Graph.n g then Some "H and G differ in node count"
  else if kept <> Graph.m h then Some "H is not a subgraph of G"
  else if kept + removed <> Graph.m g then Some "removed + kept <> m(G)"
  else if job.stretch > job.alpha then
    Some (Printf.sprintf "certified stretch %d exceeds alpha %d" job.stretch job.alpha)
  else
    job.malformed

let run_jobs ~seed ~seconds ~trace ~scratch (w : 'a pipeline) =
  obs trace;
  let instances, setup_times =
    setup ~count:w.slots (fun slot -> w.generate ~scratch ~slot (instance_seed seed slot))
  in
  let gen_spans = named "bench.generate" (Trace.snapshot ()) in
  Trace.clear ();
  obs false;
  let samples = ref [] and failures = ref [] and cli = ref [] in
  let t0 = now_s () in
  let j = ref 0 in
  while !j < min_ops ~trace ~slots:w.slots || now_s () -. t0 < seconds do
    let slot = !j mod w.slots and traced = traced_op ~trace ~slots:w.slots !j in
    let s = construction_seed slot in
    (* untimed, so that one job's garbage is not collected on the next
       one's clock *)
    Gc.full_major ();
    obs traced;
    let c0 = read_counters () in
    let t = now_s () in
    let outcome =
      try Ok (span "job" (fun () -> w.run instances.(slot) s))
      with e -> Error (Printexc.to_string e)
    in
    let secs = now_s () -. t in
    let deltas = counter_delta (read_counters ()) c0 in
    obs false;
    let fail why = failures := Printf.sprintf "job %d (slot %d): %s" !j slot why :: !failures in
    (match outcome with
    | Error e -> fail ("raised " ^ e)
    | Ok job ->
        let kept, removed, groups = scan_removed job.graph (Csr.snapshot job.spanner) in
        let x =
          {
            slot;
            traced;
            secs;
            m_g = Graph.m job.graph;
            m_h = Graph.m job.spanner;
            max_detour = job.stretch;
            max_load = job.congestion;
            perm = job.perm_stretch;
            removed;
            groups;
            repairs = List.assoc "spanner.repaired" deltas;
            deltas;
          }
        in
        let repeat_differs =
          match List.find_opt (fun y -> y.slot = slot) !samples with
          | Some y -> (y.m_h, y.max_detour, y.max_load) <> (x.m_h, x.max_detour, x.max_load)
          | None -> false
        in
        (match check_job job ~kept ~removed with
        | Some why -> fail why
        | None when repeat_differs -> fail "a repeated slot gave a different result"
        | None -> ());
        if !j = 0 && job.cli <> [] then
          cli := ("file", paper_file scratch 0) :: ("seed", string_of_int s) :: job.cli;
        samples := x :: !samples);
    incr j
  done;
  let all = List.rev !samples in
  let timed = List.filter (fun x -> not x.traced) all in
  let traced = List.filter (fun x -> x.traced) all in
  let first = take w.slots (if trace then traced else timed) in
  let secs_of xs = List.map (fun x -> x.secs) xs in
  let best =
    List.fold_left (fun m x -> keep_best (x.slot, 0) x.secs x.m_g m) Op_map.empty timed
    |> Op_map.bindings |> List.map snd
  in
  let kept_frac = median (List.map (fun x -> fi x.m_h /. fi x.m_g) first) in
  let stretch = median (List.map (fun x -> fi x.max_detour) first) in
  let congestion = imax (List.map (fun x -> x.max_load) first) in
  let perm = median (List.map (fun x -> x.perm) first) in
  let nf = fi (List.length first) in
  let first_sum f = sum (List.map (fun x -> fi (f x)) first) in
  let deltas = List.map (fun x -> x.deltas) first in
  let per_first name = counter_sum deltas name /. nf in
  let e2e =
    [
      ("setup_s", median setup_times);
      ("job_best_s", median (List.map fst best));
      ("edges_per_s", median (List.map (fun (x, m) -> fi m /. x) best));
      ("peak_rss_mb", peak_rss_mb ());
      ("ok_frac", 1.0 -. (fi (List.length !failures) /. fi !j));
      ("kept_edge_frac", kept_frac);
      ("dist_stretch", stretch);
    ]
  in
  (* per-layer figures are per traced job; layer times are shares of it *)
  let spans = Trace.snapshot () in
  let nt = fi (max 1 (List.length traced)) in
  let per_job names = sum (List.map (fun n -> total_s (named n spans)) names) /. nt in
  let job_s = per_job [ "bench.job" ] in
  let share names = ratio (per_job names) job_s in
  let bench name = named ("bench." ^ name) spans in
  let words name = layer_words spans (bench name) /. nt in
  let layer_spans =
    [
      "store"; "construction"; "certify"; "diagnostics.spectral"; "diagnostics.matching";
      "diagnostics.general";
    ]
  in
  let layers =
    store_layers ~arcs:(match all with x :: _ -> 2 * x.m_g | [] -> 0) gen_spans
    @ [
        ("store.snapshot_share", share [ "bench.store" ]);
        ("store.snapshot_builds", per_first "csr.snapshot_builds");
        ("store.snapshot_hits", per_first "csr.snapshot_hits");
        ("kernels.sweep_share", share [ "bfs.sweep"; "dijkstra.sweep" ]);
        ("kernels.batch_sweeps", per_first "bfs_batch.sweeps");
        ("kernels.batch_words", per_first "bfs_batch.words");
        ("kernels.bfs_runs", per_first "bfs.runs");
        ("kernels.nodes_visited", per_first "bfs.nodes_visited");
        ( "kernels.scratch_reuse_frac",
          ratio (counter_sum deltas "bfs.scratch_reuses") (counter_sum deltas "bfs.runs") );
        ("construction.share", share [ "bench.construction" ]);
        ("construction.words", words "construction");
        ("construction.repaired_edges", first_sum (fun x -> x.repairs) /. nf);
        ("construction.repair_share", share [ "spanner.repair" ]);
        ("certify.share", share [ "bench.certify" ]);
        ("certify.words", words "certify");
        ("certify.removed_edges", first_sum (fun x -> x.removed) /. nf);
        ("certify.source_groups", first_sum (fun x -> x.groups) /. nf);
        ("diagnostics.spectral_share", share [ "bench.diagnostics.spectral" ]);
        ("diagnostics.spectral_words", words "diagnostics.spectral");
        ("diagnostics.matching_share", share [ "bench.diagnostics.matching" ]);
        ("diagnostics.matching_words", words "diagnostics.matching");
        ("diagnostics.general_share", share [ "bench.diagnostics.general" ]);
        ("diagnostics.general_words", words "diagnostics.general");
        ("diagnostics.router_fallbacks", per_first "spanner.router_fallbacks");
        ("diagnostics.congestion_max", congestion);
        ("diagnostics.perm_congestion_stretch", perm);
        ("op.traced_s", job_s);
        (* the job outside every layer span; with the layer shares above
           (store, construction, certify, diagnostics) it adds up to 1 *)
        ("op.unattributed_share", 1.0 -. share (List.map (fun n -> "bench." ^ n) layer_spans));
        ("op.p50_s", median (secs_of timed));
        ("op.p95_s", quantile (secs_of timed) 0.95);
        ("trace.overhead_s", median (secs_of traced) -. median (secs_of timed));
      ]
  in
  {
    attempted = !j;
    failures = List.rev !failures;
    samples = secs_of timed;
    e2e;
    layers;
    quality =
      [
        ("kept_edge_frac", kept_frac);
        ("dist_stretch", stretch);
        ("congestion_max", congestion);
        ("perm_congestion_stretch", perm);
      ]
      @ List.map (fun x -> (Printf.sprintf "m_spanner.slot%d" x.slot, fi x.m_h)) first;
    counters =
      ("certify.source_groups", first_sum (fun x -> x.groups))
      :: List.map (fun n -> (n, counter_sum deltas n)) counter_names;
    xcheck = !cli;
  }

(* ================================================================== *)
(* Churn workload                                                      *)
(* ================================================================== *)

(* A 64x64 torus under targeted churn.  The input spanner is the registry's
   greedy 3-spanner: Algorithm 1 keeps every torus edge, which would leave
   nothing to certify.  A soak call is [churn_events] events in batches of
   [churn_batch]; a batch's latency is the gap between successive on_batch
   callbacks, so the first batch of a call, which also pays for copying the
   input and its initial full certificate, is checked but not timed. *)
let churn_side = 64
let churn_events = 1000
let churn_batch = 10
let churn_slots = 1

let churn_instance () =
  let g = Generators.torus churn_side churn_side in
  let dc = Construction.build (Construction.find_exn "greedy") (Prng.create 0) g in
  (g, dc.Dc.spanner)

type batch_sample = {
  call : int;
  b_slot : int;
  b_traced : bool;
  b_secs : float option;  (** [None] for a call's first batch *)
  stats : Soak.batch_stats;
  window : float * float;  (** microseconds, for attributing program spans *)
}

(* what a repeated slot must reproduce, batch by batch *)
let batch_digest s =
  Soak.
    [
      s.bs_applied; s.bs_readded; s.bs_swept; s.bs_delivered; s.bs_dropped; s.bs_dist_stretch;
      s.bs_m_graph; s.bs_m_spanner;
    ]

let run_churn ~seed ~seconds ~trace =
  let alpha = registry_alpha "greedy" in
  obs trace;
  let instances, setup_times = setup ~count:1 (fun _ -> churn_instance ()) in
  let graph, spanner = instances.(0) in
  let gen_spans = named "bench.generate" (Trace.snapshot ()) in
  Trace.clear ();
  obs false;
  (* Batches are checked as they arrive.  Only the first cycle's and the
     traced ones are kept whole; an untraced later batch leaves its time in
     [timed_secs] and [best], so the live heap that every major GC slice
     inside a timed batch has to mark does not grow with the run. *)
  let kept = ref [] and failures = ref [] and deltas = ref [] in
  let references = ref Op_map.empty and best = ref Op_map.empty in
  let timed_secs = ref [||] and n_timed = ref 0 and attempted = ref 0 in
  let record_secs x =
    if !n_timed = Array.length !timed_secs then
      timed_secs := Array.append !timed_secs (Array.make (max 1024 !n_timed) 0.0);
    !timed_secs.(!n_timed) <- x;
    incr n_timed
  in
  let check b =
    let s = b.stats in
    let key = (b.b_slot, s.Soak.bs_round) in
    let fail why =
      failures := Printf.sprintf "call %d batch %d: %s" b.call s.Soak.bs_round why :: !failures
    in
    if b.call < churn_slots then references := Op_map.add key (batch_digest s) !references;
    if not s.Soak.bs_certified then fail "not certified"
    else if s.Soak.bs_dist_stretch > alpha then
      fail (Printf.sprintf "stretch %d exceeds alpha %d" s.Soak.bs_dist_stretch alpha)
    else
      match Op_map.find_opt key !references with
      | Some r when r <> batch_digest s -> fail "repeated slot diverged"
      | _ -> ()
  in
  let t0 = now_s () in
  let j = ref 0 in
  while !j < min_ops ~trace ~slots:churn_slots || now_s () -. t0 < seconds do
    let call = !j in
    let slot = call mod churn_slots and traced = traced_op ~trace ~slots:churn_slots call in
    let config =
      {
        Soak.default with
        events = churn_events;
        batch = churn_batch;
        seed = churn_seed seed slot;
        alpha;
        kind = Churn_gen.Targeted;
        requests = 16;
      }
    in
    Gc.full_major ();
    obs traced;
    let c0 = read_counters () in
    let prev = ref (now_s ()) and first = ref true in
    let on_batch stats =
      let t = now_s () in
      let b =
        {
          call;
          b_slot = slot;
          b_traced = traced;
          b_secs = (if !first then None else Some (t -. !prev));
          stats;
          window = (!prev *. 1e6, t *. 1e6);
        }
      in
      check b;
      incr attempted;
      (match b.b_secs with
      | Some x when not traced ->
          record_secs x;
          best := keep_best (slot, stats.Soak.bs_round) x stats.Soak.bs_m_graph !best
      | _ -> ());
      if traced || call < churn_slots then kept := b :: !kept;
      first := false;
      prev := t
    in
    let fail why = failures := Printf.sprintf "call %d (slot %d): %s" call slot why :: !failures in
    (match Soak.run ~on_batch config ~graph ~spanner with
    | r -> if not r.Soak.r_final_certified then fail "closing audit not certified"
    | exception e -> fail ("raised " ^ Printexc.to_string e));
    let d = counter_delta (read_counters ()) c0 in
    obs false;
    if call < churn_slots then deltas := d :: !deltas;
    incr j
  done;
  let kept = List.rev !kept in
  let traced = List.filter (fun b -> b.b_traced) kept in
  let first = List.filter (fun b -> b.call < churn_slots && b.b_traced = trace) kept in
  let st f = List.map (fun b -> f b.stats) first in
  let isum f = fi (List.fold_left ( + ) 0 (st f)) in
  let nb = fi (max 1 (List.length first)) in
  let kept_frac = median (st (fun s -> fi s.Soak.bs_m_spanner /. fi s.Soak.bs_m_graph)) in
  let stretch = median (st (fun s -> fi s.Soak.bs_dist_stretch)) in
  let delivered = isum (fun s -> s.Soak.bs_delivered) in
  let delivered_frac = ratio delivered (delivered +. isum (fun s -> s.Soak.bs_dropped)) in
  let groups = isum (fun s -> s.Soak.bs_groups) in
  let swept_frac = ratio (isum (fun s -> s.Soak.bs_swept)) groups in
  let readded = isum (fun s -> s.Soak.bs_readded) in
  let measured bs = List.filter (fun b -> Option.is_some b.b_secs) bs in
  let secs_of bs = List.filter_map (fun b -> b.b_secs) bs in
  let timed_secs = Array.to_list (Array.sub !timed_secs 0 !n_timed) in
  let best = Op_map.bindings !best |> List.map snd in
  let e2e =
    [
      ("setup_s", median setup_times);
      ("job_best_s", median (List.map fst best));
      ("edges_per_s", median (List.map (fun (x, m) -> fi m /. x) best));
      ("peak_rss_mb", peak_rss_mb ());
      ("ok_frac", 1.0 -. (fi (List.length !failures) /. fi !attempted));
      ("kept_edge_frac", kept_frac);
      ("dist_stretch", stretch);
    ]
  in
  (* per-layer figures are per traced, timed batch: program spans are
     attributed to the batch whose callback gap contains them *)
  let spans = Trace.snapshot () in
  let windows = List.map (fun b -> b.window) (measured traced) in
  let nw = fi (max 1 (List.length windows)) in
  let in_window s = List.exists (fun (lo, hi) -> s.Trace.ts_us >= lo && span_end s <= hi) windows in
  let per_batch names =
    sum (List.map (fun n -> total_s (List.filter in_window (named n spans))) names) /. nw
  in
  let batch_s = sum (secs_of traced) /. nw in
  let share names = ratio (per_batch names) batch_s in
  let inc = share [ "spanner.certify_incremental" ] and fault = share [ "fault_sim.run" ] in
  let deltas = !deltas in
  let per_first name = counter_sum deltas name /. nb in
  let layers =
    store_layers ~arcs:(2 * Graph.m graph) gen_spans
    @ [
        ("store.snapshot_builds", per_first "csr.snapshot_builds");
        ("store.snapshot_hits", per_first "csr.snapshot_hits");
        ("kernels.sweep_share", share [ "bfs.sweep"; "dijkstra.sweep" ]);
        ("kernels.batch_sweeps", per_first "bfs_batch.sweeps");
        ("kernels.batch_words", per_first "bfs_batch.words");
        ("kernels.bfs_runs", per_first "bfs.runs");
        ("kernels.nodes_visited", per_first "bfs.nodes_visited");
        ( "kernels.scratch_reuse_frac",
          ratio (counter_sum deltas "bfs.scratch_reuses") (counter_sum deltas "bfs.runs") );
        ("certify.removed_edges", isum (fun s -> s.Soak.bs_m_graph - s.Soak.bs_m_spanner) /. nb);
        ("certify.source_groups", groups /. nb);
        ("certify.inc_share", inc);
        ("certify.inc_swept_frac", swept_frac);
        ("churn.fault_sim_share", fault);
        ("churn.fault_retries", isum (fun s -> s.Soak.bs_retransmits + s.Soak.bs_reroutes) /. nb);
        ("churn.readded_edges", readded /. nb);

        ( "churn.events_per_s",
          ratio
            (sum (List.map (fun b -> fi b.stats.Soak.bs_events) (measured traced)))
            (sum (secs_of traced)) );
        ("churn.delivered_frac", delivered_frac);
        ("op.traced_s", batch_s);
        (* Churn_gen draws, delta-log commits and snapshot replays have no
           span of their own: they are the batch outside the two above *)
        ("op.unattributed_share", 1.0 -. inc -. fault);
        ("op.p50_s", median timed_secs);
        ("op.p95_s", quantile timed_secs 0.95);
        ("trace.overhead_s", median (secs_of traced) -. median timed_secs);
      ]
  in
  {
    attempted = !attempted;
    failures = List.rev !failures;
    samples = timed_secs;
    e2e;
    layers;
    quality =
      [
        ("kept_edge_frac", kept_frac);
        ("dist_stretch", stretch);
        ("delivered_frac", delivered_frac);
        ("batches", fi (List.length first));
      ];
    counters =
      [
        ("certify.source_groups", groups);
        ("certify.inc_swept_frac", swept_frac);
        ("churn.readded_edges", readded);
      ]
      @ List.map (fun n -> (n, counter_sum deltas n)) counter_names;
    xcheck = [];
  }

(* ================================================================== *)
(* Report                                                              *)
(* ================================================================== *)

let jstr s = "\"" ^ Obs.json_escape s ^ "\""

(* every digit as measured; a non-finite figure is a benchmark defect *)
let jnum x =
  if not (Float.is_finite x) then failwith "non-finite figure"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let jobj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"
let jnums fields = jobj (List.map (fun (k, v) -> (k, jnum v)) fields)

let emit ~workload ~seed ~trace r =
  print_endline
    (jobj
       [
         ("schema", jstr "perfbench-raw/1");
         ("workload", jstr workload);
         ("seed", string_of_int seed);
         ("trace", string_of_int (if trace then 1 else 0));
         ("domains", string_of_int (Parallel.default_domains ()));
         ("ocaml", jstr Sys.ocaml_version);
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int (List.length r.failures));
         ("failures", "[" ^ String.concat "," (List.map jstr (take 20 r.failures)) ^ "]");
         ("samples", "[" ^ String.concat "," (List.map jnum r.samples) ^ "]");
         ("metrics", jnums (if trace then r.layers else r.e2e));
         ("quality", jnums r.quality);
         ("counters", jnums r.counters);
         ("xcheck", jobj (List.map (fun (k, v) -> (k, jstr v)) r.xcheck));
       ])

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let scratch = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) figures");
      ("--scratch", Arg.Set_string scratch, "DIR existing directory for instance files");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) || !scratch = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and scratch = !scratch in
  let jobs w = run_jobs ~seed ~seconds ~trace ~scratch w in
  let r =
    match !workload with
    | "paper-pipeline" -> jobs paper_pipeline
    | "churn-torus" -> run_churn ~seed ~seconds ~trace
    | other ->
        prerr_endline ("unknown workload " ^ other);
        exit 2
  in
  emit ~workload:!workload ~seed ~trace r
