(** The gradient service: plan caching + a robustness envelope.

    One service instance owns an LRU cache of compiled plans
    ({!Plan_cache}), a per-plan-key circuit breaker ({!Breaker}), and a
    deterministic virtual-time worker-pool model. Requests arrive as
    newline-delimited JSON (socket or stdin batch), execute one at a
    time against the shared simulator — the engine in [Sim] is global
    and non-reentrant, so "concurrency" is a queueing model over
    virtual time, exactly like the rest of the repo models parallel
    hardware — and leave as classified JSON responses. No request
    outcome, including a deadlock, a sanitizer abort, a rank failure or
    a deadline bust, may take the daemon down: {!submit} catches
    everything and classifies it through the exit-code taxonomy
    ({!Outcome}), including the overloaded (admission shed) and
    breaker-open classes that only the service produces.

    Request lifecycle: parse → validate (bad fields answer [invalid]
    without touching the pool) → breaker admission → queue
    admission (bounded; sheds with [overloaded] beyond the cap) →
    plan-cache acquisition (compile on miss) → execution with
    retry-with-backoff for transient failures (a consumed rank kill, a
    missing snapshot) → classification. Per-request [Stats] are fresh
    records, so nothing leaks between requests; the checkpoint stores a
    request creates spill under per-request namespaces and are disposed
    with the request. *)

open Parad_runtime
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude

(* ---- requests ---- *)

type app = Lulesh of L.flavor | Bude of MB.variant

type request = {
  rq_id : int;
  rq_app : app;
  rq_nranks : int;
  rq_nthreads : int;
  rq_depth : int;  (** recompute depth (plan option) *)
  rq_budget : int;  (** snapshot budget; > 0 selects the binomial driver *)
  rq_coalesce : bool;
  rq_seeds : int;
      (** adjoint seed lanes; > 1 selects the batched sweep (one taping
          pass, one k-wide reverse sweep — lane [l] seeded with [l + 1]) *)
  rq_niter : int;
  rq_nx : int;
  rq_escale : float;
  rq_nposes : int;
  rq_faults : Faults.plan option;
  rq_inject_nan : int option;
  rq_san : Sanitizer.mode option;
  rq_deadline : Sim.deadline;
  rq_engine : Parad_engine.Engine.choice;
      (** execution substrate: the tree-walking interpreter or the lowered
          slot-addressed engine *)
}

let lulesh_flavor = function
  | "seq" -> Some L.Seq
  | "omp" -> Some L.Omp
  | "raja" -> Some L.Raja_
  | "mpi" -> Some L.Mpi
  | "hybrid" -> Some L.Hybrid
  | "raja-mpi" -> Some L.RajaMpi
  | "julia" | "jl" -> Some L.Jlmpi
  | _ -> None

let bude_variant = function
  | "seq" -> Some MB.Seq
  | "omp" -> Some MB.Omp
  | "julia" -> Some MB.Julia
  | _ -> None

let invalid = Outcome.invalid

let is_pow2 n = n > 0 && n land (n - 1) = 0

(** Decode and validate one request object. Unknown fields are ignored
    (forward compatibility); bad values raise [Outcome.Invalid_request]
    with a precise message that lands verbatim in the [error] field of
    the response. *)
let request_of_json ~default_watchdog_ms j =
  let id = Option.value (Json.int_field "id" j) ~default:0 in
  let geti k default lo =
    match Json.field k j with
    | None -> default
    | Some _ -> (
      match Json.int_field k j with
      | Some v when v >= lo -> v
      | Some v -> invalid "field %S: %d out of range (min %d)" k v lo
      | None -> invalid "field %S: expected an integer" k)
  in
  let getf k default =
    match Json.field k j with
    | None -> default
    | Some _ -> (
      match Json.num_field k j with
      | Some v -> v
      | None -> invalid "field %S: expected a number" k)
  in
  let app =
    match Json.str_field "app" j with
    | None | Some "lulesh" -> (
      let f = Option.value (Json.str_field "flavor" j) ~default:"mpi" in
      match lulesh_flavor f with
      | Some fl -> Lulesh fl
      | None -> invalid "unknown lulesh flavor %S" f)
    | Some "bude" | Some "minibude" -> (
      let f = Option.value (Json.str_field "flavor" j) ~default:"omp" in
      match bude_variant f with
      | Some v -> Bude v
      | None -> invalid "unknown bude variant %S" f)
    | Some a -> invalid "unknown app %S" a
  in
  let nranks = geti "nranks" 1 1 in
  if not (is_pow2 nranks) then invalid "nranks must be a power of two";
  (match app with
  | Lulesh fl -> L.check_ranks fl ~nranks
  | Bude _ when nranks > 1 -> invalid "bude is single-rank; nranks must be 1"
  | Bude _ -> ());
  let nthreads = geti "nthreads" 1 1 in
  (* omitted, the depth is the planner's default (no bound: the cut
     alone decides), as for [parad grad]; "inf" names it, as the plan
     key spells it *)
  let depth =
    match Json.str_field "recompute_depth" j with
    | Some "inf" -> max_int
    | Some s ->
      invalid "field %S: expected an integer or \"inf\", got %S"
        "recompute_depth" s
    | None ->
      geti "recompute_depth"
        Parad_core.Plan.default_options.Parad_core.Plan.recompute_depth 0
  in
  let budget = geti "snap_budget" 0 0 in
  (match app with
  | Bude _ when budget > 0 ->
    invalid "snap_budget applies only to lulesh requests"
  | _ -> ());
  let coalesce =
    Option.value (Json.bool_field "coalesce" j) ~default:true
  in
  let seeds = geti "seeds" 1 1 in
  (match app with
  | Lulesh fl when seeds > 1 && L.uses_mpi fl ->
    invalid
      "flavor %S cannot batch seeds (the MPI adjoint runtime exchanges \
       single-stride planes); use a shared-memory flavor"
      (L.flavor_name fl)
  | Bude v when seeds > 1 && MB.spawns_tasks v ->
    invalid "variant %S cannot batch seeds: %s" (MB.variant_name v)
      Parad_core.Reverse.tasks_unbatchable
  | _ -> ());
  if seeds > 1 && budget > 0 then
    invalid
      "snap_budget cannot combine with seeds > 1 (the binomial driver \
       replays single-seed sweeps)";
  let niter = geti "niter" 2 1 in
  let nx = geti "nx" 2 2 in
  let escale = getf "escale" 1.0 in
  if not (Float.is_finite escale) || escale <= 0.0 then
    invalid "escale must be finite and > 0";
  let nposes = geti "nposes" 8 1 in
  let faults =
    match Json.str_field "faults" j with
    | None -> None
    | Some spec -> (
      let seed = Json.int_field "fault_seed" j in
      let rank = Json.int_field "fault_rank" j in
      let at = Json.num_field "fault_at" j in
      match Faults.plan_of_spec ?seed ?rank ?at ~nranks spec with
      | p -> Some p
      | exception Invalid_argument m -> invalid "bad fault plan: %s" m)
  in
  let inject_nan = Json.int_field "inject_nan" j in
  if seeds > 1 && inject_nan <> None then
    invalid "inject_nan is not supported with seeds > 1";
  let san =
    match Json.str_field "sanitize" j with
    | None | Some "off" -> None
    | Some "on" | Some "degrade" -> Some Sanitizer.Degrade
    | Some "strict" -> Some Sanitizer.Strict
    | Some m -> invalid "unknown sanitize mode %S" m
  in
  let deadline =
    let cyc =
      match Json.field "deadline_cycles" j with
      | None -> None
      | Some _ -> (
        match Json.num_field "deadline_cycles" j with
        | Some v when v > 0.0 -> Some v
        | _ -> invalid "deadline_cycles must be a number > 0")
    in
    let ms =
      match Json.field "deadline_ms" j with
      | None -> default_watchdog_ms
      | Some _ -> (
        match Json.num_field "deadline_ms" j with
        | Some v when v > 0.0 -> Some v
        | _ -> invalid "deadline_ms must be a number > 0")
    in
    { Sim.dl_cycles = cyc; dl_wall_ms = ms }
  in
  let engine =
    match Json.str_field "engine" j with
    | None -> Parad_engine.Engine.Interp
    | Some s -> (
      match Parad_engine.Engine.choice_of_string s with
      | Some e -> e
      | None -> invalid "unknown engine %S (interp|seq)" s)
  in
  {
    rq_id = id;
    rq_app = app;
    rq_nranks = nranks;
    rq_nthreads = nthreads;
    rq_depth = depth;
    rq_budget = budget;
    rq_coalesce = coalesce;
    rq_seeds = seeds;
    rq_niter = niter;
    rq_nx = nx;
    rq_escale = escale;
    rq_nposes = nposes;
    rq_faults = faults;
    rq_inject_nan = inject_nan;
    rq_san = san;
    rq_deadline = deadline;
    rq_engine = engine;
  }

(** Canonical plan-cache key (DESIGN.md "gradient service"):
    app|flavor|r<ranks>|t<threads>|d<recompute-depth>|b<snap-budget>|c<coalesce>|s<seeds>,
    with the unbounded default depth spelled [dinf].
    Everything that shapes the *compiled programs* is in the key — the
    seed width is, because the adjoint kernels are emitted with k-stride
    accumulation; mesh size, horizon, faults, sanitizer and deadline are
    per-request execution state and deliberately are not. *)
let plan_key rq =
  let app, flavor =
    match rq.rq_app with
    | Lulesh fl -> "lulesh", L.flavor_name fl
    | Bude v -> "bude", MB.variant_name v
  in
  Printf.sprintf "%s|%s|r%d|t%d|d%s|b%d|c%d|s%d" app flavor rq.rq_nranks
    rq.rq_nthreads
    (Parad_core.Plan.string_of_depth rq.rq_depth)
    rq.rq_budget
    (if rq.rq_coalesce then 1 else 0)
    rq.rq_seeds

(** Everything that determines the *bits* of a fault-free,
    sanitizer-free run: the plan key plus the per-request execution
    state. The simulator is deterministic, so two requests with equal
    signatures are the same sweep — the basis for seed-batched
    coalescing in {!submit}. *)
let exec_sig rq =
  let fo = function None -> "-" | Some f -> Printf.sprintf "%h" f in
  Printf.sprintf "%s|n%d|x%d|e%h|p%d|g%s|dc%s|dw%s" (plan_key rq) rq.rq_niter
    rq.rq_nx rq.rq_escale rq.rq_nposes
    (Parad_engine.Engine.choice_to_string rq.rq_engine)
    (fo rq.rq_deadline.Sim.dl_cycles)
    (fo rq.rq_deadline.Sim.dl_wall_ms)

(* ---- compiled-plan payloads ---- *)

type plan = Plulesh of L.compiled | Pbude of MB.compiled

let compile_plan rq =
  let opts =
    {
      Parad_core.Plan.default_options with
      recompute_depth = rq.rq_depth;
      coalesce_comm = rq.rq_coalesce;
      seeds = rq.rq_seeds;
    }
  in
  match rq.rq_app with
  | Lulesh fl -> Plulesh (L.compile ~opts ~steps:(rq.rq_budget > 0) fl)
  | Bude v -> Pbude (MB.compile ~opts ~ntasks:rq.rq_nthreads v)

(* ---- gradient digest (bit-identity witness) ---- *)

let fnv_init = Bitmix.fnv_init
let digest_floats h a = Array.fold_left Bitmix.fnv_float h a

(** FNV-1a over the IEEE-754 bit patterns of every gradient component:
    equal digests mean bit-identical gradients. The warm-vs-cold
    equality assertions in [parad slam] and the plan-cache tests
    compare these. *)
let fold_lulesh h (g : L.grad_result) =
  let h = Bitmix.fnv_float h g.L.g_total in
  let h = Array.fold_left digest_floats h g.L.d_coords in
  Array.fold_left digest_floats h g.L.d_energy

let digest_lulesh g = Printf.sprintf "%016Lx" (fold_lulesh fnv_init g)

(** Batched digest: the lane digests chained in lane order, so it covers
    every adjoint column of the sweep. *)
let digest_lulesh_lanes gs =
  Printf.sprintf "%016Lx" (Array.fold_left fold_lulesh fnv_init gs)

let fold_bude h (g : MB.grad_result) =
  let h = digest_floats h g.MB.g_energies in
  let h = digest_floats h g.MB.d_lig in
  let h = digest_floats h g.MB.d_pro in
  digest_floats h g.MB.d_poses

let digest_bude g = Printf.sprintf "%016Lx" (fold_bude fnv_init g)

let digest_bude_lanes gs =
  Printf.sprintf "%016Lx" (Array.fold_left fold_bude fnv_init gs)

(* ---- service state ---- *)

type exec_result = {
  x_class : Outcome.t;
  x_error : string option;
  x_digest : string option;
  x_total : float option;
  x_cycles : float;  (** virtual makespan of the (final) attempt *)
  x_instrs : int;
  x_wall_ns : int;  (** host wall-clock spent inside the simulator *)
  x_retries : int;
}

type config = {
  workers : int;  (** virtual worker-pool width *)
  queue_cap : int;  (** queued (not yet started) requests before shedding *)
  cache_cap : int;  (** LRU plan-cache capacity *)
  breaker_k : int;  (** consecutive failures that trip a key's breaker *)
  breaker_cooldown : int;  (** rejected submissions before half-open *)
  retries : int;  (** retry budget for transient failures *)
  watchdog_ms : float option;  (** default wall watchdog per request *)
}

(* virtual backoff base of a transient-failure retry; doubles per retry *)
let backoff_cycles = 10_000.0

let default_config =
  {
    workers = 4;
    queue_cap = 8;
    cache_cap = 8;
    breaker_k = 3;
    breaker_cooldown = 4;
    retries = 2;
    watchdog_ms = Some 30_000.0;
  }

(** Last completed seed-batched sweep on a plan key. A later request
    with the same execution signature that arrives before [sw_finish]
    would have queued behind it — instead it coalesces: the simulator is
    deterministic, so the in-flight sweep's lanes *are* its lanes, and
    it rides along without consuming a worker. *)
type sweep = {
  sw_sig : string;  (** {!exec_sig} of the request that ran the sweep *)
  sw_finish : float;  (** virtual completion time of the sweep *)
  sw_result : exec_result;
}

type t = {
  cfg : config;
  cache : plan Plan_cache.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  sweeps : (string, sweep) Hashtbl.t;
      (** per plan key: the most recent coalescible batched sweep *)
  pool : float array;  (** per virtual worker: free-at time *)
  mutable vnow : float;  (** virtual arrival clock *)
  mutable starts : float list;  (** start times of admitted requests *)
  (* counters *)
  mutable submitted : int;
  mutable executed : int;
  mutable coalesced : int;
      (** requests served by riding an in-flight batched sweep *)
  mutable shed : int;
  mutable breaker_rejects : int;
  mutable retries_total : int;
  mutable wall_ns : int;
      (** host wall-clock spent inside the simulator across every
          executed request (riders add nothing: no execution) *)
  mutable by_class : (Outcome.t * int) list;
  mutable latencies : float list;  (** virtual latencies, newest first *)
  mutable draining : bool;
}

let create ?(cfg = default_config) () =
  if cfg.workers < 1 then invalid_arg "Service.create: workers must be >= 1";
  if cfg.queue_cap < 0 then invalid_arg "Service.create: queue_cap < 0";
  {
    cfg;
    cache = Plan_cache.create ~cap:cfg.cache_cap;
    breakers = Hashtbl.create 16;
    sweeps = Hashtbl.create 16;
    pool = Array.make cfg.workers 0.0;
    vnow = 0.0;
    starts = [];
    submitted = 0;
    executed = 0;
    coalesced = 0;
    shed = 0;
    breaker_rejects = 0;
    retries_total = 0;
    wall_ns = 0;
    by_class = [];
    latencies = [];
    draining = false;
  }

let breaker_for t key =
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
    let b =
      Breaker.create ~k:t.cfg.breaker_k ~cooldown:t.cfg.breaker_cooldown
    in
    Hashtbl.add t.breakers key b;
    b

let count_class t cls =
  t.by_class <-
    (match List.assoc_opt cls t.by_class with
    | Some n -> (cls, n + 1) :: List.remove_assoc cls t.by_class
    | None -> (cls, 1) :: t.by_class)

(* ---- execution ---- *)

let lulesh_input rq =
  {
    L.nx = rq.rq_nx;
    ny = rq.rq_nx;
    nz = (if rq.rq_nranks > 1 then rq.rq_nranks * 2 else 4);
    niter = rq.rq_niter;
    dt0 = 0.01;
    escale = rq.rq_escale;
  }

(* One attempt, counting into [stats]; raises on failure. Returns (class,
   digest, total, makespan, instrs) — class can still be
   degraded/findings when a sanitizer ran in degrade mode. *)
let attempt rq plan ~faults ~stats =
  let san = Option.map (fun mode -> Sanitizer.create ~mode ()) rq.rq_san in
  let deadline = rq.rq_deadline in
  let sanitizer_class () =
    match san with None -> Outcome.Ok | Some s -> Sanitizer.verdict s
  in
  (* one taping pass and one k-wide reverse sweep: lane [l] is seeded
     with [l + 1], as `parad grad --seeds` seeds it; at one lane this is
     the plain gradient, and the lane digest its digest *)
  let seeds = Array.init rq.rq_seeds (fun l -> 1.0 +. float_of_int l) in
  match plan, rq.rq_app with
  | Plulesh c, Lulesh fl when rq.rq_budget > 0 ->
    (* binomial driver: no sanitizer hook, but fault-supervised *)
    let b =
      L.gradient_binomial ~nthreads:rq.rq_nthreads ~nranks:rq.rq_nranks
        ?faults ~compiled:c ~deadline ~engine:rq.rq_engine ~stats
        ~budget:rq.rq_budget fl (lulesh_input rq)
    in
    let g = b.L.b_grad in
    ( (if b.L.b_degraded > 0 then Outcome.Degraded else Outcome.Ok),
      digest_lulesh g,
      g.L.g_total,
      g.L.g_makespan,
      g.L.g_stats.Stats.instrs )
  | Plulesh c, Lulesh _ ->
    let gs =
      L.gradient_batched ~nthreads:rq.rq_nthreads ~nranks:rq.rq_nranks
        ?faults ?san ?inject_nan:rq.rq_inject_nan ~deadline
        ~engine:rq.rq_engine ~stats c ~d_rets:seeds (lulesh_input rq)
    in
    ( sanitizer_class (),
      digest_lulesh_lanes gs,
      gs.(0).L.g_total,
      gs.(0).L.g_makespan,
      gs.(0).L.g_stats.Stats.instrs )
  | Pbude c, Bude _ ->
    let inp = MB.deck ~nposes:rq.rq_nposes ~natlig:4 ~natpro:6 in
    let gs =
      MB.gradient_batched ~nthreads:rq.rq_nthreads ?san ?faults ~deadline
        ~engine:rq.rq_engine ~stats c ~ge_seeds:seeds inp
    in
    ( sanitizer_class (),
      digest_bude_lanes gs,
      Array.fold_left ( +. ) 0.0 gs.(0).MB.g_energies,
      gs.(0).MB.g_makespan,
      gs.(0).MB.g_stats.Stats.instrs )
  | Plulesh _, Bude _ | Pbude _, Lulesh _ ->
    invalid_arg "Service.attempt: plan/app mismatch (cache key collision)"

(* Execute with retry-with-backoff. A rank kill is consumed from the
   fault plan before the retry (ULFM-style: the failed incarnation is
   gone), so a deterministic retry genuinely succeeds; detected data
   corruption likewise consumes the fired flip or message-corruption
   event from the plan's budget; other transient failures retry with
   unchanged state and are bounded by the budget. Each attempt counts
   into its own [Stats]; the host time of every attempt, failed ones
   included, is summed into [x_wall_ns]. *)
let execute t rq plan =
  let rec go ~faults ~tries ~backoff ~wall_ns =
    let stats = Stats.create () in
    match attempt rq plan ~faults ~stats with
    | cls, digest, total, cycles, instrs ->
      {
        x_class = cls;
        x_error = None;
        x_digest = Some digest;
        x_total = Some total;
        x_cycles = cycles +. backoff;
        x_instrs = instrs;
        x_wall_ns = wall_ns + stats.Stats.wall_ns;
        x_retries = tries;
      }
    | exception e when Outcome.transient e && tries < t.cfg.retries ->
      t.retries_total <- t.retries_total + 1;
      let faults = Option.map (fun p -> Outcome.consumed p e) faults in
      let pause = backoff_cycles *. Float.of_int (1 lsl tries) in
      go ~faults ~tries:(tries + 1) ~backoff:(backoff +. pause)
        ~wall_ns:(wall_ns + stats.Stats.wall_ns)
    | exception e ->
      let cls, msg = Outcome.classify e in
      {
        x_class = cls;
        x_error = Some msg;
        x_digest = None;
        x_total = None;
        x_cycles = backoff;
        x_instrs = 0;
        x_wall_ns = wall_ns + stats.Stats.wall_ns;
        x_retries = tries;
      }
  in
  go ~faults:rq.rq_faults ~tries:0 ~backoff:0.0 ~wall_ns:0

(* ---- responses ---- *)

let respond ?digest ?total ?error ?(cached = false) ?(coalesced = false)
    ?(queue = 0.0) ?(exec = 0.0) ?(retries = 0) ?key ~id cls =
  let open Json in
  let f = Printf.sprintf "%.17g" in
  Obj
    ([ "id", Num (float_of_int id); "class", Str (Outcome.name cls);
       "code", Num (float_of_int (Outcome.code cls)) ]
    @ (match key with Some k -> [ "plan_key", Str k ] | None -> [])
    @ [ "cached", Bool cached ]
    @ (if coalesced then [ "coalesced", Bool true ] else [])
    @ (match digest with Some d -> [ "digest", Str d ] | None -> [])
    @ (match total with Some v -> [ "total", Str (f v) ] | None -> [])
    @ [
        "queue_cycles", Num queue;
        "exec_cycles", Num exec;
        "latency_cycles", Num (queue +. exec);
        "retries", Num (float_of_int retries);
      ]
    @ match error with Some m -> [ "error", Str m ] | None -> [])

(* Arrival model: by default the client is closed-loop — a request
   arrives no earlier than the next worker becomes free, so a healthy
   stream never sheds. A request carrying ["burst": true] arrives at
   the *same* virtual instant as the previous one, which is how
   overload is expressed: burst past [workers] + [queue_cap] and the
   tail sheds deterministically. *)
let arrival_of t j =
  if Json.bool_field "burst" j = Some true then t.vnow
  else begin
    let free = Array.fold_left Float.min t.pool.(0) t.pool in
    let a = Float.max t.vnow free in
    t.vnow <- a;
    a
  end

(** Admit, execute and classify one already-parsed request. Never
    raises. *)
let submit t j =
  t.submitted <- t.submitted + 1;
  let arrival = arrival_of t j in
  let id = Option.value (Json.int_field "id" j) ~default:t.submitted in
  match
    request_of_json ~default_watchdog_ms:t.cfg.watchdog_ms j
  with
  | exception e ->
    let cls, m = Outcome.classify e in
    count_class t cls;
    respond ~id ~error:m cls
  | rq -> (
    let key = plan_key rq in
    let breaker = breaker_for t key in
    if t.draining then begin
      count_class t Outcome.Overloaded;
      respond ~id ~key ~error:"draining" Outcome.Overloaded
    end
    else
      (* seed-batched coalescing: a deterministic k-lane request that
         would queue behind an identical in-flight sweep rides it
         instead — one sweep serves both, no worker consumed *)
      let coalescible =
        rq.rq_seeds > 1 && rq.rq_faults = None && rq.rq_san = None
        && rq.rq_inject_nan = None
      in
      let rider =
        if coalescible then
          match Hashtbl.find_opt t.sweeps key with
          | Some sw when sw.sw_sig = exec_sig rq && arrival < sw.sw_finish
            ->
            Some sw
          | _ -> None
        else None
      in
      match rider with
      | Some sw ->
        t.coalesced <- t.coalesced + 1;
        let queue = sw.sw_finish -. arrival in
        t.latencies <- queue :: t.latencies;
        count_class t sw.sw_result.x_class;
        respond ~id ~key ~cached:true ~coalesced:true
          ?digest:sw.sw_result.x_digest ?total:sw.sw_result.x_total ~queue
          ~exec:0.0 sw.sw_result.x_class
      | None -> (
      match Breaker.admit breaker with
      | Breaker.Reject ->
        t.breaker_rejects <- t.breaker_rejects + 1;
        count_class t Outcome.Breaker_open;
        respond ~id ~key ~error:"circuit breaker open" Outcome.Breaker_open
      | Breaker.Admit | Breaker.Probe -> (
        (* bounded admission: requests that would start later than
           [arrival] are queued; past the cap we shed instead *)
        let w = ref 0 in
        Array.iteri (fun i free -> if free < t.pool.(!w) then w := i) t.pool;
        let start = Float.max arrival t.pool.(!w) in
        t.starts <- List.filter (fun s -> s > arrival) t.starts;
        if start > arrival && List.length t.starts >= t.cfg.queue_cap then begin
          t.shed <- t.shed + 1;
          count_class t Outcome.Overloaded;
          (* shedding is not a plan failure: the breaker is not charged *)
          respond ~id ~key ~error:"admission queue full" Outcome.Overloaded
        end
        else begin
          t.starts <- start :: t.starts;
          match
            Plan_cache.get_or_compile t.cache key ~compile:(fun () ->
                compile_plan rq)
          with
          | exception e ->
            (* a plan that cannot compile poisons its key *)
            let cls, m = Outcome.classify e in
            Breaker.record breaker ~ok:false;
            count_class t cls;
            respond ~id ~key ~error:m cls
          | plan, cached ->
            let r = execute t rq plan in
            t.executed <- t.executed + 1;
            t.wall_ns <- t.wall_ns + r.x_wall_ns;
            if coalescible && r.x_error = None && r.x_digest <> None then
              Hashtbl.replace t.sweeps key
                {
                  sw_sig = exec_sig rq;
                  sw_finish = start +. r.x_cycles;
                  sw_result = r;
                };
            Breaker.record breaker
              ~ok:(List.mem r.x_class Outcome.[ Ok; Findings; Degraded ]);
            let queue = start -. arrival in
            t.pool.(!w) <- start +. r.x_cycles;
            t.latencies <- (queue +. r.x_cycles) :: t.latencies;
            count_class t r.x_class;
            respond ~id ~key ~cached ?digest:r.x_digest ?total:r.x_total
              ?error:r.x_error ~queue ~exec:r.x_cycles ~retries:r.x_retries
              r.x_class
        end)))

(* ---- summary / drain ---- *)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let i = min (n - 1) (int_of_float (Float.of_int n *. p)) in
    List.nth sorted i

let breaker_totals t =
  Hashtbl.fold
    (fun _ (b : Breaker.t) (tr, pr, rec_) ->
      (tr + b.Breaker.trips, pr + b.Breaker.probes, rec_ + b.Breaker.recoveries))
    t.breakers (0, 0, 0)

let summary t =
  let trips, probes, recoveries = breaker_totals t in
  let open Json in
  Obj
    [
      "event", Str "summary";
      "submitted", Num (float_of_int t.submitted);
      "executed", Num (float_of_int t.executed);
      "coalesced", Num (float_of_int t.coalesced);
      "shed", Num (float_of_int t.shed);
      "breaker_rejects", Num (float_of_int t.breaker_rejects);
      "retries", Num (float_of_int t.retries_total);
      "cache_hits", Num (float_of_int t.cache.Plan_cache.hits);
      "cache_misses", Num (float_of_int t.cache.Plan_cache.misses);
      "cache_evictions", Num (float_of_int t.cache.Plan_cache.evictions);
      "breaker_trips", Num (float_of_int trips);
      "breaker_probes", Num (float_of_int probes);
      "breaker_recoveries", Num (float_of_int recoveries);
      "p50_cycles", Num (percentile 0.50 t.latencies);
      "p95_cycles", Num (percentile 0.95 t.latencies);
      "wall_ns", Num (float_of_int t.wall_ns);
      "classes",
      Obj
        (List.map (fun (c, n) -> Outcome.name c, Num (float_of_int n))
           t.by_class
        |> List.sort compare);
    ]

(** Graceful drain: refuse new work (subsequent submissions answer
    [overloaded]/"draining") and return the final summary. The virtual
    pool needs no waiting — execution is synchronous — so draining is
    exact, not best-effort. *)
let drain t =
  t.draining <- true;
  match summary t with
  | Json.Obj fields -> Json.Obj (("event", Json.Str "drained") :: List.remove_assoc "event" fields)
  | j -> j

(** One protocol line in, one out. Control lines: [{"cmd": "stats"}]
    and [{"cmd": "drain"}]. Anything unparseable is an [invalid]
    response, not a dead connection. *)
let handle_line t line =
  let reply =
    match Json.of_string (String.trim line) with
    | Error m -> respond ~id:0 ~error:("bad JSON: " ^ m) Outcome.Invalid
    | Ok j -> (
      match Json.str_field "cmd" j with
      | Some "stats" -> summary t
      | Some "drain" | Some "shutdown" -> drain t
      | Some c -> respond ~id:0 ~error:("unknown cmd " ^ c) Outcome.Invalid
      | None -> submit t j)
  in
  Json.to_string reply
