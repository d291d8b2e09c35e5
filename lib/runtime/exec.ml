(** High-level entry points: run a program single-rank or SPMD in virtual
    time, with helpers for building argument buffers. *)

open Parad_ir
open Value

type result = {
  values : Value.t array;  (** per-rank return values *)
  makespan : float;  (** modeled runtime (virtual cycles) *)
  stats : Stats.t;
}

(* Every entry point funnels through this wrapper so [Stats.wall_ns]
   reflects real host time spent simulating — including attempts that end
   in a structured failure (deadline, rank kill), which is why the clock
   is folded in via [Fun.protect]. *)
let timed_run ~cost ~stats ?deadline body =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      stats.Stats.wall_ns <-
        stats.Stats.wall_ns
        + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
    (fun () -> Sim.run ~cost ~stats ?deadline body)

(** Allocate a float buffer in [ctx]'s address space, initialized from
    [a]. *)
let floats (ctx : Interp.ctx) (a : float array) =
  let buf =
    Memory.alloc ctx.mem ~elem:Ty.Float ~size:(Array.length a) ~kind:Instr.Heap
      ~socket:0 ~site:"harness"
  in
  (match buf.data with
  | FCells dst -> Array.blit a 0 dst 0 (Array.length a)
  | VCells _ -> assert false);
  VPtr { buf; off = 0 }

let ints (ctx : Interp.ctx) (a : int array) =
  let buf =
    Memory.alloc ctx.mem ~elem:Ty.Int ~size:(Array.length a) ~kind:Instr.Heap
      ~socket:0 ~site:"harness"
  in
  (match buf.data with
  | VCells dst -> Array.iteri (fun i x -> dst.(i) <- VInt x) a
  | FCells _ -> assert false);
  VPtr { buf; off = 0 }

let zeros ctx n = floats ctx (Array.make n 0.0)

(** A 1-cell pointer buffer holding [v] — the descriptor indirection used
    by the Julia frontend. *)
let ptr_cell (ctx : Interp.ctx) (v : Value.t) =
  let cell_ty =
    match v with
    | VPtr p -> Ty.Ptr p.buf.elem
    | VNull t -> Ty.Ptr t
    | _ -> error "Exec.ptr_cell: not a pointer"
  in
  let buf =
    Memory.alloc ctx.mem ~elem:cell_ty ~size:1 ~kind:Instr.Gc ~socket:0
      ~site:"harness"
  in
  (match buf.data with
  | VCells a -> a.(0) <- v
  | FCells _ -> assert false);
  VPtr { buf; off = 0 }

(** Read back a float buffer. *)
let to_floats (v : Value.t) =
  match v with
  | VPtr { buf; off } ->
    Array.init
      (cells_len buf.data - off)
      (fun i -> to_float (get_cell buf.data (off + i)))
  | _ -> error "Exec.to_floats: not a pointer"

(** Run [fname] on a single rank. [setup] builds the argument list (e.g.
    with {!floats}); it runs inside the simulation. [faults] injects a
    deterministic fault plan (bit flips into sealed cache memory are the
    only events that apply to a communicator-free run). The run counts
    into [stats] (a fresh record by default), its host time included
    even when it fails. *)
let run ?(cfg = Interp.default_config) ?san ?faults ?deadline
    ?(call = Interp.call) ?(stats = Stats.create ()) prog ~fname ~setup =
  let value, makespan, stats =
    timed_run ~cost:cfg.Interp.cost ~stats ?deadline (fun () ->
        let faults = Option.map (Faults.make ~nranks:1) faults in
        let ctx = Interp.make_ctx ~cfg ?san ?faults ~prog () in
        let args = setup ctx in
        let v = call ctx fname args in
        (* end-of-run ABFT sweep: an undetected flip must never leave
           the run as a silently wrong value *)
        Interp.verify_regions ctx;
        (match san with
        | Some s -> Sanitizer.report_leaks s ~rank:0 ~mem:ctx.Interp.mem
        | None -> ());
        v)
  in
  { values = [| value |]; makespan; stats }

(* The SPMD skeleton, inside a running simulation: one communicator, one
   context per rank (built by [make_ctx]), and a fork whose member [rank]
   runs [body] and then the end-of-rank epilogue. *)
let spmd ~(cfg : Interp.config) ?faults ?mpi_ref ?san ~nranks ~make_ctx body =
  let mpi =
    Mpi_state.create ~cost:cfg.Interp.cost ~nranks ?faults
      ~coalesce:cfg.Interp.coalesce ()
  in
  (match mpi_ref with Some r -> r := Some mpi | None -> ());
  let ctxs = Array.init nranks (fun rank -> make_ctx ~mpi ~rank) in
  Sim.fork
    ~socket_of:(fun r -> mpi.Mpi_state.sockets.(r))
    ~width:nranks
    (fun ~tid:rank ~width:_ ->
      let ctx = ctxs.(rank) in
      body ctx ~rank;
      (* safety net: a program whose last adjoint op is a stage has no
         later blocking point to flush it — peers would park *)
      Mpi_state.adj_flush_all mpi ~rank;
      (* finalize semantics: a rank may complete without touching a peer
         that died after its last message was buffered; the failure must
         still surface as a structured Rank_failed, not a join deadlock on
         the parked victim *)
      Mpi_state.check_any_alive mpi ~rank;
      (* end-of-run ABFT sweep over this rank's protected caches *)
      Interp.verify_regions ctx;
      (* leaks are only meaningful on a run that completes; failed
         attempts never reach this point *)
      match san with
      | Some s -> Sanitizer.report_leaks s ~rank ~mem:ctx.Interp.mem
      | None -> ())

(** Run an arbitrary SPMD body (one call per rank) — used by harnesses
    that need several interpreter calls per rank (e.g. the tape baseline's
    forward-then-reverse sweeps). *)
let run_spmd_custom ?(cfg = Interp.default_config) ?instrument ?faults
    ?mpi_ref ?san ?deadline ?(stats = Stats.create ()) prog ~nranks ~body =
  let (), makespan, stats =
    timed_run ~cost:cfg.Interp.cost ~stats ?deadline
      (fun () ->
        spmd ~cfg ?faults ?mpi_ref ?san ~nranks body
          ~make_ctx:(fun ~mpi ~rank ->
            Interp.make_ctx ~cfg
              ?instrument:(Option.map (fun f -> f ~rank) instrument)
              ~mpi ~rank ~nranks ?san ~prog ()))
  in
  makespan, stats

(** Run [fname] on [nranks] ranks with distinct address spaces. [setup]
    builds each rank's arguments. Returns per-rank results.

    [faults] injects a deterministic fault plan into the message-passing
    runtime; [mpi_ref], when given, receives the run's {!Mpi_state.t} as
    soon as it exists, so callers can audit communication state even when
    the run terminates with {!Sim.Deadlock}. *)
let run_spmd ?cfg ?instrument ?faults ?mpi_ref ?san ?deadline ?stats
    ?(call = Interp.call) prog ~nranks ~fname ~setup =
  let values = Array.make nranks VUnit in
  let makespan, stats =
    run_spmd_custom ?cfg ?instrument ?faults ?mpi_ref ?san ?deadline ?stats
      prog ~nranks ~body:(fun ctx ~rank ->
        let args = setup ctx ~rank in
        values.(rank) <- call ctx fname args)
  in
  { values; makespan; stats }

(* ---- supervised recoverable execution ---- *)

type recovery = {
  r_restarts : int;  (** restarts the supervisor performed *)
  r_failures : Mpi_state.failure_notice list;  (** oldest first *)
  r_resumed_from : int option list;
      (** per restart: checkpoint id resumed from (None = cold restart,
          no globally-consistent checkpoint existed yet) *)
  r_plan : Faults.plan;
      (** the fault plan as the supervisor left it, without the events
          it consumed: a later run on it does not fire them again *)
  r_store : Checkpoint.store;  (** snapshots accumulated across attempts *)
}

(** Run [fname] SPMD under supervision: ranks checkpoint at their
    [parad.checkpoint] sites into a shared store; when a rank is killed
    by the fault plan, the surviving ranks' structured
    {!Mpi_state.Rank_failed} aborts the attempt, the supervisor consumes
    the fired kill from the plan's budget, rebuilds the communicator, and
    replays every rank from the latest globally-consistent checkpoint
    (cold restart when none exists). Restart attempts start their virtual
    clocks at the failure's agreement time plus the restart cost, so the
    final makespan reflects lost work and recovery overhead. Shares one
    {!Stats.t} across attempts. Re-raises the failure once
    [max_restarts] is exhausted.

    A restore that finds its snapshot missing or corrupt (checksum
    mismatch) counts as a failed attempt too: the supervisor re-plans
    from {!Checkpoint.latest_consistent} — which skips invalid snapshots
    — so recovery degrades to an older checkpoint instead of aborting.
    [policy] configures the tiered snapshot store when the supervisor
    creates it; ignored when an explicit [store] is passed. A store the
    supervisor created is returned as [r_store], for the caller to read
    and dispose, or disposed here when the run raises. The attempts
    count into [stats] (a fresh record by default). *)
let run_spmd_recoverable ?(cfg = Interp.default_config) ?faults ?mpi_ref ?san
    ?(max_restarts = 8) ?store ?policy ?deadline ?(stats = Stats.create ())
    ?(call = Interp.call) prog ~nranks ~fname ~setup =
  let own = Option.is_none store in
  let store =
    match store with
    | Some s -> s
    | None -> Checkpoint.create_store ?policy ~nranks ()
  in
  let values = Array.make nranks VUnit in
  let failures = ref [] and resumed = ref [] in
  let rec attempt plan ~base ~restarts ~resume =
    match
      timed_run ~cost:cfg.Interp.cost ~stats ?deadline (fun () ->
          if base > 0.0 then Sim.set_clock base;
          spmd ~cfg ~faults:plan ?mpi_ref ?san ~nranks
            ~make_ctx:(fun ~mpi ~rank ->
              Interp.make_ctx ~cfg ~mpi ~rank ~nranks ?san
                ~ckpt:(Checkpoint.session store ~rank ?resume ())
                ~prog ())
            (fun ctx ~rank ->
              let args = setup ctx ~rank in
              values.(rank) <- call ctx fname args))
    with
    | (), makespan, _ ->
      ( { values; makespan; stats },
        {
          r_restarts = restarts;
          r_failures = List.rev !failures;
          r_resumed_from = List.rev !resumed;
          r_plan = plan;
          r_store = store;
        } )
    | exception e when Outcome.transient e && restarts < max_restarts ->
      stats.restarts <- stats.restarts + 1;
      (* the virtual time the failure stopped the attempt at *)
      let stopped =
        match e with
        | Mpi_state.Rank_failed n ->
          failures := n :: !failures;
          n.Mpi_state.fn_agreed_at
        | Checkpoint.Snapshot_unavailable { su_id; _ } ->
          (* the resume target's snapshot turned out missing or corrupt:
             drop the id everywhere so it can't be selected again, and
             degrade to the next-oldest consistent checkpoint *)
          Checkpoint.release store ~id:su_id;
          base
        | Mpi_state.Corrupt_message c ->
          (* retransmits exhausted on a corrupted in-flight message *)
          stats.sdc_recovered <- stats.sdc_recovered + 1;
          c.Mpi_state.cm_at
        | Checkpoint.Corrupt_region { cr_at; _ } ->
          (* a bit flip landed in sealed cache memory and was caught by an
             ABFT digest: the attempt's live state is poisoned *)
          stats.sdc_recovered <- stats.sdc_recovered + 1;
          cr_at
        | _ -> base
      in
      (* replay from the latest consistent (verified-clean) checkpoint,
         with the fired event consumed from the plan's budget *)
      let resume = Checkpoint.latest_consistent store in
      resumed := resume :: !resumed;
      attempt (Outcome.consumed plan e)
        ~base:(stopped +. cfg.Interp.cost.Cost_model.restart_base)
        ~restarts:(restarts + 1) ~resume
  in
  match
    attempt
      (Option.value faults ~default:Faults.none)
      ~base:0.0 ~restarts:0 ~resume:None
  with
  | r -> r
  | exception e when own ->
    let bt = Printexc.get_raw_backtrace () in
    Checkpoint.dispose store;
    Printexc.raise_with_backtrace e bt

(** A pointer-table buffer (kernel-parameter struct): one cell per entry
    of [vs], which must all be pointers of the same element type. *)
let ptr_table (ctx : Interp.ctx) (vs : Value.t list) =
  match vs with
  | [] -> error "Exec.ptr_table: empty"
  | VPtr p :: _ ->
    let buf =
      Memory.alloc ctx.mem ~elem:(Ty.Ptr p.buf.elem) ~size:(List.length vs)
        ~kind:Instr.Heap ~socket:0 ~site:"harness"
    in
    (match buf.data with
    | VCells a -> List.iteri (fun i v -> a.(i) <- v) vs
    | FCells _ -> assert false);
    VPtr { buf; off = 0 }
  | _ -> error "Exec.ptr_table: not a pointer"
