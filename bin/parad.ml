(* The parad command-line tool: inspect IR, differentiate, and run the
   bundled applications.

     parad ir lulesh_omp            print a variant's IR
     parad gradient bude_omp        print the generated gradient IR
     parad run lulesh --flavor mpi --ranks 8
     parad grad lulesh --flavor omp --threads 16
     parad check                    finite-difference sanity check *)

open Cmdliner
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module Sim = Parad_runtime.Sim
module Faults = Parad_runtime.Faults
module Mpi_state = Parad_runtime.Mpi_state
module Exec = Parad_runtime.Exec
module Stats = Parad_runtime.Stats
module San = Parad_runtime.Sanitizer
module Outcome = Parad_runtime.Outcome
module Comm_check = Parad_verify.Comm_check
module Service = Parad_server.Service
module Plan = Parad_core.Plan
open Parad_ir

(* ---- outcomes: every subcommand's run returns its class, and parad
   exits with the class's code (Outcome) ---- *)

(* [or_exit f] is [f ()]. When [f] raises, it prints the failure's report
   on [out], then runs [report] (the communication audit or the sanitizer
   report), and exits with the failure's code, never cmdliner's 125. A
   supervisor with a budget of [gave_up] restarts gave up on any failure
   it retries. *)
let or_exit ?(out = stderr) ?gave_up ?(report = fun () -> Outcome.Ok) f =
  try f ()
  with e ->
    let cls, msg = Outcome.classify e in
    (match gave_up with
    | Some n when Outcome.transient e ->
      Printf.fprintf out "unrecovered after %d restart(s): " n
    | _ -> ());
    Printf.fprintf out "%s\n%!" msg;
    ignore (report ());
    exit (Outcome.code cls)

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) (Term.map Outcome.code term)

let lulesh_flavors =
  [
    "seq", L.Seq; "omp", L.Omp; "raja", L.Raja_; "mpi", L.Mpi;
    "hybrid", L.Hybrid; "raja-mpi", L.RajaMpi; "julia", L.Jlmpi;
  ]

let program_of_name name =
  if String.length name >= 6 && String.sub name 0 6 = "lulesh" then
    match
      List.find_opt (fun (_, f) -> L.flavor_name f = name) lulesh_flavors
    with
    | Some (_, f) -> L.program f
    | None -> L.program L.Seq
  else MB.program ()

let ir_cmd =
  let fname =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FUNC" ~doc:"function name (e.g. lulesh_omp, bude_seq)")
  in
  let run fname =
    or_exit @@ fun () ->
    let f = Prog.find_exn (program_of_name fname) fname in
    print_endline (Printer.func_to_string f);
    Outcome.Ok
  in
  cmd "ir" ~doc:"print the IR of a bundled kernel" Term.(const run $ fname)

let gradient_cmd =
  let fname =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FUNC" ~doc:"function to differentiate")
  in
  let optimize =
    Arg.(value & flag & info [ "O" ] ~doc:"run the post-AD cleanup pipeline")
  in
  let run fname optimize =
    or_exit @@ fun () ->
    let prog = program_of_name fname in
    let dprog, dname = Parad_core.Reverse.gradient prog fname in
    let dprog =
      if optimize then
        Parad_opt.Pipeline.run_from dprog dname Parad_opt.Pipeline.post_ad
      else dprog
    in
    print_endline (Printer.func_to_string (Prog.find_exn dprog dname));
    Outcome.Ok
  in
  cmd "gradient" ~doc:"differentiate a bundled kernel and print the gradient IR"
    Term.(const run $ fname $ optimize)

let flavor_arg =
  Arg.(
    value
    & opt (enum lulesh_flavors) L.Seq
    & info [ "flavor" ] ~doc:"lulesh variant: seq|omp|raja|mpi|hybrid|julia")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             "interp", Parad_engine.Engine.Interp;
             "seq", Parad_engine.Engine.Seq;
           ])
        Parad_engine.Engine.Interp
    & info [ "engine" ]
        ~doc:
          "execution substrate: $(b,interp) walks the IR tree, $(b,seq) \
           runs the lowered slot-addressed instruction graph on the \
           simulator's strands. Both produce bit-identical gradients and \
           virtual time; only wall-clock changes")

(* The simulated communicator builds recursive-doubling collectives and
   halo decompositions that assume a power-of-two communicator; reject
   anything else up front with a clear message instead of failing deep in
   the run. *)
let pow2_ranks_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid rank count %S" s))
    | Some n when n > 0 && n land (n - 1) = 0 -> Ok n
    | Some n ->
      Error
        (`Msg
           (Printf.sprintf
              "--ranks must be a power of two (got %d); the simulated \
               communicator uses recursive-doubling collectives"
              n))
  in
  Arg.conv (parse, Format.pp_print_int)

let ranks_arg =
  Arg.(
    value
    & opt pow2_ranks_conv 1
    & info [ "ranks" ] ~doc:"MPI ranks (simulated; must be a power of two)")

let no_coalesce_arg =
  Arg.(
    value & flag
    & info [ "no-coalesce" ]
        ~doc:
          "disable adjoint-communication coalescing (ablation): the reverse \
           sweep answers each forward exchange with its own blocking \
           adjoint message instead of batching per-destination packed \
           messages")

(* An integer flag with a floor, rejected at parse time (exit 124) with
   the reason the floor exists. *)
let int_at_least ~flag ~min ~why =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid %s value %S" flag s))
    | Some n when n >= min -> Ok n
    | Some n ->
      Error
        (`Msg
           (Printf.sprintf "%s must be at least %d (got %d); %s" flag min n
              why))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --threads and --size share the service's nthreads and nx minimums *)
let threads_arg =
  Arg.(
    value
    & opt
        (int_at_least ~flag:"--threads" ~min:1
           ~why:"a parallel region needs at least one thread")
        1
    & info [ "threads" ] ~doc:"OpenMP threads (simulated, at least 1)")

let size_arg =
  Arg.(
    value
    & opt
        (int_at_least ~flag:"--size" ~min:2
           ~why:"the reported gradient reads four element energies")
        4
    & info [ "size" ] ~doc:"mesh edge elements (at least 2)")

let iters_arg = Arg.(value & opt int 3 & info [ "iters" ] ~doc:"time steps")

(* What every app-running subcommand runs: a LULESH variant, its rank
   and thread counts, and its input, a --size cube per rank stacked
   along z (miniBUDE reads the thread count only). *)
type conf = { flavor : L.flavor; ranks : int; threads : int; inp : L.input }

let conf_t =
  let mk flavor ranks threads size iters =
    let inp =
      { L.nx = size; ny = size; nz = size * ranks; niter = iters; dt0 = 0.01;
        escale = 1.0 }
    in
    { flavor; ranks; threads; inp }
  in
  Term.(const mk $ flavor_arg $ ranks_arg $ threads_arg $ size_arg $ iters_arg)

let print_stats s = Printf.printf "stats: %s\n" (Fmt.str "%a" Stats.pp s)

(* The two result reports. A primal run's: "<name>: <value>, <makespan>
   virtual cycles", then its counters. A gradient's: [head], when given,
   then four components under [label], then its counters. *)
let print_primal name value makespan stats =
  Printf.printf "%s: %s, %.0f virtual cycles\n" name value makespan;
  print_stats stats

let print_grad ?head label (d : float array) stats =
  Option.iter print_endline head;
  Printf.printf "%s = %.4f %.4f %.4f %.4f\n" label d.(0) d.(1) d.(2) d.(3);
  print_stats stats

let lulesh_energy r = Printf.sprintf "total energy %.6f" r.L.total_energy

let run_cmd =
  let run c engine =
    or_exit @@ fun () ->
    L.check_ranks c.flavor ~nranks:c.ranks;
    let r = L.run ~nranks:c.ranks ~nthreads:c.threads ~engine c.flavor c.inp in
    print_primal (L.flavor_name c.flavor) (lulesh_energy r) r.L.makespan
      r.L.stats;
    Outcome.Ok
  in
  cmd "run" ~doc:"run a LULESH variant in the simulator"
    Term.(const run $ conf_t $ engine_arg)

(* A negative depth has no meaning to the planner (0 already means "cache
   everything"); reject it at parse time with an actionable message
   instead of surfacing a planner invariant failure. The default, no
   bound, is written "inf". *)
let nonneg_depth_conv =
  let parse s =
    match int_of_string_opt s with
    | None when s = "inf" -> Ok max_int
    | None -> Error (`Msg (Printf.sprintf "invalid recompute depth %S" s))
    | Some n when n >= 0 -> Ok n
    | Some n ->
      Error
        (`Msg
           (Printf.sprintf
              "--recompute-depth must be non-negative (got %d); 0 caches \
               every needed value"
              n))
  in
  Arg.conv
    ( parse,
      fun ppf d ->
        Format.pp_print_string ppf (Parad_core.Plan.string_of_depth d) )

let recompute_depth_arg =
  Arg.(
    value
    & opt nonneg_depth_conv
        Parad_core.Plan.default_options.Parad_core.Plan.recompute_depth
    & info [ "recompute-depth" ]
        ~doc:
          "bound on the height of a chain the reverse sweep recomputes \
           instead of caching: 0 caches every needed value, N > 0 lets \
           the planner's cost-weighted min-cut recompute chains at most N \
           tall, and inf (the default) sets no bound, so the cut alone \
           decides (the abl-mincut knob)")

(* Snapshot budgets below 1 cannot hold even the segment being reversed;
   reject them up front rather than from the store constructor. *)
let snap_budget_arg =
  Arg.(
    value
    & opt
        (some
           (int_at_least ~flag:"--snap-budget" ~min:1
              ~why:
                "the binomial schedule needs at least one live snapshot \
                 slot"))
        None
    & info [ "snap-budget" ]
        ~doc:
          "checkpoint the outer timestep loop under a revolve-style \
           binomial schedule with at most this many snapshots live in the \
           hot tier (default: store-all, one snapshot per step)")

let snap_tiers_conv =
  let parse s =
    match int_of_string_opt s with
    | Some (1 | 2) as n -> Ok (Option.get n)
    | Some n ->
      Error
        (`Msg
           (Printf.sprintf
              "--snap-tiers must be 1 (hot ring only, evictions drop) or 2 \
               (evictions demote to the disk tier); got %d"
              n))
    | None -> Error (`Msg (Printf.sprintf "invalid tier count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let snap_tiers_arg =
  Arg.(
    value
    & opt snap_tiers_conv 2
    & info [ "snap-tiers" ]
        ~doc:
          "snapshot store tiers: 2 demotes hot-ring evictions to a \
           bandwidth-charged disk tier, 1 drops them (recovery then \
           degrades to older snapshots)")

(* Deadline budgets must be positive: a zero or negative budget would
   abort every run before its first charge, which is never what the
   caller meant — reject it at parse time. *)
let pos_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
    | Some v when v > 0.0 && Float.is_finite v -> Ok v
    | Some v ->
      Error (`Msg (Printf.sprintf "%s must be > 0 (got %g)" what v))
  in
  Arg.conv (parse, Format.pp_print_float)

let deadline_ms_arg =
  Arg.(
    value
    & opt (some (pos_float_conv "--deadline-ms")) None
    & info [ "deadline-ms" ]
        ~doc:
          (Printf.sprintf
             "wall-clock budget for the run in milliseconds (validated > \
              0); exceeding it aborts with exit code %d. The same watchdog \
              guards every request of the gradient service, so CLI and \
              server share one timeout semantics"
             (Outcome.code Outcome.Deadline)))

let deadline_cycles_arg =
  Arg.(
    value
    & opt (some (pos_float_conv "--deadline-cycles")) None
    & info [ "deadline-cycles" ]
        ~doc:
          (Printf.sprintf
             "virtual-time budget for the run in cycles (validated > 0); \
              exceeding it aborts with exit code %d, deterministically"
             (Outcome.code Outcome.Deadline)))

let deadline_of ms cycles =
  match ms, cycles with
  | None, None -> None
  | _ -> Some { Sim.dl_cycles = cycles; dl_wall_ms = ms }

let grad_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan" ]
        ~doc:
          "optional fault plan spec to run the gradient under (same syntax \
           as $(b,parad faults --plan)); SDC events — bit flips, message \
           corruption — are detected by checksums and surface in the \
           stats line (sdc_inj/sdc_det/sdc_rec/retrans)")

(* Zero or negative lane counts have no meaning to the batched planner. *)
let seeds_arg =
  Arg.(
    value
    & opt
        (int_at_least ~flag:"--seeds" ~min:1
           ~why:"1 is the classic single-seed sweep")
        1
    & info [ "seeds" ]
        ~doc:
          "number of return seeds to propagate in one batched reverse \
           sweep (k-stride adjoint planes; lane l is seeded with l+1 and \
           is bit-identical to a standalone run with --seeds 1 scaled by \
           that seed). Shared-memory flavors on a single rank only")

(* The remat rate must stay positive: it is a virtual-cycle charge. *)
let remat_rate_conv =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid remat rate %S" s))
    | Some r when r > 0.0 -> Ok r
    | Some r ->
      Error
        (`Msg
           (Printf.sprintf
              "--transcendental-remat must be positive (got %g): it is \
               the virtual-cycle cost of a rematerialized transcendental"
              r))
  in
  Arg.conv (parse, Format.pp_print_float)

let remat_rate_arg =
  Arg.(
    value
    & opt (some remat_rate_conv) None
    & info [ "transcendental-remat" ]
        ~doc:
          (Printf.sprintf
             "virtual-cycle cost of a transcendental re-evaluated inside a \
              remat chain of the reverse sweep (default %g, vs %g on the \
              primal path): models cache-hot recomputation; raising it \
              toward the primal rate shows how much of the mincut \
              planner's win depends on cheap rematerialization"
             Parad_runtime.Cost_model.default
               .Parad_runtime.Cost_model.transcendental_remat
             Parad_runtime.Cost_model.default
               .Parad_runtime.Cost_model.transcendental))

(* The one fault-plan parser; --seed, --victim and --at default to 42,
   none and 0 where a subcommand lacks them. A bad spec is an invalid
   command line. *)
let plan_of ?(seed = 42) ?victim ?(at = 0.0) ~ranks spec =
  try Faults.plan_of_spec ~seed ?rank:victim ~at ~nranks:ranks spec
  with Invalid_argument m -> raise (Outcome.Invalid_request m)

let grad_cmd =
  let run c recompute_depth no_coalesce snap_budget snap_tiers deadline_ms
      deadline_cycles plan engine seeds remat_rate =
    or_exit @@ fun () ->
    let { flavor; ranks; threads; inp } = c in
    L.check_ranks flavor ~nranks:ranks;
    L.check_seeds flavor ~seeds ~binomial:(snap_budget <> None);
    let opts =
      { Plan.default_options with recompute_depth;
        coalesce_comm = not no_coalesce }
    in
    let deadline = deadline_of deadline_ms deadline_cycles in
    let faults = Option.map (plan_of ~ranks) plan in
    let cost =
      Option.map
        (fun r ->
          {
            Parad_runtime.Cost_model.default with
            Parad_runtime.Cost_model.transcendental_remat = r;
          })
        remat_rate
    in
    let p = L.run ~nranks:ranks ~nthreads:threads flavor inp in
    let g, extra =
      match snap_budget with
      | None ->
        let c = L.compile ~opts:{ opts with Plan.seeds } flavor in
        let d_rets = Array.init seeds (fun l -> 1.0 +. float_of_int l) in
        let gs =
          L.gradient_batched ?cost ~nranks:ranks ~nthreads:threads ?faults
            ?deadline ~engine c ~d_rets inp
        in
        if seeds > 1 then
          Printf.printf
            "batched: %d seed lanes in one reverse sweep (lane l seeded \
             with l+1)\n"
            seeds;
        gs.(0), None
      | Some budget ->
        let b =
          L.gradient_binomial ~nranks:ranks ~nthreads:threads ~opts ?faults
            ~tiers:snap_tiers ?deadline ~engine ~budget flavor inp
        in
        b.L.b_grad, Some b
    in
    let s = g.L.g_stats in
    Printf.printf
      "%s: forward %.0f cycles, gradient %.0f cycles, overhead %.2fx\n"
      (L.flavor_name flavor) p.L.makespan g.L.g_makespan
      (g.L.g_makespan /. p.L.makespan);
    Printf.printf
      "engine %s: gradient wall %.2f ms, %d interpreter fallback(s)\n"
      (Parad_engine.Engine.choice_to_string engine)
      (float_of_int s.Stats.wall_ns /. 1e6)
      s.Stats.eng_fallbacks;
    Option.iter
      (fun b ->
        Printf.printf
          "binomial: budget %d, tiers %d, %d worst-case sweep(s), %d reverse \
           segment(s), %d re-advance step(s), %d degraded fetch(es)\n"
          b.L.b_budget snap_tiers b.L.b_sweeps b.L.b_segments b.L.b_advances
          b.L.b_degraded)
      extra;
    print_grad "d total / d e[0..3]" g.L.d_energy.(0) s;
    if Option.is_some faults then
      Printf.printf
        "sdc: %d injected, %d detected, %d recovered, %d message \
         retransmit(s)\n"
        s.Stats.sdc_injected s.Stats.sdc_detected s.Stats.sdc_recovered
        s.Stats.msgs_retransmitted;
    Outcome.Ok
  in
  cmd "grad" ~doc:"differentiate a LULESH variant and report overhead"
    Term.(
      const run $ conf_t $ recompute_depth_arg $ no_coalesce_arg
      $ snap_budget_arg $ snap_tiers_arg $ deadline_ms_arg
      $ deadline_cycles_arg $ grad_plan_arg $ engine_arg $ seeds_arg
      $ remat_rate_arg)

let check_cmd =
  let run () =
    or_exit @@ fun () ->
    let tiny =
      { L.nx = 2; ny = 2; nz = 4; niter = 3; dt0 = 0.01; escale = 1.0 }
    in
    let g = L.gradient L.Seq tiny in
    let m = L.mesh tiny ~nranks:1 ~rank:0 in
    let directional =
      Array.fold_left ( +. ) 0.0
        (Array.mapi (fun k ek -> ek *. g.L.d_energy.(0).(k)) m.L.energy)
    in
    let h = 1e-6 in
    let loss s = (L.run L.Seq { tiny with L.escale = s }).L.total_energy in
    let fd = (loss (1.0 +. h) -. loss (1.0 -. h)) /. (2.0 *. h) in
    Printf.printf "reverse-mode projection: %.10g\n" directional;
    Printf.printf "finite differences:      %.10g\n" fd;
    let rel = Float.abs (fd -. directional) /. Float.max 1.0 (Float.abs fd) in
    let ok = rel < 1e-5 in
    Printf.printf "relative error:          %.2e  (%s)\n" rel
      (if ok then "OK" else "FAIL");
    if ok then Outcome.Ok else Outcome.Findings
  in
  cmd "check" ~doc:"gradient vs finite differences sanity check"
    Term.(const run $ const ())

(* ---- the app runs behind faults, recover and sanitize: a gradient or
   primal under a fault plan, the supervised restart driver or the
   sanitizer, and the report that settles its class ---- *)
let plan_spec_arg ~default =
  Arg.(
    value
    & opt string default
    & info [ "plan" ]
        ~doc:
          (Printf.sprintf
             "fault plan spec: one of %s, optionally followed by \
              :key=val,... overrides (seed, victim, at, retries, backoff, \
              deadline, prob, kill=R[@T], stall=R@T@D, \
              flip=R@CELL@BIT[@T], corrupt-msg=N[@BYTE[@sticky]]; \
              kill/stall/flip/corrupt-msg are repeatable; scalar keys at \
              most once)"
             (String.concat "|" Faults.plan_names)))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"fault plan PRNG seed")

let victim_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "victim" ] ~doc:"rank targeted by stall/kill/blackhole/delay plans")

let at_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "at" ] ~doc:"virtual time a stall/kill fires at")

let primal_arg =
  Arg.(
    value & flag
    & info [ "primal" ] ~doc:"run the primal instead of the gradient")

let app_arg =
  Arg.(
    value
    & opt (enum [ "lulesh", `Lulesh; "bude", `Bude ]) `Lulesh
    & info [ "app" ] ~doc:"application: lulesh|bude")

let dry_run_arg =
  Arg.(
    value & flag
    & info [ "dry-run" ] ~doc:"print the parsed fault plan and exit")

(* --seed, --victim and --at, and the plan parser they configure *)
let plan_t =
  Term.(
    const (fun seed victim at -> plan_of ~seed ?victim ~at)
    $ seed_arg $ victim_arg $ at_arg)

let print_recovery restarts ~failures ~resumed =
  Printf.printf "recovery: %d restart(s)\n" restarts;
  (* rank failures carry a notice; corruption and bad-snapshot restarts
     don't, so the two lists can differ in length *)
  List.iter (fun n -> Format.printf "  %a@." Mpi_state.pp_failure n) failures;
  List.iter
    (function
      | Some id -> Printf.printf "  resumed from checkpoint %d\n" id
      | None -> Printf.printf "  cold restart (no consistent checkpoint)\n")
    resumed

let print_wall (s : Stats.t) =
  Printf.printf "wall: %.2f ms inside the simulator (replays included)\n"
    (float_of_int s.wall_ns /. 1e6)

let print_lulesh_recovery (r : Exec.recovery) (s : Stats.t) =
  print_recovery r.r_restarts ~failures:r.r_failures ~resumed:r.r_resumed_from;
  print_wall s

(* miniBUDE has no MPI variant: of a fault plan, only flips can fire *)
let note_ignored app (plan : Faults.plan) =
  match app, Faults.mpi_entries plan with
  | `Bude, (_ :: _ as ignored) ->
    Printf.printf "note: miniBUDE runs no MPI; these plan entries cannot fire: %s\n"
      (String.concat "; " ignored)
  | _ -> ()

(* The body faults, recover and sanitize share. It runs [app]'s primal or
   gradient under [faults] and [san], supervised when [max_restarts] is
   given: LULESH by the checkpoint/restart driver, miniBUDE by re-running
   with each detected flip consumed. It prints the result and the
   restart history, then [report]'s. A failure goes to stdout, before
   [report]; a LULESH flavor that cannot run on [c.ranks] is rejected
   without it. A completed run's class is [report]'s verdict, or
   [Degraded] when it needed a restart and lost messages or has
   findings. *)
let run_app ?faults ?san ?inject_nan ?engine ?max_restarts ?mpi_ref ~opts
    ~report app c ~primal =
  let under =
    match faults with
    | Some p -> Printf.sprintf " under %S" p.Faults.name
    | None -> ""
  in
  if app = `Lulesh then
    or_exit ~out:stdout (fun () -> L.check_ranks c.flavor ~nranks:c.ranks);
  or_exit ~out:stdout ?gave_up:max_restarts ~report @@ fun () ->
  let { flavor; ranks = nranks; threads = nthreads; inp } = c in
  let name = L.flavor_name flavor ^ under in
  let deck () =
    let d = MB.deck ~nposes:16 ~natlig:8 ~natpro:16 in
    (match inject_nan with
    | Some i when i >= 0 && i < Array.length d.MB.pose_data ->
      d.MB.pose_data.(i) <- Float.nan
    | _ -> ());
    d
  in
  let restarts, (stats : Stats.t) =
    match app, primal with
    | `Lulesh, true ->
      let r, recovery =
        match max_restarts with
        | None ->
          ( L.run ~nranks ~nthreads ?faults ?mpi_ref ?san ?inject_nan ?engine
              flavor inp,
            None )
        | Some max_restarts ->
          let r, v =
            L.run_recoverable ~nranks ~nthreads ?faults ?mpi_ref ?san
              ~max_restarts ?engine flavor inp
          in
          r, Some v
      in
      print_primal name (lulesh_energy r) r.L.makespan r.L.stats;
      Option.iter (fun v -> print_lulesh_recovery v r.L.stats) recovery;
      Option.map (fun v -> v.Exec.r_restarts) recovery, r.L.stats
    | `Lulesh, false ->
      let g, recovery =
        match max_restarts with
        | None ->
          ( L.gradient ~nranks ~nthreads ~opts ?faults ?mpi_ref ?san
              ?inject_nan ?engine flavor inp,
            None )
        | Some max_restarts ->
          let g, v =
            L.gradient_recoverable ~nranks ~nthreads ~opts ?faults ?mpi_ref
              ?san ~max_restarts ?engine flavor inp
          in
          g, Some v
      in
      print_grad
        ~head:
          (Printf.sprintf "%s gradient%s: %.0f virtual cycles"
             (L.flavor_name flavor) under g.L.g_makespan)
        "d total / d e[0..3]" g.L.d_energy.(0) g.L.g_stats;
      Option.iter (fun v -> print_lulesh_recovery v g.L.g_stats) recovery;
      Option.map (fun v -> v.Exec.r_restarts) recovery, g.L.g_stats
    | `Bude, true ->
      let r = MB.run ~nthreads ?faults ?san ?engine MB.Omp (deck ()) in
      let e = r.MB.energies in
      print_primal ("bude_omp" ^ under)
        (Printf.sprintf "energies[0..3] = %.4f %.4f %.4f %.4f" e.(0) e.(1)
           e.(2) e.(3))
        r.MB.makespan r.MB.stats;
      None, r.MB.stats
    | `Bude, false ->
      let g, restarts =
        MB.gradient_restarting ~nthreads ?san ?faults ?engine
          ~max_restarts:(Option.value max_restarts ~default:0)
          (MB.compile ~opts ~ntasks:nthreads MB.Omp)
          (deck ())
      in
      print_grad
        ~head:
          (Printf.sprintf "bude_omp gradient%s: %.0f virtual cycles" under
             g.MB.g_makespan)
        "d_poses[0..3]" g.MB.d_poses g.MB.g_stats;
      if Option.is_some max_restarts then begin
        print_recovery restarts ~failures:[]
          ~resumed:(List.init restarts (fun _ -> None));
        print_wall g.MB.g_stats
      end;
      Option.map (fun _ -> restarts) max_restarts, g.MB.g_stats
  in
  match report (), restarts with
  | verdict, Some n
    when n > 0 && (verdict <> Outcome.Ok || stats.messages_lost > 0) ->
    Outcome.Degraded
  | verdict, _ -> verdict

(* The communication audit faults and recover print after the run: a
   dirty audit is a finding. *)
let audit mpi_ref () =
  match !mpi_ref with
  | None -> Outcome.Ok
  | Some m ->
    let issues = Comm_check.audit m in
    print_endline (Comm_check.report issues);
    if issues = [] then Outcome.Ok else Outcome.Findings

(* faults and recover: print the parsed plan, then run under it *)
let fault_run ?engine ?max_restarts ~opts app spec c plan_of ~primal
    ~dry_run =
  let plan = or_exit (fun () -> plan_of ~ranks:c.ranks spec) in
  Format.printf "%a@." Faults.pp_plan plan;
  note_ignored app plan;
  if dry_run then Outcome.Ok
  else
    let mpi_ref = ref None in
    run_app ~faults:plan ?engine ?max_restarts ~mpi_ref ~opts
      ~report:(audit mpi_ref) app c ~primal

(* ---- fault injection: run an application under a fault plan spec,
   print the retry/loss statistics, the structured failure or deadlock
   diagnosis if the plan is unrecoverable, and the post-run communication
   audit. Unsupervised: detected corruption that exhausted its retransmit
   budget surfaces as corrupted, with no checkpoint to restore from. *)
let faults_cmd =
  let run app spec c plan_of primal dry_run no_coalesce =
    let opts = { Plan.default_options with coalesce_comm = not no_coalesce } in
    fault_run ~opts app spec c plan_of ~primal ~dry_run
  in
  cmd "faults"
    ~doc:
      "run an application gradient under a deterministic fault plan and \
       report the diagnosis"
    Term.(
      const run $ app_arg $ plan_spec_arg ~default:"drop-retry" $ conf_t
      $ plan_t $ primal_arg $ dry_run_arg $ no_coalesce_arg)

(* ---- checkpoint/restart: run an application under a fault plan with the
   supervised driver, so a killed rank or detected corruption triggers
   restore-and-replay instead of aborting. A failure that outlives the
   restart budget is reported as unrecovered; a run that restarted but
   lost messages or has a dirty audit is degraded. *)
let recover_cmd =
  let max_restarts_arg =
    Arg.(
      value & opt int 8
      & info [ "max-restarts" ] ~doc:"restart budget before giving up")
  in
  let run app spec c plan_of primal dry_run max_restarts engine =
    fault_run ~engine ~max_restarts ~opts:Plan.default_options app spec c
      plan_of ~primal ~dry_run
  in
  cmd "recover"
    ~doc:
      "run an application under a fault plan with checkpoint/restart \
       recovery and report the restart history"
    Term.(
      const run $ app_arg $ plan_spec_arg ~default:"kill" $ conf_t $ plan_t
      $ primal_arg $ dry_run_arg $ max_restarts_arg $ engine_arg)

(* ---- ParSan: run an application (primal or gradient) under the runtime
   sanitizer and report the findings after the result or the failure. A
   completed run's class is the sanitizer's verdict. *)
let sanitize_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ "strict", San.Strict; "degrade", San.Degrade ]) San.Strict
      & info [ "mode" ]
          ~doc:
            "non-finite policy: $(b,strict) aborts at the first originating \
             NaN/Inf with provenance; $(b,degrade) quarantines (zeroes) the \
             value, counts it, and finishes")
  in
  let no_race_arg =
    Arg.(value & flag & info [ "no-race" ] ~doc:"disable the race checker")
  in
  let no_mem_arg =
    Arg.(
      value & flag
      & info [ "no-mem" ] ~doc:"disable the memory checker (leaks, poison)")
  in
  let no_grad_arg =
    Arg.(
      value & flag
      & info [ "no-grad" ] ~doc:"disable the gradient-integrity (NaN/Inf) \
                                 checker")
  in
  let pedantic_arg =
    Arg.(
      value & flag
      & info [ "pedantic-uninit" ]
          ~doc:
            "also flag reads of never-written cells (off by default: adjoint \
             buffers legitimately read their zero initialization)")
  in
  let inject_nan_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-nan" ] ~docv:"IDX"
          ~doc:
            "poison one input cell with NaN before the run (lulesh: element \
             energy IDX on rank 0; bude: pose datum IDX) to exercise GradSan")
  in
  let assume_private_arg =
    Arg.(
      value & flag
      & info [ "assume-private" ]
          ~doc:
            "compile the gradient as if every shadow buffer were \
             thread-private (deliberately unsound; seeds the miscompilation \
             RaceSan's cross-validation must catch)")
  in
  let atomic_always_arg =
    Arg.(
      value & flag
      & info [ "atomic-always" ]
          ~doc:"compile every shadow accumulation as atomic (the abl-tl \
                ablation; must sanitize clean)")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ]
          ~doc:"optional fault plan spec to compose with sanitizing (same \
                syntax as $(b,parad faults --plan))")
  in
  let run app c plan_of primal plan mode no_race no_mem no_grad pedantic
      inject_nan assume_private atomic_always =
    let faults =
      or_exit (fun () -> Option.map (plan_of ~ranks:c.ranks) plan)
    in
    Option.iter (note_ignored app) faults;
    let san =
      San.create ~race:(not no_race) ~mem:(not no_mem) ~grad:(not no_grad)
        ~uninit:pedantic ~mode ()
    in
    let report () =
      Format.printf "%a@." San.pp_report san;
      San.verdict san
    in
    let opts = { Plan.default_options with atomic_always; assume_private } in
    run_app ?faults ~san ?inject_nan ~opts ~report app c ~primal
  in
  cmd "sanitize"
    ~doc:
      "run an application under the ParSan runtime sanitizer (race, memory, \
       and gradient-integrity checking) and report findings"
    Term.(
      const run $ app_arg $ conf_t $ plan_t $ primal_arg $ plan_arg $ mode_arg
      $ no_race_arg $ no_mem_arg $ no_grad_arg $ pedantic_arg $ inject_nan_arg
      $ assume_private_arg $ atomic_always_arg)

(* ---- chaos soak: randomized fault plans x checkpoint schedules, every
   trial either reproduces the faultless gradient bit-for-bit or aborts
   through a documented exit code. An unclassified trial is a finding. *)
let soak_cmd =
  let trials_arg =
    Arg.(
      value & opt int 50
      & info [ "trials" ] ~doc:"seeded fault/schedule combinations to run")
  in
  let soak_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "soak PRNG seed; the whole soak is a pure function of it, so a \
             failing trial replays exactly")
  in
  let run trials seed =
    let report =
      Apps_lulesh.Chaos.soak ~trials ~log:print_endline ~seed ()
    in
    Printf.printf
      "soak: seed %d, %d trial(s): %d bit-identical, %d classified clean \
       abort(s), %d UNCLASSIFIED\n"
      report.Apps_lulesh.Chaos.r_seed trials
      report.Apps_lulesh.Chaos.r_identical
      report.Apps_lulesh.Chaos.r_classified
      report.Apps_lulesh.Chaos.r_unclassified;
    if report.Apps_lulesh.Chaos.r_unclassified > 0 then Outcome.Findings
    else Outcome.Ok
  in
  cmd "soak"
    ~doc:
      "chaos-soak the checkpoint/recovery stack: randomized fault plans and \
       checkpoint schedules, each trial must reproduce the faultless \
       gradient bit-for-bit or abort with a documented exit code"
    Term.(const run $ trials_arg $ soak_seed_arg)

(* ---- gradient service: a long-running daemon serving
   newline-delimited JSON gradient requests against cached plans, every
   response classified through the extended exit-code taxonomy. ---- *)

module Slam = Parad_server.Slam
module Sjson = Parad_server.Json

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ]
          ~docv:"PATH"
          ~doc:
            "serve a Unix-domain socket at $(docv) (one line of JSON per \
             request/response); default is --stdin batch mode")
  in
  let stdin_arg =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "batch mode: read requests from stdin, answer on stdout, drain \
             at EOF (the mode CI smoke-tests)")
  in
  let workers_arg =
    Arg.(
      value & opt int Service.default_config.Service.workers
      & info [ "workers" ] ~doc:"virtual worker-pool width")
  in
  let queue_arg =
    Arg.(
      value & opt int Service.default_config.Service.queue_cap
      & info [ "queue" ]
          ~doc:
            (Printf.sprintf
               "admission-queue bound: requests beyond it shed with a \
                structured overloaded response (exit-code class %d)"
               (Outcome.code Outcome.Overloaded)))
  in
  let cache_arg =
    Arg.(
      value & opt int Service.default_config.Service.cache_cap
      & info [ "cache" ] ~doc:"LRU plan-cache capacity (compiled plans)")
  in
  let breaker_k_arg =
    Arg.(
      value & opt int Service.default_config.Service.breaker_k
      & info [ "breaker-k" ]
          ~doc:"consecutive failures that trip a plan key's circuit breaker")
  in
  let breaker_cooldown_arg =
    Arg.(
      value & opt int Service.default_config.Service.breaker_cooldown
      & info [ "breaker-cooldown" ]
          ~doc:
            "submissions rejected on an open key before it half-opens \
             (submission-counted for determinism)")
  in
  let retries_arg =
    Arg.(
      value & opt int Service.default_config.Service.retries
      & info [ "retries" ]
          ~doc:
            "retry budget for transient failures (consumed rank kills, \
             missing snapshots); each retry charges exponential virtual \
             backoff")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (some (pos_float_conv "--watchdog-ms")) None
      & info [ "watchdog-ms" ]
          ~doc:
            "default wall-clock watchdog applied to requests that carry no \
             deadline_ms of their own (0 < ms); off when omitted")
  in
  let run socket stdin workers queue cache breaker_k breaker_cooldown retries
      watchdog_ms =
    or_exit @@ fun () ->
    let cfg =
      {
        Service.workers;
        queue_cap = queue;
        cache_cap = cache;
        breaker_k;
        breaker_cooldown;
        retries;
        watchdog_ms;
      }
    in
    let svc = Service.create ~cfg () in
    (match socket with
    | None ->
      ignore stdin;
      (* stdin batch: the default, and what scripts/check.sh smokes *)
      (try
         while true do
           let line = input_line Stdlib.stdin in
           if String.trim line <> "" then
             print_endline (Service.handle_line svc line)
         done
       with End_of_file -> ());
      print_endline (Sjson.to_string (Service.drain svc))
    | Some path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      Printf.eprintf "parad serve: listening on %s\n%!" path;
      let drained = ref false in
      while not !drained do
        let client, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        (try
           while not !drained do
             let line = input_line ic in
             if String.trim line <> "" then begin
               let reply = Service.handle_line svc line in
               output_string oc (reply ^ "\n");
               flush oc;
               (* a drain command answers, then shuts the daemon down *)
               match Sjson.of_string line with
               | Ok j
                 when Sjson.str_field "cmd" j = Some "drain"
                      || Sjson.str_field "cmd" j = Some "shutdown" ->
                 drained := true
               | _ -> ()
             end
           done
         with End_of_file | Sys_error _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ())
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ()));
    Outcome.Ok
  in
  cmd "serve"
    ~doc:
      "gradient service: cache compiled plans and serve JSON gradient \
       requests with admission control, per-request deadlines, crash \
       isolation and per-plan circuit breaking"
    Term.(
      const run $ socket_arg $ stdin_arg $ workers_arg $ queue_arg $ cache_arg
      $ breaker_k_arg $ breaker_cooldown_arg $ retries_arg $ watchdog_arg)

let slam_cmd =
  let requests_arg =
    Arg.(
      value & opt int 50
      & info [ "requests" ]
          ~doc:"seeded chaos requests in the mixed phase (plus directed phases)")
  in
  let slam_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "slam PRNG seed; the whole run is a pure function of it, so a \
             failure replays exactly")
  in
  let run requests seed =
    let report = Slam.run ~trials:requests ~log:print_endline ~seed () in
    Printf.printf
      "slam: seed %d, %d request(s), %d response(s): %d unclassified, %d \
       warm/cold mismatch(es), %d shed, breaker %d trip(s) %d recovery(ies), \
       drained %b\n"
      report.Slam.s_seed report.Slam.s_requests report.Slam.s_responses
      report.Slam.s_unclassified report.Slam.s_mismatches report.Slam.s_shed
      report.Slam.s_trips report.Slam.s_recoveries report.Slam.s_drained;
    List.iter
      (fun (cls, n) -> Printf.printf "  class %-13s %d\n" cls n)
      report.Slam.s_classes;
    if Slam.passed report then Outcome.Ok else Outcome.Findings
  in
  cmd "slam"
    ~doc:
      "chaos-slam the gradient service: seeded hostile request mixes \
       (invalid flags, fault plans, NaN injection, deadline busts, overload \
       bursts); every response must be classified, warm plans bit-identical \
       to cold, and the breaker must trip and recover"
    Term.(const run $ requests_arg $ slam_seed_arg)

let () =
  let info = Cmd.info "parad" ~doc:"parallel AD through compiler augmentation" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            ir_cmd; gradient_cmd; run_cmd; grad_cmd; check_cmd; faults_cmd;
            recover_cmd; sanitize_cmd; soak_cmd; serve_cmd; slam_cmd;
          ]))
