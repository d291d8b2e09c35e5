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
module Comm_check = Parad_verify.Comm_check
module Service = Parad_server.Service
open Parad_ir

module Checkpoint = Parad_runtime.Checkpoint

(* Any exception without a dedicated report goes through the service's
   classification, so it exits with its documented code, never
   cmdliner's 125. *)
let classified_exit ?(out = stderr) e =
  let cls, msg = Service.classify_exn e in
  Printf.fprintf out "%s: %s\n" cls msg;
  Service.class_code cls

(* Uniform failure semantics for every subcommand: a deadlock prints the
   structured wait-for report and exits 3; a runtime error prints the
   message and exits 2; an exceeded --deadline-ms/--deadline-cycles
   budget exits 6 (shared with the server's "deadline" response class);
   detected-but-unsupervised data corruption (a checksum or region-digest
   mismatch with no recovery driver to absorb it) exits 9 (the server's
   "corrupted" response class); anything else exits with its service
   class code — never an uncaught exception backtrace. *)
let guarded f =
  try f () with
  | Sim.Deadlock d ->
    Format.eprintf "%a@." Sim.pp_diagnosis d;
    exit 3
  | Mpi_state.Rank_failed n ->
    Format.eprintf "%a@." Mpi_state.pp_failure n;
    exit 3
  | Sim.Deadline_exceeded d ->
    Format.eprintf "%a@." Sim.pp_deadline_hit d;
    exit 6
  | Mpi_state.Corrupt_message c ->
    Format.eprintf "%a@." Mpi_state.pp_corruption c;
    exit 9
  | Checkpoint.Corrupt_region { cr_rank; cr_cache; cr_at } ->
    Printf.eprintf
      "silent data corruption: rank %d cache %d digest mismatch at t=%.0f\n"
      cr_rank cr_cache cr_at;
    exit 9
  | Parad_runtime.Value.Runtime_error msg ->
    Printf.eprintf "runtime error: %s\n" msg;
    exit 2
  | e -> exit (classified_exit e)

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
    let prog = program_of_name fname in
    match Prog.find prog fname with
    | Some f -> print_endline (Printer.func_to_string f)
    | None -> Printf.eprintf "no function %S\n" fname
  in
  Cmd.v (Cmd.info "ir" ~doc:"print the IR of a bundled kernel")
    Term.(const run $ fname)

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
    guarded @@ fun () ->
    let prog = program_of_name fname in
    let dprog, dname = Parad_core.Reverse.gradient prog fname in
    let dprog =
      if optimize then Parad_opt.Pipeline.run dprog Parad_opt.Pipeline.post_ad
      else dprog
    in
    print_endline (Printer.func_to_string (Prog.find_exn dprog dname))
  in
  Cmd.v
    (Cmd.info "gradient"
       ~doc:"differentiate a bundled kernel and print the gradient IR")
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

let run_cmd =
  let run flavor ranks threads size iters engine =
    let inp =
      {
        L.nx = size;
        ny = size;
        nz = (size * ranks + ranks - 1) / ranks * ranks;
        niter = iters;
        dt0 = 0.01;
        escale = 1.0;
      }
    in
    guarded (fun () ->
        let r = L.run ~nranks:ranks ~nthreads:threads ~engine flavor inp in
        Printf.printf "%s: total energy %.6f, %.0f virtual cycles\n"
          (L.flavor_name flavor) r.L.total_energy r.L.makespan;
        Printf.printf "stats: %s\n"
          (Fmt.str "%a" Parad_runtime.Stats.pp r.L.stats))
  in
  Cmd.v (Cmd.info "run" ~doc:"run a LULESH variant in the simulator")
    Term.(
      const run $ flavor_arg $ ranks_arg $ threads_arg $ size_arg $ iters_arg
      $ engine_arg)

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
let snap_budget_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid snapshot budget %S" s))
    | Some n when n >= 1 -> Ok n
    | Some n ->
      Error
        (`Msg
           (Printf.sprintf
              "--snap-budget must be at least 1 (got %d): the binomial \
               schedule needs at least one live snapshot slot"
              n))
  in
  Arg.conv (parse, Format.pp_print_int)

let snap_budget_arg =
  Arg.(
    value
    & opt (some snap_budget_conv) None
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
          "wall-clock budget for the run in milliseconds (validated > 0); \
           exceeding it aborts with exit code 6. The same watchdog guards \
           every request of the gradient service, so CLI and server share \
           one timeout semantics")

let deadline_cycles_arg =
  Arg.(
    value
    & opt (some (pos_float_conv "--deadline-cycles")) None
    & info [ "deadline-cycles" ]
        ~doc:
          "virtual-time budget for the run in cycles (validated > 0); \
           exceeding it aborts with exit code 6, deterministically")

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

let grad_cmd =
  let run flavor ranks threads size iters recompute_depth no_coalesce
      snap_budget snap_tiers deadline_ms deadline_cycles plan engine seeds
      remat_rate =
    let inp =
      {
        L.nx = size;
        ny = size;
        nz = (size * ranks + ranks - 1) / ranks * ranks;
        niter = iters;
        dt0 = 0.01;
        escale = 1.0;
      }
    in
    let opts =
      {
        Parad_core.Plan.default_options with
        Parad_core.Plan.recompute_depth;
        coalesce_comm = not no_coalesce;
      }
    in
    let deadline = deadline_of deadline_ms deadline_cycles in
    let faults =
      Option.map
        (fun s ->
          try Faults.plan_of_spec ~seed:42 ~at:0.0 ~nranks:ranks s
          with Invalid_argument msg ->
            Printf.eprintf "%s\n" msg;
            exit 2)
        plan
    in
    let cost =
      Option.map
        (fun r ->
          {
            Parad_runtime.Cost_model.default with
            Parad_runtime.Cost_model.transcendental_remat = r;
          })
        remat_rate
    in
    if seeds > 1 && ranks > 1 then begin
      Printf.eprintf
        "--seeds %d needs a shared-memory run: the MPI adjoint runtime \
         exchanges single-stride planes (got --ranks %d)\n"
        seeds ranks;
      exit 2
    end;
    if seeds > 1 && snap_budget <> None then begin
      Printf.eprintf
        "--seeds cannot be combined with --snap-budget: the binomial \
         driver reverses one seed per sweep\n";
      exit 2
    end;
    guarded (fun () ->
        let p = L.run ~nranks:ranks ~nthreads:threads flavor inp in
        let g, extra =
          match snap_budget with
          | None when seeds > 1 ->
            let c =
              L.compile
                ~opts:{ opts with Parad_core.Plan.seeds }
                flavor
            in
            let d_rets =
              Array.init seeds (fun l -> 1.0 +. float_of_int l)
            in
            let gs =
              L.gradient_batched ?cost ~nthreads:threads ?faults ?deadline
                ~engine c ~d_rets inp
            in
            Printf.printf
              "batched: %d seed lanes in one reverse sweep (lane l seeded \
               with l+1)\n"
              seeds;
            gs.(0), None
          | None ->
            ( L.gradient ?cost ~nranks:ranks ~nthreads:threads ~opts ?faults
                ?deadline ~engine flavor inp,
              None )
          | Some budget ->
            let b =
              L.gradient_binomial ~nranks:ranks ~nthreads:threads ~opts
                ?faults ~tiers:snap_tiers ?deadline ~engine ~budget flavor
                inp
            in
            b.L.b_grad, Some b
        in
        Printf.printf
          "%s: forward %.0f cycles, gradient %.0f cycles, overhead %.2fx\n"
          (L.flavor_name flavor) p.L.makespan g.L.g_makespan
          (g.L.g_makespan /. p.L.makespan);
        Printf.printf
          "engine %s: gradient wall %.2f ms, %d interpreter fallback(s)\n"
          (Parad_engine.Engine.choice_to_string engine)
          (float_of_int g.L.g_stats.Parad_runtime.Stats.wall_ns /. 1e6)
          g.L.g_stats.Parad_runtime.Stats.eng_fallbacks;
        (match extra with
        | None -> ()
        | Some b ->
          Printf.printf
            "binomial: budget %d, tiers %d, %d worst-case sweep(s), %d \
             reverse segment(s), %d re-advance step(s), %d degraded \
             fetch(es)\n"
            b.L.b_budget snap_tiers b.L.b_sweeps b.L.b_segments b.L.b_advances
            b.L.b_degraded);
        let d = g.L.d_energy.(0) in
        Printf.printf "d total / d e[0..3] = %.4f %.4f %.4f %.4f\n" d.(0)
          d.(1) d.(2) d.(3);
        Printf.printf "stats: %s\n"
          (Fmt.str "%a" Parad_runtime.Stats.pp g.L.g_stats);
        match faults with
        | None -> ()
        | Some _ ->
          let s = g.L.g_stats in
          Printf.printf
            "sdc: %d injected, %d detected, %d recovered, %d message \
             retransmit(s)\n"
            s.Parad_runtime.Stats.sdc_injected
            s.Parad_runtime.Stats.sdc_detected
            s.Parad_runtime.Stats.sdc_recovered
            s.Parad_runtime.Stats.msgs_retransmitted)
  in
  Cmd.v
    (Cmd.info "grad" ~doc:"differentiate a LULESH variant and report overhead")
    Term.(
      const run $ flavor_arg $ ranks_arg $ threads_arg $ size_arg $ iters_arg
      $ recompute_depth_arg $ no_coalesce_arg $ snap_budget_arg
      $ snap_tiers_arg $ deadline_ms_arg $ deadline_cycles_arg
      $ grad_plan_arg $ engine_arg $ seeds_arg $ remat_rate_arg)

let check_cmd =
  let run () =
    guarded @@ fun () ->
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
    Printf.printf "relative error:          %.2e  (%s)\n" rel
      (if rel < 1e-5 then "OK" else "FAIL");
    if rel >= 1e-5 then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"gradient vs finite differences sanity check")
    Term.(const run $ const ())

(* ---- fault injection: run an application gradient under a fault plan
   spec, print the retry/loss statistics, the structured failure or
   deadlock diagnosis if the plan is unrecoverable, and the post-run
   communication audit. Exit codes: 0 clean, 1 audit found issues,
   2 runtime error, 3 deadlock or rank failure, 9 detected data
   corruption that exhausted its retransmit budget (unsupervised run:
   no checkpoint driver to restore from). *)
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

let parse_plan_spec ~seed ~victim ~at ~ranks spec =
  try Faults.plan_of_spec ~seed ?rank:victim ~at ~nranks:ranks spec
  with Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let faults_cmd =
  let plan_arg = plan_spec_arg ~default:"drop-retry" in
  let run app plan_name flavor ranks threads size iters seed victim at primal
      dry_run no_coalesce =
    let plan = parse_plan_spec ~seed ~victim ~at ~ranks plan_name in
    Format.printf "%a@." Faults.pp_plan plan;
    if dry_run then exit 0;
    let opts =
      {
        Parad_core.Plan.default_options with
        Parad_core.Plan.coalesce_comm = not no_coalesce;
      }
    in
    match app with
    | `Bude ->
      (* miniBUDE has no message-passing variant: the plan gates MPI
         operations only, so it cannot fire here — still run the gradient
         under the same guarded semantics. *)
      Printf.printf
        "note: miniBUDE has no MPI variant; the fault plan has nothing to \
         inject\n";
      guarded (fun () ->
          let inp = MB.deck ~nposes:16 ~natlig:8 ~natpro:16 in
          let g = MB.gradient ~nthreads:threads MB.Omp inp in
          Printf.printf "bude_omp gradient: %.0f virtual cycles, |d_poses| \
                         = %d\n"
            g.MB.g_makespan
            (Array.length g.MB.d_poses))
    | `Lulesh ->
      let inp =
        {
          L.nx = size;
          ny = size;
          nz = (size * ranks + ranks - 1) / ranks * ranks;
          niter = iters;
          dt0 = 0.01;
          escale = 1.0;
        }
      in
      let mpi_ref = ref None in
      let audit () =
        match !mpi_ref with
        | Some m ->
          let issues = Comm_check.audit m in
          print_endline (Comm_check.report issues);
          issues <> []
        | None -> false
      in
      (try
         if primal then begin
           let r =
             L.run ~nranks:ranks ~nthreads:threads ~faults:plan ~mpi_ref
               flavor inp
           in
           Printf.printf "%s under %S: total energy %.6f, %.0f virtual \
                          cycles\n"
             (L.flavor_name flavor) plan.Faults.name r.L.total_energy
             r.L.makespan;
           Printf.printf "stats: %s\n"
             (Fmt.str "%a" Parad_runtime.Stats.pp r.L.stats)
         end
         else begin
           let g =
             L.gradient ~nranks:ranks ~nthreads:threads ~opts ~faults:plan
               ~mpi_ref flavor inp
           in
           let d = g.L.d_energy.(0) in
           Printf.printf
             "%s gradient under %S: %.0f virtual cycles\nd total / d \
              e[0..3] = %.4f %.4f %.4f %.4f\n"
             (L.flavor_name flavor) plan.Faults.name g.L.g_makespan d.(0)
             d.(1) d.(2) d.(3);
           Printf.printf "stats: %s\n"
             (Fmt.str "%a" Parad_runtime.Stats.pp g.L.g_stats)
         end;
         if audit () then exit 1
       with
      | Sim.Deadlock d ->
        Format.printf "%a@." Sim.pp_diagnosis d;
        ignore (audit ());
        exit 3
      | Mpi_state.Rank_failed n ->
        Format.printf "%a@." Mpi_state.pp_failure n;
        ignore (audit ());
        exit 3
      | Mpi_state.Corrupt_message c ->
        Format.printf "%a@." Mpi_state.pp_corruption c;
        ignore (audit ());
        exit 9
      | Checkpoint.Corrupt_region { cr_rank; cr_cache; cr_at } ->
        Printf.printf
          "silent data corruption: rank %d cache %d digest mismatch at \
           t=%.0f\n"
          cr_rank cr_cache cr_at;
        ignore (audit ());
        exit 9
      | Parad_runtime.Value.Runtime_error msg ->
        Printf.printf "runtime error: %s\n" msg;
        ignore (audit ());
        exit 2
      | e ->
        let code = classified_exit ~out:stdout e in
        ignore (audit ());
        exit code)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "run an application gradient under a deterministic fault plan and \
          report the diagnosis")
    Term.(
      const run $ app_arg $ plan_arg $ flavor_arg $ ranks_arg $ threads_arg
      $ size_arg $ iters_arg $ seed_arg $ victim_arg $ at_arg $ primal_arg
      $ dry_run_arg $ no_coalesce_arg)

(* ---- checkpoint/restart: run an application under a fault plan with
   the supervised driver, so a killed rank triggers restore-and-replay
   instead of aborting. Exit codes: 0 recovered (or no fault fired) with
   a clean audit, 1 audit found issues without any restart, 2 runtime
   error, 3 failure survived past the restart budget (or deadlock),
   4 recovered but degraded (restarted, yet messages were lost or the
   audit is dirty), 9 detected corruption that survived past the restart
   budget. *)
let recover_cmd =
  let plan_arg = plan_spec_arg ~default:"kill" in
  let max_restarts_arg =
    Arg.(
      value & opt int 8
      & info [ "max-restarts" ] ~doc:"restart budget before giving up")
  in
  let run app plan_name flavor ranks threads size iters seed victim at primal
      dry_run max_restarts engine =
    let plan = parse_plan_spec ~seed ~victim ~at ~ranks plan_name in
    Format.printf "%a@." Faults.pp_plan plan;
    if dry_run then exit 0;
    match app with
    | `Bude ->
      Printf.printf
        "note: miniBUDE has no MPI variant; the fault plan has nothing to \
         inject\n";
      guarded (fun () ->
          let inp = MB.deck ~nposes:16 ~natlig:8 ~natpro:16 in
          let g = MB.gradient ~nthreads:threads MB.Omp inp in
          Printf.printf
            "bude_omp gradient: %.0f virtual cycles, |d_poses| = %d\n"
            g.MB.g_makespan
            (Array.length g.MB.d_poses))
    | `Lulesh ->
      let inp =
        {
          L.nx = size;
          ny = size;
          nz = (size * ranks + ranks - 1) / ranks * ranks;
          niter = iters;
          dt0 = 0.01;
          escale = 1.0;
        }
      in
      let mpi_ref = ref None in
      let audit_issues () =
        match !mpi_ref with
        | Some m ->
          let issues = Comm_check.audit m in
          print_endline (Comm_check.report issues);
          issues
        | None -> []
      in
      let report_recovery (recov : Exec.recovery) =
        Printf.printf "recovery: %d restart(s)\n" recov.Exec.r_restarts;
        (* rank failures carry a notice; corruption and bad-snapshot
           restarts don't, so the two lists can differ in length *)
        List.iter
          (fun n -> Format.printf "  %a@." Mpi_state.pp_failure n)
          recov.Exec.r_failures;
        List.iter
          (function
            | Some id -> Printf.printf "  resumed from checkpoint %d\n" id
            | None ->
              Printf.printf "  cold restart (no consistent checkpoint)\n")
          recov.Exec.r_resumed_from
      in
      let finish (recov : Exec.recovery) (stats : Parad_runtime.Stats.t) =
        report_recovery recov;
        Printf.printf "wall: %.2f ms inside the simulator (replays included)\n"
          (float_of_int stats.wall_ns /. 1e6);
        let issues = audit_issues () in
        let degraded = issues <> [] || stats.messages_lost > 0 in
        if recov.Exec.r_restarts > 0 && degraded then exit 4
        else if issues <> [] then exit 1
        else exit 0
      in
      (try
         if primal then begin
           let r, recov =
             L.run_recoverable ~nranks:ranks ~nthreads:threads ~faults:plan
               ~mpi_ref ~max_restarts ~engine flavor inp
           in
           Printf.printf
             "%s under %S: total energy %.6f, %.0f virtual cycles\n"
             (L.flavor_name flavor) plan.Faults.name r.L.total_energy
             r.L.makespan;
           Printf.printf "stats: %s\n"
             (Fmt.str "%a" Parad_runtime.Stats.pp r.L.stats);
           finish recov r.L.stats
         end
         else begin
           let g, recov =
             L.gradient_recoverable ~nranks:ranks ~nthreads:threads
               ~faults:plan ~mpi_ref ~max_restarts ~engine flavor inp
           in
           let d = g.L.d_energy.(0) in
           Printf.printf
             "%s gradient under %S: %.0f virtual cycles\nd total / d \
              e[0..3] = %.4f %.4f %.4f %.4f\n"
             (L.flavor_name flavor) plan.Faults.name g.L.g_makespan d.(0)
             d.(1) d.(2) d.(3);
           Printf.printf "stats: %s\n"
             (Fmt.str "%a" Parad_runtime.Stats.pp g.L.g_stats);
           finish recov g.L.g_stats
         end
       with
      | Sim.Deadlock d ->
        Format.printf "%a@." Sim.pp_diagnosis d;
        ignore (audit_issues ());
        exit 3
      | Mpi_state.Rank_failed n ->
        Format.printf "unrecovered after %d restart(s): %a@." max_restarts
          Mpi_state.pp_failure n;
        ignore (audit_issues ());
        exit 3
      | Mpi_state.Corrupt_message c ->
        Format.printf "unrecovered corruption after %d restart(s): %a@."
          max_restarts Mpi_state.pp_corruption c;
        ignore (audit_issues ());
        exit 9
      | Checkpoint.Corrupt_region { cr_rank; cr_cache; cr_at } ->
        Printf.printf
          "unrecovered corruption after %d restart(s): rank %d cache %d \
           digest mismatch at t=%.0f\n"
          max_restarts cr_rank cr_cache cr_at;
        ignore (audit_issues ());
        exit 9
      | Parad_runtime.Value.Runtime_error msg ->
        Printf.printf "runtime error: %s\n" msg;
        ignore (audit_issues ());
        exit 2
      | e ->
        let code = classified_exit ~out:stdout e in
        ignore (audit_issues ());
        exit code)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "run an application under a fault plan with checkpoint/restart \
          recovery and report the restart history")
    Term.(
      const run $ app_arg $ plan_arg $ flavor_arg $ ranks_arg $ threads_arg
      $ size_arg $ iters_arg $ seed_arg $ victim_arg $ at_arg $ primal_arg
      $ dry_run_arg $ max_restarts_arg $ engine_arg)

(* ---- ParSan: run an application (primal or gradient) under the runtime
   sanitizer and report the findings. Exit codes extend the fault/recover
   protocol: 0 clean, 1 findings (races, leaks, uninitialized reads),
   2 runtime error or strict-mode non-finite abort, 3 deadlock or rank
   failure, 4 degraded (non-finite values quarantined), 5 miscompilation
   (a dynamic race on a cell the static analysis claimed private). *)
module San = Parad_runtime.Sanitizer

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
  let run app flavor ranks threads size iters seed victim at primal plan mode
      no_race no_mem no_grad pedantic inject_nan assume_private atomic_always =
    let san =
      San.create ~race:(not no_race) ~mem:(not no_mem) ~grad:(not no_grad)
        ~uninit:pedantic ~mode ()
    in
    let opts =
      { Parad_core.Plan.default_options with atomic_always; assume_private }
    in
    let faults =
      Option.map (fun s -> parse_plan_spec ~seed ~victim ~at ~ranks s) plan
    in
    let finish () =
      Format.printf "%a@." San.pp_report san;
      exit (San.exit_code san)
    in
    try
      (match app with
      | `Bude ->
        let inp = MB.deck ~nposes:16 ~natlig:8 ~natpro:16 in
        (match inject_nan with
        | Some i when i >= 0 && i < Array.length inp.MB.pose_data ->
          inp.MB.pose_data.(i) <- Float.nan
        | _ -> ());
        if primal then begin
          let r = MB.run ~nthreads:threads ~san MB.Omp inp in
          Printf.printf "bude_omp: energies[0..3] = %.4f %.4f %.4f %.4f, \
                         %.0f virtual cycles\n"
            r.MB.energies.(0) r.MB.energies.(1) r.MB.energies.(2)
            r.MB.energies.(3) r.MB.makespan;
          Printf.printf "stats: %s\n"
            (Fmt.str "%a" Parad_runtime.Stats.pp r.MB.stats)
        end
        else begin
          let g = MB.gradient ~nthreads:threads ~san ~opts MB.Omp inp in
          Printf.printf "bude_omp gradient: %.0f virtual cycles\nd_poses\
                         [0..3] = %.4f %.4f %.4f %.4f\n"
            g.MB.g_makespan g.MB.d_poses.(0) g.MB.d_poses.(1)
            g.MB.d_poses.(2) g.MB.d_poses.(3);
          Printf.printf "stats: %s\n"
            (Fmt.str "%a" Parad_runtime.Stats.pp g.MB.g_stats)
        end
      | `Lulesh ->
        let inp =
          {
            L.nx = size;
            ny = size;
            nz = (size * ranks + ranks - 1) / ranks * ranks;
            niter = iters;
            dt0 = 0.01;
            escale = 1.0;
          }
        in
        if primal then begin
          let r =
            L.run ~nranks:ranks ~nthreads:threads ?faults ~san ?inject_nan
              flavor inp
          in
          Printf.printf "%s: total energy %.6f, %.0f virtual cycles\n"
            (L.flavor_name flavor) r.L.total_energy r.L.makespan;
          Printf.printf "stats: %s\n"
            (Fmt.str "%a" Parad_runtime.Stats.pp r.L.stats)
        end
        else begin
          let g =
            L.gradient ~nranks:ranks ~nthreads:threads ~opts ?faults ~san
              ?inject_nan flavor inp
          in
          let d = g.L.d_energy.(0) in
          Printf.printf
            "%s gradient: %.0f virtual cycles\nd total / d e[0..3] = %.4f \
             %.4f %.4f %.4f\n"
            (L.flavor_name flavor) g.L.g_makespan d.(0) d.(1) d.(2) d.(3);
          Printf.printf "stats: %s\n"
            (Fmt.str "%a" Parad_runtime.Stats.pp g.L.g_stats)
        end);
      finish ()
    with
    | San.Nonfinite_strict msg ->
      Printf.printf "gradient-integrity violation (strict): %s\n" msg;
      Format.printf "%a@." San.pp_report san;
      exit 2
    | Sim.Deadlock d ->
      Format.printf "%a@." Sim.pp_diagnosis d;
      Format.printf "%a@." San.pp_report san;
      exit 3
    | Mpi_state.Rank_failed n ->
      Format.printf "%a@." Mpi_state.pp_failure n;
      Format.printf "%a@." San.pp_report san;
      exit 3
    | Parad_runtime.Value.Runtime_error msg ->
      Printf.printf "runtime error: %s\n" msg;
      Format.printf "%a@." San.pp_report san;
      exit 2
    | e ->
      let code = classified_exit ~out:stdout e in
      Format.printf "%a@." San.pp_report san;
      exit code
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "run an application under the ParSan runtime sanitizer (race, \
          memory, and gradient-integrity checking) and report findings")
    Term.(
      const run $ app_arg $ flavor_arg $ ranks_arg $ threads_arg $ size_arg
      $ iters_arg $ seed_arg $ victim_arg $ at_arg $ primal_arg $ plan_arg
      $ mode_arg $ no_race_arg $ no_mem_arg $ no_grad_arg $ pedantic_arg
      $ inject_nan_arg $ assume_private_arg $ atomic_always_arg)

(* ---- chaos soak: randomized fault plans x checkpoint schedules, every
   trial either reproduces the faultless gradient bit-for-bit or aborts
   through a documented exit code. Exit codes: 0 zero unclassified
   trials, 1 otherwise. *)
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
    if report.Apps_lulesh.Chaos.r_unclassified > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "chaos-soak the checkpoint/recovery stack: randomized fault plans \
          and checkpoint schedules, each trial must reproduce the faultless \
          gradient bit-for-bit or abort with a documented exit code")
    Term.(const run $ trials_arg $ soak_seed_arg)

(* ---- gradient service (ISSUE 7): a long-running daemon serving
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
            "admission-queue bound: requests beyond it shed with a \
             structured overloaded response (exit-code class 7)")
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
    let svc =
      try Service.create ~cfg ()
      with Invalid_argument m ->
        Printf.eprintf "parad serve: %s\n" m;
        exit 2
    in
    match socket with
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
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "gradient service: cache compiled plans and serve JSON gradient \
          requests with admission control, per-request deadlines, crash \
          isolation and per-plan circuit breaking")
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
    if not (Slam.passed report) then exit 1
  in
  Cmd.v
    (Cmd.info "slam"
       ~doc:
         "chaos-slam the gradient service: seeded hostile request mixes \
          (invalid flags, fault plans, NaN injection, deadline busts, \
          overload bursts); every response must be classified, warm plans \
          bit-identical to cold, and the breaker must trip and recover")
    Term.(const run $ requests_arg $ slam_seed_arg)

let () =
  let info = Cmd.info "parad" ~doc:"parallel AD through compiler augmentation" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            ir_cmd; gradient_cmd; run_cmd; grad_cmd; check_cmd; faults_cmd;
            recover_cmd; sanitize_cmd; soak_cmd; serve_cmd; slam_cmd;
          ]))
