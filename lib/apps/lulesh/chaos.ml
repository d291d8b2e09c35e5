(** Seeded chaos soak for the unified checkpoint/recovery stack.

    Each trial draws a random combination of checkpoint schedule
    (store-all supervised vs. binomial under a snapshot budget), tiering
    policy, horizon length, and fault plan (rank kills at random virtual
    times, snapshot corruption at random store points, silent bit flips
    into sealed cache memory, in-flight packed-message corruption — the
    SDC trials run on both LULESH and miniBUDE), runs the application
    gradient under it, and classifies the outcome:

    - {e Identical}: the run completed and its gradient is bit-identical
      to the faultless store-all baseline — recovery reproduced the
      derivative exactly.
    - {e Classified}: the run aborted through a structured, documented
      failure — a rank failure, deadlock, runtime error, unavailable
      snapshot or unrecovered corruption, with its {!Outcome} code — e.g.
      the restart budget was exhausted. Clean aborts are acceptable chaos
      outcomes.
    - {e Unclassified}: anything else — a completed run whose gradient
      differs from the baseline, or an undocumented exception. Any
      unclassified outcome is a bug in the recovery stack; the soak
      gate requires zero.

    The whole soak is a pure function of its seed: the per-trial PRNG is
    splitmix64 streams derived from [seed] and the trial index, and the
    simulator is virtual-time deterministic, so a failing trial replays
    exactly from its printed seed. *)

open Parad_runtime

(* ---- outcomes ---- *)

type outcome =
  | Identical
  | Classified of int * string  (** exit code, short reason *)
  | Unclassified of string

type trial = {
  t_index : int;
  t_desc : string;  (** replayable description of the drawn combination *)
  t_outcome : outcome;
}

type report = {
  r_seed : int;
  r_trials : trial list;  (** in execution order *)
  r_identical : int;
  r_classified : int;
  r_unclassified : int;
}

(* Only these failure kinds are clean aborts. Any other exception — an
   [Invalid_argument], say — is a bug in the recovery stack, even though
   the taxonomy gives it a class too. *)
let classify e =
  match e with
  | Mpi_state.Rank_failed _ | Sim.Deadlock _ | Value.Runtime_error _
  | Checkpoint.Snapshot_unavailable _ | Mpi_state.Corrupt_message _
  | Checkpoint.Corrupt_region _ ->
    let cls, msg = Outcome.classify e in
    (* a deadlock's report goes on to list every parked strand *)
    Classified (Outcome.code cls, List.hd (String.split_on_char '\n' msg))
  | e -> Unclassified (Printexc.to_string e)

let bits_eq (a : float array) (b : float array) =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
          then ok := false)
        a;
      !ok)

let grads_eq (a : Lulesh.grad_result) (b : Lulesh.grad_result) =
  Array.length a.Lulesh.d_coords = Array.length b.Lulesh.d_coords
  && Array.for_all2 bits_eq a.Lulesh.d_coords b.Lulesh.d_coords
  && Array.for_all2 bits_eq a.Lulesh.d_energy b.Lulesh.d_energy

module MB = Apps_minibude.Minibude

let mb_grads_eq (a : MB.grad_result) (b : MB.grad_result) =
  bits_eq a.MB.g_energies b.MB.g_energies
  && bits_eq a.MB.d_lig b.MB.d_lig
  && bits_eq a.MB.d_pro b.MB.d_pro
  && bits_eq a.MB.d_poses b.MB.d_poses

(* ---- the soak ---- *)

let input niter = { Lulesh.nx = 2; ny = 2; nz = 4; niter; dt0 = 0.01; escale = 1.0 }

(** One soak of [trials] seeded combinations. Faultless store-all
    baselines are computed once per (flavor, horizon) and shared across
    trials. [log], when given, receives one line per finished trial. *)
let soak ?(trials = 50) ?log ~seed () : report =
  let baselines : (string * int, Lulesh.grad_result) Hashtbl.t =
    Hashtbl.create 8
  in
  let baseline flavor niter =
    let key = (Lulesh.flavor_name flavor, niter) in
    match Hashtbl.find_opt baselines key with
    | Some g -> g
    | None ->
      let g = Lulesh.gradient ~nranks:2 flavor (input niter) in
      Hashtbl.add baselines key g;
      g
  in
  let mb_baselines : (int, MB.grad_result) Hashtbl.t = Hashtbl.create 4 in
  let mb_baseline nposes =
    match Hashtbl.find_opt mb_baselines nposes with
    | Some g -> g
    | None ->
      let g = MB.gradient MB.Omp (MB.deck ~nposes ~natlig:4 ~natpro:6) in
      Hashtbl.add mb_baselines nposes g;
      g
  in
  let run_trial i =
    let r = Bitmix.rng ((seed * 1_000_003) + i) in
    let niter = 3 + Bitmix.draw_int r 4 in
    let inp = input niter in
    let flavor = Lulesh.Mpi in
    let base = baseline flavor niter in
    let fault_seed = 1 + Bitmix.draw_int r 1000 in
    let kills r n =
      List.init n (fun _ ->
          (* anywhere from early forward sweep to past the clean end (a
             kill beyond the makespan simply never fires) *)
          0.02 +. (Bitmix.draw_float r *. 1.1))
      |> List.map (fun frac -> frac *. base.Lulesh.g_makespan)
    in
    (* the plan name "kill" already carries one kill — retarget it with
       victim/at and only append the extras, so the description names
       exactly the kills that can fire *)
    let spec_of_kills = function
      | [] -> invalid_arg "spec_of_kills: no kills"
      | at :: rest ->
        Printf.sprintf "kill:victim=1,at=%.0f%s" at
          (String.concat ""
             (List.map (Printf.sprintf ",kill=1@%.0f") rest))
    in
    let scenario = Bitmix.draw_int r 6 in
    let desc, outcome =
      match scenario with
      | 0 ->
        (* binomial schedule + snapshot corruption at random store points *)
        let budget = 1 + Bitmix.draw_int r 4 in
        let tiers = 1 + Bitmix.draw_int r 2 in
        let corrupt_p = 0.15 +. (0.25 *. Bitmix.draw_float r) in
        let cr = Bitmix.rng ((seed * 7_368_787) + i) in
        let on_snapshot ~step ~store =
          if step > 0 && Bitmix.draw_bool cr corrupt_p then
            for rank = 0 to 1 do
              Checkpoint.corrupt store ~rank ~id:step
            done
        in
        let desc =
          Printf.sprintf
            "binomial niter=%d budget=%d tiers=%d corrupt_p=%.2f" niter
            budget tiers corrupt_p
        in
        ( desc,
          try
            let res =
              Lulesh.gradient_binomial ~nranks:2 ~tiers ~on_snapshot ~budget
                flavor inp
            in
            if grads_eq res.Lulesh.b_grad base then Identical
            else Unclassified "completed with non-identical gradient"
          with e -> classify e )
      | 1 ->
        (* binomial schedule + rank kills across the inner runs *)
        let budget = 1 + Bitmix.draw_int r 4 in
        let tiers = 1 + Bitmix.draw_int r 2 in
        let nkills = 1 + Bitmix.draw_int r 2 in
        let max_restarts = 1 + Bitmix.draw_int r 4 in
        let ats = kills r nkills in
        let spec = spec_of_kills ats in
        let faults =
          Faults.plan_of_spec ~seed:fault_seed ~nranks:2 spec
        in
        let desc =
          Printf.sprintf
            "binomial niter=%d budget=%d tiers=%d max_restarts=%d %s" niter
            budget tiers max_restarts spec
        in
        ( desc,
          try
            let res =
              Lulesh.gradient_binomial ~nranks:2 ~tiers ~faults ~max_restarts
                ~budget flavor inp
            in
            if grads_eq res.Lulesh.b_grad base then Identical
            else Unclassified "completed with non-identical gradient"
          with e -> classify e )
      | 3 ->
        (* SDC: seeded bit flips into sealed cache memory, supervised
           store-all recovery — every landed flip must be caught by a
           region digest and replayed away bit-identically *)
        let nflips = 1 + Bitmix.draw_int r 2 in
        let max_restarts = 2 + Bitmix.draw_int r 3 in
        let flips =
          List.init nflips (fun _ ->
              let rank = Bitmix.draw_int r 2 in
              let cell = Bitmix.draw_int r 10_000 in
              let bit = Bitmix.draw_int r 64 in
              let at = Bitmix.draw_float r *. base.Lulesh.g_makespan in
              Printf.sprintf ",flip=%d@%d@%d@%.0f" rank cell bit at)
        in
        let spec = "none:retries=5" ^ String.concat "" flips in
        let faults = Faults.plan_of_spec ~seed:fault_seed ~nranks:2 spec in
        let desc =
          Printf.sprintf "sdc-flip niter=%d max_restarts=%d %s" niter
            max_restarts spec
        in
        ( desc,
          try
            let g, _recov =
              Lulesh.gradient_recoverable ~nranks:2 ~faults ~max_restarts
                flavor inp
            in
            if grads_eq g base then Identical
            else Unclassified "completed with non-identical gradient"
          with e -> classify e )
      | 4 ->
        (* SDC: corrupt a packed adjoint message in flight (sometimes
           sticky, exhausting the retransmit ladder into a checkpoint
           restore), supervised recovery *)
        let ordinal = 1 + Bitmix.draw_int r 6 in
        let byte = Bitmix.draw_int r 512 in
        let sticky = Bitmix.draw_bool r 0.5 in
        let max_restarts = 2 + Bitmix.draw_int r 3 in
        let spec =
          Printf.sprintf "none:retries=3,corrupt-msg=%d@%d%s" ordinal byte
            (if sticky then "@sticky" else "")
        in
        let faults = Faults.plan_of_spec ~seed:fault_seed ~nranks:2 spec in
        let desc =
          Printf.sprintf "sdc-msg niter=%d max_restarts=%d %s" niter
            max_restarts spec
        in
        ( desc,
          try
            let g, _recov =
              Lulesh.gradient_recoverable ~nranks:2 ~faults ~max_restarts
                flavor inp
            in
            if grads_eq g base then Identical
            else Unclassified "completed with non-identical gradient"
          with e -> classify e )
      | 5 ->
        (* SDC on miniBUDE: single-rank bit flip under service-style
           whole-request retry (a detected region corruption consumes
           the fired flip and re-executes, like the gradient service) *)
        let nposes = 8 + (8 * Bitmix.draw_int r 3) in
        let inp = MB.deck ~nposes ~natlig:4 ~natpro:6 in
        let mb_base = mb_baseline nposes in
        let cell = Bitmix.draw_int r 10_000 in
        let bit = Bitmix.draw_int r 64 in
        let at = Bitmix.draw_float r *. mb_base.MB.g_makespan in
        let spec = Printf.sprintf "none:flip=0@%d@%d@%.0f" cell bit at in
        let plan = Faults.plan_of_spec ~seed:fault_seed ~nranks:1 spec in
        let desc = Printf.sprintf "sdc-bude nposes=%d %s" nposes spec in
        ( desc,
          try
            let g, _ =
              MB.gradient_restarting ~faults:plan ~max_restarts:3
                (MB.compile ~ntasks:1 MB.Omp) inp
            in
            if mb_grads_eq g mb_base then Identical
            else Unclassified "completed with non-identical gradient"
          with e -> classify e )
      | _ ->
        (* supervised store-all recovery, optionally checkpointing at
           reverse entry, under rank kills *)
        let ckpt_rev = Bitmix.draw_bool r 0.5 in
        let nkills = 1 + Bitmix.draw_int r 2 in
        let max_restarts = 1 + Bitmix.draw_int r 4 in
        let ats = kills r nkills in
        let spec = spec_of_kills ats in
        let faults = Faults.plan_of_spec ~seed:fault_seed ~nranks:2 spec in
        let opts =
          { Parad_core.Plan.default_options with ckpt_reverse = ckpt_rev }
        in
        let desc =
          Printf.sprintf
            "supervised niter=%d ckpt_reverse=%b max_restarts=%d %s" niter
            ckpt_rev max_restarts spec
        in
        ( desc,
          try
            let g, _recov =
              Lulesh.gradient_recoverable ~nranks:2 ~opts ~faults
                ~max_restarts flavor inp
            in
            if grads_eq g base then Identical
            else Unclassified "completed with non-identical gradient"
          with e -> classify e )
    in
    let t = { t_index = i; t_desc = desc; t_outcome = outcome } in
    (match log with
    | Some f ->
      f
        (Printf.sprintf "trial %3d: %-70s %s" i desc
           (match outcome with
           | Identical -> "identical"
           | Classified (code, why) ->
             Printf.sprintf "classified(exit %d: %s)" code why
           | Unclassified why -> Printf.sprintf "UNCLASSIFIED: %s" why))
    | None -> ());
    t
  in
  let ts = List.init trials run_trial in
  let count p = List.length (List.filter p ts) in
  {
    r_seed = seed;
    r_trials = ts;
    r_identical = count (fun t -> t.t_outcome = Identical);
    r_classified =
      count (fun t -> match t.t_outcome with Classified _ -> true | _ -> false);
    r_unclassified =
      count (fun t ->
          match t.t_outcome with Unclassified _ -> true | _ -> false);
  }
