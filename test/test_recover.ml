(* Checkpoint/restart: snapshot determinism, validity rejection, and
   kill-and-recover gradients that are bit-identical to faultless runs. *)

open Parad_ir
open Parad_runtime
module B = Builder
module L = Apps_lulesh.Lulesh
module GC = Parad_verify.Grad_check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_contains what s sub =
  Alcotest.(check bool)
    (Printf.sprintf "%s mentions %S (got: %s)" what sub s)
    true (contains s sub)

let bits = Int64.bits_of_float

let check_bitwise what a b =
  Alcotest.(check int64) what (bits a) (bits b)

(* the CLI's small LULESH problem: size 2, 3 timesteps *)
let inp ~ranks =
  {
    L.nx = 2;
    ny = 2;
    nz = ((2 * ranks) + ranks - 1) / ranks * ranks;
    niter = 3;
    dt0 = 0.01;
    escale = 1.0;
  }

let kill_spec ?at ~nranks victim =
  let at = match at with Some t -> Printf.sprintf ",at=%g" t | None -> "" in
  Faults.plan_of_spec ~nranks (Printf.sprintf "kill:victim=%d%s" victim at)

(* ---- snapshot determinism ---- *)

let test_snapshots_byte_identical () =
  (* two identical runs must leave byte-identical snapshots in their
     stores: buffers serialize in id order, floats as bit patterns, and
     the scheduler is virtual-time deterministic *)
  let nranks = 4 in
  let go () =
    let _, recov = L.run_recoverable ~nranks L.Mpi (inp ~ranks:nranks) in
    recov.Exec.r_store
  in
  let s1 = go () and s2 = go () in
  let seen = ref 0 in
  for rank = 0 to nranks - 1 do
    for id = 0 to 2 do
      match
        ( Checkpoint.snapshot_bytes s1 ~rank ~id,
          Checkpoint.snapshot_bytes s2 ~rank ~id )
      with
      | Some a, Some b ->
        incr seen;
        Alcotest.(check string)
          (Printf.sprintf "snapshot rank %d id %d byte-identical" rank id)
          a b
      | None, None -> ()
      | _ ->
        Alcotest.failf "snapshot rank %d id %d present in only one run" rank
          id
    done
  done;
  Alcotest.(check int) "every (rank, id) snapshot present" 12 !seen

(* ---- validity: in-flight communication is rejected ---- *)

let test_unwaited_isend_rejected () =
  (* a checkpoint taken between an isend and its wait must fail with a
     clear error instead of silently dropping the in-flight message *)
  let prog = Prog.create () in
  let b, ps =
    B.func prog "uwck" ~params:[ "x", Ty.Ptr Ty.Float ] ~ret:Ty.Unit
  in
  let x = match ps with [ a ] -> a | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let next = B.rem b (B.add b rank (B.i64 b 1)) size in
  let prev = B.rem b (B.add b rank (B.sub b size (B.i64 b 1))) size in
  let n = B.i64 b 1 and tag = B.i64 b 3 in
  let y = B.alloc b Ty.Float n in
  let sreq = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  let rreq = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  ignore (B.call b ~ret:Ty.Unit "parad.checkpoint" [ B.i64 b 0; x ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ sreq ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ rreq ]);
  B.return b None;
  ignore (B.finish b);
  match
    Exec.run_spmd_recoverable prog ~nranks:2 ~fname:"uwck"
      ~setup:(fun ctx ~rank:_ -> [ Exec.floats ctx [| 1.0 |] ])
  with
  | _ -> Alcotest.fail "checkpoint with in-flight requests was accepted"
  | exception Value.Runtime_error msg ->
    check_contains "rejection" msg "unwaited request";
    check_contains "rejection" msg "parad.checkpoint 0"

(* ---- tiered snapshot store ---- *)

let test_first_last_iteration_snapshots () =
  (* the outer loop checkpoints every iteration: the store must hold a
     valid hot-tier snapshot at the first and last iteration for every
     rank (the boundary ids recovery and the binomial driver pivot on) *)
  let nranks = 4 in
  let _, recov = L.run_recoverable ~nranks L.Mpi (inp ~ranks:nranks) in
  let store = recov.Exec.r_store in
  for rank = 0 to nranks - 1 do
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "rank %d id %d valid" rank id)
          true
          (Checkpoint.valid store ~rank ~id);
        Alcotest.(check bool)
          (Printf.sprintf "rank %d id %d hot" rank id)
          true
          (Checkpoint.snapshot_tier store ~rank ~id = Some Checkpoint.Hot))
      [ 0; (inp ~ranks:nranks).L.niter - 1 ]
  done

let test_tiered_eviction_and_integrity () =
  (* hot-ring budget enforcement: with 2 tiers evictions demote to disk
     (still restorable, different tier); with 1 tier they drop; a
     corrupted snapshot fails its checksum and disqualifies its id from
     latest_consistent *)
  let mk tiers =
    Checkpoint.create_store
      ~policy:{ Checkpoint.hot_budget = Some 2; tiers }
      ~nranks:1 ()
  in
  let fill store =
    for id = 0 to 3 do
      ignore
        (Checkpoint.put store ~rank:0 ~id ~cells:1
           (Printf.sprintf "snap-%d" id))
    done
  in
  let s2 = mk 2 in
  fill s2;
  Alcotest.(check bool)
    "demoted to disk" true
    (Checkpoint.snapshot_tier s2 ~rank:0 ~id:0 = Some Checkpoint.Disk);
  Alcotest.(check bool)
    "newest stays hot" true
    (Checkpoint.snapshot_tier s2 ~rank:0 ~id:3 = Some Checkpoint.Hot);
  Alcotest.(check bool)
    "disk snapshot still restorable" true
    (Checkpoint.snapshot_bytes s2 ~rank:0 ~id:0 = Some "snap-0");
  let s1 = mk 1 in
  fill s1;
  Alcotest.(check bool)
    "single tier drops evictions" true
    (Checkpoint.snapshot_tier s1 ~rank:0 ~id:0 = None);
  Alcotest.(check (option int))
    "latest_consistent picks newest valid" (Some 3)
    (Checkpoint.latest_consistent s2);
  Checkpoint.corrupt s2 ~rank:0 ~id:3;
  Alcotest.(check bool)
    "corruption detected" false
    (Checkpoint.valid s2 ~rank:0 ~id:3);
  Alcotest.(check (option int))
    "corrupt id skipped, degrades to older" (Some 2)
    (Checkpoint.latest_consistent s2);
  Checkpoint.release s2 ~id:2;
  Alcotest.(check (option int))
    "released id skipped too" (Some 1)
    (Checkpoint.latest_consistent s2)

let test_open_collective_rejected () =
  (* a checkpoint taken by a rank that joined a collective no other rank
     has completed must fail with a clear error: the in-flight collective
     is not part of a rank-local snapshot *)
  let cfg = Interp.default_config in
  let run () =
    Sim.run ~cost:cfg.Interp.cost ~stats:(Stats.create ()) (fun () ->
        let mpi =
          Mpi_state.create ~cost:cfg.Interp.cost ~nranks:2
            ~coalesce:cfg.Interp.coalesce ()
        in
        ignore
          (Mpi_state.coll_join mpi ~rank:0 ~kind:Mpi_state.Cbarrier ~count:0
             ~contrib:None);
        let store = Checkpoint.create_store ~nranks:2 () in
        let session = Checkpoint.session store ~rank:0 () in
        ignore
          (Checkpoint.take session ~mem:(Memory.create ~rank:0)
             ~cache:(Cache_rt.create ()) ~mpi:(Some mpi) ~roots:[] ~id:0))
  in
  match run () with
  | _ -> Alcotest.fail "checkpoint inside an open collective was accepted"
  | exception Value.Runtime_error msg ->
    check_contains "rejection" msg "open collective";
    check_contains "rejection" msg "parad.checkpoint 0"

(* ---- LULESH kill-and-recover ---- *)

let clean_gradient nranks = L.gradient ~nranks L.Mpi (inp ~ranks:nranks)

let check_gradient_matches ~what (clean : L.grad_result)
    (g : L.grad_result) nranks =
  check_bitwise (what ^ ": total") clean.L.g_total g.L.g_total;
  for r = 0 to nranks - 1 do
    Array.iteri
      (fun k c ->
        check_bitwise
          (Printf.sprintf "%s: rank %d d_energy[%d]" what r k)
          c g.L.d_energy.(r).(k))
      clean.L.d_energy.(r);
    Array.iteri
      (fun k c ->
        check_bitwise
          (Printf.sprintf "%s: rank %d d_coords[%d]" what r k)
          c g.L.d_coords.(r).(k))
      clean.L.d_coords.(r)
  done

let test_lulesh_warm_recovery_bitwise () =
  (* a rank killed mid-run is recovered from a globally-consistent
     checkpoint, and the gradient is bit-identical to the faultless
     run's; the lost work and restore are charged to virtual time *)
  let nranks = 4 in
  let clean = clean_gradient nranks in
  let g, recov =
    L.gradient_recoverable ~nranks
      ~faults:(kill_spec ~at:60000.0 ~nranks 2)
      L.Mpi (inp ~ranks:nranks)
  in
  Alcotest.(check int) "one restart" 1 recov.Exec.r_restarts;
  Alcotest.(check (list (option int)))
    "warm resume from checkpoint 1" [ Some 1 ] recov.Exec.r_resumed_from;
  Alcotest.(check bool)
    "snapshots actually restored" true
    (g.L.g_stats.Stats.checkpoints_restored > 0);
  Alcotest.(check bool)
    "restart cost charged to the makespan" true
    (g.L.g_makespan > clean.L.g_makespan);
  check_gradient_matches ~what:"warm" clean g nranks

let test_lulesh_warm_recovery_fd () =
  (* the recovered gradient also agrees with finite differences: the
     initial-energy direction of the adjoint matches d(total)/d(escale) *)
  let nranks = 4 in
  let g, _ =
    L.gradient_recoverable ~nranks
      ~faults:(kill_spec ~at:80000.0 ~nranks 2)
      L.Mpi (inp ~ranks:nranks)
  in
  let directional = ref 0.0 in
  for r = 0 to nranks - 1 do
    let m = L.mesh (inp ~ranks:nranks) ~nranks ~rank:r in
    Array.iteri
      (fun k ek -> directional := !directional +. (ek *. g.L.d_energy.(r).(k)))
      m.L.energy
  done;
  let h = 1e-6 in
  let loss s =
    (L.run ~nranks L.Mpi { (inp ~ranks:nranks) with L.escale = s })
      .L.total_energy
  in
  let fd = (loss (1.0 +. h) -. loss (1.0 -. h)) /. (2.0 *. h) in
  let rel =
    Float.abs (fd -. !directional) /. Float.max 1.0 (Float.abs fd)
  in
  if rel > 1e-5 then
    Alcotest.failf "recovered gradient vs FD: relative error %.3e" rel

let test_lulesh_cold_restart_bitwise () =
  (* a kill before any globally-consistent checkpoint exists falls back
     to a cold restart — and the gradient is still bit-identical *)
  let nranks = 4 in
  let clean = clean_gradient nranks in
  let g, recov =
    L.gradient_recoverable ~nranks
      ~faults:(kill_spec ~nranks 1)
      L.Mpi (inp ~ranks:nranks)
  in
  Alcotest.(check int) "one restart" 1 recov.Exec.r_restarts;
  Alcotest.(check (list (option int)))
    "cold restart" [ None ] recov.Exec.r_resumed_from;
  check_gradient_matches ~what:"cold" clean g nranks

let test_lulesh_multi_kill_bitwise () =
  (* a spec with two kills recovers twice and still reproduces the
     faultless gradient bit-for-bit *)
  let nranks = 4 in
  let clean = clean_gradient nranks in
  let plan =
    Faults.plan_of_spec ~nranks "kill:victim=1,at=60000,kill=3@150000"
  in
  let g, recov =
    L.gradient_recoverable ~nranks ~faults:plan L.Mpi (inp ~ranks:nranks)
  in
  Alcotest.(check int) "two restarts" 2 recov.Exec.r_restarts;
  Alcotest.(check int)
    "two structured failures" 2
    (List.length recov.Exec.r_failures);
  Alcotest.(check (list int))
    "victims in kill order" [ 1; 3 ]
    (List.map (fun n -> n.Mpi_state.fn_failed) recov.Exec.r_failures);
  check_gradient_matches ~what:"multi-kill" clean g nranks

let test_restart_budget_exhausted () =
  (* more kills than restarts re-raises the structured failure *)
  let nranks = 4 in
  let plan =
    Faults.plan_of_spec ~nranks "kill:victim=1,at=0,kill=2,kill=3"
  in
  match
    L.gradient_recoverable ~nranks ~max_restarts:1 ~faults:plan L.Mpi
      (inp ~ranks:nranks)
  with
  | _ -> Alcotest.fail "restart budget was not enforced"
  | exception Mpi_state.Rank_failed n ->
    Alcotest.(check int) "second kill surfaced" 2 n.Mpi_state.fn_failed

let test_restore_at_first_checkpoint () =
  (* a kill after every rank passed checkpoint 0 but before checkpoint 1
     is globally consistent restores from id 0 — the earliest warm
     resume — and the gradient is still bit-identical *)
  let nranks = 4 in
  let clean = clean_gradient nranks in
  let g, recov =
    L.gradient_recoverable ~nranks
      ~faults:(kill_spec ~at:25000.0 ~nranks 2)
      L.Mpi (inp ~ranks:nranks)
  in
  Alcotest.(check int) "one restart" 1 recov.Exec.r_restarts;
  Alcotest.(check (list (option int)))
    "resumed from checkpoint 0" [ Some 0 ] recov.Exec.r_resumed_from;
  check_gradient_matches ~what:"first-checkpoint" clean g nranks

(* ---- mid-reverse-sweep recovery via the reverse-entry checkpoint ---- *)

let test_mid_reverse_kill_bitwise () =
  (* with [ckpt_reverse] the gradient snapshots once more at reverse
     entry (id = niter, after the forward sweep's loop); a rank killed
     deep in the reverse sweep then resumes there — skipping the whole
     forward replay — and reproduces the faultless gradient bit-for-bit *)
  let nranks = 2 in
  let inp = inp ~ranks:nranks in
  let clean = L.gradient ~nranks L.Mpi inp in
  let opts =
    { Parad_core.Plan.default_options with Parad_core.Plan.ckpt_reverse = true }
  in
  (* the reverse sweep dominates the gradient makespan: 0.9x the clean
     gradient's end lands well inside it *)
  let at = 0.9 *. clean.L.g_makespan in
  let g, recov =
    L.gradient_recoverable ~nranks ~opts
      ~faults:(kill_spec ~at ~nranks 1)
      L.Mpi inp
  in
  Alcotest.(check int) "one restart" 1 recov.Exec.r_restarts;
  Alcotest.(check (list (option int)))
    "resumed from the reverse-entry checkpoint" [ Some inp.L.niter ]
    recov.Exec.r_resumed_from;
  check_gradient_matches ~what:"mid-reverse" clean g nranks

(* ---- binomial (revolve) schedules over the tiered store ---- *)

let test_binomial_bitwise_and_bounded () =
  (* a long-horizon gradient under a fixed snapshot budget: bit-identical
     to the store-all baseline while the AD cache peak stays that of a
     single timestep *)
  let nranks = 2 in
  let inp = { (inp ~ranks:nranks) with L.niter = 8 } in
  let clean = L.gradient ~nranks L.Mpi inp in
  let b = L.gradient_binomial ~nranks ~budget:2 L.Mpi inp in
  check_gradient_matches ~what:"binomial" clean b.L.b_grad nranks;
  Alcotest.(check bool)
    "multiple sweeps scheduled" true (b.L.b_sweeps >= 2);
  Alcotest.(check int) "one reverse segment per step" 8 b.L.b_segments;
  Alcotest.(check bool) "primal re-advances executed" true (b.L.b_advances > 0);
  Alcotest.(check int) "no degraded fetches" 0 b.L.b_degraded;
  let peak = b.L.b_grad.L.g_stats.Stats.cache_peak in
  let clean_peak = clean.L.g_stats.Stats.cache_peak in
  Alcotest.(check bool)
    (Printf.sprintf "cache peak bounded (%d < %d)" peak clean_peak)
    true
    (peak * 2 < clean_peak);
  Alcotest.(check bool)
    "snapshots accounted" true
    (b.L.b_grad.L.g_stats.Stats.snap_count > 0
    && b.L.b_grad.L.g_stats.Stats.snap_restores > 0)

let test_binomial_corruption_degrades () =
  (* a snapshot corrupted in the store fails its checksum at fetch time;
     the driver re-advances from an older valid checkpoint (counted as a
     degraded fetch) and the gradient is still bit-identical *)
  let nranks = 2 in
  let inp = { (inp ~ranks:nranks) with L.niter = 6 } in
  let clean = L.gradient ~nranks L.Mpi inp in
  let corrupted = ref false in
  let on_snapshot ~step ~store =
    if step = 3 && not !corrupted then begin
      corrupted := true;
      for rank = 0 to nranks - 1 do
        Checkpoint.corrupt store ~rank ~id:step
      done
    end
  in
  let b = L.gradient_binomial ~nranks ~budget:2 ~on_snapshot L.Mpi inp in
  Alcotest.(check bool) "fetches degraded" true (b.L.b_degraded > 0);
  check_gradient_matches ~what:"corrupted-binomial" clean b.L.b_grad nranks

(* ---- chaos soak ---- *)

let test_chaos_soak () =
  (* >= 50 seeded combinations of schedules, tiering, kills and
     corruption: every trial must be bit-identical or a classified clean
     abort — zero unclassified outcomes *)
  let report = Apps_lulesh.Chaos.soak ~trials:50 ~seed:42 () in
  Alcotest.(check int)
    "all trials ran" 50
    (List.length report.Apps_lulesh.Chaos.r_trials);
  Alcotest.(check int)
    "zero unclassified outcomes" 0 report.Apps_lulesh.Chaos.r_unclassified;
  Alcotest.(check bool)
    "most trials reproduce the gradient bit-for-bit" true
    (report.Apps_lulesh.Chaos.r_identical >= 40)

(* ---- the grad_check recovery harness on a small ring program ---- *)

let grad_ring_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "gring"
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let next = B.rem b (B.add b rank (B.i64 b 1)) size in
  let prev = B.rem b (B.add b rank (B.sub b size (B.i64 b 1))) size in
  let y = B.alloc b Ty.Float n in
  let tag = B.i64 b 9 in
  let sreq = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  let rreq = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ sreq ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ rreq ]);
  let x0 = B.load b x (B.i64 b 0) in
  let y0 = B.load b y (B.i64 b 0) in
  B.return b
    (Some (B.add b (B.mul b x0 (B.f64 b 2.0)) (B.mul b y0 (B.f64 b 3.0))));
  ignore (B.finish b);
  prog

let test_check_recovery_ring () =
  (* the verify-layer harness: kill-and-recover adjoints of a small ring
     program are bit-identical to the faultless ones (a program without
     checkpoint sites recovers via cold restart) *)
  let prog = grad_ring_prog () in
  let n = 2 in
  let args ~rank =
    [
      GC.ABuf (Array.init n (fun i -> 0.4 +. float_of_int (rank + i)));
      GC.AInt n;
    ]
  in
  let seeds ~rank:_ = [ Array.make n 0.0 ] in
  let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
  match
    GC.check_recovery prog "gring" ~nranks:3
      ~faults:(kill_spec ~nranks:3 1)
      ~args ~seeds ~d_ret
  with
  | Error m -> Alcotest.failf "check_recovery: %s" m
  | Ok (_, recovery) ->
    Alcotest.(check int) "one restart" 1 recovery.Exec.r_restarts

let () =
  Alcotest.run "recover"
    [
      ( "checkpoints",
        [
          Alcotest.test_case "snapshots byte-identical" `Quick
            test_snapshots_byte_identical;
          Alcotest.test_case "unwaited isend rejected" `Quick
            test_unwaited_isend_rejected;
          Alcotest.test_case "first/last iteration snapshots" `Quick
            test_first_last_iteration_snapshots;
          Alcotest.test_case "tiered eviction and integrity" `Quick
            test_tiered_eviction_and_integrity;
          Alcotest.test_case "open collective rejected" `Quick
            test_open_collective_rejected;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "lulesh warm recovery bitwise" `Quick
            test_lulesh_warm_recovery_bitwise;
          Alcotest.test_case "lulesh warm recovery vs FD" `Quick
            test_lulesh_warm_recovery_fd;
          Alcotest.test_case "lulesh cold restart bitwise" `Quick
            test_lulesh_cold_restart_bitwise;
          Alcotest.test_case "lulesh multi-kill bitwise" `Quick
            test_lulesh_multi_kill_bitwise;
          Alcotest.test_case "restart budget exhausted" `Quick
            test_restart_budget_exhausted;
          Alcotest.test_case "restore at first checkpoint" `Quick
            test_restore_at_first_checkpoint;
          Alcotest.test_case "mid-reverse kill bitwise" `Quick
            test_mid_reverse_kill_bitwise;
          Alcotest.test_case "check_recovery on a ring" `Quick
            test_check_recovery_ring;
        ] );
      ( "binomial",
        [
          Alcotest.test_case "bitwise vs store-all, bounded peak" `Quick
            test_binomial_bitwise_and_bounded;
          Alcotest.test_case "corruption degrades, still bitwise" `Quick
            test_binomial_corruption_degrades;
        ] );
      ( "chaos",
        [ Alcotest.test_case "soak: 50 seeded combinations" `Slow test_chaos_soak ] );
    ]
