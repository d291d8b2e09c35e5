(* ParSan: the runtime sanitizer layer — RaceSan (with static/dynamic
   cross-validation), MemSan (leaks, uninitialized reads), and GradSan
   (first-origin NaN/Inf tracking with strict abort or graceful
   degradation). *)

open Parad_ir
open Parad_runtime
module B = Builder
module V = Value
module San = Sanitizer
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude

let cfg nthreads = { Interp.default_config with nthreads }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_contains what s sub =
  Alcotest.(check bool)
    (Printf.sprintf "%s mentions %S (got: %s)" what sub s)
    true (contains s sub)

let check_clean what (san : San.t) =
  Alcotest.(check int)
    (Printf.sprintf "%s: exit code" what)
    0 (Outcome.code (San.verdict san));
  Alcotest.(check bool)
    (Printf.sprintf "%s: no findings (got: %s)" what
       (Fmt.str "%a" San.pp_report san))
    true (San.clean san)

(* ---- tiny kernels ---- *)

(* per-element map: y[i] = x[i]*x[i] + sin(x[i]), workshared *)
let sq_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "sq"
      ~params:[ "x", Ty.Ptr Ty.Float; "y", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, y, n = match ps with [ a; b; c ] -> a, b, c | _ -> assert false in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      let xi = B.load b x i in
      B.store b y i (B.add b (B.mul b xi xi) (B.sin_ b xi)));
  B.return b None;
  ignore (B.finish b);
  prog

(* every iteration reads the single shared scalar x[0]: the adjoint
   accumulates every thread's contribution into one shadow cell *)
let shared_read_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "shr"
      ~params:[ "x", Ty.Ptr Ty.Float; "y", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, y, n = match ps with [ a; b; c ] -> a, b, c | _ -> assert false in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      let x0 = B.load b x (B.i64 b 0) in
      B.store b y i (B.mul b x0 (B.to_float b i)));
  B.return b None;
  ignore (B.finish b);
  prog

(* run the reverse of a unit-returning 2-pointer kernel; returns the
   shadow of [x] plus the primal [y] values *)
let grad_sq ?san ?(opts = Parad_core.Plan.default_options) ~nthreads prog
    fname xs =
  let n = Array.length xs in
  let dprog, dname = Parad_core.Reverse.gradient ~opts prog fname in
  let dprog = Parad_opt.Pipeline.run dprog Parad_opt.Pipeline.post_ad in
  let dx_ref = ref None in
  ignore
    (Exec.run ~cfg:(cfg nthreads) ?san dprog ~fname:dname ~setup:(fun ctx ->
         let x = Exec.floats ctx xs in
         let y = Exec.zeros ctx n in
         let dx = Exec.zeros ctx n in
         let dy = Exec.floats ctx (Array.make n 1.0) in
         dx_ref := Some dx;
         [ x; y; V.VInt n; dx; dy ]));
  Exec.to_floats (Option.get !dx_ref)

(* ---- RaceSan ---- *)

let test_plain_race_flagged () =
  (* all threads store to the same cell of a function-allocated buffer:
     an ordinary data race (no privacy claim), exit code 1 *)
  let prog = Prog.create () in
  let b, _ = B.func prog "racy" ~params:[] ~ret:Ty.Float in
  let cell = B.alloc b Ty.Float (B.i64 b 1) in
  B.fork b (fun ~tid ~nth:_ ->
      B.store b cell (B.i64 b 0) (B.to_float b tid));
  let r = B.load b cell (B.i64 b 0) in
  B.free b cell;
  B.return b (Some r);
  ignore (B.finish b);
  let san = San.create () in
  ignore (Exec.run ~cfg:(cfg 4) ~san prog ~fname:"racy" ~setup:(fun _ -> []));
  Alcotest.(check bool) "a race was found" true (san.San.races > 0);
  Alcotest.(check int) "no miscompilation" 0 san.San.miscompiles;
  Alcotest.(check int) "exit code 1" 1 (Outcome.code (San.verdict san));
  match San.findings san with
  | f :: _ ->
    check_contains "race finding" f.San.msg "data race";
    check_contains "race finding names the site" f.San.msg "racy/p"
  | [] -> Alcotest.fail "no finding recorded"

let test_workshare_disjoint_clean () =
  (* disjoint per-iteration writes are not races *)
  let san = San.create () in
  let dx =
    grad_sq ~san ~nthreads:4 (sq_prog ()) "sq"
      (Array.init 8 (fun i -> 0.1 *. float_of_int (i + 1)))
  in
  Alcotest.(check int) "gradient length" 8 (Array.length dx);
  check_clean "workshared sq gradient" san

let test_seeded_miscompile_exit5 () =
  (* assume_private compiles the shared-scalar adjoint as if the shadow
     were thread-private (the deliberate inverse of atomic_always): the
     resulting non-atomic cross-thread accumulation lands on a cell the
     static analysis claimed private — a miscompilation, exit code 5 *)
  let opts =
    { Parad_core.Plan.default_options with assume_private = true }
  in
  let san = San.create () in
  ignore
    (grad_sq ~san ~opts ~nthreads:4 (shared_read_prog ()) "shr"
       (Array.init 8 (fun i -> 0.1 *. float_of_int (i + 1))));
  Alcotest.(check bool)
    "miscompilation found" true (san.San.miscompiles > 0);
  Alcotest.(check int) "exit code 5" 5 (Outcome.code (San.verdict san));
  match San.findings san with
  | f :: _ ->
    Alcotest.(check bool)
      "classified as miscompilation" true (f.San.cls = San.Miscompile);
    check_contains "finding" f.San.msg "claimed buffer";
    check_contains "finding" f.San.msg "thread-private"
  | [] -> Alcotest.fail "no finding recorded"

let test_default_and_atomic_always_clean () =
  (* the same shared-scalar kernel sanitizes clean under the default plan
     (static analysis forces safe accumulation) and under the abl-tl
     ablation (atomic_always: every accumulation is atomic) *)
  let xs = Array.init 8 (fun i -> 0.1 *. float_of_int (i + 1)) in
  let san = San.create () in
  let dx = grad_sq ~san ~nthreads:4 (shared_read_prog ()) "shr" xs in
  check_clean "default plan" san;
  let opts =
    { Parad_core.Plan.default_options with atomic_always = true }
  in
  let san' = San.create () in
  let dx' = grad_sq ~san:san' ~opts ~nthreads:4 (shared_read_prog ()) "shr" xs in
  check_clean "atomic_always ablation" san';
  Alcotest.(check (array (float 1e-12)))
    "both plans agree on the gradient" dx dx'

(* ---- MemSan ---- *)

let test_leak_reported_with_site () =
  let prog = Prog.create () in
  let b, _ = B.func prog "leaky" ~params:[] ~ret:Ty.Float in
  let p = B.alloc b Ty.Float (B.i64 b 4) in
  B.store b p (B.i64 b 0) (B.f64 b 7.0);
  let r = B.load b p (B.i64 b 0) in
  B.return b (Some r);
  ignore (B.finish b);
  let san = San.create () in
  ignore (Exec.run ~san prog ~fname:"leaky" ~setup:(fun _ -> []));
  Alcotest.(check int) "one leak" 1 san.San.leaks;
  Alcotest.(check int) "exit code 1" 1 (Outcome.code (San.verdict san));
  match San.findings san with
  | f :: _ ->
    check_contains "leak finding" f.San.msg "leaked buffer";
    check_contains "leak finding names the site" f.San.msg "leaky/p"
  | [] -> Alcotest.fail "no finding recorded"

let test_uninit_read_pedantic_only () =
  let mk () =
    let prog = Prog.create () in
    let b, _ = B.func prog "cold" ~params:[] ~ret:Ty.Float in
    let p = B.alloc b Ty.Float (B.i64 b 2) in
    B.store b p (B.i64 b 0) (B.f64 b 1.0);
    (* cell [1] is read but never written *)
    let r = B.add b (B.load b p (B.i64 b 0)) (B.load b p (B.i64 b 1)) in
    B.free b p;
    B.return b (Some r);
    ignore (B.finish b);
    prog
  in
  (* default: adjoint-style zero-init reads are legitimate, no finding *)
  let san = San.create () in
  ignore (Exec.run ~san (mk ()) ~fname:"cold" ~setup:(fun _ -> []));
  check_clean "default (non-pedantic)" san;
  (* pedantic: the never-written cell is flagged, once *)
  let san' = San.create ~uninit:true () in
  ignore (Exec.run ~san:san' (mk ()) ~fname:"cold" ~setup:(fun _ -> []));
  Alcotest.(check int) "one uninit read" 1 san'.San.uninit_reads;
  match San.findings san' with
  | f :: _ ->
    check_contains "uninit finding" f.San.msg "uninitialized";
    check_contains "uninit finding" f.San.msg "cell [1]"
  | [] -> Alcotest.fail "no finding recorded"

(* ---- GradSan ---- *)

let test_strict_aborts_with_provenance () =
  let xs = Array.init 6 (fun i -> 0.1 *. float_of_int (i + 1)) in
  xs.(2) <- Float.nan;
  let san = San.create ~mode:San.Strict () in
  match grad_sq ~san ~nthreads:2 (sq_prog ()) "sq" xs with
  | _ -> Alcotest.fail "strict mode did not abort on NaN"
  | exception San.Nonfinite_strict msg ->
    check_contains "provenance" msg "NaN";
    check_contains "provenance names the cell" msg "cell [2]"

let test_degrade_quarantines_bit_identical () =
  (* degrade mode quarantines the poison and finishes with exit code 4;
     every component the poison did not corrupt must be bit-identical to
     the unsanitized run on the same input *)
  let mk () =
    let xs = Array.init 6 (fun i -> 0.1 *. float_of_int (i + 1)) in
    xs.(2) <- Float.nan;
    xs
  in
  let unsan = grad_sq ~nthreads:2 (sq_prog ()) "sq" (mk ()) in
  Alcotest.(check bool)
    "unsanitized gradient is corrupted" true
    (Array.exists Float.is_nan unsan);
  let san = San.create ~mode:San.Degrade () in
  let deg = grad_sq ~san ~nthreads:2 (sq_prog ()) "sq" (mk ()) in
  Alcotest.(check bool) "poison quarantined" true (san.San.quarantined > 0);
  Alcotest.(check int) "exit code 4" 4 (Outcome.code (San.verdict san));
  Alcotest.(check bool)
    "degraded gradient is NaN-free" false
    (Array.exists Float.is_nan deg);
  Array.iteri
    (fun i u ->
      if not (Float.is_nan u) then
        Alcotest.(check int64)
          (Printf.sprintf "component %d bit-identical" i)
          (Int64.bits_of_float u)
          (Int64.bits_of_float deg.(i)))
    unsan

(* ---- applications ---- *)

let lulesh_inp =
  { L.nx = 2; ny = 2; nz = 2; niter = 2; dt0 = 0.01; escale = 1.0 }

let test_lulesh_omp_sanitizes_clean () =
  let san = San.create () in
  let r = L.run ~nthreads:2 ~san L.Omp lulesh_inp in
  Alcotest.(check bool) "primal energy finite" true
    (Float.is_finite r.L.total_energy);
  check_clean "lulesh_omp primal" san;
  let san' = San.create () in
  let g = L.gradient ~nthreads:2 ~san:san' L.Omp lulesh_inp in
  Alcotest.(check bool) "gradient nonempty" true
    (Array.length g.L.d_energy.(0) > 0);
  check_clean "lulesh_omp gradient" san'

let test_minibude_omp_sanitizes_clean () =
  let inp = MB.deck ~nposes:8 ~natlig:4 ~natpro:8 in
  let san = San.create () in
  let g = MB.gradient ~nthreads:2 ~san MB.Omp inp in
  Alcotest.(check int) "gradient per pose datum" (6 * 8)
    (Array.length g.MB.d_poses);
  check_clean "bude_omp gradient" san

let test_lulesh_seeded_miscompile () =
  let opts =
    { Parad_core.Plan.default_options with assume_private = true }
  in
  let san = San.create () in
  let g = L.gradient ~nthreads:4 ~opts ~san L.Omp lulesh_inp in
  ignore g;
  Alcotest.(check bool)
    "miscompilation found" true (san.San.miscompiles > 0);
  Alcotest.(check int) "exit code 5" 5 (Outcome.code (San.verdict san))

let test_lulesh_degrade_nan_injection () =
  let unsan = L.gradient ~nthreads:2 ~inject_nan:1 L.Omp lulesh_inp in
  let san = San.create ~mode:San.Degrade () in
  let deg = L.gradient ~nthreads:2 ~san ~inject_nan:1 L.Omp lulesh_inp in
  Alcotest.(check bool) "poison quarantined" true (san.San.quarantined > 0);
  Alcotest.(check int) "exit code 4" 4 (Outcome.code (San.verdict san));
  Alcotest.(check bool)
    "degraded gradient is NaN-free" false
    (Array.exists Float.is_nan deg.L.d_energy.(0));
  (* components the poison never reached must be bit-identical *)
  Array.iteri
    (fun i u ->
      if not (Float.is_nan u) then
        Alcotest.(check int64)
          (Printf.sprintf "d_energy[%d] bit-identical" i)
          (Int64.bits_of_float u)
          (Int64.bits_of_float deg.L.d_energy.(0).(i)))
    unsan.L.d_energy.(0)

let test_sanitize_composes_with_faults () =
  (* RaceSan/MemSan/GradSan stay clean while the drop-retry fault plan
     exercises the MPI retry machinery underneath *)
  let inp = { L.nx = 2; ny = 2; nz = 4; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let plan = Faults.plan_of_name ~nranks:2 "drop-retry" in
  let san = San.create () in
  let g = L.gradient ~nranks:2 ~faults:plan ~san L.Mpi inp in
  Alcotest.(check bool) "gradient nonempty" true
    (Array.length g.L.d_energy.(0) > 0);
  check_clean "lulesh_mpi gradient under drop-retry" san

let () =
  Alcotest.run "sanitize"
    [
      ( "racesan",
        [
          Alcotest.test_case "plain race flagged" `Quick
            test_plain_race_flagged;
          Alcotest.test_case "disjoint workshare clean" `Quick
            test_workshare_disjoint_clean;
          Alcotest.test_case "seeded miscompile exits 5" `Quick
            test_seeded_miscompile_exit5;
          Alcotest.test_case "default and abl-tl clean" `Quick
            test_default_and_atomic_always_clean;
        ] );
      ( "memsan",
        [
          Alcotest.test_case "leak names alloc site" `Quick
            test_leak_reported_with_site;
          Alcotest.test_case "uninit pedantic only" `Quick
            test_uninit_read_pedantic_only;
        ] );
      ( "gradsan",
        [
          Alcotest.test_case "strict aborts with provenance" `Quick
            test_strict_aborts_with_provenance;
          Alcotest.test_case "degrade bit-identical" `Quick
            test_degrade_quarantines_bit_identical;
        ] );
      ( "apps",
        [
          Alcotest.test_case "lulesh omp clean" `Quick
            test_lulesh_omp_sanitizes_clean;
          Alcotest.test_case "minibude omp clean" `Quick
            test_minibude_omp_sanitizes_clean;
          Alcotest.test_case "lulesh seeded miscompile" `Quick
            test_lulesh_seeded_miscompile;
          Alcotest.test_case "lulesh degrade nan injection" `Quick
            test_lulesh_degrade_nan_injection;
          Alcotest.test_case "composes with faults" `Quick
            test_sanitize_composes_with_faults;
        ] );
    ]
