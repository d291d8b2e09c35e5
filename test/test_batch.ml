(* Batched multi-seed adjoints (ISSUE 10): a plan compiled with
   [Plan.options.seeds = k > 1] runs one forward/taping pass and one
   reverse sweep that propagates k return seeds through k-stride adjoint
   planes. Every lane column must be bit-identical to a standalone
   single-seed gradient with the same seed — batching is a layout
   change, not a numeric one — and the engine path must agree with the
   interpreter bit-for-bit with an identical virtual makespan. *)

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module Plan = Parad_core.Plan
module Engine = Parad_engine.Engine

let tiny = { L.nx = 2; ny = 2; nz = 4; niter = 3; dt0 = 0.01; escale = 1.0 }
let small = MB.deck ~nposes:6 ~natlig:3 ~natpro:4
let d_rets = [| 1.0; -0.5; 2.0; 0.25 |]

let bits_eq name (a : float array) (b : float array) =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check int64)
        (Printf.sprintf "%s[%d]" name i)
        (Int64.bits_of_float x)
        (Int64.bits_of_float b.(i)))
    a

let batched_plan flavor =
  L.compile ~opts:{ Plan.default_options with seeds = Array.length d_rets }
    flavor

let lanes_match_standalone flavor ~nthreads ~engine () =
  let c = batched_plan flavor in
  let c1 = L.compile flavor in
  let cols = L.gradient_batched ~nthreads ~engine c ~d_rets tiny in
  Array.iteri
    (fun lane (g : L.grad_result) ->
      let solo =
        L.gradient_compiled ~nthreads ~engine ~d_ret:d_rets.(lane) c1 tiny
      in
      bits_eq
        (Printf.sprintf "lane %d d_coords" lane)
        solo.L.d_coords.(0) g.L.d_coords.(0);
      bits_eq
        (Printf.sprintf "lane %d d_energy" lane)
        solo.L.d_energy.(0) g.L.d_energy.(0))
    cols

let test_engine_matches_interp () =
  (* the seq engine's batched sweep must agree with the interpreter
     bit-for-bit, with an identical virtual makespan and the same
     counted traffic: the lane steps count plane cells as loads and
     stores, atomic lanes as atomics and lane arithmetic as flops *)
  let c = batched_plan L.Omp in
  let gi = L.gradient_batched ~nthreads:4 ~engine:Engine.Interp c ~d_rets tiny in
  let ge = L.gradient_batched ~nthreads:4 ~engine:Engine.Seq c ~d_rets tiny in
  Array.iteri
    (fun lane (i : L.grad_result) ->
      let e = ge.(lane) in
      bits_eq
        (Printf.sprintf "lane %d d_coords" lane)
        i.L.d_coords.(0) e.L.d_coords.(0);
      bits_eq
        (Printf.sprintf "lane %d d_energy" lane)
        i.L.d_energy.(0) e.L.d_energy.(0);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "lane %d makespan" lane)
        i.L.g_makespan e.L.g_makespan;
      List.iter
        (fun (name, get) ->
          Alcotest.(check int)
            (Printf.sprintf "lane %d %s" lane name)
            (get i.L.g_stats) (get e.L.g_stats))
        Parad_runtime.Stats.
          [
            ("instrs", fun s -> s.instrs);
            ("loads", fun s -> s.loads);
            ("stores", fun s -> s.stores);
            ("atomics", fun s -> s.atomics);
            ("flops", fun s -> s.flops);
          ])
    gi

let test_minibude_lanes () =
  let ge_seeds = [| 1.0; 0.5; -2.0 |] in
  let opts = { Plan.default_options with seeds = Array.length ge_seeds } in
  let c = MB.compile ~opts ~ntasks:4 MB.Omp in
  let c1 = MB.compile ~ntasks:4 MB.Omp in
  let cols = MB.gradient_batched ~nthreads:4 c ~ge_seeds small in
  Array.iteri
    (fun lane (g : MB.grad_result) ->
      let solo =
        MB.gradient_compiled ~nthreads:4 ~ge_seed:ge_seeds.(lane) c1 small
      in
      bits_eq (Printf.sprintf "lane %d d_lig" lane) solo.MB.d_lig g.MB.d_lig;
      bits_eq (Printf.sprintf "lane %d d_pro" lane) solo.MB.d_pro g.MB.d_pro;
      bits_eq
        (Printf.sprintf "lane %d d_poses" lane)
        solo.MB.d_poses g.MB.d_poses)
    cols

(* Batched lanes equal their solo runs on generated kernels: [Gen_prog]
   programs, straight-line and in a loop nest, at 2, 3 and 8 lanes. Each
   lane of the batched gradient must be bit-identical to the single-seed
   gradient with the same seed, and the batched run must give the same
   bits, makespan and instruction count on interp and on seq. *)
let gen_input = [| 0.3; -1.2; 2.0; 0.7; -0.1; 1.5; 0.9; -0.4 |]
let gen_seeds = [| 1.0; -0.5; 2.0; 0.25; -3.0; 0.75; 1.5; -1.25 |]

let prop_generated_lanes =
  QCheck.Test.make ~name:"generated kernels: lanes == solo" ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple (oneofl [ 2; 3; 8 ]) Gen_prog.gen_shape Gen_prog.gen_ops))
    (fun (k, shape, ops) ->
      let module V = Parad_runtime.Value in
      let module X = Parad_runtime.Exec in
      let len = Array.length gen_input in
      let prog = Gen_prog.build ~shape ~len ops in
      let compile seeds =
        let dprog, dname =
          Parad_verify.Grad_check.differentiate
            ~opts:{ Plan.default_options with seeds }
            prog "rand"
        in
        dprog, dname, Engine.prepare dprog
      in
      (* the shadow of x and the run's return, makespan and instrs *)
      let run (dprog, dname, prep) engine ~lanes d_ret =
        let shadow = ref V.VUnit in
        let r =
          X.run ~call:(Engine.call_fn prep engine) dprog ~fname:dname
            ~setup:(fun ctx ->
              shadow := X.zeros ctx (len * lanes);
              [ X.floats ctx gen_input; !shadow; d_ret ctx ])
        in
        ( Array.map Int64.bits_of_float (X.to_floats !shadow),
          Int64.bits_of_float (V.to_float r.X.values.(0)),
          Int64.bits_of_float r.X.makespan,
          r.X.stats.Parad_runtime.Stats.instrs )
      in
      let solo = compile 1 and batched = compile k in
      let seeds = Array.sub gen_seeds 0 k in
      let lanes_run engine =
        run batched engine ~lanes:k (fun ctx -> X.floats ctx seeds)
      in
      let ((plane, _, _, _) as bi) = lanes_run Engine.Interp in
      bi = lanes_run Engine.Seq
      && Array.for_all Fun.id
           (Array.mapi
              (fun lane s ->
                let col, _, _, _ =
                  run solo Engine.Seq ~lanes:1 (fun _ -> V.VFloat s)
                in
                Array.for_all Fun.id
                  (Array.mapi (fun i b -> plane.((i * k) + lane) = b) col))
              seeds))

(* A register that crosses a fork: [a] is defined before a parallel
   loop that reads it and is read again after it. The reverse sweep
   writes [a]'s lanes back before the fork, whose members add into its
   plane atomically, and copies them in again after it; every lane must
   still equal its solo run, on interp and on seq alike. *)
let test_register_across_fork () =
  let module B = Parad_ir.Builder in
  let module Ty = Parad_ir.Ty in
  let module V = Parad_runtime.Value in
  let module X = Parad_runtime.Exec in
  let prog = Parad_ir.Prog.create () in
  let b, ps =
    B.func prog "cross" ~params:[ "x", Ty.Ptr Ty.Float ] ~ret:Ty.Float
  in
  let x = List.hd ps in
  let a = B.mul b (B.load b x (B.i64 b 0)) (B.f64 b 0.5) in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:(B.i64 b 4) (fun i ->
      B.atomic_add b acc (B.i64 b 0) (B.mul b a (B.load b x i)));
  let r = B.load b acc (B.i64 b 0) in
  B.free b acc;
  B.return b (Some (B.add b r (B.mul b a a)));
  ignore (B.finish b);
  let input = [| 0.3; -1.2; 2.0; 0.7 |] in
  let run seeds engine d_ret =
    let dprog, dname =
      Parad_verify.Grad_check.differentiate
        ~opts:{ Plan.default_options with seeds }
        prog "cross"
    in
    let shadow = ref V.VUnit in
    let r =
      X.run
        ~cfg:{ Parad_runtime.Interp.default_config with nthreads = 3 }
        ~call:(Engine.call_fn (Engine.prepare dprog) engine)
        dprog ~fname:dname
        ~setup:(fun ctx ->
          shadow := X.zeros ctx (Array.length input * seeds);
          [ X.floats ctx input; !shadow; d_ret ctx ])
    in
    X.to_floats !shadow, r.X.makespan
  in
  List.iter
    (fun k ->
      let seeds = Array.sub gen_seeds 0 k in
      let plane, mi = run k Engine.Interp (fun ctx -> X.floats ctx seeds) in
      let plane', ms = run k Engine.Seq (fun ctx -> X.floats ctx seeds) in
      bits_eq (Printf.sprintf "k=%d seq plane" k) plane plane';
      Alcotest.(check (float 0.0)) (Printf.sprintf "k=%d makespan" k) mi ms;
      Array.iteri
        (fun lane s ->
          let solo, _ = run 1 Engine.Seq (fun _ -> V.VFloat s) in
          bits_eq
            (Printf.sprintf "k=%d lane %d" k lane)
            solo
            (Array.init (Array.length solo) (fun i -> plane.((i * k) + lane))))
        seeds)
    [ 2; 3; 8 ]

let test_single_lane_is_classic () =
  (* a 1-lane batched run is the classic gradient exactly *)
  let c = L.compile ~opts:{ Plan.default_options with seeds = 1 } L.Seq in
  let g = (L.gradient_batched c ~d_rets:[| 1.0 |] tiny).(0) in
  let solo = L.gradient_compiled c tiny in
  bits_eq "d_coords" solo.L.d_coords.(0) g.L.d_coords.(0);
  bits_eq "d_energy" solo.L.d_energy.(0) g.L.d_energy.(0)

let test_mpi_rejected () =
  (* the MPI adjoint runtime exchanges single-stride planes: batched
     compilation of a distributed flavor must be rejected up front *)
  Alcotest.check_raises "mpi seeds>1"
    (Plan.Unsupported
       "batched seeds (k>1) cannot differentiate \"mpi.isend\"")
    (fun () ->
      ignore (L.compile ~opts:{ Plan.default_options with seeds = 2 } L.Mpi))

let test_seed_count_checked () =
  let c = batched_plan L.Seq in
  match L.gradient_batched c ~d_rets:[| 1.0 |] tiny with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "batch"
    [
      ( "lanes",
        [
          Alcotest.test_case "lulesh seq lanes == standalone" `Quick
            (lanes_match_standalone L.Seq ~nthreads:1 ~engine:Engine.Interp);
          Alcotest.test_case "lulesh omp lanes == standalone" `Quick
            (lanes_match_standalone L.Omp ~nthreads:4 ~engine:Engine.Interp);
          Alcotest.test_case "engine seq == interp" `Quick
            test_engine_matches_interp;
          Alcotest.test_case "minibude omp lanes == standalone" `Quick
            test_minibude_lanes;
          Alcotest.test_case "1-lane batch == classic" `Quick
            test_single_lane_is_classic;
          QCheck_alcotest.to_alcotest prop_generated_lanes;
          Alcotest.test_case "register across a fork" `Quick
            test_register_across_fork;
        ] );
      ( "guards",
        [
          Alcotest.test_case "mpi rejected" `Quick test_mpi_rejected;
          Alcotest.test_case "seed count checked" `Quick
            test_seed_count_checked;
        ] );
    ]
