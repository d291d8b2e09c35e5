(* Execution engine: the lowered slot-addressed runner must be
   bit-identical to the tree-walking interpreter — same gradients by FNV
   digest, same virtual-time makespan, same instruction counts — across
   every app x flavor program and on generated programs, and the
   structured-failure machinery (deadlines, fault kills, SDC detection)
   must behave identically on the engine path. *)

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module E = Parad_engine.Engine
module S = Parad_server.Service
open Parad_runtime

let tiny = { L.nx = 2; ny = 2; nz = 4; niter = 3; dt0 = 0.01; escale = 1.0 }

let lulesh_flavors =
  [
    L.Seq, 1, 1;
    L.Omp, 4, 1;
    L.Raja_, 3, 1;
    L.Mpi, 1, 2;
    L.Hybrid, 2, 2;
    L.RajaMpi, 2, 2;
    L.Jlmpi, 1, 2;
  ]

let check_same name (a : L.grad_result) (b : L.grad_result) =
  Alcotest.(check string)
    (name ^ " digest") (S.digest_lulesh a) (S.digest_lulesh b);
  Alcotest.(check (float 0.0))
    (name ^ " makespan") a.L.g_makespan b.L.g_makespan;
  Alcotest.(check int)
    (name ^ " instrs") a.L.g_stats.Stats.instrs b.L.g_stats.Stats.instrs;
  Alcotest.(check int)
    (name ^ " flops") a.L.g_stats.Stats.flops b.L.g_stats.Stats.flops;
  Alcotest.(check int)
    (name ^ " atomics") a.L.g_stats.Stats.atomics b.L.g_stats.Stats.atomics;
  Alcotest.(check int)
    (name ^ " barriers") a.L.g_stats.Stats.barriers b.L.g_stats.Stats.barriers

let test_lulesh_bit_identity () =
  List.iter
    (fun (flavor, nthreads, nranks) ->
      let c = L.compile flavor in
      let g engine = L.gradient_compiled ~nthreads ~nranks ~engine c tiny in
      let base = g E.Interp in
      check_same (L.flavor_name flavor ^ " seq") base (g E.Seq))
    lulesh_flavors

let bude_inp = MB.deck ~nposes:12 ~natlig:6 ~natpro:10

let test_bude_bit_identity () =
  List.iter
    (fun variant ->
      let c = MB.compile ~ntasks:3 variant in
      let g engine = MB.gradient_compiled ~engine c bude_inp in
      let base = g E.Interp in
      let x = g E.Seq in
      let name = MB.variant_name variant ^ " seq" in
      Alcotest.(check string)
        (name ^ " digest") (S.digest_bude base) (S.digest_bude x);
      Alcotest.(check (float 0.0))
        (name ^ " makespan") base.MB.g_makespan x.MB.g_makespan;
      Alcotest.(check int)
        (name ^ " instrs") base.MB.g_stats.Stats.instrs
        x.MB.g_stats.Stats.instrs)
    [ MB.Seq; MB.Omp; MB.Julia ]

let test_primal_identity () =
  (* primal runs (Exec.run / run_spmd with the engine's call) agree too *)
  let base = (L.run L.Omp ~nthreads:4 tiny).L.total_energy in
  let r = L.run ~nthreads:4 ~engine:E.Seq L.Omp tiny in
  Alcotest.(check (float 0.0)) "omp primal seq" base r.L.total_energy;
  let eb = (MB.run ~nthreads:3 MB.Julia bude_inp).MB.energies in
  let es = (MB.run ~nthreads:3 ~engine:E.Seq MB.Julia bude_inp).MB.energies in
  Alcotest.(check bool) "julia primal energies" true (eb = es)

(* Random kernels of test/gen_prog.ml, differentiated and run through the
   post-AD pipeline: the engine reproduces the interpreter's shadow
   gradient and primal return bit for bit, its makespan and its
   instruction count. *)
let gen_input = [| 0.3; -1.2; 2.0; 0.7; -0.1; 1.5; 0.9; -0.4 |]

let prop_generated_identity =
  QCheck.Test.make ~name:"generated gradients" ~count:200
    (QCheck.make QCheck.Gen.(pair Gen_prog.gen_shape Gen_prog.gen_ops))
    (fun (shape, ops) ->
      let prog = Gen_prog.build ~shape ~len:(Array.length gen_input) ops in
      let dprog, dname = Parad_verify.Grad_check.differentiate prog "rand" in
      let run call =
        let shadow = ref Value.VUnit in
        let r =
          Exec.run ~call dprog ~fname:dname ~setup:(fun ctx ->
              shadow := Exec.zeros ctx (Array.length gen_input);
              [ Exec.floats ctx gen_input; !shadow; Value.VFloat 1.0 ])
        in
        ( Array.map Int64.bits_of_float (Exec.to_floats !shadow),
          Int64.bits_of_float (Value.to_float r.Exec.values.(0)),
          Int64.bits_of_float r.Exec.makespan,
          r.Exec.stats.Stats.instrs )
      in
      run Interp.call = run (E.call_fn (E.prepare dprog) E.Seq))

let test_binomial_engine_identity () =
  (* the revolve driver's inner runs ride the engine and must reproduce
     the monolithic interpreter gradient bit-for-bit *)
  let c = L.compile ~steps:true L.Omp in
  let mono = L.gradient_compiled ~nthreads:4 c tiny in
  let b = L.gradient_binomial ~nthreads:4 ~engine:E.Seq ~compiled:c ~budget:2
      L.Omp tiny
  in
  Alcotest.(check string)
    "binomial seq-engine digest" (S.digest_lulesh mono)
    (S.digest_lulesh b.L.b_grad)

let test_deadline_identical () =
  (* a virtual-cycle deadline trips at the exact same virtual clock on
     both substrates (exit class 6 at the CLI) *)
  let c = L.compile L.Omp in
  let deadline = { Sim.dl_cycles = Some 50_000.0; dl_wall_ms = None } in
  let hit engine =
    match L.gradient_compiled ~nthreads:4 ~deadline ~engine c tiny with
    | _ -> Alcotest.fail "deadline did not trip"
    | exception Sim.Deadline_exceeded d -> d.Sim.de_at
  in
  Alcotest.(check (float 0.0))
    "same trip clock" (hit E.Interp) (hit E.Seq)

let test_kill_recovery_on_engine () =
  (* supervised recovery with a rank kill on the engine path converges to
     the faultless interpreter digest *)
  let c = L.compile L.Mpi in
  let clean = L.gradient_compiled ~nranks:2 c tiny in
  let plan = Faults.plan_of_spec ~nranks:2 "kill:victim=1,at=60000" in
  let faulty, recov =
    L.gradient_recoverable_compiled ~nranks:2 ~faults:plan ~max_restarts:3
      ~engine:E.Seq c tiny
  in
  Alcotest.(check string)
    "recovered digest" (S.digest_lulesh clean) (S.digest_lulesh faulty);
  Alcotest.(check bool) "restarted" true (recov.Exec.r_restarts >= 1)

let test_sdc_detected_on_engine () =
  (* an unsupervised bit flip must still surface as a structured
     Corrupt_region (exit class 9) when the run executes on the engine *)
  let c = L.compile L.Mpi in
  let plan = Faults.plan_of_spec ~nranks:2 "none:flip=1@3@31@50" in
  match L.gradient_compiled ~nranks:2 ~faults:plan ~engine:E.Seq c tiny with
  | _ -> Alcotest.fail "flip not detected on engine path"
  | exception Checkpoint.Corrupt_region { cr_rank; _ } ->
    Alcotest.(check int) "victim rank named" 1 cr_rank

let test_lane_diagnostics () =
  (* malformed or faulting memory, cache and k-wide lane operations raise
     the interpreter's exact message on the engine: out-of-bounds and
     use-after-free on float and int loads and stores and on atomic adds,
     cache reads before a write or out of range, and lane ops whose
     lane file and planes are all out of bounds (both check them in the
     same order). Each case builds the body of a function [bad]. *)
  let module B = Parad_ir.Builder in
  let module Ty = Parad_ir.Ty in
  let buf b ty n = B.alloc b ty (B.i64 b n) in
  let freed b ty =
    let p = buf b ty 2 in
    B.free b p;
    p
  in
  let oob b ty = buf b ty 2, B.i64 b 5 in
  let uaf b ty = freed b ty, B.i64 b 0 in
  let value b ty = if Ty.equal ty Ty.Float then B.f64 b 1.5 else B.i64 b 7 in
  let memory kind at =
    List.concat_map
      (fun ty ->
        let tn = Fmt.str "%a" Ty.pp ty in
        [
          ( Fmt.str "%s load %s" kind tn,
            fun b ->
              let p, i = at b ty in
              ignore (B.load b p i) );
          ( Fmt.str "%s store %s" kind tn,
            fun b ->
              let p, i = at b ty in
              B.store b p i (value b ty) );
        ])
      [ Ty.Float; Ty.Int ]
    @ [
        ( kind ^ " atomic add",
          fun b ->
            let p, i = at b Ty.Float in
            B.atomic_add b p i (B.f64 b 1.5) );
      ]
  in
  let cache_get ctor ~set idx b =
    let c = B.call b ~ret:Ty.Int ctor [ B.i64 b 4 ] in
    if set then
      ignore (B.call b ~ret:Ty.Unit "cache.set" B.[ c; i64 b 0; f64 b 1.5 ]);
    ignore (B.call b ~ret:Ty.Float "cache.get" [ c; B.i64 b idx ])
  in
  let lanes name args b =
    let p = buf b Ty.Float 1 in
    let q = buf b Ty.Float 2 in
    ignore (B.call b ~ret:Ty.Unit name (args b p q))
  in
  (* A 4-lane adj.rev2_k on a lane file of [size] cells (freed first when
     [freed]) taking the group at [voff], with groups [g1] and [g2]: a
     host (the file, a live 8-cell plane or a freed one) and its offset.
     One range out of bounds at a time checks that the engine, which
     tests the file's groups at once, still raises the first failure in
     the interpreter's order. *)
  let rev2 ?(size = 16) ?(freed_file = false) ~voff g1 g2 b =
    let file = buf b Ty.Float size in
    let group (host, o) =
      let h =
        match host with
        | `File -> file
        | `Plane -> buf b Ty.Float 8
        | `Freed -> freed b Ty.Float
      in
      B.[ h; i64 b o; i64 b 2; f64 b 1.5; f64 b 0.5; bool b false; i64 b 0 ]
    in
    let g1 = group g1 and g2 = group g2 in
    if freed_file then B.free b file;
    ignore
      (B.call b ~ret:Ty.Unit "adj.rev2_k"
         ((file :: B.i64 b voff :: g1) @ g2 @ [ B.i64 b 4 ]))
  in
  (* the Store reversal's groups: the scratch, the shadow plane's at
     [mb] (runtime) and the stored operand's, in the file at [o1] *)
  let srev ~mb ~o1 b =
    let file = buf b Ty.Float 16 and sp = buf b Ty.Float 8 in
    ignore
      (B.call b ~ret:Ty.Unit "adj.srev_k"
         B.[ file; sp; i64 b mb; file; i64 b o1; i64 b 0; i64 b 4 ])
  in
  List.iter
    (fun (name, body) ->
      let prog = Parad_ir.Prog.create () in
      let b, _ = B.func prog "bad" ~params:[] ~ret:Ty.Unit in
      body b;
      B.return b None;
      ignore (B.finish b);
      let run call =
        match Exec.run ?call prog ~fname:"bad" ~setup:(fun _ -> []) with
        | _ -> Alcotest.fail (name ^ " did not fail")
        | exception Value.Runtime_error m -> m
      in
      Alcotest.(check string)
        (name ^ " diagnostic") (run None)
        (run (Some (E.call_fn (E.prepare prog) E.Seq))))
    (memory "out-of-bounds" oob
    @ memory "use-after-free" uaf
    @ [
        "cache.get before a set", cache_get "cache.newf" ~set:false 1;
        "boxed cache.get before a set", cache_get "cache.new" ~set:false 1;
        "cache.get out of range", cache_get "cache.newf" ~set:true 9;
        ( "adj.rev1_k",
          lanes "adj.rev1_k" (fun b file host ->
              B.
                [
                  file; i64 b 4; host; i64 b 0; i64 b 0; f64 b 0.0; f64 b 0.0;
                  bool b false; i64 b 0; i64 b 4;
                ]) );
        ( "adj.mtake_k",
          lanes "adj.mtake_k" (fun b sp file ->
              B.[ sp; i64 b 0; file; i64 b 4 ]) );
        ( "adj.load_k",
          lanes "adj.load_k" (fun b file plane ->
              B.[ file; i64 b 4; plane; i64 b 0; i64 b 4 ]) );
        ( "adj.store_k",
          lanes "adj.store_k" (fun b plane file ->
              B.[ file; i64 b 4; plane; i64 b 0; i64 b 4 ]) );
        ( "adj.zero_k",
          lanes "adj.zero_k" (fun b file _ -> B.[ file; i64 b 4; i64 b 4 ]) );
        ( "adj.rev2_k freed file",
          rev2 ~freed_file:true ~voff:4 (`File, 8) (`File, 12) );
        "adj.rev2_k scratch", rev2 ~size:3 ~voff:0 (`File, 0) (`File, 0);
        "adj.rev2_k taken group", rev2 ~voff:13 (`File, 8) (`File, 4);
        "adj.rev2_k taken group below", rev2 ~voff:(-1) (`File, 8) (`File, 4);
        "adj.rev2_k first host", rev2 ~voff:4 (`File, 14) (`File, 8);
        "adj.rev2_k second host", rev2 ~voff:4 (`File, 8) (`File, -2);
        "adj.rev2_k plane host", rev2 ~voff:4 (`File, 8) (`Plane, 6);
        "adj.rev2_k freed host", rev2 ~voff:4 (`Freed, 0) (`File, 8);
        ( "adj.rev2_k plane host before file host",
          rev2 ~voff:4 (`Plane, 5) (`File, 16) );
        "adj.srev_k shadow before host", srev ~mb:6 ~o1:14;
        "adj.srev_k host", srev ~mb:0 ~o1:13;
      ])

(* ---- allocation guard ---- *)

(* [hot x n]: a loop whose body runs every hot straight-line float
   operation — binops (Pow and Min among them), a compare feeding a
   select, unary ops, an if yielding a float, float load, store and
   atomic add, and a store and load on an unboxed cache sized before
   the loop *)
let hot_prog () =
  let module B = Parad_ir.Builder in
  let module Ty = Parad_ir.Ty in
  let prog = Parad_ir.Prog.create () in
  let b, ps =
    B.func prog "hot" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ x; n ] -> x, n | _ -> assert false in
  let zero = B.i64 b 0 and half = B.f64 b 0.5 in
  let cache = B.call b ~ret:Ty.Int "cache.newf" [ n ] in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc zero (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let j = B.rem b i (B.i64 b 4) in
      let xi = B.load b x j in
      let p = B.pow b (B.add b (B.abs_ b xi) half) half in
      let m = B.min_ b (B.mul b xi half) (B.sub b xi half) in
      let q = B.div b p (B.add b (B.abs_ b m) (B.f64 b 1.0)) in
      let s = B.select b (B.lt b xi q) xi q in
      let u = B.add b (B.sqrt_ b (B.mul b s s)) (B.sin_ b s) in
      let u = B.add b u (B.neg b (B.floor_ b u)) in
      let r =
        B.if_ b ~results:[ Ty.Float ] (B.gt b u half)
          ~then_:(fun () -> [ B.mul b u half ])
          ~else_:(fun () -> [ B.add b u half ])
      in
      ignore (B.call b ~ret:Ty.Unit "cache.set" [ cache; i; List.hd r ]);
      let y = B.call b ~ret:Ty.Float "cache.get" [ cache; i ] in
      B.store b x j (B.mul b (B.add b xi y) half);
      B.atomic_add b acc zero y);
  B.return b (Some (B.load b acc zero));
  ignore (B.finish b);
  prog

let test_alloc_free () =
  (* the engine's closures, loop iterations and block steps allocate
     nothing per executed instruction: a run of 2n iterations allocates
     no more minor words than one of n, plain and taped *)
  let module Tape = Parad_tape.Tape in
  let prog = hot_prog () in
  let prep = E.prepare prog in
  let x0 ctx = Exec.floats ctx [| 0.3; -1.2; 2.5; 0.7 |] in
  let plain n =
    ignore
      (Exec.run ~call:(E.call_fn prep E.Seq) prog ~fname:"hot"
         ~setup:(fun ctx -> [ x0 ctx; Value.VInt n ]))
  in
  let taped n =
    let tape = Tape.create ~rank:0 in
    ignore
      (Exec.run_spmd_custom prog ~nranks:1
         ~instrument:(fun ~rank:_ -> Tape.instrument tape)
         ~body:(fun ctx ~rank:_ ->
           let x = x0 ctx in
           Tape.activate tape x;
           ignore
             (E.call_fn_slots prep E.Seq ctx "hot" [ x; VInt n ] [ 0; 0 ])));
    Alcotest.(check bool) "taped rows" true (tape.Tape.rows > n)
  in
  let words run n =
    let before = Gc.minor_words () in
    run n;
    Gc.minor_words () -. before
  in
  let n = 2000 in
  List.iter
    (fun (name, run) ->
      (* the first run lowers the function *)
      run n;
      let w1 = words run n in
      let w2 = words run (2 * n) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words for %d more iterations" name
           (w2 -. w1) n)
        true
        (w2 -. w1 < 1000.0))
    [ "plain", plain; "taped", taped ]

let test_wall_ns_populated () =
  let c = L.compile L.Omp in
  let g = L.gradient_compiled ~nthreads:4 ~engine:E.Seq c tiny in
  Alcotest.(check bool) "wall_ns measured" true (g.L.g_stats.Stats.wall_ns > 0)

let () =
  Alcotest.run "engine"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "lulesh all flavors" `Quick
            test_lulesh_bit_identity;
          Alcotest.test_case "minibude all variants" `Quick
            test_bude_bit_identity;
          Alcotest.test_case "primal runs" `Quick test_primal_identity;
          QCheck_alcotest.to_alcotest prop_generated_identity;
          Alcotest.test_case "binomial driver" `Quick
            test_binomial_engine_identity;
          Alcotest.test_case "no allocation per instruction" `Quick
            test_alloc_free;
        ] );
      ( "structured failures",
        [
          Alcotest.test_case "deadline same clock" `Quick
            test_deadline_identical;
          Alcotest.test_case "kill recovery" `Quick
            test_kill_recovery_on_engine;
          Alcotest.test_case "sdc detection" `Quick
            test_sdc_detected_on_engine;
          Alcotest.test_case "lane diagnostics" `Quick test_lane_diagnostics;
          Alcotest.test_case "wall_ns" `Quick test_wall_ns_populated;
        ] );
    ]
