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
   programs, straight-line, in a loop nest and in a nest with a register
   that is accumulated, read back and zeroed (where a lane group's +0.0
   state, which decides whether a contribution is written or added, is
   easiest to misjudge), at 2, 3 and 8 lanes. Each lane of the batched
   gradient must be bit-identical to the single-seed gradient with the
   same seed, and the batched run must give the same bits, makespan and
   instruction count on interp and on seq. *)
let gen_input = [| 0.3; -1.2; 2.0; 0.7; -0.1; 1.5; 0.9; -0.4 |]
let gen_seeds = [| 1.0; -0.5; 2.0; 0.25; -3.0; 0.75; 1.5; -1.25 |]

let prop_generated_lanes =
  QCheck.Test.make ~name:"generated kernels: lanes == solo" ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple (oneofl [ 2; 3; 8 ]) Gen_prog.gen_any_shape Gen_prog.gen_ops))
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

(* Every lane call the reverse pass emits takes an int constant for each
   static operand (the lane count, each group's mode and kind, the
   lane-file offsets), so the seq engine lowers all of them: an 8-lane
   gradient delegates nothing to the interpreter. An emission change that
   passed a computed static operand would send every lane call through
   [Interp.intrinsic], which only the wall clock would show. *)
let test_no_fallbacks () =
  let opts = { Plan.default_options with seeds = 8 } in
  let seeds = Array.init 8 (fun l -> float_of_int (l + 1)) in
  let check name (st : Parad_runtime.Stats.t) =
    Alcotest.(check int)
      (name ^ " interpreter fallbacks")
      0 st.Parad_runtime.Stats.eng_fallbacks
  in
  List.iter
    (fun (flavor, nthreads) ->
      let c = L.compile ~opts flavor in
      let g =
        L.gradient_batched ~nthreads ~engine:Engine.Seq c ~d_rets:seeds tiny
      in
      check (L.flavor_name flavor) g.(0).L.g_stats)
    [ L.Seq, 1; L.Omp, 4; L.Raja_, 3 ];
  let c = MB.compile ~opts ~ntasks:4 MB.Omp in
  let g =
    MB.gradient_batched ~nthreads:4 ~engine:Engine.Seq c ~ge_seeds:seeds small
  in
  check "minibude omp" g.(0).MB.g_stats

(* An operand whose reverse statement passes nothing on (LULESH's
   [gamma - 1.0], whose operands are both constants) is not useful, so
   no lane call accumulates into it: the emitted 8-lane LULESH OMP
   gradient clears no dead lane group with an adj.zero_k. *)
let test_no_dead_lanes () =
  let opts = { Plan.default_options with seeds = 8 } in
  let dprog, _ =
    Parad_core.Reverse.gradient ~opts (L.program L.Omp) "lulesh_omp"
  in
  let zeros =
    List.fold_left
      (fun n (f : Parad_ir.Func.t) ->
        Parad_ir.Instr.fold_instrs
          (fun n i ->
            match i with
            | Parad_ir.Instr.Call (_, "adj.zero_k", _) -> n + 1
            | _ -> n)
          n f.body)
      0
      (Parad_ir.Prog.functions dprog)
  in
  Alcotest.(check int) "adj.zero_k calls" 0 zeros

(* A lane call whose static operands are not constants is delegated to
   the interpreter, and gives the same result: a hand-built kernel whose
   adj.rev2_k takes its first group's offset, mode and kind from
   parameters, between natively lowered adj.load_k calls, must give the
   same lanes, makespan and counts on interp and on seq. A write goes
   into v's own lanes, which the call's take has just left +0.0. *)
let test_delegated_lane_call () =
  let module B = Parad_ir.Builder in
  let module Ty = Parad_ir.Ty in
  let module V = Parad_runtime.Value in
  let module X = Parad_runtime.Exec in
  let module St = Parad_runtime.Stats in
  let prog = Parad_ir.Prog.create () in
  let b, ps =
    B.func prog "lanes"
      ~params:
        [
          "file", Ty.Ptr Ty.Float;
          "plane", Ty.Ptr Ty.Float;
          "off", Ty.Int;
          "mode", Ty.Int;
          "kind", Ty.Int;
        ]
      ~ret:Ty.Unit
  in
  let file, plane, off, mode, kind =
    match ps with
    | [ f; p; o; m; a ] -> f, p, o, m, a
    | _ -> assert false
  in
  let k = B.i64 b 4 in
  B.for_n b (B.i64 b 3) (fun _ ->
      ignore
        (B.call b ~ret:Ty.Unit "adj.load_k"
           B.[ file; i64 b 4; plane; i64 b 0; k ]);
      ignore
        (B.call b ~ret:Ty.Unit "adj.rev2_k"
           B.
             [
               file; i64 b 4; file; off; mode; f64 b 1.5; f64 b (-0.75);
               bool b true; kind; plane; i64 b 4; i64 b 5; f64 b 0.5;
               f64 b 3.0; bool b false; i64 b 0; k;
             ]));
  B.return b None;
  ignore (B.finish b);
  let run engine (o, m, a) =
    let cells = ref V.VUnit and pl = ref V.VUnit in
    let r =
      X.run
        ~call:(Engine.call_fn (Engine.prepare prog) engine)
        prog ~fname:"lanes"
        ~setup:(fun ctx ->
          cells := X.floats ctx (Array.init 16 (fun i -> 0.25 *. float i));
          pl := X.floats ctx (Array.init 8 (fun i -> 1.0 -. (0.3 *. float i)));
          [ !cells; !pl; V.VInt o; V.VInt m; V.VInt a ])
    in
    X.to_floats !cells, X.to_floats !pl, r
  in
  List.iter
    (fun ((o, m, a) as args) ->
      let name = Printf.sprintf "off %d mode %d kind %d" o m a in
      let fi, pi, ri = run Engine.Interp args in
      let fs, ps, rs = run Engine.Seq args in
      bits_eq (name ^ " file") fi fs;
      bits_eq (name ^ " plane") pi ps;
      Alcotest.(check (float 0.0))
        (name ^ " makespan") ri.X.makespan rs.X.makespan;
      List.iter
        (fun (what, get) ->
          Alcotest.(check int) (name ^ " " ^ what) (get ri.X.stats)
            (get rs.X.stats))
        St.
          [
            ("instrs", fun s -> s.instrs);
            ("loads", fun s -> s.loads);
            ("stores", fun s -> s.stores);
            ("atomics", fun s -> s.atomics);
            ("flops", fun s -> s.flops);
          ];
      Alcotest.(check int)
        (name ^ " delegated calls") 3 rs.X.stats.St.eng_fallbacks)
    [ 8, 2, 0; 12, 5, 1; 0, 9, 0; 8, 7, 0; 4, 2, 2 ]

(* A register's first contribution is written, not added into +0.0: in
   [r = x[0] * x[1] + x[2]] each adjoint register (r, the product and
   the three loads) takes exactly one contribution, so the 4-lane
   gradient runs, lane for lane, what the single-seed gradient runs once
   [fold] has dropped its [0.0 + x] adds: 2 kernel flops, then per lane
   the product's formula (2 flops) and the three loads' adds into the
   shadow (3), 22 flops in all (42 with an accumulating add per lane of
   each of the five groups). Interp and seq charge and count the same. *)
let test_first_contribution_writes () =
  let module B = Parad_ir.Builder in
  let module Ty = Parad_ir.Ty in
  let module X = Parad_runtime.Exec in
  let prog = Parad_ir.Prog.create () in
  let b, ps =
    B.func prog "fma" ~params:[ "x", Ty.Ptr Ty.Float ] ~ret:Ty.Float
  in
  let x = List.hd ps in
  let ld i = B.load b x (B.i64 b i) in
  B.return b (Some (B.add b (B.mul b (ld 0) (ld 1)) (ld 2)));
  ignore (B.finish b);
  let k = 4 in
  let dprog, dname =
    Parad_verify.Grad_check.differentiate
      ~opts:{ Plan.default_options with seeds = k }
      prog "fma"
  in
  let prep = Engine.prepare dprog in
  List.iter
    (fun engine ->
      let r =
        X.run ~call:(Engine.call_fn prep engine) dprog ~fname:dname
          ~setup:(fun ctx ->
            [ X.floats ctx [| 0.5; -2.0; 3.0 |]; X.zeros ctx (3 * k);
              X.floats ctx (Array.sub gen_seeds 0 k) ])
      in
      let name = Engine.choice_to_string engine in
      Alcotest.(check int) (name ^ " flops") 22
        r.X.stats.Parad_runtime.Stats.flops;
      Alcotest.(check (float 0.0)) (name ^ " makespan") 488.2 r.X.makespan)
    [ Engine.Interp; Engine.Seq ]

(* The interpreter checks a write's precondition, which the bits cannot
   show: an adj.rev1_k that takes v's lanes into the scratch and writes
   them into a lane group holding a lane that is not +0.0 (the scratch
   itself, or a group with a -0.0) raises, after the group's bounds
   check. The same call into +0.0 lanes goes through, and into a plane
   outside the file it is a store per lane, with no load, on interp and
   on seq alike. *)
let test_write_precondition () =
  let module B = Parad_ir.Builder in
  let module Ty = Parad_ir.Ty in
  let module V = Parad_runtime.Value in
  let module X = Parad_runtime.Exec in
  let module St = Parad_runtime.Stats in
  let prog = Parad_ir.Prog.create () in
  (* a function writing the scratch into [host]'s lanes at [off], a
     constant, so that seq lowers the call *)
  let kernel off =
    let name = Printf.sprintf "write%d" off in
    let b, ps =
      B.func prog name
        ~params:[ "file", Ty.Ptr Ty.Float; "host", Ty.Ptr Ty.Float ]
        ~ret:Ty.Unit
    in
    let file, host = match ps with [ f; h ] -> f, h | _ -> assert false in
    ignore
      (B.call b ~ret:Ty.Unit "adj.rev1_k"
         B.
           [
             file; i64 b 4; host; i64 b off; i64 b 2; f64 b 1.5; f64 b 0.0;
             bool b false; i64 b 2; i64 b 4;
           ]);
    B.return b None;
    ignore (B.finish b)
  in
  List.iter kernel [ 0; 8; 12; 13 ];
  let prep = Engine.prepare prog in
  (* v's lanes at 4, +0.0 lanes at 8 and a -0.0 at 14 *)
  let cells = Array.init 16 (fun i -> if i >= 4 && i < 8 then 1.0 else 0.0) in
  cells.(14) <- -0.0;
  (* the file and the host after a run at [off]; the host is the file
     unless [plane] *)
  let run ?(engine = Engine.Interp) ?(plane = false) off =
    let file = ref V.VUnit and host = ref V.VUnit in
    let r =
      X.run ~call:(Engine.call_fn prep engine) prog
        ~fname:(Printf.sprintf "write%d" off)
        ~setup:(fun ctx ->
          file := X.floats ctx cells;
          host := if plane then X.zeros ctx 4 else !file;
          [ !file; !host ])
    in
    X.to_floats !file, X.to_floats !host, r
  in
  let raises off msg =
    match run off with
    | _ -> Alcotest.failf "a write at %d did not raise" off
    | exception Parad_runtime.Interp.Interp_error m ->
      Alcotest.(check string)
        (Printf.sprintf "write at %d" off)
        msg
        (String.sub m 0 (min (String.length m) (String.length msg)))
  in
  let file, _, _ = run 8 in
  bits_eq "write into +0.0 lanes"
    (Array.init 16 (fun i ->
         if i < 4 then 1.0 else if i < 8 then 0.0 else if i < 12 then 1.5
         else cells.(i)))
    file;
  raises 12 "adj.rev1_k: write into a group whose lane 2 is not +0.0 (it \
             holds -0x0p+0)";
  raises 0 "adj.rev1_k: write into a group whose lane 0 is not +0.0 (it \
            holds 0x1p+0)";
  raises 13 "out of bounds:";
  let _, pi, ri = run ~plane:true 0 in
  let _, ps, rs = run ~engine:Engine.Seq ~plane:true 0 in
  bits_eq "plane" (Array.make 4 1.5) pi;
  bits_eq "seq plane" pi ps;
  Alcotest.(check (float 0.0)) "seq makespan" ri.X.makespan rs.X.makespan;
  List.iter
    (fun (what, get, n) ->
      Alcotest.(check int) ("interp " ^ what) n (get ri.X.stats);
      Alcotest.(check int) ("seq " ^ what) n (get rs.X.stats))
    St.
      [
        ("loads", (fun s -> s.loads), 0);
        ("stores", (fun s -> s.stores), 4);
        ("flops", (fun s -> s.flops), 4);
        ("fallbacks", (fun s -> s.eng_fallbacks), 0);
      ]

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
          Alcotest.test_case "lane calls never delegate" `Quick
            test_no_fallbacks;
          Alcotest.test_case "delegated lane call == interp" `Quick
            test_delegated_lane_call;
          Alcotest.test_case "no dead lane accumulations" `Quick
            test_no_dead_lanes;
          Alcotest.test_case "first contribution is a write" `Quick
            test_first_contribution_writes;
          Alcotest.test_case "a write checks its lanes are +0.0" `Quick
            test_write_precondition;
        ] );
      ( "guards",
        [
          Alcotest.test_case "mpi rejected" `Quick test_mpi_rejected;
          Alcotest.test_case "seed count checked" `Quick
            test_seed_count_checked;
        ] );
    ]
