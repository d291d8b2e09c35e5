(* Per-thread reductions (Race.reductions): inside a reversed Fork, an
   adjoint increment the thread-locality analysis leaves atomic is
   accumulated into a member-private accumulator and added into the
   shared shadow once at the end of its scope, when one thread revisits
   its index. The planner must reduce exactly the increments the rule
   names; a reduced gradient must equal the atomic_always one to 1e-12
   (only the summation order changes) with fewer atomics; and both
   runners must give the same bits. *)

open Parad_ir
open Parad_runtime
module B = Builder
module Plan = Parad_core.Plan
module Race = Parad_core.Race
module Finfo = Parad_core.Finfo
module Engine = Parad_engine.Engine
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude

(* ---- the planner on hand-built kernels ----

   fork { workshare p < n { x = deck[0];
     s = 0; [for l < 3] { for q < 4 { s += x[idx] * w } }; [extra]; out[p] = s } }

   [x] is a shared input, loaded in the iteration as miniBUDE loads its
   deck fields, so the iteration is the accumulator's scope; [w] is a
   float parameter, a register captured from outside the fork. *)

let kernel ?(outer = true) ?(extra = fun _ _ _ -> ()) idx =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "k"
      ~attrs:Func.[ noalias_readonly; noalias; noalias_readonly; default_attr; default_attr ]
      ~params:
        [
          "deck", Ty.Ptr (Ty.Ptr Ty.Float);
          "out", Ty.Ptr Ty.Float;
          "ix", Ty.Ptr Ty.Int;
          "w", Ty.Float;
          "n", Ty.Int;
        ]
      ~ret:Ty.Unit
  in
  (match ps with
  | [ deck; out; ix; w; n ] ->
    B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun p ->
        let x = B.load b deck (B.i64 b 0) in
        let s = B.alloc b ~kind:Instr.Stack Ty.Float (B.i64 b 1) in
        let z = B.i64 b 0 in
        B.store b s z (B.f64 b 0.0);
        let nest () =
          B.for_n b (B.i64 b 4) (fun q ->
              let v = B.load b x (idx b ~p ~q ~ix) in
              B.store b s z (B.add b (B.load b s z) (B.mul b v w)))
        in
        if outer then B.for_n b (B.i64 b 3) (fun _ -> nest ()) else nest ();
        extra b x p;
        B.store b out p (B.load b s z))
  | _ -> assert false);
  B.return b None;
  ignore (B.finish b);
  prog

let reductions ?(opts = Plan.default_options) ?(fname = "k") prog =
  let f = Prog.find_exn prog fname in
  let fi = Finfo.of_func f in
  let p = Plan.create ~fi ~split:false ~opts in
  Plan.collect p ~register_callee:(fun ~spawned:_ _ -> ());
  Race.reductions p (Race.analyze fi f), f

let q4c b ~p:_ ~q ~ix:_ = B.add b (B.mul b q (B.i64 b 4)) (B.i64 b 1)

let sites ?opts ?fname prog =
  Hashtbl.length (fst (reductions ?opts ?fname prog)).Race.sites

let test_planner () =
  let check name want prog = Alcotest.(check int) name want (sites prog) in
  (* reduced *)
  check "q*4+c inside an invariant loop" 1 (kernel q4c);
  check "a constant index" 1 (kernel (fun b ~p:_ ~q:_ ~ix:_ -> B.i64 b 2));
  (* atomic *)
  check "an index depending on the workshare IV" 0
    (kernel (fun b ~p ~q ~ix:_ -> B.add b (B.mul b p (B.i64 b 4)) q));
  check "an index loaded from memory" 0
    (kernel (fun b ~p:_ ~q ~ix -> B.load b ix q));
  check "no invariant loop" 0 (kernel ~outer:false q4c);
  check "a store to the target in the scope" 0
    (kernel ~extra:(fun b x p -> B.store b x p (B.f64 b 1.0)) q4c);
  check "a call with the target in the scope" 0
    (kernel ~extra:(fun b x _ -> ignore (B.call b ~ret:Ty.Unit "debug.touch" [ x ])) q4c);
  Alcotest.(check int) "atomic_always reduces nothing" 0
    (sites ~opts:{ Plan.default_options with atomic_always = true } (kernel q4c));
  (* the register w, accumulated in every iteration, is reduced per member *)
  let red, f = reductions (kernel q4c) in
  let w = List.nth f.Func.params 3 in
  Alcotest.(check (list (list int)))
    "the captured register w" [ [ Var.id w ] ]
    (Hashtbl.fold (fun _ ids acc -> ids :: acc) red.Race.regs []);
  let red, _ = reductions ~opts:{ Plan.default_options with atomic_always = true } (kernel q4c) in
  Alcotest.(check int) "atomic_always reduces no register" 0 (Hashtbl.length red.Race.regs)

(* ---- A/B against atomic_always on the apps ---- *)

(* ||a - b|| / ||b||, normwise; the plain norm of a when b is zero *)
let rel a b =
  let d = ref 0.0 and n = ref 0.0 in
  Array.iteri
    (fun i x ->
      d := !d +. ((x -. b.(i)) ** 2.0);
      n := !n +. (b.(i) ** 2.0))
    a;
  if !n = 0.0 then sqrt !d else sqrt (!d /. !n)

let close name a b =
  Alcotest.(check int) (name ^ " length") (Array.length b) (Array.length a);
  let r = rel a b in
  if r > 1e-12 then Alcotest.failf "%s: relative difference %g > 1e-12" name r

let fewer name (d : Stats.t) (a : Stats.t) =
  if d.Stats.atomics >= a.Stats.atomics then
    Alcotest.failf "%s: %d atomics, atomic_always %d" name d.Stats.atomics a.Stats.atomics

let atomic_opts k = { Plan.default_options with seeds = k; atomic_always = true }
let default_opts k = { Plan.default_options with seeds = k }
let lanes = Array.init 8 (fun l -> 1.0 +. float_of_int l)
let tiny = { L.nx = 2; ny = 2; nz = 4; niter = 2; dt0 = 0.01; escale = 1.0 }
let deck = MB.deck ~nposes:8 ~natlig:6 ~natpro:8

let test_ab_bude () =
  let k1 opts = MB.gradient_compiled ~engine:Engine.Seq (MB.compile ~opts ~ntasks:4 MB.Omp) deck in
  let d = k1 (default_opts 1) and a = k1 (atomic_opts 1) in
  close "k=1 d_lig" d.MB.d_lig a.MB.d_lig;
  close "k=1 d_pro" d.MB.d_pro a.MB.d_pro;
  close "k=1 d_poses" d.MB.d_poses a.MB.d_poses;
  fewer "k=1" d.MB.g_stats a.MB.g_stats;
  let k8 opts =
    MB.gradient_batched ~engine:Engine.Seq (MB.compile ~opts ~ntasks:4 MB.Omp)
      ~ge_seeds:lanes deck
  in
  let d = k8 (default_opts 8) and a = k8 (atomic_opts 8) in
  Array.iteri
    (fun l (g : MB.grad_result) ->
      let n s = Printf.sprintf "k=8 lane %d %s" l s in
      close (n "d_lig") g.MB.d_lig a.(l).MB.d_lig;
      close (n "d_pro") g.MB.d_pro a.(l).MB.d_pro;
      close (n "d_poses") g.MB.d_poses a.(l).MB.d_poses)
    d;
  fewer "k=8" d.(0).MB.g_stats a.(0).MB.g_stats

let test_ab_lulesh () =
  List.iter
    (fun fl ->
      let name = L.flavor_name fl in
      let nranks = if L.uses_mpi fl then 2 else 1 in
      let k1 opts =
        L.gradient_compiled ~nranks ~nthreads:4 ~engine:Engine.Seq
          (L.compile ~opts fl) tiny
      in
      let d = k1 (default_opts 1) and a = k1 (atomic_opts 1) in
      Array.iteri
        (fun r x -> close (Printf.sprintf "%s k=1 d_coords.%d" name r) x a.L.d_coords.(r))
        d.L.d_coords;
      Array.iteri
        (fun r x -> close (Printf.sprintf "%s k=1 d_energy.%d" name r) x a.L.d_energy.(r))
        d.L.d_energy;
      fewer (name ^ " k=1") d.L.g_stats a.L.g_stats;
      (* batched lanes cover the shared-memory flavors only *)
      if not (L.uses_mpi fl) then begin
        let k8 opts =
          L.gradient_batched ~nthreads:4 ~engine:Engine.Seq (L.compile ~opts fl)
            ~d_rets:lanes tiny
        in
        let d = k8 (default_opts 8) and a = k8 (atomic_opts 8) in
        Array.iteri
          (fun l (g : L.grad_result) ->
            close
              (Printf.sprintf "%s k=8 lane %d d_coords" name l)
              g.L.d_coords.(0) a.(l).L.d_coords.(0);
            close
              (Printf.sprintf "%s k=8 lane %d d_energy" name l)
              g.L.d_energy.(0) a.(l).L.d_energy.(0))
          d;
        fewer (name ^ " k=8") d.(0).L.g_stats a.(0).L.g_stats
      end)
    [ L.Omp; L.Raja_; L.Hybrid ]

(* ---- accumulators wider than the cells the primal reads ----

   e(x, out, m, n): fork { workshare i < m { s = 0; [body];
   out[i] = s } }, [body] adding v*v for loads v of the shared
   parameter x (the member is the scope, the workshare the reuse loop),
   x holding exactly the cells the body reads. A site under an If or
   in a loop of step 2 stays atomic; an empty loop opens no cell; a
   triangular nest reduces, and its combine skips the accumulator's
   cell below x (the j loop's bounds address x[-1], which no increment
   reaches). Each gradient must run, equal atomic_always to 1e-12,
   and give the same bits on both runners, at k = 1 and k = 2. *)

let edge body =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "e"
      ~attrs:Func.[ noalias_readonly; noalias; default_attr; default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "m", Ty.Int; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  (match ps with
  | [ x; out; m; n ] ->
    B.parallel_for b ~lo:(B.i64 b 0) ~hi:m (fun i ->
        let s = B.alloc b ~kind:Instr.Stack Ty.Float (B.i64 b 1) in
        let z = B.i64 b 0 in
        B.store b s z (B.f64 b 0.0);
        let add v = B.store b s z (B.add b (B.load b s z) (B.mul b v v)) in
        body b ~x ~n ~add;
        B.store b out i (B.load b s z))
  | _ -> assert false);
  B.return b None;
  ignore (B.finish b);
  prog

let guarded b ~x ~n ~add =
  B.for_n b n (fun q ->
      let q1 = B.add b q (B.i64 b 1) in
      B.when_ b (B.lt b q1 n) (fun () -> add (B.load b x q1)))

let strided b ~x ~n ~add =
  B.for_ b ~step:(B.i64 b 2) ~lo:(B.i64 b 0) ~hi:n (fun q ->
      add (B.load b x (B.add b q (B.i64 b 1))))

let plain b ~x ~n ~add = B.for_n b n (fun q -> add (B.load b x q))

let triangular b ~x ~n ~add =
  B.for_n b n (fun q ->
      B.for_n b q (fun _ -> add (B.load b x (B.sub b q (B.i64 b 1)))))

let grad_edge ~opts ~engine prog ~m ~n =
  let k = opts.Plan.seeds in
  let dprog, dname = Parad_verify.Grad_check.differentiate ~opts prog "e" in
  let dx = ref Value.VUnit in
  let r =
    Exec.run ~cfg:{ Interp.default_config with nthreads = 4 }
      ~call:(Engine.call_fn (Engine.prepare dprog) engine) dprog ~fname:dname
      ~setup:(fun ctx ->
        dx := Exec.zeros ctx (n * k);
        [
          Exec.floats ctx (Array.init n (fun i -> 0.5 +. float_of_int i));
          Exec.zeros ctx m;
          Value.VInt m;
          Value.VInt n;
          !dx;
          Exec.floats ctx (Array.init (m * k) (fun i -> 1.0 +. float_of_int (i mod k)));
        ])
  in
  Exec.to_floats !dx, r.Exec.stats

let test_edges () =
  List.iter
    (fun (name, body, want, n) ->
      let prog = edge body in
      Alcotest.(check int) (name ^ ": reduced sites") want (sites ~fname:"e" prog);
      List.iter
        (fun k ->
          let run ?(atomic_always = false) engine =
            fst
              (grad_edge ~opts:{ Plan.default_options with seeds = k; atomic_always }
                 ~engine prog ~m:3 ~n)
          in
          let name = Printf.sprintf "%s k=%d" name k in
          let d = run Engine.Seq in
          close name d (run ~atomic_always:true Engine.Seq);
          Alcotest.(check (array int64))
            (name ^ ": interp = seq")
            (Array.map Int64.bits_of_float d)
            (Array.map Int64.bits_of_float (run Engine.Interp)))
        [ 1; 2 ])
    [
      "guarded x[q+1]", guarded, 0, 6;
      "x[q+1] in steps of 2", strided, 0, 6;
      "an empty j loop", plain, 1, 0;
      "triangular x[q-1]", triangular, 1, 6;
    ]

(* RaceSan sees a combine's adds into the shared shadow as atomic
   accesses, as it saw the atomic increments the combine replaces. *)
let test_sanitized_combine () =
  let n = 6 and m = 3 in
  let dprog, dname = Parad_verify.Grad_check.differentiate (edge plain) "e" in
  let san = Sanitizer.create () in
  let dx = ref Value.VUnit in
  ignore
    (Exec.run ~cfg:{ Interp.default_config with nthreads = 4 } ~san dprog ~fname:dname
       ~setup:(fun ctx ->
         dx := Exec.zeros ctx n;
         [
           Exec.floats ctx (Array.init n (fun i -> 0.5 +. float_of_int i));
           Exec.zeros ctx m; Value.VInt m; Value.VInt n; !dx;
           Exec.floats ctx (Array.make m 1.0);
         ]));
  Alcotest.(check int) "findings" 0 san.Sanitizer.n_findings;
  let bid = match !dx with Value.VPtr p -> p.buf.bid | _ -> assert false in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt san.Sanitizer.cells (0, bid, i) with
    | Some c when c.Sanitizer.c_a <> -1 -> ()
    | _ -> Alcotest.failf "d_x[%d]: no atomic access logged" i
  done

(* ---- generated fork kernels ----

   fk(deck, out, n): x = deck[0]; fork { workshare p < n {
   s = x[p mod len] * 0.5; [for l < 2] { for q < 3 { s += the sum of
   [ops] over loads of x } }; out[p] = s } }, where [Load k] reads
   x[a*q + k mod 4], or the constant cell x[k mod len] when
   k mod 3 = 2. [x] is shared, so every load reversal is atomic unless
   it is reduced. With [inner] the iteration loads x itself, and the
   iteration, not the member, is the accumulators' scope. *)

let fk_input = [| 0.3; -1.2; 2.0; 0.7; -0.1; 1.5; 0.9; -0.4; 1.1; -0.8; 0.6; 0.2 |]

let build_fork ~a ~outer ~inner ops =
  let len = Array.length fk_input in
  let prog = Prog.create () in
  let b, ps =
    B.func prog "fk"
      ~attrs:Func.[ noalias_readonly; noalias; default_attr ]
      ~params:[ "deck", Ty.Ptr (Ty.Ptr Ty.Float); "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  (match ps with
  | [ deck; out; n ] ->
    let field () = B.load b deck (B.i64 b 0) in
    let x0 = if inner then None else Some (field ()) in
    B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun p ->
        let x = match x0 with Some x -> x | None -> field () in
        let s = B.alloc b ~kind:Instr.Stack Ty.Float (B.i64 b 1) in
        let z = B.i64 b 0 in
        let init = B.mul b (B.load b x (B.rem b p (B.i64 b len))) (B.f64 b 0.5) in
        B.store b s z init;
        let nest () =
          B.for_n b (B.i64 b 3) (fun q ->
              let load k =
                if k mod 3 = 2 then B.load b x (B.i64 b (k mod len))
                else
                  B.load b x (B.add b (B.mul b q (B.i64 b a)) (B.i64 b (k mod 4)))
              in
              let stack = Gen_prog.emit b ~init ~load ops in
              let sum = List.fold_left (fun acc v -> B.add b acc v) (B.f64 b 0.0) stack in
              B.store b s z (B.add b (B.load b s z) sum))
        in
        if outer then B.for_n b (B.i64 b 2) (fun _ -> nest ()) else nest ();
        B.store b out p (B.load b s z))
  | _ -> assert false);
  B.return b None;
  ignore (B.finish b);
  prog

let prop_fork_kernels =
  QCheck.Test.make
    ~name:"generated fork kernels: reduced == atomic, interp == seq, lanes == solo"
    ~count:120
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad (int_range 1 3) (pair bool bool) (int_range 2 7) (int_range 1 4))
           Gen_prog.gen_ops))
    (fun ((a, (outer, inner), n, nthreads), ops) ->
      let len = Array.length fk_input in
      let prog = build_fork ~a ~outer ~inner ops in
      (* d_out[i] of lane l is (1 + i/4) * seeds.(l); d_x comes back
         k-stride *)
      let run ?(seeds = [| 1.0 |]) opts engine =
        let k = Array.length seeds in
        let dprog, dname =
          Parad_verify.Grad_check.differentiate ~opts:{ opts with Plan.seeds = k } prog "fk"
        in
        let dx = ref Value.VUnit in
        let r =
          Exec.run ~cfg:{ Interp.default_config with nthreads }
            ~call:(Engine.call_fn (Engine.prepare dprog) engine) dprog ~fname:dname
            ~setup:(fun ctx ->
              dx := Exec.zeros ctx (len * k);
              [
                Exec.ptr_table ctx [ Exec.floats ctx fk_input ];
                Exec.zeros ctx n;
                Value.VInt n;
                Exec.ptr_table ctx [ !dx ];
                Exec.floats ctx
                  (Array.init (n * k) (fun i ->
                       (1.0 +. (0.25 *. float_of_int (i / k))) *. seeds.(i mod k)));
              ])
        in
        Exec.to_floats !dx, r.Exec.makespan, r.Exec.stats.Stats.instrs
      in
      let bits (g, m, i) = Array.map Int64.bits_of_float g, Int64.bits_of_float m, i in
      let ((g, _, _) as d) = run Plan.default_options Engine.Interp in
      let ga, _, _ = run { Plan.default_options with atomic_always = true } Engine.Seq in
      let seeds = [| 1.0; -0.5 |] in
      let plane, _, _ = run ~seeds Plan.default_options Engine.Seq in
      let lane l =
        let solo, _, _ = run ~seeds:[| seeds.(l) |] Plan.default_options Engine.Seq in
        Array.for_all Fun.id
          (Array.mapi
             (fun i x -> Int64.bits_of_float x = Int64.bits_of_float plane.((i * 2) + l))
             solo)
      in
      bits d = bits (run Plan.default_options Engine.Seq)
      && rel g ga <= 1e-12 && lane 0 && lane 1)

let () =
  Alcotest.run "reduce"
    [
      ( "planner",
        [
          Alcotest.test_case "hand-built kernels" `Quick test_planner;
          Alcotest.test_case "accumulators wider than the reads" `Quick test_edges;
          Alcotest.test_case "RaceSan logs the combine" `Quick test_sanitized_combine;
        ] );
      ( "apps",
        [
          Alcotest.test_case "minibude omp vs atomic_always" `Quick test_ab_bude;
          Alcotest.test_case "lulesh omp/raja/hybrid vs atomic_always" `Quick
            test_ab_lulesh;
        ] );
      "props", [ QCheck_alcotest.to_alcotest prop_fork_kernels ];
    ]
