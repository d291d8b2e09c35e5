(* Reverse-mode AD: finite-difference verification across language
   features — straight-line code, branches, loops, memory, calls, tasks,
   fork/join parallelism, and message passing. *)

open Parad_ir
open Parad_runtime
module B = Builder
module GC = Parad_verify.Grad_check

let feq = Alcotest.float 1e-6

let cfg nthreads = { Interp.default_config with nthreads }

let check_ok ?cfg ?opts ?seeds ?d_ret ?tol name prog fname args =
  match GC.check ?cfg ?opts ?seeds ?d_ret ?tol prog fname args with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

let two ps = match ps with [ a; b ] -> a, b | _ -> assert false
let three ps = match ps with [ a; b; c ] -> a, b, c | _ -> assert false

(* ---- scalar programs ---- *)

let test_square () =
  let prog = Prog.create () in
  let b, ps = B.func prog "sq" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  B.return b (Some (B.mul b x x));
  ignore (B.finish b);
  let g = GC.reverse prog "sq" [ GC.AScalar 3.0 ] in
  Alcotest.check feq "primal" 9.0 g.GC.primal;
  Alcotest.check feq "d/dx x^2 = 2x" 6.0 g.GC.d_scalars.(0)

let test_transcendental () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "tf" ~params:[ "x", Ty.Float; "y", Ty.Float ] ~ret:Ty.Float
  in
  let x, y = two ps in
  (* sin(x*y) + exp(x) / (1 + y^2) + sqrt(x) * log(y) *)
  let t1 = B.sin_ b (B.mul b x y) in
  let t2 = B.div b (B.exp_ b x) (B.add b (B.f64 b 1.0) (B.mul b y y)) in
  let t3 = B.mul b (B.sqrt_ b x) (B.log_ b y) in
  B.return b (Some (B.add b (B.add b t1 t2) t3));
  ignore (B.finish b);
  check_ok "transcendental" prog "tf" [ GC.AScalar 1.3; GC.AScalar 0.8 ]

let test_minmax_abs_select () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "mm" ~params:[ "x", Ty.Float; "y", Ty.Float ] ~ret:Ty.Float
  in
  let x, y = two ps in
  let m = B.min_ b (B.mul b x x) (B.mul b y y) in
  let n = B.max_ b x (B.neg b y) in
  let c = B.gt b x y in
  let s = B.select b c (B.mul b x y) (B.add b x y) in
  B.return b (Some (B.add b (B.add b m n) (B.add b s (B.abs_ b y))));
  ignore (B.finish b);
  check_ok "minmax" prog "mm" [ GC.AScalar 1.7; GC.AScalar (-0.6) ];
  check_ok "minmax2" prog "mm" [ GC.AScalar (-0.4); GC.AScalar 2.0 ]

let test_pow () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "pw" ~params:[ "x", Ty.Float; "y", Ty.Float ] ~ret:Ty.Float
  in
  let x, y = two ps in
  B.return b (Some (B.pow b x y));
  ignore (B.finish b);
  check_ok "pow" prog "pw" [ GC.AScalar 1.8; GC.AScalar 2.3 ]

(* ---- memory and loops ---- *)

(* out[i] = in[i]^2; loss = sum out *)
let test_buffer_map () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "bm"
      ~params:[ "inp", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let inp, out, n = three ps in
  B.for_n b n (fun i ->
      let x = B.load b inp i in
      B.store b out i (B.mul b x x));
  B.return b None;
  ignore (B.finish b);
  let input = [| 1.0; -2.0; 0.5; 3.0 |] in
  let g =
    GC.reverse prog "bm"
      [ GC.ABuf input; GC.ABuf (Array.make 4 0.0); GC.AInt 4 ]
      ~seeds:[ Array.make 4 0.0; Array.make 4 1.0 ]
  in
  Array.iteri
    (fun i x ->
      Alcotest.check feq (Printf.sprintf "d in[%d]" i) (2.0 *. x)
        (List.hd g.GC.d_bufs).(i))
    input;
  check_ok "buffer map fd" prog "bm"
    [ GC.ABuf input; GC.ABuf (Array.make 4 0.0); GC.AInt 4 ]

(* loop-carried dependence through memory: acc = acc * x[i] *)
let test_product_reduction () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "prod" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 1.0);
  B.for_n b n (fun i ->
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.mul b cur (B.load b x i)));
  let r = B.load b acc (B.i64 b 0) in
  B.free b acc;
  B.return b (Some r);
  ignore (B.finish b);
  check_ok "product" prog "prod"
    [ GC.ABuf [| 1.5; 2.0; 0.5; -1.2; 3.0 |]; GC.AInt 5 ]
    ~seeds:[ Array.make 5 0.0 ]

let test_nested_loops () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "nest" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      B.for_n b n (fun j ->
          let xi = B.load b x i and xj = B.load b x j in
          let cur = B.load b acc (B.i64 b 0) in
          B.store b acc (B.i64 b 0)
            (B.add b cur (B.mul b (B.sin_ b xi) xj))));
  let r = B.load b acc (B.i64 b 0) in
  B.return b (Some r);
  ignore (B.finish b);
  check_ok "nested loops" prog "nest"
    [ GC.ABuf [| 0.3; 1.1; -0.7 |]; GC.AInt 3 ]
    ~seeds:[ Array.make 3 0.0 ]

let test_branches () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "br" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let xi = B.load b x i in
      let c = B.gt b xi (B.f64 b 0.0) in
      let v =
        B.if_ b c ~results:[ Ty.Float ]
          ~then_:(fun () -> [ B.mul b xi xi ])
          ~else_:(fun () -> [ B.neg b (B.mul b xi (B.f64 b 3.0)) ])
      in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (List.hd v)));
  let r = B.load b acc (B.i64 b 0) in
  B.return b (Some r);
  ignore (B.finish b);
  check_ok "branches" prog "br"
    [ GC.ABuf [| 0.5; -1.5; 2.0; -0.1 |]; GC.AInt 4 ]
    ~seeds:[ Array.make 4 0.0 ]

let test_while_loop () =
  (* newton-ish iteration with data-dependent trip count:
     y = x; while (y > 1.5) y = y * 0.7; return y * y *)
  let prog = Prog.create () in
  let b, ps = B.func prog "wh" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  let cell = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b cell (B.i64 b 0) x;
  B.while_ b
    ~cond:(fun () -> B.gt b (B.load b cell (B.i64 b 0)) (B.f64 b 1.5))
    ~body:(fun () ->
      let y = B.load b cell (B.i64 b 0) in
      B.store b cell (B.i64 b 0) (B.mul b y (B.f64 b 0.7)));
  let y = B.load b cell (B.i64 b 0) in
  B.return b (Some (B.mul b y y));
  ignore (B.finish b);
  check_ok "while" prog "wh" [ GC.AScalar 10.0 ];
  check_ok "while short" prog "wh" [ GC.AScalar 1.2 ]

let test_gep_aliasing_views () =
  (* two gep views into one buffer *)
  let prog = Prog.create () in
  let b, ps =
    B.func prog "gp" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let lo = x in
  let hi = B.gep b x n in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let a = B.load b lo i and c = B.load b hi i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b a c)));
  B.return b (Some (B.load b acc (B.i64 b 0)));
  ignore (B.finish b);
  check_ok "gep views" prog "gp"
    [ GC.ABuf [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |]; GC.AInt 3 ]
    ~seeds:[ Array.make 6 0.0 ]

(* ---- calls and tasks ---- *)

let test_call_split () =
  let prog = Prog.create () in
  (* helper: g(x) = x^3 + sin x *)
  let b, ps = B.func prog "g" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  B.return b
    (Some (B.add b (B.mul b x (B.mul b x x)) (B.sin_ b x)));
  ignore (B.finish b);
  (* f(x,y) = g(x) * g(y) + g(x*y) *)
  let b, ps =
    B.func prog "f" ~params:[ "x", Ty.Float; "y", Ty.Float ] ~ret:Ty.Float
  in
  let x, y = two ps in
  let gx = B.call b ~ret:Ty.Float "g" [ x ] in
  let gy = B.call b ~ret:Ty.Float "g" [ y ] in
  let gxy = B.call b ~ret:Ty.Float "g" [ B.mul b x y ] in
  B.return b (Some (B.add b (B.mul b gx gy) gxy));
  ignore (B.finish b);
  check_ok "split calls" prog "f" [ GC.AScalar 0.9; GC.AScalar 1.4 ]

let test_call_with_buffers () =
  let prog = Prog.create () in
  (* scale(v, n, a): v[i] *= a *)
  let b, ps =
    B.func prog "scale"
      ~params:[ "v", Ty.Ptr Ty.Float; "n", Ty.Int; "a", Ty.Float ]
      ~ret:Ty.Unit
  in
  let v, n, a = three ps in
  B.for_n b n (fun i -> B.store b v i (B.mul b (B.load b v i) a));
  B.return b None;
  ignore (B.finish b);
  let b, ps =
    B.func prog "drv" ~params:[ "v", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let v, n = two ps in
  ignore (B.call b ~ret:Ty.Unit "scale" [ v; n; B.f64 b 2.5 ]);
  ignore (B.call b ~ret:Ty.Unit "scale" [ v; n; B.f64 b 0.5 ]);
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let cur = B.load b acc (B.i64 b 0) in
      let x = B.load b v i in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b x x)));
  B.return b (Some (B.load b acc (B.i64 b 0)));
  ignore (B.finish b);
  check_ok "callee mutating buffers" prog "drv"
    [ GC.ABuf [| 1.0; -2.0; 0.25 |]; GC.AInt 3 ]
    ~seeds:[ Array.make 3 0.0 ]

let test_recursive_call () =
  let prog = Prog.create () in
  (* pow4(x, k): x^(2^k) by recursive squaring *)
  let b, ps =
    B.func prog "pk" ~params:[ "x", Ty.Float; "k", Ty.Int ] ~ret:Ty.Float
  in
  let x, k = two ps in
  let c = B.le b k (B.i64 b 0) in
  let r =
    B.if_ b c ~results:[ Ty.Float ]
      ~then_:(fun () -> [ x ])
      ~else_:(fun () ->
        let sub =
          B.call b ~ret:Ty.Float "pk" [ x; B.sub b k (B.i64 b 1) ]
        in
        [ B.mul b sub sub ])
  in
  B.return b (Some (List.hd r));
  ignore (B.finish b);
  check_ok "recursion" prog "pk" [ GC.AScalar 1.1; GC.AInt 3 ]

let test_tasks_gradient () =
  let prog = Prog.create () in
  (* worker(x, out, i): out[i] = sin(x[i]) * x[i] *)
  let b, ps =
    B.func prog "worker"
      ~params:[ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "i", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, out, i = three ps in
  let xi = B.load b x i in
  B.store b out i (B.mul b (B.sin_ b xi) xi);
  B.return b None;
  ignore (B.finish b);
  let b, ps =
    B.func prog "spawnmain"
      ~params:[ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, out, n = three ps in
  let hs = B.alloc b Ty.Int n in
  B.for_n b n (fun i -> B.store b hs i (B.spawn b "worker" [ x; out; i ]));
  B.for_n b n (fun i -> B.sync b (B.load b hs i));
  B.free b hs;
  B.return b None;
  ignore (B.finish b);
  let input = [| 0.4; 1.9; -0.8; 2.2 |] in
  check_ok "task gradient" prog "spawnmain"
    [ GC.ABuf input; GC.ABuf (Array.make 4 0.0); GC.AInt 4 ]
    ~seeds:[ Array.make 4 0.0; Array.make 4 1.0 ]

(* ---- fork/join parallelism ---- *)

let omp_square_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "psq"
      ~attrs:[ Func.noalias; Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, out, n = three ps in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      let xi = B.load b x i in
      B.store b out i (B.mul b (B.exp_ b xi) xi));
  B.return b None;
  ignore (B.finish b);
  prog

let test_parallel_for_gradient () =
  let prog = omp_square_prog () in
  let input = [| 0.1; 0.9; -1.1; 0.6; 1.4; -0.2 |] in
  List.iter
    (fun w ->
      check_ok
        (Printf.sprintf "omp gradient w=%d" w)
        ~cfg:(cfg w) prog "psq"
        [ GC.ABuf input; GC.ABuf (Array.make 6 0.0); GC.AInt 6 ]
        ~seeds:[ Array.make 6 0.0; Array.make 6 1.0 ])
    [ 1; 3; 8 ]

let test_parallel_gradient_matches_serial () =
  let prog = omp_square_prog () in
  let input = [| 0.1; 0.9; -1.1; 0.6; 1.4; -0.2 |] in
  let grad w =
    let g =
      GC.reverse ~cfg:(cfg w) prog "psq"
        [ GC.ABuf input; GC.ABuf (Array.make 6 0.0); GC.AInt 6 ]
        ~seeds:[ Array.make 6 0.0; Array.make 6 1.0 ]
    in
    List.hd g.GC.d_bufs
  in
  let g1 = grad 1 and g8 = grad 8 in
  Array.iteri
    (fun i x -> Alcotest.check feq (Printf.sprintf "elt %d" i) x g8.(i))
    g1

(* ---- the emitted shape: what the reverse pass writes, before any
   post-AD pass, over the golden cases of test_opt. (a) Every function
   it writes holds one Const per type and bit pattern. (b) At seeds = 1,
   within a block, no adjoint-register slot is loaded after it was
   stored, or stored twice, unless a nested region or a barrier (where
   the emitter stores its pending adjoints) lies between. A register
   slot is a float Alloc used only by Load/Store at constant indices
   and by Free. ---- *)

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude

let golden_cases () =
  let k1 = Parad_core.Plan.default_options in
  let k8 = { k1 with seeds = 8 } in
  List.map
    (fun fl -> L.flavor_name fl, L.flavor_name fl, L.program fl, k1)
    [ L.Seq; L.Omp; L.Raja_; L.Mpi; L.Hybrid; L.Jlmpi; L.RajaMpi ]
  @ List.map
      (fun name -> name, name, MB.program (), k1)
      [ "bude_seq"; "bude_omp"; "bude_julia"; "bude_chunk_jl" ]
  @ [
      "lulesh_omp seeds=8", "lulesh_omp", L.program L.Omp, k8;
      "bude_omp seeds=8", "bude_omp", MB.program (), k8;
    ]

(* the functions the reverse pass wrote: d_*, aug_* and rev_* *)
let emitted src dst =
  List.filter
    (fun (f : Func.t) -> Option.is_none (Prog.find src f.name))
    (Prog.functions dst)

let const_key v (c : Instr.const) =
  ( Var.ty v,
    match c with
    | Instr.Cunit | Instr.Cnull _ -> 0L
    | Instr.Cbool x -> if x then 1L else 0L
    | Instr.Cint x -> Int64.of_int x
    | Instr.Cfloat x -> Int64.bits_of_float x )

let duplicate_consts (f : Func.t) =
  let seen = Hashtbl.create 64 in
  Instr.fold_instrs
    (fun n i ->
      match i with
      | Instr.Const (v, c) ->
        let k = const_key v c in
        if Hashtbl.mem seen k then n + 1
        else begin
          Hashtbl.add seen k ();
          n
        end
      | _ -> n)
    0 f.body

(* store/reload pairs and double stores of a register slot within one
   block *)
let register_round_trips (f : Func.t) =
  let ints = Hashtbl.create 64 and slot_ok = Hashtbl.create 16 in
  Instr.iter_instrs
    (fun i ->
      match i with
      | Instr.Const (v, Instr.Cint x) -> Hashtbl.replace ints (Var.id v) x
      | Instr.Alloc (v, Ty.Float, _, _) ->
        Hashtbl.replace slot_ok (Var.id v) true
      | _ -> ())
    f.body;
  let const_ix ix = Hashtbl.mem ints (Var.id ix) in
  Instr.iter_instrs
    (fun i ->
      let allowed =
        match i with
        | Instr.Load (_, p, ix) | Instr.Store (p, ix, _) when const_ix ix ->
          [ p ]
        | Instr.Free p -> [ p ]
        | _ -> []
      in
      List.iter
        (fun u ->
          if Hashtbl.mem slot_ok (Var.id u) && not (List.memq u allowed) then
            Hashtbl.replace slot_ok (Var.id u) false)
        (Instr.uses i))
    f.body;
  let slot p ix =
    if Hashtbl.find_opt slot_ok (Var.id p) = Some true then
      Some (Var.id p, Hashtbl.find ints (Var.id ix))
    else None
  in
  let bad = ref 0 in
  let rec block instrs =
    let stored = Hashtbl.create 16 in
    List.iter
      (fun i ->
        (match i with
        | Instr.Load (_, p, ix) | Instr.Store (p, ix, _) -> (
          match slot p ix with
          | Some c ->
            if Hashtbl.mem stored c then incr bad;
            (match i with
            | Instr.Store _ -> Hashtbl.replace stored c ()
            | _ -> ())
          | None -> ())
        | Instr.Barrier -> Hashtbl.reset stored
        | _ -> ());
        match Instr.regions i with
        | [] -> ()
        | rs ->
          Hashtbl.reset stored;
          List.iter (fun (r : Instr.region) -> block r.body) rs)
      instrs
  in
  block f.body;
  !bad

let test_emitted_shape () =
  List.iter
    (fun (tag, name, src, (opts : Parad_core.Plan.options)) ->
      let dst, _ = Parad_core.Reverse.gradient ~opts src name in
      List.iter
        (fun (f : Func.t) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s repeats no constant" tag f.name)
            0 (duplicate_consts f);
          if opts.seeds = 1 then
            Alcotest.(check int)
              (Printf.sprintf "%s: %s keeps block adjoints in SSA" tag f.name)
              0 (register_round_trips f))
        (emitted src dst))
    (golden_cases ())

(* ---- the cache-vs-recompute cut ---- *)

(* On seeded random graphs of at most ten candidates — random operand
   DAGs, capacities, needed values, values that cannot be recomputed and
   free values (cache charge 0, not recomputable) — the cut's choice is
   a valid plan whose charge equals the brute-force minimum over every
   set of recomputed values. *)
let test_mincut_optimal () =
  let module C = Parad_core.Plan.Cut in
  for seed = 0 to 249 do
    let st = Random.State.make [| seed |] in
    let int n = Random.State.int st n in
    let n = 1 + int 10 in
    let g =
      Array.init n (fun i ->
          let operands =
            List.filter (fun _ -> int 3 = 0) (List.init i Fun.id)
          in
          let needed = int 3 = 0 || i = n - 1 in
          let cache = 1 + int 20 in
          match int 5 with
          | 0 -> { C.cache = 0; recomp = None; operands; needed } (* free *)
          | 1 -> { C.cache; recomp = None; operands; needed }
          | _ -> { C.cache; recomp = Some (int 20); operands; needed })
    in
    (* the charge of recomputing the nodes [r] and caching the others
       in [avail] *)
    let charge r avail =
      let c = ref 0 in
      Array.iteri
        (fun i nd ->
          if r i then c := !c + Option.get nd.C.recomp
          else if avail i then c := !c + nd.C.cache)
        g;
      !c
    in
    (* brute force: recomputing exactly the set [mask] means caching
       every other value that is needed or read by a recomputation *)
    let best = ref max_int in
    for mask = 0 to (1 lsl n) - 1 do
      let r i = mask land (1 lsl i) <> 0 in
      if List.for_all (fun i -> (not (r i)) || g.(i).C.recomp <> None)
           (List.init n Fun.id)
      then begin
        let avail = Array.map (fun nd -> nd.C.needed) g in
        Array.iteri
          (fun i nd ->
            if r i then List.iter (fun o -> avail.(o) <- true) nd.C.operands)
          g;
        best := min !best (charge r (Array.get avail))
      end
    done;
    let choice = C.solve g in
    let ok i = choice.(i) <> C.Skip in
    Array.iteri
      (fun i nd ->
        if nd.C.needed && not (ok i) then
          Alcotest.failf "seed %d: needed node %d unavailable" seed i;
        if choice.(i) = C.Recompute then begin
          if nd.C.recomp = None then
            Alcotest.failf "seed %d: node %d recomputed but cannot be" seed i;
          List.iter
            (fun o ->
              if not (ok o) then
                Alcotest.failf "seed %d: node %d recomputed without operand %d"
                  seed i o)
            nd.C.operands
        end)
      g;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: minimum charge" seed)
      !best
      (charge (fun i -> choice.(i) = C.Recompute) (fun i -> ok i))
  done

let () =
  Alcotest.run "ad"
    [
      ( "scalar",
        [
          Alcotest.test_case "square" `Quick test_square;
          Alcotest.test_case "transcendental" `Quick test_transcendental;
          Alcotest.test_case "min/max/abs/select" `Quick
            test_minmax_abs_select;
          Alcotest.test_case "pow" `Quick test_pow;
        ] );
      ( "memory+control",
        [
          Alcotest.test_case "buffer map" `Quick test_buffer_map;
          Alcotest.test_case "product reduction" `Quick
            test_product_reduction;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "gep views" `Quick test_gep_aliasing_views;
        ] );
      ( "calls",
        [
          Alcotest.test_case "split calls" `Quick test_call_split;
          Alcotest.test_case "buffer-mutating callee" `Quick
            test_call_with_buffers;
          Alcotest.test_case "recursion" `Quick test_recursive_call;
          Alcotest.test_case "tasks" `Quick test_tasks_gradient;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "parallel for" `Quick test_parallel_for_gradient;
          Alcotest.test_case "parallel == serial" `Quick
            test_parallel_gradient_matches_serial;
        ] );
      ( "emission",
        [ Alcotest.test_case "emitted shape" `Quick test_emitted_shape ] );
      ( "planner",
        [ Alcotest.test_case "min-cut is optimal" `Quick test_mincut_optimal ] );
    ]
