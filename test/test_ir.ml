(* IR construction, verification, and printing. *)

open Parad_ir
module B = Builder

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let build_square () =
  let prog = Prog.create () in
  let b, ps = B.func prog "square" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  let y = B.mul b x x in
  B.return b (Some y);
  ignore (B.finish b);
  prog

let test_build_and_verify () =
  let prog = build_square () in
  match Verifier.check_prog_result prog with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verifier rejected valid program: %s" m

let test_printer () =
  let prog = build_square () in
  let s = Printer.prog_to_string prog in
  Alcotest.(check bool) "func header" true (contains s "func @square");
  Alcotest.(check bool) "mul op" true (contains s "mul");
  Alcotest.(check bool) "return" true (contains s "return")

let test_use_before_def_rejected () =
  let prog = Prog.create () in
  let b, _ = B.func prog "bad" ~params:[] ~ret:Ty.Float in
  let ghost = Var.make ~id:17 ~ty:Ty.Float ~name:"ghost" in
  let v = B.add b ghost ghost in
  B.return b (Some v);
  ignore (B.finish b);
  match Verifier.check_prog_result prog with
  | Ok () -> Alcotest.fail "verifier accepted use-before-def"
  | Error _ -> ()

let test_type_mismatch_rejected () =
  let prog = Prog.create () in
  let b, _ = B.func prog "bad2" ~params:[] ~ret:Ty.Float in
  let i = B.i64 b 1 in
  B.return b (Some i);
  ignore (B.finish b);
  match Verifier.check_prog_result prog with
  | Ok () -> Alcotest.fail "verifier accepted return type mismatch"
  | Error _ -> ()

let test_workshare_outside_fork_rejected () =
  let prog = Prog.create () in
  let b, _ = B.func prog "bad3" ~params:[] ~ret:Ty.Unit in
  let lo = B.i64 b 0 and hi = B.i64 b 4 in
  B.workshare b ~lo ~hi (fun _ -> ());
  B.return b None;
  ignore (B.finish b);
  match Verifier.check_prog_result prog with
  | Ok () -> Alcotest.fail "verifier accepted workshare outside fork"
  | Error _ -> ()

let test_nested_fork_rejected () =
  let prog = Prog.create () in
  let b, _ = B.func prog "bad4" ~params:[] ~ret:Ty.Unit in
  B.fork b (fun ~tid:_ ~nth:_ -> B.fork b (fun ~tid:_ ~nth:_ -> ()));
  B.return b None;
  ignore (B.finish b);
  match Verifier.check_prog_result prog with
  | Ok () -> Alcotest.fail "verifier accepted nested fork"
  | Error _ -> ()

let expect_rejection prog msg =
  match Verifier.check_prog_result prog with
  | Ok () -> Alcotest.failf "verifier accepted it (wanted %S)" msg
  | Error m ->
    if not (contains m msg) then Alcotest.failf "wanted %S, got %S" msg m

let test_then_def_used_in_else_rejected () =
  let prog = Prog.create () in
  let b, ps = B.func prog "cross" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  let leaked = ref x in
  let r =
    B.if_ b (B.gt b x (B.f64 b 0.0)) ~results:[ Ty.Float ]
      ~then_:(fun () ->
        leaked := B.neg b x;
        [ !leaked ])
      ~else_:(fun () -> [ B.neg b !leaked ])
  in
  B.return b (Some (List.hd r));
  ignore (B.finish b);
  expect_rejection prog "use of undefined variable"

let test_loop_def_used_after_loop_rejected () =
  let prog = Prog.create () in
  let b, ps = B.func prog "escape" ~params:[ "n", Ty.Int ] ~ret:Ty.Float in
  let inner = ref None in
  B.for_n b (List.hd ps) (fun i -> inner := Some (B.to_float b i));
  B.return b !inner;
  ignore (B.finish b);
  expect_rejection prog "use of undefined variable"

(* hand-built unit functions: the builder never reuses a variable *)
let raw_func name ~params body ~var_count =
  let prog = Prog.create () in
  Prog.add prog
    (Func.make ~name ~params
       ~attrs:(List.map (fun _ -> Func.default_attr) params)
       ~ret_ty:Ty.Unit ~body ~var_count);
  prog

let test_defined_twice_rejected () =
  let v = Var.make ~id:0 ~ty:Ty.Float ~name:"v" in
  expect_rejection
    (raw_func "twice" ~params:[] ~var_count:1
       Instr.[ Const (v, Cfloat 1.0); Const (v, Cfloat 2.0); Return None ])
    "defined twice"

let test_one_def_per_sibling_branch_accepted () =
  let c = Var.make ~id:0 ~ty:Ty.Bool ~name:"c"
  and v = Var.make ~id:1 ~ty:Ty.Float ~name:"v" in
  let arm x = Instr.(region [ Const (v, Cfloat x); Yield [] ]) in
  match
    Verifier.check_prog_result
      (raw_func "siblings" ~params:[ c ] ~var_count:2
         Instr.[ If ([], c, arm 1.0, arm 2.0); Return None ])
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sibling definitions rejected: %s" m

(* One malformed function per [fail] site of the verifier, each with the
   exact message it raises. [malformed name tys body] builds function
   [name] whose var [k] has id [k] and type [tys.(k)], with the vars
   numbered by [params] as parameters, return type [ret], var count
   [var_count] (by default the number of vars) and body [body vars]. *)
let malformed name ?(ret = Ty.Unit) ?(params = []) ?var_count tys body =
  let vs =
    Array.of_list (List.mapi (fun id ty -> Var.make ~id ~ty ~name:"v") tys)
  in
  let var_count = Option.value var_count ~default:(Array.length vs) in
  let params = List.map (fun k -> vs.(k)) params in
  let prog = Prog.create () in
  Prog.add prog
    (Func.make ~name ~params
       ~attrs:(List.map (fun _ -> Func.default_attr) params)
       ~ret_ty:ret ~body:(body vs) ~var_count);
  prog

let test_every_message () =
  let open Instr in
  let i0 v = Const (v, Cint 0) and f0 v = Const (v, Cfloat 0.0) in
  let fork ?(params = fun tid nth -> [ tid; nth ]) (v : Var.t array) body =
    (* v.(0) width, v.(1) tid, v.(2) nth *)
    let body = region ~params:(params v.(1) v.(2)) body in
    [ i0 v.(0); Fork { tid = v.(1); nth = v.(0); body }; Return None ]
  in
  let cases =
    [
      ( "var out of range",
        malformed "f" ~var_count:1 [ Ty.Int; Ty.Int ] (fun v ->
            [ i0 v.(1); Return None ]),
        "f: var %v.1 out of range" );
      ( "return not in tail position",
        malformed "f" [] (fun _ -> [ Return None; Return None ]),
        "f: return not in tail position" );
      ( "yield not in tail position",
        malformed "f" [ Ty.Bool ] ~params:[ 0 ] (fun v ->
            [ If ([], v.(0), region [ Yield []; Yield [] ],
                  region [ Yield [] ]);
              Return None ]),
        "f: yield not in tail position" );
      ( "missing return value",
        malformed "f" ~ret:Ty.Float [] (fun _ -> [ Return None ]),
        "f: missing return value of type f64" );
      ( "body must end in return",
        malformed "f" [] (fun _ -> []),
        "f: body must end in return" );
      ( "yield arity",
        malformed "f" [ Ty.Bool; Ty.Float ] ~params:[ 0 ] (fun v ->
            [ If ([ v.(1) ], v.(0), region [ Yield [] ], region [ Yield [] ]);
              Return None ]),
        "f: yield arity mismatch" );
      ( "yield type",
        malformed "f" [ Ty.Bool; Ty.Float; Ty.Int ] ~params:[ 0 ] (fun v ->
            [ If ([ v.(1) ], v.(0), region [ i0 v.(2); Yield [ v.(2) ] ],
                  region [ Yield [ v.(2) ] ]);
              Return None ]),
        "f: yield: expected f64, got i64" );
      ( "region must end in yield",
        malformed "f" [ Ty.Bool ] ~params:[ 0 ] (fun v ->
            [ If ([], v.(0), region [], region [ Yield [] ]); Return None ]),
        "f: region must end in yield" );
      ( "terminator in a plain region",
        malformed "f" [ Ty.Int; Ty.Int ] (fun v ->
            [ i0 v.(0);
              For { iv = v.(1); lo = v.(0); hi = v.(0); step = v.(0);
                    body = region ~params:[ v.(1) ] [ Yield [] ] };
              Return None ]),
        "f: unexpected terminator in plain region" );
      ( "for body params",
        malformed "f" [ Ty.Int; Ty.Int ] (fun v ->
            [ i0 v.(0);
              For { iv = v.(1); lo = v.(0); hi = v.(0); step = v.(0);
                    body = region [] };
              Return None ]),
        "for body params must be [iv]" );
      ( "while inside a fork",
        malformed "f" [ Ty.Int; Ty.Int; Ty.Int; Ty.Bool ] (fun v ->
            fork v
              [ While { cond = region [ Const (v.(3), Cbool false);
                                        Yield [ v.(3) ] ];
                        body = region [] } ]),
        "f: while inside a parallel region" );
      ( "fork body params",
        malformed "f" [ Ty.Int; Ty.Int; Ty.Int ] (fun v ->
            fork ~params:(fun tid _ -> [ tid ]) v []),
        "fork body params must be [tid; nth]" );
      ( "workshare body params",
        malformed "f" [ Ty.Int; Ty.Int; Ty.Int; Ty.Int ] (fun v ->
            fork v
              [ Workshare { iv = v.(3); lo = v.(1); hi = v.(2);
                            body = region []; schedule = Chunked;
                            nowait = false } ]),
        "workshare body params must be [iv]" );
      ( "barrier outside fork",
        malformed "f" [] (fun _ -> [ Barrier; Return None ]),
        "f: barrier outside fork" );
      ( "load of a non-pointer",
        malformed "f" [ Ty.Float; Ty.Int; Ty.Float ] (fun v ->
            [ f0 v.(0); i0 v.(1); Load (v.(2), v.(0), v.(1)); Return None ]),
        "load of non-pointer" );
      ( "store to a non-pointer",
        malformed "f" [ Ty.Float; Ty.Int ] (fun v ->
            [ f0 v.(0); i0 v.(1); Store (v.(0), v.(1), v.(0)); Return None ]),
        "store to non-pointer" );
      ( "gep of a non-pointer",
        malformed "f" [ Ty.Float; Ty.Int; Ty.Float ] (fun v ->
            [ f0 v.(0); i0 v.(1); Gep (v.(2), v.(0), v.(1)); Return None ]),
        "gep of non-pointer" );
      ( "free of a non-pointer",
        malformed "f" [ Ty.Float ] (fun v ->
            [ f0 v.(0); Free v.(0); Return None ]),
        "free of non-pointer" );
      ( "atomic.add pointer",
        malformed "f" [ Ty.Ptr Ty.Int; Ty.Int; Ty.Float ] ~params:[ 0 ]
          (fun v ->
            [ i0 v.(1); f0 v.(2); AtomicAdd (v.(0), v.(1), v.(2));
              Return None ]),
        "atomic.add ptr: expected f64*, got i64*" );
      ( "atomic.add index",
        malformed "f" [ Ty.Ptr Ty.Float; Ty.Float ] ~params:[ 0 ] (fun v ->
            [ f0 v.(1); AtomicAdd (v.(0), v.(1), v.(1)); Return None ]),
        "atomic.add index: expected i64, got f64" );
      ( "atomic.add value",
        malformed "f" [ Ty.Ptr Ty.Float; Ty.Int ] ~params:[ 0 ] (fun v ->
            [ i0 v.(1); AtomicAdd (v.(0), v.(1), v.(1)); Return None ]),
        "atomic.add value: expected f64, got i64" );
      ( "pow on int",
        malformed "f" [ Ty.Int; Ty.Int ] (fun v ->
            [ i0 v.(0); Bin (v.(1), Pow, v.(0), v.(0)); Return None ]),
        "pow on i64" );
      ( "rem on float",
        malformed "f" [ Ty.Float; Ty.Float ] (fun v ->
            [ f0 v.(0); Bin (v.(1), Rem, v.(0), v.(0)); Return None ]),
        "rem on f64" );
      ( "arith on bool",
        malformed "f" [ Ty.Bool; Ty.Bool ] ~params:[ 0 ] (fun v ->
            [ Bin (v.(1), Add, v.(0), v.(0)); Return None ]),
        "arith on i1" );
      ( "neg on bool",
        malformed "f" [ Ty.Bool; Ty.Bool ] ~params:[ 0 ] (fun v ->
            [ Un (v.(1), Neg, v.(0)); Return None ]),
        "neg on i1" );
      ( "abs on bool",
        malformed "f" [ Ty.Bool; Ty.Bool ] ~params:[ 0 ] (fun v ->
            [ Un (v.(1), Abs, v.(0)); Return None ]),
        "abs on i1" );
    ]
  in
  List.iter
    (fun (what, prog, msg) ->
      match Verifier.check_prog_result prog with
      | Ok () -> Alcotest.failf "%s: accepted (wanted %S)" what msg
      | Error m -> Alcotest.(check string) what msg m)
    cases

let test_structured_builder () =
  let prog = Prog.create () in
  let b, ps = B.func prog "f" ~params:[ "n", Ty.Int ] ~ret:Ty.Float in
  let n = List.hd ps in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let x = B.to_float b i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur x));
  let r = B.load b acc (B.i64 b 0) in
  B.free b acc;
  B.return b (Some r);
  ignore (B.finish b);
  match Verifier.check_prog_result prog with
  | Ok () -> ()
  | Error m -> Alcotest.failf "loop program rejected: %s" m

let test_if_yield_types () =
  let prog = Prog.create () in
  let b, ps = B.func prog "g" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  let c = B.gt b x (B.f64 b 0.0) in
  let r =
    B.if_ b c ~results:[ Ty.Float ]
      ~then_:(fun () -> [ x ])
      ~else_:(fun () -> [ B.neg b x ])
  in
  B.return b (Some (List.hd r));
  ignore (B.finish b);
  match Verifier.check_prog_result prog with
  | Ok () -> ()
  | Error m -> Alcotest.failf "if program rejected: %s" m

let test_parallel_constructs_verify () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "pf" ~params:[ "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let out, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  B.fork b (fun ~tid ~nth:_ ->
      B.workshare b ~lo:(B.i64 b 0) ~hi:n (fun i ->
          B.store b out i (B.to_float b i));
      B.barrier b;
      ignore tid);
  B.return b None;
  ignore (B.finish b);
  match Verifier.check_prog_result prog with
  | Ok () -> ()
  | Error m -> Alcotest.failf "parallel program rejected: %s" m

let test_instr_fold_counts () =
  let prog = build_square () in
  let f = Prog.find_exn prog "square" in
  let count = Instr.fold_instrs (fun acc _ -> acc + 1) 0 f.body in
  Alcotest.(check int) "instr count" 2 count

let ty_gen =
  QCheck.make
    (QCheck.Gen.sized (fun n ->
         let rec gen n =
           if n = 0 then QCheck.Gen.oneofl [ Ty.Unit; Ty.Bool; Ty.Int; Ty.Float ]
           else
             QCheck.Gen.oneof
               [
                 QCheck.Gen.oneofl [ Ty.Unit; Ty.Bool; Ty.Int; Ty.Float ];
                 QCheck.Gen.map (fun t -> Ty.Ptr t) (gen (n / 2));
               ]
         in
         gen (min n 6)))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ty_equal_refl" ~count:200 ty_gen (fun t ->
           Ty.equal t t));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ptr_elem_roundtrip" ~count:200 ty_gen (fun t ->
           Ty.equal (Ty.elem (Ty.Ptr t)) t));
  ]

let () =
  Alcotest.run "ir"
    [
      ( "builder",
        [
          Alcotest.test_case "build+verify" `Quick test_build_and_verify;
          Alcotest.test_case "printer" `Quick test_printer;
          Alcotest.test_case "loop program" `Quick test_structured_builder;
          Alcotest.test_case "if yields" `Quick test_if_yield_types;
          Alcotest.test_case "parallel constructs" `Quick
            test_parallel_constructs_verify;
          Alcotest.test_case "fold_instrs" `Quick test_instr_fold_counts;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "use-before-def" `Quick
            test_use_before_def_rejected;
          Alcotest.test_case "type mismatch" `Quick test_type_mismatch_rejected;
          Alcotest.test_case "workshare placement" `Quick
            test_workshare_outside_fork_rejected;
          Alcotest.test_case "nested fork" `Quick test_nested_fork_rejected;
          Alcotest.test_case "then-def used in else" `Quick
            test_then_def_used_in_else_rejected;
          Alcotest.test_case "loop-def used after loop" `Quick
            test_loop_def_used_after_loop_rejected;
          Alcotest.test_case "defined twice" `Quick test_defined_twice_rejected;
          Alcotest.test_case "one def per sibling branch" `Quick
            test_one_def_per_sibling_branch_accepted;
          Alcotest.test_case "every message" `Quick test_every_message;
        ] );
      "props", qcheck_tests;
    ]
