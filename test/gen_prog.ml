(* Random straight-line float kernels for the property tests of
   test_opt and test_forward: a list of stack operations, and the
   function "rand" (x : f64* -> f64) they build. Each property passes its
   own input buffer; a load index is taken modulo that buffer's length. *)

open Parad_ir
module B = Builder

type op = Add | Mul | Sub | Sin | Min | Load of int | ConstF of float

(* constants are multiples of 1/12 in [-2, 2] *)
let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (frequency
         [
           3, return Add;
           3, return Mul;
           2, return Sub;
           1, return Sin;
           1, return Min;
           3, map (fun i -> Load i) nat;
           2, map (fun k -> ConstF (Float.of_int (k mod 25) /. 12.0)) int;
         ]))

(** Run [ops] on a value stack that starts as [[init]] and return the
    stack, top first. [load i] gives the value [Load i] pushes. *)
let emit b ~init ~load ops =
  let stack = ref [ init ] in
  let push v = stack := v :: !stack in
  let pop2 () =
    match !stack with
    | a :: c :: rest ->
      stack := rest;
      a, c
    | [ a ] -> a, a
    | [] -> assert false
  in
  let bin f =
    let a, c = pop2 () in
    push (f b a c)
  in
  List.iter
    (function
      | Add -> bin B.add
      | Mul -> bin B.mul
      | Sub -> bin B.sub
      | Min -> bin B.min_
      | Sin -> push (B.sin_ b (List.hd !stack))
      | Load i -> push (load i)
      | ConstF f -> push (B.f64 b f))
    ops;
  !stack

(** The program holding "rand": it runs [ops] over loads from a buffer
    of [len] floats and returns the sum of the stack. *)
let build ~len ops =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "rand"
      ~attrs:[ Func.noalias_readonly ]
      ~params:[ "x", Ty.Ptr Ty.Float ]
      ~ret:Ty.Float
  in
  let x = List.hd ps in
  let load i = B.load b x (B.i64 b (i mod len)) in
  let stack = emit b ~init:(B.f64 b 0.5) ~load ops in
  let r = List.fold_left (fun acc v -> B.add b acc v) (B.f64 b 0.0) stack in
  B.return b (Some r);
  ignore (B.finish b);
  prog
