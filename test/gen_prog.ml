(* Random float kernels for the property tests of test_opt and
   test_forward: a list of stack operations, and the function "rand"
   (x : f64* -> f64) they build, straight-line or inside a loop nest.
   Each property passes its own input buffer; a load index is taken
   modulo that buffer's length. *)

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

(** Where the ops run: once, straight-line, or on every iteration of
    [for i < 3 { for j < 2 { ... } }], loading [x[(i*2 + j + k) mod len]]
    for [Load k] and accumulating the stack's sum into a one-cell local
    allocation that is read after the nest. The nest's stack starts from
    [x[0] * 0.5], computed before the nest, so that value's adjoint
    gathers contributions across the iterations. [Register] is the nest
    with a per-access register: each iteration adds the stack's sum into
    a second one-cell allocation, reads it back and stores 0.0 into it,
    and accumulates what it read. *)
type shape = Straight | Nest | Register

let gen_shape = QCheck.Gen.oneofl [ Straight; Nest ]
let gen_any_shape = QCheck.Gen.oneofl [ Straight; Nest; Register ]

(** The program holding "rand": it runs [ops] over loads from a buffer
    of [len] floats and returns the sum of the stack, accumulated over
    the iterations for [Nest]. *)
let build ?(shape = Straight) ~len ops =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "rand"
      ~attrs:[ Func.noalias_readonly ]
      ~params:[ "x", Ty.Ptr Ty.Float ]
      ~ret:Ty.Float
  in
  let x = List.hd ps in
  let sum ~init ~load =
    let stack = emit b ~init ~load ops in
    List.fold_left (fun acc v -> B.add b acc v) (B.f64 b 0.0) stack
  in
  let r =
    match shape with
    | Straight ->
      sum ~init:(B.f64 b 0.5) ~load:(fun i -> B.load b x (B.i64 b (i mod len)))
    | Nest | Register ->
      let one_cell () = B.alloc b ~kind:Instr.Stack Ty.Float (B.i64 b 1) in
      let acc = one_cell () in
      let reg = if shape = Register then Some (one_cell ()) else None in
      let zero = B.i64 b 0 in
      let init = B.mul b (B.load b x zero) (B.f64 b 0.5) in
      B.for_n b (B.i64 b 3) (fun i ->
          B.for_n b (B.i64 b 2) (fun j ->
              let ij = B.add b (B.mul b i (B.i64 b 2)) j in
              let load k =
                B.load b x (B.rem b (B.add b ij (B.i64 b k)) (B.i64 b len))
              in
              let s = sum ~init ~load in
              let s =
                match reg with
                | None -> s
                | Some r ->
                  B.store b r zero (B.add b (B.load b r zero) s);
                  let v = B.load b r zero in
                  B.store b r zero (B.f64 b 0.0);
                  v
              in
              B.store b acc zero (B.add b (B.load b acc zero) s)));
      B.load b acc zero
  in
  B.return b (Some r);
  ignore (B.finish b);
  prog
