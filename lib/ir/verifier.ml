(** IR well-formedness checks: SSA single definition, defs dominate uses
    (lexically, which is dominance in a structured IR), type agreement,
    region terminators, and placement rules for parallel constructs
    ([Workshare]/[Barrier] only inside [Fork], no nested [Fork], no [While]
    inside parallel regions — a documented restriction of the caching
    planner). *)

open Instr

exception Ill_formed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

type ctx = { in_fork : bool; in_loop : bool }

let check_ty what got want =
  if not (Ty.equal got want) then
    fail "%s: expected %a, got %a" what Ty.pp want Ty.pp got

(* The variables in scope, as a bitset over var ids. A region clears the
   bits it set when it ends, so neither a sibling region nor the code
   after it sees its definitions. *)
type scope = { f : Func.t; bits : Bytes.t }

let in_scope s id =
  id >= 0 && id < s.f.var_count
  && Char.code (Bytes.unsafe_get s.bits (id lsr 3)) land (1 lsl (id land 7))
     <> 0

let toggle s id =
  let byte = Char.code (Bytes.unsafe_get s.bits (id lsr 3)) in
  Bytes.unsafe_set s.bits (id lsr 3)
    (Char.unsafe_chr (byte lxor (1 lsl (id land 7))))

let rec check_region s ctx (r : region) ~terminator =
  let f = s.f in
  let mine = ref [] in
  let define v =
    if Var.id v < 0 || Var.id v >= f.var_count then
      fail "%s: var %a out of range" f.name Var.pp v;
    if in_scope s (Var.id v) then
      fail "%s: variable %a defined twice" f.name Var.pp v;
    toggle s (Var.id v);
    mine := Var.id v :: !mine
  in
  List.iter define r.params;
  let use v =
    if not (in_scope s (Var.id v)) then
      fail "%s: use of undefined variable %a" f.name Var.pp v
  in
  let rec go last = function
    | [] -> last
    | i :: rest ->
      let is_last = match rest with [] -> true | _ -> false in
      (match i with
      | Return _ when not is_last ->
        fail "%s: return not in tail position" f.name
      | Yield _ when not is_last -> fail "%s: yield not in tail position" f.name
      | _ -> ());
      List.iter use (uses i);
      check_instr s ctx i;
      List.iter define (defs i);
      go (Some i) rest
  in
  let last = go None r.body in
  List.iter (toggle s) !mine;
  (* terminator discipline *)
  (match terminator, last with
  | `Return, Some (Return r) ->
    (match r, f.ret_ty with
    | None, Ty.Unit -> ()
    | Some v, t -> check_ty (f.name ^ ": return") (Var.ty v) t
    | None, t -> fail "%s: missing return value of type %a" f.name Ty.pp t)
  | `Return, _ -> fail "%s: body must end in return" f.name
  | `Yield tys, Some (Yield vs) ->
    if List.length vs <> List.length tys then
      fail "%s: yield arity mismatch" f.name;
    List.iter2 (fun v t -> check_ty (f.name ^ ": yield") (Var.ty v) t) vs tys
  | `Yield _, _ -> fail "%s: region must end in yield" f.name
  | `None, Some (Yield _ | Return _) ->
    fail "%s: unexpected terminator in plain region" f.name
  | `None, _ -> ());
  ()

and check_instr s ctx i =
  let f = s.f in
  let t v = Var.ty v in
  match i with
  | Const (v, c) ->
    let want =
      match c with
      | Cunit -> Ty.Unit
      | Cbool _ -> Ty.Bool
      | Cint _ -> Ty.Int
      | Cfloat _ -> Ty.Float
      | Cnull e -> Ty.Ptr e
    in
    check_ty "const" (t v) want
  | Bin (v, op, a, b) ->
    check_ty "bin lhs/rhs" (t a) (t b);
    check_ty "bin result" (t v) (t a);
    (match op, t a with
    | Pow, Ty.Float -> ()
    | Pow, ty -> fail "pow on %a" Ty.pp ty
    | Rem, Ty.Int -> ()
    | Rem, ty -> fail "rem on %a" Ty.pp ty
    | (Add | Sub | Mul | Div | Min | Max), (Ty.Int | Ty.Float) -> ()
    | (Add | Sub | Mul | Div | Min | Max), ty ->
      fail "arith on %a" Ty.pp ty)
  | Cmp (v, _, a, b) ->
    check_ty "cmp operands" (t a) (t b);
    check_ty "cmp result" (t v) Ty.Bool
  | Un (v, op, a) -> (
    match op with
    | Neg ->
      (match t a with
      | Ty.Int | Ty.Float -> ()
      | ty -> fail "neg on %a" Ty.pp ty);
      check_ty "neg" (t v) (t a)
    | Abs ->
      (match t a with
      | Ty.Int | Ty.Float -> ()
      | ty -> fail "abs on %a" Ty.pp ty);
      check_ty "abs" (t v) (t a)
    | Sqrt | Sin | Cos | Exp | Log | Floor ->
      check_ty "float unop arg" (t a) Ty.Float;
      check_ty "float unop" (t v) Ty.Float
    | ToFloat ->
      check_ty "tofloat arg" (t a) Ty.Int;
      check_ty "tofloat" (t v) Ty.Float
    | ToInt ->
      check_ty "toint arg" (t a) Ty.Float;
      check_ty "toint" (t v) Ty.Int
    | Not ->
      check_ty "not arg" (t a) Ty.Bool;
      check_ty "not" (t v) Ty.Bool)
  | Select (v, c, a, b) ->
    check_ty "select cond" (t c) Ty.Bool;
    check_ty "select arms" (t a) (t b);
    check_ty "select result" (t v) (t a)
  | Alloc (v, ty, n, _) ->
    check_ty "alloc size" (t n) Ty.Int;
    check_ty "alloc result" (t v) (Ty.Ptr ty)
  | Free p ->
    if not (Ty.is_ptr (t p)) then fail "free of non-pointer"
  | Load (v, p, ix) ->
    if not (Ty.is_ptr (t p)) then fail "load of non-pointer";
    check_ty "load index" (t ix) Ty.Int;
    check_ty "load result" (t v) (Ty.elem (t p))
  | Store (p, ix, x) ->
    if not (Ty.is_ptr (t p)) then fail "store to non-pointer";
    check_ty "store index" (t ix) Ty.Int;
    check_ty "store value" (t x) (Ty.elem (t p))
  | Gep (v, p, ix) ->
    if not (Ty.is_ptr (t p)) then fail "gep of non-pointer";
    check_ty "gep index" (t ix) Ty.Int;
    check_ty "gep result" (t v) (t p)
  | AtomicAdd (p, ix, x) ->
    check_ty "atomic.add ptr" (t p) (Ty.Ptr Ty.Float);
    check_ty "atomic.add index" (t ix) Ty.Int;
    check_ty "atomic.add value" (t x) Ty.Float
  | Call _ | Spawn _ ->
    (* Signatures of user functions and intrinsics are checked by the
       interpreter at dispatch; cross-module checking would need the
       whole program here. *)
    ()
  | Sync h -> check_ty "sync handle" (t h) Ty.Int
  | If (rs, c, then_r, else_r) ->
    check_ty "if cond" (t c) Ty.Bool;
    let tys = List.map t rs in
    check_region s ctx then_r ~terminator:(`Yield tys);
    check_region s ctx else_r ~terminator:(`Yield tys)
  | For { iv; lo; hi; step; body } ->
    check_ty "for lo" (t lo) Ty.Int;
    check_ty "for hi" (t hi) Ty.Int;
    check_ty "for step" (t step) Ty.Int;
    check_ty "for iv" (t iv) Ty.Int;
    (match body.params with
    | [ p ] when Var.equal p iv -> ()
    | _ -> fail "for body params must be [iv]");
    check_region s { ctx with in_loop = true } body ~terminator:`None
  | While { cond; body } ->
    if ctx.in_fork then fail "%s: while inside a parallel region" f.name;
    check_region s { ctx with in_loop = true } cond
      ~terminator:(`Yield [ Ty.Bool ]);
    check_region s { ctx with in_loop = true } body ~terminator:`None
  | Fork { tid; nth; body } ->
    if ctx.in_fork then fail "%s: nested fork" f.name;
    check_ty "fork width" (t nth) Ty.Int;
    (match body.params with
    | [ p; q ] when Var.equal p tid && Ty.equal (t q) Ty.Int -> ()
    | _ -> fail "fork body params must be [tid; nth]");
    check_region s { ctx with in_fork = true } body ~terminator:`None
  | Workshare { iv; lo; hi; body; _ } ->
    if not ctx.in_fork then fail "%s: workshare outside fork" f.name;
    check_ty "workshare lo" (t lo) Ty.Int;
    check_ty "workshare hi" (t hi) Ty.Int;
    (match body.params with
    | [ p ] when Var.equal p iv -> ()
    | _ -> fail "workshare body params must be [iv]");
    check_region s ctx body ~terminator:`None
  | Barrier -> if not ctx.in_fork then fail "%s: barrier outside fork" f.name
  | Return _ | Yield _ -> ()

let check_func (f : Func.t) =
  let s = { f; bits = Bytes.make ((f.var_count + 7) / 8) '\000' } in
  check_region s
    { in_fork = false; in_loop = false }
    { params = f.params; body = f.body }
    ~terminator:`Return

let check_prog p = List.iter check_func (Prog.functions p)

(** [check_prog_result p] is [Ok ()] or [Error message]. *)
let check_prog_result p =
  match check_prog p with () -> Ok () | exception Ill_formed m -> Error m
