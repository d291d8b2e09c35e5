(** IR well-formedness checks: SSA single definition, defs dominate uses
    (lexically, which is dominance in a structured IR), type agreement,
    region terminators, and placement rules for parallel constructs
    ([Workshare]/[Barrier] only inside [Fork], no nested [Fork], no [While]
    inside parallel regions — a documented restriction of the caching
    planner).

    The check runs after every pass of every pipeline, so it is one walk
    that allocates nothing on a well-formed function: each instruction's
    operands are checked where it is matched (in [Instr.uses] order), its
    results are defined after its own checks and regions, and a message
    is built only when a check fails. *)

open Instr

exception Ill_formed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

let ty_fail what got want =
  fail "%s: expected %a, got %a" what Ty.pp want Ty.pp got

let check_ty what got want =
  if got != want && not (Ty.equal got want) then ty_fail what got want

(* The variables in scope: [live] has one byte per var id, and [defined]
   stacks the ids set since the function's entry. A region pops back to
   its entry height when it ends, so neither a sibling region nor the
   code after it sees its definitions. *)
type scope = {
  f : Func.t;
  live : Bytes.t;
  defined : int array;
  mutable top : int;
}

let in_scope s id =
  id >= 0 && id < s.f.var_count && Bytes.unsafe_get s.live id <> '\000'

let define s (v : Var.t) =
  let id = v.id in
  if id < 0 || id >= s.f.var_count then
    fail "%s: var %a out of range" s.f.name Var.pp v;
  if Bytes.unsafe_get s.live id <> '\000' then
    fail "%s: variable %a defined twice" s.f.name Var.pp v;
  Bytes.unsafe_set s.live id '\001';
  Array.unsafe_set s.defined s.top id;
  s.top <- s.top + 1

let undefine_since s mark =
  for k = mark to s.top - 1 do
    Bytes.unsafe_set s.live (Array.unsafe_get s.defined k) '\000'
  done;
  s.top <- mark

let use s (v : Var.t) =
  if not (in_scope s v.id) then
    fail "%s: use of undefined variable %a" s.f.name Var.pp v

let rec define_all s = function
  | [] -> ()
  | v :: vs ->
    define s v;
    define_all s vs

let rec use_all s = function
  | [] -> ()
  | v :: vs ->
    use s v;
    use_all s vs

(* What ends a region: the function's [Return], an [If] branch's [Yield]
   of the If's result types, a [While] condition's [Yield] of one i1, or
   nothing (loop and parallel bodies). *)
type term = Ret | Yield_results | Yield_cond | Plain

let const_ty = function
  | Cunit -> Ty.Unit
  | Cbool _ -> Ty.Bool
  | Cint _ -> Ty.Int
  | Cfloat _ -> Ty.Float
  | Cnull e -> Ty.Ptr e

let int_or_float : Ty.t -> bool = function
  | Ty.Int | Ty.Float -> true
  | Ty.Unit | Ty.Bool | Ty.Ptr _ -> false

(* [results] are the If's results when [term] is [Yield_results] *)
let rec check_region s in_fork (r : region) term (results : Var.t list) =
  let mark = s.top in
  define_all s r.params;
  (* an empty body ends the way a [Barrier] does: in no terminator *)
  let last = check_body s in_fork Barrier r.body in
  undefine_since s mark;
  check_terminator s term results last

and check_body s in_fork last = function
  | [] -> last
  | i :: rest ->
    (match i, rest with
    | Return _, _ :: _ -> fail "%s: return not in tail position" s.f.name
    | Yield _, _ :: _ -> fail "%s: yield not in tail position" s.f.name
    | _ -> ());
    check_instr s in_fork i;
    check_body s in_fork i rest

and missing_terminator s = function
  | Ret -> fail "%s: body must end in return" s.f.name
  | Yield_results | Yield_cond -> fail "%s: region must end in yield" s.f.name
  | Plain -> ()

and check_terminator s term results last =
  let f = s.f in
  match term, last with
  | Ret, Return r -> (
    match r, f.ret_ty with
    | None, Ty.Unit -> ()
    | Some v, t ->
      if v.ty != t && not (Ty.equal v.ty t) then
        ty_fail (f.name ^ ": return") v.ty t
    | None, t -> fail "%s: missing return value of type %a" f.name Ty.pp t)
  | Yield_results, Yield vs ->
    if List.compare_lengths vs results <> 0 then
      fail "%s: yield arity mismatch" f.name;
    check_yield s vs results
  | Yield_cond, Yield vs -> (
    match vs with
    | [ v ] ->
      if v.ty != Ty.Bool then ty_fail (f.name ^ ": yield") v.ty Ty.Bool
    | _ -> fail "%s: yield arity mismatch" f.name)
  | Plain, (Yield _ | Return _) ->
    fail "%s: unexpected terminator in plain region" f.name
  | Plain, _ -> ()
  | (Ret | Yield_results | Yield_cond), _ -> missing_terminator s term

and check_yield s vs (rs : Var.t list) =
  match vs, rs with
  | (v : Var.t) :: vs, r :: rs ->
    if v.ty != r.ty && not (Ty.equal v.ty r.ty) then
      ty_fail (s.f.name ^ ": yield") v.ty r.ty;
    check_yield s vs rs
  | _ -> ()

(* Operands first, in [Instr.uses] order; then the instruction's own
   checks and regions; then its results. *)
and check_instr s in_fork i =
  let f = s.f in
  match i with
  | Const (v, c) ->
    (match c, v.ty with
    | Cunit, Ty.Unit | Cbool _, Ty.Bool | Cint _, Ty.Int | Cfloat _, Ty.Float
      -> ()
    | Cnull e, Ty.Ptr e' when Ty.equal e e' -> ()
    | _ -> ty_fail "const" v.ty (const_ty c));
    define s v
  | Bin (v, op, a, b) ->
    use s a;
    use s b;
    check_ty "bin lhs/rhs" a.ty b.ty;
    check_ty "bin result" v.ty a.ty;
    (match op, a.ty with
    | Pow, Ty.Float -> ()
    | Pow, ty -> fail "pow on %a" Ty.pp ty
    | Rem, Ty.Int -> ()
    | Rem, ty -> fail "rem on %a" Ty.pp ty
    | (Add | Sub | Mul | Div | Min | Max), (Ty.Int | Ty.Float) -> ()
    | (Add | Sub | Mul | Div | Min | Max), ty -> fail "arith on %a" Ty.pp ty);
    define s v
  | Cmp (v, _, a, b) ->
    use s a;
    use s b;
    check_ty "cmp operands" a.ty b.ty;
    check_ty "cmp result" v.ty Ty.Bool;
    define s v
  | Un (v, op, a) ->
    use s a;
    (match op with
    | Neg ->
      if not (int_or_float a.ty) then fail "neg on %a" Ty.pp a.ty;
      check_ty "neg" v.ty a.ty
    | Abs ->
      if not (int_or_float a.ty) then fail "abs on %a" Ty.pp a.ty;
      check_ty "abs" v.ty a.ty
    | Sqrt | Sin | Cos | Exp | Log | Floor ->
      check_ty "float unop arg" a.ty Ty.Float;
      check_ty "float unop" v.ty Ty.Float
    | ToFloat ->
      check_ty "tofloat arg" a.ty Ty.Int;
      check_ty "tofloat" v.ty Ty.Float
    | ToInt ->
      check_ty "toint arg" a.ty Ty.Float;
      check_ty "toint" v.ty Ty.Int
    | Not ->
      check_ty "not arg" a.ty Ty.Bool;
      check_ty "not" v.ty Ty.Bool);
    define s v
  | Select (v, c, a, b) ->
    use s c;
    use s a;
    use s b;
    check_ty "select cond" c.ty Ty.Bool;
    check_ty "select arms" a.ty b.ty;
    check_ty "select result" v.ty a.ty;
    define s v
  | Alloc (v, ty, n, _) ->
    use s n;
    check_ty "alloc size" n.ty Ty.Int;
    (match v.ty with
    | Ty.Ptr e when Ty.equal e ty -> ()
    | got -> ty_fail "alloc result" got (Ty.Ptr ty));
    define s v
  | Free p ->
    use s p;
    if not (Ty.is_ptr p.ty) then fail "free of non-pointer"
  | Load (v, p, ix) ->
    use s p;
    use s ix;
    if not (Ty.is_ptr p.ty) then fail "load of non-pointer";
    check_ty "load index" ix.ty Ty.Int;
    check_ty "load result" v.ty (Ty.elem p.ty);
    define s v
  | Store (p, ix, x) ->
    use s p;
    use s ix;
    use s x;
    if not (Ty.is_ptr p.ty) then fail "store to non-pointer";
    check_ty "store index" ix.ty Ty.Int;
    check_ty "store value" x.ty (Ty.elem p.ty)
  | Gep (v, p, ix) ->
    use s p;
    use s ix;
    if not (Ty.is_ptr p.ty) then fail "gep of non-pointer";
    check_ty "gep index" ix.ty Ty.Int;
    check_ty "gep result" v.ty p.ty;
    define s v
  | AtomicAdd (p, ix, x) ->
    use s p;
    use s ix;
    use s x;
    check_ty "atomic.add ptr" p.ty (Ty.Ptr Ty.Float);
    check_ty "atomic.add index" ix.ty Ty.Int;
    check_ty "atomic.add value" x.ty Ty.Float
  | Call (v, _, args) | Spawn (v, _, args) ->
    (* Signatures of user functions and intrinsics are checked by the
       interpreter at dispatch; cross-module checking would need the
       whole program here. *)
    use_all s args;
    define s v
  | Sync h ->
    use s h;
    check_ty "sync handle" h.ty Ty.Int
  | If (rs, c, then_r, else_r) ->
    use s c;
    check_ty "if cond" c.ty Ty.Bool;
    check_region s in_fork then_r Yield_results rs;
    check_region s in_fork else_r Yield_results rs;
    define_all s rs
  | For { iv; lo; hi; step; body } ->
    use s lo;
    use s hi;
    use s step;
    check_ty "for lo" lo.ty Ty.Int;
    check_ty "for hi" hi.ty Ty.Int;
    check_ty "for step" step.ty Ty.Int;
    check_ty "for iv" iv.ty Ty.Int;
    (match body.params with
    | [ p ] when p.id = iv.id -> ()
    | _ -> fail "for body params must be [iv]");
    check_region s in_fork body Plain []
  | While { cond; body } ->
    if in_fork then fail "%s: while inside a parallel region" f.name;
    check_region s in_fork cond Yield_cond [];
    check_region s in_fork body Plain []
  | Fork { tid; nth; body } ->
    use s nth;
    if in_fork then fail "%s: nested fork" f.name;
    check_ty "fork width" nth.ty Ty.Int;
    (match body.params with
    | [ p; q ] when p.id = tid.id && Ty.equal q.ty Ty.Int -> ()
    | _ -> fail "fork body params must be [tid; nth]");
    check_region s true body Plain []
  | Workshare { iv; lo; hi; body; _ } ->
    use s lo;
    use s hi;
    if not in_fork then fail "%s: workshare outside fork" f.name;
    check_ty "workshare lo" lo.ty Ty.Int;
    check_ty "workshare hi" hi.ty Ty.Int;
    (match body.params with
    | [ p ] when p.id = iv.id -> ()
    | _ -> fail "workshare body params must be [iv]");
    check_region s in_fork body Plain []
  | Barrier -> if not in_fork then fail "%s: barrier outside fork" f.name
  | Return None -> ()
  | Return (Some v) -> use s v
  | Yield vs -> use_all s vs

let check_func (f : Func.t) =
  let n = max f.var_count 0 in
  let s =
    { f; live = Bytes.make n '\000'; defined = Array.make n 0; top = 0 }
  in
  check_region s false { params = f.params; body = f.body } Ret []

let check_prog p = List.iter check_func (Prog.functions p)

(** [check_prog_result p] is [Ok ()] or [Error message]. *)
let check_prog_result p =
  match check_prog p with () -> Ok () | exception Ill_formed m -> Error m
