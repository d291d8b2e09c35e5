(** Imperative IR builder — the embedded frontend used by examples and the
    proxy applications. A builder accumulates instructions into the current
    (innermost) region; structured constructs take OCaml closures that build
    their bodies.

    {[
      let b, ps = Builder.func prog "axpy" ~params:[ "a", Ty.Float; ... ] ... in
      ...
      Builder.return b None;
      Builder.finish b
    ]} *)

open Instr

type t = {
  prog : Prog.t;
  fname : string;
  params : Var.t list;
  attrs : Func.attr list;
  ret_ty : Ty.t;
  mutable next_id : int;
  mutable scopes : Instr.t list ref list;  (* innermost first *)
  mutable finished : bool;
}

let func ?attrs prog fname ~params ~ret =
  let next = ref 0 in
  let mk (name, ty) =
    let v = Var.make ~id:!next ~ty ~name in
    incr next;
    v
  in
  let pvars = List.map mk params in
  let attrs =
    match attrs with
    | Some l ->
      if List.length l <> List.length params then
        invalid_arg "Builder.func: attrs length mismatch";
      l
    | None -> List.map (fun _ -> Func.default_attr) params
  in
  let b =
    {
      prog;
      fname;
      params = pvars;
      attrs;
      ret_ty = ret;
      next_id = !next;
      scopes = [ ref [] ];
      finished = false;
    }
  in
  b, pvars

let fresh b ty name =
  let v = Var.make ~id:b.next_id ~ty ~name in
  b.next_id <- b.next_id + 1;
  v

let emit b i =
  match b.scopes with
  | top :: _ -> top := i :: !top
  | [] -> invalid_arg "Builder.emit: no open scope"

(* Emit [i] into the function's outermost open scope, ahead of the
   region being built: it dominates every later instruction, however
   deeply nested. *)
let emit_outer b i =
  match List.rev b.scopes with
  | top :: _ -> top := i :: !top
  | [] -> invalid_arg "Builder.emit_outer: no open scope"

(* Run [f] with a fresh scope collecting instructions; return them. *)
let in_scope b f =
  let scope = ref [] in
  b.scopes <- scope :: b.scopes;
  let finally () =
    match b.scopes with
    | s :: rest when s == scope -> b.scopes <- rest
    | _ -> invalid_arg "Builder.in_scope: unbalanced scopes"
  in
  (match f () with
  | () -> finally ()
  | exception e ->
    finally ();
    raise e);
  List.rev !scope

(* ---- constants ---- *)

let const b ?(name = "c") c =
  let ty =
    match c with
    | Cunit -> Ty.Unit
    | Cbool _ -> Ty.Bool
    | Cint _ -> Ty.Int
    | Cfloat _ -> Ty.Float
    | Cnull t -> Ty.Ptr t
  in
  let v = fresh b ty name in
  emit b (Const (v, c));
  v

let f64 b x = const b ~name:"f" (Cfloat x)
let i64 b x = const b ~name:"i" (Cint x)
let bool b x = const b ~name:"b" (Cbool x)
let null b t = const b ~name:"null" (Cnull t)

(* ---- arithmetic ---- *)

let bin b op x y =
  let ty =
    match op with
    | Add | Sub | Mul | Div | Rem | Min | Max | Pow -> Var.ty x
  in
  let v = fresh b ty (binop_name op) in
  emit b (Bin (v, op, x, y));
  v

let add b x y = bin b Add x y
let sub b x y = bin b Sub x y
let mul b x y = bin b Mul x y
let div b x y = bin b Div x y
let rem b x y = bin b Rem x y
let min_ b x y = bin b Min x y
let max_ b x y = bin b Max x y
let pow b x y = bin b Pow x y

let cmp b op x y =
  let v = fresh b Ty.Bool (cmpop_name op) in
  emit b (Cmp (v, op, x, y));
  v

let eq b x y = cmp b Eq x y
let ne b x y = cmp b Ne x y
let lt b x y = cmp b Lt x y
let le b x y = cmp b Le x y
let gt b x y = cmp b Gt x y
let ge b x y = cmp b Ge x y

let un b op x =
  let ty =
    match op with
    | Neg -> Var.ty x
    | Sqrt | Sin | Cos | Exp | Log | Abs | Floor -> Ty.Float
    | ToFloat -> Ty.Float
    | ToInt -> Ty.Int
    | Not -> Ty.Bool
  in
  let ty = match op, Var.ty x with Abs, Ty.Int -> Ty.Int | _ -> ty in
  let v = fresh b ty (unop_name op) in
  emit b (Un (v, op, x));
  v

let neg b x = un b Neg x
let sqrt_ b x = un b Sqrt x
let sin_ b x = un b Sin x
let cos_ b x = un b Cos x
let exp_ b x = un b Exp x
let log_ b x = un b Log x
let abs_ b x = un b Abs x
let floor_ b x = un b Floor x
let to_float b x = un b ToFloat x
let to_int b x = un b ToInt x
let not_ b x = un b Not x

let select b c x y =
  let v = fresh b (Var.ty x) "select" in
  emit b (Select (v, c, x, y));
  v

(* ---- memory ---- *)

let alloc b ?(kind = Heap) ty n =
  let v = fresh b (Ty.Ptr ty) "p" in
  emit b (Alloc (v, ty, n, kind));
  v

let free b p = emit b (Free p)

let load b p i =
  let v = fresh b (Ty.elem (Var.ty p)) "ld" in
  emit b (Load (v, p, i));
  v

let store b p i x = emit b (Store (p, i, x))

let gep b p i =
  let v = fresh b (Var.ty p) "gep" in
  emit b (Gep (v, p, i));
  v

let atomic_add b p i x = emit b (AtomicAdd (p, i, x))

(* ---- calls / tasks ---- *)

let call b ~ret name args =
  let v = fresh b ret name in
  emit b (Call (v, name, args));
  v

let spawn b name args =
  let v = fresh b Ty.Int ("task_" ^ name) in
  emit b (Spawn (v, name, args));
  v

let sync b t = emit b (Sync t)

(* ---- control flow ---- *)

let if_ b ?(results = []) c ~then_ ~else_ =
  let collect f =
    let yielded = ref None in
    let body =
      in_scope b (fun () ->
          let vs = f () in
          yielded := Some vs)
    in
    let vs = Option.get !yielded in
    if List.length vs <> List.length results then
      invalid_arg "Builder.if_: yielded arity mismatch";
    { params = []; body = body @ [ Yield vs ] }
  in
  let then_r = collect then_ in
  let else_r = collect else_ in
  let res = List.map (fun ty -> fresh b ty "ifres") results in
  emit b (If (res, c, then_r, else_r));
  res

(** [ite b c f g]: if-then-else with no results. *)
let ite b c f g =
  ignore
    (if_ b c
       ~then_:(fun () ->
         f ();
         [])
       ~else_:(fun () ->
         g ();
         []))

let when_ b c f = ite b c f (fun () -> ())

let for_ b ?step ~lo ~hi f =
  let step = match step with Some s -> s | None -> i64 b 1 in
  let iv = fresh b Ty.Int "i" in
  let body = in_scope b (fun () -> f iv) in
  emit b (For { iv; lo; hi; step; body = { params = [ iv ]; body } })

(** [for_n b n f] iterates [f] over [0, n). *)
let for_n b n f = for_ b ~lo:(i64 b 0) ~hi:n f

let while_ b ~cond ~body =
  let cond_res = ref None in
  let cond_body =
    in_scope b (fun () ->
        let c = cond () in
        cond_res := Some c)
  in
  let c = Option.get !cond_res in
  let cond_r = { params = []; body = cond_body @ [ Yield [ c ] ] } in
  let body_instrs = in_scope b body in
  emit b (While { cond = cond_r; body = { params = []; body = body_instrs } })

let fork b ?nth f =
  let nth = match nth with Some v -> v | None -> i64 b 0 in
  let tid = fresh b Ty.Int "tid" in
  let nthv = fresh b Ty.Int "nth" in
  let body = in_scope b (fun () -> f ~tid ~nth:nthv) in
  emit b (Fork { tid; nth; body = { params = [ tid; nthv ]; body } })

let workshare b ?(schedule = Chunked) ?(nowait = false) ~lo ~hi f =
  let iv = fresh b Ty.Int "wi" in
  let body = in_scope b (fun () -> f iv) in
  emit b
    (Workshare { iv; lo; hi; body = { params = [ iv ]; body }; schedule; nowait })

let barrier b = emit b Barrier

(** [parallel_for b ~lo ~hi f] — the `#pragma omp parallel for` sugar:
    a fork whose body is a single worksharing loop. *)
let parallel_for b ?nth ?schedule ~lo ~hi f =
  fork b ?nth (fun ~tid:_ ~nth:_ -> workshare b ?schedule ~lo ~hi f)

let return b v = emit b (Return v)

let finish b =
  if b.finished then invalid_arg "Builder.finish: already finished";
  b.finished <- true;
  (match b.scopes with
  | [ _ ] -> ()
  | _ -> invalid_arg "Builder.finish: unbalanced scopes");
  let body =
    match b.scopes with [ top ] -> List.rev !top | _ -> assert false
  in
  (* Ensure a terminating return for unit functions. *)
  let body =
    match b.ret_ty, List.rev body with
    | Ty.Unit, Return None :: _ -> body
    | Ty.Unit, _ -> body @ [ Return None ]
    | _ -> body
  in
  let f =
    Func.make ~name:b.fname ~params:b.params ~attrs:b.attrs ~ret_ty:b.ret_ty
      ~body ~var_count:b.next_id
  in
  Prog.add b.prog f;
  f
