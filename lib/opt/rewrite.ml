(** Shared infrastructure for optimization passes: operand substitution,
    fresh variables, structural rebuilding, and effect/purity queries. *)

open Parad_ir

type ctx = { mutable next : int }

let ctx_of (f : Func.t) = { next = f.var_count }

let fresh ctx ty name =
  let v = Var.make ~id:ctx.next ~ty ~name in
  ctx.next <- ctx.next + 1;
  v

(* Apply a variable substitution to every operand of an instruction
   (regions are NOT entered — callers recurse explicitly). An
   instruction whose operands all map to themselves is returned as is,
   not rebuilt. *)
let map_uses (s : Var.t -> Var.t) (i : Instr.t) : Instr.t =
  let open Instr in
  if List.for_all (fun v -> s v == v) (uses i) then i
  else
    match i with
    | Const _ -> i
    | Bin (v, op, a, b) -> Bin (v, op, s a, s b)
    | Cmp (v, op, a, b) -> Cmp (v, op, s a, s b)
    | Un (v, op, a) -> Un (v, op, s a)
    | Select (v, c, a, b) -> Select (v, s c, s a, s b)
    | Alloc (v, t, n, k) -> Alloc (v, t, s n, k)
    | Free p -> Free (s p)
    | Load (v, p, ix) -> Load (v, s p, s ix)
    | Store (p, ix, x) -> Store (s p, s ix, s x)
    | Gep (v, p, ix) -> Gep (v, s p, s ix)
    | AtomicAdd (p, ix, x) -> AtomicAdd (s p, s ix, s x)
    | Call (v, f, args) -> Call (v, f, List.map s args)
    | Spawn (v, f, args) -> Spawn (v, f, List.map s args)
    | Sync h -> Sync (s h)
    | If (rs, c, t, e) -> If (rs, s c, t, e)
    | For r -> For { r with lo = s r.lo; hi = s r.hi; step = s r.step }
    | While _ -> i
    | Fork r -> Fork { r with nth = s r.nth }
    | Workshare r -> Workshare { r with lo = s r.lo; hi = s r.hi }
    | Barrier -> Barrier
    | Return v -> Return (Option.map s v)
    | Yield vs -> Yield (List.map s vs)

(* Replace sub-regions wholesale. *)
let with_regions (i : Instr.t) (rs : Instr.region list) : Instr.t =
  let open Instr in
  match i, rs with
  | If (res, c, _, _), [ t; e ] -> If (res, c, t, e)
  | For r, [ body ] -> For { r with body }
  | While _, [ cond; body ] -> While { cond; body }
  | Fork r, [ body ] -> Fork { r with body }
  | Workshare r, [ body ] -> Workshare { r with body }
  | _, [] -> i
  | _ -> invalid_arg "with_regions: arity mismatch"

(* Recursively apply a substitution everywhere (operands at all depths). *)
let rec subst_deep (s : Var.t -> Var.t) (instrs : Instr.t list) =
  List.map
    (fun i ->
      let i = map_uses s i in
      let rs =
        List.map
          (fun (r : Instr.region) -> { r with Instr.body = subst_deep s r.body })
          (Instr.regions i)
      in
      with_regions i rs)
    instrs

(* Pure instructions: no side effects, freely removable / movable
   (integer division excluded: it can trap). *)
let pure (i : Instr.t) =
  let open Instr in
  match i with
  | Const _ | Cmp _ | Select _ | Gep _ -> true
  | Bin (v, (Div | Rem), _, _) -> Ty.equal (Var.ty v) Ty.Float
  | Bin _ -> true
  | Un _ -> true
  | Call (_, ("mpi.rank" | "mpi.size" | "omp.max_threads"), _) -> true
  | _ -> false

(* Instructions with observable effects that must be preserved even if
   their results are unused. *)
let rec has_effects (i : Instr.t) =
  let open Instr in
  match i with
  | Store _ | AtomicAdd _ | Free _ | Spawn _ | Sync _ | Barrier | Return _
  | Yield _ -> true
  | Call _ -> not (pure i)
  | Alloc _ -> false
  | Load _ -> false
  | Const _ | Bin _ | Cmp _ | Un _ | Select _ | Gep _ -> false
  | If (_, _, t, e) ->
    List.exists has_effects t.body || List.exists has_effects e.body
  | For { body; _ } -> List.exists has_effects body.body
  | While { cond; body } ->
    List.exists has_effects cond.body || List.exists has_effects body.body
  | Fork { body; _ } -> List.exists has_effects body.body
  | Workshare { body; _ } -> List.exists has_effects body.body

(* Does this instruction (or any nested one) write memory or synchronize?
   Used to decide whether loads can move across it. *)
let rec clobbers (i : Instr.t) =
  let open Instr in
  match i with
  | Store _ | AtomicAdd _ | Free _ | Spawn _ | Sync _ | Barrier -> true
  | Call (_, n, _) ->
    not
      (List.mem n [ "mpi.rank"; "mpi.size"; "omp.max_threads"; "cache.get" ])
  | Const _ | Bin _ | Cmp _ | Un _ | Select _ | Gep _ | Alloc _ | Load _
  | Return _ | Yield _ -> false
  | If (_, _, t, e) ->
    List.exists clobbers t.body || List.exists clobbers e.body
  | For { body; _ } -> List.exists clobbers body.body
  | While { cond; body } ->
    List.exists clobbers cond.body || List.exists clobbers body.body
  | Fork { body; _ } -> List.exists clobbers body.body
  | Workshare { body; _ } -> List.exists clobbers body.body
