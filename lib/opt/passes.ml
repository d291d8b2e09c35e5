(** Scalar and loop optimization passes: constant folding with algebraic
    simplification, common-subexpression elimination, dead-code
    elimination, and loop-invariant code motion (including loads when the
    loop body is store-free).

    Running these *before* differentiation shrinks both the primal and the
    generated adjoint (paper §V-E); the benchmark harness measures that
    ablation. After differentiation they run on every plan compile, so
    each makes one walk over a function: per-variable facts live in
    arrays indexed by var id ([Func.var_count] bounds every id), and a
    region's scope is an undo list over one table, never a copy. *)

open Parad_ir
open Rewrite

(* Follow an alias array (var id -> replacement) to its end. *)
let rec resolve alias v =
  match alias.(Var.id v) with Some v' -> resolve alias v' | None -> v

(* ---- constant folding + algebraic simplification ---- *)

type cval = CI of int | CF of float | CB of bool

let fold_func (f : Func.t) : Func.t =
  let consts : cval option array = Array.make f.var_count None in
  let alias = Array.make f.var_count None in
  let sub = resolve alias in
  let cv v = consts.(Var.id (sub v)) in
  (* [v] is [x]: drop its definition *)
  let alias_to v x =
    alias.(Var.id v) <- Some (sub x);
    None
  in
  let rec go instrs =
    List.filter_map
      (fun i ->
        let i = map_uses sub i in
        let open Instr in
        let keep_const v c k =
          consts.(Var.id v) <- Some k;
          Some (Const (v, c))
        in
        match i with
        | Const (v, Cint x) ->
          consts.(Var.id v) <- Some (CI x);
          Some i
        | Const (v, Cfloat x) ->
          consts.(Var.id v) <- Some (CF x);
          Some i
        | Const (v, Cbool x) ->
          consts.(Var.id v) <- Some (CB x);
          Some i
        | Bin (v, op, a, b) -> (
          match op, cv a, cv b with
          | Add, Some (CI x), Some (CI y) -> keep_const v (Cint (x + y)) (CI (x + y))
          | Sub, Some (CI x), Some (CI y) -> keep_const v (Cint (x - y)) (CI (x - y))
          | Mul, Some (CI x), Some (CI y) -> keep_const v (Cint (x * y)) (CI (x * y))
          | Min, Some (CI x), Some (CI y) ->
            keep_const v (Cint (min x y)) (CI (min x y))
          | Max, Some (CI x), Some (CI y) ->
            keep_const v (Cint (max x y)) (CI (max x y))
          | Add, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x +. y)) (CF (x +. y))
          | Sub, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x -. y)) (CF (x -. y))
          | Mul, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x *. y)) (CF (x *. y))
          | Div, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x /. y)) (CF (x /. y))
          | (Add | Sub), _, Some (CI 0) | Mul, _, Some (CI 1)
          | Div, _, Some (CI 1) ->
            alias_to v a
          | Add, Some (CI 0), _ | Mul, Some (CI 1), _ -> alias_to v b
          | Mul, Some (CI 0), _ -> alias_to v a
          | Mul, _, Some (CI 0) -> alias_to v b
          | (Add | Sub), _, Some (CF 0.0) | (Mul | Div), _, Some (CF 1.0) ->
            alias_to v a
          | Add, Some (CF 0.0), _ | Mul, Some (CF 1.0), _ -> alias_to v b
          | _ -> Some i)
        | Un (v, op, a) -> (
          match op, cv a with
          | Neg, Some (CI x) -> keep_const v (Cint (-x)) (CI (-x))
          | Neg, Some (CF x) -> keep_const v (Cfloat (-.x)) (CF (-.x))
          | ToFloat, Some (CI x) ->
            keep_const v (Cfloat (float_of_int x)) (CF (float_of_int x))
          | Not, Some (CB x) -> keep_const v (Cbool (not x)) (CB (not x))
          | _ -> Some i)
        | Cmp (v, op, a, b) -> (
          match cv a, cv b with
          | Some (CI x), Some (CI y) ->
            let r =
              match op with
              | Eq -> x = y
              | Ne -> x <> y
              | Lt -> x < y
              | Le -> x <= y
              | Gt -> x > y
              | Ge -> x >= y
            in
            keep_const v (Cbool r) (CB r)
          | _ -> Some i)
        | Select (v, c, a, b) -> (
          match cv c with
          | Some (CB true) -> alias_to v a
          | Some (CB false) -> alias_to v b
          | _ -> Some i)
        | Gep (v, p, ix) -> (
          match cv ix with Some (CI 0) -> alias_to v p | _ -> Some i)
        | i ->
          let rs =
            List.map
              (fun (r : Instr.region) -> { r with Instr.body = go r.body })
              (Instr.regions i)
          in
          Some (with_regions i rs))
      instrs
  in
  { f with body = go f.body }

(* ---- common subexpression elimination (pure ops, region-scoped) ---- *)

let cse_func (f : Func.t) : Func.t =
  let alias = Array.make f.var_count None in
  let sub = resolve alias in
  (* values available at the current point; [entered] lists the keys
     added since the enclosing region began *)
  let avail : (Vn.key, Var.t) Hashtbl.t = Hashtbl.create 256 in
  let entered = ref [] in
  let rec go instrs =
    List.filter_map
      (fun i ->
        let i = map_uses sub i in
        match Vn.key ~id:Var.id i, Instr.def i with
        | Some k, Some v -> (
          match Hashtbl.find_opt avail k with
          | Some prior ->
            alias.(Var.id v) <- Some prior;
            None
          | None ->
            Hashtbl.add avail k v;
            entered := k :: !entered;
            Some i)
        | _ -> Some (with_regions i (List.map region (Instr.regions i))))
      instrs
  and region (r : Instr.region) =
    Vn.scoped entered (Hashtbl.remove avail) (fun () ->
        { r with Instr.body = go r.body })
  in
  { f with body = go f.body }

(* ---- dead code elimination ---- *)

(* An instruction is dead when nothing reads what it defines and it
   is pure, a load or an allocation, or a region with no effects inside.
   Deleting one (a region with everything in it) can leave the
   definitions of its operands unread, so the pass counts the uses of
   every variable, deletes from a worklist of dead instructions, and
   queues a definition when its variable's count reaches zero: one pass
   deletes what sweeping until nothing changes would. *)
let dce_func (f : Func.t) : Func.t =
  (* the instructions in walk order; [ends.(k)] is one past the last
     instruction nested in [k] *)
  let n = Instr.fold_instrs (fun n _ -> n + 1) 0 f.body in
  let instrs = Array.make n Instr.Barrier and ends = Array.make n 0 in
  let next = ref 0 in
  let rec number il =
    List.iter
      (fun i ->
        let k = !next in
        instrs.(k) <- i;
        incr next;
        List.iter (fun (r : Instr.region) -> number r.body) (Instr.regions i);
        ends.(k) <- !next)
      il
  in
  number f.body;
  let uses = Array.make f.var_count 0 in
  let defs_at = Array.make f.var_count [] in
  Array.iteri
    (fun k i ->
      List.iter
        (fun v -> uses.(Var.id v) <- uses.(Var.id v) + 1)
        (Instr.uses i);
      List.iter
        (fun v -> defs_at.(Var.id v) <- k :: defs_at.(Var.id v))
        (Instr.defs i))
    instrs;
  let removable (i : Instr.t) =
    match i with
    | Instr.Load _ | Instr.Alloc _ -> true
    | Instr.If _ | Instr.For _ | Instr.While _ | Instr.Fork _
    | Instr.Workshare _ ->
      not (has_effects i)
    | _ -> pure i
  in
  let deleted = Array.make n false in
  let dead k =
    (not deleted.(k))
    && List.for_all (fun v -> uses.(Var.id v) = 0) (Instr.defs instrs.(k))
    && removable instrs.(k)
  in
  let work = ref [] in
  for k = n - 1 downto 0 do
    if dead k then work := k :: !work
  done;
  let rec drain () =
    match !work with
    | [] -> ()
    | k :: rest ->
      work := rest;
      if dead k then
        for j = k to ends.(k) - 1 do
          if not deleted.(j) then begin
            deleted.(j) <- true;
            List.iter
              (fun v ->
                let id = Var.id v in
                uses.(id) <- uses.(id) - 1;
                if uses.(id) = 0 then work := defs_at.(id) @ !work)
              (Instr.uses instrs.(j))
          end
        done;
      drain ()
  in
  drain ();
  (* rebuild in the same walk order, sharing whatever lost nothing *)
  let pos = ref 0 in
  let rec keep instrs =
    match instrs with
    | [] -> instrs
    | i :: rest ->
      let k = !pos in
      if deleted.(k) then begin
        pos := ends.(k);
        keep rest
      end
      else begin
        incr pos;
        let i' =
          match Instr.regions i with
          | [] -> i
          | rs ->
            let rs' = List.map keep_region rs in
            if List.for_all2 ( == ) rs rs' then i else with_regions i rs'
        in
        let rest' = keep rest in
        if i' == i && rest' == rest then instrs else i' :: rest'
      end
  and keep_region (r : Instr.region) =
    let body = keep r.body in
    if body == r.body then r else { r with body }
  in
  { f with body = keep f.body }

(* ---- loop-invariant code motion ---- *)

let licm_func (f : Func.t) : Func.t =
  (* variables defined at the current point; [trail] lists the ones set
     since the enclosing region began *)
  let avail = Array.make f.var_count false in
  let trail = ref [] in
  let define v =
    let id = Var.id v in
    if not avail.(id) then begin
      avail.(id) <- true;
      trail := id :: !trail
    end
  in
  let scoped g = Vn.scoped trail (fun id -> avail.(id) <- false) g in
  (* [walk instrs] rewrites a region body; it also says whether anything
     in it, at any depth, clobbers memory *)
  let rec walk instrs =
    let out = ref [] and clob = ref false in
    List.iter
      (fun (i : Instr.t) ->
        let i, c =
          match Instr.regions i with
          | [] -> i, clobbers i
          | rs ->
            let c = ref false in
            let rs =
              List.map
                (fun (r : Instr.region) ->
                  scoped (fun () ->
                      (* inner defs become visible inside *)
                      List.iter define (Instr.defs i);
                      List.iter define r.Instr.params;
                      let body, cb = walk r.body in
                      if cb then c := true;
                      { r with Instr.body = body }))
                rs
            in
            with_regions i rs, !c
        in
        if c then clob := true;
        (match i with
        | Instr.For ({ body; _ } as r) ->
          let hoisted = ref [] and kept = ref [] in
          scoped (fun () ->
              List.iter
                (fun (j : Instr.t) ->
                  let movable =
                    (pure j || match j with Instr.Load _ -> not c | _ -> false)
                    && List.for_all (fun u -> avail.(Var.id u)) (Instr.uses j)
                  in
                  if movable then begin
                    List.iter define (Instr.defs j);
                    hoisted := j :: !hoisted
                  end
                  else kept := j :: !kept)
                body.Instr.body);
          (* the hoisted instructions go directly before their loop, in
             their original order ([out] is reversed) *)
          out :=
            Instr.For { r with body = { body with body = List.rev !kept } }
            :: (!hoisted @ !out)
        | i -> out := i :: !out);
        List.iter define (Instr.defs i))
      instrs;
    List.rev !out, !clob
  in
  List.iter define f.params;
  { f with body = fst (walk f.body) }
