(** The cache-vs-recompute planner (paper §IV-C).

    The reverse pass needs certain primal values ("needed values"):
    operands of nonlinear instructions, loop bounds, branch conditions,
    shadow pointers, and transform-generated auxiliaries (shadow MPI
    requests, call cache-block handles, loop trip counts). For each needed
    value the planner picks an availability strategy:

    - [ADirect] — the value is an SSA register of the combined gradient
      function defined outside every loop, so it is still live when the
      reverse sweep runs; no caching at all (Enzyme's "stack variable"
      case degenerates to nothing in combined mode).
    - [AParam] — a region parameter (loop induction variable, thread id)
      reconstructed by the reversed region.
    - [ARecomp] — re-emitted in the reverse pass from its operands: a
      pure instruction, or a load from memory that never changes, that
      the cut (see {!Cut}) finds cheaper to recompute than to cache.
    - [ACache] — stored in an iteration/thread-indexed cache during the
      forward sweep (cases 2 and 3 of §IV-C; worksharing caches are
      indexed by iteration, fork caches by thread id, §VI-B).

    Keys identify what is needed: a primal SSA value, the shadow of a
    pointer value, or a per-occurrence auxiliary. *)

open Parad_ir

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

type key =
  | KVal of int  (** primal SSA value, by var id *)
  | KShadow of int  (** shadow of a pointer-typed value, by var id *)
  | KAux of int * int  (** transform auxiliary: (occurrence, slot) *)

let pp_key ppf = function
  | KVal i -> Fmt.pf ppf "val:%d" i
  | KShadow i -> Fmt.pf ppf "shadow:%d" i
  | KAux (o, s) -> Fmt.pf ppf "aux:%d.%d" o s

type avail =
  | ADirect
  | AParam
  | ACache of int * int  (** cache ordinal, idx-depth of the definition *)
  | ARecomp

type options = {
  atomic_always : bool;
      (** disable the thread-locality analysis: every parallel adjoint
          accumulation uses atomics (the legal fallback of §VI-A1) *)
  assume_private : bool;
      (** test-only inverse of [atomic_always]: pretend the thread-locality
          analysis proved every base private, so no parallel adjoint
          accumulation uses atomics. Deliberately unsound — it seeds the
          miscompilation that ParSan's RaceSan cross-validation must catch *)
  recompute_depth : int;
      (** bound on the height of a recomputed chain. 0 caches every needed
          value (the "cache-all" ablation baseline); [n > 0] lets the cut
          recompute only chains at most [n] instructions tall; the
          default, [max_int], sets no bound, so the cost-weighted cut
          alone decides what is cached and what is recomputed *)
  coalesce_comm : bool;
      (** emit batched nonblocking duals ([mpi.adj_send_post] /
          [mpi.adj_recv_post] + [mpi.adj_waitall]) for blocking adjoint
          exchanges, so the runtime can coalesce them into packed
          messages; off emits the one-blocking-dual-per-exchange form
          (the [--no-coalesce] ablation baseline) *)
  ckpt_reverse : bool;
      (** emit a [parad.checkpoint_rev] snapshot site at reverse entry
          (between the forward sweep and the reverse sweep) of combined
          gradient functions whose source already checkpoints, so a rank
          killed mid-reverse-sweep can restore there instead of replaying
          its whole forward sweep *)
  seeds : int;
      (** adjoint batch width k: the reverse sweep propagates [k] seed
          vectors through contiguous k-stride adjoint planes (registers,
          shadow buffers, [d_ret]/[d_args]) in one pass over one tape.
          [1] emits the classic single-seed gradient; [k > 1] changes the
          gradient's calling convention — [d_ret] becomes a k-cell float
          buffer and every float shadow argument a k-stride plane *)
}

let default_options =
  {
    atomic_always = false;
    assume_private = false;
    recompute_depth = max_int;
    coalesce_comm = true;
    ckpt_reverse = false;
    seeds = 1;
  }

(** [recompute_depth] as a user writes it: the default, no bound, is
    ["inf"]. *)
let string_of_depth d = if d = max_int then "inf" else string_of_int d

(* ---- the cache-vs-recompute cut (paper §IV-C) ----

   Each candidate value v is split into [v_in -> v_out] with capacity
   cache(v); the source feeds [v_in] at recomp(v) (infinite when v
   cannot be recomputed); [o_out -> v_in] is infinite for every operand
   o a recomputation of v reads; [v_out -> sink] is infinite for every
   value the reverse sweep reads. A finite cut must make each needed
   value available — cached (the [v_in -> v_out] edge cut) or recomputed
   (the [s -> v_in] edge cut, which forces its operands available in
   turn) — so a minimum cut is a cheapest plan. The source side read off
   the residual graph of a maximum flow is the smallest minimum cut,
   whatever flow was found, so ties always resolve the same way: toward
   recomputation. *)
module Cut = struct
  type node = {
    cache : int;  (** charge of caching the value: its store and reload *)
    recomp : int option;
        (** charge of recomputing it; [None] if it cannot be *)
    operands : int list;  (** nodes a recomputation reads *)
    needed : bool;  (** the reverse sweep reads the value *)
  }

  type choice = Recompute | Cache | Skip

  let inf = max_int

  (* Dinic's maximum flow; returns which choice each node gets. *)
  let solve (g : node array) : choice array =
    let n = Array.length g in
    let s = 2 * n and t = (2 * n) + 1 in
    let nv = (2 * n) + 2 in
    (* Nodes settled without the flow: a needed value that cannot be
       recomputed is cached, and a recomputation that reads nothing and
       costs nothing is done. Either way v_out is on the sink side of
       every finite cut, so neither node constrains the others, and
       neither gets an edge. *)
    let settled =
      Array.map
        (fun nd ->
          match nd.recomp, nd.operands with
          | None, _ when nd.needed -> Some Cache
          | Some 0, [] -> Some Recompute
          | _ -> None)
        g
    in
    let reads nd =
      if nd.recomp = None then []
      else List.filter (fun o -> Option.is_none settled.(o)) nd.operands
    in
    let m =
      Array.fold_left ( + ) 0
        (Array.mapi
           (fun i nd ->
             if Option.is_some settled.(i) then 0
             else 2 + List.length (reads nd) + if nd.needed then 1 else 0)
           g)
    in
    let dst = Array.make (2 * m) 0
    and cap = Array.make (2 * m) 0
    and next = Array.make (2 * m) (-1)
    and head = Array.make nv (-1) in
    let ne = ref 0 in
    let add u v c =
      let e = !ne in
      dst.(e) <- v;
      cap.(e) <- c;
      next.(e) <- head.(u);
      head.(u) <- e;
      dst.(e + 1) <- u;
      next.(e + 1) <- head.(v);
      head.(v) <- e + 1;
      ne := e + 2
    in
    Array.iteri
      (fun i nd ->
        if Option.is_none settled.(i) then begin
          let v_in = 2 * i and v_out = (2 * i) + 1 in
          add s v_in (Option.value nd.recomp ~default:inf);
          add v_in v_out nd.cache;
          List.iter (fun o -> add ((2 * o) + 1) v_in inf) (reads nd);
          if nd.needed then add v_out t inf
        end)
      g;
    let level = Array.make nv (-1)
    and cur = Array.make nv (-1)
    and queue = Array.make nv 0 in
    (* levels by breadth-first search over edges with capacity left,
       stopping once the sink has its level: the nodes not reached by
       then lie on no shortest path. A search that never reaches the
       sink visits every node the source still reaches. *)
    let bfs () =
      Array.fill level 0 nv (-1);
      level.(s) <- 0;
      queue.(0) <- s;
      let qh = ref 0 and qt = ref 1 in
      while !qh < !qt && level.(t) < 0 do
        let u = queue.(!qh) in
        incr qh;
        let e = ref head.(u) in
        while !e >= 0 do
          let v = dst.(!e) in
          if cap.(!e) > 0 && level.(v) < 0 then begin
            level.(v) <- level.(u) + 1;
            queue.(!qt) <- v;
            incr qt
          end;
          e := next.(!e)
        done
      done;
      level.(t) >= 0
    in
    (* one augmenting path along the level graph, resuming each node's
       scan where the last one left off *)
    let rec dfs u f =
      if u = t then f
      else begin
        let pushed = ref 0 in
        while !pushed = 0 && cur.(u) >= 0 do
          let e = cur.(u) in
          let v = dst.(e) in
          let d =
            if cap.(e) > 0 && level.(v) = level.(u) + 1 then
              dfs v (min f cap.(e))
            else 0
          in
          if d > 0 then begin
            cap.(e) <- cap.(e) - d;
            cap.(e lxor 1) <- cap.(e lxor 1) + d;
            pushed := d
          end
          else cur.(u) <- next.(e)
        done;
        !pushed
      end
    in
    while bfs () do
      Array.blit head 0 cur 0 nv;
      while dfs s inf > 0 do
        ()
      done
    done;
    (* the last search marked the source side of the cut *)
    Array.init n (fun i ->
        match settled.(i) with
        | Some c -> c
        | None ->
          if level.(2 * i) < 0 then Recompute
          else if level.((2 * i) + 1) < 0 then Cache
          else Skip)
end

type t = {
  fi : Finfo.t;
  split : bool;  (** callee (split) mode: no ADirect availability *)
  opts : options;
  vars : Var.t option array;  (** var id -> var *)
  plans : (key, avail) Hashtbl.t;
  mutable wanted : key list;
      (** every key {!collect} registered, latest first *)
  recomp : (int, unit) Hashtbl.t;  (** var ids the cut recomputes *)
  aux_ty : (int * int, Ty.t) Hashtbl.t;
  occ_depth : (int, int) Hashtbl.t;  (** occurrence -> idx-depth *)
  occ_sdepth : (int, int) Hashtbl.t;  (** occurrence -> scope-depth *)
  useful : (int, unit) Hashtbl.t;
      (** float var ids whose adjoint can be nonzero (see {!useful_of}) *)
  dup : (int, int) Hashtbl.t;
      (** duplicate Load var id -> leader Load var id (see {!dup_loads_of}) *)
  shared : (int, unit) Hashtbl.t;
      (** duplicate Load var ids that actually resolved to their leader's
          cache slot (the leader's plan was [ACache]) *)
  vary : (int, int) Hashtbl.t;
      (** var id -> the deepest loop level at which its value changes
          (see {!vary}) *)
  mutable n_cached : int;
  mutable while_occs : int list;
}

(* Collect the vars of a function into an id-indexed array. *)
let vars_of (f : Func.t) =
  let vars = Array.make f.var_count None in
  let reg v = vars.(Var.id v) <- Some v in
  List.iter reg f.params;
  let rec walk instrs =
    List.iter
      (fun i ->
        List.iter reg (Instr.defs i);
        List.iter
          (fun (r : Instr.region) ->
            List.iter reg r.params;
            walk r.body)
          (Instr.regions i))
      instrs
  in
  walk f.body;
  vars

(* ---- adjoint-usefulness analysis (the pruning half of §V-E) ---- *)

(* Float var ids whose adjoint can be nonzero in some reverse sweep: the
   backward closure, along derivative-carrying operand edges, of the
   adjoint sources — stored values, atomic accumulations, the returned
   value, and float arguments of calls/spawns (their adjoints are folded
   back by the reverse halves). A float value outside this set receives
   only exact zeros in the reverse pass, so neither it nor its operands
   need to be made available: the planner skips their registration and
   the reverse pass skips their statements entirely.

   The closure flows from uses to definitions, so each instruction list
   is walked last-to-first, a region's body when its instruction is
   reached: every use of a value (a later instruction, a nested region,
   or an If branch's Yield of an If result) is seen before its
   definition, and one walk reaches the fixpoint. A second walk confirms
   it. Walking in program order instead took one walk per step of the
   longest use-def chain (21 on LULESH OMP).

   An operand is marked only if its own reverse statement can pass its
   adjoint on ([carriers_of]): the adjoint of, say, [gamma - 1.0] or of
   a float Select of two constants reaches nothing, so accumulating
   into it is dead work — work that DCE deletes at seeds = 1, but that
   a k-wide lane call keeps. *)

(* The operands the reversal of [ins] passes an adjoint to, when [live]
   tells which of its float results receive one: a stored or atomically
   added value, the returned value, the arguments of a call to a
   function (an intrinsic's reversal works on its pointers' shadows) or
   of a spawn, the derivative-carrying operands of a Bin, Un or Select,
   and the values an If branch's top-level Yield gives its results
   ([if_results]). Int operands are listed too; no adjoint reaches
   them. *)
let adjoint_operands ?if_results ~live (ins : Instr.t) =
  let is_f v = Ty.equal (Var.ty v) Ty.Float in
  match ins with
  | Instr.Store (_, _, x) | Instr.AtomicAdd (_, _, x) | Instr.Return (Some x) ->
    [ x ]
  | Instr.Call (_, name, args) when not (String.contains name '.') -> args
  | Instr.Spawn (_, _, args) -> args
  | Instr.Bin (v, op, a, b) when is_f v && live v -> (
    match op with Rem -> [] | Add | Sub | Mul | Div | Min | Max | Pow -> [ a; b ])
  | Instr.Un (v, op, a) when is_f v && live v -> (
    match op with
    | Neg | Sqrt | Exp | Sin | Cos | Log | Abs -> [ a ]
    | Floor | ToFloat | ToInt | Not -> [])
  | Instr.Select (v, _, a, b) when is_f v && live v -> [ a; b ]
  | Instr.Yield vs -> (
    match if_results with
    | Some rs -> List.concat (List.map2 (fun r v -> if is_f r && live r then [ v ] else []) rs vs)
    | None -> [])
  | _ -> []

(* Float var ids whose reverse statement can deliver an adjoint
   somewhere: parameters, loads, call and If results and region
   parameters (their adjoints leave through d_args, shadow memory, a
   reverse call or a yield), and a derivative-carrying Bin, Un or
   Select with a carrier operand. A forward walk settles it: operands
   are defined before their uses. *)
let carriers_of (f : Func.t) : (int, unit) Hashtbl.t =
  let c = Hashtbl.create 64 in
  let add v = Hashtbl.replace c (Var.id v) () in
  let carries v = Hashtbl.mem c (Var.id v) in
  let rec walk instrs =
    List.iter
      (fun (ins : Instr.t) ->
        (match ins with
        | Instr.Const _ -> ()
        | Instr.Bin _ | Instr.Un _ | Instr.Select _ ->
          if List.exists carries (adjoint_operands ~live:(fun _ -> true) ins) then
            List.iter add (Instr.defs ins)
        | i -> List.iter add (Instr.defs i));
        List.iter
          (fun (r : Instr.region) ->
            List.iter add r.params;
            walk r.body)
          (Instr.regions ins))
      instrs
  in
  List.iter add f.params;
  walk f.body;
  c

let useful_of (f : Func.t) : (int, unit) Hashtbl.t =
  let useful = Hashtbl.create 64 in
  let carriers = carriers_of f in
  let changed = ref true in
  let is_f v = Ty.equal (Var.ty v) Ty.Float in
  let mark v =
    if
      is_f v
      && Hashtbl.mem carriers (Var.id v)
      && not (Hashtbl.mem useful (Var.id v))
    then begin
      Hashtbl.replace useful (Var.id v) ();
      changed := true
    end
  in
  let live v = Hashtbl.mem useful (Var.id v) in
  let rec walk ?if_results instrs =
    List.iter
      (fun (ins : Instr.t) ->
        List.iter mark (adjoint_operands ?if_results ~live ins);
        match ins with
        | Instr.If (rs, _, t_, e_) ->
          walk ~if_results:rs t_.body;
          walk ~if_results:rs e_.body
        | _ ->
          List.iter
            (fun (r : Instr.region) -> walk r.body)
            (Instr.regions ins))
      (List.rev instrs)
  in
  while !changed do
    changed := false;
    walk f.body
  done;
  useful

(* Duplicate-load slot sharing. [dup] maps a Load's var id to an earlier
   Load of the same pointer and index SSA vars in the same straight-line
   segment — no intervening write, call, barrier, or region boundary, so
   both loads observe the same cell unchanged and are runtime-equal. The
   planner lets the duplicate share the leader's availability: one cache
   slot holds both (§V-E cache minimization), and the forward sweep skips
   the duplicate's redundant cache store. Unlike CSE on the primal this
   leaves the primal and the adjoint accumulation structure untouched, so
   gradients stay bit-identical.

   The value numbering keys a pure instruction structurally ({!Vn.key},
   the key CSE uses), its operands by their canonical ids. One table
   serves the whole walk: a region's entries are undone when the walk
   leaves it, as in CSE, instead of each region walking a copy. *)
let dup_loads_of (fi : Finfo.t) : (int, int) Hashtbl.t =
  let f = fi.Finfo.func in
  let dup = Hashtbl.create 32 in
  (* var id -> runtime-equal representative, grown by a local pure value
     numbering (so syntactically distinct address chains computing the
     same Gep match) and by the discovered duplicate loads themselves *)
  let canon_tbl = Hashtbl.create 64 in
  let rec canon id =
    match Hashtbl.find_opt canon_tbl id with Some j -> canon j | None -> id
  in
  (* a base that is provably a separate object: a local allocation, or a
     noalias parameter (nothing else in scope aliases it) *)
  let sep b =
    match Finfo.def_site fi b with
    | Finfo.DInstr (Instr.Alloc _, _) -> true
    | Finfo.DParam -> (
      match Func.param_attr f b with
      | Some a -> a.Func.noalias
      | None -> false)
    | _ -> false
  in
  (* pure values numbered at the current point; [entered] lists the keys
     added since the enclosing region began *)
  let vn : (Vn.key, int) Hashtbl.t = Hashtbl.create 256 in
  let entered = ref [] in
  let vn_id v = canon (Var.id v) in
  let region g = Vn.scoped entered (Hashtbl.remove vn) g in
  (* avail: (canon ptr id, canon idx id) -> (leader load var, its base) *)
  let invalidate avail (p : Var.t) =
    match Finfo.pointer_base fi p with
    | Some wb when sep wb ->
      Hashtbl.filter_map_inplace
        (fun _ ((_, eb) as entry) ->
          match eb with
          | Some eb when Var.id eb <> Var.id wb && (sep eb || sep wb) ->
            Some entry
          | _ -> None)
        avail
    | _ -> Hashtbl.reset avail
  in
  let rec walk avail instrs =
    List.iter
      (fun (ins : Instr.t) ->
        (match ins with
        | Instr.Load (v, p, ix) -> (
          let k = canon (Var.id p), canon (Var.id ix) in
          match Hashtbl.find_opt avail k with
          | Some (leader, _) ->
            Hashtbl.replace dup (Var.id v) (Var.id leader);
            Hashtbl.replace canon_tbl (Var.id v) (Var.id leader)
          | None -> Hashtbl.replace avail k (v, Finfo.pointer_base fi p))
        | Instr.Store (p, _, _) | Instr.AtomicAdd (p, _, _) | Instr.Free p ->
          invalidate avail p
        | Instr.Call (_, ("mpi.rank" | "mpi.size" | "omp.max_threads"), _) ->
          ()
        | Instr.Call _ | Instr.Spawn _ | Instr.Sync _ | Instr.Barrier ->
          Hashtbl.reset avail
        | _ -> (
          match Vn.key ~id:vn_id ins, Instr.def ins with
          | Some k, Some v -> (
            match Hashtbl.find_opt vn k with
            | Some lid -> Hashtbl.replace canon_tbl (Var.id v) lid
            | None ->
              Hashtbl.add vn k (Var.id v);
              entered := k :: !entered)
          | _ -> ()));
        match ins with
        | Instr.If (_, _, t_, e_) ->
          (* branches observe memory as of the If: propagate availability
             in (lexical dominance makes the leaders visible), then drop
             it below the If (either branch may have written) *)
          region (fun () -> walk (Hashtbl.copy avail) t_.body);
          region (fun () -> walk (Hashtbl.copy avail) e_.body);
          Hashtbl.reset avail
        | _ ->
          let rs = Instr.regions ins in
          (* loop/fork bodies re-execute and other strands interleave:
             start them with no availability, and drop ours after *)
          List.iter
            (fun (r : Instr.region) ->
              region (fun () -> walk (Hashtbl.create 16) r.body))
            rs;
          if rs <> [] then Hashtbl.reset avail)
      instrs
  in
  walk (Hashtbl.create 16) f.body;
  dup

let create ~fi ~split ~opts =
  {
    fi;
    split;
    opts;
    vars = vars_of fi.Finfo.func;
    plans = Hashtbl.create 64;
    wanted = [];
    recomp = Hashtbl.create 64;
    aux_ty = Hashtbl.create 16;
    occ_depth = Hashtbl.create 64;
    occ_sdepth = Hashtbl.create 64;
    useful = useful_of fi.Finfo.func;
    dup = dup_loads_of fi;
    shared = Hashtbl.create 32;
    vary = Hashtbl.create 64;
    n_cached = 0;
    while_occs = [];
  }

let var t id =
  match t.vars.(id) with
  | Some v -> v
  | None -> unsupported "planner: unknown variable id %d" id

let key_ty t = function
  | KVal id -> Var.ty (var t id)
  | KShadow id -> Var.ty (var t id)
  | KAux (o, s) -> (
    match Hashtbl.find_opt t.aux_ty (o, s) with
    | Some ty -> ty
    | None -> unsupported "planner: untyped aux %d.%d" o s)

let fresh_cache t depth =
  let ord = t.n_cached in
  t.n_cached <- ord + 1;
  ACache (ord, depth)

(* Is this a pure instruction we may re-execute in the reverse pass? *)
let pure_def (i : Instr.t) =
  match i with
  | Const _ | Bin _ | Cmp _ | Un _ | Select _ | Gep _ -> true
  | Call (_, ("mpi.rank" | "mpi.size" | "omp.max_threads"), _) -> true
  | _ -> false

let is_useful t (v : Var.t) =
  Ty.equal (Var.ty v) Ty.Float && Hashtbl.mem t.useful (Var.id v)

(* A duplicate load sharing its leader's cache slot: the forward sweep
   skips its cache store (the leader, which dominates it and executes
   whenever it does, already stored the identical value). *)
let is_dup t = function
  | KVal id -> Hashtbl.mem t.shared id
  | KShadow _ | KAux _ -> false

(* Does the reverse sweep emit any work for [ins]? A region instruction
   whose reverse half would be empty is skipped entirely — no control
   values resolved, no reversed loop emitted. Must stay in sync with the
   statement-level gating in [Reverse.rev_node]. Regions containing a
   Barrier are never skipped: the reversed barrier keeps the reversed
   strands aligned even when no thread has adjoint work. *)
let rec rev_work t (ins : Instr.t) : bool =
  match ins with
  | Instr.Const _ | Instr.Cmp _ | Instr.Gep _ | Instr.Free _
  | Instr.Return _ | Instr.Yield _ -> false
  | Instr.Bin (v, _, _, _) | Instr.Un (v, _, _) | Instr.Select (v, _, _, _)
  | Instr.Load (v, _, _) -> is_useful t v
  | Instr.Store (_, _, x) -> Ty.equal (Var.ty x) Ty.Float
  | Instr.AtomicAdd _ -> true
  | Instr.Alloc (_, _, _, Instr.Gc) -> false
  | Instr.Alloc _ -> true  (* the reverse pass frees the shadow *)
  | Instr.Barrier -> true
  | Instr.Call (_, name, _) ->
    if String.contains name '.' then (
      match name with
      | "mpi.rank" | "mpi.size" | "omp.max_threads" | "gc.collect"
      | "parad.checkpoint" | "parad.checkpoint_rev" -> false
      | n when String.length n >= 6 && String.sub n 0 6 = "debug." -> false
      | _ -> true)
    else true
  | Instr.Spawn _ | Instr.Sync _ -> true
  | Instr.If (rs, _, t_, e_) ->
    List.exists (is_useful t) rs
    || List.exists (rev_work t) t_.body
    || List.exists (rev_work t) e_.body
  | Instr.For { body; _ }
  | Instr.Fork { body; _ }
  | Instr.Workshare { body; _ } -> List.exists (rev_work t) body.body
  | Instr.While { body; _ } ->
    (* the While condition is never reversed, only the body *)
    List.exists (rev_work t) body.body

(* A load may be re-executed in the reverse pass when the loaded memory
   provably never changes: its base is a readonly+noalias parameter.
   This is the alias-analysis-driven cache avoidance of §V-E — exactly
   what the Julia frontend's pointer indirection defeats (§VIII). *)
let reload_safe t p =
  let ro_param base =
    match Finfo.def_site t.fi base with
    | Finfo.DParam -> (
      match Func.param_attr t.fi.Finfo.func base with
      | Some a -> a.Func.readonly && a.Func.noalias
      | None -> false)
    | _ -> false
  in
  match Finfo.pointer_base t.fi p with
  | Some base -> ro_param base
  | None -> (
    (* one level of indirection: a field pointer loaded from a readonly
       noalias parameter table (a kernel-parameter struct). Inside a
       parallel region the outlined closure's captures erase aliasing
       information (as in Clang-lowered OpenMP), so the chase only
       applies when the field load sits outside every Fork — which is
       precisely what OpenMPOpt's load hoisting establishes. *)
    match Finfo.def_site t.fi p with
    | Finfo.DInstr (Instr.Load (_, q, _), _)
      when Finfo.fork_of t.fi p = None -> (
      match Finfo.pointer_base t.fi q with
      | Some qb -> ro_param qb
      | None -> false)
    | _ -> false)

(* What a needed primal value costs, before any choice is made. *)
type cand =
  | Free  (** [ADirect] or [AParam]: available at no charge *)
  | Fixed  (** can only be cached *)
  | Pure of float * Var.t list
      (** recomputable at this charge from these operands *)

let remat_charge (c : Parad_runtime.Cost_model.t) (i : Instr.t) =
  match i with
  | Instr.Const _ -> 0.0 (* pooled at function entry: no code at the use *)
  | Instr.Load _ -> c.mem
  | _ -> if Instr.transcendental i then c.transcendental_remat else c.arith

let cand t (v : Var.t) =
  let fi = t.fi in
  let cost = Parad_runtime.Cost_model.default in
  match Finfo.def_site fi v with
  | Finfo.DParam -> if t.split then Fixed else Free
  | Finfo.DRegionParam _ -> Free
  | Finfo.DInstr ((Instr.Load (_, p, ix) as i), _)
    when Finfo.sdepth fi v > 0 || t.split ->
    if reload_safe t p then Pure (remat_charge cost i, [ p; ix ]) else Fixed
  | Finfo.DInstr (i, _) ->
    if Finfo.sdepth fi v = 0 && not t.split then Free
    else if pure_def i then Pure (remat_charge cost i, Instr.uses i)
    else Fixed

(* The charge of caching a value of type [ty]: one [cache.set] in the
   forward sweep and one [cache.get] in the reverse sweep, each a call
   ([arith]) plus the access — a memory cell for the unboxed float
   caches, a boxed cache operation otherwise (as Interp and Engine
   charge them). *)
let cache_charge ty =
  let c = Parad_runtime.Cost_model.default in
  2.0 *. (c.arith +. if Ty.equal ty Ty.Float then c.mem else c.cache_op)

(* Capacities are charges in thousandths of a cycle, so the flow is
   exact integer arithmetic. *)
let units x = int_of_float (Float.round (x *. 1000.0))

(* The deepest loop level at which a value can change, independent of
   the plan. A directly available value never varies (0); a
   recomputable pure value varies where its deepest operand does;
   anything else at its definition depth. Caching a pure value at this
   depth instead of its lexical depth is the hoisting half of §V-E: a
   loop-invariant needed value gets one slot per outer iteration, not
   one per inner iteration. *)
let rec vary t (v : Var.t) : int =
  match Hashtbl.find_opt t.vary (Var.id v) with
  | Some d -> d
  | None ->
    let d =
      match Finfo.def_site t.fi v with
      | Finfo.DParam -> 0
      | Finfo.DInstr _ when Finfo.sdepth t.fi v = 0 && not t.split -> 0
      | Finfo.DInstr (i, _) when pure_def i ->
        List.fold_left (fun acc o -> max acc (vary t o)) 0 (Instr.uses i)
      | Finfo.DRegionParam _ | Finfo.DInstr _ -> Finfo.depth t.fi v
    in
    Hashtbl.replace t.vary (Var.id v) d;
    d

(* Run the cut over the values the registered keys need, and record the
   ones it recomputes in [t.recomp]. The candidates are the needed
   values and, transitively, the operands of recomputable candidates; a
   duplicate load that can only be cached is its leader's candidate (it
   shares the leader's slot). A candidate whose chain is taller than the
   [recompute_depth] bound — its height counted as if every recomputable
   operand below it were recomputed — cannot be recomputed. *)
let choose t =
  let index = Hashtbl.create 64 in
  let nodes = ref [] and count = ref 0 in
  let add v recomp operands =
    let cache = units (cache_charge (Var.ty v)) in
    let node = { Cut.cache; recomp; operands; needed = false } in
    nodes := (Var.id v, node) :: !nodes;
    incr count;
    !count - 1
  in
  (* node index and chain height of a candidate; [None] for a free value *)
  let rec visit (v : Var.t) =
    match Hashtbl.find_opt index (Var.id v) with
    | Some r -> r
    | None ->
      let r =
        match cand t v with
        | Free -> None
        | Fixed -> (
          match Hashtbl.find_opt t.dup (Var.id v) with
          | Some lid -> visit (var t lid)
          | None -> Some (add v None [], 0))
        | Pure (charge, ops) ->
          let ops = List.filter_map visit ops in
          let h = 1 + List.fold_left (fun acc (_, h) -> max acc h) 0 ops in
          if h <= t.opts.recompute_depth then
            Some (add v (Some (units charge)) (List.map fst ops), h)
          else Some (add v None [], 0)
      in
      Hashtbl.replace index (Var.id v) r;
      r
  in
  (* the values a shadow's recomputation reads (see [compute]) *)
  let rec shadow_vals id acc =
    match Finfo.def_site t.fi (var t id) with
    | Finfo.DInstr (Instr.Gep (_, p, ix), _) ->
      shadow_vals (Var.id p) (ix :: acc)
    | Finfo.DInstr (Instr.Select (_, c, a, b), _) ->
      c :: shadow_vals (Var.id a) (shadow_vals (Var.id b) acc)
    | _ -> acc
  in
  let needed =
    List.concat_map
      (function
        | KVal id -> [ var t id ]
        | KShadow id -> shadow_vals id []
        | KAux _ -> [])
      t.wanted
    |> List.filter_map (fun v -> Option.map fst (visit v))
  in
  let ids = Array.of_list (List.rev_map fst !nodes) in
  let g = Array.of_list (List.rev_map snd !nodes) in
  List.iter (fun i -> g.(i) <- { (g.(i)) with Cut.needed = true }) needed;
  Array.iteri
    (fun i c -> if c = Cut.Recompute then Hashtbl.replace t.recomp ids.(i) ())
    (Cut.solve g)

let rec plan t (k : key) : avail =
  match Hashtbl.find_opt t.plans k with
  | Some a -> a
  | None ->
    (* Guard against re-entrancy on the same key (impossible in SSA, but
       cheap to detect). *)
    Hashtbl.add t.plans k ADirect;
    let a = compute t k in
    Hashtbl.replace t.plans k a;
    a

and compute t k =
  let fi = t.fi in
  match k with
  | KVal id -> (
    let v = var t id in
    let recompute operands =
      List.iter (fun o -> ignore (plan t (KVal (Var.id o)))) operands;
      ARecomp
    in
    match Finfo.def_site fi v with
    | Finfo.DParam -> if t.split then fresh_cache t 0 else ADirect
    | Finfo.DRegionParam _ -> AParam
    | Finfo.DInstr (Instr.Load (_, p, ix), _)
      when Finfo.sdepth fi v > 0 || t.split ->
      if Hashtbl.mem t.recomp id then recompute [ p; ix ]
      else (
        match Hashtbl.find_opt t.dup id with
        | Some lid -> (
          (* runtime-equal duplicate load: share the leader's cache slot.
             The leader dominates the duplicate within the same loop nest
             (same idx-depth), so its slot holds the identical value by
             the time the reverse sweep reads it. When the leader needs
             no slot (ADirect at scope depth 0, or recomputable), give
             the duplicate its own cache — repointing at the leader's
             SSA register could cross a region boundary. *)
          match plan t (KVal lid) with
          | ACache _ as a ->
            Hashtbl.replace t.shared id ();
            a
          | ADirect | AParam | ARecomp -> fresh_cache t (Finfo.depth fi v))
        | None -> fresh_cache t (Finfo.depth fi v))
    | Finfo.DInstr (i, _) ->
      let depth = Finfo.depth fi v in
      if Finfo.sdepth fi v = 0 && not t.split then ADirect
      else if Hashtbl.mem t.recomp id then recompute (Instr.uses i)
      else if pure_def i && t.opts.recompute_depth > 0 then
        (* a cached pure value is hoisted to where it varies *)
        fresh_cache t (min depth (vary t v))
      else fresh_cache t depth)
  | KShadow id -> (
    let v = var t id in
    if not (Ty.is_ptr (Var.ty v)) then
      unsupported "shadow of non-pointer %a" Var.pp v;
    match Finfo.def_site fi v with
    | Finfo.DParam -> if t.split then fresh_cache t 0 else ADirect
    | Finfo.DRegionParam _ -> unsupported "pointer region parameter"
    | Finfo.DInstr (i, _) -> (
      let depth = Finfo.depth fi v in
      match i with
      | Instr.Gep (_, p, ix) ->
        ignore (plan t (KShadow (Var.id p)));
        ignore (plan t (KVal (Var.id ix)));
        ARecomp
      | Instr.Select (_, c, a, b) ->
        ignore (plan t (KVal (Var.id c)));
        ignore (plan t (KShadow (Var.id a)));
        ignore (plan t (KShadow (Var.id b)));
        ARecomp
      | Instr.Const (_, Instr.Cnull _) -> ARecomp
      | Instr.Alloc _ | Instr.Load _ | Instr.If _ | Instr.Call _ ->
        if Finfo.sdepth fi v = 0 && not t.split then ADirect
        else fresh_cache t depth
      | _ ->
        unsupported "shadow of %a defined by unsupported instruction" Var.pp v)
    )
  | KAux (occ, _) ->
    let depth =
      match Hashtbl.find_opt t.occ_depth occ with
      | Some d -> d
      | None -> unsupported "planner: unknown occurrence %d" occ
    in
    let sdepth =
      Option.value ~default:1 (Hashtbl.find_opt t.occ_sdepth occ)
    in
    if sdepth = 0 && not t.split then ADirect else fresh_cache t depth

(* Keys are registered during {!collect} and planned after it, in
   registration order, once the cut has seen every one of them. *)
let need t k = t.wanted <- k :: t.wanted

let need_aux t ~occ ~slot ty =
  Hashtbl.replace t.aux_ty (occ, slot) ty;
  need t (KAux (occ, slot))

(* ---- the needed-set collection walk ---- *)

(* [register_callee] is invoked for every user call/spawn so the engine
   can (recursively) plan the callee's split transform; [spawned] marks
   task entry points, whose reverse halves run concurrently and need
   atomic shadow accumulation (§VI-A1: task shadows are not
   thread-local). *)
(* [live] is false inside regions whose reverse half is skipped entirely
   (see [rev_work]): their statements register nothing — the occurrence
   counter still advances so it stays aligned with [Reverse.annotate].
   Statement-level registrations are additionally gated on [is_useful]:
   operands of a value whose adjoint is always zero are never needed.
   Once every key is registered, the cut ({!choose}) runs and the keys
   are planned in registration order, which numbers the caches. *)
let rec collect t ~(register_callee : spawned:bool -> string -> unit) =
  let f = t.fi.Finfo.func in
  let counter = ref 0 in
  let val_ k = need t (KVal (Var.id k)) in
  let shadow_ k = need t (KShadow (Var.id k)) in
  let rec walk ~live ~depth ~sdepth instrs =
    List.iter
      (fun (ins : Instr.t) ->
        let occ = !counter in
        incr counter;
        Hashtbl.replace t.occ_depth occ depth;
        Hashtbl.replace t.occ_sdepth occ sdepth;
        (* the While counter cell is a forward-sweep fixture, needed even
           when the reverse half of the loop is pruned away *)
        (match ins with
        | Instr.While _ -> t.while_occs <- occ :: t.while_occs
        | _ -> ());
        (match ins with
        | Instr.Call (_, g, _) when not (String.contains g '.') ->
          (* the forward sweep always calls aug_g, reversed or not *)
          register_callee ~spawned:false g
        | Instr.Spawn (_, g, _) -> register_callee ~spawned:true g
        | _ -> ());
        (if live then
           match ins with
           | Instr.Bin (v, op, a, b) when is_useful t v -> (
             match op with
             | Add | Sub -> ()
             | Mul | Div | Min | Max | Pow ->
               val_ a;
               val_ b
             | Rem -> ())
           | Instr.Bin _ | Instr.Cmp _ -> ()
           | Instr.Un (v, op, a) when is_useful t v -> (
             match op with
             | Neg | ToFloat | Floor -> ()
             | Sqrt | Exp -> val_ v
             | Sin | Cos | Log | Abs -> val_ a
             | ToInt | Not -> ())
           | Instr.Un _ -> ()
           | Instr.Select (v, c, _, _) when is_useful t v -> val_ c
           | Instr.Select _ -> ()
           | Instr.Const _ -> ()
           | Instr.Alloc (v, _, _, _) -> shadow_ v
           | Instr.Free _ -> ()
           | Instr.Load (v, p, ix) when is_useful t v ->
             shadow_ p;
             val_ ix
           | Instr.Load _ -> ()
           | Instr.Store (p, ix, x) when Ty.equal (Var.ty x) Ty.Float ->
             shadow_ p;
             val_ ix
           | Instr.Store _ -> ()
           | Instr.Gep _ -> ()
           | Instr.AtomicAdd (p, ix, _) ->
             shadow_ p;
             val_ ix
           | Instr.Call (v, name, args) ->
             collect_call t ~occ ~register_callee v name args
           | Instr.Spawn (v, _, _) -> val_ v
           | Instr.Sync h ->
             val_ h;
             need_aux t ~occ ~slot:0 Ty.Int (* blk handle via task.retval *)
           | Instr.If (_, c, _, _) -> if rev_work t ins then val_ c
           | Instr.For { lo; hi; step; _ } ->
             if rev_work t ins then begin
               val_ lo;
               val_ hi;
               val_ step
             end
           | Instr.While _ ->
             if rev_work t ins then begin
               need_aux t ~occ ~slot:0 Ty.Int (* trip count *);
               need_aux t ~occ ~slot:1 Ty.Int (* start offset *)
             end
           | Instr.Fork { nth; _ } -> if rev_work t ins then val_ nth
           | Instr.Workshare { lo; hi; _ } ->
             if rev_work t ins then begin
               val_ lo;
               val_ hi
             end
           | Instr.Barrier -> ()
           | Instr.Return (Some v) ->
             if Ty.is_ptr (Var.ty v) then
               unsupported "returning a pointer from a differentiated function"
           | Instr.Return None -> ()
           | Instr.Yield _ -> ());
        let subs = Instr.regions ins in
        let depth' =
          match ins with
          | Instr.For _ | Instr.While _ | Instr.Fork _ | Instr.Workshare _ ->
            depth + 1
          | _ -> depth
        in
        let live' = live && rev_work t ins in
        List.iter
          (fun (r : Instr.region) ->
            walk ~live:live' ~depth:depth' ~sdepth:(sdepth + 1) r.body)
          subs)
      instrs
  in
  walk ~live:true ~depth:0 ~sdepth:0 f.body;
  if t.opts.recompute_depth > 0 then choose t;
  List.iter (fun k -> ignore (plan t k)) (List.rev t.wanted)

and collect_call t ~occ ~register_callee v name args =
  let val_ k = need t (KVal (Var.id k)) in
  let shadow_ k = need t (KShadow (Var.id k)) in
  if String.contains name '.' then
    match name, args with
    | ("mpi.isend" | "mpi.irecv"), _ ->
      need_aux t ~occ ~slot:0 Ty.Int (* shadow request id *)
    | "mpi.wait", _ -> need_aux t ~occ ~slot:0 Ty.Int
    | ("mpi.send" | "mpi.recv"), [ p; n; _; _ ] ->
      (* blocking p2p: reverse issues the dual blocking op on shadows *)
      shadow_ p;
      val_ n;
      List.iter val_ (List.tl args)
    | "mpi.allreduce_sum", [ s; r; n ] ->
      shadow_ s;
      shadow_ r;
      val_ n
    | ("mpi.allreduce_min" | "mpi.allreduce_max"), [ s; r; n ] ->
      shadow_ s;
      shadow_ r;
      val_ n;
      need_aux t ~occ ~slot:0 (Ty.Ptr Ty.Float) (* primal send snapshot *);
      need_aux t ~occ ~slot:1 (Ty.Ptr Ty.Float) (* primal result snapshot *)
    | "mpi.bcast", [ p; n; root ] ->
      shadow_ p;
      val_ n;
      val_ root
    | ("mpi.barrier" | "mpi.rank" | "mpi.size" | "omp.max_threads"), _ -> ()
    | "parad.checkpoint", _ ->
      (* a checkpoint site snapshots the extras it names, and in a
         gradient run their shadows too: keep both available in the
         forward sweep (no reverse contribution) *)
      List.iter
        (fun x ->
          val_ x;
          if Ty.is_ptr (Var.ty x) then shadow_ x)
        args
    | "gc.preserve_begin", _ ->
      List.iter
        (fun x ->
          if Ty.is_ptr (Var.ty x) then begin
            val_ x;
            shadow_ x
          end)
        args
    | "gc.preserve_end", _ | "gc.collect", _ | "parad.checkpoint_rev", _ -> ()
    | n, _ when String.length n >= 6 && String.sub n 0 6 = "debug." -> ()
    | n, _ -> unsupported "cannot differentiate intrinsic %S" n
  else begin
    register_callee ~spawned:false name;
    need_aux t ~occ ~slot:0 Ty.Int (* cache-block handle *);
    ignore v
  end

(* ---- revolve-style binomial checkpoint scheduling (ROADMAP item 5) ----

   Griewank & Walther's revolve: reversing [n] outer timesteps with at
   most [c] concurrently live snapshots costs at most [t] forward
   re-evaluations per step, where [t] is minimal with beta(c, t) =
   C(c + t, c) >= n. The planner below exposes the two decisions the
   checkpointed-adjoint driver needs: how far to advance before dropping
   the next snapshot ([advance]), and the resulting worst-case sweep
   count ([sweeps]) for reporting. The flat [recompute_depth] knob keeps
   governing intra-iteration values; this schedules the loop-level state
   snapshots themselves. *)
module Binomial = struct
  (** beta(c, t) = C(c + t, c): the longest horizon reversible with [c]
      snapshots and at most [t] repeated forward sweeps per step.
      Saturates instead of overflowing. *)
  let beta c t =
    if c < 0 || t < 0 then 0
    else begin
      let r = ref 1 in
      for i = 1 to c do
        if !r < max_int / (t + i) then r := !r * (t + i) / i
        else r := max_int
      done;
      !r
    end

  (** Minimal repetition count [t] such that [n] steps are reversible
      with [c] snapshots: the schedule's worst-case recompute depth. *)
  let sweeps ~budget:c ~steps:n =
    if n <= 1 then 0
    else if c < 1 then invalid_arg "Binomial.sweeps: budget must be >= 1"
    else begin
      let t = ref 0 in
      while beta c !t < n do
        incr t
      done;
      !t
    end

  (** Given [n] remaining steps and [c] free snapshot slots, how many
      steps to advance the primal before placing the next snapshot —
      the classic revolve split: the first child subproblem gets
      beta(c-1, t-1) fewer steps so both children fit the bound. The
      result is clamped to [1, n-1]; callers only ask when [n >= 2]. *)
  let advance ~budget:c ~steps:n =
    if n < 2 then invalid_arg "Binomial.advance: needs at least 2 steps"
    else if c < 1 then invalid_arg "Binomial.advance: budget must be >= 1"
    else begin
      let t = sweeps ~budget:c ~steps:n in
      let a = n - beta (c - 1) (t - 1) in
      max 1 (min a (n - 1))
    end

  (** The full schedule's snapshot placements for reversing steps
      [0 .. n-1] with [budget] slots, in the order the driver visits
      them on the first forward pass. Mostly for tests, docs and the
      [parad soak] report; the driver re-derives placements recursively
      so it can re-plan after a degradation. *)
  let store_points ~budget ~steps:n =
    let pts = ref [] in
    let rec go base n free =
      if n >= 2 && free >= 1 then begin
        let a = advance ~budget:free ~steps:n in
        pts := (base + a) :: !pts;
        go (base + a) (n - a) (free - 1)
      end
    in
    pts := [ 0 ];
    go 0 n (budget - 1);
    List.sort compare !pts
end

(* Key type of each cache ordinal, for the emitter: Float ordinals get
   the unboxed [cache.newf] representation. *)
let cache_tys t : Ty.t option array =
  let a = Array.make (max 1 t.n_cached) None in
  Hashtbl.iter
    (fun k av ->
      match av with
      | ACache (ord, _) -> a.(ord) <- Some (key_ty t k)
      | ADirect | AParam | ARecomp -> ())
    t.plans;
  a
