(** Thread-locality analysis for adjoint accumulation (paper §VI-A1).

    When the reverse pass increments shadow memory inside a parallel
    region, the increment must be atomic unless the target cell is private
    to the executing thread. A shadow cell is provably private when the
    buffer's provenance is alias-free (a non-escaping allocation, or a
    [noalias] parameter) and *every* access to it inside a parallel region
    uses an index that is affine in a thread-distinguishing variable (the
    worksharing induction variable or the thread id), so distinct threads
    touch distinct cells.

    Buffers allocated inside the parallel region itself are private by
    construction and classified separately by the emitter. The legal
    fallback — treating everything as shared, i.e. atomics everywhere — is
    what [atomic_always] selects (the [abl-tl] ablation). *)

open Parad_ir

type t = {
  private_base : (int, unit) Hashtbl.t;
  escaped_base : (int, unit) Hashtbl.t;
}

let is_private t base = Hashtbl.mem t.private_base (Var.id base)
let is_escaped t base = Hashtbl.mem t.escaped_base (Var.id base)

module IS = Set.Make (Int)

(* Is [ix] affine in one of the thread-distinguishing variables
   [qual_ivs], with all other contributions invariant across the team
   (defined outside fork [fork_occ])? *)
let rec affine fi ~qual_ivs ~fork_occ (ix : Var.t) =
  if IS.mem (Var.id ix) qual_ivs then true
  else
    match Finfo.def_site fi ix with
    | Finfo.DInstr (Instr.Bin (_, Instr.Add, a, b), _) ->
      (affine fi ~qual_ivs ~fork_occ a && invariant fi ~fork_occ b)
      || (invariant fi ~fork_occ a && affine fi ~qual_ivs ~fork_occ b)
    | Finfo.DInstr (Instr.Bin (_, Instr.Sub, a, b), _) ->
      affine fi ~qual_ivs ~fork_occ a && invariant fi ~fork_occ b
    | Finfo.DInstr (Instr.Bin (_, Instr.Mul, a, b), _) -> (
      let nonzero_const v =
        match Finfo.def_site fi v with
        | Finfo.DInstr (Instr.Const (_, Instr.Cint c), _) -> c <> 0
        | _ -> false
      in
      (affine fi ~qual_ivs ~fork_occ a && nonzero_const b)
      || (nonzero_const a && affine fi ~qual_ivs ~fork_occ b))
    | _ -> false

and invariant fi ~fork_occ v =
  match Finfo.fork_of fi v, fork_occ with
  | None, _ -> true
  | Some f, Some f' -> f <> f'
  | Some _, None -> false

let analyze (fi : Finfo.t) (f : Func.t) =
  let escaped : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let disqualified : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let escape v =
    if Ty.is_ptr (Var.ty v) then
      match Finfo.pointer_base fi v with
      | Some base -> Hashtbl.replace escaped (Var.id base) ()
      | None -> ()
  in
  let access ~qual_ivs ~fork_occ p ix =
    match Finfo.pointer_base fi p with
    | None -> ()
    | Some base ->
      Hashtbl.replace seen (Var.id base) ();
      (match fork_occ with
      | None -> () (* sequential access: no cross-thread race *)
      | Some _ ->
        if not (affine fi ~qual_ivs ~fork_occ ix) then
          Hashtbl.replace disqualified (Var.id base) ())
  in
  let rec walk ~qual_ivs ~fork_occ occ_counter instrs =
    List.iter
      (fun (i : Instr.t) ->
        let occ = !occ_counter in
        incr occ_counter;
        (match i with
        | Instr.Store (p, ix, x) ->
          escape x;
          if Ty.equal (Var.ty x) Ty.Float then access ~qual_ivs ~fork_occ p ix
        | Instr.Load (v, p, ix) when Ty.equal (Var.ty v) Ty.Float ->
          access ~qual_ivs ~fork_occ p ix
        | Instr.AtomicAdd (p, ix, _) -> access ~qual_ivs ~fork_occ p ix
        | Instr.Call (_, _, args) | Instr.Spawn (_, _, args) ->
          List.iter escape args
        | Instr.Return (Some v) -> escape v
        | Instr.Yield vs -> List.iter escape vs
        | _ -> ());
        let recurse ~qual_ivs ~fork_occ (r : Instr.region) =
          walk ~qual_ivs ~fork_occ occ_counter r.body
        in
        match i with
        | Instr.If (_, _, t, e) ->
          recurse ~qual_ivs ~fork_occ t;
          recurse ~qual_ivs ~fork_occ e
        | Instr.For { body; _ } -> recurse ~qual_ivs ~fork_occ body
        | Instr.While { cond; body } ->
          recurse ~qual_ivs ~fork_occ cond;
          recurse ~qual_ivs ~fork_occ body
        | Instr.Fork { tid; body; _ } ->
          recurse ~qual_ivs:(IS.singleton (Var.id tid)) ~fork_occ:(Some occ)
            body
        | Instr.Workshare { iv; body; _ } ->
          recurse ~qual_ivs:(IS.add (Var.id iv) qual_ivs) ~fork_occ body
        | _ -> ())
      instrs
  in
  walk ~qual_ivs:IS.empty ~fork_occ:None (ref 0) f.body;
  let t = { private_base = Hashtbl.create 16; escaped_base = escaped } in
  let vars = Plan.vars_of f in
  Hashtbl.iter
    (fun id () ->
      if (not (Hashtbl.mem disqualified id)) && not (Hashtbl.mem escaped id)
      then
        (* base must be an allocation or a noalias parameter *)
        match vars.(id) with
        | None -> ()
        | Some v -> (
          match Finfo.def_site fi v with
          | Finfo.DInstr (Instr.Alloc _, _) ->
            Hashtbl.replace t.private_base id ()
          | Finfo.DParam -> (
            match Func.param_attr f v with
            | Some a when a.Func.noalias -> Hashtbl.replace t.private_base id ()
            | _ -> ())
          | _ -> ())
    )
    seen;
  t

(** Is an increment of [ptr]'s shadow inside fork [fork] shared with
    the other members? Not when the fork allocates the buffer (it is
    thread-local) or the analysis proves it private. *)
let shared fi t ~fork ptr =
  match Finfo.pointer_base fi ptr with
  | None -> true
  | Some base -> (
    match Finfo.def_site fi base with
    | Finfo.DInstr (Instr.Alloc _, _) when Finfo.fork_of fi base = Some fork -> false
    | _ -> not (is_private t base))

(* ---- per-thread reductions (the third accumulation form) ----

   Inside a reversed [Fork], an adjoint increment the analysis above
   leaves atomic becomes a plain add into a zero-filled accumulator
   private to the fork member when one thread revisits its index; the
   accumulator is added into the shared shadow once, at the end of its
   scope, by one atomic add per cell and lane (the reduction of
   Hückelheim & Hascoët's OpenMP adjoints). Two kinds of increment
   qualify:

   - a Load reversal [shadow(p)[ix] += d] whose index is an integer
     constant or [a*j + c], [j] the IV of a For of step 1 inside the
     scope with bounds that are constants or defined outside it, and
     [a > 0], [c] constants. The accumulator opens in the reversed body
     of the innermost For, While or Workshare inside the member whose
     body defines [p] (of the member itself when [p] is defined outside
     the fork): there the shadow of [p] is at hand for the combine. It
     is a buffer of [a*(hi-lo-1) + (max c - min c) + 1] cells (none
     when [hi <= lo]) for all the sites of [p] with the same [j] and
     [a]; the constant indices of [p] share one of [max c - min c + 1]
     cells ([a = 0]). The index must be revisited: a loop other than
     [j]'s lies between the scope and the site, and leaves the index
     unchanged (it depends on [j] and constants only). No If lies
     between them, so the site runs at every [j] of each pass of its
     loop. And no float Store, AtomicAdd, call or spawn in the scope
     may write [p]'s buffer, because the reversal of each reads its
     shadow;
   - a register captured from outside the fork ([dreg]), which a member
     accumulates into at two sites or more, or at one inside a loop or
     workshare: it becomes a member-local register, combined at the
     end of the member.

   Task-mode accumulation (outside any fork), an index loaded from
   memory and an increment no thread revisits stay atomic. The decision
   depends only on the primal program and its usefulness, so every
   seed count and recompute depth reduces the same sites. Neither
   [atomic_always] nor [assume_private] reduces anything. *)

type group = {
  gid : int;
  scope : int;
      (** occurrence of the For, While, Workshare or Fork whose reversed
          body opens the accumulator *)
  ptr : Var.t;  (** the primal pointer whose shadow the group combines into *)
  span : (Var.t * Var.t) option;
      (** the bounds [lo, hi) of the For whose IV the index moves with;
          [None] for a constant index *)
  scale : int;  (** the IV's coefficient [a] *)
  mutable cmin : int;
  mutable cmax : int;
}

type reductions = {
  sites : (int, group) Hashtbl.t;  (** Load occurrence -> its group *)
  opened : (int, group list) Hashtbl.t;
      (** scope occurrence -> the groups its body opens, in [gid] order *)
  regs : (int, int list) Hashtbl.t;
      (** fork occurrence -> ids of the captured registers each member
          reduces, ascending *)
}

(** The captured registers each member of fork [fork] reduces. *)
let reduced_regs red fork =
  Option.value ~default:[] (Hashtbl.find_opt red.regs fork)

(* [ix] as [a*j + c]: [Some (Some j, a, c)] with [j] a var [is_iv]
   accepts, [Some (None, 0, c)] for a constant. *)
let rec linear fi ~is_iv (ix : Var.t) =
  let add s (j1, a1, c1) (j2, a2, c2) =
    let j =
      match j1, j2 with
      | None, j | j, None -> Some j
      | Some x, Some y when Var.equal x y -> Some (Some x)
      | Some _, Some _ -> None
    in
    Option.map
      (fun j ->
        let a = a1 + (s * a2) in
        (if a = 0 then None else j), a, c1 + (s * c2))
      j
  in
  let ( let* ) = Option.bind in
  if is_iv ix then Some (Some ix, 1, 0)
  else
    match Finfo.def_site fi ix with
    | Finfo.DInstr (Instr.Const (_, Instr.Cint c), _) -> Some (None, 0, c)
    | Finfo.DInstr (Instr.Bin (_, ((Add | Sub) as op), x, y), _) ->
      let* l = linear fi ~is_iv x in
      let* r = linear fi ~is_iv y in
      add (if op = Add then 1 else -1) l r
    | Finfo.DInstr (Instr.Bin (_, Mul, x, y), _) -> (
      let* l = linear fi ~is_iv x in
      let* r = linear fi ~is_iv y in
      match l, r with
      | (None, _, k), (j, a, c) | (j, a, c), (None, _, k) ->
        Some ((if k = 0 then None else j), k * a, k * c)
      | _ -> None)
    | _ -> None

let reductions (p : Plan.t) (t : t) : reductions =
  let red =
    { sites = Hashtbl.create 16; opened = Hashtbl.create 8; regs = Hashtbl.create 8 }
  in
  if p.opts.atomic_always || p.opts.assume_private then red
  else begin
    let fi = p.fi in
    let f = fi.Finfo.func in
    (* var id -> occurrence of the region whose body defines it (-1: the
       function's own body) *)
    let home = Array.make f.var_count (-1) in
    let region : (int, Instr.t) Hashtbl.t = Hashtbl.create 64 in
    let is_loop o =
      match Hashtbl.find_opt region o with
      | Some (Instr.For _ | Instr.While _ | Instr.Workshare _) -> true
      | _ -> false
    in
    let for_of j =
      match Finfo.def_site fi j with
      | Finfo.DRegionParam o -> (
        match Hashtbl.find_opt region o with
        | Some (Instr.For { lo; hi; step; _ }) -> Some (o, lo, hi, step)
        | _ -> None)
      | _ -> None
    in
    (* a base nothing else in scope can point into *)
    let sep b =
      match Finfo.def_site fi b with
      | Finfo.DInstr (Instr.Alloc _, _) -> not (is_escaped t b)
      | Finfo.DParam -> (
        match Func.param_attr f b with Some a -> a.Func.noalias | None -> false)
      | _ -> false
    in
    let may_alias x y =
      match Finfo.pointer_base fi x, Finfo.pointer_base fi y with
      | Some a, Some b -> Var.equal a b || not (sep a || sep b)
      | Some a, None | None, Some a -> not (sep a)
      | None, None -> true
    in
    (* does the body of region [scope] hold a reversal that reads the
       shadow of [ptr]'s buffer? *)
    let writes scope ptr =
      let hit = ref false in
      List.iter
        (fun (r : Instr.region) ->
          Instr.iter_instrs
            (fun i ->
              match i with
              | Instr.Store (q, _, x) when Ty.equal (Var.ty x) Ty.Float ->
                if may_alias q ptr then hit := true
              | Instr.AtomicAdd (q, _, _) -> if may_alias q ptr then hit := true
              | Instr.Call (_, _, args) | Instr.Spawn (_, _, args) ->
                if List.exists (fun a -> Ty.is_ptr (Var.ty a) && may_alias a ptr) args
                then hit := true
              | _ -> ())
            r.body)
        (Instr.regions (Hashtbl.find region scope));
      !hit
    in
    let groups = Hashtbl.create 16 and ngroups = ref 0 in
    (* [inner]: the regions on the path strictly inside the fork,
       innermost first *)
    let site ~fork ~inner occ ptr ix =
      let h = home.(Var.id ptr) in
      let scope = if List.mem h inner then h else fork in
      let rec upto = function
        | o :: rest when o <> scope -> o :: upto rest
        | _ -> []
      in
      let between = upto inner in
      let inside = scope :: between in
      let scope_ok =
        match Hashtbl.find_opt region scope with
        | Some (Instr.For _ | Instr.While _ | Instr.Workshare _ | Instr.Fork _) -> true
        | _ -> false
      in
      let is_iv v =
        match for_of v with Some (o, _, _, _) -> List.mem o between | None -> false
      in
      let bound v =
        (match Finfo.def_site fi v with
        | Finfo.DInstr (Instr.Const _, _) -> true
        | _ -> false)
        || not (List.mem home.(Var.id v) inside)
      in
      let unit_step v =
        match Finfo.def_site fi v with
        | Finfo.DInstr (Instr.Const (_, Instr.Cint 1), _) -> true
        | _ -> false
      in
      let guarded =
        List.exists
          (fun o -> match Hashtbl.find_opt region o with Some (Instr.If _) -> true | _ -> false)
          between
      in
      if shared fi t ~fork ptr && scope_ok && not guarded then
        match linear fi ~is_iv ix with
        | Some (j, a, c) ->
          let span, jocc =
            match j with
            | None -> Some None, -1
            | Some j -> (
              match for_of j with
              | Some (o, lo, hi, step) when a > 0 && unit_step step && bound lo && bound hi ->
                Some (Some (lo, hi)), o
              | _ -> None, -1)
          in
          let reuse = List.exists (fun o -> o <> jocc && is_loop o) between in
          (match span with
          | Some span when reuse && not (writes scope ptr) ->
            let key = Var.id ptr, jocc, a in
            let g =
              match Hashtbl.find_opt groups key with
              | Some g -> g
              | None ->
                let g =
                  { gid = !ngroups; scope; ptr; span; scale = a; cmin = c; cmax = c }
                in
                incr ngroups;
                Hashtbl.add groups key g;
                g
            in
            g.cmin <- min g.cmin c;
            g.cmax <- max g.cmax c;
            Hashtbl.replace red.sites occ g
          | _ -> ())
        | None -> ()
    in
    (* (fork occurrence, var id) -> accumulation sites, any in a loop *)
    let captured = Hashtbl.create 16 in
    let counter = ref 0 in
    let rec walk ?if_results ~path instrs =
      List.iter
        (fun (ins : Instr.t) ->
          let occ = !counter in
          incr counter;
          let here = match path with o :: _ -> o | [] -> -1 in
          List.iter (fun v -> home.(Var.id v) <- here) (Instr.defs ins);
          let rec split acc = function
            | o :: rest -> (
              match Hashtbl.find_opt region o with
              | Some (Instr.Fork _) -> Some (o, List.rev acc)
              | _ -> split (o :: acc) rest)
            | [] -> None
          in
          (match split [] path with
          | None -> ()
          | Some (fork, inner) ->
            (match ins with
            | Instr.Load (v, ptr, ix) when Plan.is_useful p v ->
              site ~fork ~inner occ ptr ix
            | _ -> ());
            let in_loop = List.exists is_loop inner in
            List.iter
              (fun x ->
                if Finfo.fork_of fi x = None then begin
                  let key = fork, Var.id x in
                  let n, l =
                    Option.value ~default:(0, false) (Hashtbl.find_opt captured key)
                  in
                  Hashtbl.replace captured key (n + 1, l || in_loop)
                end)
              (List.filter (Plan.is_useful p)
                 (Plan.adjoint_operands ?if_results ~live:(Plan.is_useful p) ins)));
          match Instr.regions ins with
          | [] -> ()
          | rs ->
            Hashtbl.replace region occ ins;
            let if_results = match ins with Instr.If (r, _, _, _) -> Some r | _ -> None in
            List.iter
              (fun (r : Instr.region) ->
                List.iter (fun v -> home.(Var.id v) <- occ) r.params;
                walk ?if_results ~path:(occ :: path) r.body)
              rs)
        instrs
    in
    walk ~path:[] f.body;
    Hashtbl.iter
      (fun _ g ->
        let l = Option.value ~default:[] (Hashtbl.find_opt red.opened g.scope) in
        Hashtbl.replace red.opened g.scope (g :: l))
      groups;
    Hashtbl.filter_map_inplace
      (fun _ l -> Some (List.sort (fun a b -> compare a.gid b.gid) l))
      red.opened;
    Hashtbl.iter
      (fun (fork, id) (n, in_loop) ->
        if n >= 2 || in_loop then
          let l = Option.value ~default:[] (Hashtbl.find_opt red.regs fork) in
          Hashtbl.replace red.regs fork (id :: l))
      captured;
    Hashtbl.filter_map_inplace (fun _ l -> Some (List.sort compare l)) red.regs;
    red
  end
