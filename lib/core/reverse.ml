(** Reverse-mode transform: given a function, generate its gradient.

    The entry function is transformed in *combined* mode — one function
    containing the augmented forward sweep followed by the reverse sweep —
    while callees are transformed in *split* mode into an [aug_g]
    (augmented forward returning a cache-block handle) and a [rev_g]
    (reverse sweep consuming it), so that task adjoints can themselves be
    spawned as tasks (§IV-A: a primal sync becomes a reverse spawn).

    Parallel constructs reverse structurally (Fork→Fork, Workshare→
    Workshare over the same range, Barrier→Barrier, Spawn↔Sync); adjoint
    accumulation into shared shadow memory is serial, or atomic when the
    thread-locality analysis cannot prove the target thread-local
    (§VI-A1). Message passing reverses through shadow requests (§IV-B). *)

open Parad_ir
module B = Builder
module Interp = Parad_runtime.Interp
open Plan

(* Slot layout of a callee's cache block: [0, n) sub-cache ids, [n] the
   scalar-adjoint buffer, [n+1] the primal return value. *)
let slot_scal n = n
let slot_ret n = n + 1

(* ---- occurrence-annotated syntax tree (must mirror Finfo's walk) ---- *)

type anode = { occ : int; ins : Instr.t; subs : anode list list }

let annotate (body : Instr.t list) : anode list =
  let counter = ref 0 in
  let rec walk instrs =
    List.map
      (fun ins ->
        let occ = !counter in
        incr counter;
        let subs =
          List.map (fun (r : Instr.region) -> walk r.body) (Instr.regions ins)
        in
        { occ; ins; subs })
      instrs
  in
  walk body

(* ---- engine ---- *)

type callee_entry = {
  aug_name : string;
  rev_name : string;
  mutable cplan : Plan.t option;
  mutable emitted : bool;
  mutable spawned : bool;  (** used as a task entry point somewhere *)
  orig : Func.t;
}

type engine = {
  src : Prog.t;
  dst : Prog.t;
  opts : Plan.options;
  callees : (string, callee_entry) Hashtbl.t;
}

let scalar_params (f : Func.t) =
  List.filteri (fun _ p -> Ty.equal (Var.ty p) Ty.Float) f.params

let ptr_params (f : Func.t) =
  List.filter (fun p -> Ty.is_ptr (Var.ty p)) f.params

let rec ensure_planned eng ~spawned gname : callee_entry =
  match Hashtbl.find_opt eng.callees gname with
  | Some e ->
    if spawned then e.spawned <- true;
    e
  | None ->
    let orig =
      match Prog.find eng.src gname with
      | Some f -> f
      | None -> unsupported "call to unknown function %S" gname
    in
    let e =
      {
        aug_name = "aug_" ^ gname;
        rev_name = "rev_" ^ gname;
        cplan = None;
        emitted = false;
        spawned;
        orig;
      }
    in
    Hashtbl.add eng.callees gname e;
    let fi = Finfo.of_func orig in
    let p = Plan.create ~fi ~split:true ~opts:eng.opts in
    Plan.collect p ~register_callee:(fun ~spawned h ->
        ignore (ensure_planned eng ~spawned h));
    e.cplan <- Some p;
    e

let callee_info eng gname =
  let e = ensure_planned eng ~spawned:false gname in
  match e.cplan with
  | Some p -> e, p
  | None -> unsupported "recursive callee %S not yet planned" gname

(* ---- shared emission state ---- *)

type fstate = {
  eng : engine;
  p : Plan.t;
  b : B.t;
  frace : Race.t;
      (** static thread-locality analysis of the source function — drives
          both the serial-accumulation decision and the [san.mark_private]
          markers that let ParSan cross-validate it at runtime *)
  vmap : Var.t option array;
  shadow : (int, Var.t) Hashtbl.t;
  auxv : (int * int, Var.t) Hashtbl.t;
  cache_h : Var.t array;  (** cache handle vars, by ordinal *)
  while_gcell : (int, Var.t) Hashtbl.t;  (** While occ -> global counter cell *)
  pool : (Ty.t * int64, Var.t) Hashtbl.t;
      (** this function's constants, by type and bits (see {!kconst}) *)
  mutable ret_val : Var.t option;
  mutable ret_orig : Var.t option;
}

let fget st v =
  match st.vmap.(Var.id v) with
  | Some v' -> v'
  | None -> unsupported "forward: unmapped variable %a" Var.pp v

let fset st v v' = st.vmap.(Var.id v) <- Some v'

(* Every constant the transform writes comes from a per-function pool:
   one [Const] per type and bit pattern (so -0.0 and 0.0 stay apart, and
   so do NaN payloads), emitted at its first use into the function's
   outermost scope, where it dominates every later use — inside loop
   and fork bodies too. The primal frontends emit their own constants;
   only the forward sweep's copies of them are pooled here. *)
let kconst st ?(name = "c") (c : Instr.const) =
  let ((ty, _) as k) =
    match c with
    | Cunit -> Ty.Unit, 0L
    | Cbool x -> Ty.Bool, if x then 1L else 0L
    | Cint x -> Ty.Int, Int64.of_int x
    | Cfloat x -> Ty.Float, Int64.bits_of_float x
    | Cnull t -> Ty.Ptr t, 0L
  in
  match Hashtbl.find_opt st.pool k with
  | Some v -> v
  | None ->
    let v = B.fresh st.b ty name in
    B.emit_outer st.b (Const (v, c));
    Hashtbl.add st.pool k v;
    v

let ki st n = kconst st ~name:"i" (Cint n)
let kf st x = kconst st ~name:"f" (Cfloat x)
let kb st x = kconst st ~name:"b" (Cbool x)

let fshadow st v =
  match Hashtbl.find_opt st.shadow (Var.id v) with
  | Some s -> s
  | None -> unsupported "forward: no shadow for %a" Var.pp v

(* Under batched seeds ([opts.seeds = k > 1]) the shadow of a float array
   is a contiguous k-stride plane — lane [l] of cell [i] lives at
   [i*k + l] — so shadow allocation lengths and shadow gep offsets scale
   by k. Pointer-array shadows (which hold shadow pointers) and int
   shadows (MPI request duals) are never scaled. At k = 1 both helpers
   are the identity and emission is unchanged. *)
let shadow_len st (elem : Ty.t) (n : Var.t) =
  let k = st.eng.opts.seeds in
  if k > 1 && Ty.equal elem Ty.Float then B.mul st.b n (ki st k) else n

let shadow_off st (pty : Ty.t) (ix : Var.t) =
  let k = st.eng.opts.seeds in
  if k > 1 && Ty.equal pty (Ty.Ptr Ty.Float) then
    B.mul st.b ix (ki st k)
  else ix

(* Resolve the shadow of an Int-typed value (an MPI request): either noted
   directly at its isend/irecv, or chased through a load from a request
   array (the shadow array holds shadow request ids). *)
let rec fshadow_int st (v : Var.t) =
  match Hashtbl.find_opt st.shadow (Var.id v) with
  | Some s -> s
  | None -> (
    match Finfo.def_site st.p.fi v with
    | Finfo.DInstr (Instr.Load (_, arr, ix), _) ->
      let s = B.load st.b (fshadow st arr) (fget st ix) in
      Hashtbl.replace st.shadow (Var.id v) s;
      s
    | Finfo.DInstr (Instr.Select (_, c, a, b), _) ->
      let s =
        B.select st.b (fget st c) (fshadow_int st a) (fshadow_int st b)
      in
      Hashtbl.replace st.shadow (Var.id v) s;
      s
    | _ -> unsupported "cannot resolve the shadow request of %a" Var.pp v)

(* Each region depth carries a pair of linearized indices:
   - the *member* index (fst) — unique per dynamic execution of the
     region body, the one cache operations address with;
   - the *team* index (snd) — the lineage that treats an enclosing Fork
     as transparent (no [* nth + tid] term).
   A Workshare iteration executes exactly once across its team, so its
   index builds on the team lineage: [team_parent * len + (iv - lo)].
   Building on the member lineage (as a naive structural recursion does)
   makes the tape's index space [nth] times larger than the number of
   writes — a 64-thread region then pays a 64x-oversized, 1/64-dense
   cache file, which dominates wall-clock on wide teams. Both lineages
   re-unify at the workshare (its iteration is a team-level event), and
   a nested Fork restarts the team lineage from its own member index. *)
let idx_at idxs d =
  match List.nth_opt idxs d with
  | Some (m, _) -> m
  | None -> unsupported "index depth %d out of range" d

(* Store a planned-for-caching value into its cache. *)
let maybe_cache st ~idxs k (v : Var.t) =
  match Hashtbl.find_opt st.p.plans k with
  | Some (ACache (ord, d)) when not (Plan.is_dup st.p k) ->
    ignore
      (B.call st.b ~ret:Ty.Unit "cache.set"
         [ st.cache_h.(ord); idx_at idxs d; v ])
  | Some (ADirect | AParam | ACache _ | ARecomp) | None -> ()

(* Record a static privacy claim on a shadow buffer in the generated
   code: the runtime sanitizer's RaceSan treats a dynamic race on a
   marked buffer as a miscompilation of the thread-locality analysis.
   The intrinsic is a no-op on unsanitized runs. *)
let mark_if_private st (base : Var.t) (s : Var.t) =
  if st.eng.opts.Plan.assume_private || Race.is_private st.frace base then
    ignore (B.call st.b ~ret:Ty.Unit "san.mark_private" [ s ])

(* ---- forward sweep ---- *)

let rec fwd_emit st ~idxs ~on_yield (nodes : anode list) =
  List.iter (fwd_node st ~idxs ~on_yield) nodes

and fwd_node st ~idxs ~on_yield { occ; ins; subs } =
  let b = st.b in
  let g = fget st in
  let cache_val v v' = maybe_cache st ~idxs (KVal (Var.id v)) v' in
  let cache_shadow v s = maybe_cache st ~idxs (KShadow (Var.id v)) s in
  let cache_aux slot ty v' =
    Hashtbl.replace st.auxv (occ, slot) v';
    ignore ty;
    maybe_cache st ~idxs (KAux (occ, slot)) v'
  in
  match ins with
  | Const (v, c) ->
    let v' = kconst st ~name:(Var.name v) c in
    fset st v v';
    (match c with
    | Cnull _ -> Hashtbl.replace st.shadow (Var.id v) v'
    | _ -> ());
    cache_val v v'
  | Bin (v, op, x, y) ->
    let v' = B.bin b op (g x) (g y) in
    fset st v v';
    cache_val v v'
  | Cmp (v, op, x, y) ->
    let v' = B.cmp b op (g x) (g y) in
    fset st v v';
    cache_val v v'
  | Un (v, op, x) ->
    let v' = B.un b op (g x) in
    fset st v v';
    cache_val v v'
  | Select (v, c, x, y) ->
    let v' = B.select b (g c) (g x) (g y) in
    fset st v v';
    if Ty.is_ptr (Var.ty v) then begin
      let s = B.select b (g c) (fshadow st x) (fshadow st y) in
      Hashtbl.replace st.shadow (Var.id v) s;
      cache_shadow v s
    end;
    cache_val v v'
  | Alloc (v, elem, n, kind) ->
    let v' = B.alloc b ~kind elem (g n) in
    fset st v v';
    let s = B.alloc b ~kind elem (shadow_len st elem (g n)) in
    Hashtbl.replace st.shadow (Var.id v) s;
    mark_if_private st v s;
    cache_val v v';
    cache_shadow v s
  | Free p -> B.free b (g p)
  | Load (v, p, ix) ->
    let v' = B.load b (g p) (g ix) in
    fset st v v';
    (if Ty.is_ptr (Var.ty v) then begin
       let s = B.load b (fshadow st p) (g ix) in
       Hashtbl.replace st.shadow (Var.id v) s;
       cache_shadow v s
     end);
    cache_val v v'
  | Store (p, ix, x) ->
    B.store b (g p) (g ix) (g x);
    let xt = Var.ty x in
    if Ty.is_ptr xt then B.store b (fshadow st p) (g ix) (fshadow st x)
    else if
      Ty.equal xt Ty.Int && Hashtbl.mem st.shadow (Var.id x)
    then B.store b (fshadow st p) (g ix) (fshadow_int st x)
  | Gep (v, p, ix) ->
    let v' = B.gep b (g p) (g ix) in
    fset st v v';
    let s = B.gep b (fshadow st p) (shadow_off st (Var.ty p) (g ix)) in
    Hashtbl.replace st.shadow (Var.id v) s;
    cache_val v v';
    cache_shadow v s
  | AtomicAdd (p, ix, x) -> B.atomic_add b (g p) (g ix) (g x)
  | Call (v, name, args) -> fwd_call st ~idxs ~occ v name args
  | Spawn (v, gname, args) ->
    let e, _ = callee_info st.eng gname in
    if not (Ty.equal e.orig.ret_ty Ty.Unit) then
      unsupported "spawned function %S must return unit" gname;
    let args' =
      List.map g args @ List.map (fshadow st) (List.filter (fun a -> Ty.is_ptr (Var.ty a)) args)
    in
    let h = B.spawn b e.aug_name args' in
    fset st v h;
    cache_val v h
  | Sync h ->
    B.sync b (g h);
    let blk = B.call b ~ret:Ty.Int "task.retval" [ g h ] in
    cache_aux 0 Ty.Int blk
  | If (rs, c, _, _) ->
    let then_nodes, else_nodes =
      match subs with [ t; e ] -> t, e | _ -> assert false
    in
    let ptr_rs = List.filter (fun r -> Ty.is_ptr (Var.ty r)) rs in
    let result_tys =
      List.map Var.ty rs @ List.map Var.ty ptr_rs
    in
    let emit_branch nodes () =
      let yielded = ref [] in
      fwd_emit st ~idxs
        ~on_yield:(fun vs ->
          let mapped = List.map g vs in
          let shadows =
            List.filter_map
              (fun v ->
                if Ty.is_ptr (Var.ty v) then Some (fshadow st v) else None)
              vs
          in
          yielded := mapped @ shadows)
        nodes;
      !yielded
    in
    let out =
      B.if_ b (g c) ~results:result_tys
        ~then_:(emit_branch then_nodes)
        ~else_:(emit_branch else_nodes)
    in
    let n = List.length rs in
    List.iteri
      (fun i r ->
        if i < n then begin
          fset st r (List.nth out i);
          cache_val r (List.nth out i)
        end)
      rs;
    List.iteri
      (fun i r ->
        let s = List.nth out (n + i) in
        Hashtbl.replace st.shadow (Var.id r) s;
        cache_shadow r s)
      ptr_rs
  | For { iv; lo; hi; step; _ } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let rlo = g lo and rhi = g hi and rstep = g step in
    (* trip = max 0 ((hi - lo + step - 1) / step) *)
    let trip =
      B.max_ b (ki st 0)
        (B.div b
           (B.sub b (B.add b rhi rstep) (B.add b rlo (ki st 1)))
           rstep)
    in
    let pm, pt = List.nth idxs (List.length idxs - 1) in
    B.for_ b ~lo:rlo ~hi:rhi ~step:rstep (fun iv' ->
        fset st iv iv';
        let iter = B.div b (B.sub b iv' rlo) rstep in
        let inner = B.add b (B.mul b pm trip) iter in
        let tinner =
          if pm == pt then inner else B.add b (B.mul b pt trip) iter
        in
        fwd_emit st ~idxs:(idxs @ [ inner, tinner ]) ~on_yield body_nodes)
  | While _ ->
    let cond_nodes, body_nodes =
      match subs with [ c; x ] -> c, x | _ -> assert false
    in
    let gcell =
      match Hashtbl.find_opt st.while_gcell occ with
      | Some c -> c
      | None -> unsupported "while: missing counter cell"
    in
    let zero = ki st 0 in
    let start = B.load b gcell zero in
    cache_aux 1 Ty.Int start;
    let itercell = B.alloc b Ty.Int (ki st 1) in
    B.store b itercell zero zero;
    B.while_ b
      ~cond:(fun () ->
        let res = ref None in
        fwd_emit st ~idxs ~on_yield:(fun vs -> res := Some (List.hd vs |> g))
          cond_nodes;
        Option.get !res)
      ~body:(fun () ->
        let iter = B.load b itercell zero in
        let inner = B.add b start iter in
        fwd_emit st ~idxs:(idxs @ [ inner, inner ]) ~on_yield body_nodes;
        B.store b itercell zero (B.add b iter (ki st 1)));
    let trip = B.load b itercell zero in
    cache_aux 0 Ty.Int trip;
    B.store b gcell zero (B.add b start trip);
    B.free b itercell
  | Fork { tid; nth; body } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let nth_param =
      match body.params with [ _; q ] -> q | _ -> assert false
    in
    let pm, _ = List.nth idxs (List.length idxs - 1) in
    B.fork b ~nth:(g nth) (fun ~tid:tid' ~nth:nth' ->
        fset st tid tid';
        fset st nth_param nth';
        let inner = B.add b (B.mul b pm nth') tid' in
        fwd_emit st ~idxs:(idxs @ [ inner, pm ]) ~on_yield body_nodes)
  | Workshare { iv; lo; hi; schedule; nowait; _ } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let rlo = g lo and rhi = g hi in
    let len = B.max_ b (ki st 0) (B.sub b rhi rlo) in
    let _, pt = List.nth idxs (List.length idxs - 1) in
    B.workshare b ~schedule ~nowait ~lo:rlo ~hi:rhi (fun iv' ->
        fset st iv iv';
        let inner = B.add b (B.mul b pt len) (B.sub b iv' rlo) in
        fwd_emit st ~idxs:(idxs @ [ inner, inner ]) ~on_yield body_nodes)
  | Barrier -> B.barrier b
  | Return v ->
    st.ret_orig <- v;
    st.ret_val <- Option.map g v
  | Yield vs -> on_yield vs

and fwd_call st ~idxs ~occ v name args =
  let b = st.b in
  let g = fget st in
  let cache_aux slot ty v' =
    Hashtbl.replace st.auxv (occ, slot) v';
    ignore ty;
    maybe_cache st ~idxs (KAux (occ, slot)) v'
  in
  if String.contains name '.' then (
    match name, args with
    | "mpi.isend", [ p; n; dst; tag ] ->
      let req = B.call b ~ret:Ty.Int name (List.map g args) in
      fset st v req;
      let dreq =
        B.call b ~ret:Ty.Int "mpi.adjnote_isend"
          [ fshadow st p; g n; g dst; g tag ]
      in
      Hashtbl.replace st.shadow (Var.id v) dreq;
      cache_aux 0 Ty.Int dreq;
      maybe_cache st ~idxs (KVal (Var.id v)) req
    | "mpi.irecv", [ p; n; src; tag ] ->
      let req = B.call b ~ret:Ty.Int name (List.map g args) in
      fset st v req;
      let dreq =
        B.call b ~ret:Ty.Int "mpi.adjnote_irecv"
          [ fshadow st p; g n; g src; g tag ]
      in
      Hashtbl.replace st.shadow (Var.id v) dreq;
      cache_aux 0 Ty.Int dreq;
      maybe_cache st ~idxs (KVal (Var.id v)) req
    | "mpi.wait", [ r ] ->
      fset st v (B.call b ~ret:Ty.Unit name [ g r ]);
      let dreq = fshadow_int st r in
      cache_aux 0 Ty.Int dreq
    | ("mpi.allreduce_min" | "mpi.allreduce_max"), [ s; r; n ] ->
      (* snapshot the send buffer before (it may alias recv) and the
         result after, for the argmin-style adjoint *)
      let rn = g n in
      let snap_s = B.alloc b Ty.Float rn in
      let copy_to dst src =
        B.for_ b ~lo:(ki st 0) ~hi:rn ~step:(ki st 1) (fun j ->
            B.store b dst j (B.load b src j))
      in
      copy_to snap_s (g s);
      fset st v (B.call b ~ret:Ty.Unit name (List.map g args));
      let snap_r = B.alloc b Ty.Float rn in
      copy_to snap_r (g r);
      cache_aux 0 (Ty.Ptr Ty.Float) snap_s;
      cache_aux 1 (Ty.Ptr Ty.Float) snap_r
    | "gc.preserve_begin", _ ->
      let extended =
        List.map g args
        @ List.filter_map
            (fun x ->
              if Ty.is_ptr (Var.ty x) then Some (fshadow st x) else None)
            args
      in
      fset st v (B.call b ~ret:Ty.Int name extended)
    | "parad.checkpoint", _ ->
      (* the gradient's forward sweep checkpoints the primal extras and
         their shadows, so a restored replay resumes the derivative
         state too *)
      let extended =
        List.map g args
        @ List.filter_map
            (fun x ->
              if Ty.is_ptr (Var.ty x) then Some (fshadow st x) else None)
            args
      in
      fset st v (B.call b ~ret:Ty.Unit name extended)
    | _ ->
      (* straight copy: mpi.send/recv/allreduce_sum/bcast/barrier/rank/
         size, omp.*, gc.*, debug.* *)
      let ret = intrinsic_ret_ty name in
      fset st v (B.call b ~ret name (List.map g args));
      maybe_cache st ~idxs (KVal (Var.id v)) (fget st v))
  else begin
    let e, cp = callee_info st.eng name in
    let args' =
      List.map g args
      @ List.map (fshadow st)
          (List.filter (fun a -> Ty.is_ptr (Var.ty a)) args)
    in
    let blk = B.call b ~ret:Ty.Int e.aug_name args' in
    cache_aux 0 Ty.Int blk;
    if not (Ty.equal e.orig.ret_ty Ty.Unit) then begin
      let r =
        B.call b ~ret:e.orig.ret_ty "cache.get"
          [ blk; ki st (slot_ret cp.n_cached) ]
      in
      fset st v r;
      maybe_cache st ~idxs (KVal (Var.id v)) r
    end
    else fset st v (kconst st ~name:"u" Cunit)
  end

and intrinsic_ret_ty = function
  | "mpi.rank" | "mpi.size" | "omp.max_threads" | "gc.preserve_begin"
  | "gc.collect" -> Ty.Int
  | _ -> Ty.Unit

(* ---- reverse sweep ---- *)

(* A non-atomic adjoint register ([slot] of its plane [host], [dreg] or
   [dlocal]) a reverse scope holds (see [touch]). At seeds = 1 [cv] is
   its value, not yet stored back. At seeds = k > 1 it is lane group
   [group] of the scope's lane register file ([lane_off]); [fresh] says
   it started there as a +0.0 fill without reading its plane, and [zero]
   that its lanes are known to be +0.0. *)
type cell = {
  reg : Var.t;  (* the var whose adjoint it is *)
  host : Var.t;
  slot : int;
  group : int;
  mutable cv : Var.t;
  fresh : bool;
  mutable zero : bool;
}

(* The lane groups of one lane register file: group 0 is the scratch,
   group g >= 1 sits at [g * k]. A register takes the lowest free group
   when a scope starts holding it and gives it back when the scope stops
   ([free] is sorted); [top], the most in use at once, sizes the file. A
   register an enclosing scope starts holding ahead of the region being
   emitted takes a new group ([~fresh]): a free one may be in use by the
   code emitted in that region so far, which runs while it is held. *)
type lanes = { mutable free : int list; mutable top : int }

let new_lanes () = { free = []; top = 0 }

let take_group ?(ahead = false) l =
  match l.free with
  | g :: rest when not ahead ->
    l.free <- rest;
    g
  | _ ->
    l.top <- l.top + 1;
    l.top

let give_group l g = l.free <- List.merge Int.compare [ g ] l.free

type rscope = {
  rparent : rscope option;
  memo : (Plan.key, Var.t) Hashtbl.t;
  ridxs : (Var.t * Var.t) list;
      (* per-depth reverse (member, team) region indices, outermost
         first — same linearization as the forward sweep's [idxs] *)
  pmap : (int, Var.t) Hashtbl.t;  (* orig region-param id -> reverse var *)
  rfork : int option;  (* current fork occurrence in the reverse sweep *)
  dlocal : Var.t option;  (* per-thread adjoint registers inside a fork *)
  file : Var.t option;
      (* the per-thread lane register file at seeds = k > 1 (see
         [touch]), whose first k lanes are the scratch a reverse
         statement takes its result's adjoint into; [None] when
         [opts.seeds = 1] *)
  lanes : lanes;  (* the file's groups *)
  own_file : bool;  (* the file was allocated for this scope's body *)
  bscope : Instr.t list ref;  (* the builder scope this scope emits into *)
  defs : (int, unit) Hashtbl.t;  (* vars its own instructions define *)
  retained : bool;
      (* k > 1: the body of a region that keeps its parent's lane groups
         in the file ([retains]) *)
  planed : (int, unit) Hashtbl.t;
      (* k > 1: vars in [defs] whose plane may hold a value by now (a
         flush wrote it back, or a nested region reached it) *)
  pend : (int * int, cell) Hashtbl.t;  (* (host id, slot) -> touched cell *)
  mutable touched : cell list;  (* the same cells, latest first touch first *)
}

(* An open accumulator of a per-thread reduction ([open_groups]): the
   buffer of a group's [a*j + c] sites (a = 0 for a constant index).
   [at] is it offset by the base cell, so that a site addresses it with
   its own index; [off] is the base's offset in the shadow and [cells]
   the buffer's size. *)
type accumulator = { buf : Var.t; at : Var.t; off : Var.t; cells : Var.t }

type rstate = {
  fs : fstate;  (* forward tables, for ADirect resolution *)
  race : Race.t;
  red : Race.reductions;  (* the increments reduced per thread *)
  accs : (int, accumulator) Hashtbl.t;  (* group id -> its open accumulator *)
  dreg : Var.t;  (* shared adjoint registers, indexed by orig var id *)
  fslots : (int, (int, int) Hashtbl.t * int ref) Hashtbl.t;
      (* fork occurrence -> (var id -> dense slot, count): per-thread
         adjoint registers are numbered densely per parallel region, so
         at seeds = 1 each member's [dlocal] is sized by that region's
         locals instead of the whole function's [var_count] (at k > 1,
         by the registers that cross it: [planes]) *)
  planes : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (* k > 1: plane id -> (var id -> slot), numbered densely in order
         of first use ([plane_off]) *)
  prestok : (int, Var.t) Hashtbl.t;  (* preserve-begin occ -> reverse token *)
  task_mode : bool;
      (* this reverse half runs as a task, concurrently with its siblings:
         shadows of anything shared (parameters, escaped memory) must be
         accumulated atomically (§VI-A1) *)
  mutable pend_sends : bool;
      (* coalesce_comm: adjoint send-duals posted ([mpi.adj_send_post])
         whose accumulation a [mpi.adj_waitall] has not yet completed.
         Only runs of consecutive [mpi.send] reversals batch — any other
         reversal statement (which could read or accumulate the deferred
         adjoint) emits the waitall first, preserving bit-identity with
         the blocking form *)
  mutable in_remat : bool;
      (* inside an ARecomp recompute chain: whether to emit
         [parad.remat_begin]/[_end] markers is decided only at the
         outermost chain *)
}

let defs_of nodes =
  let defs = Hashtbl.create 16 in
  List.iter
    (fun n ->
      List.iter
        (fun v -> Hashtbl.replace defs (Var.id v) ())
        (Instr.defs n.ins))
    nodes;
  defs

(* The function's scope: its instructions and its parameters define the
   registers it holds. *)
let root_scope b ~idx0 ?file ~params nodes =
  let defs = defs_of nodes in
  List.iter (fun v -> Hashtbl.replace defs (Var.id v) ()) params;
  {
    rparent = None;
    memo = Hashtbl.create 32;
    ridxs = [ idx0, idx0 ];
    pmap = Hashtbl.create 8;
    rfork = None;
    dlocal = None;
    file;
    lanes = new_lanes ();
    own_file = true;
    bscope = B.current b;
    defs;
    retained = false;
    planed = Hashtbl.create 8;
    pend = Hashtbl.create 16;
    touched = [];
  }

(* The scope of a region body [nodes], opened in the builder's current
   scope. *)
let child_scope b sc ~idxs ?(fork = sc.rfork) ?(dlocal = sc.dlocal) ?file
    ?(retained = false) nodes =
  {
    rparent = Some sc;
    memo = Hashtbl.create 16;
    ridxs = idxs;
    pmap = Hashtbl.create 8;
    rfork = fork;
    dlocal;
    file = (match file with Some _ -> file | None -> sc.file);
    lanes = (if Option.is_some file then new_lanes () else sc.lanes);
    own_file = Option.is_some file;
    bscope = B.current b;
    defs = defs_of nodes;
    retained;
    planed = Hashtbl.create 8;
    pend = Hashtbl.create 16;
    touched = [];
  }

let rec memo_find sc k =
  match Hashtbl.find_opt sc.memo k with
  | Some v -> Some v
  | None -> (
    match sc.rparent with Some p -> memo_find p k | None -> None)

let rec pmap_find sc id =
  match Hashtbl.find_opt sc.pmap id with
  | Some v -> Some v
  | None -> (
    match sc.rparent with Some p -> pmap_find p id | None -> None)

(* Resolve a needed key to an SSA value at the current reverse point. *)
let rec resolve rs sc (k : Plan.key) : Var.t =
  match memo_find sc k with
  | Some v -> v
  | None ->
    let st = rs.fs in
    let b = st.b in
    let v =
      match Hashtbl.find_opt st.p.plans k with
      | None -> unsupported "reverse: unplanned key %a" Plan.pp_key k
      | Some ADirect -> (
        match k with
        | KVal id -> (
          match st.vmap.(id) with
          | Some v -> v
          | None -> unsupported "reverse: unmapped direct value %d" id)
        | KShadow id -> (
          match Hashtbl.find_opt st.shadow id with
          | Some v -> v
          | None -> unsupported "reverse: missing direct shadow %d" id)
        | KAux (o, s) -> (
          match Hashtbl.find_opt st.auxv (o, s) with
          | Some v -> v
          | None -> unsupported "reverse: missing direct aux %d.%d" o s))
      | Some AParam -> (
        match k with
        | KVal id -> (
          match pmap_find sc id with
          | Some v -> v
          | None -> unsupported "reverse: unbound region parameter %d" id)
        | KShadow _ | KAux _ -> unsupported "reverse: bad param key")
      | Some (ACache (ord, d)) ->
        B.call b ~ret:(Plan.key_ty st.p k) "cache.get"
          [ st.cache_h.(ord); idx_at sc.ridxs d ]
      | Some ARecomp ->
        (* bracket the outermost recomputed chain so the runtime charges
           the cheaper re-evaluation rate for its transcendentals (a
           recomputation repeats work whose operands are register- or
           cache-hot; see Cost_model.transcendental_remat) — only when
           the chain re-evaluates one, since the markers change no other
           charge. Chains are straight-line — no blocking op can
           interleave another strand's work between the markers. *)
        if rs.in_remat then recompute rs sc k
        else begin
          rs.in_remat <- true;
          let marked = remat_transcendental rs sc k in
          if marked then ignore (B.call b ~ret:Ty.Unit "parad.remat_begin" []);
          let v = recompute rs sc k in
          if marked then ignore (B.call b ~ret:Ty.Unit "parad.remat_end" []);
          rs.in_remat <- false;
          v
        end
    in
    Hashtbl.replace sc.memo k v;
    v

(* Does [recompute rs sc k] re-evaluate a transcendental? It emits [k]'s
   definition and, recursively, the operands that are themselves
   recomputed and not yet resolved in scope. *)
and remat_transcendental rs sc k =
  let p = rs.fs.p in
  let seen = Hashtbl.create 8 in
  let rec chain k =
    match k with
    | KVal id -> (
      match Finfo.def_site p.fi (Plan.var p id) with
      | Finfo.DInstr (i, _) ->
        Instr.transcendental i
        || List.exists (fun x -> operand (KVal (Var.id x))) (Instr.uses i)
      | _ -> false)
    | KShadow id -> (
      match Finfo.def_site p.fi (Plan.var p id) with
      | Finfo.DInstr (Gep (_, q, ix), _) ->
        operand (KShadow (Var.id q)) || operand (KVal (Var.id ix))
      | Finfo.DInstr (Select (_, c, x, y), _) ->
        operand (KVal (Var.id c))
        || operand (KShadow (Var.id x))
        || operand (KShadow (Var.id y))
      | _ -> false)
    | KAux _ -> false
  and operand k =
    (not (Hashtbl.mem seen k))
    && begin
         Hashtbl.add seen k ();
         memo_find sc k = None
         && Hashtbl.find_opt p.plans k = Some ARecomp
         && chain k
       end
  in
  chain k

and recompute rs sc k =
  let st = rs.fs in
  let b = st.b in
  let fi = st.p.fi in
  match k with
  | KVal id -> (
    let v = Plan.var st.p id in
    match Finfo.def_site fi v with
    | Finfo.DInstr (i, _) -> (
      let r x = resolve rs sc (KVal (Var.id x)) in
      match i with
      | Const (_, c) -> kconst st c
      | Bin (_, op, a, b') -> B.bin b op (r a) (r b')
      | Cmp (_, op, a, b') -> B.cmp b op (r a) (r b')
      | Un (_, op, a) -> B.un b op (r a)
      | Select (_, c, a, b') -> B.select b (r c) (r a) (r b')
      | Gep (_, p, ix) -> B.gep b (r p) (r ix)
      | Call (_, name, []) -> B.call b ~ret:Ty.Int name []
      | Load (_, p, ix) ->
        (* reload from provably-unchanged (readonly noalias) memory *)
        B.load b (r p) (r ix)
      | _ -> unsupported "reverse: cannot recompute %a" Var.pp v)
    | _ -> unsupported "reverse: cannot recompute %a" Var.pp v)
  | KShadow id -> (
    let v = Plan.var st.p id in
    match Finfo.def_site fi v with
    | Finfo.DInstr (Gep (_, p, ix), _) ->
      B.gep b
        (resolve rs sc (KShadow (Var.id p)))
        (shadow_off st (Var.ty p) (resolve rs sc (KVal (Var.id ix))))
    | Finfo.DInstr (Select (_, c, a, b'), _) ->
      B.select b
        (resolve rs sc (KVal (Var.id c)))
        (resolve rs sc (KShadow (Var.id a)))
        (resolve rs sc (KShadow (Var.id b')))
    | Finfo.DInstr (Const (_, (Cnull _ as c)), _) -> kconst st ~name:"null" c
    | _ -> unsupported "reverse: cannot recompute shadow of %a" Var.pp v)
  | KAux _ -> unsupported "reverse: cannot recompute aux"

(* ---- batched adjoint lanes ----

   With [opts.seeds = k > 1] every adjoint plane — the register planes
   ([dreg]/[dlocal]) and float shadow memory — is k-stride (cell [i],
   lane [l] at [i*k + l]), and each reverse statement becomes one
   [adj.*_k] runtime call that loops natively over the lane group
   ({!Interp.intrinsic}). Primal resolution ([resolve]: cache traffic,
   transcendentals, partial computation) stays outside those calls, so
   one tape and one primal stream amortize across all k seeds — that
   sharing, plus the per-lane work costing a float op instead of an
   interpreter dispatch, is the whole point of the batch. A reverse
   scope keeps its registers' lane groups in a per-thread lane register
   file, the k-wide form of the SSA values seeds = 1 keeps ([touch]
   below), and the lane calls name them by their file offset. The
   per-lane arithmetic mirrors the scalar emission exactly (same ops,
   same order), which keeps every batched lane bit-identical to its
   standalone run. The calls' offsets, modes and flags come from the
   constant pool like any other constant. *)

let fork_slot_tables (fi : Finfo.t) (red : Race.reductions) =
  let tbl = Hashtbl.create 8 in
  let add occ id =
    let map, n =
      match Hashtbl.find_opt tbl occ with
      | Some x -> x
      | None ->
        let x = Hashtbl.create 32, ref 0 in
        Hashtbl.add tbl occ x;
        x
    in
    Hashtbl.replace map id !n;
    incr n
  in
  Array.iteri
    (fun id fo -> match fo with None -> () | Some occ -> add occ id)
    fi.Finfo.fork_occ;
  (* a captured register each member reduces is a local of the member *)
  Hashtbl.iter (fun occ ids -> List.iter (add occ) ids) red.Race.regs;
  tbl

let fork_nlocals rs occ =
  match Hashtbl.find_opt rs.fslots occ with Some (_, n) -> !n | None -> 0

(* Which adjoint-register buffer hosts the adjoint of [v] at the current
   point, and at which slot. Captured-by-value outer registers inside a
   parallel region go to the shared buffer (atomically) at their var id,
   unless each member reduces them ([Race.reductions]); those and the
   locals go to the per-thread buffer at their dense per-region slot. *)
let adj_host rs sc (v : Var.t) : Var.t * bool (* atomic *) * int =
  let fi = rs.fs.p.fi in
  let local f =
    match sc.dlocal, Hashtbl.find_opt rs.fslots f with
    | Some d, Some (map, _) -> d, false, Hashtbl.find map (Var.id v)
    | None, _ -> unsupported "reverse: missing per-thread adjoint registers"
    | Some _, None -> unsupported "reverse: missing per-thread adjoint slots"
  in
  match Finfo.fork_of fi v, sc.rfork with
  | None, None -> rs.dreg, false, Var.id v
  | None, Some f ->
    if List.mem (Var.id v) (Race.reduced_regs rs.red f) then local f
    else (rs.dreg, true, Var.id v)
  | Some f, Some f' when f = f' -> local f
  | Some _, _ ->
    unsupported "reverse: adjoint of %a escapes its parallel region" Var.pp v

(* An adjoint accumulated into [v] can reach something: [v] is useful
   ({!Plan.useful_of}), so a float that is no constant. *)
let accumulable rs (v : Var.t) = Plan.is_useful rs.fs.p v

(* Straight-line SSA adjoints. At seeds = 1 a reverse scope keeps each
   non-atomic adjoint-register cell it touches as an SSA value: the
   first touch loads the cell, an accumulation adds to the value (the
   same add, in the same order, as a load-add-store would), and a read
   takes the value and leaves 0.0 owed to the cell. [flush] stores the
   values back, in first-touch order, wherever memory must hold them:
   before a nested region (its body is a scope of its own, and its
   first touches load), before a barrier, and at the end of the scope.
   The root scope is not flushed: the [d_args]/[dscal] packing reads
   its pending values, and then the registers are freed. So a register
   is a memory cell only where an adjoint crosses one of those points —
   a region boundary or a barrier — and [mem_forward] promotes what it
   can of those. Atomic accumulations (a register captured inside a
   fork) go straight to memory.

   At seeds = k > 1 the values are lane groups in the lane register file
   and the same discipline holds, with differences that stand in for
   what [mem_forward] does at seeds = 1. A register the scope's own
   instructions define starts as a +0.0 fill and never touches its plane
   (the file's lanes are +0.0 whenever no scope holds them, so the fill
   emits nothing) unless a nested region reaches it; any other register
   is copied in once, at its first touch ([adj.load_k]), and written
   back once, at a flush ([adj.store_k]). A nested region flushes only
   the groups it can reach ([flush_at]), a barrier none. The body of a
   For/While/If region that holds no fork, workshare, barrier or call
   ([retains]) flushes nothing: its scopes use the lane groups their
   enclosing scopes hold, and a register they need from outside is
   registered in the innermost enclosing scope that defines it, or else
   in the outermost scope they share the groups of, by an instruction
   emitted there, ahead of the region ([B.within]). And a file dies with
   its scope: a fork member's groups are not written back at its end. *)

(* A For/While/If region whose reverse holds no fork, workshare,
   barrier or call: at seeds = k > 1 its scopes keep using the lane
   groups the enclosing scope holds. *)
let retains (ins : Instr.t) =
  let rec blocks (i : Instr.t) =
    match i with
    | Fork _ | Workshare _ | Barrier | Call _ | Spawn _ | Sync _ -> true
    | _ ->
      List.exists
        (fun (r : Instr.region) -> List.exists blocks r.body)
        (Instr.regions i)
  in
  match ins with If _ | For _ | While _ -> not (blocks ins) | _ -> false

let file_of sc =
  match sc.file with
  | Some f -> f
  | None -> unsupported "reverse: missing lane register file"

let lane_off rs c = ki rs.fs (c.group * rs.fs.p.opts.seeds)

(* At k > 1: the offset of [v]'s lane group in the plane [host]. A
   plane's slots are numbered densely in order of first use, so it holds
   only the registers that cross it ([plane_len]). *)
let plane_off rs (host : Var.t) (v : Var.t) =
  let tbl =
    match Hashtbl.find_opt rs.planes (Var.id host) with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 16 in
      Hashtbl.add rs.planes (Var.id host) t;
      t
  in
  let slot =
    match Hashtbl.find_opt tbl (Var.id v) with
    | Some s -> s
    | None ->
      let s = Hashtbl.length tbl in
      Hashtbl.add tbl (Var.id v) s;
      s
  in
  ki rs.fs (slot * rs.fs.p.opts.seeds)

let plane_len rs (host : Var.t) =
  let n =
    match Hashtbl.find_opt rs.planes (Var.id host) with
    | Some t -> Hashtbl.length t
    | None -> 0
  in
  max 1 n * rs.fs.p.opts.seeds

let kcall rs name args = ignore (B.call rs.fs.b ~ret:Ty.Unit name args)

(* The cell of [v]'s register, [touch]ing it first if this scope (or, at
   k > 1, a scope whose groups it shares) does not hold it yet. *)
let touch rs sc (v : Var.t) =
  let st = rs.fs in
  let k = st.p.opts.seeds in
  let host, _, slot = adj_host rs sc v in
  let key = Var.id host, slot in
  let hold o c =
    Hashtbl.add o.pend key c;
    o.touched <- c :: o.touched;
    c
  in
  match Hashtbl.find_opt sc.pend key with
  | Some c -> c
  | None when k = 1 ->
    let cv = B.load st.b host (ki st slot) in
    hold sc { reg = v; host; slot; group = 0; cv; fresh = false; zero = false }
  | None ->
    (* walk the scopes sharing their groups, outward *)
    let rec find o =
      match Hashtbl.find_opt o.pend key with
      | Some c -> Some c
      | None -> (
        match o.rparent with Some p when o.retained -> find p | _ -> None)
    in
    let rec owner o =
      if Hashtbl.mem o.defs (Var.id v) then o
      else match o.rparent with Some p when o.retained -> owner p | _ -> o
    in
    (match find sc with
    | Some c ->
      (* an enclosing scope's group: its lanes are no longer known *)
      c.zero <- false;
      c
    | None ->
      let o = owner sc in
      let fresh =
        Hashtbl.mem o.defs (Var.id v) && not (Hashtbl.mem o.planed (Var.id v))
      in
      let c =
        { reg = v; host; slot; group = take_group ~ahead:(o != sc) o.lanes;
          cv = host; fresh; zero = fresh && o == sc }
      in
      if not fresh then
        B.within st.b o.bscope (fun () ->
            kcall rs "adj.load_k"
              [ file_of o; lane_off rs c; host; plane_off rs host v; ki st k ]);
      hold o c)

(* Store back the cells [cs] of [sc]. At k > 1 a group that started as
   a fill needs no plane at the end of its scope, or when it is +0.0: it
   only has to leave the file's lanes +0.0. *)
let store_back rs sc ~at_end cs =
  let st = rs.fs in
  let k = st.p.opts.seeds in
  List.iter
    (fun c ->
      Hashtbl.remove sc.pend (Var.id c.host, c.slot);
      if k = 1 then B.store st.b c.host (ki st c.slot) c.cv
      else begin
        if c.fresh && (at_end || c.zero) then begin
          if not c.zero then
            kcall rs "adj.zero_k" [ file_of sc; lane_off rs c; ki st k ]
        end
        else begin
          kcall rs "adj.store_k"
            [ file_of sc; lane_off rs c; c.host; plane_off rs c.host c.reg;
              ki st k ];
          Hashtbl.replace sc.planed (Var.id c.reg) ()
        end;
        give_group sc.lanes c.group
      end)
    (List.rev cs)

(* The end of [sc]: store back everything it holds. *)
let flush rs sc =
  store_back rs sc ~at_end:true sc.touched;
  sc.touched <- []

(* Before a nested region [ins] that is its own scope, or a barrier. At
   k = 1 every value is stored back. At k > 1 only what the region can
   reach through a plane: a register whose var it uses (an accumulation
   target, copied into its body or added atomically from a fork) or
   defines (an If's results); its plane may hold a value afterwards. A
   barrier reaches no thread's file. *)
let flush_at rs sc (ins : Instr.t) =
  if rs.fs.p.opts.seeds = 1 then begin
    store_back rs sc ~at_end:false sc.touched;
    sc.touched <- []
  end
  else begin
    let reach = Hashtbl.create 64 in
    let add v =
      if Hashtbl.mem sc.defs (Var.id v) then
        Hashtbl.replace sc.planed (Var.id v) ();
      Hashtbl.replace reach (Var.id v) ()
    in
    List.iter add (Instr.defs ins);
    Instr.iter_instrs (fun i -> List.iter add (Instr.uses i)) [ ins ];
    let go, stay =
      List.partition (fun c -> Hashtbl.mem reach (Var.id c.reg)) sc.touched
    in
    store_back rs sc ~at_end:false go;
    sc.touched <- stay
  end

let accum rs sc (v : Var.t) (dv : Var.t) =
  if accumulable rs v then begin
    let st = rs.fs in
    let host, atomic, slot = adj_host rs sc v in
    if atomic then B.atomic_add st.b host (ki st slot) dv
    else begin
      let c = touch rs sc v in
      c.cv <- B.add st.b c.cv dv
    end
  end

let read_adj rs sc (v : Var.t) =
  let c = touch rs sc v in
  let d = c.cv in
  c.cv <- kf rs.fs 0.0;
  d

(* At k > 1: [c]'s lanes were just taken (left +0.0) in [sc]. *)
let taken sc c =
  match Hashtbl.find_opt sc.pend (Var.id c.host, c.slot) with
  | Some c' when c' == c -> c.zero <- true
  | _ -> ()

(* Shadow-memory accumulation is serial when the thread-locality
   analysis proves privacy, atomic otherwise (§VI-A1). *)
let mem_atomic rs sc ~(primal_ptr : Var.t) =
  let fi = rs.fs.p.fi in
  let task_shared () =
    (* in task mode, only non-escaping local allocations are private *)
    rs.task_mode
    &&
    match Finfo.pointer_base fi primal_ptr with
    | None -> true
    | Some base -> (
      match Finfo.def_site fi base with
      | Finfo.DInstr (Alloc _, _) -> Race.is_escaped rs.race base
      | _ -> true)
  in
  match sc.rfork with
  | None -> (not rs.fs.p.opts.assume_private) && task_shared ()
  | Some focc ->
    if rs.fs.p.opts.assume_private then false
    else if rs.fs.p.opts.atomic_always then true
    else Race.shared fi rs.race ~fork:focc primal_ptr

let accum_mem rs ~atomic (sp : Var.t) (ix : Var.t) (dv : Var.t) =
  let b = rs.fs.b in
  if atomic then B.atomic_add b sp ix dv
  else begin
    let cur = B.load b sp ix in
    B.store b sp ix (B.add b cur dv)
  end

(* ---- per-thread reductions ({!Race.reductions}) ----

   A reduced Load reversal adds plainly into its group's accumulator,
   which [open_groups] allocates zero-filled at the start of the
   reversed body of the group's scope (k lanes per cell at k > 1), and
   [close_groups] adds into the shadow at its end: one [adj.combine]
   call, an atomic add per cell and lane, with the shadow pointer
   resolved there once. The accumulator spans what the j loop's bounds
   address; a cell of it outside the shadow's buffer (a loop between
   the scope and the site ran no pass) is never incremented, and the
   combine skips it. A reduced captured register is a member-local
   register ([adj_host]), added into [dreg] at the end of the member
   ([combine_regs]). *)

let open_groups rs sc occ =
  let st = rs.fs in
  let b = st.b in
  List.map
    (fun (g : Race.group) ->
      let width = ki st (g.cmax - g.cmin + 1) in
      let len, base =
        match g.span with
        | None -> width, ki st g.cmin
        | Some (lo, hi) ->
          (* a constant bound may be defined (and, when the plan caches
             everything, cached) inside the scope *)
          let bound v =
            match Finfo.def_site st.p.fi v with
            | Finfo.DInstr (Const (_, c), _) -> kconst st c
            | _ -> resolve rs sc (KVal (Var.id v))
          in
          let lo = bound lo and hi = bound hi in
          let a = ki st g.scale in
          (* no cell when j's loop is empty *)
          ( B.select b (B.lt b lo hi)
              (B.add b (B.mul b a (B.sub b (B.sub b hi lo) (ki st 1))) width)
              (ki st 0),
            B.add b (B.mul b a lo) (ki st g.cmin) )
      in
      let cells = shadow_len st Ty.Float len in
      let off = shadow_off st (Ty.Ptr Ty.Float) base in
      let buf = B.alloc b Ty.Float cells in
      Hashtbl.replace rs.accs g.gid
        { buf; at = B.gep b buf (B.sub b (ki st 0) off); off; cells };
      g)
    (Option.value ~default:[] (Hashtbl.find_opt rs.red.Race.opened occ))

let close_groups rs sc opened =
  let st = rs.fs in
  List.iter
    (fun (g : Race.group) ->
      let a = Hashtbl.find rs.accs g.gid in
      Hashtbl.remove rs.accs g.gid;
      let sp = resolve rs sc (KShadow (Var.id g.ptr)) in
      kcall rs "adj.combine" [ a.buf; ki st 0; sp; a.off; a.cells ];
      B.free st.b a.buf)
    opened

(* The end of a fork member [sc]: add each register it reduces into
   [dreg]. At k = 1 the member's flush has stored it in [dlocal]; at
   k > 1 it is in the lane file if the member holds it, else in its
   plane. *)
let combine_regs rs sc occ =
  let st = rs.fs in
  let k = st.p.opts.seeds in
  List.iter
    (fun id ->
      let v = Plan.var st.p id in
      let host, _, slot = adj_host rs sc v in
      if k = 1 then
        B.atomic_add st.b rs.dreg (ki st id) (B.load st.b host (ki st slot))
      else begin
        let src, soff =
          match Hashtbl.find_opt sc.pend (Var.id host, slot) with
          | Some c -> file_of sc, lane_off rs c
          | None -> host, plane_off rs host v
        in
        kcall rs "adj.combine" [ src; soff; rs.dreg; plane_off rs rs.dreg v; ki st k ]
      end)
    (Race.reduced_regs rs.red occ)

(* The reversal of [v = Load p[ix]] into [sp], the shadow of [p] or
   an accumulator addressed like it: [sp[ix] += d_v], plain or atomic;
   at k > 1 one fused dispatch over [v]'s lane group. *)
let accum_load rs sc (v : Var.t) ~atomic (sp : Var.t) (ix : Var.t) =
  let st = rs.fs in
  let k = st.p.opts.seeds in
  let rval x = resolve rs sc (KVal (Var.id x)) in
  if k = 1 then begin
    let dv = read_adj rs sc v in
    accum_mem rs ~atomic sp (rval ix) dv
  end
  else begin
    let c = touch rs sc v in
    let mb = B.mul st.b (rval ix) (ki st k) in
    kcall rs "adj.mrev_k"
      [ file_of sc; lane_off rs c; sp; mb; ki st (if atomic then 1 else 0); ki st k ];
    taken sc c
  end

(* ---- statement-level reverse emission ----

   A scalar reverse statement takes the adjoint of its result [v] and
   folds a per-operand function of it into each operand's slot. The
   per-operand formulas are [aspec]s whose [amode] numbers the lane
   calls' dispatch table ({!Interp.adj_acc_lanes}); [rev_stmt] emits
   either classic scalar IR (seeds = 1, [scalar_formula] below) or the
   k-wide intrinsic calls — both compute the same float ops in the same
   order. *)

type aspec = {
  at : Var.t;  (* accumulation target *)
  amode : int;
  ac1 : Var.t option;  (* lane-invariant coefficients, resolved once *)
  ac2 : Var.t option;
  acond : Var.t option;
}

let spec ?c1 ?c2 ?cond at amode =
  { at; amode; ac1 = c1; ac2 = c2; acond = cond }

let scalar_formula st (s : aspec) (dv : Var.t) =
  let b = st.b in
  let c1 () = Option.get s.ac1 in
  let c2 () = Option.get s.ac2 in
  let cond () = Option.get s.acond in
  match s.amode with
  | 0 -> dv
  | 1 -> B.neg b dv
  | 2 -> B.mul b dv (c1 ())
  | 3 -> B.div b dv (c1 ())
  | 4 -> B.neg b (B.mul b dv (c1 ()))
  | 5 -> B.neg b (B.div b (B.mul b dv (c1 ())) (c2 ()))
  | 6 -> B.div b (B.mul b dv (c1 ())) (c2 ())
  | 7 -> B.select b (cond ()) dv (kf st 0.0)
  | 8 -> B.select b (cond ()) (kf st 0.0) dv
  | 9 -> B.select b (cond ()) dv (B.neg b dv)
  | _ -> assert false

(* At k > 1: the group of an accumulation target and the kind of its
   contribution ({!Interp.acc_kind}): its lane group in the file, which
   takes a write while its lanes are known to be +0.0 (the k-wide form
   of [fold] dropping [0.0 + x]) and an add after that, or, for a
   register captured inside a fork, its plane, which takes an atomic add
   per lane. Returns the host, offset and kind. *)
let lane_target rs sc (x : Var.t) =
  let st = rs.fs in
  let kind kd = ki st (Interp.kind_code kd) in
  let host, atomic, _ = adj_host rs sc x in
  if atomic then host, plane_off rs host x, kind Interp.Atomic
  else begin
    let c = touch rs sc x in
    let kd = if c.zero then Interp.Write else Interp.Add in
    c.zero <- false;
    file_of sc, lane_off rs c, kind kd
  end

let rev_stmt rs sc (v : Var.t) (specs : aspec list) =
  if rs.fs.p.opts.seeds = 1 then begin
    let dv = read_adj rs sc v in
    List.iter (fun s -> accum rs sc s.at (scalar_formula rs.fs s dv)) specs
  end
  else begin
    let st = rs.fs in
    let k = st.p.opts.seeds in
    let c = touch rs sc v in
    let off = lane_off rs c in
    let group (s : aspec) =
      let host, o, kind = lane_target rs sc s.at in
      [
        host;
        o;
        ki st s.amode;
        (match s.ac1 with Some c -> c | None -> kf st 0.0);
        (match s.ac2 with Some c -> c | None -> kf st 0.0);
        (match s.acond with Some c -> c | None -> kb st false);
        kind;
      ]
    in
    (* one dispatch per statement: take v's lanes into the scratch (the
       k-wide [read_adj]) and fold them into up to two operand groups *)
    let file = file_of sc and kk = ki st k in
    (match List.filter (fun s -> accumulable rs s.at) specs with
    | [] -> if not c.zero then kcall rs "adj.zero_k" [ file; off; kk ]
    | [ s1 ] ->
      let g1 = group s1 in
      kcall rs "adj.rev1_k" ((file :: off :: g1) @ [ kk ])
    | [ s1; s2 ] ->
      let g1 = group s1 in
      let g2 = group s2 in
      kcall rs "adj.rev2_k" ((file :: off :: g1) @ g2 @ [ kk ])
    | _ -> unsupported "reverse: a statement with more than two operands");
    taken sc c
  end

(* At k > 1: allocate a plane ([dreg] or [dlocal]) and a lane file once
   the code using them is emitted, the plane sized by the registers that
   cross it and the file by its scratch and the [groups] in use at once. *)
let alloc_lanes rs ~plane ~file ~groups =
  let st = rs.fs in
  let k = st.p.opts.seeds in
  B.emit st.b (Alloc (plane, Ty.Float, ki st (plane_len rs plane), Heap));
  B.emit st.b (Alloc (file, Ty.Float, ki st ((groups + 1) * k), Heap))

let rec rev_emit rs sc ?if_results (nodes : anode list) =
  List.iter (rev_node rs sc ?if_results) (List.rev nodes);
  (* the root scope's adjoints are read from its pending cells by the
     [d_args]/[dscal] packing, and then the registers are freed; so is
     a fork member's lane file *)
  if Option.is_some sc.rparent && not (rs.fs.p.opts.seeds > 1 && sc.own_file)
  then flush rs sc;
  (* close this scope's batch of adjoint send-duals before control leaves
     it: a batch must never span a structural boundary — a waitall emitted
     in a sibling scope (e.g. the other arm of an If) would run on a path
     the posts never took, leaving them forever incomplete on the path
     that posted them *)
  if rs.pend_sends then begin
    ignore (B.call rs.fs.b ~ret:Ty.Unit "mpi.adj_waitall" []);
    rs.pend_sends <- false
  end

and rev_node rs sc ?if_results { occ; ins; subs } =
  let st = rs.fs in
  let b = st.b in
  (* at k > 1 a region that [retains] shares this scope's lane groups *)
  let keep = st.p.opts.seeds > 1 && retains ins in
  (match ins with
  | (If _ | For _ | While _ | Fork _ | Workshare _)
    when Plan.rev_work st.p ins && not keep -> flush_at rs sc ins
  | Barrier -> flush_at rs sc ins
  | _ -> ());
  (* complete any batched adjoint send-duals before a statement that could
     read or accumulate their still-deferred adjoints; only runs of
     consecutive sends batch (statements that provably emit no reverse
     work are transparent). [mpi.adj_waitall] completes every registered
     expectation, so emitting it on a path the posts did not take is a
     harmless no-op. *)
  (match ins with
  | Call (_, "mpi.send", _) -> ()
  | Const _ | Cmp _ | Gep _ | Free _ | Return _ -> ()
  | _ ->
    if rs.pend_sends then begin
      ignore (B.call b ~ret:Ty.Unit "mpi.adj_waitall" []);
      rs.pend_sends <- false
    end);
  let rval v = resolve rs sc (KVal (Var.id v)) in
  let rshadow v = resolve rs sc (KShadow (Var.id v)) in
  let raux slot = resolve rs sc (KAux (occ, slot)) in
  let is_f v = Ty.equal (Var.ty v) Ty.Float in
  (* adjoint of [v] is provably zero: its reverse statement is a no-op *)
  let useful v = Plan.is_useful rs.fs.p v in
  match ins with
  (* a region with no reverse work is skipped wholesale — its control
     values were never planned (see Plan.collect's liveness gating) *)
  | (If _ | For _ | While _ | Fork _ | Workshare _)
    when not (Plan.rev_work rs.fs.p ins) -> ()
  | Const _ | Cmp _ | Gep _ | Free _ | Barrier | Return _ -> (
    match ins with Barrier -> B.barrier b | _ -> ())
  | Bin (v, op, x, y) when is_f v && useful v -> (
    (* primal operands resolve once, outside the statement's adjoint
       work: cache reads and derivative transcendentals are shared by
       every seed lane *)
    match op with
    | Add -> rev_stmt rs sc v [ spec x 0; spec y 0 ]
    | Sub -> rev_stmt rs sc v [ spec x 0; spec y 1 ]
    | Mul ->
      let ry = rval y in
      let rx = rval x in
      rev_stmt rs sc v [ spec x 2 ~c1:ry; spec y 2 ~c1:rx ]
    | Div ->
      let ry = rval y in
      let rx = rval x in
      let ryy = B.mul b ry ry in
      rev_stmt rs sc v [ spec x 3 ~c1:ry; spec y 5 ~c1:rx ~c2:ryy ]
    | Min ->
      let c = B.le b (rval x) (rval y) in
      rev_stmt rs sc v [ spec x 7 ~cond:c; spec y 8 ~cond:c ]
    | Max ->
      let c = B.ge b (rval x) (rval y) in
      rev_stmt rs sc v [ spec x 7 ~cond:c; spec y 8 ~cond:c ]
    | Pow ->
      let rx = rval x and ry = rval y in
      let r = B.pow b rx ry in
      let gx = B.mul b ry (B.pow b rx (B.sub b ry (kf st 1.0))) in
      let gy = B.mul b r (B.log_ b rx) in
      rev_stmt rs sc v [ spec x 2 ~c1:gx; spec y 2 ~c1:gy ]
    | Rem -> ())
  | Bin _ -> ()
  | Un (v, op, x) when is_f v && useful v -> (
    match op with
    | Neg -> rev_stmt rs sc v [ spec x 1 ]
    | Sqrt ->
      let rv = rval v in
      rev_stmt rs sc v [ spec x 6 ~c1:(kf st 0.5) ~c2:rv ]
    | Exp ->
      let rv = rval v in
      rev_stmt rs sc v [ spec x 2 ~c1:rv ]
    | Sin ->
      let cx = B.cos_ b (rval x) in
      rev_stmt rs sc v [ spec x 2 ~c1:cx ]
    | Cos ->
      let sx = B.sin_ b (rval x) in
      rev_stmt rs sc v [ spec x 4 ~c1:sx ]
    | Log ->
      let rx = rval x in
      rev_stmt rs sc v [ spec x 3 ~c1:rx ]
    | Abs ->
      let c = B.ge b (rval x) (kf st 0.0) in
      rev_stmt rs sc v [ spec x 9 ~cond:c ]
    | Floor | ToFloat -> ()
    | ToInt | Not -> ())
  | Un _ -> ()
  | Select (v, c, x, y) when is_f v && useful v ->
    let rc = rval c in
    rev_stmt rs sc v [ spec x 7 ~cond:rc; spec y 8 ~cond:rc ]
  | Select _ -> ()
  | Alloc (v, _, _, kind) -> (
    match kind with
    | Instr.Gc -> () (* the collector owns GC shadows *)
    | Instr.Stack | Instr.Heap -> B.free b (rshadow v))
  | Load (v, p, ix) when is_f v && useful v -> (
    (* a reduced site adds plainly into its group's accumulator *)
    match Hashtbl.find_opt rs.red.Race.sites occ with
    | Some (g : Race.group) -> (
      match Hashtbl.find_opt rs.accs g.gid with
      | Some a -> accum_load rs sc v ~atomic:false a.at ix
      | None -> unsupported "reverse: reduction site outside its scope")
    | None ->
      let sp = rshadow p in
      accum_load rs sc v ~atomic:(mem_atomic rs sc ~primal_ptr:p) sp ix)
  | Load _ -> ()
  | Store (p, ix, x) when is_f x ->
    let sp = rshadow p in
    let k = rs.fs.p.opts.seeds in
    if k = 1 then begin
      let mix = rval ix in
      let d = B.load b sp mix in
      B.store b sp mix (kf st 0.0);
      accum rs sc x d
    end
    else begin
      (* pull (and zero) the stored cell's lane group, fold it into x;
         the zeroing must happen even when x accumulates nowhere *)
      let mb = B.mul b (rval ix) (ki st k) in
      if accumulable rs x then begin
        let host, off, kind = lane_target rs sc x in
        kcall rs "adj.srev_k" [ file_of sc; sp; mb; host; off; kind; ki st k ]
      end
      else kcall rs "adj.mtake_k" [ sp; mb; file_of sc; ki st k ]
    end
  | Store _ -> ()
  | AtomicAdd (p, ix, x) ->
    (* all contributions share the final cell adjoint; nothing is zeroed *)
    let sp = rshadow p in
    let k = rs.fs.p.opts.seeds in
    if k = 1 then accum rs sc x (B.load b sp (rval ix))
    else if accumulable rs x then begin
      let mb = B.mul b (rval ix) (ki st k) in
      let host, off, kind = lane_target rs sc x in
      kcall rs "adj.arev_k" [ file_of sc; sp; mb; host; off; kind; ki st k ]
    end
  | Call (v, name, args) -> rev_call rs sc ~occ v name args
  | Spawn (v, _, args) ->
    (* reverse of spawn: wait for the adjoint task, then fold its scalar
       argument adjoints back in *)
    let h = rval v in
    let hrev = B.call b ~ret:Ty.Int "ad.map_get1" [ h ] in
    B.sync b hrev;
    let blk = B.call b ~ret:Ty.Int "ad.map_get2" [ h ] in
    let gname = match ins with Spawn (_, g, _) -> g | _ -> assert false in
    let _, cp = callee_info rs.fs.eng gname in
    let dscal =
      B.call b ~ret:(Ty.Ptr Ty.Float) "cache.get"
        [ blk; ki st (slot_scal cp.n_cached) ]
    in
    let scal_args = List.filter (fun a -> Ty.equal (Var.ty a) Ty.Float) args in
    List.iteri
      (fun k a -> accum rs sc a (B.load b dscal (ki st k)))
      scal_args;
    B.free b dscal;
    ignore (B.call b ~ret:Ty.Unit "cache.free" [ blk ])
  | Sync h ->
    (* reverse of sync: spawn the adjoint task (Fig 2 of the paper) *)
    let blk = raux 0 in
    let hp = rval h in
    (* We do not know statically which function the task ran; the blk
       handle is enough for rev_g, but we need its name. Task handles are
       paired with their spawn statically through SSA. *)
    let gname = task_callee rs h in
    let e, _ = callee_info rs.fs.eng gname in
    let hrev = B.spawn b e.rev_name [ blk ] in
    ignore (B.call b ~ret:Ty.Unit "ad.map_set" [ hp; hrev; blk ])
  | If (rs_vars, c, _, _) ->
    let then_nodes, else_nodes =
      match subs with [ t; e ] -> t, e | _ -> assert false
    in
    let rc = rval c in
    let branch nodes () =
      let sc' = child_scope b sc ~idxs:sc.ridxs ~retained:keep nodes in
      rev_emit rs sc' ~if_results:rs_vars nodes
    in
    B.ite b rc (branch then_nodes) (branch else_nodes)
  | For { iv; lo; hi; step; _ } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let rlo = rval lo and rhi = rval hi and rstep = rval step in
    let trip =
      B.max_ b (ki st 0)
        (B.div b
           (B.sub b (B.add b rhi rstep) (B.add b rlo (ki st 1)))
           rstep)
    in
    let pm, pt = List.nth sc.ridxs (List.length sc.ridxs - 1) in
    B.for_ b ~lo:(ki st 0) ~hi:trip ~step:(ki st 1) (fun j ->
        let iter = B.sub b (B.sub b trip (ki st 1)) j in
        let iv' = B.add b rlo (B.mul b iter rstep) in
        let inner = B.add b (B.mul b pm trip) iter in
        let tinner =
          if pm == pt then inner else B.add b (B.mul b pt trip) iter
        in
        let sc' =
          child_scope b sc ~idxs:(sc.ridxs @ [ inner, tinner ]) ~retained:keep
            body_nodes
        in
        Hashtbl.replace sc'.pmap (Var.id iv) iv';
        rev_body rs sc' occ body_nodes)
  | While _ ->
    let body_nodes = match subs with [ _; x ] -> x | _ -> assert false in
    let trip = raux 0 and start = raux 1 in
    B.for_ b ~lo:(ki st 0) ~hi:trip ~step:(ki st 1) (fun j ->
        let iter = B.sub b (B.sub b trip (ki st 1)) j in
        let inner = B.add b start iter in
        let sc' =
          child_scope b sc ~idxs:(sc.ridxs @ [ inner, inner ]) ~retained:keep
            body_nodes
        in
        rev_body rs sc' occ body_nodes)
  | Fork { tid; nth; body } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let nth_param =
      match body.params with [ _; q ] -> q | _ -> assert false
    in
    let rnth = rval nth in
    let pm, _ = List.nth sc.ridxs (List.length sc.ridxs - 1) in
    let seeds = rs.fs.p.opts.seeds in
    B.fork b ~nth:rnth (fun ~tid:tid' ~nth:nth' ->
        let member ?file dlocal =
          let inner = B.add b (B.mul b pm nth') tid' in
          let sc' =
            child_scope b sc ~idxs:(sc.ridxs @ [ inner, pm ]) ~fork:(Some occ)
              ~dlocal:(Some dlocal) ?file body_nodes
          in
          Hashtbl.replace sc'.pmap (Var.id tid) tid';
          Hashtbl.replace sc'.pmap (Var.id nth_param) nth';
          rev_body rs sc' occ body_nodes;
          combine_regs rs sc' occ;
          sc'
        in
        if seeds = 1 then begin
          (* densely numbered per-region locals, not the function's
             var_count *)
          let nslots = max 1 (fork_nlocals rs occ) in
          let dlocal = B.alloc b Ty.Float (ki st nslots) in
          ignore (member dlocal);
          B.free b dlocal
        end
        else begin
          (* members run concurrently: each needs its own lane file and
             plane, sized once the body is emitted *)
          let dlocal = B.fresh b (Ty.Ptr Ty.Float) "p" in
          let file = B.fresh b (Ty.Ptr Ty.Float) "p" in
          let sc' = ref None in
          let body =
            B.in_scope b (fun () -> sc' := Some (member ~file dlocal))
          in
          let groups = (Option.get !sc').lanes.top in
          alloc_lanes rs ~plane:dlocal ~file ~groups;
          List.iter (B.emit b) body;
          B.free b file;
          B.free b dlocal
        end)
  | Workshare { iv; lo; hi; schedule; _ } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let rlo = rval lo and rhi = rval hi in
    let len = B.max_ b (ki st 0) (B.sub b rhi rlo) in
    let _, pt = List.nth sc.ridxs (List.length sc.ridxs - 1) in
    B.workshare b ~schedule ~nowait:false ~lo:rlo ~hi:rhi (fun iv' ->
        let inner = B.add b (B.mul b pt len) (B.sub b iv' rlo) in
        let sc' =
          child_scope b sc ~idxs:(sc.ridxs @ [ inner, inner ]) body_nodes
        in
        Hashtbl.replace sc'.pmap (Var.id iv) iv';
        rev_body rs sc' occ body_nodes)
  | Yield vs -> (
    (* seed the yielded values with the If results' adjoints *)
    match if_results with
    | None -> ()
    | Some results ->
      List.iter2
        (fun r v ->
          if Ty.equal (Var.ty r) Ty.Float && Plan.is_useful rs.fs.p r then
            rev_stmt rs sc r [ spec v 0 ])
        results vs)

(* The reversed body of region [occ] in its scope [sc]: between the
   accumulators it opens and their combines. *)
and rev_body rs sc occ nodes =
  let opened = open_groups rs sc occ in
  rev_emit rs sc nodes;
  close_groups rs sc opened

and task_callee rs (h : Var.t) =
  let fi = rs.fs.p.fi in
  match Finfo.def_site fi h with
  | Finfo.DInstr (Spawn (_, g, _), _) -> g
  | Finfo.DInstr (Load (_, arr, _), _) -> (
    (* handle loaded from a handle array: every spawn stored into that
       array must target the same function *)
    match Finfo.pointer_base fi arr with
    | None ->
      unsupported "task handle loaded through an untracked pointer"
    | Some base ->
      let callees = ref [] in
      Instr.iter_instrs
        (fun i ->
          match i with
          | Instr.Store (p, _, x)
            when Finfo.pointer_base fi p = Some base -> (
            match Finfo.def_site fi x with
            | Finfo.DInstr (Instr.Spawn (_, g, _), _) ->
              if not (List.mem g !callees) then callees := g :: !callees
            | _ ->
              unsupported
                "non-spawn value stored into a task-handle array")
          | _ -> ())
        fi.Finfo.func.body;
      (match !callees with
      | [ g ] -> g
      | [] -> unsupported "no spawn found for the task-handle array"
      | _ ->
        unsupported
          "task-handle array mixes tasks of different functions"))
  | _ -> unsupported "sync of a non-spawned handle"

and rev_call rs sc ~occ v name args =
  let st = rs.fs in
  let b = st.b in
  let rval x = resolve rs sc (KVal (Var.id x)) in
  let rshadow x = resolve rs sc (KShadow (Var.id x)) in
  let raux slot = resolve rs sc (KAux (occ, slot)) in
  if String.contains name '.' then (
    match name, args with
    | "mpi.isend", _ ->
      ignore (B.call b ~ret:Ty.Unit "mpi.adj_isend_finish" [ raux 0 ])
    | "mpi.irecv", _ ->
      ignore (B.call b ~ret:Ty.Unit "mpi.adj_irecv_finish" [ raux 0 ])
    | "mpi.wait", _ -> ignore (B.call b ~ret:Ty.Unit "mpi.adj_wait" [ raux 0 ])
    | "mpi.send", [ p; n; dst; tag ] ->
      let coal = rs.fs.p.opts.coalesce_comm in
      if coal then rs.pend_sends <- true;
      ignore
        (B.call b ~ret:Ty.Unit
           (if coal then "mpi.adj_send_post" else "mpi.adj_send")
           [ rshadow p; rval n; rval dst; rval tag ])
    | "mpi.recv", [ p; n; src; tag ] ->
      ignore
        (B.call b ~ret:Ty.Unit
           (if rs.fs.p.opts.coalesce_comm then "mpi.adj_recv_post"
            else "mpi.adj_recv")
           [ rshadow p; rval n; rval src; rval tag ])
    | "mpi.allreduce_sum", [ s; r; n ] ->
      ignore
        (B.call b ~ret:Ty.Unit "mpi.adj_allreduce_sum"
           [ rshadow s; rshadow r; rval n ])
    | ("mpi.allreduce_min" | "mpi.allreduce_max"), [ s; r; n ] ->
      let snap_s = raux 0 and snap_r = raux 1 in
      ignore
        (B.call b ~ret:Ty.Unit "mpi.adj_allreduce_minmax"
           [ snap_s; snap_r; rshadow s; rshadow r; rval n ]);
      B.free b snap_s;
      B.free b snap_r
    | "mpi.bcast", [ p; n; root ] ->
      ignore
        (B.call b ~ret:Ty.Unit "mpi.adj_bcast" [ rshadow p; rval n; rval root ])
    | "mpi.barrier", _ -> ignore (B.call b ~ret:Ty.Unit "mpi.barrier" [])
    | ("mpi.rank" | "mpi.size" | "omp.max_threads" | "gc.collect"
      | "parad.checkpoint"), _ -> ()
    | "gc.preserve_begin", _ -> (
      match Hashtbl.find_opt rs.prestok occ with
      | Some tok -> ignore (B.call b ~ret:Ty.Unit "gc.preserve_end" [ tok ])
      | None -> ())
    | "gc.preserve_end", [ tok ] -> (
      (* re-preserve the begin's pointers (and shadows) across the
         reverse region (§VI-C2) *)
      match Finfo.def_site rs.fs.p.fi tok with
      | Finfo.DInstr (Call (_, "gc.preserve_begin", xs), bocc) ->
        let ptrs = List.filter (fun x -> Ty.is_ptr (Var.ty x)) xs in
        let ext = List.map rval ptrs @ List.map rshadow ptrs in
        let tok2 = B.call b ~ret:Ty.Int "gc.preserve_begin" ext in
        Hashtbl.replace rs.prestok bocc tok2
      | _ -> unsupported "gc.preserve_end of an unknown token")
    | n, _ when String.length n >= 6 && String.sub n 0 6 = "debug." -> ()
    | n, _ -> unsupported "reverse of intrinsic %S" n)
  else begin
    let e, cp = callee_info rs.fs.eng name in
    let blk = raux 0 in
    let rev_args =
      [ blk ]
      @
      if Ty.equal e.orig.ret_ty Ty.Float then [ read_adj rs sc v ] else []
    in
    ignore (B.call b ~ret:Ty.Unit e.rev_name rev_args);
    let scal_args = List.filter (fun a -> Ty.equal (Var.ty a) Ty.Float) args in
    if scal_args <> [] then begin
      let dscal =
        B.call b ~ret:(Ty.Ptr Ty.Float) "cache.get"
          [ blk; ki st (slot_scal cp.n_cached) ]
      in
      List.iteri
        (fun k a -> accum rs sc a (B.load b dscal (ki st k)))
        scal_args;
      B.free b dscal
    end
    else begin
      (* still free the scalar-adjoint buffer allocated by aug *)
      let dscal =
        B.call b ~ret:(Ty.Ptr Ty.Float) "cache.get"
          [ blk; ki st (slot_scal cp.n_cached) ]
      in
      B.free b dscal
    end;
    ignore (B.call b ~ret:Ty.Unit "cache.free" [ blk ])
  end

(* ---- function emission ---- *)

let dummy_var = Var.make ~id:(-1) ~ty:Ty.Unit ~name:"dummy"

let ret_var (f : Func.t) =
  match List.rev f.body with Instr.Return v :: _ -> v | _ -> None

let make_fstate eng p b ~race =
  {
    eng;
    p;
    b;
    frace = race;
    vmap = Array.make p.fi.Finfo.func.var_count None;
    shadow = Hashtbl.create 32;
    auxv = Hashtbl.create 32;
    cache_h = Array.make (max 1 p.n_cached) dummy_var;
    while_gcell = Hashtbl.create 4;
    pool = Hashtbl.create 64;
    ret_val = None;
    ret_orig = None;
  }

(* Create the cache handles and While counter cells in the preamble. *)
let emit_preamble st =
  let b = st.b in
  let tys = Plan.cache_tys st.p in
  for ord = 0 to st.p.n_cached - 1 do
    (* Float-typed slots use the unboxed float-array representation *)
    let ctor =
      match tys.(ord) with
      | Some Ty.Float -> "cache.newf"
      | _ -> "cache.new"
    in
    st.cache_h.(ord) <- B.call b ~ret:Ty.Int ctor [ ki st 16 ]
  done;
  List.iter
    (fun occ ->
      Hashtbl.replace st.while_gcell occ (B.alloc b Ty.Int (ki st 1)))
    st.p.while_occs

let free_caches st =
  let b = st.b in
  for ord = 0 to st.p.n_cached - 1 do
    ignore (B.call b ~ret:Ty.Unit "cache.free" [ st.cache_h.(ord) ])
  done;
  Hashtbl.iter (fun _ cell -> B.free b cell) st.while_gcell

let no_yield _ = unsupported "yield outside a region"

(* Combined-mode gradient of the entry function:
   d_f(args..., shadow-ptr-args..., d_ret?, d_args?) -> f's return.
   Shadow pointer arguments are accumulated into; when f has active scalar
   (float) arguments their adjoints are written to the d_args buffer in
   float-argument order; d_ret seeds the return adjoint when f returns a
   float.

   Batched seeds change the calling convention: with [opts.seeds = k > 1]
   every float shadow argument is a k-stride plane (cell i, lane l at
   [i*k + l]), [d_ret] becomes a k-cell float buffer (one seed per lane),
   and [d_args] holds k cells per scalar argument, param-major. *)
let emit_combined eng (f : Func.t) (p : Plan.t) dname =
  let race = Race.analyze p.fi f in
  let seeds = eng.opts.seeds in
  let nscal = List.length (scalar_params f) in
  let pparams = ptr_params f in
  let d_ret_ty = if seeds > 1 then Ty.Ptr Ty.Float else Ty.Float in
  let params_spec =
    List.map (fun v -> Var.name v, Var.ty v) f.params
    @ List.map (fun v -> "d_" ^ Var.name v, Var.ty v) pparams
    @ (if Ty.equal f.ret_ty Ty.Float then [ "d_ret", d_ret_ty ] else [])
    @ if nscal > 0 then [ "d_args", Ty.Ptr Ty.Float ] else []
  in
  let attrs =
    f.attrs
    @ List.filter_map
        (fun (v, a) -> if Ty.is_ptr (Var.ty v) then Some a else None)
        (List.combine f.params f.attrs)
    @ (if Ty.equal f.ret_ty Ty.Float then [ Func.default_attr ] else [])
    @ if nscal > 0 then [ Func.noalias ] else []
  in
  let b, newparams = B.func ~attrs eng.dst dname ~params:params_spec ~ret:f.ret_ty in
  let st = make_fstate eng p b ~race in
  (* bind params *)
  let nparams = List.length f.params in
  List.iteri
    (fun i v -> if i < nparams then fset st (List.nth f.params i) v)
    newparams;
  List.iteri
    (fun i v ->
      Hashtbl.replace st.shadow (Var.id (List.nth pparams i)) v)
    (List.filteri
       (fun i _ -> i >= nparams && i < nparams + List.length pparams)
       newparams);
  let rest =
    List.filteri (fun i _ -> i >= nparams + List.length pparams) newparams
  in
  let d_ret, d_args =
    match Ty.equal f.ret_ty Ty.Float, nscal > 0, rest with
    | true, true, [ a; b' ] -> Some a, Some b'
    | true, false, [ a ] -> Some a, None
    | false, true, [ b' ] -> None, Some b'
    | false, false, [] -> None, None
    | _ -> assert false
  in
  List.iter (fun pv -> mark_if_private st pv (fshadow st pv)) pparams;
  emit_preamble st;
  let idx0 = ki st 0 in
  let nodes = annotate f.body in
  (* Reverse-entry checkpoint (opt-in): immediately after the last
     top-level construct that itself checkpoints (the application's outer
     timestep loop) the rank state is quiescent — nonblocking requests
     waited, collectives closed, adjoint staging not yet begun — so a
     snapshot here lets a rank killed during the reverse sweep resume at
     reverse entry instead of replaying its whole forward sweep. The site
     must precede any later forward code: a restoring replay skips the
     loop's allocations, and structural buffer correspondence only holds
     while the replay has allocated nothing beyond the snapshot's
     preamble. Only emitted when the source itself checkpoints: otherwise
     there is no recovery protocol to join. *)
  let rec node_has_ckpt { ins; subs; _ } =
    (match ins with
    | Instr.Call (_, "parad.checkpoint", _) -> true
    | _ -> false)
    || List.exists (List.exists node_has_ckpt) subs
  in
  let last_ckpt =
    if eng.opts.Plan.ckpt_reverse then (
      let idx = ref (-1) in
      List.iteri (fun i n -> if node_has_ckpt n then idx := i) nodes;
      !idx)
    else -1
  in
  if last_ckpt < 0 then
    fwd_emit st ~idxs:[ idx0, idx0 ] ~on_yield:no_yield nodes
  else begin
    fwd_emit st ~idxs:[ idx0, idx0 ] ~on_yield:no_yield
      (List.filteri (fun i _ -> i <= last_ckpt) nodes);
    ignore (B.call b ~ret:Ty.Unit "parad.checkpoint_rev" []);
    fwd_emit st ~idxs:[ idx0, idx0 ] ~on_yield:no_yield
      (List.filteri (fun i _ -> i > last_ckpt) nodes)
  end;
  (* reverse sweep *)
  let var_count = f.var_count in
  (* at k > 1 the plane and the lane file are allocated once the sweep
     is emitted ([alloc_lanes]) *)
  let dreg =
    if seeds = 1 then B.alloc b Ty.Float (ki st var_count)
    else B.fresh b (Ty.Ptr Ty.Float) "p"
  in
  let file =
    if seeds > 1 then Some (B.fresh b (Ty.Ptr Ty.Float) "p") else None
  in
  let red = Race.reductions p race in
  let rs =
    {
      fs = st;
      race;
      red;
      accs = Hashtbl.create 8;
      dreg;
      fslots = fork_slot_tables st.p.fi red;
      planes = Hashtbl.create 8;
      prestok = Hashtbl.create 4;
      task_mode = false;
      pend_sends = false;
      in_remat = false;
    }
  in
  let sweep () =
    let root = root_scope b ~idx0 ?file ~params:f.params nodes in
    (match d_ret, st.ret_orig with
    | Some d, Some v when Ty.equal (Var.ty v) Ty.Float ->
      if seeds = 1 then accum rs root v d
      else if accumulable rs v then begin
        (* d_ret is a k-cell buffer: lane l seeds the return with d[l],
           added to v's lanes as an atomic add's reversal adds a cell *)
        let host, off, kind = lane_target rs root v in
        kcall rs "adj.arev_k"
          [ file_of root; d; ki st 0; host; off; kind; ki st seeds ]
      end
    | _ -> ());
    rev_emit rs root nodes;
    (match d_args with
    | Some da ->
      List.iteri
        (fun k sp ->
          let c = touch rs root sp in
          if seeds = 1 then B.store b da (ki st k) c.cv
          else
            (* param-major: param k's lane group lands at da[k*seeds ..] *)
            kcall rs "adj.store_k"
              [
                file_of root; lane_off rs c; da; ki st (k * seeds); ki st seeds;
              ])
        (scalar_params f)
    | None -> ());
    root
  in
  (match file with
  | None -> ignore (sweep ())
  | Some file ->
    let root = ref None in
    let body = B.in_scope b (fun () -> root := Some (sweep ())) in
    alloc_lanes rs ~plane:dreg ~file ~groups:(Option.get !root).lanes.top;
    List.iter (B.emit b) body;
    B.free b file);
  B.free b dreg;
  free_caches st;
  (match f.ret_ty, st.ret_val with
  | Ty.Unit, _ -> B.return b None
  | _, Some v -> B.return b (Some v)
  | _, None -> unsupported "function %s has no return value" f.name);
  ignore (B.finish b)

(* Split-mode emission: aug_g and rev_g (see the module comment). *)
let emit_split eng gname =
  let e, p = callee_info eng gname in
  if not e.emitted then begin
    e.emitted <- true;
    let f = e.orig in
    let race = Race.analyze p.fi f in
    let nscal = List.length (scalar_params f) in
    let pparams = ptr_params f in
    let nodes = annotate f.body in
    (* ---- aug_g ---- *)
    let params_spec =
      List.map (fun v -> Var.name v, Var.ty v) f.params
      @ List.map (fun v -> "d_" ^ Var.name v, Var.ty v) pparams
    in
    let attrs =
      f.attrs
      @ List.filter_map
          (fun (v, a) -> if Ty.is_ptr (Var.ty v) then Some a else None)
          (List.combine f.params f.attrs)
    in
    let b, newparams =
      B.func ~attrs eng.dst e.aug_name ~params:params_spec ~ret:Ty.Int
    in
    let st = make_fstate eng p b ~race in
    let nparams = List.length f.params in
    List.iteri
      (fun i v ->
        if i < nparams then fset st (List.nth f.params i) v
        else
          Hashtbl.replace st.shadow
            (Var.id (List.nth pparams (i - nparams)))
            v)
      newparams;
    List.iter (fun pv -> mark_if_private st pv (fshadow st pv)) pparams;
    emit_preamble st;
    let blkc =
      B.call b ~ret:Ty.Int "cache.new" [ ki st (p.n_cached + 2) ]
    in
    for ord = 0 to p.n_cached - 1 do
      ignore
        (B.call b ~ret:Ty.Unit "cache.set"
           [ blkc; ki st ord; st.cache_h.(ord) ])
    done;
    let dscal = B.alloc b Ty.Float (ki st (max 1 nscal)) in
    ignore
      (B.call b ~ret:Ty.Unit "cache.set"
         [ blkc; ki st (slot_scal p.n_cached); dscal ]);
    let idx0 = ki st 0 in
    (* cache parameter values and shadows (the callee's reverse half has
       no direct access to them) *)
    List.iter
      (fun v -> maybe_cache st ~idxs:[ idx0, idx0 ] (KVal (Var.id v)) (fget st v))
      f.params;
    List.iter
      (fun v ->
        maybe_cache st ~idxs:[ idx0, idx0 ] (KShadow (Var.id v)) (fshadow st v))
      pparams;
    fwd_emit st ~idxs:[ idx0, idx0 ] ~on_yield:no_yield nodes;
    (if not (Ty.equal f.ret_ty Ty.Unit) then
       match st.ret_val with
       | Some v ->
         ignore
           (B.call b ~ret:Ty.Unit "cache.set"
              [ blkc; ki st (slot_ret p.n_cached); v ])
       | None -> unsupported "function %s has no return value" f.name);
    B.return b (Some blkc);
    ignore (B.finish b);
    (* ---- rev_g ---- *)
    let rev_params =
      ("blk", Ty.Int)
      :: (if Ty.equal f.ret_ty Ty.Float then [ "d_ret", Ty.Float ] else [])
    in
    let b, rps = B.func eng.dst e.rev_name ~params:rev_params ~ret:Ty.Unit in
    let blk = List.hd rps in
    let d_ret = match rps with [ _; d ] -> Some d | _ -> None in
    let st = make_fstate eng p b ~race in
    for ord = 0 to p.n_cached - 1 do
      st.cache_h.(ord) <-
        B.call b ~ret:Ty.Int "cache.get" [ blk; ki st ord ]
    done;
    let dreg = B.alloc b Ty.Float (ki st f.var_count) in
    let red = Race.reductions p race in
    let rs =
      {
        fs = st;
        race;
        red;
        accs = Hashtbl.create 8;
        dreg;
        fslots = fork_slot_tables p.fi red;
        planes = Hashtbl.create 8;
        prestok = Hashtbl.create 4;
        task_mode = e.spawned;
        pend_sends = false;
        in_remat = false;
      }
    in
    let idx0 = ki st 0 in
    (* split mode is task-only, which batching rejects: no lane file *)
    let root = root_scope b ~idx0 ~params:f.params nodes in
    (match d_ret, ret_var f with
    | Some d, Some v when Ty.equal (Var.ty v) Ty.Float -> accum rs root v d
    | _ -> ());
    rev_emit rs root nodes;
    let dscal =
      B.call b ~ret:(Ty.Ptr Ty.Float) "cache.get"
        [ blk; ki st (slot_scal p.n_cached) ]
    in
    List.iteri
      (fun k sp ->
        B.store b dscal (ki st k) (touch rs root sp).cv)
      (scalar_params f);
    B.free b dreg;
    for ord = 0 to p.n_cached - 1 do
      ignore (B.call b ~ret:Ty.Unit "cache.free" [ st.cache_h.(ord) ])
    done;
    B.return b None;
    ignore (B.finish b)
  end

(** Why a batched plan ([opts.seeds > 1]) is refused for a program that
    spawns tasks. *)
let tasks_unbatchable =
  "batched seeds (k>1) cannot differentiate task parallelism"

(** [gradient ?opts prog fname] returns a program extended with
    [d_<fname>] (and any [aug_]/[rev_] split pairs for callees and tasks)
    plus the name of the gradient function. See {!emit_combined} for the
    gradient's calling convention. *)
let gradient ?(opts = Plan.default_options) (src : Prog.t) fname =
  let f = Prog.find_exn src fname in
  if opts.seeds < 1 then unsupported "seeds must be >= 1 (got %d)" opts.seeds;
  (* Batched lanes cover the shared-memory paradigms. Split-mode callees
     and task adjoints would need k-lane scalar-adjoint blocks, and the
     MPI adjoint runtime exchanges single-stride shadow planes — both are
     rejected up front rather than silently miscomputing. *)
  if opts.seeds > 1 then
    Instr.iter_instrs
      (fun i ->
        match i with
        | Instr.Spawn _ | Instr.Sync _ -> unsupported "%s" tasks_unbatchable
        | Instr.Call (_, n, _) when not (String.contains n '.') ->
          unsupported "batched seeds (k>1) cannot differentiate calls to %S" n
        | Instr.Call (_, n, _)
          when String.length n >= 4
               && String.sub n 0 4 = "mpi."
               && n <> "mpi.rank" && n <> "mpi.size" && n <> "mpi.barrier" ->
          unsupported "batched seeds (k>1) cannot differentiate %S" n
        | _ -> ())
      f.body;
  let dst = Prog.copy src in
  let eng = { src; dst; opts; callees = Hashtbl.create 8 } in
  let fi = Finfo.of_func f in
  let p = Plan.create ~fi ~split:false ~opts in
  Plan.collect p ~register_callee:(fun ~spawned h ->
      ignore (ensure_planned eng ~spawned h));
  let dname = "d_" ^ fname in
  emit_combined eng f p dname;
  let rec drain () =
    let todo =
      Hashtbl.fold
        (fun name e acc -> if e.emitted then acc else name :: acc)
        eng.callees []
    in
    match todo with
    | [] -> ()
    | l ->
      List.iter (emit_split eng) (List.sort compare l);
      drain ()
  in
  drain ();
  Verifier.check_prog dst;
  dst, dname
