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

(* A non-atomic adjoint-register cell ([dreg] or [dlocal] slot) the
   current reverse scope has touched: [cv] is its value, not yet stored
   back (see [accum]). *)
type cell = { host : Var.t; ix : Var.t; mutable cv : Var.t }

type rscope = {
  rparent : rscope option;
  memo : (Plan.key, Var.t) Hashtbl.t;
  ridxs : (Var.t * Var.t) list;
      (* per-depth reverse (member, team) region indices, outermost
         first — same linearization as the forward sweep's [idxs] *)
  pmap : (int, Var.t) Hashtbl.t;  (* orig region-param id -> reverse var *)
  rfork : int option;  (* current fork occurrence in the reverse sweep *)
  dlocal : Var.t option;  (* per-thread adjoint registers inside a fork *)
  sbuf : Var.t option;
      (* per-thread k-cell scratch holding the current statement's taken
         adjoint lane group (the batched analog of the scalar [dv] SSA
         value); [None] when [opts.seeds = 1] *)
  pend : (int * int, cell) Hashtbl.t;  (* (host id, slot) -> touched cell *)
  mutable touched : cell list;  (* the same cells, latest first touch first *)
}

type rstate = {
  fs : fstate;  (* forward tables, for ADirect resolution *)
  race : Race.t;
  dreg : Var.t;  (* shared adjoint registers, indexed by orig var id *)
  fslots : (int, (int, int) Hashtbl.t * int ref) Hashtbl.t;
      (* fork occurrence -> (var id -> dense slot, count): per-thread
         adjoint registers are numbered densely per parallel region, so
         each member's [dlocal] is sized by that region's locals instead
         of the whole function's [var_count] — at [seeds = k] the plane
         is k-stride and the allocation (zeroed per member, per region)
         would otherwise dominate the batched reverse sweep *)
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
      (* inside an ARecomp recompute chain: [parad.remat_begin]/[_end]
         markers are emitted only at the outermost chain *)
}

let root_scope ~idx0 ~sbuf =
  {
    rparent = None;
    memo = Hashtbl.create 32;
    ridxs = [ idx0, idx0 ];
    pmap = Hashtbl.create 8;
    rfork = None;
    dlocal = None;
    sbuf;
    pend = Hashtbl.create 16;
    touched = [];
  }

let child_scope sc ~idxs ?(fork = sc.rfork) ?(dlocal = sc.dlocal)
    ?(sbuf = sc.sbuf) () =
  {
    rparent = Some sc;
    memo = Hashtbl.create 16;
    ridxs = idxs;
    pmap = Hashtbl.create 8;
    rfork = fork;
    dlocal;
    sbuf;
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
           cache-hot; see Cost_model.transcendental_remat). Chains are
           straight-line — no blocking op can interleave another strand's
           work between the markers. *)
        if rs.in_remat then recompute rs sc k
        else begin
          rs.in_remat <- true;
          ignore (B.call b ~ret:Ty.Unit "parad.remat_begin" []);
          let v = recompute rs sc k in
          ignore (B.call b ~ret:Ty.Unit "parad.remat_end" []);
          rs.in_remat <- false;
          v
        end
    in
    Hashtbl.replace sc.memo k v;
    v

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

   With [opts.seeds = k > 1] every adjoint slot — the register files
   ([dreg]/[dlocal]) and float shadow memory — is a contiguous k-stride
   plane (cell [i], lane [l] at [i*k + l]), and each reverse statement
   becomes one or two [adj.*_k] runtime calls that loop natively over
   the lane group ({!Interp.intrinsic}). Primal resolution ([resolve]:
   cache traffic, transcendentals, partial computation) stays outside
   those calls, so one tape and one primal stream amortize across all k
   seeds — that sharing, plus the per-lane work costing a float op
   instead of an interpreter dispatch, is the whole point of the batch.
   At k = 1 emission keeps the classic scalar layout, with the
   adjoints of one block held as SSA values ([accum] below): the
   intrinsic per-lane arithmetic mirrors it exactly (same ops, same
   order), which keeps every batched lane bit-identical to its
   standalone run. The lane calls take their planes as arguments, so
   at k > 1 every register access stays in memory. The calls' offsets,
   modes and flags come from the constant pool like any other
   constant, so a plane offset or a mode is one [Const] per function. *)

let fork_slot_tables (fi : Finfo.t) =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun id fo ->
      match fo with
      | None -> ()
      | Some occ ->
        let map, n =
          match Hashtbl.find_opt tbl occ with
          | Some x -> x
          | None ->
            let x = Hashtbl.create 32, ref 0 in
            Hashtbl.add tbl occ x;
            x
        in
        Hashtbl.replace map id !n;
        incr n)
    fi.Finfo.fork_occ;
  tbl

let fork_nlocals rs occ =
  match Hashtbl.find_opt rs.fslots occ with Some (_, n) -> !n | None -> 0

(* Which adjoint-register buffer hosts the adjoint of [v] at the current
   point, and at which slot. Captured-by-value outer registers inside a
   parallel region go to the shared buffer (atomically) at their var id;
   locals go to the per-thread buffer at their dense per-region slot. *)
let adj_host rs sc (v : Var.t) : Var.t * bool (* atomic *) * int =
  let fi = rs.fs.p.fi in
  match Finfo.fork_of fi v, sc.rfork with
  | None, None -> rs.dreg, false, Var.id v
  | None, Some _ -> rs.dreg, true, Var.id v
  | Some f, Some f' when f = f' -> (
    match sc.dlocal with
    | Some d -> (
      match Hashtbl.find_opt rs.fslots f with
      | Some (map, _) -> d, false, Hashtbl.find map (Var.id v)
      | None -> unsupported "reverse: missing per-thread adjoint slots")
    | None -> unsupported "reverse: missing per-thread adjoint registers")
  | Some _, _ ->
    unsupported "reverse: adjoint of %a escapes its parallel region" Var.pp v

(* [v] owns an adjoint register: non-constant float. *)
let accumulable rs (v : Var.t) =
  let is_const =
    match Finfo.def_site rs.fs.p.fi v with
    | Finfo.DInstr (Const _, _) -> true
    | _ -> false
    | exception _ -> false
  in
  Ty.equal (Var.ty v) Ty.Float && not is_const

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
   fork) go straight to memory. *)
let touch rs sc host slot =
  match Hashtbl.find_opt sc.pend (Var.id host, slot) with
  | Some c -> c
  | None ->
    let st = rs.fs in
    let ix = ki st slot in
    let c = { host; ix; cv = B.load st.b host ix } in
    Hashtbl.add sc.pend (Var.id host, slot) c;
    sc.touched <- c :: sc.touched;
    c

let flush rs sc =
  List.iter (fun c -> B.store rs.fs.b c.host c.ix c.cv) (List.rev sc.touched);
  Hashtbl.reset sc.pend;
  sc.touched <- []

let accum rs sc (v : Var.t) (dv : Var.t) =
  if accumulable rs v then begin
    let st = rs.fs in
    let host, atomic, slot = adj_host rs sc v in
    if atomic then B.atomic_add st.b host (ki st slot) dv
    else begin
      let c = touch rs sc host slot in
      c.cv <- B.add st.b c.cv dv
    end
  end

let read_adj rs sc (v : Var.t) =
  let host, _, slot = adj_host rs sc v in
  let c = touch rs sc host slot in
  let d = c.cv in
  c.cv <- kf rs.fs 0.0;
  d

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
    else (
      match Finfo.pointer_base fi primal_ptr with
      | None -> true
      | Some base -> (
        match Finfo.def_site fi base with
        | Finfo.DInstr (Alloc _, _) when Finfo.fork_of fi base = Some focc ->
          (* allocated inside this parallel region: thread-local *)
          false
        | _ -> not (Race.is_private rs.race base)))

let accum_mem rs sc ~(primal_ptr : Var.t) (sp : Var.t) (ix : Var.t) (dv : Var.t)
    =
  let b = rs.fs.b in
  if mem_atomic rs sc ~primal_ptr then B.atomic_add b sp ix dv
  else begin
    let cur = B.load b sp ix in
    B.store b sp ix (B.add b cur dv)
  end

(* ---- statement-level reverse emission ----

   A scalar reverse statement takes the adjoint of its result [v] and
   folds a per-operand function of it into each operand's slot. The
   per-operand formulas are [aspec]s whose [amode] numbers the runtime's
   [adj.acc_k] dispatch table; [rev_stmt] emits either classic scalar IR
   (seeds = 1, [scalar_formula] below) or the k-wide intrinsic calls —
   both compute the same float ops in the same order. *)

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

let kcall rs name args = ignore (B.call rs.fs.b ~ret:Ty.Unit name args)

let sbuf_of sc =
  match sc.sbuf with
  | Some s -> s
  | None -> unsupported "reverse: missing batched adjoint scratch"

(* scratch <- v's lane group, zeroing it (the k-wide [read_adj]) *)
let emit_take_k rs sc (v : Var.t) =
  let st = rs.fs in
  let k = st.p.opts.seeds in
  let host, _, slot = adj_host rs sc v in
  kcall rs "adj.take_k" [ sbuf_of sc; host; ki st (slot * k); ki st k ]

(* The 7-var argument group describing one accumulation target: host
   plane, lane-group offset, dispatch mode, coefficients, atomicity. *)
let acc_args rs sc (s : aspec) =
  let st = rs.fs in
  let k = st.p.opts.seeds in
  let host, atomic, slot = adj_host rs sc s.at in
  [
    host;
    ki st (slot * k);
    ki st s.amode;
    (match s.ac1 with Some c -> c | None -> kf st 0.0);
    (match s.ac2 with Some c -> c | None -> kf st 0.0);
    (match s.acond with Some c -> c | None -> kb st false);
    ki st (if atomic then 1 else 0);
  ]

(* target's lane group += formula(lane group of [from], default scratch) *)
let emit_acc_k ?from rs sc (s : aspec) =
  if accumulable rs s.at then begin
    let st = rs.fs in
    let k = st.p.opts.seeds in
    match acc_args rs sc s with
    | host :: off :: rest ->
      kcall rs "adj.acc_k"
        ((host :: off
          :: (match from with Some d -> d | None -> sbuf_of sc)
          :: rest)
        @ [ ki st k ])
    | _ -> assert false
  end

let rev_stmt rs sc (v : Var.t) (specs : aspec list) =
  if rs.fs.p.opts.seeds = 1 then begin
    let dv = read_adj rs sc v in
    List.iter (fun s -> accum rs sc s.at (scalar_formula rs.fs s dv)) specs
  end
  else begin
    let st = rs.fs in
    let k = st.p.opts.seeds in
    let host, _, slot = adj_host rs sc v in
    let take = [ sbuf_of sc; host; ki st (slot * k) ] in
    (* one fused dispatch per statement: take + up to two accumulates
       (hot path of the batched sweep; see the engine's native
       closures) *)
    match List.filter (fun s -> accumulable rs s.at) specs with
    | [] -> emit_take_k rs sc v
    | [ s1 ] ->
      kcall rs "adj.rev1_k" (take @ acc_args rs sc s1 @ [ ki st k ])
    | [ s1; s2 ] ->
      kcall rs "adj.rev2_k"
        (take @ acc_args rs sc s1 @ acc_args rs sc s2 @ [ ki st k ])
    | _ ->
      emit_take_k rs sc v;
      List.iter (fun s -> emit_acc_k rs sc s) specs
  end

let rec rev_emit rs sc ?if_results (nodes : anode list) =
  List.iter (rev_node rs sc ?if_results) (List.rev nodes);
  (* the root scope's adjoints are read from its pending cells by the
     [d_args]/[dscal] packing, and then the registers are freed *)
  if Option.is_some sc.rparent then flush rs sc;
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
  (match ins with
  | (If _ | For _ | While _ | Fork _ | Workshare _) when Plan.rev_work st.p ins
    -> flush rs sc
  | Barrier -> flush rs sc
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
  | Load (v, p, ix) when is_f v && useful v ->
    let sp = rshadow p in
    let k = rs.fs.p.opts.seeds in
    if k = 1 then begin
      let dv = read_adj rs sc v in
      accum_mem rs sc ~primal_ptr:p sp (rval ix) dv
    end
    else begin
      (* shadow[ix*k ..] += v's lane group, one fused dispatch *)
      let host, _, slot = adj_host rs sc v in
      let mb = B.mul b (rval ix) (ki st k) in
      let atomic = mem_atomic rs sc ~primal_ptr:p in
      kcall rs "adj.mrev_k"
        [
          sbuf_of sc;
          host;
          ki st (slot * k);
          sp;
          mb;
          ki st (if atomic then 1 else 0);
          ki st k;
        ]
    end
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
        let host, atomic, slot = adj_host rs sc x in
        kcall rs "adj.srev_k"
          [
            sbuf_of sc;
            sp;
            mb;
            host;
            ki st (slot * k);
            ki st (if atomic then 1 else 0);
            ki st k;
          ]
      end
      else kcall rs "adj.mtake_k" [ sp; mb; sbuf_of sc; ki st k ]
    end
  | Store _ -> ()
  | AtomicAdd (p, ix, x) ->
    (* all contributions share the final cell adjoint; nothing is zeroed *)
    let sp = rshadow p in
    let k = rs.fs.p.opts.seeds in
    if k = 1 then accum rs sc x (B.load b sp (rval ix))
    else if accumulable rs x then begin
      let mb = B.mul b (rval ix) (ki st k) in
      let host, atomic, slot = adj_host rs sc x in
      kcall rs "adj.arev_k"
        [
          sbuf_of sc;
          sp;
          mb;
          host;
          ki st (slot * k);
          ki st (if atomic then 1 else 0);
          ki st k;
        ]
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
      let sc' = child_scope sc ~idxs:sc.ridxs () in
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
        let sc' = child_scope sc ~idxs:(sc.ridxs @ [ inner, tinner ]) () in
        Hashtbl.replace sc'.pmap (Var.id iv) iv';
        rev_emit rs sc' body_nodes)
  | While _ ->
    let body_nodes = match subs with [ _; x ] -> x | _ -> assert false in
    let trip = raux 0 and start = raux 1 in
    B.for_ b ~lo:(ki st 0) ~hi:trip ~step:(ki st 1) (fun j ->
        let iter = B.sub b (B.sub b trip (ki st 1)) j in
        let inner = B.add b start iter in
        let sc' = child_scope sc ~idxs:(sc.ridxs @ [ inner, inner ]) () in
        rev_emit rs sc' body_nodes)
  | Fork { tid; nth; body } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let nth_param =
      match body.params with [ _; q ] -> q | _ -> assert false
    in
    let rnth = rval nth in
    let pm, _ = List.nth sc.ridxs (List.length sc.ridxs - 1) in
    let seeds = rs.fs.p.opts.seeds in
    (* densely numbered per-region locals, not the function's var_count *)
    let nslots = max 1 (fork_nlocals rs occ) * seeds in
    B.fork b ~nth:rnth (fun ~tid:tid' ~nth:nth' ->
        let dlocal = B.alloc b Ty.Float (ki st nslots) in
        (* members run concurrently: each needs its own lane scratch *)
        let sbuf =
          if seeds > 1 then Some (B.alloc b Ty.Float (ki st seeds))
          else None
        in
        let inner = B.add b (B.mul b pm nth') tid' in
        let sc' =
          child_scope sc ~idxs:(sc.ridxs @ [ inner, pm ]) ~fork:(Some occ)
            ~dlocal:(Some dlocal) ~sbuf ()
        in
        Hashtbl.replace sc'.pmap (Var.id tid) tid';
        Hashtbl.replace sc'.pmap (Var.id nth_param) nth';
        rev_emit rs sc' body_nodes;
        (match sbuf with Some s -> B.free b s | None -> ());
        B.free b dlocal)
  | Workshare { iv; lo; hi; schedule; _ } ->
    let body_nodes = match subs with [ x ] -> x | _ -> assert false in
    let rlo = rval lo and rhi = rval hi in
    let len = B.max_ b (ki st 0) (B.sub b rhi rlo) in
    let _, pt = List.nth sc.ridxs (List.length sc.ridxs - 1) in
    B.workshare b ~schedule ~nowait:false ~lo:rlo ~hi:rhi (fun iv' ->
        let inner = B.add b (B.mul b pt len) (B.sub b iv' rlo) in
        let sc' = child_scope sc ~idxs:(sc.ridxs @ [ inner, inner ]) () in
        Hashtbl.replace sc'.pmap (Var.id iv) iv';
        rev_emit rs sc' body_nodes)
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
  let dreg = B.alloc b Ty.Float (ki st (var_count * seeds)) in
  let sbuf =
    if seeds > 1 then Some (B.alloc b Ty.Float (ki st seeds)) else None
  in
  let rs =
    {
      fs = st;
      race;
      dreg;
      fslots = fork_slot_tables st.p.fi;
      prestok = Hashtbl.create 4;
      task_mode = false;
      pend_sends = false;
      in_remat = false;
    }
  in
  let root = root_scope ~idx0 ~sbuf in
  (match d_ret, st.ret_orig with
  | Some d, Some v when Ty.equal (Var.ty v) Ty.Float ->
    if seeds = 1 then accum rs root v d
    else
      (* d_ret is a k-cell buffer: lane l seeds the return with d[l] *)
      emit_acc_k ~from:d rs root (spec v 0)
  | _ -> ());
  rev_emit rs root nodes;
  (match d_args with
  | Some da ->
    List.iteri
      (fun k sp ->
        if seeds = 1 then
          B.store b da (ki st k) (touch rs root dreg (Var.id sp)).cv
        else
          (* param-major: param k's lane group lands at da[k*seeds ..] *)
          kcall rs "adj.pack_k"
            [
              da;
              ki st (k * seeds);
              dreg;
              ki st (Var.id sp * seeds);
              ki st seeds;
            ])
      (scalar_params f)
  | None -> ());
  (match sbuf with Some s -> B.free b s | None -> ());
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
    let rs =
      {
        fs = st;
        race;
        dreg;
        fslots = fork_slot_tables p.fi;
        prestok = Hashtbl.create 4;
        task_mode = e.spawned;
        pend_sends = false;
        in_remat = false;
      }
    in
    let idx0 = ki st 0 in
    (* split mode is task-only, which batching rejects: no lane scratch *)
    let root = root_scope ~idx0 ~sbuf:None in
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
        B.store b dscal (ki st k) (touch rs root dreg (Var.id sp)).cv)
      (scalar_params f);
    B.free b dreg;
    for ord = 0 to p.n_cached - 1 do
      ignore (B.call b ~ret:Ty.Unit "cache.free" [ st.cache_h.(ord) ])
    done;
    B.return b None;
    ignore (B.finish b)
  end

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
        | Instr.Spawn _ | Instr.Sync _ ->
          unsupported "batched seeds (k>1) cannot differentiate task parallelism"
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
