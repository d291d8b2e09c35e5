(** The IR interpreter.

    Executes a {!Parad_ir.Prog} program in virtual time on {!Sim} strands:
    sequential instructions charge costs; [Fork]/[Workshare]/[Barrier]/
    [Spawn]/[Sync] map onto the scheduler; intrinsic calls implement the
    message-passing runtime, the GC model, and the AD cache runtime.

    The interpreter also exposes an instrumentation interface
    ({!type:instrument}) used by the operator-overloading tape baseline:
    when installed, every float operation reports its operand slots and
    partials in CoDiPack's statement-level-tape style, and memory cells
    carry slots in side arrays. *)

open Parad_ir
open Value

exception Interp_error = Value.Runtime_error

type instrument = {
  scratch : float array;
      (** the record protocol's five cells: a taped statement's operands
          and result go in cells 2-4, {!partials} writes its two partials
          to cells 0-1, and [record] reads them from there *)
  record : int -> int -> int;
      (** [record s1 s2] writes the row of one statement of at most two
          operands, at least one of them active (a one-operand statement
          passes slot [0] second), with the partials in [scratch.(0)] and
          [scratch.(1)]; returns the fresh lhs slot. It only writes the
          row: the caller skips all-passive statements and charges and
          counts each row ({!tape_row}) *)
  buf_slots : Value.buffer -> int array;  (** side slot array of a buffer *)
  send_hook : peer:int -> tag:int -> slots:int array -> unit;
  recv_hook : peer:int -> tag:int -> count:int -> int array;
  allreduce_hook :
    kind:[ `Sum | `Min | `Max ] ->
    ins:float array * int array ->
    outs:float array ->
    int array;
  bcast_hook : root:int -> count:int -> slots:int array -> int array;
}

type config = {
  cost : Cost_model.t;
  nthreads : int;  (** width of [Fork] regions with width 0 (the default) *)
  gc_aggressive : bool;
      (** [gc.collect] really frees unpreserved unreachable GC buffers *)
  coalesce : bool;
      (** adjoint-communication coalescing: stage outgoing adjoint sends
          and batch them into packed per-destination messages (ISSUE 5);
          off = one latency-charged message per forward exchange *)
}

let default_config =
  {
    cost = Cost_model.default;
    nthreads = 1;
    gc_aggressive = false;
    coalesce = true;
  }

type ctx = {
  prog : Prog.t;
  cfg : config;
  mem : Memory.t;
  rank : int;
  nranks : int;
  mpi : Mpi_state.t option;
  cache : Cache_rt.t;
  instrument : instrument option;
  tasks : (int, Sim.task * Value.t ref) Hashtbl.t;
  mutable next_task : int;
  admap : (int, Value.t * Value.t) Hashtbl.t;
      (** AD shadow map keyed by primal task handle: (reverse handle, aux) *)
  preserves : (int, Value.buffer list) Hashtbl.t;
  mutable next_preserve : int;
  mutable executed : int;
  ckpt : Checkpoint.session option;
      (** checkpoint/restart session; [parad.checkpoint] is a no-op
          without one *)
  san : Sanitizer.t option;
      (** ParSan: when set, race/memory/gradient-integrity checking is
          active (shared by all ranks of a run) *)
  faults : Faults.state option;
      (** fault-injection state for non-MPI runs (SPMD runs resolve to
          the communicator's shared state instead); drives silent
          bit-flip injection into sealed cache memory *)
  mutable root_args : Value.t list;
      (** the entry function's arguments — the roots of a checkpoint's
          buffer reachability walk *)
  mutable remat_depth : int;
      (** nesting depth of [parad.remat_begin]/[parad.remat_end] regions:
          transcendentals re-evaluated inside a rematerialization chain are
          charged at the cheaper [transcendental_remat] rate *)
}

let make_ctx ?(cfg = default_config) ?instrument ?mpi ?faults ?(rank = 0)
    ?(nranks = 1) ?ckpt ?san ~prog () =
  (* SPMD runs share one fault state through the communicator; non-MPI
     runs carry their own. Either way, a plan with bit flips arms ABFT
     sealing on this rank's caches so every flip is detectable. *)
  let faults =
    match mpi with Some m -> m.Mpi_state.faults | None -> faults
  in
  let cache = Cache_rt.create () in
  (match faults with
  | Some fs when fs.Faults.plan.Faults.flips <> [] ->
    cache.Cache_rt.protect <- true
  | _ -> ());
  {
    prog;
    cfg;
    mem = Memory.create ~rank;
    rank;
    nranks;
    mpi;
    cache;
    instrument;
    tasks = Hashtbl.create 16;
    next_task = 0;
    admap = Hashtbl.create 16;
    preserves = Hashtbl.create 16;
    next_preserve = 0;
    executed = 0;
    ckpt;
    san;
    faults;
    root_args = [];
    remat_depth = 0;
  }

type frame = { vals : Value.t array; slots : int array option }

let new_frame ctx n =
  {
    vals = Array.make n VUnit;
    slots =
      (match ctx.instrument with
      | Some _ -> Some (Array.make n 0)
      | None -> None);
  }

let get fr v = fr.vals.(Var.id v)
let set fr v x = fr.vals.(Var.id v) <- x

let get_slot fr v =
  match fr.slots with Some s -> s.(Var.id v) | None -> 0

let set_slot fr v s =
  match fr.slots with Some a -> a.(Var.id v) <- s | None -> ()

(* Execution context threaded through a region: the call stack (for GC
   roots) and the enclosing parallel team, if any. *)
type ectx = {
  stack : frame list;  (** current frame first *)
  team : (int * int) option;  (** (tid, width) of the enclosing fork *)
  stack_allocs : Value.buffer list ref;  (** per-call stack allocations *)
  fname : string;  (** enclosing function, for sanitizer/memory provenance *)
  san_team : (int * int ref) option;
      (** RaceSan window: (dynamic region id, this thread's barrier epoch).
          Present only inside a fork of width > 1 with RaceSan active. *)
}

type outcome = ONext | OReturn of Value.t * int | OYield of (Value.t * int) list

let mpi_state ctx =
  match ctx.mpi with
  | Some m -> m
  | None -> error "MPI intrinsic outside an SPMD execution"

(* Land any due bit flip into this rank's sealed cache memory. Polled
   after cache reads and at checkpoint boundaries (right after
   resealing). The event stays pending until sealed memory exists to be
   struck — consuming it against an empty address space would make the
   trial a trivial no-op — so a due flip lands at the first poll that
   finds covered cells. One that never finds any (e.g. scheduled past
   the run's end) is provably masked: no protected value existed for it
   to corrupt. *)
let apply_flips ctx =
  match ctx.faults with
  | Some fs
    when fs.Faults.flips_left <> [] && Cache_rt.has_sealed ctx.cache -> (
    match Faults.flip_gate fs ~rank:ctx.rank ~now:(Sim.now ()) with
    | Some (cell, bit) -> (
      match Cache_rt.flip ctx.cache ~cell ~bit with
      | Some _ ->
        let st = Sim.stats () in
        st.sdc_injected <- st.sdc_injected + 1
      | None -> ())
    | None -> ())
  | _ -> ()

(* Raise the structured corruption notice for a failed region digest. *)
let corrupt_region ctx ~cache_id =
  let st = Sim.stats () in
  st.sdc_detected <- st.sdc_detected + 1;
  raise
    (Checkpoint.Corrupt_region
       { cr_rank = ctx.rank; cr_cache = cache_id; cr_at = Sim.now () })

(** Verify every sealed cache of [ctx] against its digest, charging the
    scan; raises {!Checkpoint.Corrupt_region} on the first mismatch.
    Called at checkpoint boundaries and at the end of a protected run. *)
let verify_regions ctx =
  if ctx.cache.Cache_rt.protect then begin
    let scanned, bad = Cache_rt.verify ctx.cache in
    Sim.charge (ctx.cfg.cost.mem *. float_of_int scanned);
    match bad with
    | Some cid -> corrupt_region ctx ~cache_id:cid
    | None -> ()
  end

let charge = Sim.charge

let charge_mem ctx (buf : Value.buffer) n =
  let c = ctx.cfg.cost in
  let mult =
    if buf.socket <> Sim.socket () then c.numa_remote_mult else 1.0
  in
  charge (c.mem *. mult *. float_of_int n)

(* The charge of a float [Bin] or [Un]: the transcendental unit, cheaper
   inside a rematerialization chain, or one arithmetic op. *)
let charge_op ctx (i : Instr.t) =
  let c = ctx.cfg.cost in
  charge
    (if not (Instr.transcendental i) then c.arith
     else if ctx.remat_depth > 0 then c.transcendental_remat
     else c.transcendental)

let check_rank ctx (buf : Value.buffer) =
  if buf.rank <> ctx.rank then
    error "cross-rank memory access: buffer of rank %d touched by rank %d"
      buf.rank ctx.rank

(* Raw float cells of a k-lane group, bounds-checked once per group
   instead of once per lane. The lane call loops over these natively —
   that loop is the whole point of batching. *)
let fplane ~who (p : Value.ptr) ~base ~n =
  (* One combined liveness+bounds test on the hot path; the failure
     branch re-runs {!Memory.check_access} on each end of the group so
     the raised message is exactly the one the unfused per-cell checks
     would have produced. *)
  match p.buf.data with
  | FCells a ->
    let i = p.off + base in
    if p.buf.freed || i < 0 || i + n - 1 >= Array.length a then begin
      ignore (Memory.check_access ~who p base);
      ignore (Memory.check_access ~who p (base + n - 1))
    end;
    a
  | VCells _ ->
    ignore (Memory.check_access ~who p base);
    error "adj intrinsic on a boxed buffer (alloc at %s)" p.buf.asite

(* Ops per lane of each accumulation mode's formula, without the
   accumulating add: what the unrolled scalar emission executes, a select
   included ([adj_mode_ops], the virtual-time charge) and excluded
   ([adj_mode_flops], the float ops it counts in {!Stats.t}). *)
let adj_mode_ops = function
  | 0 -> 0
  | 1 | 2 | 3 | 7 | 8 -> 1
  | 4 | 6 | 9 -> 2
  | 5 -> 3
  | _ -> 0

let adj_mode_flops = function
  | 0 | 7 | 8 -> 0
  | 1 | 2 | 3 | 9 -> 1
  | 4 | 6 -> 2
  | 5 -> 3
  | _ -> 0

(** How an accumulation group of a lane call takes its contribution, the
    group's kind operand ([kind_code]): [Add]ed into its lanes, added
    atomically per lane, [Write]n into lanes the reverse pass knows are
    +0.0 — a register's first contribution, which the scalar emission
    stores without an add once [fold] drops [0.0 + x] — or a [Copy] that
    overwrites them, in mode 0 only: a register's lane group moved
    between its plane and the lane file. The lane loop of a write is the
    add's: adding into +0.0 lanes is the write, and it turns a -0.0
    contribution into +0.0 as the add does. A write, an atomic add and a
    copy are charged and counted as their formula alone (an atomic add
    also pays [atomic] per lane, as a scalar [AtomicAdd] does), and a
    [Write] into a group holding a lane that is not +0.0 raises. *)
type acc_kind = Add | Atomic | Write | Copy

let kind_code = function Add -> 0 | Atomic -> 1 | Write -> 2 | Copy -> 3

let acc_kind_of_code = function
  | 0 -> Some Add | 1 -> Some Atomic | 2 -> Some Write | 3 -> Some Copy | _ -> None

(* Ops and flops per lane of a group of [mode] and [kind]: the formula's,
   plus the accumulating add of an [Add]; an atomic add is counted as an
   atomic instead. *)
let group_ops ~mode kind =
  adj_mode_ops mode + match kind with Add -> 1 | Atomic | Write | Copy -> 0

let group_flops ~mode kind =
  adj_mode_flops mode + match kind with Add -> 1 | Atomic | Write | Copy -> 0

(* ha[ho + l] <- ha[ho + l] + sa[so + l] for l < k, and the subtracting
   twin *)
let lanes_add (ha : float array) ho (sa : float array) so k =
  for l = 0 to k - 1 do
    Array.unsafe_set ha (ho + l)
      (Array.unsafe_get ha (ho + l) +. Array.unsafe_get sa (so + l))
  done

let lanes_sub (ha : float array) ho (sa : float array) so k =
  for l = 0 to k - 1 do
    Array.unsafe_set ha (ho + l)
      (Array.unsafe_get ha (ho + l) -. Array.unsafe_get sa (so + l))
  done

(** The lane loop of a group of [mode] and [kind] over [k] lanes, run as
    [loop f b ha ho sa so]: [ha[ho..ho+k) += f(sa[so..so+k))] with the
    formula selected by [mode], or for a [Copy] (mode 0 only) the
    overwrite of [ha]'s lanes; [None] for a mode and kind the lane call
    rejects. The lane-invariant coefficients are cells [c1] and [c2] of
    the float array [f] and cell [cnd] of the bool array [b], read only
    by the modes that use them: the interpreter passes the call's
    operands, the engine its frame's float and bool files, which boxes
    nothing. The loop is chosen once per mode, so a call pays no
    dispatch on it (the engine chooses when it lowers the call), and the
    adjoint expression is inline in the array store, so no float crosses
    a branch join. Modes 7/8/9 skip (or negate) the add instead of
    adding a selected 0.0: adjoint cells start at +0.0 and [+0.0 +. x]
    never yields -0.0, so an accumulated plane never holds -0.0 and
    skipping an add-of-zero is bitwise-neutral. *)
type lane_loop =
  float array -> bool array -> float array -> int -> float array -> int -> unit

let lane_loop ~k ~mode ~kind ~c1 ~c2 ~cnd : lane_loop option =
  let n = k - 1 in
  match kind, mode with
  | Copy, 0 -> Some (fun _ _ ha ho sa so -> Array.blit sa so ha ho k)
  | Copy, _ -> None
  | _, 0 -> Some (fun _ _ ha ho sa so -> lanes_add ha ho sa so k)
  | _, 1 -> Some (fun _ _ ha ho sa so -> lanes_sub ha ho sa so k)
  | _, 2 ->
    Some
      (fun f _ ha ho sa so ->
        let c1 = f.(c1) in
        for l = 0 to n do
          Array.unsafe_set ha (ho + l)
            (Array.unsafe_get ha (ho + l)
            +. (Array.unsafe_get sa (so + l) *. c1))
        done)
  | _, 3 ->
    Some
      (fun f _ ha ho sa so ->
        let c1 = f.(c1) in
        for l = 0 to n do
          Array.unsafe_set ha (ho + l)
            (Array.unsafe_get ha (ho + l)
            +. (Array.unsafe_get sa (so + l) /. c1))
        done)
  | _, 4 ->
    Some
      (fun f _ ha ho sa so ->
        let c1 = f.(c1) in
        for l = 0 to n do
          Array.unsafe_set ha (ho + l)
            (Array.unsafe_get ha (ho + l)
            +. -.(Array.unsafe_get sa (so + l) *. c1))
        done)
  | _, 5 ->
    Some
      (fun f _ ha ho sa so ->
        let c1 = f.(c1) and c2 = f.(c2) in
        for l = 0 to n do
          Array.unsafe_set ha (ho + l)
            (Array.unsafe_get ha (ho + l)
            +. -.(Array.unsafe_get sa (so + l) *. c1 /. c2))
        done)
  | _, 6 ->
    Some
      (fun f _ ha ho sa so ->
        let c1 = f.(c1) and c2 = f.(c2) in
        for l = 0 to n do
          Array.unsafe_set ha (ho + l)
            (Array.unsafe_get ha (ho + l)
            +. (Array.unsafe_get sa (so + l) *. c1 /. c2))
        done)
  | _, 7 -> Some (fun _ b ha ho sa so -> if b.(cnd) then lanes_add ha ho sa so k)
  | _, 8 ->
    Some (fun _ b ha ho sa so -> if not b.(cnd) then lanes_add ha ho sa so k)
  | _, 9 ->
    Some
      (fun _ b ha ho sa so ->
        if b.(cnd) then lanes_add ha ho sa so k else lanes_sub ha ho sa so k)
  | _ -> None

(** The operands of the one k-wide lane call,
    [adj.lanes_k(file, src, soff, zero, G1, ..., Gn, k)] with each group
    [G = (host, off, mode, c1, c2, cond, kind)]: take the [k] lanes of
    [src] at [soff] into the scratch of the lane register file [file]
    (its first [k] cells), zeroing them when [zero] is not 0, then fold
    the scratch into each group in turn by its [mode] and [kind]
    ({!lane_loop}, {!acc_kind}). The layout is written down once,
    here: the reverse pass builds it over vars ([lane_operands]), the
    interpreter splits it over values and the engine over vars
    ([split_lanes]). *)
type 'a lane_group = {
  g_host : 'a; g_off : 'a; g_mode : 'a; g_c1 : 'a; g_c2 : 'a; g_cond : 'a;
  g_kind : 'a;
}

type 'a lanes = {
  l_file : 'a; l_src : 'a; l_soff : 'a; l_zero : 'a;
  l_groups : 'a lane_group list; l_k : 'a;
}

let lanes_name = "adj.lanes_k"

let lane_operands l =
  (l.l_file :: l.l_src :: l.l_soff :: l.l_zero
   :: List.concat_map
        (fun g -> [ g.g_host; g.g_off; g.g_mode; g.g_c1; g.g_c2; g.g_cond; g.g_kind ])
        l.l_groups)
  @ [ l.l_k ]

(* [None] when [args] is not four operands, whole groups and the lane
   count *)
let split_lanes = function
  | l_file :: l_src :: l_soff :: l_zero :: rest ->
    let rec groups acc = function
      | [ l_k ] ->
        Some { l_file; l_src; l_soff; l_zero; l_groups = List.rev acc; l_k }
      | g_host :: g_off :: g_mode :: g_c1 :: g_c2 :: g_cond :: g_kind :: rest ->
        groups ({ g_host; g_off; g_mode; g_c1; g_c2; g_cond; g_kind } :: acc) rest
      | _ -> None
    in
    groups [] rest
  | _ -> None

(* Count [reads] and [writes] plane cells of a lane step as the scalar
   emission's loads and stores. *)
let[@inline] count_cells (st : Stats.t) ~reads ~writes =
  st.loads <- st.loads + reads;
  st.stores <- st.stores + writes

(* The take of a lane call: move the [k] lanes of [src] at [base] into
   the scratch of the lane file [file] (its first [k] cells), zeroing
   them when [zero], and charge and count a plane outside the file as
   the cells read and, when [zero], written; returns the file's cells. *)
let take_lanes ctx st ~who ~zero (file : Value.ptr) (src : Value.ptr) base k =
  let sa = fplane ~who file ~base:0 ~n:k in
  let ha = fplane ~who src ~base ~n:k in
  let so = file.off and ho = src.off + base in
  for l = 0 to k - 1 do
    Array.unsafe_set sa (so + l) (Array.unsafe_get ha (ho + l));
    if zero then Array.unsafe_set ha (ho + l) 0.0
  done;
  if src.buf != file.buf then begin
    charge_mem ctx src.buf (if zero then 2 * k else k);
    count_cells st ~reads:k ~writes:(if zero then k else 0)
  end;
  sa

(* A group's charges and counts after its lane loop, as the scalar
   emission's: its formula, then by its kind one atomic add per lane,
   or, for a host outside the lane file, a plane read and write per lane
   (a write only, for a [Write] or a [Copy]). A register in the file is
   charged and counted no memory. *)
let group_charge ctx (st : Stats.t) ~file ~mode ~kind (host : Value.ptr) k =
  let c = ctx.cfg.cost and outside = host.buf != file.buf in
  charge (c.arith *. float_of_int (k * group_ops ~mode kind));
  st.flops <- st.flops + (k * group_flops ~mode kind);
  match kind with
  | Atomic ->
    charge (c.atomic *. float_of_int k);
    st.atomics <- st.atomics + k
  | Add when outside ->
    charge_mem ctx host.buf (2 * k);
    count_cells st ~reads:k ~writes:k
  | (Write | Copy) when outside ->
    charge_mem ctx host.buf k;
    count_cells st ~reads:0 ~writes:k
  | Add | Write | Copy -> ()

(* A [Write] group's [k] lanes [ha] at [ho], bounds-checked already, must
   all be +0.0. *)
let check_write kind (ha : float array) ho k =
  if kind = Write then
    for l = 0 to k - 1 do
      let x = Array.unsafe_get ha (ho + l) in
      if Int64.bits_of_float x <> 0L then
        error "%s: write into a group whose lane %d is not +0.0 (it holds %h)"
          lanes_name l x
    done

(* [adj.combine]: dst[doff+i] += src[soff+i] for the cells [i] in
   [0, n) whose destination lies in [dst]'s buffer, in cell order;
   returns the first such [i] and their count. A reduction's
   accumulator spans the cells its loop's bounds address, but an
   increment reaches a cell only after the primal read it, so a cell
   outside the shadow must still hold zero (one that does not raises
   the destination's bounds error). *)
let combine ~who (src : Value.ptr) soff (dst : Value.ptr) doff n =
  if n <= 0 then 0, 0
  else begin
    let sa = fplane ~who src ~base:soff ~n in
    let s0 = src.off + soff and d0 = dst.off + doff in
    let len =
      match dst.buf.data with
      | FCells a -> Array.length a
      | VCells _ -> Array.length (fplane ~who dst ~base:doff ~n) (* raises *)
    in
    let lo = min n (max 0 (-d0)) in
    let hi = max lo (min n (len - d0)) in
    let outside i =
      if Array.unsafe_get sa (s0 + i) <> 0.0 then
        ignore (Memory.check_access ~who dst (doff + i))
    in
    for i = 0 to lo - 1 do outside i done;
    for i = hi to n - 1 do outside i done;
    if hi > lo then begin
      let da = fplane ~who dst ~base:(doff + lo) ~n:(hi - lo) in
      for i = lo to hi - 1 do
        Array.unsafe_set da (d0 + i)
          (Array.unsafe_get da (d0 + i) +. Array.unsafe_get sa (s0 + i))
      done
    end;
    lo, hi - lo
  end

(* ---- sanitizer hooks ---- *)

(* RaceSan: log one shadow-memory access. Only meaningful inside a
   fork of width > 1 ([san_team] is [None] otherwise). *)
let san_access ctx (e : ectx) (ptr : Value.ptr) idx kind =
  match ctx.san, e.san_team, e.team with
  | Some san, Some (region, ep), Some (tid, _) ->
    Sanitizer.on_access san ~rank:ctx.rank ~tid ~region ~epoch:!ep
      ~buf:ptr.buf ~cell:(ptr.off + idx) ~kind ~fn:e.fname ~time:(Sim.now ())
  | _ -> ()

let san_epoch_bump (e : ectx) =
  match e.san_team with Some (_, ep) -> incr ep | None -> ()

(* GradSan: first-origin check of a float produced by an arithmetic
   instruction. A result is a fresh origin when it is NaN with no NaN
   operand, or Inf with all-finite operands (Inf arising from Inf
   operands is propagation; NaN arising from NaN operands was flagged at
   its own origin). Returns the value to continue with — the poison in
   [Strict] mode aborts inside [Sanitizer.nonfinite], in [Degrade] mode
   it is quarantined to 0.0. *)
let san_produced ctx (e : ectx) san ~opname ~dst operands f =
  let nan_operand = List.exists Float.is_nan operands in
  let finite_operands = List.for_all Float.is_finite operands in
  if (Float.is_nan f && not nan_operand) || ((not (Float.is_nan f)) && finite_operands)
  then
    Sanitizer.nonfinite san ~rank:ctx.rank ~time:(Sim.now ())
      "%s = %s(%s) produced %h in %s (instr #%d)" dst opname
      (String.concat ", " (List.map (Fmt.str "%.17g") operands))
      f e.fname ctx.executed
  else f

(* ---- scalar semantics ---- *)

let fmin a b = if (a : float) <= b then a else b
let fmax a b = if (a : float) >= b then a else b

let eval_bin op a b =
  match op, a, b with
  | Instr.Add, VInt x, VInt y -> VInt (x + y)
  | Add, VFloat x, VFloat y -> VFloat (x +. y)
  | Sub, VInt x, VInt y -> VInt (x - y)
  | Sub, VFloat x, VFloat y -> VFloat (x -. y)
  | Mul, VInt x, VInt y -> VInt (x * y)
  | Mul, VFloat x, VFloat y -> VFloat (x *. y)
  | Div, VInt x, VInt y ->
    if y = 0 then error "integer division by zero" else VInt (x / y)
  | Div, VFloat x, VFloat y -> VFloat (x /. y)
  | Rem, VInt x, VInt y ->
    if y = 0 then error "integer remainder by zero" else VInt (x mod y)
  | Min, VInt x, VInt y -> VInt (min x y)
  | Min, VFloat x, VFloat y -> VFloat (fmin x y)
  | Max, VInt x, VInt y -> VInt (max x y)
  | Max, VFloat x, VFloat y -> VFloat (fmax x y)
  | Pow, VFloat x, VFloat y -> VFloat (Float.pow x y)
  | _ -> error "bad operands for %s" (Instr.binop_name op)

let eval_cmp op a b =
  let c =
    match a, b with
    | VInt x, VInt y -> Int.compare x y
    | VFloat x, VFloat y -> Float.compare x y
    | VBool x, VBool y -> Bool.compare x y
    | _ -> error "bad operands for comparison"
  in
  VBool
    (match op with
    | Instr.Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0)

let eval_un op a =
  match op, a with
  | Instr.Neg, VInt x -> VInt (-x)
  | Neg, VFloat x -> VFloat (-.x)
  | Sqrt, VFloat x -> VFloat (sqrt x)
  | Sin, VFloat x -> VFloat (sin x)
  | Cos, VFloat x -> VFloat (cos x)
  | Exp, VFloat x -> VFloat (exp x)
  | Log, VFloat x -> VFloat (log x)
  | Abs, VFloat x -> VFloat (Float.abs x)
  | Abs, VInt x -> VInt (abs x)
  | Floor, VFloat x -> VFloat (Float.of_int (int_of_float (floor x)))
  | ToFloat, VInt x -> VFloat (float_of_int x)
  | ToInt, VFloat x -> VInt (int_of_float x)
  | Not, VBool x -> VBool (not x)
  | _ -> error "bad operand for %s" (Instr.unop_name op)

let[@inline] set_partials (s : float array) p1 p2 =
  s.(0) <- p1;
  s.(1) <- p2

(** Write the two partials of taped statement [i] (a float [Bin], [Un]
    or [AtomicAdd]) to scratch cells 0-1, reading its operands [x], [y]
    and result [r] from cells 2-4 ([Un] reads no [y], [AtomicAdd]
    nothing). The interpreter and the engine's taping mode both call it,
    and no float crosses a call boxed. *)
let partials (s : float array) (i : Instr.t) =
  let x = s.(2) and y = s.(3) and r = s.(4) in
  match i with
  | Bin (_, op, _, _) -> (
    match op with
    | Add -> set_partials s 1.0 1.0
    | Sub -> set_partials s 1.0 (-1.0)
    | Mul -> set_partials s y x
    | Div -> set_partials s (1.0 /. y) (-.x /. (y *. y))
    | Min -> if x <= y then set_partials s 1.0 0.0 else set_partials s 0.0 1.0
    | Max -> if x >= y then set_partials s 1.0 0.0 else set_partials s 0.0 1.0
    | Pow -> set_partials s (y *. Float.pow x (y -. 1.0)) (r *. log x)
    | Rem -> error "rem has no float derivative")
  | Un (_, op, _) -> (
    match op with
    | Neg -> set_partials s (-1.0) 0.0
    | Sqrt -> set_partials s (if r = 0.0 then 0.0 else 1.0 /. (2.0 *. r)) 0.0
    | Sin -> set_partials s (cos x) 0.0
    | Cos -> set_partials s (-.sin x) 0.0
    | Exp -> set_partials s r 0.0
    | Log -> set_partials s (1.0 /. x) 0.0
    | Abs -> set_partials s (if x >= 0.0 then 1.0 else -1.0) 0.0
    | Floor | ToFloat | ToInt | Not -> set_partials s 0.0 0.0)
  | AtomicAdd _ -> set_partials s 1.0 1.0
  | _ -> invalid_arg "Interp.partials: not a taped float statement"

(** One taped statement with operand slots [s1], [s2]: an all-passive
    statement records nothing and yields the passive slot 0; otherwise
    charge [tape_record] and count the entry on the Sim strand, then
    record the row and return its lhs slot. The engine's taping mode
    does the same on its own clock cell. *)
let tape_row ins s1 s2 =
  if s1 = 0 && s2 = 0 then 0
  else begin
    Sim.charge (Sim.cost ()).Cost_model.tape_record;
    let st = Sim.stats () in
    st.tape_entries <- st.tape_entries + 1;
    ins.record s1 s2
  end

let is_float v = match v with VFloat _ -> true | _ -> false

(* ---- adjoint message passing (paper §IV-B, Fig 5) ----

   The reverse of a send receives the adjoint and adds it into the
   shadow; the reverse of a receive sends the shadow back and zeroes it.
   [adj_post] starts that dual for a forward send ([send]) or receive of
   [count] cells of shadow [sptr] with [peer] on forward tag [tag], and
   [adj_finish] completes it; every adjoint exchange intrinsic is one or
   both. Coalesced, the dual of a receive stages an outgoing chunk,
   flushed inside one packed message per destination at the next
   blocking point (the chunk's snapshot decouples the payload from the
   zeroing), and the dual of a send registers an expectation that packed
   messages fulfil on demand (the accumulate is charged at unpack time):
   no per-exchange message, no temp buffer. Uncoalesced, each dual is one
   nonblocking message on the adjoint tag; [site] names the intrinsic
   that allocates the temp buffer an adjoint is received into. *)
let adj_post ctx ~site ~send ~sptr ~count ~peer ~tag : Mpi_state.dual =
  let m = mpi_state ctx and rank = ctx.rank and tag = tag + 1_000_000 in
  match send, m.Mpi_state.coalesce with
  | true, true ->
    Mpi_state.Expect
      (Mpi_state.adj_expect m ~rank ~src:peer ~tag ~count ~dst:sptr)
  | false, true ->
    Mpi_state.adj_stage m ~rank ~dst:peer ~tag ~count ~sptr;
    Mpi_state.Staged
  | true, false ->
    let buf =
      Memory.alloc ctx.mem ~elem:Ty.Float ~size:count ~kind:Instr.Heap
        ~socket:(Sim.socket ()) ~site
    in
    let tmp = { buf; off = 0 } in
    Mpi_state.Recv
      (Mpi_state.irecv m ~rank ~ptr:tmp ~count ~src:peer ~tag, tmp)
  | false, false ->
    Mpi_state.Send (Mpi_state.isend m ~rank ~ptr:sptr ~count ~dst:peer ~tag)

let adj_finish ctx ~sptr ~count (d : Mpi_state.dual) =
  let m = mpi_state ctx and mem = ctx.cfg.cost.mem in
  let zero () =
    charge (mem *. float_of_int count);
    for i = 0 to count - 1 do
      Memory.store sptr i (VFloat 0.0)
    done
  in
  match d with
  | Mpi_state.Expect ex -> Mpi_state.adj_complete m ~rank:ctx.rank ex
  | Mpi_state.Staged -> zero ()
  | Mpi_state.Send req ->
    ignore (Mpi_state.wait m ~rank:ctx.rank ~req);
    zero ()
  | Mpi_state.Recv (req, tmp) ->
    ignore (Mpi_state.wait m ~rank:ctx.rank ~req);
    charge (mem *. float_of_int (2 * count));
    for i = 0 to count - 1 do
      let cur = to_float (Memory.load sptr i) in
      Memory.store sptr i (VFloat (cur +. to_float (Memory.load tmp i)))
    done;
    Memory.free ctx.mem tmp.buf

(* ---- interpreter ---- *)

let rec exec_instrs ctx (e : ectx) (instrs : Instr.t list) : outcome =
  match instrs with
  | [] -> ONext
  | i :: rest -> (
    match exec_instr ctx e i with
    | ONext -> exec_instrs ctx e rest
    | (OReturn _ | OYield _) as o -> o)

and exec_instr ctx e (i : Instr.t) : outcome =
  let fr = List.hd e.stack in
  let st = Sim.stats () in
  ctx.executed <- ctx.executed + 1;
  st.instrs <- st.instrs + 1;
  let c = ctx.cfg.cost in
  match i with
  | Const (v, k) ->
    charge c.arith;
    set fr v
      (match k with
      | Cunit -> VUnit
      | Cbool b -> VBool b
      | Cint n -> VInt n
      | Cfloat f -> VFloat f
      | Cnull t -> VNull t);
    set_slot fr v 0;
    ONext
  | Bin (v, op, a, b) ->
    let x = get fr a and y = get fr b in
    let r = eval_bin op x y in
    (if is_float r then begin
       st.flops <- st.flops + 1;
       charge_op ctx i
     end
     else charge c.arith);
    let r =
      match ctx.san, r, x, y with
      | Some san, VFloat f, VFloat xf, VFloat yf
        when san.Sanitizer.grad_on && not (Float.is_finite f) ->
        VFloat
          (san_produced ctx e san ~opname:(Instr.binop_name op)
             ~dst:(Var.name v) [ xf; yf ] f)
      | _ -> r
    in
    set fr v r;
    (match ctx.instrument, x, y, r with
    | Some ins, VFloat xf, VFloat yf, VFloat rf ->
      let s = ins.scratch in
      s.(2) <- xf;
      s.(3) <- yf;
      s.(4) <- rf;
      partials s i;
      set_slot fr v (tape_row ins (get_slot fr a) (get_slot fr b))
    | _ -> set_slot fr v 0);
    ONext
  | Cmp (v, op, a, b) ->
    charge c.arith;
    set fr v (eval_cmp op (get fr a) (get fr b));
    set_slot fr v 0;
    ONext
  | Un (v, op, a) ->
    let x = get fr a in
    let r = eval_un op x in
    (if is_float r then begin
       st.flops <- st.flops + 1;
       charge_op ctx i
     end
     else charge c.arith);
    let r =
      match ctx.san, r, x with
      | Some san, VFloat f, VFloat xf
        when san.Sanitizer.grad_on && not (Float.is_finite f) ->
        VFloat
          (san_produced ctx e san ~opname:(Instr.unop_name op)
             ~dst:(Var.name v) [ xf ] f)
      | _ -> r
    in
    set fr v r;
    (match ctx.instrument, x, r with
    | Some ins, VFloat xf, VFloat rf ->
      let s = ins.scratch in
      s.(2) <- xf;
      s.(4) <- rf;
      partials s i;
      set_slot fr v (tape_row ins (get_slot fr a) 0)
    | _ -> set_slot fr v 0);
    ONext
  | Select (v, cond, a, b) ->
    charge c.arith;
    let t = to_bool (get fr cond) in
    let src = if t then a else b in
    set fr v (get fr src);
    set_slot fr v (get_slot fr src);
    ONext
  | Alloc (v, elem, n, kind) ->
    let size = to_int (get fr n) in
    st.allocs <- st.allocs + 1;
    st.alloc_cells <- st.alloc_cells + size;
    charge
      (c.alloc_base
      +. (c.alloc_per_cell *. float_of_int size)
      +. (match kind with Instr.Gc -> c.gc_alloc_extra | _ -> 0.0));
    let buf =
      Memory.alloc ctx.mem ~elem ~size ~kind ~socket:(Sim.socket ())
        ~site:(e.fname ^ "/" ^ Var.name v)
    in
    (match ctx.san with
    | Some san -> Sanitizer.on_alloc san ~rank:ctx.rank ~buf
    | None -> ());
    (match kind with
    | Instr.Stack -> e.stack_allocs := buf :: !(e.stack_allocs)
    | Instr.Heap | Instr.Gc -> ());
    set fr v (VPtr { buf; off = 0 });
    set_slot fr v 0;
    ONext
  | Free p ->
    charge c.free;
    st.frees <- st.frees + 1;
    (match get fr p with
    | VPtr { buf; off = _ } -> Memory.free ~site:e.fname ctx.mem buf
    | VNull _ -> ()
    | _ -> error "free of non-pointer");
    ONext
  | Load (v, p, ix) ->
    st.loads <- st.loads + 1;
    let ptr = to_ptr (get fr p) in
    check_rank ctx ptr.buf;
    charge_mem ctx ptr.buf 1;
    let idx = to_int (get fr ix) in
    let r = Memory.load ~who:e.fname ptr idx in
    let r =
      match ctx.san with
      | None -> r
      | Some san ->
        san_access ctx e ptr idx Sanitizer.Read;
        Sanitizer.on_load_init san ~rank:ctx.rank ~buf:ptr.buf
          ~cell:(ptr.off + idx) ~fn:e.fname ~time:(Sim.now ());
        (match r with
        | VFloat f when san.Sanitizer.grad_on && Float.is_nan f ->
          (* observed poison: the NaN entered memory outside a checked
             arithmetic op (e.g. corrupted input); scrub the cell so it
             is reported once *)
          let q =
            Sanitizer.nonfinite san ~rank:ctx.rank ~time:(Sim.now ())
              "load of NaN from buffer %d (alloc at %s) cell [%d] in %s \
               (instr #%d)"
              ptr.buf.bid ptr.buf.asite (ptr.off + idx) e.fname ctx.executed
          in
          Memory.store ptr idx (VFloat q);
          VFloat q
        | _ -> r)
    in
    set fr v r;
    (match ctx.instrument with
    | Some ins when is_float r ->
      set_slot fr v (ins.buf_slots ptr.buf).(ptr.off + idx)
    | _ -> set_slot fr v 0);
    ONext
  | Store (p, ix, x) ->
    st.stores <- st.stores + 1;
    let ptr = to_ptr (get fr p) in
    check_rank ctx ptr.buf;
    charge_mem ctx ptr.buf 1;
    let idx = to_int (get fr ix) in
    let v = get fr x in
    let v =
      match ctx.san with
      | None -> v
      | Some san ->
        san_access ctx e ptr idx Sanitizer.Write;
        Sanitizer.on_store_init san ~rank:ctx.rank ~buf:ptr.buf
          ~cell:(ptr.off + idx);
        (match v with
        | VFloat f when san.Sanitizer.grad_on && Float.is_nan f ->
          VFloat
            (Sanitizer.nonfinite san ~rank:ctx.rank ~time:(Sim.now ())
               "store of NaN to buffer %d (alloc at %s) cell [%d] in %s \
                (instr #%d)"
               ptr.buf.bid ptr.buf.asite (ptr.off + idx) e.fname ctx.executed)
        | _ -> v)
    in
    Memory.store ~who:e.fname ptr idx v;
    (match ctx.instrument with
    | Some ins when is_float v ->
      (ins.buf_slots ptr.buf).(ptr.off + idx) <- get_slot fr x
    | _ -> ());
    ONext
  | Gep (v, p, ix) ->
    charge c.arith;
    (match get fr p with
    | VPtr ptr ->
      set fr v (VPtr { ptr with off = ptr.off + to_int (get fr ix) })
    | VNull _ -> error "gep on null pointer"
    | _ -> error "gep on non-pointer");
    set_slot fr v 0;
    ONext
  | AtomicAdd (p, ix, x) ->
    st.atomics <- st.atomics + 1;
    charge c.atomic;
    let ptr = to_ptr (get fr p) in
    check_rank ctx ptr.buf;
    let idx = to_int (get fr ix) in
    let old = to_float (Memory.load ~who:e.fname ptr idx) in
    let v = to_float (get fr x) in
    let sum = old +. v in
    let sum =
      match ctx.san with
      | None -> sum
      | Some san ->
        san_access ctx e ptr idx Sanitizer.Atomic;
        Sanitizer.on_store_init san ~rank:ctx.rank ~buf:ptr.buf
          ~cell:(ptr.off + idx);
        if san.Sanitizer.grad_on && not (Float.is_finite sum) then begin
          (* quarantining an atomic accumulation drops the contribution
             but keeps what was already accumulated *)
          let q =
            san_produced ctx e san ~opname:"atomic_add"
              ~dst:(Fmt.str "b%d[%d]" ptr.buf.bid (ptr.off + idx))
              [ old; v ] sum
          in
          if q = 0.0 && not (Float.is_finite sum) then old else sum
        end
        else sum
    in
    Memory.store ~who:e.fname ptr idx (VFloat sum);
    (match ctx.instrument with
    | Some ins ->
      let slots = ins.buf_slots ptr.buf in
      let c = ptr.off + idx in
      partials ins.scratch i;
      slots.(c) <- tape_row ins slots.(c) (get_slot fr x)
    | None -> ());
    ONext
  | Call (v, name, args) ->
    let r, slot = dispatch_call ctx e name args in
    set fr v r;
    set_slot fr v slot;
    ONext
  | Spawn (v, name, args) ->
    if ctx.instrument <> None then
      error "tape baseline cannot differentiate task parallelism";
    let fr_args = List.map (get fr) args in
    let id = ctx.next_task in
    ctx.next_task <- id + 1;
    let ret = ref VUnit in
    let task =
      Sim.spawn (fun () ->
          ret := fst (call_function ctx ~caller_stack:[] name fr_args []))
    in
    Hashtbl.add ctx.tasks id (task, ret);
    set fr v (VInt id);
    set_slot fr v 0;
    ONext
  | Sync h ->
    let id = to_int (get fr h) in
    (match Hashtbl.find_opt ctx.tasks id with
    | Some (t, _) -> Sim.sync t
    | None -> error "sync on unknown task %d" id);
    ONext
  | If (results, cond, then_r, else_r) ->
    charge c.arith;
    let r = if to_bool (get fr cond) then then_r else else_r in
    (match exec_instrs ctx e r.body with
    | OYield vs ->
      List.iter2
        (fun rv (x, s) ->
          set fr rv x;
          set_slot fr rv s)
        results vs;
      ONext
    | ONext -> error "if-region fell through without yield"
    | OReturn _ as o -> o)
  | For { iv; lo; hi; step; body } ->
    let lo = to_int (get fr lo)
    and hi = to_int (get fr hi)
    and sp = to_int (get fr step) in
    if sp <= 0 then error "for with non-positive step %d" sp;
    (* [Checkpoint.Skip_iteration] is the fast-forward signal of a
       resuming replay: the checkpoint intrinsic raises it while its
       resume target is still ahead, and the loop skips the rest of the
       iteration body. *)
    let rec go i =
      if i >= hi then ONext
      else begin
        charge c.arith;
        set fr iv (VInt i);
        match
          try exec_instrs ctx e body.body
          with Checkpoint.Skip_iteration -> ONext
        with
        | ONext -> go (i + sp)
        | (OReturn _ | OYield _) as o -> o
      end
    in
    go lo
  | While { cond; body } ->
    let rec go () =
      charge c.arith;
      match exec_instrs ctx e cond.body with
      | OYield [ (v, _) ] ->
        if to_bool v then begin
          match
            try exec_instrs ctx e body.body
            with Checkpoint.Skip_iteration -> ONext
          with
          | ONext -> go ()
          | (OReturn _ | OYield _) as o -> o
        end
        else ONext
      | _ -> error "while condition region must yield one bool"
    in
    go ()
  | Fork { tid; nth; body } ->
    if ctx.instrument <> None then
      error "tape baseline cannot differentiate fork/join parallelism";
    let width =
      match to_int (get fr nth) with
      | 0 -> ctx.cfg.nthreads
      | n when n > 0 -> n
      | n -> error "fork with negative width %d" n
    in
    let total = ctx.nranks * width in
    let socket_of t =
      Cost_model.socket_of c ~index:((ctx.rank * width) + t) ~width:total
    in
    let nth_var =
      match body.params with
      | [ _; q ] -> q
      | _ -> error "malformed fork body"
    in
    let san_region =
      match ctx.san with
      | Some san when width > 1 && san.Sanitizer.race_on ->
        Some (Sanitizer.fresh_region san)
      | _ -> None
    in
    Sim.fork ~socket_of ~width (fun ~tid:t ~width:w ->
        let child_fr =
          {
            vals = Array.copy fr.vals;
            slots = Option.map Array.copy fr.slots;
          }
        in
        set child_fr tid (VInt t);
        set child_fr nth_var (VInt w);
        let e' =
          {
            stack = child_fr :: List.tl e.stack;
            team = Some (t, w);
            stack_allocs = e.stack_allocs;
            fname = e.fname;
            san_team = Option.map (fun r -> r, ref 0) san_region;
          }
        in
        match exec_instrs ctx e' body.body with
        | ONext -> ()
        | OReturn _ | OYield _ -> error "fork body may not return/yield");
    ONext
  | Workshare { iv; lo; hi; body; schedule; nowait } ->
    let tid, width =
      match e.team with
      | Some tw -> tw
      | None -> error "workshare outside a fork"
    in
    let lo = to_int (get fr lo) and hi = to_int (get fr hi) in
    let len = max 0 (hi - lo) in
    (match schedule with
    | Instr.Chunked ->
      let start = lo + (len * tid / width) in
      let stop = lo + (len * (tid + 1) / width) in
      let rec go i =
        if i >= stop then ONext
        else begin
          charge c.arith;
          set fr iv (VInt i);
          match exec_instrs ctx e body.body with
          | ONext -> go (i + 1)
          | (OReturn _ | OYield _) as o -> o
        end
      in
      ignore (go start)
    | Instr.Cyclic ->
      let rec go i =
        if i >= hi then ONext
        else begin
          charge c.arith;
          set fr iv (VInt i);
          match exec_instrs ctx e body.body with
          | ONext -> go (i + width)
          | (OReturn _ | OYield _) as o -> o
        end
      in
      ignore (go (lo + tid)));
    if (not nowait) && width > 1 then begin
      Sim.barrier ();
      san_epoch_bump e
    end;
    ONext
  | Barrier ->
    (match e.team with
    | Some (_, w) when w > 1 ->
      Sim.barrier ();
      san_epoch_bump e
    | Some _ | None -> ());
    ONext
  | Return None -> OReturn (VUnit, 0)
  | Return (Some v) -> OReturn (get fr v, get_slot fr v)
  | Yield vs -> OYield (List.map (fun v -> get fr v, get_slot fr v) vs)

and call_function ctx ~caller_stack name (args : Value.t list)
    (arg_slots : int list) : Value.t * int =
  match Prog.find ctx.prog name with
  | None -> error "call to unknown function %S" name
  | Some f ->
    Sim.charge ctx.cfg.cost.call;
    (Sim.stats ()).calls <- (Sim.stats ()).calls + 1;
    if List.length args <> List.length f.params then
      error "call %s: arity mismatch" name;
    let fr = new_frame ctx f.var_count in
    List.iter2
      (fun p a ->
        if not (Ty.equal (Value.ty a) (Var.ty p)) then
          error "call %s: argument %s has type %a, expected %a" name
            (Var.name p) Ty.pp (Value.ty a) Ty.pp (Var.ty p);
        set fr p a)
      f.params args;
    (match fr.slots, arg_slots with
    | Some _, _ :: _ ->
      List.iteri
        (fun i s -> set_slot fr (List.nth f.params i) s)
        arg_slots
    | _ -> ());
    let stack_allocs = ref [] in
    let e =
      {
        stack = fr :: caller_stack;
        team = None;
        stack_allocs;
        fname = name;
        san_team = None;
      }
    in
    let out = exec_instrs ctx e f.body in
    List.iter
      (fun b -> if not b.freed then Memory.free ~site:name ctx.mem b)
      !stack_allocs;
    (match out with
    | OReturn (v, s) -> v, s
    | ONext when Ty.equal f.ret_ty Ty.Unit -> VUnit, 0
    | ONext | OYield _ -> error "function %s did not return" name)

and dispatch_call ctx e name args : Value.t * int =
  let fr = List.hd e.stack in
  let vals = List.map (get fr) args in
  (* intrinsic results are passive: tape slot 0 *)
  if String.contains name '.' then intrinsic ctx e name args vals, 0
  else
    call_function ctx ~caller_stack:e.stack name vals
      (List.map (get_slot fr) args)

and intrinsic ctx e name args vals : Value.t =
  let c = ctx.cfg.cost in
  let st = Sim.stats () in
  let int_arg n = to_int (List.nth vals n) in
  let float_arg n = to_float (List.nth vals n) in
  let ptr_arg n = to_ptr (List.nth vals n) in
  charge c.arith;
  match name with
  | "omp.max_threads" -> VInt ctx.cfg.nthreads
  (* ---- sanitizer ---- *)
  | "san.mark_private" ->
    (* Emitted by the reverse engine for every shadow buffer whose base
       the static thread-locality analysis classified private (so its
       accumulation skips atomics). RaceSan cross-validates: a dynamic
       race on a marked buffer is a miscompilation. No-op unsanitized. *)
    (match ctx.san, vals with
    | Some san, VPtr p :: _ ->
      Sanitizer.mark_private san ~rank:ctx.rank ~buf:p.buf
    | _ -> ());
    VUnit
  (* ---- checkpoint/restart ---- *)
  | "parad.checkpoint" ->
    let extras = List.filter (function VPtr _ -> true | _ -> false) vals in
    checkpoint_site ctx e ~name ~explicit_id:(Some (int_arg 0)) ~extras
  | "parad.checkpoint_rev" ->
    (* reverse-entry site (emitted by the reverse engine between the
       forward and reverse sweeps): its id is allocated past every
       forward-sweep checkpoint this rank saw, so [latest_consistent]
       can pick it once all ranks reach their reverse sweeps *)
    checkpoint_site ctx e ~name ~explicit_id:None ~extras:[]
  (* ---- message passing ---- *)
  | "mpi.rank" -> VInt ctx.rank
  | "mpi.size" -> VInt ctx.nranks
  | "mpi.isend" ->
    let m = mpi_state ctx in
    let p = ptr_arg 0 and n = int_arg 1 and dst = int_arg 2 and tag = int_arg 3 in
    check_rank ctx p.buf;
    (* Under taping, the adjoint-MPI send entry records the slots of the
       sent cells at send time. *)
    (match ctx.instrument with
    | Some ins ->
      let bs = ins.buf_slots p.buf in
      ins.send_hook ~peer:dst ~tag ~slots:(Array.sub bs p.off n)
    | None -> ());
    let req = Mpi_state.isend m ~rank:ctx.rank ~ptr:p ~count:n ~dst ~tag in
    VInt req
  | "mpi.irecv" ->
    let m = mpi_state ctx in
    let p = ptr_arg 0 and n = int_arg 1 and src = int_arg 2 and tag = int_arg 3 in
    check_rank ctx p.buf;
    let req = Mpi_state.irecv m ~rank:ctx.rank ~ptr:p ~count:n ~src ~tag in
    VInt req
  | "mpi.wait" ->
    let m = mpi_state ctx in
    let pr = Mpi_state.wait m ~rank:ctx.rank ~req:(int_arg 0) in
    (* Under taping, received cells get fresh slots at wait time (when
       the data becomes visible), recorded as an adjoint-MPI receive. *)
    (match ctx.instrument, pr with
    | Some ins, Some pr ->
      let fresh =
        ins.recv_hook ~peer:pr.Mpi_state.psrc ~tag:pr.Mpi_state.ptag
          ~count:pr.Mpi_state.count
      in
      (match pr.Mpi_state.dst with
      | Some dst ->
        let bs = ins.buf_slots dst.buf in
        Array.blit fresh 0 bs dst.off pr.Mpi_state.count
      | None -> ())
    | _ -> ());
    VUnit
  | "mpi.send" ->
    let m = mpi_state ctx in
    let p = ptr_arg 0 and n = int_arg 1 and dst = int_arg 2 and tag = int_arg 3 in
    check_rank ctx p.buf;
    (match ctx.instrument with
    | Some ins ->
      let bs = ins.buf_slots p.buf in
      ins.send_hook ~peer:dst ~tag ~slots:(Array.sub bs p.off n)
    | None -> ());
    let req = Mpi_state.isend m ~rank:ctx.rank ~ptr:p ~count:n ~dst ~tag in
    ignore (Mpi_state.wait m ~rank:ctx.rank ~req);
    VUnit
  | "mpi.recv" ->
    let m = mpi_state ctx in
    let p = ptr_arg 0 and n = int_arg 1 and src = int_arg 2 and tag = int_arg 3 in
    check_rank ctx p.buf;
    let req = Mpi_state.irecv m ~rank:ctx.rank ~ptr:p ~count:n ~src ~tag in
    ignore (Mpi_state.wait m ~rank:ctx.rank ~req);
    (match ctx.instrument with
    | Some ins ->
      let fresh = ins.recv_hook ~peer:src ~tag ~count:n in
      let bs = ins.buf_slots p.buf in
      Array.blit fresh 0 bs p.off n
    | None -> ());
    VUnit
  | "mpi.barrier" ->
    Mpi_state.barrier (mpi_state ctx) ~rank:ctx.rank;
    VUnit
  | "mpi.allreduce_sum" | "mpi.allreduce_min" | "mpi.allreduce_max" ->
    let m = mpi_state ctx in
    let send = ptr_arg 0 and recv = ptr_arg 1 and n = int_arg 2 in
    check_rank ctx send.buf;
    check_rank ctx recv.buf;
    let kind =
      match name with
      | "mpi.allreduce_sum" -> Mpi_state.Csum
      | "mpi.allreduce_min" -> Mpi_state.Cmin
      | _ -> Mpi_state.Cmax
    in
    let in_vals =
      match ctx.instrument with
      | Some _ -> Some (Mpi_state.read_floats send n)
      | None -> None
    in
    Mpi_state.allreduce m ~rank:ctx.rank ~kind ~send ~recv ~count:n;
    (match ctx.instrument, in_vals with
    | Some ins, Some iv ->
      let bs = ins.buf_slots send.buf in
      let in_slots = Array.sub bs send.off n in
      let outs = Mpi_state.read_floats recv n in
      let k =
        match kind with
        | Mpi_state.Csum -> `Sum
        | Mpi_state.Cmin -> `Min
        | _ -> `Max
      in
      let out_slots = ins.allreduce_hook ~kind:k ~ins:(iv, in_slots) ~outs in
      let rs = ins.buf_slots recv.buf in
      Array.blit out_slots 0 rs recv.off n
    | _ -> ());
    VUnit
  | "mpi.bcast" ->
    let m = mpi_state ctx in
    let p = ptr_arg 0 and n = int_arg 1 and root = int_arg 2 in
    check_rank ctx p.buf;
    Mpi_state.bcast m ~rank:ctx.rank ~root ~ptr:p ~count:n;
    (match ctx.instrument with
    | Some ins ->
      let bs = ins.buf_slots p.buf in
      let slots = Array.sub bs p.off n in
      let out = ins.bcast_hook ~root ~count:n ~slots in
      Array.blit out 0 bs p.off n
    | None -> ());
    VUnit
  (* ---- GC model ---- *)
  | "gc.preserve_begin" ->
    let bufs =
      List.filter_map
        (fun v ->
          match v with
          | VPtr p ->
            p.buf.preserve <- p.buf.preserve + 1;
            Some p.buf
          | _ -> None)
        vals
    in
    let id = ctx.next_preserve in
    ctx.next_preserve <- id + 1;
    Hashtbl.add ctx.preserves id bufs;
    VInt id
  | "gc.preserve_end" ->
    let id = int_arg 0 in
    (match Hashtbl.find_opt ctx.preserves id with
    | Some bufs ->
      List.iter (fun b -> b.preserve <- b.preserve - 1) bufs;
      Hashtbl.remove ctx.preserves id
    | None -> error "gc.preserve_end: unknown token %d" id);
    VUnit
  | "gc.collect" ->
    if ctx.cfg.gc_aggressive then begin
      let roots =
        List.concat_map (fun f -> Array.to_list f.vals) e.stack
      in
      let n = Memory.gc_collect ctx.mem ~roots in
      VInt n
    end
    else VInt 0
  (* ---- AD cache runtime ---- *)
  | "cache.new" ->
    charge c.alloc_base;
    VInt (Cache_rt.fresh ctx.cache ~capacity:(int_arg 0))
  | "cache.newf" ->
    (* Unboxed [float array] cache (planner emits this for Ty.Float
       slots): stores and loads are plain memory traffic, not boxed
       cache bookkeeping, so they are charged at [mem], not
       [cache_op]. *)
    charge c.alloc_base;
    VInt (Cache_rt.fresh ~unboxed:true ctx.cache ~capacity:(int_arg 0))
  | "cache.set" ->
    let id = int_arg 0 in
    charge (if Cache_rt.is_unboxed ctx.cache ~id then c.mem else c.cache_op);
    st.cache_stores <- st.cache_stores + 1;
    let before = Cache_rt.cells_written ctx.cache in
    Cache_rt.set ctx.cache ~id ~idx:(int_arg 1) (List.nth vals 2);
    if Cache_rt.cells_written ctx.cache > before then begin
      st.cache_cells <- st.cache_cells + 1;
      let peak = Cache_rt.peak_cells ctx.cache in
      if peak > st.cache_peak then st.cache_peak <- peak
    end;
    VUnit
  | "cache.get" ->
    let id = int_arg 0 in
    charge (if Cache_rt.is_unboxed ctx.cache ~id then c.mem else c.cache_op);
    st.cache_loads <- st.cache_loads + 1;
    let r = Cache_rt.get ctx.cache ~id ~idx:(int_arg 1) in
    (* the get sealed the cache on first read; only now can a pending
       flip land on covered (detectable) memory *)
    apply_flips ctx;
    r
  | "cache.free" ->
    let id = int_arg 0 in
    (* last chance to catch a flip in this cache before its cells are
       released: the reverse sweep has consumed them all. The scan is
       charged like any other ABFT sweep — coverage is not free. *)
    if ctx.cache.Cache_rt.protect then begin
      Sim.charge
        (ctx.cfg.cost.mem
        *. float_of_int (Cache_rt.covered_id ctx.cache ~id));
      if not (Cache_rt.verify_id ctx.cache ~id) then
        corrupt_region ctx ~cache_id:id
    end;
    Cache_rt.free ctx.cache ~id;
    VUnit
  (* ---- k-wide batched adjoint runtime (opts.seeds > 1) ----

     The reverse engine emits one lane call ({!split_lanes}) per reverse
     statement, register move or register clear instead of k unrolled
     scalar statements: it loops natively over contiguous k-lane groups
     ([FCells] accessed raw after one bounds check per group), so the
     per-lane cost is a float op, not an interpreter dispatch. Per-lane
     arithmetic gives the scalar emission's bits — the same formula in
     the same order, added into a register whose lanes are +0.0 where the
     standalone run, after [fold], stores the formula — which is what
     keeps every batched lane bit-identical to its standalone
     single-seed run. The charges and counts are the standalone run's
     too ({!acc_kind}). The first operand is the calling thread's lane
     register file; its first k lanes are the scratch. An operand in the
     file is a register: like the scalar emission's SSA values, it is
     charged and counted no memory. Plane cells are charged and counted
     as the scalar sequence's loads and stores would be. *)
  | "adj.lanes_k" ->
    let l =
      match split_lanes vals with
      | Some l -> l
      | None -> error "%s: %d operands are not whole groups" name (List.length vals)
    in
    let file = to_ptr l.l_file and k = to_int l.l_k in
    let sa =
      take_lanes ctx st ~who:e.fname ~zero:(to_int l.l_zero <> 0) file
        (to_ptr l.l_src) (to_int l.l_soff) k
    in
    List.iter
      (fun g ->
        let host = to_ptr g.g_host and off = to_int g.g_off in
        let mode = to_int g.g_mode and code = to_int g.g_kind in
        let kind =
          match acc_kind_of_code code with
          | Some kind -> kind
          | None -> error "%s: unknown accumulation kind %d" name code
        in
        let ha = fplane ~who:e.fname host ~base:off ~n:k in
        check_write kind ha (host.off + off) k;
        (match lane_loop ~k ~mode ~kind ~c1:0 ~c2:1 ~cnd:0 with
        | Some loop ->
          loop [| to_float g.g_c1; to_float g.g_c2 |] [| to_bool g.g_cond |] ha
            (host.off + off) sa file.off
        | None when kind = Copy -> error "%s: a copy group in mode %d" name mode
        | None -> error "adjoint accumulate: unknown mode %d" mode);
        group_charge ctx st ~file ~mode ~kind host k)
      l.l_groups;
    VUnit
  | "adj.combine" ->
    (* dst[doff..doff+n) += src[soff..soff+n), one atomic add per cell,
       in cell order: a per-thread reduction's accumulator added into
       the shared shadow at the end of its scope. At k = 1 and k > 1
       alike, since a k-stride plane's cells and lanes are contiguous. *)
    let src = ptr_arg 0 and soff = int_arg 1 in
    let dst = ptr_arg 2 and doff = int_arg 3 and n = int_arg 4 in
    let lo, m = combine ~who:e.fname src soff dst doff n in
    (match ctx.san with
    | Some san ->
      for i = lo to lo + m - 1 do
        san_access ctx e dst (doff + i) Sanitizer.Atomic;
        Sanitizer.on_store_init san ~rank:ctx.rank ~buf:dst.buf
          ~cell:(dst.off + doff + i)
      done
    | None -> ());
    (* each cell read from [src], then added by one atomic *)
    charge_mem ctx src.buf m;
    charge (c.atomic *. float_of_int m);
    st.loads <- st.loads + m;
    st.atomics <- st.atomics + m;
    VUnit
  (* ---- adjoint MPI runtime (generated by the AD engine) ---- *)
  | "mpi.adjnote_isend" | "mpi.adjnote_irecv" ->
    let m = mpi_state ctx in
    let p = ptr_arg 0 and n = int_arg 1 and peer = int_arg 2 and tag = int_arg 3 in
    let skind =
      if name = "mpi.adjnote_isend" then Mpi_state.SIsend else Mpi_state.SIrecv
    in
    let id =
      Mpi_state.shadow_note m ~rank:ctx.rank ~skind ~sptr:p ~scount:n
        ~speer:peer ~stag:tag
    in
    VInt id
  | "mpi.adj_wait" ->
    (* Reverse of MPI_Wait: post the dual of the waited send or receive *)
    let m = mpi_state ctx in
    let s = Mpi_state.shadow_find m ~rank:ctx.rank ~id:(int_arg 0) in
    s.dual <-
      Some
        (adj_post ctx ~site:name ~send:(s.skind = Mpi_state.SIsend)
           ~sptr:s.sptr ~count:s.scount ~peer:s.speer ~tag:s.stag);
    VUnit
  | "mpi.adj_isend_finish" | "mpi.adj_irecv_finish" ->
    (* Reverse of MPI_Isend / MPI_Irecv: finish the dual [mpi.adj_wait]
       posted *)
    let m = mpi_state ctx in
    let s = Mpi_state.shadow_find m ~rank:ctx.rank ~id:(int_arg 0) in
    (match s.dual with
    | Some d ->
      s.dual <- None;
      adj_finish ctx ~sptr:s.sptr ~count:s.scount d
    | None -> error "%s before mpi.adj_wait" name);
    VUnit
  | "mpi.adj_send" | "mpi.adj_send_post" | "mpi.adj_recv" | "mpi.adj_recv_post"
    ->
    (* Reverse of a blocking send or receive: post its dual and finish it
       at once. The [_post] forms are emitted by the coalescing reverse
       sweep; a coalesced [mpi.adj_send_post] only posts, and a later
       [mpi.adj_waitall] completes the whole batch. *)
    let sptr = ptr_arg 0 and count = int_arg 1 in
    let peer = int_arg 2 and tag = int_arg 3 in
    let send = name = "mpi.adj_send" || name = "mpi.adj_send_post" in
    let d = adj_post ctx ~site:name ~send ~sptr ~count ~peer ~tag in
    if name <> "mpi.adj_send_post" || not (mpi_state ctx).Mpi_state.coalesce
    then adj_finish ctx ~sptr ~count d;
    VUnit
  | "mpi.adj_waitall" ->
    (* Completion barrier of a batch of [_post]ed adjoint exchanges: flush
       every staged chunk, then drain packed messages until all registered
       expectations are fulfilled. No-op when coalescing is off (the
       [_post] forms completed eagerly). *)
    let m = mpi_state ctx in
    if m.Mpi_state.coalesce then Mpi_state.adj_complete_all m ~rank:ctx.rank;
    VUnit
  | "parad.remat_begin" ->
    ctx.remat_depth <- ctx.remat_depth + 1;
    VUnit
  | "parad.remat_end" ->
    if ctx.remat_depth > 0 then ctx.remat_depth <- ctx.remat_depth - 1;
    VUnit
  | "mpi.adj_allreduce_sum" ->
    (* y = allreduce_sum(x)  =>  dx += allreduce_sum(dy); dy := 0 *)
    let m = mpi_state ctx in
    let d_send = ptr_arg 0 and d_recv = ptr_arg 1 and n = int_arg 2 in
    let buf =
      Memory.alloc ctx.mem ~elem:Ty.Float ~size:n ~kind:Instr.Heap
        ~socket:(Sim.socket ()) ~site:name
    in
    let tmp = { buf; off = 0 } in
    Mpi_state.allreduce m ~rank:ctx.rank ~kind:Mpi_state.Csum ~send:d_recv
      ~recv:tmp ~count:n;
    charge (c.mem *. float_of_int (3 * n));
    for i = 0 to n - 1 do
      let cur = to_float (Memory.load d_send i) in
      Memory.store d_send i (VFloat (cur +. to_float (Memory.load tmp i)));
      Memory.store d_recv i (VFloat 0.0)
    done;
    Memory.free ctx.mem buf;
    VUnit
  | "mpi.adj_allreduce_minmax" ->
    (* y = allreduce_min/max(x): the adjoint flows to the rank(s) whose
       contribution equals the result.
       args: send (cached primal), res (cached primal result), d_send,
       d_recv, count *)
    let m = mpi_state ctx in
    let send = ptr_arg 0
    and res = ptr_arg 1
    and d_send = ptr_arg 2
    and d_recv = ptr_arg 3
    and n = int_arg 4 in
    let buf =
      Memory.alloc ctx.mem ~elem:Ty.Float ~size:n ~kind:Instr.Heap
        ~socket:(Sim.socket ()) ~site:name
    in
    let tmp = { buf; off = 0 } in
    Mpi_state.allreduce m ~rank:ctx.rank ~kind:Mpi_state.Csum ~send:d_recv
      ~recv:tmp ~count:n;
    charge (c.mem *. float_of_int (4 * n));
    for i = 0 to n - 1 do
      let mine = to_float (Memory.load send i) in
      let winner = to_float (Memory.load res i) in
      if mine = winner then begin
        let cur = to_float (Memory.load d_send i) in
        Memory.store d_send i (VFloat (cur +. to_float (Memory.load tmp i)))
      end;
      Memory.store d_recv i (VFloat 0.0)
    done;
    Memory.free ctx.mem buf;
    VUnit
  | "mpi.adj_bcast" ->
    (* y_r = x_root  =>  dx_root := sum_r dy_r; dy_r := 0 for r <> root *)
    let m = mpi_state ctx in
    let d_p = ptr_arg 0 and n = int_arg 1 and root = int_arg 2 in
    let buf =
      Memory.alloc ctx.mem ~elem:Ty.Float ~size:n ~kind:Instr.Heap
        ~socket:(Sim.socket ()) ~site:name
    in
    let tmp = { buf; off = 0 } in
    Mpi_state.allreduce m ~rank:ctx.rank ~kind:Mpi_state.Csum ~send:d_p
      ~recv:tmp ~count:n;
    charge (c.mem *. float_of_int (2 * n));
    for i = 0 to n - 1 do
      if ctx.rank = root then
        Memory.store d_p i (Memory.load tmp i)
      else Memory.store d_p i (VFloat 0.0)
    done;
    Memory.free ctx.mem buf;
    VUnit
  | "task.retval" ->
    (* Return value of a completed (synced) task — used by the AD engine
       to retrieve the augmented task's cache-block handle. *)
    let id = int_arg 0 in
    (match Hashtbl.find_opt ctx.tasks id with
    | Some (_, ret) -> !ret
    | None -> error "task.retval: unknown task %d" id)
  | "ad.map_set" ->
    Hashtbl.replace ctx.admap (int_arg 0) (List.nth vals 1, List.nth vals 2);
    VUnit
  | "ad.map_get1" ->
    (match Hashtbl.find_opt ctx.admap (int_arg 0) with
    | Some (v, _) -> v
    | None -> error "ad.map_get1: unknown key %d" (int_arg 0))
  | "ad.map_get2" ->
    (match Hashtbl.find_opt ctx.admap (int_arg 0) with
    | Some (_, v) -> v
    | None -> error "ad.map_get2: unknown key %d" (int_arg 0))
  (* ---- debugging ---- *)
  | "debug.print_f64" ->
    Format.eprintf "[rank %d] %s = %.17g@." ctx.rank
      (match args with a :: _ -> Var.name a | [] -> "?")
      (float_arg 0);
    VUnit
  | _ -> error "unknown intrinsic %S" name

(* Shared implementation of the two checkpoint intrinsics.
   [explicit_id = Some i] is a program-designated site ([parad.checkpoint],
   id from the outer loop variable); [None] is the reverse-entry site
   ([parad.checkpoint_rev]), which allocates the next id after every site
   this rank has passed. Both ids replay deterministically, which is all
   the resume protocol needs. *)
and checkpoint_site ctx e ~name ~explicit_id ~extras : Value.t =
  let c = ctx.cfg.cost in
  let st = Sim.stats () in
  match ctx.ckpt with
  | None -> VUnit (* no session: checkpoint points cost one arith op *)
  | Some session ->
    if e.team <> None then error "%s inside a parallel region" name;
    if ctx.instrument <> None then
      error "%s: tape-instrumented runs cannot checkpoint" name;
    let id =
      match explicit_id with
      | Some i -> i
      | None -> session.Checkpoint.last_id + 1
    in
    session.Checkpoint.last_id <- max session.Checkpoint.last_id id;
    (match session.Checkpoint.pending with
    | Some target when id < target ->
      (* fast-forward: this iteration is already covered by the
         snapshot we are resuming from *)
      raise Checkpoint.Skip_iteration
    | Some target when id > target ->
      error
        "%s: replay reached checkpoint %d without passing resume target %d \
         (checkpoint ids must replay identically)"
        name id target
    | Some _ ->
      let { Checkpoint.r_cells; r_clock; r_tier } =
        Checkpoint.restore session ~mem:ctx.mem ~cache:ctx.cache ~mpi:ctx.mpi
          ~id
      in
      st.checkpoints_restored <- st.checkpoints_restored + 1;
      st.snap_restores <- st.snap_restores + 1;
      if r_clock > Sim.now () then Sim.set_clock r_clock;
      Sim.charge (c.ckpt_base +. (c.ckpt_per_cell *. float_of_int r_cells));
      (* a disk-tier fetch additionally pays the modelled bandwidth *)
      (match r_tier with
      | Checkpoint.Disk ->
        Sim.charge
          (c.snap_disk_base +. (c.snap_disk_per_cell *. float_of_int r_cells))
      | Checkpoint.Hot -> ());
      VUnit
    | None ->
      (* ABFT boundary: verify the previous interval's seals BEFORE the
         snapshot — a flip since the last boundary must surface here, so
         every snapshot captures verified-clean state *)
      verify_regions ctx;
      let { Checkpoint.t_cells; t_put } =
        Checkpoint.take session ~mem:ctx.mem ~cache:ctx.cache ~mpi:ctx.mpi
          ~roots:(ctx.root_args @ extras) ~id
      in
      st.checkpoints_taken <- st.checkpoints_taken + 1;
      st.snap_count <- st.snap_count + 1;
      st.snap_bytes <- st.snap_bytes + t_put.Checkpoint.p_bytes;
      st.snap_evictions <- st.snap_evictions + t_put.Checkpoint.p_evictions;
      Sim.charge (c.ckpt_base +. (c.ckpt_per_cell *. float_of_int t_cells));
      (* demoting an evicted snapshot to the disk tier pays bandwidth *)
      if t_put.Checkpoint.p_demoted_cells > 0 then
        Sim.charge
          (c.snap_disk_base
          +. (c.snap_disk_per_cell
             *. float_of_int t_put.Checkpoint.p_demoted_cells));
      (* reseal over the just-snapshotted state, then let any due flip
         land on the fresh seals (detected at the next boundary) *)
      if ctx.cache.Cache_rt.protect then
        Sim.charge
          (c.mem *. float_of_int (Cache_rt.seal_all ctx.cache));
      apply_flips ctx;
      VUnit)

(** Call [fname] in an existing context (must run inside {!Sim.run}). *)
let call ctx fname args =
  ctx.root_args <- args;
  fst (call_function ctx ~caller_stack:[] fname args [])

(** Call [fname] with tape slots for the arguments; returns value and
    return-value slot. *)
let call_with_slots ctx fname args slots =
  ctx.root_args <- args;
  call_function ctx ~caller_stack:[] fname args slots
