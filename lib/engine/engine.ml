(** The compiled execution engine.

    Lowers post-plan IR to slot-addressed native closures and runs them on
    {!Sim} strands: the interpreter's scheduler, clocks and statistics,
    with the tree walk replaced by precompiled code. A fork runs its
    members on [Sim.fork] strands, as the interpreter does.

    {b Lowering.} Each function's variables are assigned integer slots in
    four typed register files (float / int / bool / boxed) at compile
    time; every instruction becomes a closure over those slot ids, so the
    hot path runs with no per-step environment allocation, no variable
    hashing, and no boxing of scalar traffic. Straight-line instruction
    runs are fused into segments whose {!Stats} counters are incremented
    in one batch.

    {b Bit-identity.} The engine replicates the interpreter's observable
    semantics exactly: every virtual-time charge is issued individually,
    in the interpreter's order (float accumulation order matters), with
    the same deadline checks; scalar semantics reuse the interpreter's
    exact float discipline (Float.compare ordering, [<=]-min/max, the
    floor-through-int round trip); all non-hot intrinsics delegate to
    {!Interp.intrinsic}, and the cache intrinsics call its SDC hooks
    {!Interp.apply_flips} and {!Interp.corrupt_region}, which read and
    charge the same strand clock cell the engine does. Sanitized and
    [gc_aggressive] contexts fall back to the interpreter entirely. *)

open Parad_ir
open Parad_runtime
open Value

(* ---- runner state ---- *)

(* Deadline mirror of the running Sim engine: the native charge path
   enforces the same virtual budget (bit-identical trip point) and the
   same amortized wall-clock watchdog as Sim.charge. *)
type dl = {
  vdl : float option;
  wall_stop : float option;
  wall_ms : float;
  mutable tick : int;
}

type eframe = {
  f : float array;
  i : int array;
  b : bool array;
  v : Value.t array;
  sl : int array;
      (** tape slots of the float registers (parallel to [f]) — sized only
          for functions compiled in taping mode, [[||]] otherwise *)
  mutable stack_allocs : Value.buffer list ref;
}

type thr = {
  ctx : Interp.ctx;
  fcache : (int, eframe array) Hashtbl.t;
      (** parked member-frame sets by fork site, shared by every strand of
          the run *)
  cost : Cost_model.t;
  st : Stats.t;
  clock : Sim.clk;
      (** the running Sim strand's own clock cell, so the engine and the
          scheduler never copy clocks across *)
  mutable socket : int;
  mutable team : (int * int) option;
  dl : dl option;
  mutable retv : Value.t;  (** return-value hand-off slot *)
  mutable rets : int;  (** return-value tape-slot hand-off (taping mode) *)
  mutable yb : bool;  (** while-condition hand-off slot *)
}


type status = Next | Ret | Yld

type code = thr -> eframe -> status
type sc = thr -> eframe -> unit

type cfun = {
  fn : Func.t;
  file : int array;  (** var id -> register file (0=f 1=i 2=b 3=v) *)
  idx : int array;  (** var id -> slot in its file *)
  nf : int;
  ni : int;
  nb : int;
  nv : int;
  tp : bool;  (** compiled in taping mode: frames carry tape slots *)
  mutable code : code;
}

type prepared = {
  prog : Prog.t;
  funcs : (string * bool, cfun) Hashtbl.t;
      (** compiled functions by name and taping mode *)
  mutable next_site : int;
      (** the next fork site id, a key of [thr.fcache]; every call runs
          code of one [prepared] only *)
}

let prepare prog = { prog; funcs = Hashtbl.create 16; next_site = 0 }

(* ---- clock / deadline ---- *)

let wall_mask = 4095

let check_dl t (d : dl) =
  (match d.vdl with
  | Some lim when t.clock.now > lim ->
    raise
      (Sim.Deadline_exceeded { de_at = t.clock.now; de_limit = lim; de_wall = false })
  | _ -> ());
  match d.wall_stop with
  | Some stop ->
    d.tick <- d.tick + 1;
    if d.tick land wall_mask = 0 && Unix.gettimeofday () > stop then
      raise
        (Sim.Deadline_exceeded
           { de_at = t.clock.now; de_limit = d.wall_ms; de_wall = true })
  | None -> ()

(* [charge] and the [charge_mem] pair are inlined into every closure, so
   the float they add never crosses a call boxed. *)
let[@inline] charge t c =
  t.clock.now <- t.clock.now +. c;
  match t.dl with None -> () | Some d -> check_dl t d

(* The transcendental unit: cheaper when re-evaluated in a
   rematerialization chain (see {!Cost_model.t}). *)
let[@inline] charge_transc t =
  charge t
    (if t.ctx.Interp.remat_depth > 0 then
       t.cost.Cost_model.transcendental_remat
     else t.cost.Cost_model.transcendental)

(* A float [Bin] or [Un]: the transcendental unit when [transc]
   ({!Instr.transcendental_bin}/[_un] of its operator, fixed at compile
   time), one arithmetic op otherwise. *)
let[@inline] charge_fop t transc =
  if transc then charge_transc t else charge t t.cost.Cost_model.arith

let[@inline] charge_mem t (buf : Value.buffer) =
  let c = t.cost in
  let mult =
    if buf.socket <> t.socket then c.Cost_model.numa_remote_mult else 1.0
  in
  charge t (c.Cost_model.mem *. mult)

(* [n] cells of traffic in one charge (the k-wide adjoint intrinsics) *)
let[@inline] charge_mem_n t (buf : Value.buffer) n =
  let c = t.cost in
  let mult =
    if buf.socket <> t.socket then c.Cost_model.numa_remote_mult else 1.0
  in
  charge t (c.Cost_model.mem *. mult *. float_of_int n)

let check_rank t (buf : Value.buffer) =
  if buf.rank <> t.ctx.Interp.rank then
    error "cross-rank memory access: buffer of rank %d touched by rank %d"
      buf.rank t.ctx.Interp.rank

(* ---- taping mode ----

   Taping-mode compilations are kept under their own key in the function
   table and only ever run under an instrumented context, so the hook
   lookup cannot fail on well-formed entries. The record hook only writes
   the row: {!tape_row} charges [tape_record] on [t.clock] (the Sim
   strand's own cell) and counts the entry in [t.st], as
   {!Interp.tape_row} does through [Sim]. *)

let tape_ins t =
  match t.ctx.Interp.instrument with
  | Some i -> i
  | None -> error "engine: taped code run without instrumentation"

let[@inline] tape_row t (ins : Interp.instrument) s1 s2 =
  if s1 = 0 && s2 = 0 then 0
  else begin
    charge t t.cost.Cost_model.tape_record;
    t.st.Stats.tape_entries <- t.st.Stats.tape_entries + 1;
    ins.Interp.record s1 s2
  end

(* A cache store that wrote a new cell counts in [cache_cells] and may
   raise [cache_peak], as in the interpreter. *)
let[@inline] count_new_cell t cache ~before =
  if Cache_rt.cells_written cache > before then begin
    t.st.Stats.cache_cells <- t.st.Stats.cache_cells + 1;
    let peak = Cache_rt.peak_cells cache in
    if peak > t.st.Stats.cache_peak then t.st.Stats.cache_peak <- peak
  end

(* ---- frames ---- *)

let new_eframe cf =
  {
    f = Array.make (max cf.nf 1) 0.0;
    i = Array.make (max cf.ni 1) 0;
    b = Array.make (max cf.nb 1) false;
    v = Array.make (max cf.nv 1) VUnit;
    sl = (if cf.tp then Array.make (max cf.nf 1) 0 else [||]);
    stack_allocs = ref [];
  }

(* ---- scalar semantics (identical to the interpreter's) ---- *)

let fmin a b = if (a : float) <= b then a else b
let fmax a b = if (a : float) >= b then a else b

(* ---- lowering: slot assignment ---- *)

(* Give each variable of [roots] and of [body] (defs, uses, loop and fork
   indices, region params) the next slot of its type's register file.
   [n] bounds the variable ids; the result also lists the ids placed. *)
let assign_slots fn ~tp ~n roots body =
  let file = Array.make n 3 in
  let idx = Array.make n 0 in
  let seen = Bytes.make n '\000' in
  let placed = ref [] in
  let nf = ref 0 and ni = ref 0 and nb = ref 0 and nv = ref 0 in
  let place v =
    let id = Var.id v in
    if Bytes.get seen id = '\000' then begin
      Bytes.set seen id '\001';
      placed := id :: !placed;
      let fl, cell =
        match Var.ty v with
        | Ty.Float -> 0, nf
        | Ty.Int -> 1, ni
        | Ty.Bool -> 2, nb
        | Ty.Unit | Ty.Ptr _ -> 3, nv
      in
      file.(id) <- fl;
      idx.(id) <- !cell;
      incr cell
    end
  in
  List.iter place roots;
  Instr.fold_instrs
    (fun () i ->
      List.iter place (Instr.defs i);
      List.iter place (Instr.uses i);
      (match i with
      | Instr.For { iv; _ } | Instr.Workshare { iv; _ } -> place iv
      | Instr.Fork { tid; _ } -> place tid
      | _ -> ());
      List.iter (fun r -> List.iter place r.Instr.params) (Instr.regions i))
    () body;
  ( {
      fn;
      file;
      idx;
      nf = !nf;
      ni = !ni;
      nb = !nb;
      nv = !nv;
      tp;
      code = (fun _ _ -> error "engine: function compiled without a body");
    },
    !placed )

(* ---- member frames ----

   The interpreter enters a fork member by copying the entire enclosing
   frame — O(function vars) per member, which dwarfs the members' real
   work on wide teams. The engine's member frames instead hold compact
   slots for exactly the variables the body touches, and only the body's
   *live-in* variables (reads not dominated by a member-local write on
   every path) are copied from the parent; everything else is
   write-before-read scratch whose initial contents are unobservable.
   That same unobservability lets frames be recycled: each fork site
   parks its member frames in [thr.fcache] between executions, so a
   steady-state fork costs O(live-in) per member instead of
   O(function). *)

(* Forward dominance scan: walking the body in program order, a use of a
   variable with no write textually before it on the current path reads
   the parent's value in the first iteration. Region defs never escape
   their region (loops may run zero times, if-branches may not be taken),
   which only over-approximates the live-in set — harmless. The written
   set is one table scoped by an undo trail, so the scan touches only the
   body's variables; the result marks the live-in ids. *)
let region_live_in n (r : Instr.region) entry_defs =
  let live = Bytes.make n '\000' in
  let written = Bytes.make n '\000' in
  (* ids written since the enclosing region began *)
  let trail = ref [] in
  let def v =
    let id = Var.id v in
    if Bytes.get written id = '\000' then begin
      Bytes.set written id '\001';
      trail := id :: !trail
    end
  in
  let use v =
    let id = Var.id v in
    if Bytes.get written id = '\000' then Bytes.set live id '\001'
  in
  (* [scoped defs il]: scan [il] after writing [defs], then forget every
     write made inside *)
  let rec scoped defs il =
    let outer = !trail in
    List.iter def defs;
    scan il;
    let rec undo () =
      match !trail with
      | id :: rest when !trail != outer ->
        Bytes.set written id '\000';
        trail := rest;
        undo ()
      | _ -> ()
    in
    undo ()
  and scan il =
    List.iter
      (fun (i : Instr.t) ->
        List.iter use (Instr.uses i);
        (match i with
        | Instr.For { iv; body; _ } | Instr.Workshare { iv; body; _ } ->
          scoped (iv :: body.Instr.params) body.Instr.body
        | Instr.Fork { tid; body; _ } ->
          scoped (tid :: body.Instr.params) body.Instr.body
        | _ ->
          List.iter
            (fun (rg : Instr.region) -> scoped rg.Instr.params rg.Instr.body)
            (Instr.regions i));
        List.iter def (Instr.defs i))
      il
  in
  scoped (entry_defs @ r.Instr.params) r.Instr.body;
  live

let make_body_frame prep (parent : cfun) (r : Instr.region) ~entry_defs =
  let n = Array.length parent.file in
  let sub, placed =
    assign_slots parent.fn ~tp:false ~n (entry_defs @ r.Instr.params)
      r.Instr.body
  in
  let file = sub.file and idx = sub.idx in
  (* parent-slot -> member-slot copy pairs, packed [src; dst; ...],
     live-in variables only, by increasing id *)
  let live = region_live_in n r entry_defs in
  let mf = ref [] and mi = ref [] and mb = ref [] and mv = ref [] in
  List.iter
    (fun id ->
      let moves =
        match file.(id) with 0 -> mf | 1 -> mi | 2 -> mb | _ -> mv
      in
      moves := idx.(id) :: parent.idx.(id) :: !moves)
    (List.sort Int.compare
       (List.filter (fun id -> Bytes.get live id <> '\000') placed));
  let pack l = Array.of_list (List.rev !l) in
  let cf = pack mf and ci = pack mi and cb = pack mb and cv = pack mv in
  let site = prep.next_site in
  prep.next_site <- site + 1;
  (* Point a (possibly recycled) member frame at the current execution:
     current stack-alloc list, live-in values. *)
  let refresh (m : eframe) (fr : eframe) =
    m.stack_allocs <- fr.stack_allocs;
    let k = Array.length cf in
    let j = ref 0 in
    while !j < k do
      m.f.(cf.(!j + 1)) <- fr.f.(cf.(!j));
      j := !j + 2
    done;
    let k = Array.length ci in
    let j = ref 0 in
    while !j < k do
      m.i.(ci.(!j + 1)) <- fr.i.(ci.(!j));
      j := !j + 2
    done;
    let k = Array.length cb in
    let j = ref 0 in
    while !j < k do
      m.b.(cb.(!j + 1)) <- fr.b.(cb.(!j));
      j := !j + 2
    done;
    let k = Array.length cv in
    let j = ref 0 in
    while !j < k do
      m.v.(cv.(!j + 1)) <- fr.v.(cv.(!j));
      j := !j + 2
    done
  in
  let checkout (t : thr) (fr : eframe) width =
    let frames =
      match Hashtbl.find_opt t.fcache site with
      | Some a when Array.length a >= width ->
        Hashtbl.remove t.fcache site;
        a
      | _ -> Array.init width (fun _ -> new_eframe sub)
    in
    for m = 0 to width - 1 do
      refresh frames.(m) fr
    done;
    frames
  in
  let checkin (t : thr) frames = Hashtbl.replace t.fcache site frames in
  sub, checkout, checkin

(* ---- compile-time accessors ---- *)

type ydest = YNone | YVars of Var.t list | YCond

type env = {
  prep : prepared;
  cf : cfun;
  fname : string;
  ydest : ydest;
  taped : bool;  (** compiling for an instrumented (tape-baseline) run *)
  consts : (int, int) Hashtbl.t Lazy.t;
      (** var id -> value of each int var a [Const] of the function
          defines: the static operands of its lane calls, built when the
          first one is lowered *)
}

(* The [consts] table of [fn]. The IR is SSA, so a var a [Const] defines
   holds that value wherever it is read. *)
let int_consts (fn : Func.t) =
  let tbl = Hashtbl.create 64 in
  let rec walk il =
    List.iter
      (fun (i : Instr.t) ->
        (match i with
        | Instr.Const (v, Instr.Cint n) when Ty.equal (Var.ty v) Ty.Int ->
          Hashtbl.replace tbl (Var.id v) n
        | _ -> ());
        List.iter
          (fun (r : Instr.region) -> walk r.Instr.body)
          (Instr.regions i))
      il
  in
  walk fn.Func.body;
  tbl

let slot env v = env.cf.idx.(Var.id v)

(* Boxed read of any variable. *)
let reader env v : eframe -> Value.t =
  let s = slot env v in
  match Var.ty v with
  | Ty.Float -> fun fr -> VFloat fr.f.(s)
  | Ty.Int -> fun fr -> VInt fr.i.(s)
  | Ty.Bool -> fun fr -> VBool fr.b.(s)
  | Ty.Unit | Ty.Ptr _ -> fun fr -> fr.v.(s)

(* Boxed write into a typed slot. Conversions raise the interpreter's
   error messages; on well-typed IR they never fire. *)
let writer env v : eframe -> Value.t -> unit =
  let s = slot env v in
  match Var.ty v with
  | Ty.Float -> fun fr x -> fr.f.(s) <- Value.to_float x
  | Ty.Int -> fun fr x -> fr.i.(s) <- Value.to_int x
  | Ty.Bool -> fun fr x -> fr.b.(s) <- Value.to_bool x
  | Ty.Unit | Ty.Ptr _ -> fun fr x -> fr.v.(s) <- x

let ird env v : eframe -> int =
  let s = slot env v in
  match Var.ty v with
  | Ty.Int -> fun fr -> fr.i.(s)
  | _ ->
    let r = reader env v in
    fun fr -> Value.to_int (r fr)

let brd env v : eframe -> bool =
  let s = slot env v in
  match Var.ty v with
  | Ty.Bool -> fun fr -> fr.b.(s)
  | _ ->
    let r = reader env v in
    fun fr -> Value.to_bool (r fr)

(* Raw slot indices for the k-wide lane calls: their run-time operands
   are read straight out of the typed frame arrays instead of through
   generic reader closures (a [caml_apply] per argument, and a boxed
   float per float read). The argument types are fixed by the reverse
   engine's emission; anything else is malformed IR. *)
let pslot env v =
  match Var.ty v with
  | Ty.Ptr _ -> slot env v
  | t -> error "adjoint intrinsic: pointer argument has type %a" Ty.pp t

let islot env v =
  match Var.ty v with
  | Ty.Int -> slot env v
  | t -> error "adjoint intrinsic: int argument has type %a" Ty.pp t

let fslot env v =
  match Var.ty v with
  | Ty.Float -> slot env v
  | t -> error "adjoint intrinsic: float argument has type %a" Ty.pp t

let bslot env v =
  match Var.ty v with
  | Ty.Bool -> slot env v
  | t -> error "adjoint intrinsic: bool argument has type %a" Ty.pp t

(* Same-frame move [src -> dst], register-to-register when the types
   agree, boxed otherwise. In taping mode a float move also carries the
   source's tape slot (the interpreter's [Select]/yield slot copies); a
   cross-type write into a float leaves the passive slot. *)
let xmove env src dst : eframe -> unit =
  if Ty.equal (Var.ty src) (Var.ty dst) then begin
    let s = slot env src and d = slot env dst in
    match Var.ty dst with
    | Ty.Float ->
      if env.taped then fun fr ->
        fr.f.(d) <- fr.f.(s);
        fr.sl.(d) <- fr.sl.(s)
      else fun fr -> fr.f.(d) <- fr.f.(s)
    | Ty.Int -> fun fr -> fr.i.(d) <- fr.i.(s)
    | Ty.Bool -> fun fr -> fr.b.(d) <- fr.b.(s)
    | Ty.Unit | Ty.Ptr _ -> fun fr -> fr.v.(d) <- fr.v.(s)
  end
  else begin
    let r = reader env src and w = writer env dst in
    match Var.ty dst with
    | Ty.Float when env.taped ->
      let d = slot env dst in
      fun fr ->
        w fr (r fr);
        fr.sl.(d) <- 0
    | _ -> fun fr -> w fr (r fr)
  end

(* Loop-variable write (always an int in well-formed IR). *)
let ivw env v : eframe -> int -> unit =
  let s = slot env v in
  match Var.ty v with
  | Ty.Int -> fun fr n -> fr.i.(s) <- n
  | _ ->
    let w = writer env v in
    fun fr n -> w fr (VInt n)

(* Caller-frame -> callee-frame argument move (types already checked).
   Taped calls pass the argument's tape slot along with its value. *)
let arg_move env (ccf : cfun) (p : Var.t) (a : Var.t) :
    eframe -> eframe -> unit =
  let s = env.cf.idx.(Var.id a) and d = ccf.idx.(Var.id p) in
  match Var.ty p with
  | Ty.Float ->
    if env.taped then fun src dst ->
      dst.f.(d) <- src.f.(s);
      dst.sl.(d) <- src.sl.(s)
    else fun src dst -> dst.f.(d) <- src.f.(s)
  | Ty.Int -> fun src dst -> dst.i.(d) <- src.i.(s)
  | Ty.Bool -> fun src dst -> dst.b.(d) <- src.b.(s)
  | Ty.Unit | Ty.Ptr _ -> fun src dst -> dst.v.(d) <- src.v.(s)

(* Boxed write of argument [a] into param [p]'s slot of [cf]'s frame. *)
let write_boxed (cf : cfun) (p : Var.t) fr (a : Value.t) =
  let d = cf.idx.(Var.id p) in
  match Var.ty p with
  | Ty.Float -> fr.f.(d) <- Value.to_float a
  | Ty.Int -> fr.i.(d) <- Value.to_int a
  | Ty.Bool -> fr.b.(d) <- Value.to_bool a
  | Ty.Unit | Ty.Ptr _ -> fr.v.(d) <- a

(* ---- the k-wide lane call ----

   adj.lanes_k ({!Interp.split_lanes}) lowered with its static operands
   resolved from the [Const]s that define them: the lane count k, the
   zero flag, each group's mode and kind ({!Interp.acc_kind}), and the
   lane-file offsets — the source's when it is the call's file var, and
   each group's whose host is. An operand held in another var is read at
   run time, its offset from its int slot, and keeps the run-time
   [buf == file.buf] test. The call compiles to one closure, picked by
   where the source lies (the file at a constant offset, or a pointer at
   a run-time one) and by how many groups there are, that keeps only the
   run-time work of {!Interp.intrinsic}'s arm: the pointer reads; the
   bounds and liveness checks of the same groups, raising the same
   message in the same order; the take and each group's lane loop
   ({!Interp.lane_loop}, the interpreter's own, chosen at lowering and
   given the frame's float and bool files); and the charges, each issued
   on its own with
   the same float, in the same order (the clock is a float, so two
   charges merged could round differently once a NUMA-remote charge has
   left it non-integral). Its flop and atomic counts are summed at
   lowering. A call whose static operand is not an int constant, or
   whose k, mode or kind the interpreter would reject, is not lowered: it
   delegates to the interpreter. *)

(* [v] as a pointer; any other value raises the interpreter's message *)
let[@inline] ptr (v : Value.t) =
  match v with VPtr p -> p | v -> Value.to_ptr v

(* The cells of the [k]-lane group of [p] at [base]: the fast path of
   {!Interp.fplane}, which re-checks a failing group and raises its
   message. *)
let[@inline] lanes ~who (p : Value.ptr) base k =
  match p.buf.data with
  | FCells a
    when (not p.buf.freed) && p.off + base >= 0
         && p.off + base + k <= Array.length a ->
    a
  | _ -> Interp.fplane ~who p ~base ~n:k

(* Where a lane call's source or group lies: the call's file var at a
   constant offset, or a pointer slot at the offset in an int slot. *)
type place = File of int | Ptr of int * int

(* Check the groups at [places] in order: the first failing one raises.
   Out of line, since a function that builds a closure is never inlined,
   and [file_lanes] must be. *)
let recheck ~who ~k places fr file =
  List.iter
    (fun p ->
      let h, o =
        match p with File o -> file, o | Ptr (s, so) -> ptr fr.v.(s), fr.i.(so)
      in
      ignore (Interp.fplane ~who h ~base:o ~n:k))
    places

(* The cells of the lane file [file] when every group of it that a call
   touches at a constant offset (all within [lo, hi)) is in bounds of a
   live file. Otherwise one of them fails, and the call's groups,
   checked in the interpreter's order (the scratch, the source, each
   group), raise the first failure (with k >= 1 a failing group always
   raises, so the last line only types). *)
let[@inline] file_lanes ~who ~k ~lo ~hi places fr (file : Value.ptr) =
  match file.buf.data with
  | FCells a
    when (not file.buf.freed) && file.off + lo >= 0
         && file.off + hi <= Array.length a ->
    a
  | _ ->
    recheck ~who ~k places fr file;
    Interp.fplane ~who file ~base:0 ~n:k

let[@inline] count_cells (st : Stats.t) ~reads ~writes =
  st.Stats.loads <- st.Stats.loads + reads;
  st.Stats.stores <- st.Stats.stores + writes

let[@inline] count_ops (st : Stats.t) ~flops ~atomics =
  st.Stats.flops <- st.Stats.flops + flops;
  st.Stats.atomics <- st.Stats.atomics + atomics

(* Take loop: move the [k] lanes of [ha] at [ho] into [sa] at [so],
   zeroing them when [zero]. *)
let[@inline] take_loop ~zero (sa : float array) so (ha : float array) ho k =
  if zero then
    for l = 0 to k - 1 do
      Array.unsafe_set sa (so + l) (Array.unsafe_get ha (ho + l));
      Array.unsafe_set ha (ho + l) 0.0
    done
  else
    for l = 0 to k - 1 do
      Array.unsafe_set sa (so + l) (Array.unsafe_get ha (ho + l))
    done

(* A group of a lane call, resolved at lowering; its place is kept in
   flat fields, which the hot closures read without a variant's
   indirection. *)
type group = {
  g_file : bool;  (** the host is the call's file var *)
  g_h : int;  (** the host's pointer slot, outside the file *)
  g_o : int;  (** the host's offset: a constant in the file, else a slot *)
  g_kind : Interp.acc_kind;
  g_loop : Interp.lane_loop;
  g_nops : float;  (** lanes times {!Interp.group_ops} *)
}

(* Group step: fold the scratch (the first [k] lanes of the file, cells
   [fa]) into the group's lanes, then charge its formula ([nops] units)
   and, by its kind, one atomic per lane, or the plane read and write
   (the write alone, for a write or a copy) of a host outside the file.
   A [Write]'s precondition is left to the interpreter to check. *)
let[@inline] group_step t ~who fr (file : Value.ptr) fa ~k ~fk g =
  let h = if g.g_file then file else ptr fr.v.(g.g_h) in
  let o = if g.g_file then g.g_o else fr.i.(g.g_o) in
  let ha = if g.g_file then fa else lanes ~who h o k in
  g.g_loop fr.f fr.b ha (h.off + o) fa file.off;
  charge t (t.cost.Cost_model.arith *. g.g_nops);
  match g.g_kind with
  | Atomic -> charge t (t.cost.Cost_model.atomic *. fk)
  | Add when h.buf != file.buf ->
    charge_mem_n t h.buf (2 * k);
    count_cells t.st ~reads:k ~writes:k
  | (Write | Copy) when h.buf != file.buf ->
    charge_mem_n t h.buf k;
    count_cells t.st ~reads:0 ~writes:k
  | Add | Write | Copy -> ()

let rec group_steps t ~who fr file fa ~k ~fk = function
  | [] -> ()
  | g :: gs ->
    group_step t ~who fr file fa ~k ~fk g;
    group_steps t ~who fr file fa ~k ~fk gs

(* The closure of lane call [args], with result [v]: [None] when a static
   operand is not an int constant, or k, a mode or a kind is one the
   interpreter rejects. *)
let lane_call env v args : sc option =
  let ( let* ) = Option.bind in
  let static x = Hashtbl.find_opt (Lazy.force env.consts) (Var.id x) in
  let* l = Interp.split_lanes args in
  let* k = static l.l_k in
  let* k = if k >= 1 then Some k else None in
  let* zero = Option.map (( <> ) 0) (static l.l_zero) in
  let who = env.fname and s_v = slot env v and fk = float_of_int k in
  let s_file = pslot env l.l_file in
  (* the file var at a constant offset, or another pointer *)
  let place p off =
    if Var.equal p l.l_file then Option.map (fun o -> File o) (static off)
    else Some (Ptr (pslot env p, islot env off))
  in
  let* src = place l.l_src l.l_soff in
  (* the groups, their places, and the flops and atomics they count per
     call *)
  let rec groups acc ats ~flops ~atomics = function
    | [] -> Some (List.rev acc, List.rev ats, flops, atomics)
    | (g : Var.t Interp.lane_group) :: rest ->
      let* at = place g.g_host g.g_off in
      let* mode = static g.g_mode in
      let* g_kind = Option.bind (static g.g_kind) Interp.acc_kind_of_code in
      let* g_loop =
        Interp.lane_loop ~k ~mode ~kind:g_kind ~c1:(fslot env g.g_c1)
          ~c2:(fslot env g.g_c2) ~cnd:(bslot env g.g_cond)
      in
      let g_file, g_h, g_o =
        match at with File o -> true, 0, o | Ptr (s, so) -> false, s, so
      in
      let g_nops = float_of_int (k * Interp.group_ops ~mode g_kind) in
      groups ({ g_file; g_h; g_o; g_kind; g_loop; g_nops } :: acc) (at :: ats) rest
        ~flops:(flops + (k * Interp.group_flops ~mode g_kind))
        ~atomics:(if g_kind = Atomic then atomics + k else atomics)
  in
  let* gs, ats, flops, atomics = groups [] [] ~flops:0 ~atomics:0 l.l_groups in
  let places = File 0 :: src :: ats in
  let offs = List.filter_map (function File o -> Some o | Ptr _ -> None) places in
  let lo = List.fold_left min 0 offs and hi = List.fold_left max 0 offs + k in
  (* a statement reversal (one or two groups) and a load reversal (one
     group at a run-time offset) take from the file and zero: their
     closures are the hot ones *)
  match src, gs with
  | File so, [ g1 ] when zero ->
    Some
      (fun t fr ->
        charge t t.cost.Cost_model.arith;
        let file = ptr fr.v.(s_file) in
        let fa = file_lanes ~who ~k ~lo ~hi places fr file in
        take_loop ~zero:true fa file.off fa (file.off + so) k;
        group_step t ~who fr file fa ~k ~fk g1;
        count_ops t.st ~flops ~atomics;
        fr.v.(s_v) <- VUnit)
  | File so, [ g1; g2 ] when zero ->
    Some
      (fun t fr ->
        charge t t.cost.Cost_model.arith;
        let file = ptr fr.v.(s_file) in
        let fa = file_lanes ~who ~k ~lo ~hi places fr file in
        take_loop ~zero:true fa file.off fa (file.off + so) k;
        group_step t ~who fr file fa ~k ~fk g1;
        group_step t ~who fr file fa ~k ~fk g2;
        count_ops t.st ~flops ~atomics;
        fr.v.(s_v) <- VUnit)
  | _ ->
    Some
      (fun t fr ->
        charge t t.cost.Cost_model.arith;
        let file = ptr fr.v.(s_file) in
        let fa = file_lanes ~who ~k ~lo ~hi places fr file in
        (match src with
        | File so -> take_loop ~zero fa file.off fa (file.off + so) k
        | Ptr (s, so) ->
          let src = ptr fr.v.(s) and so = fr.i.(so) in
          take_loop ~zero fa file.off (lanes ~who src so k) (src.off + so) k;
          if src.buf != file.buf then begin
            charge_mem_n t src.buf (if zero then 2 * k else k);
            count_cells t.st ~reads:k ~writes:(if zero then k else 0)
          end);
        group_steps t ~who fr file fa ~k ~fk gs;
        count_ops t.st ~flops ~atomics;
        fr.v.(s_v) <- VUnit)

(* ---- calls ---- *)

(* Run [cf]'s body on its filled frame [nfr] the way the interpreter runs
   a call, leaving the result in [t.retv] and its tape slot in [t.rets].
   The interpreter gives each call a fresh team-less ectx; the engine's
   thr is shared, so save/restore — exception-protected because
   Skip_iteration legitimately crosses call frames. *)
let run_frame t (cf : cfun) nfr =
  let name = cf.fn.Func.name in
  let saved = t.team in
  t.team <- None;
  let out =
    match cf.code t nfr with
    | o ->
      t.team <- saved;
      o
    | exception ex ->
      t.team <- saved;
      raise ex
  in
  List.iter
    (fun (b : Value.buffer) ->
      if not b.freed then Memory.free ~site:name t.ctx.Interp.mem b)
    !(nfr.stack_allocs);
  match out with
  | Ret -> ()
  | Next when Ty.equal cf.fn.Func.ret_ty Ty.Unit ->
    t.retv <- VUnit;
    t.rets <- 0
  | Next | Yld -> error "function %s did not return" name

(* ---- the compiler ---- *)

(* Run a block's compiled items [k..n) until one returns or yields: a
   toplevel loop, so a block step builds no closure. *)
let rec run_items (items : code array) n k t fr =
  if k = n then Next
  else
    match (Array.unsafe_get items k) t fr with
    | Next -> run_items items n (k + 1) t fr
    | (Ret | Yld) as o -> o

(* The body of a [For] or [While] iteration: a [Skip_iteration], which a
   checkpoint site raises while a resuming replay fast-forwards, ends the
   iteration as if it had completed. *)
let run_iter (body : code) t fr =
  try body t fr with Checkpoint.Skip_iteration -> Next

let rec compile_block env (body : Instr.t list) : code =
  let is_ctrl = function
    | Instr.If _ | Instr.For _ | Instr.While _ | Instr.Return _
    | Instr.Yield _ -> true
    | _ -> false
  in
  let flush acc seg =
    match seg with [] -> acc | _ -> `Seg (List.rev seg) :: acc
  in
  let rec chunks acc seg = function
    | [] -> List.rev (flush acc seg)
    | i :: rest when is_ctrl i -> chunks (`Ctl i :: flush acc seg) [] rest
    | i :: rest -> chunks acc (i :: seg) rest
  in
  let items =
    Array.of_list
      (List.map
         (function
           | `Seg l -> compile_segment env l
           | `Ctl i -> compile_ctrl env i)
         (chunks [] [] body))
  in
  match Array.length items with
  | 0 -> fun _ _ -> Next
  | 1 -> items.(0)
  | n -> fun t fr -> run_items items n 0 t fr

(* A straight-line segment: every instruction always executes exactly
   once, so the per-instruction Stats counters are batched into one
   prologue (virtual-time charges stay per-op — float order matters). *)
and compile_segment env (l : Instr.t list) : code =
  let ops = Array.of_list (List.map (compile_op env) l) in
  let n = Array.length ops in
  let count p = List.fold_left (fun k i -> if p i then k + 1 else k) 0 l in
  let nins = List.length l in
  let nfl =
    count (function
      | Instr.Bin (v, _, _, _) | Instr.Un (v, _, _) -> (
        match Var.ty v with Ty.Float -> true | _ -> false)
      | _ -> false)
  in
  let nld = count (function Instr.Load _ -> true | _ -> false) in
  let nst = count (function Instr.Store _ -> true | _ -> false) in
  let nat = count (function Instr.AtomicAdd _ -> true | _ -> false) in
  let nal = count (function Instr.Alloc _ -> true | _ -> false) in
  let nfre = count (function Instr.Free _ -> true | _ -> false) in
  fun t fr ->
    let s = t.st in
    s.Stats.instrs <- s.Stats.instrs + nins;
    if nfl > 0 then s.Stats.flops <- s.Stats.flops + nfl;
    if nld > 0 then s.Stats.loads <- s.Stats.loads + nld;
    if nst > 0 then s.Stats.stores <- s.Stats.stores + nst;
    if nat > 0 then s.Stats.atomics <- s.Stats.atomics + nat;
    if nal > 0 then s.Stats.allocs <- s.Stats.allocs + nal;
    if nfre > 0 then s.Stats.frees <- s.Stats.frees + nfre;
    for k = 0 to n - 1 do
      (Array.unsafe_get ops k) t fr
    done;
    Next

(* One straight-line instruction. A taping-mode compile runs the plain
   closure and then the tape-slot update the interpreter's instrument
   hooks make for it; the update is chosen here, at compile time, so
   untaped closures carry no taping code. *)
and compile_op env (i : Instr.t) : sc =
  if not env.taped then compile_straight env i
  else
    match i with
    | Instr.Spawn _ ->
      fun _ _ -> error "tape baseline cannot differentiate task parallelism"
    | Instr.Fork _ ->
      fun _ _ ->
        error "tape baseline cannot differentiate fork/join parallelism"
    | _ -> (
      let op = compile_straight env i in
      let is_float v = Ty.equal (Var.ty v) Ty.Float in
      match i with
      | Instr.Bin (v, _, a, b) when is_float v && is_float a && is_float b ->
        (* operands are read first: the plain closure may overwrite them *)
        let sa = slot env a and sb = slot env b and d = slot env v in
        fun t fr ->
          let ins = tape_ins t in
          let s = ins.Interp.scratch in
          s.(2) <- fr.f.(sa);
          s.(3) <- fr.f.(sb);
          op t fr;
          s.(4) <- fr.f.(d);
          Interp.partials s i;
          fr.sl.(d) <- tape_row t ins fr.sl.(sa) fr.sl.(sb)
      | Instr.Un (v, _, a) when is_float v && is_float a ->
        let sa = slot env a and d = slot env v in
        fun t fr ->
          let ins = tape_ins t in
          let s = ins.Interp.scratch in
          s.(2) <- fr.f.(sa);
          op t fr;
          s.(4) <- fr.f.(d);
          Interp.partials s i;
          fr.sl.(d) <- tape_row t ins fr.sl.(sa) 0
      | Instr.Call (v, name, _)
        when is_float v && not (String.contains name '.') ->
        let d = slot env v in
        fun t fr ->
          op t fr;
          fr.sl.(d) <- t.rets
      | (Instr.Const (v, _) | Instr.Un (v, _, _) | Instr.Call (v, _, _))
        when is_float v ->
        (* constants, int-to-float and intrinsic results are passive *)
        let d = slot env v in
        fun t fr ->
          op t fr;
          fr.sl.(d) <- 0
      | Instr.Load (v, p, ix) when is_float v ->
        let sp = slot env p and sx = slot env ix and d = slot env v in
        fun t fr ->
          op t fr;
          let ptr = Value.to_ptr fr.v.(sp) in
          fr.sl.(d) <-
            ((tape_ins t).Interp.buf_slots ptr.buf).(ptr.off + fr.i.(sx))
      | Instr.Store (p, ix, x) when is_float x ->
        let sp = slot env p and sx = slot env ix and s = slot env x in
        fun t fr ->
          op t fr;
          let ptr = Value.to_ptr fr.v.(sp) in
          ((tape_ins t).Interp.buf_slots ptr.buf).(ptr.off + fr.i.(sx)) <-
            fr.sl.(s)
      | Instr.AtomicAdd (p, ix, x) ->
        let sp = slot env p and sx = slot env ix and s = slot env x in
        fun t fr ->
          op t fr;
          let ins = tape_ins t in
          let ptr = Value.to_ptr fr.v.(sp) in
          let bs = ins.Interp.buf_slots ptr.buf and c = ptr.off + fr.i.(sx) in
          Interp.partials ins.Interp.scratch i;
          bs.(c) <- tape_row t ins bs.(c) fr.sl.(s)
      | _ -> op)

and compile_straight env (i : Instr.t) : sc =
  match i with
  | Instr.Const (v, k) -> (
    match k, Var.ty v with
    | Instr.Cfloat x, Ty.Float ->
      let d = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.f.(d) <- x
    | Instr.Cint x, Ty.Int ->
      let d = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.i.(d) <- x
    | Instr.Cbool x, Ty.Bool ->
      let d = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- x
    | _ ->
      let w = writer env v in
      let x =
        match k with
        | Instr.Cunit -> VUnit
        | Instr.Cbool b -> VBool b
        | Instr.Cint n -> VInt n
        | Instr.Cfloat f -> VFloat f
        | Instr.Cnull ty -> VNull ty
      in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        w fr x)
  | Instr.Bin (v, op, a, b) -> (
    match Var.ty a, Var.ty b, Var.ty v with
    | Ty.Float, Ty.Float, Ty.Float -> compile_fbin env v op a b
    | Ty.Int, Ty.Int, Ty.Int -> compile_ibin env v op a b
    | _ -> fun _ _ -> error "bad operands for %s" (Instr.binop_name op))
  | Instr.Cmp (v, op, a, b) -> compile_cmp env v op a b
  | Instr.Un (v, op, a) -> compile_un env v op a
  | Instr.Select (v, cond, a, b) ->
    let crd = brd env cond in
    let mva = xmove env a v
    and mvb = xmove env b v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      if crd fr then mva fr else mvb fr
  | Instr.Alloc (v, elem, n, kind) ->
    let n_rd = ird env n in
    let w = writer env v in
    let site = env.fname ^ "/" ^ Var.name v in
    let gc_extra = match kind with Instr.Gc -> true | _ -> false in
    let on_stack = match kind with Instr.Stack -> true | _ -> false in
    fun t fr ->
      let size = n_rd fr in
      t.st.Stats.alloc_cells <- t.st.Stats.alloc_cells + size;
      charge t
        (t.cost.Cost_model.alloc_base
        +. (t.cost.Cost_model.alloc_per_cell *. float_of_int size)
        +. (if gc_extra then t.cost.Cost_model.gc_alloc_extra else 0.0));
      let buf =
        Memory.alloc t.ctx.Interp.mem ~elem ~size ~kind ~socket:t.socket ~site
      in
      if on_stack then fr.stack_allocs := buf :: !(fr.stack_allocs);
      w fr (VPtr { buf; off = 0 })
  | Instr.Free p ->
    let p_rd = reader env p in
    let fname = env.fname in
    fun t fr -> (
      charge t t.cost.Cost_model.free;
      match p_rd fr with
      | VPtr { buf; off = _ } -> Memory.free ~site:fname t.ctx.Interp.mem buf
      | VNull _ -> ()
      | _ -> error "free of non-pointer")
  | Instr.Load (v, p, ix) -> (
    let p_rd = reader env p
    and ix_rd = ird env ix in
    let who = Some env.fname in
    match Var.ty v with
    | Ty.Float ->
      let d = slot env v in
      fun t fr ->
        let ptr = Value.to_ptr (p_rd fr) in
        check_rank t ptr.buf;
        charge_mem t ptr.buf;
        let i = Memory.check_access ?who ptr (ix_rd fr) in
        fr.f.(d) <-
          (match ptr.buf.data with
          | FCells a -> Array.unsafe_get a i
          | VCells a -> Value.to_float a.(i))
    | _ ->
      let w = writer env v in
      fun t fr ->
        let ptr = Value.to_ptr (p_rd fr) in
        check_rank t ptr.buf;
        charge_mem t ptr.buf;
        w fr (Memory.load ?who ptr (ix_rd fr)))
  | Instr.Store (p, ix, x) -> (
    let p_rd = reader env p
    and ix_rd = ird env ix in
    let who = Some env.fname in
    match Var.ty x with
    | Ty.Float ->
      let s = slot env x in
      fun t fr ->
        let ptr = Value.to_ptr (p_rd fr) in
        check_rank t ptr.buf;
        charge_mem t ptr.buf;
        let idx = ix_rd fr in
        let i = Memory.check_access ?who ptr idx in
        (match ptr.buf.data with
        | FCells a -> Array.unsafe_set a i fr.f.(s)
        | VCells _ -> Memory.store ?who ptr idx (VFloat fr.f.(s)))
    | _ ->
      let x_rd = reader env x in
      fun t fr ->
        let ptr = Value.to_ptr (p_rd fr) in
        check_rank t ptr.buf;
        charge_mem t ptr.buf;
        let idx = ix_rd fr in
        Memory.store ?who ptr idx (x_rd fr))
  | Instr.Gep (v, p, ix) ->
    let p_rd = reader env p
    and ix_rd = ird env ix in
    let w = writer env v in
    fun t fr -> (
      charge t t.cost.Cost_model.arith;
      match p_rd fr with
      | VPtr ptr -> w fr (VPtr { ptr with off = ptr.off + ix_rd fr })
      | VNull _ -> error "gep on null pointer"
      | _ -> error "gep on non-pointer")
  | Instr.AtomicAdd (p, ix, x) -> (
    let p_rd = reader env p
    and ix_rd = ird env ix in
    let who = Some env.fname in
    match Var.ty x with
    | Ty.Float ->
      let s = slot env x in
      fun t fr ->
        charge t t.cost.Cost_model.atomic;
        let ptr = Value.to_ptr (p_rd fr) in
        check_rank t ptr.buf;
        let idx = ix_rd fr in
        let i = Memory.check_access ?who ptr idx in
        (match ptr.buf.data with
        | FCells a -> Array.unsafe_set a i (Array.unsafe_get a i +. fr.f.(s))
        | VCells _ ->
          let old = Value.to_float (Memory.load ?who ptr idx) in
          Memory.store ?who ptr idx (VFloat (old +. fr.f.(s))))
    | _ ->
      (* malformed IR (the verifier wants a float value): fail where the
         interpreter converts the value, after the memory checks *)
      let x_rd = reader env x in
      fun t fr ->
        charge t t.cost.Cost_model.atomic;
        let ptr = Value.to_ptr (p_rd fr) in
        check_rank t ptr.buf;
        let old = Value.to_float (Memory.load ?who ptr (ix_rd fr)) in
        ignore (old +. Value.to_float (x_rd fr)))
  | Instr.Call (v, name, args) ->
    if String.contains name '.' then compile_intrinsic env v name args
    else compile_ucall env v name args
  | Instr.Spawn (v, name, args) ->
    let readers = List.map (reader env) args in
    let w = writer env v in
    let prep = env.prep in
    fun t fr ->
      let vals = List.map (fun r -> r fr) readers in
      let id = t.ctx.Interp.next_task in
      t.ctx.Interp.next_task <- id + 1;
      let ret = ref VUnit in
      let task =
        Sim.spawn (fun () ->
            let s = Sim.self () in
            let ct =
              {
                t with
                clock = s.Sim.clock;
                socket = s.Sim.socket;
                team = None;
              }
            in
            ret := call_boxed prep ct name vals)
      in
      Hashtbl.add t.ctx.Interp.tasks id (task, ret);
      w fr (VInt id)
  | Instr.Sync h ->
    let h_rd = ird env h in
    fun t fr -> (
      let id = h_rd fr in
      match Hashtbl.find_opt t.ctx.Interp.tasks id with
      | Some (task, _) -> Sim.sync task
      | None -> error "sync on unknown task %d" id)
  | Instr.Barrier ->
    fun t _fr -> (
      match t.team with
      | Some (_, w) when w > 1 -> Sim.barrier ()
      | Some _ | None -> ())
  | Instr.Workshare { iv; lo; hi; body; schedule; nowait } ->
    let body_code = compile_block env body.Instr.body in
    let ivw = ivw env iv in
    let lo_rd = ird env lo
    and hi_rd = ird env hi in
    let chunked =
      match schedule with Instr.Chunked -> true | Instr.Cyclic -> false
    in
    fun t fr ->
      let tid, width =
        match t.team with
        | Some tw -> tw
        | None -> error "workshare outside a fork"
      in
      let lo = lo_rd fr
      and hi = hi_rd fr in
      let len = max 0 (hi - lo) in
      let i = ref (if chunked then lo + (len * tid / width) else lo + tid) in
      let stop = if chunked then lo + (len * (tid + 1) / width) else hi
      and step = if chunked then 1 else width in
      while !i < stop do
        charge t t.cost.Cost_model.arith;
        ivw fr !i;
        match body_code t fr with
        | Next -> i := !i + step
        | Ret | Yld -> i := stop
      done;
      if (not nowait) && width > 1 then Sim.barrier ()
  | Instr.Fork { tid; nth; body } ->
    let subcf, checkout, checkin =
      make_body_frame env.prep env.cf body ~entry_defs:[ tid; nth ]
    in
    let benv = { env with cf = subcf } in
    let body_code = compile_block benv body.Instr.body in
    let tidw = ivw benv tid in
    let nth_slot =
      match body.Instr.params with [ _; q ] -> Some (ivw benv q) | _ -> None
    in
    let nth_rd = ird env nth in
    fun t fr ->
      let width =
        match nth_rd fr with
        | 0 -> t.ctx.Interp.cfg.Interp.nthreads
        | n when n > 0 -> n
        | n -> error "fork with negative width %d" n
      in
      let total = t.ctx.Interp.nranks * width in
      let socket_of tt =
        Cost_model.socket_of t.cost
          ~index:((t.ctx.Interp.rank * width) + tt)
          ~width:total
      in
      let nthw =
        match nth_slot with Some w -> w | None -> error "malformed fork body"
      in
      let frames = checkout t fr width in
      Sim.fork ~socket_of ~width (fun ~tid:tt ~width:w ->
          let cfr = frames.(tt) in
          tidw cfr tt;
          nthw cfr w;
          let s = Sim.self () in
          let ct =
            {
              t with
              clock = s.Sim.clock;
              socket = s.Sim.socket;
              team = Some (tt, w);
            }
          in
          match body_code ct cfr with
          | Next -> ()
          | Ret | Yld -> error "fork body may not return/yield");
      checkin t frames
  | Instr.If _ | Instr.For _ | Instr.While _ | Instr.Return _ | Instr.Yield _
    -> assert false (* control; routed to compile_ctrl *)

and compile_fbin env v op a b : sc =
  let sa = slot env a
  and sb = slot env b
  and d = slot env v in
  let tr = Instr.transcendental_bin op in
  match op with
  | Instr.Add ->
    fun t fr ->
      let r = fr.f.(sa) +. fr.f.(sb) in
      charge_fop t tr;
      fr.f.(d) <- r
  | Instr.Sub ->
    fun t fr ->
      let r = fr.f.(sa) -. fr.f.(sb) in
      charge_fop t tr;
      fr.f.(d) <- r
  | Instr.Mul ->
    fun t fr ->
      let r = fr.f.(sa) *. fr.f.(sb) in
      charge_fop t tr;
      fr.f.(d) <- r
  | Instr.Div ->
    fun t fr ->
      let r = fr.f.(sa) /. fr.f.(sb) in
      charge_fop t tr;
      fr.f.(d) <- r
  | Instr.Min ->
    fun t fr ->
      let r = fmin fr.f.(sa) fr.f.(sb) in
      charge_fop t tr;
      fr.f.(d) <- r
  | Instr.Max ->
    fun t fr ->
      let r = fmax fr.f.(sa) fr.f.(sb) in
      charge_fop t tr;
      fr.f.(d) <- r
  | Instr.Pow ->
    fun t fr ->
      let r = Float.pow fr.f.(sa) fr.f.(sb) in
      charge_fop t tr;
      fr.f.(d) <- r
  | Instr.Rem -> fun _ _ -> error "bad operands for %s" (Instr.binop_name op)

and compile_ibin env v op a b : sc =
  let sa = slot env a
  and sb = slot env b
  and d = slot env v in
  match op with
  | Instr.Add ->
    fun t fr ->
      let r = fr.i.(sa) + fr.i.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Sub ->
    fun t fr ->
      let r = fr.i.(sa) - fr.i.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Mul ->
    fun t fr ->
      let r = fr.i.(sa) * fr.i.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Div ->
    fun t fr ->
      let y = fr.i.(sb) in
      if y = 0 then error "integer division by zero";
      let r = fr.i.(sa) / y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Rem ->
    fun t fr ->
      let y = fr.i.(sb) in
      if y = 0 then error "integer remainder by zero";
      let r = fr.i.(sa) mod y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Min ->
    fun t fr ->
      let x = fr.i.(sa)
      and y = fr.i.(sb) in
      let r = if x <= y then x else y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Max ->
    fun t fr ->
      let x = fr.i.(sa)
      and y = fr.i.(sb) in
      let r = if x >= y then x else y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Pow -> fun _ _ -> error "bad operands for %s" (Instr.binop_name op)

and compile_cmp env v op a b : sc =
  let d = slot env v in
  match Var.ty a, Var.ty b with
  | Ty.Int, Ty.Int ->
    let sa = slot env a
    and sb = slot env b in
    let f : int -> int -> bool =
      match op with
      | Instr.Eq -> fun x y -> x = y
      | Instr.Ne -> fun x y -> x <> y
      | Instr.Lt -> fun x y -> x < y
      | Instr.Le -> fun x y -> x <= y
      | Instr.Gt -> fun x y -> x > y
      | Instr.Ge -> fun x y -> x >= y
    in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      fr.b.(d) <- f fr.i.(sa) fr.i.(sb)
  | Ty.Float, Ty.Float -> (
    let sa = slot env a
    and sb = slot env b in
    (* Float.compare semantics (total order on NaN), as the interpreter;
       one closure per operator, so no float crosses a call *)
    match op with
    | Instr.Eq ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- Float.compare fr.f.(sa) fr.f.(sb) = 0
    | Instr.Ne ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- Float.compare fr.f.(sa) fr.f.(sb) <> 0
    | Instr.Lt ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- Float.compare fr.f.(sa) fr.f.(sb) < 0
    | Instr.Le ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- Float.compare fr.f.(sa) fr.f.(sb) <= 0
    | Instr.Gt ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- Float.compare fr.f.(sa) fr.f.(sb) > 0
    | Instr.Ge ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- Float.compare fr.f.(sa) fr.f.(sb) >= 0)
  | Ty.Bool, Ty.Bool ->
    let sa = slot env a
    and sb = slot env b in
    let f : bool -> bool -> bool =
      match op with
      | Instr.Eq -> fun x y -> Bool.compare x y = 0
      | Instr.Ne -> fun x y -> Bool.compare x y <> 0
      | Instr.Lt -> fun x y -> Bool.compare x y < 0
      | Instr.Le -> fun x y -> Bool.compare x y <= 0
      | Instr.Gt -> fun x y -> Bool.compare x y > 0
      | Instr.Ge -> fun x y -> Bool.compare x y >= 0
    in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      fr.b.(d) <- f fr.b.(sa) fr.b.(sb)
  | _ -> fun _ _ -> error "bad operands for comparison"

and compile_un env v op a : sc =
  let bad : sc = fun _ _ -> error "bad operand for %s" (Instr.unop_name op) in
  match Var.ty a, Var.ty v with
  | Ty.Float, Ty.Float -> (
    let sa = slot env a
    and d = slot env v in
    let tr = Instr.transcendental_un op in
    (* one closure per operator, so no float crosses a call *)
    match op with
    | Instr.Neg ->
      fun t fr ->
        let r = -.fr.f.(sa) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.Sqrt ->
      fun t fr ->
        let r = sqrt fr.f.(sa) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.Sin ->
      fun t fr ->
        let r = sin fr.f.(sa) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.Cos ->
      fun t fr ->
        let r = cos fr.f.(sa) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.Exp ->
      fun t fr ->
        let r = exp fr.f.(sa) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.Log ->
      fun t fr ->
        let r = log fr.f.(sa) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.Abs ->
      fun t fr ->
        let r = Float.abs fr.f.(sa) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.Floor ->
      fun t fr ->
        let r = Float.of_int (int_of_float (floor fr.f.(sa))) in
        charge_fop t tr;
        fr.f.(d) <- r
    | Instr.ToFloat | Instr.ToInt | Instr.Not -> bad)
  | Ty.Int, Ty.Int -> (
    let sa = slot env a
    and d = slot env v in
    match op with
    | Instr.Neg ->
      fun t fr ->
        let r = -fr.i.(sa) in
        charge t t.cost.Cost_model.arith;
        fr.i.(d) <- r
    | Instr.Abs ->
      fun t fr ->
        let r = abs fr.i.(sa) in
        charge t t.cost.Cost_model.arith;
        fr.i.(d) <- r
    | _ -> bad)
  | Ty.Int, Ty.Float when op = Instr.ToFloat ->
    let sa = slot env a
    and d = slot env v in
    fun t fr ->
      let r = float_of_int fr.i.(sa) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Ty.Float, Ty.Int when op = Instr.ToInt ->
    let sa = slot env a
    and d = slot env v in
    fun t fr ->
      let r = int_of_float fr.f.(sa) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Ty.Bool, Ty.Bool when op = Instr.Not ->
    let sa = slot env a
    and d = slot env v in
    fun t fr ->
      let r = not fr.b.(sa) in
      charge t t.cost.Cost_model.arith;
      fr.b.(d) <- r
  | _ -> bad

and compile_ctrl env (i : Instr.t) : code =
  match i with
  | Instr.If (results, cond, then_r, else_r) ->
    let benv = { env with ydest = YVars results } in
    let then_code = compile_block benv then_r.Instr.body
    and else_code = compile_block benv else_r.Instr.body in
    let c_rd = brd env cond in
    fun t fr -> (
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      charge t t.cost.Cost_model.arith;
      match (if c_rd fr then then_code t fr else else_code t fr) with
      | Yld -> Next
      | Next -> error "if-region fell through without yield"
      | Ret -> Ret)
  | Instr.For { iv; lo; hi; step; body } ->
    let body_code = compile_block env body.Instr.body in
    let ivw = ivw env iv in
    let lo_rd = ird env lo
    and hi_rd = ird env hi
    and sp_rd = ird env step in
    fun t fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      let lo = lo_rd fr
      and hi = hi_rd fr
      and sp = sp_rd fr in
      let i = ref lo
      and out = ref Next in
      if sp <= 0 then error "for with non-positive step %d" sp;
      while !i < hi do
        charge t t.cost.Cost_model.arith;
        ivw fr !i;
        match run_iter body_code t fr with
        | Next -> i := !i + sp
        | (Ret | Yld) as o ->
          out := o;
          i := hi
      done;
      !out
  | Instr.While { cond; body } ->
    let cond_code = compile_block { env with ydest = YCond } cond.Instr.body in
    let body_code = compile_block env body.Instr.body in
    fun t fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      let running = ref true
      and out = ref Next in
      while !running do
        charge t t.cost.Cost_model.arith;
        match cond_code t fr with
        | Yld ->
          if t.yb then begin
            match run_iter body_code t fr with
            | Next -> ()
            | (Ret | Yld) as o ->
              out := o;
              running := false
          end
          else running := false
        | Next | Ret -> error "while condition region must yield one bool"
      done;
      !out
  | Instr.Return (Some v) when env.taped && Ty.equal (Var.ty v) Ty.Float ->
    (* a taped float result hands its tape slot to the caller *)
    let r = reader env v and s = slot env v in
    fun t fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      t.retv <- r fr;
      t.rets <- fr.sl.(s);
      Ret
  | Instr.Return rv ->
    let r = match rv with Some v -> reader env v | None -> fun _ -> VUnit in
    fun t fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      t.retv <- r fr;
      t.rets <- 0;
      Ret
  | Instr.Yield vs -> (
    match env.ydest with
    | YNone ->
      fun t _fr ->
        t.st.Stats.instrs <- t.st.Stats.instrs + 1;
        Yld
    | YCond -> (
      match vs with
      | [ v ] ->
        let c_rd = brd env v in
        fun t fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          t.yb <- c_rd fr;
          Yld
      | _ ->
        fun t _fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          error "while condition region must yield one bool")
    | YVars results ->
      if List.length vs <> List.length results then
        fun t _fr -> (
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          raise (Invalid_argument "List.iter2"))
      else begin
        let moves = Array.of_list (List.map2 (xmove env) vs results) in
        let n = Array.length moves in
        fun t fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          for k = 0 to n - 1 do
            (Array.unsafe_get moves k) fr
          done;
          Yld
      end)
  | _ -> assert false

(* ---- intrinsics ---- *)

and compile_intrinsic env v name args : sc =
  let w = writer env v in
  match name, args with
  | "omp.max_threads", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr (VInt t.ctx.Interp.cfg.Interp.nthreads)
  | "mpi.rank", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr (VInt t.ctx.Interp.rank)
  | "mpi.size", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr (VInt t.ctx.Interp.nranks)
  | "san.mark_private", _ ->
    (* no-op unsanitized; sanitized contexts never reach the engine *)
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr VUnit
  | "parad.remat_begin", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      t.ctx.Interp.remat_depth <- t.ctx.Interp.remat_depth + 1;
      w fr VUnit
  | "parad.remat_end", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      if t.ctx.Interp.remat_depth > 0 then
        t.ctx.Interp.remat_depth <- t.ctx.Interp.remat_depth - 1;
      w fr VUnit
  | ("cache.new" | "cache.newf"), cap :: _ ->
    let cap_rd = ird env cap in
    let unboxed = String.equal name "cache.newf" in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      charge t t.cost.Cost_model.alloc_base;
      let id =
        Cache_rt.fresh ~unboxed t.ctx.Interp.cache ~capacity:(cap_rd fr)
      in
      w fr (VInt id)
  | "cache.set", a0 :: a1 :: a2 :: _ -> (
    let id_rd = ird env a0
    and idx_rd = ird env a1 in
    match Var.ty a2, Var.ty a0, Var.ty a1 with
    | Ty.Float, Ty.Int, Ty.Int ->
      (* unboxed write: the stored float never round-trips through a
         [VFloat] box. The cache record is resolved once per call and
         shared between the representation test (which picks the charge)
         and the write. *)
      let s_id = slot env a0
      and s_idx = slot env a1
      and s_x = slot env a2 in
      let s_v = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = fr.i.(s_id) in
        let c = Cache_rt.get_cache cache id in
        charge t
          (if Cache_rt.is_floats c then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_stores <- t.st.Stats.cache_stores + 1;
        let before = Cache_rt.cells_written cache in
        Cache_rt.set_from cache c ~id ~idx:fr.i.(s_idx) fr.f s_x;
        count_new_cell t cache ~before;
        fr.v.(s_v) <- VUnit
    | _ ->
      let x_rd = reader env a2 in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = id_rd fr in
        charge t
          (if Cache_rt.is_unboxed cache ~id then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_stores <- t.st.Stats.cache_stores + 1;
        let idx = idx_rd fr
        and x = x_rd fr in
        let before = Cache_rt.cells_written cache in
        Cache_rt.set cache ~id ~idx x;
        count_new_cell t cache ~before;
        w fr VUnit)
  | "cache.get", a0 :: a1 :: _ -> (
    let id_rd = ird env a0
    and idx_rd = ird env a1 in
    match Var.ty v, Var.ty a0, Var.ty a1 with
    | Ty.Float, Ty.Int, Ty.Int ->
      let s_id = slot env a0
      and s_idx = slot env a1 in
      let d = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = fr.i.(s_id) in
        let c = Cache_rt.get_cache cache id in
        charge t
          (if Cache_rt.is_floats c then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_loads <- t.st.Stats.cache_loads + 1;
        Cache_rt.get_into cache c ~id ~idx:fr.i.(s_idx) fr.f d;
        Interp.apply_flips t.ctx
    | _ ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = id_rd fr in
        charge t
          (if Cache_rt.is_unboxed cache ~id then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_loads <- t.st.Stats.cache_loads + 1;
        let r = Cache_rt.get cache ~id ~idx:(idx_rd fr) in
        Interp.apply_flips t.ctx;
        w fr r)
  | "cache.free", a0 :: _ ->
    let id_rd = ird env a0 in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let cache = t.ctx.Interp.cache in
      let id = id_rd fr in
      if cache.Cache_rt.protect then begin
        charge t
          (t.cost.Cost_model.mem *. float_of_int (Cache_rt.covered_id cache ~id));
        if not (Cache_rt.verify_id cache ~id) then
          Interp.corrupt_region t.ctx ~cache_id:id
      end;
      Cache_rt.free cache ~id;
      w fr VUnit
  (* ---- k-wide batched adjoint runtime (opts.seeds > 1) ---- *)
  | "adj.lanes_k", _ -> (
    match lane_call env v args with
    | Some c -> c
    | None -> delegate env v name args)
  | "adj.combine", [ src; soff; dst; doff; n ] ->
    (* a per-thread reduction's accumulator added into the shared
       shadow: {!Interp.intrinsic}'s loop, checks and charges *)
    let s_src = pslot env src and s_soff = islot env soff in
    let s_dst = pslot env dst and s_doff = islot env doff in
    let s_n = islot env n and who = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let src = ptr fr.v.(s_src) and dst = ptr fr.v.(s_dst) in
      let soff = fr.i.(s_soff) and doff = fr.i.(s_doff) and n = fr.i.(s_n) in
      let _, m = Interp.combine ~who src soff dst doff n in
      charge_mem_n t src.buf m;
      charge t (t.cost.Cost_model.atomic *. float_of_int m);
      t.st.Stats.loads <- t.st.Stats.loads + m;
      t.st.Stats.atomics <- t.st.Stats.atomics + m;
      fr.v.(s_v) <- VUnit
  | ("parad.checkpoint" | "parad.checkpoint_rev"), _ ->
    (* No-session checkpoint sites cost one arith op and touch nothing;
       only live sessions (take/restore/fast-forward) go through the
       interpreter's implementation. *)
    let del = delegate env v name args in
    fun t fr ->
      (match t.ctx.Interp.ckpt with
      | None ->
        charge t t.cost.Cost_model.arith;
        w fr VUnit
      | Some _ -> del t fr)
  | _ -> delegate env v name args

(* Any other intrinsic (MPI, checkpoint, GC, AD shadows, ...) delegates to
   the interpreter's implementation, with an empty call stack (only
   [gc.collect] under [gc_aggressive] walks it, and such contexts never
   reach the engine); its charges land on the strand clock cell [t.clock]
   shares. *)
and delegate env v name args : sc =
  let readers = List.map (reader env) args in
  let w = writer env v in
  let fname = env.fname in
  fun t fr ->
    let vals = List.map (fun r -> r fr) readers in
    t.st.Stats.eng_fallbacks <- t.st.Stats.eng_fallbacks + 1;
    let e =
      {
        Interp.stack = [];
        team = t.team;
        stack_allocs = fr.stack_allocs;
        fname;
        san_team = None;
      }
    in
    w fr (Interp.intrinsic t.ctx e name args vals)

(* ---- user calls ---- *)

and compile_ucall env v name args : sc =
  let resolved : sc option ref = ref None in
  fun t fr ->
    match !resolved with
    | Some f -> f t fr
    | None ->
      let f = build_ucall env v name args in
      resolved := Some f;
      f t fr

and build_ucall env v name args : sc =
  match Prog.find env.prep.prog name with
  | None -> fun _ _ -> error "call to unknown function %S" name
  | Some f -> (
    let cf = get_cfun env.prep ~taped:env.taped name in
    if List.length args <> List.length f.Func.params then
      fun t _fr ->
        charge t t.cost.Cost_model.call;
        t.st.Stats.calls <- t.st.Stats.calls + 1;
        error "call %s: arity mismatch" name
    else
      match
        List.find_opt
          (fun (p, a) -> not (Ty.equal (Var.ty a) (Var.ty p)))
          (List.combine f.Func.params args)
      with
      | Some (p, a) ->
        fun t _fr ->
          charge t t.cost.Cost_model.call;
          t.st.Stats.calls <- t.st.Stats.calls + 1;
          error "call %s: argument %s has type %a, expected %a" name
            (Var.name p) Ty.pp (Var.ty a) Ty.pp (Var.ty p)
      | None ->
        let moves =
          Array.of_list (List.map2 (arg_move env cf) f.Func.params args)
        in
        let n = Array.length moves in
        let w = writer env v in
        fun t fr ->
          charge t t.cost.Cost_model.call;
          t.st.Stats.calls <- t.st.Stats.calls + 1;
          let nfr = new_eframe cf in
          for k = 0 to n - 1 do
            (Array.unsafe_get moves k) fr nfr
          done;
          run_frame t cf nfr;
          w fr t.retv)

and get_cfun prep ~taped name : cfun =
  match Hashtbl.find_opt prep.funcs (name, taped) with
  | Some cf -> cf
  | None -> (
    match Prog.find prep.prog name with
    | None -> error "call to unknown function %S" name
    | Some fn ->
      let cf, _ =
        assign_slots fn ~tp:taped ~n:(max fn.Func.var_count 1) fn.Func.params
          fn.Func.body
      in
      cf.code <-
        compile_block
          {
            prep;
            cf;
            fname = name;
            ydest = YNone;
            taped;
            consts = lazy (int_consts fn);
          }
          fn.Func.body;
      Hashtbl.replace prep.funcs (name, taped) cf;
      cf)

(* Boxed-argument call: the engine's replica of [Interp.call_function]
   with an empty caller stack — entry points and spawned tasks. *)
and call_boxed prep ?(taped = false) ?(slots = []) t name
    (args : Value.t list) : Value.t =
  match Prog.find prep.prog name with
  | None -> error "call to unknown function %S" name
  | Some f ->
    charge t t.cost.Cost_model.call;
    t.st.Stats.calls <- t.st.Stats.calls + 1;
    if List.length args <> List.length f.Func.params then
      error "call %s: arity mismatch" name;
    let cf = get_cfun prep ~taped name in
    let nfr = new_eframe cf in
    List.iter2
      (fun p a ->
        if not (Ty.equal (Value.ty a) (Var.ty p)) then
          error "call %s: argument %s has type %a, expected %a" name
            (Var.name p) Ty.pp (Value.ty a) Ty.pp (Var.ty p);
        write_boxed cf p nfr a)
      f.Func.params args;
    if taped && slots <> [] then
      List.iteri
        (fun i p ->
          match Var.ty p with
          | Ty.Float -> nfr.sl.(cf.idx.(Var.id p)) <- List.nth slots i
          | _ -> ())
        f.Func.params;
    run_frame t cf nfr;
    t.retv

(* ---- entry points ---- *)

type choice = Interp | Seq

let choice_of_string = function
  | "interp" -> Some Interp
  | "seq" -> Some Seq
  | _ -> None

let choice_to_string = function Interp -> "interp" | Seq -> "seq"

(** Run [fname] on the engine inside the current Sim strand, threading
    tape slots for the arguments and the result (both all-zero on
    uninstrumented runs). Instrumented (taped) runs compile in taping
    mode. Sanitized contexts, which the engine does not replicate, and
    [gc_aggressive] ones, whose [gc.collect] walks the interpreter's call
    stack for roots, fall back to the interpreter wholesale — and are
    counted in [Stats.eng_fallbacks]. *)
let exec_call_slots prep (ctx : Interp.ctx) fname args slots : Value.t * int =
  if Option.is_some ctx.Interp.san || ctx.Interp.cfg.Interp.gc_aggressive
  then begin
    (Sim.stats ()).Stats.eng_fallbacks <-
      (Sim.stats ()).Stats.eng_fallbacks + 1;
    Interp.call_with_slots ctx fname args slots
  end
  else begin
    ctx.Interp.root_args <- args;
    let s = Sim.self () in
    let vdl, wall_stop, wall_ms = Sim.deadline_view () in
    let dl =
      match vdl, wall_stop with
      | None, None -> None
      | _ -> Some { vdl; wall_stop; wall_ms; tick = 0 }
    in
    let t =
      {
        ctx;
        cost = ctx.Interp.cfg.Interp.cost;
        st = Sim.stats ();
        clock = s.Sim.clock;
        socket = s.Sim.socket;
        team = None;
        dl;
        retv = VUnit;
        rets = 0;
        yb = false;
        fcache = Hashtbl.create 8;
      }
    in
    let taped = Option.is_some ctx.Interp.instrument in
    let v = call_boxed prep ~taped ~slots t fname args in
    v, t.rets
  end

(** [call_fn prep choice] is a drop-in replacement for {!Interp.call}
    running on the selected substrate. *)
let call_fn prep choice : Interp.ctx -> string -> Value.t list -> Value.t =
  match choice with
  | Interp -> Interp.call
  | Seq -> fun ctx f args -> fst (exec_call_slots prep ctx f args [])

(** [call_fn_slots prep choice] is the slot-threading counterpart of
    {!call_fn}: a drop-in replacement for {!Interp.call_with_slots} for
    harnesses (the tape baseline) that seed argument slots and need the
    result slot back. *)
let call_fn_slots prep choice :
    Interp.ctx -> string -> Value.t list -> int list -> Value.t * int =
  match choice with
  | Interp -> Interp.call_with_slots
  | Seq -> exec_call_slots prep
