(** The instruction set.

    Structured-control-flow SSA: straight-line instructions plus region-based
    [If]/[For]/[While], fork-join parallel constructs ([Fork], [Workshare],
    [Barrier]), task parallelism ([Spawn]/[Sync]) and calls. Message passing
    and other runtime services are intrinsic [Call]s (names with a dotted
    prefix, e.g. ["mpi.isend"]), implemented by
    {!Parad_runtime.Interp.intrinsic}; {!Parad_engine.Engine.compile_intrinsic}
    lowers the hot ones natively and delegates the rest to it. *)

type const =
  | Cunit
  | Cbool of bool
  | Cint of int
  | Cfloat of float
  | Cnull of Ty.t  (** null pointer of element type *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem  (** integer remainder *)
  | Min
  | Max
  | Pow  (** float only *)

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type unop =
  | Neg
  | Sqrt
  | Sin
  | Cos
  | Exp
  | Log
  | Abs
  | Floor
  | ToFloat  (** int -> float *)
  | ToInt  (** float -> int, truncating *)
  | Not  (** bool -> bool *)

type alloc_kind =
  | Stack  (** scoped to the enclosing region instance *)
  | Heap  (** freed explicitly *)
  | Gc  (** garbage collected (Julia-frontend arrays) *)

(** Static worksharing schedule: [Chunked] assigns each thread one
    contiguous chunk (LLVM's static schedule); [Cyclic] round-robins
    iterations. *)
type schedule = Chunked | Cyclic

type t =
  | Const of Var.t * const
  | Bin of Var.t * binop * Var.t * Var.t
  | Cmp of Var.t * cmpop * Var.t * Var.t
  | Un of Var.t * unop * Var.t
  | Select of Var.t * Var.t * Var.t * Var.t  (** dst, cond, if-true, if-false *)
  | Alloc of Var.t * Ty.t * Var.t * alloc_kind  (** dst, elem type, size *)
  | Free of Var.t
  | Load of Var.t * Var.t * Var.t  (** dst, ptr, index *)
  | Store of Var.t * Var.t * Var.t  (** ptr, index, value *)
  | Gep of Var.t * Var.t * Var.t  (** dst = ptr + index *)
  | AtomicAdd of Var.t * Var.t * Var.t  (** ptr, index, value (float) *)
  | Call of Var.t * string * Var.t list
  | If of Var.t list * Var.t * region * region
      (** results, cond, then-region, else-region; regions end in [Yield] *)
  | For of { iv : Var.t; lo : Var.t; hi : Var.t; step : Var.t; body : region }
      (** [for iv = lo; iv < hi; iv += step], step > 0 *)
  | While of { cond : region; body : region }
      (** [cond] yields one Bool; loop-carried state lives in memory *)
  | Fork of { tid : Var.t; nth : Var.t; body : region }
      (** parallel region over [nth] threads (0 = runtime default);
          body params are bound per thread: [tid] in \[0, width) *)
  | Workshare of {
      iv : Var.t;
      lo : Var.t;
      hi : Var.t;
      body : region;
      schedule : schedule;
      nowait : bool;
    }  (** worksharing loop; only valid inside a [Fork] body *)
  | Barrier  (** team barrier; only valid inside a [Fork] body *)
  | Spawn of Var.t * string * Var.t list
      (** dst = task handle; asynchronously run a named function *)
  | Sync of Var.t  (** wait for a task handle *)
  | Return of Var.t option
  | Yield of Var.t list  (** region terminator carrying region results *)

and region = { params : Var.t list; body : t list }

let region ?(params = []) body = { params; body }

(** [def i] is the variable defined by [i], if any. *)
let def = function
  | Const (v, _)
  | Bin (v, _, _, _)
  | Cmp (v, _, _, _)
  | Un (v, _, _)
  | Select (v, _, _, _)
  | Alloc (v, _, _, _)
  | Load (v, _, _)
  | Gep (v, _, _)
  | Call (v, _, _)
  | Spawn (v, _, _) -> Some v
  | Free _ | Store _ | AtomicAdd _ | If _ | For _ | While _ | Fork _
  | Workshare _ | Barrier | Sync _ | Return _ | Yield _ -> None

(** [defs i] is every variable defined by [i], including region results. *)
let defs = function If (rs, _, _, _) -> rs | i -> Option.to_list (def i)

(** [uses i] is the list of variables read by [i] itself (region bodies
    excluded; region parameters are definitions, not uses). *)
let uses = function
  | Const _ -> []
  | Bin (_, _, a, b) | Cmp (_, _, a, b) -> [ a; b ]
  | Un (_, _, a) -> [ a ]
  | Select (_, c, a, b) -> [ c; a; b ]
  | Alloc (_, _, n, _) -> [ n ]
  | Free p -> [ p ]
  | Load (_, p, i) -> [ p; i ]
  | Store (p, i, v) -> [ p; i; v ]
  | Gep (_, p, i) -> [ p; i ]
  | AtomicAdd (p, i, v) -> [ p; i; v ]
  | Call (_, _, args) | Spawn (_, _, args) -> args
  | If (_, c, _, _) -> [ c ]
  | For { lo; hi; step; _ } -> [ lo; hi; step ]
  | While _ -> []
  | Fork { nth; _ } -> [ nth ]
  | Workshare { lo; hi; _ } -> [ lo; hi ]
  | Barrier -> []
  | Sync t -> [ t ]
  | Return None | Yield [] -> []
  | Return (Some v) -> [ v ]
  | Yield vs -> vs

(** Sub-regions of [i], outermost first. *)
let regions = function
  | If (_, _, t, e) -> [ t; e ]
  | For { body; _ } | Fork { body; _ } | Workshare { body; _ } -> [ body ]
  | While { cond; body } -> [ cond; body ]
  | Const _ | Bin _ | Cmp _ | Un _ | Select _ | Alloc _ | Free _ | Load _
  | Store _ | Gep _ | AtomicAdd _ | Call _ | Spawn _ | Sync _ | Barrier
  | Return _ | Yield _ -> []

(** Fold [f] over every instruction in [body], recursing into regions,
    in forward program order. *)
let rec fold_instrs f acc body =
  List.fold_left
    (fun acc i ->
      let acc = f acc i in
      List.fold_left (fun acc r -> fold_instrs f acc r.body) acc (regions i))
    acc body

let iter_instrs f body = fold_instrs (fun () i -> f i) () body

(* The operators charged at the transcendental rate: the cost model, the
   planner's recomputation charge and the reverse pass's remat markers all
   classify an instruction by these. *)
let transcendental_bin = function Pow -> true | _ -> false

let transcendental_un = function
  | Sqrt | Sin | Cos | Exp | Log -> true
  | Neg | Abs | Floor | ToFloat | ToInt | Not -> false

(** A float [Bin] or [Un] charged at the transcendental rate. *)
let transcendental = function
  | Bin (v, op, _, _) -> Ty.equal (Var.ty v) Ty.Float && transcendental_bin op
  | Un (v, op, _) -> Ty.equal (Var.ty v) Ty.Float && transcendental_un op
  | _ -> false

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | Pow -> "pow"

let cmpop_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let unop_name = function
  | Neg -> "neg"
  | Sqrt -> "sqrt"
  | Sin -> "sin"
  | Cos -> "cos"
  | Exp -> "exp"
  | Log -> "log"
  | Abs -> "abs"
  | Floor -> "floor"
  | ToFloat -> "tofloat"
  | ToInt -> "toint"
  | Not -> "not"
