(** RAJA-analog frontend: portable parallel templates that *lower onto the
    OpenMP-level IR constructs* ([Fork]/[Workshare]/[Barrier]).

    This is the paper's §V-D point made executable: the AD engine has no
    RAJA-specific rules whatsoever — kernels written against this API
    differentiate because they lower to constructs the engine already
    handles. [Reduce_min]/[Reduce_sum] mirror RAJA's reducer templates and
    lower to the per-thread-slot + combine pattern of Fig 7. *)

open Parad_ir
module B = Builder

(** [forall b ~lo ~hi body] — RAJA::forall<omp_parallel_for_exec>. *)
let forall b ~lo ~hi body = B.parallel_for b ~lo ~hi body

(** [forall_seq] — RAJA::forall<seq_exec>, for the sequential policy. *)
let forall_seq b ~lo ~hi body = B.for_ b ~lo ~hi body

type reducer = {
  slots : Var.t;  (** per-thread partials *)
  combine : Instr.binop;
  init : float;
}

(** Create a reducer (RAJA::ReduceMin / ReduceSum analog): allocates one
    slot per available thread, initialized to the identity. *)
let reducer b ~combine ~init =
  let nt = B.call b ~ret:Ty.Int "omp.max_threads" [] in
  let slots = B.alloc b Ty.Float nt in
  B.for_n b nt (fun t -> B.store b slots t (B.f64 b init));
  { slots; combine; init }

let reduce_min b = reducer b ~combine:Instr.Min ~init:infinity

(** Inside a [forall_reduce] region: fold a contribution into the
    executing thread's slot. *)
let contribute b (r : reducer) ~tid v =
  let cur = B.load b r.slots tid in
  B.store b r.slots tid (B.bin b r.combine cur v)

(** A parallel loop carrying reducers: the body receives the iteration
    variable and the thread id (RAJA hides the tid inside the reducer
    object; here it is explicit but the lowering is identical). *)
let forall_reduce b ~lo ~hi body =
  B.fork b (fun ~tid ~nth:_ ->
      B.workshare b ~lo ~hi (fun i -> body ~i ~tid))

(** Combine a reducer's per-thread slots into a single value (runs after
    the parallel region, like reading a RAJA reducer). *)
let get b (r : reducer) =
  let nt = B.call b ~ret:Ty.Int "omp.max_threads" [] in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b r.init);
  B.for_n b nt (fun t ->
      let v = B.load b r.slots t in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.bin b r.combine cur v));
  let out = B.load b acc (B.i64 b 0) in
  B.free b acc;
  B.free b r.slots;
  out
