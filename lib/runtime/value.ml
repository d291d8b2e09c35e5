(** Runtime values and buffers.

    A pointer is a (buffer, offset) pair; buffers are homogeneous arrays of
    values owned by one rank's address space. Use-after-free is detected
    (buffers are poisoned, not reused), which the GC-preservation tests
    rely on. *)

open Parad_ir

type t =
  | VUnit
  | VBool of bool
  | VInt of int
  | VFloat of float
  | VPtr of ptr
  | VNull of Ty.t

and ptr = { buf : buffer; off : int }

(* Float buffers store raw floats ([FCells]) so the hot Load/Store path of
   the execution engine moves unboxed values; every other element type
   keeps boxed cells ([VCells]). The [Memory] API boxes on [load], so the
   interpreter is unaffected by the representation. *)
and cells = VCells of t array | FCells of float array

and buffer = {
  bid : int;
  elem : Ty.t;
  mutable data : cells;
  kind : Instr.alloc_kind;
  rank : int;  (** owning address space *)
  socket : int;  (** NUMA placement: socket of the allocating strand *)
  mutable freed : bool;
  mutable preserve : int;  (** GC preservation count *)
  asite : string;  (** allocation site, e.g. ["fn/var"] or ["harness"] *)
  mutable fsite : string option;  (** site of the [Free] that poisoned it *)
}

exception Runtime_error of string

(** GradSan's strict-mode abort at the first non-finite value, carrying
    its provenance. [Sanitizer] raises it; it lives here, below
    [Outcome], so that the taxonomy can classify it. *)
exception Nonfinite_strict of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let cells_len = function
  | VCells a -> Array.length a
  | FCells a -> Array.length a

(* Boxing view of one cell, representation-independent. *)
let get_cell cells i =
  match cells with VCells a -> a.(i) | FCells a -> VFloat a.(i)

let ty = function
  | VUnit -> Ty.Unit
  | VBool _ -> Ty.Bool
  | VInt _ -> Ty.Int
  | VFloat _ -> Ty.Float
  | VPtr p -> Ty.Ptr p.buf.elem
  | VNull t -> Ty.Ptr t

let to_float = function
  | VFloat x -> x
  | v -> error "expected float, got %a" Ty.pp (ty v)

let to_int = function
  | VInt x -> x
  | v -> error "expected int, got %a" Ty.pp (ty v)

let to_bool = function
  | VBool x -> x
  | v -> error "expected bool, got %a" Ty.pp (ty v)

let to_ptr = function
  | VPtr p -> p
  | VNull _ -> error "null pointer dereference"
  | v -> error "expected pointer, got %a" Ty.pp (ty v)

let zero_of = function
  | Ty.Unit -> VUnit
  | Ty.Bool -> VBool false
  | Ty.Int -> VInt 0
  | Ty.Float -> VFloat 0.0
  | Ty.Ptr t -> VNull t

let pp ppf = function
  | VUnit -> Fmt.string ppf "()"
  | VBool b -> Fmt.bool ppf b
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.pf ppf "%.17g" f
  | VPtr p -> Fmt.pf ppf "&b%d[%d]" p.buf.bid p.off
  | VNull _ -> Fmt.string ppf "null"
