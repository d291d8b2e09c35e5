(** Value numbering, shared by common-subexpression elimination and the
    AD planner's duplicate-load analysis: the structural key of a pure
    instruction, and the undo list that scopes a table of such keys to
    a region without copying it. *)

(* The structural key of a pure instruction, its operands numbered by
   the caller. Float constants are keyed on their bits, so NaN payloads
   and the sign of zero stay apart. *)
type key =
  | KBin of Instr.binop * int * int
  | KCmp of Instr.cmpop * int * int
  | KUn of Instr.unop * int
  | KGep of int * int
  | KSelect of int * int * int
  | KInt of int
  | KBool of bool
  | KFloat of int64

(** [key ~id i] is the key of [i] with operand [v] numbered [id v], or
    [None] when [i] is not a pure value. *)
let key ~id (i : Instr.t) =
  let open Instr in
  match i with
  | Bin (_, op, a, b) -> Some (KBin (op, id a, id b))
  | Cmp (_, op, a, b) -> Some (KCmp (op, id a, id b))
  | Un (_, op, a) -> Some (KUn (op, id a))
  | Gep (_, p, ix) -> Some (KGep (id p, id ix))
  | Select (_, c, a, b) -> Some (KSelect (id c, id a, id b))
  | Const (_, Cint x) -> Some (KInt x)
  | Const (_, Cbool x) -> Some (KBool x)
  | Const (_, Cfloat x) -> Some (KFloat (Int64.bits_of_float x))
  | _ -> None

(** [scoped trail undo f] runs [f], then undoes (with [undo]) every
    entry [f] pushed onto [trail]. *)
let scoped trail undo f =
  let outer = !trail in
  let r = f () in
  let rec pop () =
    if !trail != outer then
      match !trail with
      | x :: rest ->
        undo x;
        trail := rest;
        pop ()
      | [] -> ()
  in
  pop ();
  r
