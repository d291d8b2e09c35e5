(** A program: a set of functions, analogous to an LLVM module. *)

type t = { funcs : (string, Func.t) Hashtbl.t; mutable order : string list }

let create () = { funcs = Hashtbl.create 16; order = [] }

let add p (f : Func.t) =
  if not (Hashtbl.mem p.funcs f.name) then p.order <- f.name :: p.order;
  Hashtbl.replace p.funcs f.name f

let find p name = Hashtbl.find_opt p.funcs name

let find_exn p name =
  match find p name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Prog.find_exn: no function %S" name)

let mem p name = Hashtbl.mem p.funcs name

(** The functions of [p] that [entry] reaches through calls and spawns,
    [entry] first, each once. Intrinsics (which [p] does not define) are
    not followed. *)
let reachable p entry =
  let seen = Hashtbl.create 8 in
  let rec visit acc name =
    match find p name with
    | Some f when not (Hashtbl.mem seen name) ->
      Hashtbl.replace seen name ();
      Instr.fold_instrs
        (fun acc i ->
          match i with
          | Instr.Call (_, callee, _) | Instr.Spawn (_, callee, _) ->
            visit acc callee
          | _ -> acc)
        (f :: acc) f.Func.body
    | _ -> acc
  in
  List.rev (visit [] entry)

let functions p = List.rev_map (Hashtbl.find p.funcs) p.order

(** A deep copy sharing no mutable structure (function bodies are
    immutable, so only the table is copied). *)
let copy p = { funcs = Hashtbl.copy p.funcs; order = p.order }
