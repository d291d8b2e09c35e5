(** Forward (tangent) mode.

    Each float SSA value gets a tangent SSA value computed alongside it,
    each pointer a shadow (tangent) buffer; control flow is driven by the
    primal alone, so — unlike reverse mode — no caching is ever needed and
    every parallel construct keeps its exact shape. Message passing
    duplicates each communication on the shadow buffers (tangents travel
    with the primals, the classic forward-mode MPI treatment).

    Calling convention of the generated [t_f]:
    [t_f(args..., shadow-ptr-args..., tangent-scalar-args..., t_ret?)]
    where [t_ret : Ptr Float] receives the return tangent when [f]
    returns a float; the primal value is returned. *)

open Parad_ir
module B = Builder
open Plan

let tangent_tag_base = 3_000_000

type st = {
  eng_src : Prog.t;
  dst : Prog.t;
  b : B.t;
  vmap : Var.t option array;
  tmap : Var.t option array;  (** tangents of float vars *)
  smap : (int, Var.t) Hashtbl.t;  (** shadows of pointer (and request) vars *)
  seen : (string, unit) Hashtbl.t;  (** callees already being transformed *)
}

let fwd st v =
  match st.vmap.(Var.id v) with
  | Some x -> x
  | None -> unsupported "forward mode: unmapped %a" Var.pp v

let tan st v =
  match st.tmap.(Var.id v) with
  | Some x -> x
  | None -> unsupported "forward mode: no tangent for %a" Var.pp v

let shadow st v =
  match Hashtbl.find_opt st.smap (Var.id v) with
  | Some x -> x
  | None -> unsupported "forward mode: no shadow for %a" Var.pp v

let set_fwd st v x = st.vmap.(Var.id v) <- Some x
let set_tan st v x = st.tmap.(Var.id v) <- Some x
let set_shadow st v x = Hashtbl.replace st.smap (Var.id v) x
let is_float v = Ty.equal (Var.ty v) Ty.Float

let rec emit st ~on_yield (instrs : Instr.t list) =
  List.iter (emit_instr st ~on_yield) instrs

and emit_instr st ~on_yield (ins : Instr.t) =
  let b = st.b in
  let g = fwd st in
  let t = tan st in
  match ins with
  | Const (v, c) ->
    set_fwd st v (B.const b ~name:(Var.name v) c);
    (match c with
    | Cfloat _ -> set_tan st v (B.f64 b 0.0)
    | Cnull ty -> set_shadow st v (B.null b ty)
    | _ -> ())
  | Bin (v, op, x, y) ->
    let r = B.bin b op (g x) (g y) in
    set_fwd st v r;
    if is_float v then
      set_tan st v
        (match op with
        | Add -> B.add b (t x) (t y)
        | Sub -> B.sub b (t x) (t y)
        | Mul -> B.add b (B.mul b (t x) (g y)) (B.mul b (g x) (t y))
        | Div -> B.div b (B.sub b (t x) (B.mul b r (t y))) (g y)
        | Min -> B.select b (B.le b (g x) (g y)) (t x) (t y)
        | Max -> B.select b (B.ge b (g x) (g y)) (t x) (t y)
        | Pow ->
          B.add b
            (B.mul b (t x)
               (B.mul b (g y)
                  (B.pow b (g x) (B.sub b (g y) (B.f64 b 1.0)))))
            (B.mul b (t y) (B.mul b r (B.log_ b (g x))))
        | Rem -> B.f64 b 0.0)
  | Cmp (v, op, x, y) -> set_fwd st v (B.cmp b op (g x) (g y))
  | Un (v, op, x) ->
    let r = B.un b op (g x) in
    set_fwd st v r;
    if is_float v then
      set_tan st v
        (match op with
        | Neg -> B.neg b (t x)
        | Sqrt -> B.div b (B.mul b (t x) (B.f64 b 0.5)) r
        | Sin -> B.mul b (t x) (B.cos_ b (g x))
        | Cos -> B.neg b (B.mul b (t x) (B.sin_ b (g x)))
        | Exp -> B.mul b (t x) r
        | Log -> B.div b (t x) (g x)
        | Abs ->
          B.select b (B.ge b (g x) (B.f64 b 0.0)) (t x) (B.neg b (t x))
        | Floor | ToFloat -> B.f64 b 0.0
        | ToInt | Not -> B.f64 b 0.0)
  | Select (v, c, x, y) ->
    set_fwd st v (B.select b (g c) (g x) (g y));
    if is_float v then set_tan st v (B.select b (g c) (t x) (t y));
    if Ty.is_ptr (Var.ty v) then
      set_shadow st v (B.select b (g c) (shadow st x) (shadow st y))
  | Alloc (v, elem, n, kind) ->
    set_fwd st v (B.alloc b ~kind elem (g n));
    set_shadow st v (B.alloc b ~kind elem (g n))
  | Free p ->
    B.free b (g p);
    (match Var.ty p with
    | Ty.Ptr _ -> B.free b (shadow st p)
    | _ -> ())
  | Load (v, p, ix) ->
    set_fwd st v (B.load b (g p) (g ix));
    if is_float v then set_tan st v (B.load b (shadow st p) (g ix))
    else if Ty.is_ptr (Var.ty v) then
      set_shadow st v (B.load b (shadow st p) (g ix))
    else if Ty.equal (Var.ty v) Ty.Int then
      (* possible request slot: mirror lazily on demand *)
      ()
  | Store (p, ix, x) ->
    B.store b (g p) (g ix) (g x);
    if is_float x then B.store b (shadow st p) (g ix) (t x)
    else if Ty.is_ptr (Var.ty x) then
      B.store b (shadow st p) (g ix) (shadow st x)
    else if Ty.equal (Var.ty x) Ty.Int && Hashtbl.mem st.smap (Var.id x)
    then B.store b (shadow st p) (g ix) (shadow st x)
  | Gep (v, p, ix) ->
    set_fwd st v (B.gep b (g p) (g ix));
    set_shadow st v (B.gep b (shadow st p) (g ix))
  | AtomicAdd (p, ix, x) ->
    B.atomic_add b (g p) (g ix) (g x);
    B.atomic_add b (shadow st p) (g ix) (t x)
  | Call (v, name, args) -> emit_call st v name args
  | Spawn (v, gname, args) ->
    let tname = ensure_callee st gname in
    let args' =
      List.map g args
      @ List.concat_map
          (fun a ->
            if Ty.is_ptr (Var.ty a) then [ shadow st a ]
            else if is_float a then [ tan st a ]
            else [])
          args
    in
    set_fwd st v (B.spawn b tname args')
  | Sync h -> B.sync b (g h)
  | If (rs, c, then_r, else_r) ->
    let strip (r : Instr.region) =
      match List.rev r.Instr.body with
      | Yield vs :: rest -> List.rev rest, vs
      | _ -> r.Instr.body, []
    in
    let tb, ty_ = strip then_r and eb, ey = strip else_r in
    ignore ty_;
    ignore ey;
    let float_rs = List.filter is_float rs in
    let ptr_rs = List.filter (fun r -> Ty.is_ptr (Var.ty r)) rs in
    let res_tys =
      List.map Var.ty rs
      @ List.map (fun _ -> Ty.Float) float_rs
      @ List.map Var.ty ptr_rs
    in
    let branch body yields () =
      emit st ~on_yield body;
      List.map g yields
      @ List.filter_map
          (fun (r, y) -> if is_float r then Some (t y) else None)
          (List.combine rs yields)
      @ List.filter_map
          (fun (r, y) ->
            if Ty.is_ptr (Var.ty r) then Some (shadow st y) else None)
          (List.combine rs yields)
    in
    let out =
      B.if_ b (g c) ~results:res_tys
        ~then_:(branch tb (snd (strip then_r)))
        ~else_:(branch eb (snd (strip else_r)))
    in
    let n = List.length rs and nf = List.length float_rs in
    List.iteri (fun i r -> if i < n then set_fwd st r (List.nth out i)) rs;
    List.iteri (fun i r -> set_tan st r (List.nth out (n + i))) float_rs;
    List.iteri
      (fun i r -> set_shadow st r (List.nth out (n + nf + i)))
      ptr_rs
  | For { iv; lo; hi; step; body } ->
    B.for_ b ~lo:(g lo) ~hi:(g hi) ~step:(g step) (fun iv' ->
        set_fwd st iv iv';
        emit st ~on_yield body.Instr.body)
  | While { cond; body } ->
    let strip (r : Instr.region) =
      match List.rev r.Instr.body with
      | Yield [ v ] :: rest -> List.rev rest, v
      | _ -> unsupported "forward: malformed while condition"
    in
    let cb, cv = strip cond in
    B.while_ b
      ~cond:(fun () ->
        emit st ~on_yield cb;
        fwd st cv)
      ~body:(fun () -> emit st ~on_yield body.Instr.body)
  | Fork { tid; nth; body } ->
    let nth_param =
      match body.Instr.params with [ _; q ] -> q | _ -> assert false
    in
    B.fork b ~nth:(g nth) (fun ~tid:tid' ~nth:nth' ->
        set_fwd st tid tid';
        set_fwd st nth_param nth';
        emit st ~on_yield body.Instr.body)
  | Workshare { iv; lo; hi; body; schedule; nowait } ->
    B.workshare b ~schedule ~nowait ~lo:(g lo) ~hi:(g hi) (fun iv' ->
        set_fwd st iv iv';
        emit st ~on_yield body.Instr.body)
  | Barrier -> B.barrier b
  | Return v -> on_yield (`Return (Option.map (fun x -> x) v))
  | Yield _ -> unsupported "forward: unexpected yield"

and emit_call st v name args =
  let b = st.b in
  let g = fwd st in
  if String.contains name '.' then (
    match name, args with
    | ("mpi.isend" | "mpi.irecv"), [ p; n; peer; tag ] ->
      let r = B.call b ~ret:Ty.Int name [ g p; g n; g peer; g tag ] in
      set_fwd st v r;
      (* tangents travel on a parallel channel *)
      let tagt = B.add b (g tag) (B.i64 b tangent_tag_base) in
      let rt =
        B.call b ~ret:Ty.Int name [ shadow st p; g n; g peer; tagt ]
      in
      set_shadow st v rt
    | "mpi.wait", [ r ] ->
      ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ g r ]);
      let sh = shadow_of_int st r in
      set_fwd st v (B.call b ~ret:Ty.Unit "mpi.wait" [ sh ])
    | ("mpi.send" | "mpi.recv"), [ p; n; peer; tag ] ->
      set_fwd st v (B.call b ~ret:Ty.Unit name [ g p; g n; g peer; g tag ]);
      let tagt = B.add b (g tag) (B.i64 b tangent_tag_base) in
      ignore (B.call b ~ret:Ty.Unit name [ shadow st p; g n; g peer; tagt ])
    | "mpi.allreduce_sum", [ s; r; n ] ->
      set_fwd st v (B.call b ~ret:Ty.Unit name [ g s; g r; g n ]);
      ignore
        (B.call b ~ret:Ty.Unit name [ shadow st s; shadow st r; g n ])
    | ("mpi.allreduce_min" | "mpi.allreduce_max"), [ s; r; n ] ->
      set_fwd st v (B.call b ~ret:Ty.Unit name [ g s; g r; g n ]);
      (* tangent of the winner: mask my tangent by (mine == result),
         then sum-reduce *)
      let masked = B.alloc b Ty.Float (g n) in
      B.for_n b (g n) (fun i ->
          let mine = B.load b (g s) i in
          let win = B.load b (g r) i in
          let tm = B.load b (shadow st s) i in
          let zero = B.f64 b 0.0 in
          B.store b masked i (B.select b (B.eq b mine win) tm zero));
      ignore
        (B.call b ~ret:Ty.Unit "mpi.allreduce_sum"
           [ masked; shadow st r; g n ]);
      B.free b masked
    | "mpi.bcast", [ p; n; root ] ->
      set_fwd st v (B.call b ~ret:Ty.Unit name [ g p; g n; g root ]);
      ignore (B.call b ~ret:Ty.Unit name [ shadow st p; g n; g root ])
    | "gc.preserve_begin", _ ->
      let ext =
        List.map g args
        @ List.filter_map
            (fun x ->
              if Ty.is_ptr (Var.ty x) then Some (shadow st x) else None)
            args
      in
      set_fwd st v (B.call b ~ret:Ty.Int name ext)
    | _ ->
      set_fwd st v
        (B.call b ~ret:(Reverse.intrinsic_ret_ty name) name (List.map g args)))
  else begin
    let tname = ensure_callee st name in
    let orig = Prog.find_exn st.eng_src name in
    let args' =
      List.map g args
      @ List.concat_map
          (fun a ->
            if Ty.is_ptr (Var.ty a) then [ shadow st a ]
            else if is_float a then [ tan st a ]
            else [])
          args
    in
    if Ty.equal orig.ret_ty Ty.Float then begin
      let tret = B.alloc b Ty.Float (B.i64 b 1) in
      let r = B.call b ~ret:orig.ret_ty tname (args' @ [ tret ]) in
      set_fwd st v r;
      set_tan st v (B.load b tret (B.i64 b 0));
      B.free b tret
    end
    else set_fwd st v (B.call b ~ret:orig.ret_ty tname args')
  end

and shadow_of_int st (v : Var.t) =
  match Hashtbl.find_opt st.smap (Var.id v) with
  | Some s -> s
  | None ->
    unsupported
      "forward: request arrays are not supported in tangent mode (%a)" Var.pp
      v

(* generate (and memoize) the tangent of a callee *)
and ensure_callee st gname =
  transform ~src:st.eng_src ~dst:st.dst ~seen:st.seen gname

and transform ~src ~dst ~seen fname =
  let f = Prog.find_exn src fname in
  let tname = "t_" ^ fname in
  if not (Hashtbl.mem seen fname) then begin
    Hashtbl.add seen fname ();
    let ret_float = Ty.equal f.ret_ty Ty.Float in
    let params_spec =
      List.map (fun p -> Var.name p, Var.ty p) f.params
      @ List.concat_map
          (fun p ->
            if Ty.is_ptr (Var.ty p) then [ "t_" ^ Var.name p, Var.ty p ]
            else if Ty.equal (Var.ty p) Ty.Float then
              [ "t_" ^ Var.name p, Ty.Float ]
            else [])
          f.params
      @ if ret_float then [ "t_ret", Ty.Ptr Ty.Float ] else []
    in
    let b, newparams = B.func dst tname ~params:params_spec ~ret:f.ret_ty in
    let st =
      {
        eng_src = src;
        dst;
        b;
        vmap = Array.make f.var_count None;
        tmap = Array.make f.var_count None;
        smap = Hashtbl.create 16;
        seen;
      }
    in
    let np = List.length f.params in
    List.iteri
      (fun i v -> if i < np then set_fwd st (List.nth f.params i) v)
      newparams;
    let extras = List.filteri (fun i _ -> i >= np) newparams in
    let rec bind ps extras =
      match ps, extras with
      | [], rest -> rest
      | p :: ps, e :: rest when Ty.is_ptr (Var.ty p) ->
        set_shadow st p e;
        bind ps rest
      | p :: ps, e :: rest when Ty.equal (Var.ty p) Ty.Float ->
        set_tan st p e;
        bind ps rest
      | _ :: ps, rest -> bind ps rest
    in
    let shadow_like =
      List.filter
        (fun p -> Ty.is_ptr (Var.ty p) || Ty.equal (Var.ty p) Ty.Float)
        f.params
    in
    let rest = bind shadow_like extras in
    let t_ret = match rest with [ r ] -> Some r | _ -> None in
    let returned = ref None in
    emit st
      ~on_yield:(fun (`Return v) -> returned := Some v)
      f.body;
    (match !returned with
    | Some (Some v) when ret_float ->
      (match t_ret with
      | Some tr -> B.store b tr (B.i64 b 0) (tan st v)
      | None -> ());
      B.return b (Some (fwd st v))
    | Some (Some v) -> B.return b (Some (fwd st v))
    | _ -> B.return b None);
    ignore (B.finish b)
  end;
  tname

(** [tangent prog fname] extends a copy of [prog] with [t_<fname>] (and
    tangents of callees); returns the program and the new name. *)
let tangent prog fname =
  let dst = Prog.copy prog in
  let tname = transform ~src:prog ~dst ~seen:(Hashtbl.create 8) fname in
  Verifier.check_prog dst;
  dst, tname
