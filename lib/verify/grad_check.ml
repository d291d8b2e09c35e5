(** Gradient verification (paper §VII).

    The paper's "fast mode" check compares a single projection of the
    Jacobian computed three ways: reverse mode with all output shadows
    seeded, forward perturbation of all inputs at once, and finite
    differences. For small problems we also check the full per-coordinate
    gradient against central differences.

    Loss convention: for a function with arguments
    [buffers..., ints..., scalars...] and per-pointer-argument seed
    vectors s_p (default ones) plus a return seed r,

    {v loss = r * ret + sum_p sum_j s_p[j] * p_final[j] v}

    Reverse mode computes d(loss)/d(inputs): buffer shadows are seeded
    with s_p and hold d(loss)/d(p_initial[j]) on exit; scalar argument
    adjoints land in the gradient function's [d_args] buffer. *)

open Parad_ir
open Parad_runtime
module V = Value

type arg =
  | ABuf of float array
  | AHidden of float array
      (** a buffer that participates in activation/seeding but is not
          itself an argument (it is reached through an [ATable]) *)
  | ATable of int list
      (** a pointer-table (kernel-parameter struct) argument whose cells
          point at the [ABuf]/[AHidden] buffers with those indices *)
  | AIntBuf of int array
  | AInt of int
  | AScalar of float

type gradient = {
  primal : float;  (** primal return (0.0 for unit returns) *)
  d_bufs : float array list;  (** adjoint per [ABuf] argument, in order *)
  d_scalars : float array;  (** adjoints of [AScalar] arguments, in order *)
  makespan : float;
  stats : Stats.t;
}

let ret_float (f : Func.t) = Ty.equal f.ret_ty Ty.Float

let scalar_count args =
  List.length (List.filter (function AScalar _ -> true | _ -> false) args)

let default_seeds args =
  List.filter_map
    (function
      | ABuf a | AHidden a -> Some (Array.make (Array.length a) 1.0)
      | _ -> None)
    args

(* Build interpreter values for [args]; returns the argument values plus
   the float buffers in ABuf/AHidden occurrence order (hidden buffers
   produce no argument value). *)
let build_args (ctx : Interp.ctx) args =
  let bufs = ref [] in
  let nth_buf i =
    match List.nth_opt (List.rev !bufs) i with
    | Some v -> v
    | None -> invalid_arg "ATable index out of range"
  in
  let vals =
    List.filter_map
      (function
        | ABuf a ->
          let v = Exec.floats ctx a in
          bufs := v :: !bufs;
          Some v
        | AHidden a ->
          bufs := Exec.floats ctx a :: !bufs;
          None
        | ATable idxs -> Some (Exec.ptr_table ctx (List.map nth_buf idxs))
        | AIntBuf a -> Some (Exec.ints ctx a)
        | AInt i -> Some (V.VInt i)
        | AScalar x -> Some (V.VFloat x))
      args
  in
  vals, List.rev !bufs

(** Run the primal; returns (return value, final buffer contents, result
    record). *)
let run_primal ?(cfg = Interp.default_config) prog fname args =
  let f = Prog.find_exn prog fname in
  let finals = ref [] in
  let res =
    Exec.run ~cfg prog ~fname ~setup:(fun ctx ->
        let vals, bufs = build_args ctx args in
        finals := bufs;
        vals)
  in
  let ret = if ret_float f then V.to_float res.Exec.values.(0) else 0.0 in
  ret, List.map Exec.to_floats !finals, res

(** The scalar loss described in the module docstring. *)
let loss ?(cfg = Interp.default_config) ?seeds ?(d_ret = 1.0) prog fname args =
  let f = Prog.find_exn prog fname in
  let seeds = match seeds with Some s -> s | None -> default_seeds args in
  let finals = ref [] in
  let res =
    Exec.run ~cfg prog ~fname ~setup:(fun ctx ->
        let vals, bufs = build_args ctx args in
        finals := bufs;
        vals)
  in
  let ret =
    if ret_float f then V.to_float res.Exec.values.(0) else 0.0
  in
  let acc = ref (d_ret *. ret) in
  List.iter2
    (fun bufv seed ->
      let a = Exec.to_floats bufv in
      Array.iteri (fun j s -> acc := !acc +. (s *. a.(j))) seed)
    !finals seeds;
  !acc

(* Differentiate and (by default) run the post-AD cleanup pipeline, which
   models the register promotion Enzyme gets from running inside LLVM. *)
let differentiate ?(opts = Parad_core.Plan.default_options)
    ?(post_opt = true) prog fname =
  let dprog, dname = Parad_core.Reverse.gradient ~opts prog fname in
  let dprog =
    if post_opt then
      Parad_opt.Pipeline.run_from dprog dname Parad_opt.Pipeline.post_ad
    else dprog
  in
  dprog, dname

(** Reverse-mode gradient via the AD engine. *)
let reverse ?(cfg = Interp.default_config) ?san ?opts ?post_opt
    ?seeds ?(d_ret = 1.0) prog fname args =
  let f = Prog.find_exn prog fname in
  let seeds = match seeds with Some s -> s | None -> default_seeds args in
  let dprog, dname = differentiate ?opts ?post_opt prog fname in
  let nscal = scalar_count args in
  let shadows = ref [] in
  let dargs_buf = ref V.VUnit in
  let res =
    Exec.run ~cfg ?san dprog ~fname:dname ~setup:(fun ctx ->
        let vals, _ = build_args ctx args in
        let shadow_vals =
          List.map (fun s -> Exec.floats ctx (Array.copy s)) seeds
        in
        shadows := shadow_vals;
        let tail =
          (if ret_float f then [ V.VFloat d_ret ] else [])
          @
          if nscal > 0 then begin
            let d = Exec.zeros ctx (max 1 nscal) in
            dargs_buf := d;
            [ d ]
          end
          else []
        in
        vals @ shadow_vals @ tail)
  in
  {
    primal = (if ret_float f then V.to_float res.Exec.values.(0) else 0.0);
    d_bufs = List.map Exec.to_floats !shadows;
    d_scalars =
      (if nscal > 0 then Exec.to_floats !dargs_buf else [||]);
    makespan = res.Exec.makespan;
    stats = res.Exec.stats;
  }

(** Central-difference gradient of the loss w.r.t. every float input
    coordinate (buffer cells and scalar arguments). *)
let finite_difference ?(cfg = Interp.default_config) ?seeds ?(d_ret = 1.0)
    ?(h = 1e-6) prog fname args =
  let seeds =
    match seeds with Some s -> s | None -> default_seeds args
  in
  let perturb args ~buf_idx ~cell ~scal_idx ~delta =
    List.mapi
      (fun _ a -> a)
      args
    |> List.fold_left
         (fun (bi, si, acc) a ->
           match a with
           | ABuf arr ->
             let arr' =
               if bi = buf_idx then begin
                 let c = Array.copy arr in
                 c.(cell) <- c.(cell) +. delta;
                 c
               end
               else arr
             in
             bi + 1, si, ABuf arr' :: acc
           | AHidden arr ->
             let arr' =
               if bi = buf_idx then begin
                 let c = Array.copy arr in
                 c.(cell) <- c.(cell) +. delta;
                 c
               end
               else arr
             in
             bi + 1, si, AHidden arr' :: acc
           | AScalar x ->
             let x' = if si = scal_idx then x +. delta else x in
             bi, si + 1, AScalar x' :: acc
           | AInt _ | AIntBuf _ | ATable _ -> bi, si, a :: acc)
         (0, 0, [])
    |> fun (_, _, acc) -> List.rev acc
  in
  let eval args = loss ~cfg ~seeds ~d_ret prog fname args in
  let d_bufs =
    List.filteri
      (fun _ a -> match a with ABuf _ | AHidden _ -> true | _ -> false)
      args
    |> List.mapi (fun bi a ->
           match a with
           | ABuf arr | AHidden arr ->
             Array.init (Array.length arr) (fun j ->
                 let up =
                   eval (perturb args ~buf_idx:bi ~cell:j ~scal_idx:(-1) ~delta:h)
                 in
                 let dn =
                   eval
                     (perturb args ~buf_idx:bi ~cell:j ~scal_idx:(-1)
                        ~delta:(-.h))
                 in
                 (up -. dn) /. (2.0 *. h))
           | _ -> assert false)
  in
  let nscal = scalar_count args in
  let d_scalars =
    Array.init nscal (fun si ->
        let up = eval (perturb args ~buf_idx:(-1) ~cell:0 ~scal_idx:si ~delta:h) in
        let dn =
          eval (perturb args ~buf_idx:(-1) ~cell:0 ~scal_idx:si ~delta:(-.h))
        in
        (up -. dn) /. (2.0 *. h))
  in
  d_bufs, d_scalars

(** Compare reverse mode against central differences; returns the largest
    relative error. *)
let check ?cfg ?opts ?seeds ?d_ret ?h ?(tol = 1e-4) prog fname args =
  let g = reverse ?cfg ?opts ?seeds ?d_ret prog fname args in
  let fd_bufs, fd_scal = finite_difference ?cfg ?seeds ?d_ret ?h prog fname args in
  let worst = ref 0.0 in
  let cmp a b =
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    let e = Float.abs (a -. b) /. scale in
    if e > !worst then worst := e
  in
  List.iter2 (fun g fd -> Array.iter2 cmp g fd) g.d_bufs fd_bufs;
  Array.iter2 cmp g.d_scalars fd_scal;
  if !worst > tol then
    Error
      (Fmt.str "gradient mismatch: max relative error %.3e (tol %.1e)" !worst
         tol)
  else Ok !worst

(* ---- SPMD (message passing) verification ----

   Loss over an SPMD execution:
     loss = sum_r [ d_ret(r) * ret_r + sum_p seeds(r)_p . p_final ]
   Reverse mode runs the gradient function on every rank with shadows
   seeded per rank; finite differences perturb one rank's input
   coordinate and re-run the whole SPMD program. *)

type spmd_gradient = {
  s_primals : float array;  (** per-rank returns *)
  s_d_bufs : float array list array;  (** per-rank buffer adjoints *)
  s_d_scalars : float array array;  (** per-rank scalar-arg adjoints *)
  s_makespan : float;
  s_stats : Stats.t;
}

let loss_spmd ?(cfg = Interp.default_config) ?faults ~nranks ~args ~seeds
    ~d_ret prog fname =
  let f = Prog.find_exn prog fname in
  let finals = Array.make nranks [] in
  let res =
    Exec.run_spmd ~cfg ?faults prog ~nranks ~fname ~setup:(fun ctx ~rank ->
        let vals, bufs = build_args ctx (args ~rank) in
        finals.(rank) <- bufs;
        vals)
  in
  let acc = ref 0.0 in
  for r = 0 to nranks - 1 do
    let ret =
      if ret_float f then V.to_float res.Exec.values.(r) else 0.0
    in
    acc := !acc +. (d_ret ~rank:r *. ret);
    List.iter2
      (fun bufv seed ->
        let a = Exec.to_floats bufv in
        Array.iteri (fun j s -> acc := !acc +. (s *. a.(j))) seed)
      finals.(r) (seeds ~rank:r)
  done;
  !acc

(* The body both SPMD sweeps share: differentiate, run the gradient
   through [run] with each rank's arguments, shadows and return seed,
   and read the adjoints back. [run] gets the config and the setup and
   returns the result with whatever else it reports. *)
let spmd_gradient ?(cfg = Interp.default_config) ?opts ?post_opt ~nranks
    ~args ~seeds ~d_ret ~run prog fname =
  (* the emission option is the single coalescing knob: disabling it also
     disables the runtime packing, giving the true uncoalesced baseline *)
  let cfg =
    match opts with
    | Some o when not o.Parad_core.Plan.coalesce_comm -> { cfg with Interp.coalesce = false }
    | _ -> cfg
  in
  let f = Prog.find_exn prog fname in
  let dprog, dname = differentiate ?opts ?post_opt prog fname in
  let nscal = scalar_count (args ~rank:0) in
  let shadows = Array.make nranks [] in
  let dargs = Array.make nranks V.VUnit in
  let res, extra =
    run ~cfg dprog ~fname:dname ~setup:(fun ctx ~rank ->
        let vals, _ = build_args ctx (args ~rank) in
        let shadow_vals =
          List.map
            (fun s -> Exec.floats ctx (Array.copy s))
            (seeds ~rank)
        in
        shadows.(rank) <- shadow_vals;
        let tail =
          (if ret_float f then [ V.VFloat (d_ret ~rank) ] else [])
          @
          if nscal > 0 then begin
            let d = Exec.zeros ctx (max 1 nscal) in
            dargs.(rank) <- d;
            [ d ]
          end
          else []
        in
        vals @ shadow_vals @ tail)
  in
  ( {
      s_primals =
        Array.map
          (fun v -> if ret_float f then V.to_float v else 0.0)
          res.Exec.values;
      s_d_bufs = Array.map (List.map Exec.to_floats) shadows;
      s_d_scalars =
        Array.init nranks (fun r ->
            if nscal > 0 then Exec.to_floats dargs.(r) else [||]);
      s_makespan = res.Exec.makespan;
      s_stats = res.Exec.stats;
    },
    extra )

let reverse_spmd ?cfg ?opts ?post_opt ?faults ~nranks ~args ~seeds ~d_ret
    prog fname =
  fst
    (spmd_gradient ?cfg ?opts ?post_opt ~nranks ~args ~seeds ~d_ret prog fname
       ~run:(fun ~cfg dprog ~fname ~setup ->
         Exec.run_spmd ~cfg ?faults dprog ~nranks ~fname ~setup, ()))

(** Reverse-mode SPMD gradient under a fault plan with checkpoint/restart
    recovery: on a rank kill the supervisor restores every rank from the
    latest globally-consistent checkpoint and replays. Returns
    the gradient together with the recovery record (restart count,
    failure notices, resume points). The [setup] closure is re-invoked on
    every attempt, so the shadow/adjoint buffers read out afterwards
    belong to the final (successful) attempt. *)
let reverse_spmd_recoverable ?cfg ?opts ?post_opt ?faults ?max_restarts ?store
    ~nranks ~args ~seeds ~d_ret prog fname =
  spmd_gradient ?cfg ?opts ?post_opt ~nranks ~args ~seeds ~d_ret prog fname
    ~run:(fun ~cfg dprog ~fname ~setup ->
      Exec.run_spmd_recoverable ~cfg ?faults ?max_restarts ?store dprog
        ~nranks ~fname ~setup)

(** Assert that the gradient computed through kill-and-recover is
    bit-identical to the faultless gradient: every adjoint cell, every
    scalar adjoint, and every primal return must match exactly (compared
    through [Int64.bits_of_float], so NaNs and signed zeros count too).
    Returns the recovery record on success so callers can additionally
    assert that restarts actually happened. *)
let check_recovery ?cfg ?opts ?post_opt ~faults ?max_restarts ~nranks ~args
    ~seeds ~d_ret prog fname =
  let clean =
    reverse_spmd ?cfg ?opts ?post_opt ~nranks ~args ~seeds ~d_ret prog fname
  in
  let recovered, recovery =
    reverse_spmd_recoverable ?cfg ?opts ?post_opt ~faults ?max_restarts
      ~nranks ~args ~seeds ~d_ret prog fname
  in
  let bad = ref [] in
  let cmp what a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      bad := Fmt.str "%s: clean %h vs recovered %h" what a b :: !bad
  in
  for r = 0 to nranks - 1 do
    cmp (Fmt.str "rank %d primal" r) clean.s_primals.(r)
      recovered.s_primals.(r);
    List.iteri
      (fun bi (ca, ra) ->
        Array.iteri
          (fun j c -> cmp (Fmt.str "rank %d buf %d[%d]" r bi j) c ra.(j))
          ca)
      (List.combine clean.s_d_bufs.(r) recovered.s_d_bufs.(r));
    Array.iteri
      (fun si c ->
        cmp (Fmt.str "rank %d scalar %d" r si) c
          recovered.s_d_scalars.(r).(si))
      clean.s_d_scalars.(r)
  done;
  match !bad with
  | [] -> Ok (recovered, recovery)
  | errs ->
    Error
      (Fmt.str "recovered gradient differs from faultless run:@,%a"
         Fmt.(list ~sep:(any "@,") string)
         (List.rev errs))

(** Compare SPMD reverse mode against central differences over every
    buffer coordinate of every rank. *)
let check_spmd ?cfg ?opts ?faults ~nranks ~args ~seeds ~d_ret ?(h = 1e-6)
    ?(tol = 1e-4) prog fname =
  let g =
    reverse_spmd ?cfg ?opts ?faults ~nranks ~args ~seeds ~d_ret prog fname
  in
  let worst = ref 0.0 in
  for r = 0 to nranks - 1 do
    let rargs = args ~rank:r in
    let bufs =
      List.filter_map (function ABuf a -> Some a | _ -> None) rargs
    in
    List.iteri
      (fun bi arr ->
        Array.iteri
          (fun j _ ->
            let eval delta =
              let args ~rank =
                if rank <> r then args ~rank
                else
                  List.fold_left
                    (fun (bi', acc) a ->
                      match a with
                      | ABuf arr' ->
                        let arr' =
                          if bi' = bi then begin
                            let c = Array.copy arr' in
                            c.(j) <- c.(j) +. delta;
                            c
                          end
                          else arr'
                        in
                        bi' + 1, ABuf arr' :: acc
                      | a -> bi', a :: acc)
                    (0, []) rargs
                  |> fun (_, acc) -> List.rev acc
              in
              loss_spmd ?cfg ?faults ~nranks ~args ~seeds ~d_ret prog fname
            in
            let fd = (eval h -. eval (-.h)) /. (2.0 *. h) in
            let ad = (List.nth g.s_d_bufs.(r) bi).(j) in
            let scale = Float.max 1.0 (Float.max (Float.abs fd) (Float.abs ad)) in
            let e = Float.abs (fd -. ad) /. scale in
            if e > !worst then worst := e)
          arr)
      bufs
  done;
  if !worst > tol then
    Error (Fmt.str "spmd gradient mismatch: max relative error %.3e" !worst)
  else Ok !worst
