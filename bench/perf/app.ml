(* What the benchmark differentiates, driven only through public calls.

   [compile] runs the stages of [Lulesh.compile] / [Minibude.compile]
   one call at a time, so each layer gets its own span and its own
   time; [reference] goes through the library's one-shot compile on the
   interpreter instead, so the oracle shares no code with the staged
   path it checks. *)

open Parad_ir
open Parad_runtime
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module E = Parad_engine.Engine
module SV = Parad_server.Service
module GC = Parad_verify.Grad_check
module TC = Parad_verify.Tape_check
module Plan = Parad_core.Plan
module Pipeline = Parad_opt.Pipeline

type kind =
  | Lulesh of L.flavor * L.input
  | Bude of MB.variant * MB.input
  | Tape of L.input
      (** the operator-overloading tape baseline on LULESH MPI, taped on
          the engine and swept by the tape's default reverse sweep *)

type spec = {
  kind : kind;
  nranks : int;
  nthreads : int;
  opts : Plan.options;  (** [opts.seeds] is the lane count k *)
  engine : E.choice;
}

let lanes spec = spec.opts.Plan.seeds

(* lane l is seeded with 1 + l, as the service seeds batched requests;
   lane 0 is therefore the plain gradient the FD check compares *)
let lane_seeds k = Array.init k (fun l -> 1.0 +. float_of_int l)

type plan =
  | Plulesh of L.compiled
  | Pbude of MB.compiled
  | Ptape of Prog.t * E.prepared

(** One set-up: the plan plus every intermediate program and the CPU
    time of each stage. Tape set-ups have no reverse or post-AD stage. *)
type setup = {
  plan : plan;
  primal : Prog.t;
  reverse : Prog.t option;  (** as emitted by the AD transform *)
  optimized : Prog.t option;  (** after the post-AD pipeline *)
  build_ms : float;
  reverse_ms : float;
  post_ad_ms : float;
  prepare_ms : float;
}

let instrs prog =
  List.fold_left
    (fun n (f : Func.t) -> Instr.fold_instrs (fun n _ -> n + 1) n f.body)
    0 (Prog.functions prog)

let differentiate spec prog fname =
  let (rprog, dname), reverse_ms =
    Trace.span "Reverse.gradient" (fun () ->
        Parad_core.Reverse.gradient ~opts:spec.opts prog fname)
  in
  let dprog, post_ad_ms =
    Trace.span "Pipeline.run post_ad" (fun () ->
        Pipeline.run rprog Pipeline.post_ad)
  in
  let eng, prepare_ms = Trace.span "Engine.prepare" (fun () -> E.prepare dprog) in
  rprog, dprog, dname, eng, reverse_ms, post_ad_ms, prepare_ms

let build_primal spec =
  match spec.kind with
  | Lulesh (fl, _) -> Trace.span "Lulesh.program" (fun () -> L.program fl)
  | Tape _ -> Trace.span "Lulesh.program" (fun () -> L.program L.Mpi)
  | Bude _ ->
    Trace.span "Minibude.program" (fun () ->
        MB.program ~ntasks:spec.nthreads ())

let compile spec =
  let prog, build_ms = build_primal spec in
  let staged plan rprog dprog reverse_ms post_ad_ms prepare_ms =
    {
      plan;
      primal = prog;
      reverse = Some rprog;
      optimized = Some dprog;
      build_ms;
      reverse_ms;
      post_ad_ms;
      prepare_ms;
    }
  in
  match spec.kind with
  | Lulesh (fl, _) ->
    let rprog, dprog, dname, eng, rms, pms, ems =
      differentiate spec prog (L.flavor_name fl)
    in
    staged
      (Plulesh
         {
           L.c_flavor = fl;
           c_opts = spec.opts;
           c_prog = prog;
           c_dprog = dprog;
           c_dname = dname;
           c_steps = None;
           c_eng = eng;
           c_steps_eng = None;
         })
      rprog dprog rms pms ems
  | Bude (v, _) ->
    let rprog, dprog, dname, eng, rms, pms, ems =
      differentiate spec prog (MB.variant_name v)
    in
    staged
      (Pbude
         {
           MB.c_variant = v;
           c_ntasks = spec.nthreads;
           c_opts = spec.opts;
           c_prog = prog;
           c_dprog = dprog;
           c_dname = dname;
           c_eng = eng;
         })
      rprog dprog rms pms ems
  | Tape _ ->
    let eng, prepare_ms = Trace.span "Engine.prepare" (fun () -> E.prepare prog) in
    {
      plan = Ptape (prog, eng);
      primal = prog;
      reverse = None;
      optimized = None;
      build_ms;
      reverse_ms = 0.0;
      post_ad_ms = 0.0;
      prepare_ms;
    }

(** Run the post-AD pipeline one pass at a time over [reverse]. Returns
    the CPU time per pass name, summed over the pass's repeats in the
    pipeline, and whether the result prints identically to [expect],
    the one-call pipeline's output. *)
let post_ad_by_pass reverse ~expect =
  let prog, times =
    List.fold_left
      (fun (p, acc) (pass : Pipeline.pass) ->
        let p, ms =
          Trace.span ("Pipeline.run " ^ pass.name) (fun () -> Pipeline.run p [ pass ])
        in
        p, (pass.name, ms) :: acc)
      (reverse, []) Pipeline.post_ad
  in
  let total name =
    List.fold_left (fun s (n, ms) -> if n = name then s +. ms else s) 0.0 times
  in
  total, Printer.prog_to_string prog = Printer.prog_to_string expect

(** The same plan through the library's own one-shot compile. *)
let library_plan spec =
  match spec.kind with
  | Lulesh (fl, _) -> Plulesh (L.compile ~opts:spec.opts fl)
  | Bude (v, _) -> Pbude (MB.compile ~opts:spec.opts ~ntasks:spec.nthreads v)
  | Tape _ ->
    let prog = L.program L.Mpi in
    Ptape (prog, E.prepare prog)

(* ---- gradients ---- *)

type grad = {
  digest : string;  (** FNV-1a over every lane's adjoints *)
  makespan : float;  (** virtual cycles *)
  stats : Stats.t;
  adjoints : float array list array;
      (** per rank, lane 0's adjoints of {!inputs}, in the same order *)
}

(* the argument list of a LULESH variant for the generic harnesses,
   with the x coordinates and element energies supplied by the caller *)
let lulesh_args (inp : L.input) ~nranks ~rank ~x ~e =
  let m = L.mesh inp ~nranks ~rank in
  GC.
    [
      ABuf x; ABuf m.L.coords.(1); ABuf m.L.coords.(2);
      ABuf m.L.vels.(0); ABuf m.L.vels.(1); ABuf m.L.vels.(2);
      ABuf e; AIntBuf m.L.conn; ABuf m.L.node_mass;
      AInt inp.L.nx; AInt inp.L.ny; AInt m.L.nzl; AInt inp.L.niter;
      AScalar inp.L.dt0;
    ]

(* zero seeds for the eight float buffers: the loss is rank 0's return *)
let lulesh_zero_seeds (inp : L.input) ~nranks ~rank =
  let m = L.mesh inp ~nranks ~rank in
  let nn = Array.length m.L.node_mass and ne = Array.length m.L.energy in
  List.map (fun n -> Array.make n 0.0) [ nn; nn; nn; nn; nn; nn; ne; nn ]

let rank0 ~rank = if rank = 0 then 1.0 else 0.0

let of_lulesh digest (g : L.grad_result) =
  {
    digest;
    makespan = g.L.g_makespan;
    stats = g.L.g_stats;
    adjoints = Array.mapi (fun r dx -> [ dx; g.L.d_energy.(r) ]) g.L.d_coords;
  }

let of_bude digest (g : MB.grad_result) =
  {
    digest;
    makespan = g.MB.g_makespan;
    stats = g.MB.g_stats;
    adjoints = [| [ g.MB.d_lig; g.MB.d_pro; g.MB.d_poses ] |];
  }

(** One gradient of [plan] on [engine]; the returned time covers the
    public call only, not the digest taken after it. *)
let gradient spec plan ~engine =
  let k = lanes spec in
  let nthreads = spec.nthreads and nranks = spec.nranks in
  match plan, spec.kind with
  | Plulesh c, Lulesh (_, inp) when k > 1 ->
    let gs, ms =
      Trace.span "Lulesh.gradient_batched" (fun () ->
          L.gradient_batched ~nthreads ~engine c ~d_rets:(lane_seeds k) inp)
    in
    of_lulesh (SV.digest_lulesh_lanes gs) gs.(0), ms
  | Plulesh c, Lulesh (_, inp) ->
    let g, ms =
      Trace.span "Lulesh.gradient_compiled" (fun () ->
          L.gradient_compiled ~nthreads ~nranks ~engine c inp)
    in
    of_lulesh (SV.digest_lulesh g) g, ms
  | Pbude c, Bude (_, inp) when k > 1 ->
    let gs, ms =
      Trace.span "Minibude.gradient_batched" (fun () ->
          MB.gradient_batched ~nthreads ~engine c ~ge_seeds:(lane_seeds k) inp)
    in
    of_bude (SV.digest_bude_lanes gs) gs.(0), ms
  | Pbude c, Bude (_, inp) ->
    let g, ms =
      Trace.span "Minibude.gradient_compiled" (fun () ->
          MB.gradient_compiled ~nthreads ~engine c inp)
    in
    of_bude (SV.digest_bude g) g, ms
  | Ptape (prog, eng), Tape inp ->
    let (g, _), ms =
      Trace.span "Tape_check.reverse_spmd" (fun () ->
          TC.reverse_spmd
            ~cfg:{ Interp.default_config with nthreads }
            ~call_slots:(E.call_fn_slots eng engine) prog (L.flavor_name L.Mpi) ~nranks
            ~args:(fun ~rank ->
              let m = L.mesh inp ~nranks ~rank in
              lulesh_args inp ~nranks ~rank ~x:m.L.coords.(0) ~e:m.L.energy)
            ~seeds:(lulesh_zero_seeds inp ~nranks)
            ~d_ret:rank0)
    in
    let h = SV.digest_floats SV.fnv_init g.GC.s_primals in
    let h = Array.fold_left (List.fold_left SV.digest_floats) h g.GC.s_d_bufs in
    ( {
        digest = Printf.sprintf "%016Lx" h;
        makespan = g.GC.s_makespan;
        stats = g.GC.s_stats;
        adjoints =
          Array.map (fun d -> [ List.nth d 0; List.nth d 6 ]) g.GC.s_d_bufs;
      },
      ms )
  | (Plulesh _ | Pbude _ | Ptape _), _ -> invalid_arg "App.gradient: plan/spec mismatch"

(** The oracle's gradient: the library's one-shot compile of the same
    plan, executed by the tree-walking interpreter. *)
let reference spec = fst (gradient spec (library_plan spec) ~engine:E.Interp)

(* ---- the primal ---- *)

(* the LULESH variant and input behind a LULESH or tape spec *)
let lulesh spec =
  match spec.kind with
  | Lulesh (fl, inp) -> fl, inp
  | Tape inp -> L.Mpi, inp
  | Bude _ -> invalid_arg "App.lulesh: a miniBUDE spec"

(** One primal run of [prog] (built by {!compile}) through [prep]:
    virtual makespan and CPU milliseconds. *)
let primal spec prog prep ~engine =
  let cfg = { Interp.default_config with nthreads = spec.nthreads } in
  let call = E.call_fn prep engine in
  let res, ms =
    Trace.span "Exec.run primal" (fun () ->
        match spec.kind with
        | Bude (v, inp) ->
          Exec.run ~cfg ~call prog ~fname:(MB.variant_name v) ~setup:(fun ctx ->
              fst (MB.setup_args v inp ctx))
        | Lulesh _ | Tape _ ->
          let fl, inp = lulesh spec in
          Exec.run_spmd ~cfg ~call prog ~nranks:spec.nranks
            ~fname:(L.flavor_name fl) ~setup:(fun ctx ~rank ->
              let args, _, _ = L.setup_args fl inp ~nranks:spec.nranks ctx ~rank in
              args))
  in
  res.Exec.makespan, ms

(* ---- finite differences ---- *)

(** The inputs the FD check perturbs, per rank, in {!grad.adjoints}
    order. *)
let inputs spec =
  match spec.kind with
  | Bude (_, inp) -> [| [ inp.MB.lig_data; inp.MB.pro_data; inp.MB.pose_data ] |]
  | Lulesh _ | Tape _ ->
    let _, inp = lulesh spec in
    Array.init spec.nranks (fun rank ->
        let m = L.mesh inp ~nranks:spec.nranks ~rank in
        [ m.L.coords.(0); m.L.energy ])

(* the differentiated scalar at the given inputs, on the interpreter *)
let loss spec (xs : float array list array) =
  let nranks = spec.nranks in
  match spec.kind with
  | Lulesh _ | Tape _ ->
    let fl, inp = lulesh spec in
    GC.loss_spmd
      ~cfg:{ Interp.default_config with nthreads = spec.nthreads }
      ~nranks (L.program fl) (L.flavor_name fl)
      ~args:(fun ~rank ->
        match xs.(rank) with
        | [ x; e ] -> lulesh_args inp ~nranks ~rank ~x ~e
        | _ -> invalid_arg "App.loss")
      ~seeds:(lulesh_zero_seeds inp ~nranks)
      ~d_ret:rank0
  | Bude (v, inp) -> (
    match xs.(0) with
    | [ lig_data; pro_data; pose_data ] ->
      let inp = { inp with MB.lig_data; pro_data; pose_data } in
      Array.fold_left ( +. ) 0.0
        (MB.run ~nthreads:spec.nthreads v inp).MB.energies
    | _ -> invalid_arg "App.loss")

(** Seeded directional check: ⟨∇f, v⟩ from lane 0's adjoints against
    central differences of the primal along a random direction v,
    Richardson-extrapolated over steps h and h/2 so the truncation error
    of miniBUDE's steep 6-12 term stays far below the tolerance. Returns
    the relative error. *)
let fd_rel_error spec (g : grad) ~seed =
  let st = Random.State.make [| seed; 0xfd |] in
  let base = inputs spec in
  let dirs =
    Array.map (List.map (Array.map (fun _ -> Random.State.float st 2.0 -. 1.0))) base
  in
  let dot = ref 0.0 in
  Array.iteri
    (fun r vs ->
      List.iter2
        (fun v g -> Array.iteri (fun i vi -> dot := !dot +. (vi *. g.(i))) v)
        vs g.adjoints.(r))
    dirs;
  let at h =
    loss spec
      (Array.map2
         (List.map2 (fun x v -> Array.mapi (fun i xi -> xi +. (h *. v.(i))) x))
         base dirs)
  in
  let central h = (at h -. at (-.h)) /. (2.0 *. h) in
  let h = 1e-5 in
  let fd = ((4.0 *. central (h /. 2.0)) -. central h) /. 3.0 in
  Float.abs (fd -. !dot) /. Float.max (Float.abs !dot) Float.min_float

(** Largest normwise relative difference, array by array, between the
    tape's adjoints and reverse mode's on the same LULESH MPI input. *)
let tape_vs_reverse spec (g : grad) =
  let _, inp = lulesh spec in
  let r = L.gradient ~nranks:spec.nranks ~engine:E.Interp L.Mpi inp in
  let worst = ref 0.0 in
  Array.iteri
    (fun rank tape ->
      List.iter2
        (fun a b ->
          let diff = ref 0.0 and scale = ref Float.min_float in
          Array.iteri
            (fun i bi ->
              diff := Float.max !diff (Float.abs (a.(i) -. bi));
              scale := Float.max !scale (Float.abs bi))
            b;
          worst := Float.max !worst (!diff /. !scale))
        tape
        [ r.L.d_coords.(rank); r.L.d_energy.(rank) ])
    g.adjoints;
  !worst
