(** miniBUDE proxy: the compute-bound molecular-docking kernel of the
    paper's second benchmark (BUDE's pose-energy evaluation).

    For every candidate pose (three Euler angles + translation) the
    ligand's atoms are rigidly transformed and their pairwise interaction
    energy with every protein atom is accumulated (a Lennard-Jones-style
    steric term plus a distance-capped electrostatic term, with the
    branchy cutoff logic that makes the kernel select-heavy).

    Variants (as in the paper's evaluation):
    - ["bude_seq"] — sequential C++-style baseline
    - ["bude_omp"] — OpenMP: `parallel for` over poses
    - ["bude_julia"] — Julia: task-chunked parallel for over poses, with
      descriptor-indirected GC arrays

    Inputs: ligand (4 floats per atom: x y z charge), protein (4 per
    atom), poses (6 per pose); output: energies (1 per pose). The
    gradient of interest is d(sum of energies)/d(atom data and poses). *)

open Parad_ir
module B = Builder
module Jl = Parad_julia.Julia_fe

(* array handle: raw pointer (C++) or descriptor array (Julia) *)
type h = Raw of Var.t | Jl of Jl.arr

let ld b h i = match h with Raw p -> B.load b p i | Jl a -> Jl.get b a i
let st b h i v = match h with Raw p -> B.store b p i v | Jl a -> Jl.set b a i v

type deck = {
  lig : h;  (** 4 * natlig *)
  pro : h;  (** 4 * natpro *)
  poses : h;  (** 6 * nposes *)
  energies : h;  (** nposes *)
  natlig : Var.t;
  natpro : Var.t;
}

(* energy of pose [p]: emitted once, shared by every variant *)
let emit_pose_energy b (d : deck) p =
  let f = B.f64 b in
  let i6 = B.mul b p (B.i64 b 6) in
  let pose k = ld b d.poses (B.add b i6 (B.i64 b k)) in
  let ax = pose 0 and ay = pose 1 and az = pose 2 in
  let tx = pose 3 and ty = pose 4 and tz = pose 5 in
  let sx = B.sin_ b ax and cx = B.cos_ b ax in
  let sy = B.sin_ b ay and cy = B.cos_ b ay in
  let sz = B.sin_ b az and cz = B.cos_ b az in
  (* rotation matrix R = Rz * Ry * Rx *)
  let r00 = B.mul b cz cy in
  let r01 = B.sub b (B.mul b (B.mul b cz sy) sx) (B.mul b sz cx) in
  let r02 = B.add b (B.mul b (B.mul b cz sy) cx) (B.mul b sz sx) in
  let r10 = B.mul b sz cy in
  let r11 = B.add b (B.mul b (B.mul b sz sy) sx) (B.mul b cz cx) in
  let r12 = B.sub b (B.mul b (B.mul b sz sy) cx) (B.mul b cz sx) in
  let r20 = B.neg b sy in
  let r21 = B.mul b cy sx in
  let r22 = B.mul b cy cx in
  let etot = B.alloc b Ty.Float (B.i64 b 1) in
  let z0 = B.i64 b 0 in
  B.store b etot z0 (f 0.0);
  B.for_n b d.natlig (fun l ->
      let l4 = B.mul b l (B.i64 b 4) in
      let lat k = ld b d.lig (B.add b l4 (B.i64 b k)) in
      let lx = lat 0 and ly = lat 1 and lz = lat 2 and lq = lat 3 in
      let x =
        B.add b tx
          (B.add b (B.mul b r00 lx) (B.add b (B.mul b r01 ly) (B.mul b r02 lz)))
      in
      let y =
        B.add b ty
          (B.add b (B.mul b r10 lx) (B.add b (B.mul b r11 ly) (B.mul b r12 lz)))
      in
      let z =
        B.add b tz
          (B.add b (B.mul b r20 lx) (B.add b (B.mul b r21 ly) (B.mul b r22 lz)))
      in
      B.for_n b d.natpro (fun q ->
          let q4 = B.mul b q (B.i64 b 4) in
          let pat k = ld b d.pro (B.add b q4 (B.i64 b k)) in
          let px = pat 0 and py = pat 1 and pz = pat 2 and pq = pat 3 in
          let dx = B.sub b x px
          and dy = B.sub b y py
          and dz = B.sub b z pz in
          let r2 =
            B.add b (B.mul b dx dx) (B.add b (B.mul b dy dy) (B.mul b dz dz))
          in
          let r2s = B.max_ b r2 (f 0.01) in
          let r = B.sqrt_ b r2s in
          (* steric 6-12 term *)
          let inv2 = B.div b (f 1.0) r2s in
          let inv6 = B.mul b inv2 (B.mul b inv2 inv2) in
          let e_lj =
            B.mul b (f 0.08) (B.sub b (B.mul b inv6 inv6) inv6)
          in
          (* electrostatic with linear distance cap (BUDE's elcdst) *)
          let cap = B.max_ b (f 0.0) (B.sub b (f 1.0) (B.div b r (f 4.0))) in
          let e_el = B.mul b (f 0.4) (B.mul b (B.mul b lq pq) cap) in
          (* hard cutoff select *)
          let within = B.lt b r2 (f 64.0) in
          let e = B.select b within (B.add b e_lj e_el) (f 0.0) in
          let cur = B.load b etot z0 in
          B.store b etot z0 (B.add b cur e)));
  let r = B.load b etot z0 in
  B.free b etot;
  r

(* The C++ variants receive the deck as a kernel-parameter struct (a
   table of pointers: lig, pro, poses), exactly like miniBUDE's params
   struct: the outlined OpenMP body loads the field pointers inside the
   parallel region, which is what OpenMPOpt's load hoisting (and the AD
   caching win that follows) is about. *)
let raw_params =
  [
    "deck", Ty.Ptr (Ty.Ptr Ty.Float);
    "energies", Ty.Ptr Ty.Float;
    "natlig", Ty.Int;
    "natpro", Ty.Int;
    "nposes", Ty.Int;
  ]

let raw_attrs =
  Func.[ noalias_readonly; noalias; default_attr; default_attr; default_attr ]

(* load the deck's field pointers (emitted inside the loop body, as the
   outlined closure would) *)
let deck_fields b deck energies natlig natpro =
  let fld k = B.load b deck (B.i64 b k) in
  {
    lig = Raw (fld 0);
    pro = Raw (fld 1);
    poses = Raw (fld 2);
    energies = Raw energies;
    natlig;
    natpro;
  }

(** Sequential variant. *)
let build_seq prog =
  let b, ps = B.func prog "bude_seq" ~attrs:raw_attrs ~params:raw_params ~ret:Ty.Unit in
  (match ps with
  | [ deck; energies; natlig; natpro; nposes ] ->
    B.for_n b nposes (fun p ->
        (* checkpoint per pose; all live state is argument-reachable *)
        ignore (B.call b ~ret:Ty.Unit "parad.checkpoint" [ p ]);
        let d = deck_fields b deck energies natlig natpro in
        st b d.energies p (emit_pose_energy b d p))
  | _ -> assert false);
  B.return b None;
  ignore (B.finish b)

(** OpenMP variant: worksharing over poses. *)
let build_omp prog =
  let b, ps = B.func prog "bude_omp" ~attrs:raw_attrs ~params:raw_params ~ret:Ty.Unit in
  (match ps with
  | [ deck; energies; natlig; natpro; nposes ] ->
    B.parallel_for b ~lo:(B.i64 b 0) ~hi:nposes (fun p ->
        let d = deck_fields b deck energies natlig natpro in
        st b d.energies p (emit_pose_energy b d p))
  | _ -> assert false);
  B.return b None;
  ignore (B.finish b)

(** Julia variant: a chunk worker spawned as tasks, GC arrays with
    descriptor indirection. *)
let jl_params =
  [
    "lig", Jl.desc_ty;
    "pro", Jl.desc_ty;
    "poses", Jl.desc_ty;
    "energies", Jl.desc_ty;
    "natlig", Ty.Int;
    "natpro", Ty.Int;
  ]

let build_julia prog ~ntasks =
  (* the @threads body, outlined as Julia lowers closures *)
  let b, ps =
    B.func prog "bude_chunk_jl"
      ~params:(jl_params @ [ "lo", Ty.Int; "hi", Ty.Int ])
      ~ret:Ty.Unit
  in
  (match ps with
  | [ lig; pro; poses; energies; natlig; natpro; lo; hi ] ->
    let arr v = Jl (Jl.of_param b v ~len:(B.i64 b 0)) in
    let d =
      { lig = arr lig; pro = arr pro; poses = arr poses;
        energies = arr energies; natlig; natpro }
    in
    B.for_ b ~lo ~hi (fun p -> st b d.energies p (emit_pose_energy b d p))
  | _ -> assert false);
  B.return b None;
  ignore (B.finish b);
  let b, ps =
    B.func prog "bude_julia"
      ~params:(jl_params @ [ "nposes", Ty.Int ])
      ~ret:Ty.Unit
  in
  (match ps with
  | [ lig; pro; poses; energies; natlig; natpro; nposes ] ->
    Jl.threads_for b ~worker:"bude_chunk_jl"
      ~args:[ lig; pro; poses; energies; natlig; natpro ]
      ~lo:(B.i64 b 0) ~hi:nposes ~ntasks:(B.i64 b ntasks)
  | _ -> assert false);
  B.return b None;
  ignore (B.finish b)

(** Build all variants into a fresh program. *)
let program ?(ntasks = 4) () =
  let prog = Prog.create () in
  build_seq prog;
  build_omp prog;
  build_julia prog ~ntasks;
  Verifier.check_prog prog;
  prog

(* ---- deck generation (deterministic synthetic inputs) ---- *)

type input = {
  lig_data : float array;
  pro_data : float array;
  pose_data : float array;
  nposes : int;
  natlig : int;
  natpro : int;
}

let deck ~nposes ~natlig ~natpro =
  let r = ref 123456789 in
  let rnd () =
    r := (!r * 1103515245) + 12345;
    float_of_int (abs !r mod 10000) /. 10000.0
  in
  let lig_data =
    Array.init (4 * natlig) (fun i ->
        if i mod 4 = 3 then (rnd () -. 0.5) *. 2.0 else (rnd () -. 0.5) *. 3.0)
  in
  let pro_data =
    Array.init (4 * natpro) (fun i ->
        if i mod 4 = 3 then (rnd () -. 0.5) *. 2.0 else (rnd () -. 0.5) *. 8.0)
  in
  let pose_data =
    Array.init (6 * nposes) (fun i ->
        if i mod 6 < 3 then rnd () *. 6.28 else (rnd () -. 0.5) *. 2.0)
  in
  { lig_data; pro_data; pose_data; nposes; natlig; natpro }

(* ---- harness: run and differentiate each variant ---- *)

open Parad_runtime
module Engine = Parad_engine.Engine

type variant = Seq | Omp | Julia

let variant_name = function
  | Seq -> "bude_seq"
  | Omp -> "bude_omp"
  | Julia -> "bude_julia"

(* the Julia variant spawns its chunk workers as tasks *)
let spawns_tasks = function Julia -> true | Seq | Omp -> false

type run_result = {
  energies : float array;
  makespan : float;
  stats : Stats.t;
}

(* build argument values for a variant; returns (args, energies buffer or
   its data buffer, julia data buffers for shadows if any) *)
let setup_args variant (inp : input) ctx =
  let open Value in
  match variant with
  | Seq | Omp ->
    let lig = Exec.floats ctx inp.lig_data in
    let pro = Exec.floats ctx inp.pro_data in
    let poses = Exec.floats ctx inp.pose_data in
    let energies = Exec.zeros ctx inp.nposes in
    let deck = Exec.ptr_table ctx [ lig; pro; poses ] in
    ( [ deck; energies; VInt inp.natlig; VInt inp.natpro; VInt inp.nposes ],
      [ lig; pro; poses; energies ] )
  | Julia ->
    let pack data =
      let d = Exec.floats ctx data in
      Exec.ptr_cell ctx d, d
    in
    let lig, lig_d = pack inp.lig_data in
    let pro, pro_d = pack inp.pro_data in
    let poses, poses_d = pack inp.pose_data in
    let energies, energies_d = pack (Array.make inp.nposes 0.0) in
    ( [
        lig; pro; poses; energies;
        VInt inp.natlig; VInt inp.natpro; VInt inp.nposes;
      ],
      [ lig_d; pro_d; poses_d; energies_d ] )

let run ?(nthreads = 1) ?(pre = []) ?san ?faults ?(engine = Engine.Interp)
    variant (inp : input) : run_result =
  let cfg = { Interp.default_config with nthreads } in
  let prog = program ~ntasks:nthreads () in
  let prog =
    if pre = [] then prog
    else Parad_opt.Pipeline.run prog pre
  in
  let call = Engine.call_fn (Engine.prepare prog) engine in
  let outs = ref [] in
  let res =
    Exec.run ~cfg ?san ?faults ~call prog ~fname:(variant_name variant)
      ~setup:(fun ctx ->
        let args, bufs = setup_args variant inp ctx in
        outs := bufs;
        args)
  in
  let energies =
    match List.rev !outs with e :: _ -> Exec.to_floats e | [] -> [||]
  in
  { energies; makespan = res.Exec.makespan; stats = res.Exec.stats }

type grad_result = {
  g_energies : float array;
  d_lig : float array;
  d_pro : float array;
  d_poses : float array;
  g_makespan : float;
  g_stats : Stats.t;
}

(* ---- compiled plans (ISSUE 7) — see Lulesh.compiled ---- *)

type compiled = {
  c_variant : variant;
  c_ntasks : int;  (** the task split is baked into the IR *)
  c_opts : Parad_core.Plan.options;
  c_prog : Parad_ir.Prog.t;
  c_dprog : Parad_ir.Prog.t;
  c_dname : string;
  c_eng : Engine.prepared;
      (** lowered form of [c_dprog] for the execution engine — populated
          lazily per function on first engine-path request *)
}

(** Compile [variant] once for repeated gradient execution. [ntasks] is
    part of the plan key: the Julia/OMP task decomposition is baked into
    the generated IR, so a different thread count is a different plan. *)
let compile ?(opts = Parad_core.Plan.default_options) ?(post_opt = true)
    ?(pre = []) ~ntasks variant : compiled =
  let prog = program ~ntasks () in
  let prog = if pre = [] then prog else Parad_opt.Pipeline.run prog pre in
  let dprog, dname =
    Parad_core.Reverse.gradient ~opts prog (variant_name variant)
  in
  let dprog =
    if post_opt then
      Parad_opt.Pipeline.run_from dprog dname Parad_opt.Pipeline.post_ad
    else dprog
  in
  { c_variant = variant; c_ntasks = ntasks; c_opts = opts; c_prog = prog;
    c_dprog = dprog; c_dname = dname; c_eng = Engine.prepare dprog }

(** Run one gradient against a plan compiled with [opts.seeds = k]: one
    taping pass and one reverse sweep propagate k energy seeds — lane
    [l] seeds every pose's energy adjoint with [ge_seeds.(l)]. Returns
    one {!grad_result} per lane, each column bit-identical to a
    standalone run with [~ge_seed:ge_seeds.(l)]. At one lane the planes
    are handed back uncopied. *)
let gradient_batched ?nthreads ?san ?faults ?deadline
    ?(engine = Engine.Interp) ?stats (c : compiled) ~ge_seeds (inp : input) :
    grad_result array =
  let seeds = c.c_opts.Parad_core.Plan.seeds in
  if Array.length ge_seeds <> seeds then
    invalid_arg
      (Printf.sprintf "gradient_batched: %d seed values for a %d-lane plan"
         (Array.length ge_seeds) seeds);
  let nthreads = Option.value nthreads ~default:c.c_ntasks in
  let cfg = { Interp.default_config with nthreads } in
  let variant = c.c_variant in
  let shadows = ref [] in
  let outs = ref [] in
  let res =
    Exec.run ~cfg ?san ?faults ?deadline ?stats
      ~call:(Engine.call_fn c.c_eng engine) c.c_dprog ~fname:c.c_dname
      ~setup:(fun ctx ->
        let args, bufs = setup_args variant inp ctx in
        outs := bufs;
        (* k-stride shadow planes, in pointer-parameter order: cell i,
           lane l at [i*k + l] *)
        let plane len = Exec.floats ctx (Array.make (len * seeds) 0.0) in
        let gl = plane (Array.length inp.lig_data) in
        let gp = plane (Array.length inp.pro_data) in
        let gq = plane (Array.length inp.pose_data) in
        let ge =
          Exec.floats ctx
            (Array.init (inp.nposes * seeds) (fun i ->
                 ge_seeds.(i mod seeds)))
        in
        shadows := [ gl; gp; gq; ge ];
        match variant with
        | Seq | Omp ->
          let d_deck = Exec.ptr_table ctx [ gl; gp; gq ] in
          args @ [ d_deck; ge ]
        | Julia ->
          let wrap v = Exec.ptr_cell ctx v in
          args @ [ wrap gl; wrap gp; wrap gq; wrap ge ])
  in
  match !shadows, List.rev !outs with
  | [ gl; gp; gq; _ ], e :: _ ->
    let energies = Exec.to_floats e in
    let pl = Exec.to_floats gl
    and pp = Exec.to_floats gp
    and pq = Exec.to_floats gq in
    let col plane lane =
      if seeds = 1 then plane
      else
        Array.init (Array.length plane / seeds) (fun i ->
            plane.((i * seeds) + lane))
    in
    Array.init seeds (fun lane ->
        {
          g_energies = energies;
          d_lig = col pl lane;
          d_pro = col pp lane;
          d_poses = col pq lane;
          g_makespan = res.Exec.makespan;
          g_stats = res.Exec.stats;
        })
  | _ -> assert false

(** Execute one gradient request against a cached plan: lane 0 of a
    one-lane {!gradient_batched} seeded with [ge_seed] (pure
    interpretation; bit-identical to a cold {!gradient}). *)
let gradient_compiled ?nthreads ?san ?faults ?deadline ?(ge_seed = 1.0)
    ?engine ?stats (c : compiled) (inp : input) : grad_result =
  (gradient_batched ?nthreads ?san ?faults ?deadline ?engine ?stats c
     ~ge_seeds:[| ge_seed |] inp).(0)

(** {!gradient_compiled} under whole-run restarts. miniBUDE has no
    checkpoint/restart harness, so a flip caught by a region digest
    ([Checkpoint.Corrupt_region]) is consumed from [faults] and the
    gradient re-run from the start, at most [max_restarts] times; past
    that the corruption propagates. Returns the gradient and the restarts
    it took. The stats are the final run's, plus one restart and one
    injected, detected and recovered flip per restart, and the host time
    of every failed run ([wall_ns]). *)
let gradient_restarting ?nthreads ?san ?faults ?deadline ?engine
    ~max_restarts (c : compiled) (inp : input) : grad_result * int =
  let rec go faults restarts failed_ns =
    let stats = Stats.create () in
    match
      gradient_compiled ?nthreads ?san ?faults ?deadline ?engine ~stats c inp
    with
    | g ->
      let s = g.g_stats in
      s.wall_ns <- s.wall_ns + failed_ns;
      s.restarts <- s.restarts + restarts;
      s.sdc_injected <- s.sdc_injected + restarts;
      s.sdc_detected <- s.sdc_detected + restarts;
      s.sdc_recovered <- s.sdc_recovered + restarts;
      g, restarts
    | exception (Checkpoint.Corrupt_region _ as e)
      when restarts < max_restarts ->
      go
        (Option.map (fun p -> Outcome.consumed p e) faults)
        (restarts + 1)
        (failed_ns + stats.wall_ns)
  in
  go faults 0 0

(** Reverse-mode gradient of sum(energies) w.r.t. ligand, protein and
    poses, through the chosen parallel variant. One-shot: compiles and
    executes. *)
let gradient ?(nthreads = 1) ?san ?faults
    ?(opts = Parad_core.Plan.default_options) ?(post_opt = true) ?(pre = [])
    ?deadline ?engine variant (inp : input) : grad_result =
  gradient_compiled ~nthreads ?san ?faults ?deadline ?engine
    (compile ~opts ~post_opt ~pre ~ntasks:nthreads variant)
    inp
