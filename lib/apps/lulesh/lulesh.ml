(** LULESH proxy: an explicit Lagrangian shock-hydrodynamics mini-app with
    the data-movement character the paper picks LULESH for — indirection-
    based gather/scatter over an element-node mesh, a manual min-reduction
    for the time-step constraint (Fig 7), and slab-decomposed ghost
    exchange with nonblocking MPI held in request arrays.

    The physics is a faithful *simplification* of LULESH's leapfrog: per
    iteration it (1) zeroes nodal forces, (2) gathers each hexahedron's
    nodes, computes volume (corner triple product), an ideal-gas pressure,
    a velocity-divergence artificial viscosity, and scatter-adds
    stress+hourglass forces to the nodes, (3) exchanges boundary-plane
    force contributions between slab neighbours, (4) integrates
    acceleration/velocity/position, (5) updates internal energy with the
    p dV work, and (6) computes the next time step as a Courant-style
    min-reduction (globally min-reduced under MPI). The returned loss is
    the total internal energy (all-reduced under MPI).

    Variants (one IR function each, sharing the same physics emitters):
    - ["lulesh_seq"]     sequential C++ baseline
    - ["lulesh_omp"]     OpenMP: worksharing loops, atomic scatter,
                         the Fig 7 manual min-reduction
    - ["lulesh_raja"]    RAJA frontend (lowers onto the OpenMP IR)
    - ["lulesh_mpi"]     MPI: serial compute per rank + ghost exchange
    - ["lulesh_hybrid"]  MPI × OpenMP
    - ["lulesh_jl"]      Julia: descriptor-indirected GC arrays + MPI.jl
                         wrappers with GC preservation (serial compute per
                         rank, as LULESH.jl) *)

open Parad_ir
module B = Builder
module Jl = Parad_julia.Julia_fe
module Raja = Parad_raja.Raja

(* ---- array handles: C++ pointers or Julia descriptor arrays ---- *)

type h = Raw of Var.t | Jla of Jl.arr

let ld b h i = match h with Raw p -> B.load b p i | Jla a -> Jl.get b a i
let st b h i v =
  match h with Raw p -> B.store b p i v | Jla a -> Jl.set b a i v

type flavor = Seq | Omp | Raja_ | Mpi | Hybrid | RajaMpi | Jlmpi

let flavor_name = function
  | Seq -> "lulesh_seq"
  | Omp -> "lulesh_omp"
  | Raja_ -> "lulesh_raja"
  | Mpi -> "lulesh_mpi"
  | Hybrid -> "lulesh_hybrid"
  | RajaMpi -> "lulesh_raja_mpi"
  | Jlmpi -> "lulesh_jl"

let uses_mpi = function
  | Mpi | Hybrid | RajaMpi | Jlmpi -> true
  | Seq | Omp | Raja_ -> false

(** Raises [Outcome.Invalid_request] unless [flavor] runs on [nranks]
    ranks: only an MPI flavor couples its ranks' slabs, so a
    shared-memory flavor on more than one would differentiate another
    loss. *)
let check_ranks flavor ~nranks =
  if nranks > 1 && not (uses_mpi flavor) then
    Parad_runtime.Outcome.invalid
      "flavor %S is not MPI-capable; nranks must be 1" (flavor_name flavor)

let threaded = function
  | Omp | Raja_ | Hybrid | RajaMpi -> true
  | Seq | Mpi | Jlmpi -> false

let julia = function Jlmpi -> true | _ -> false

(* parallel-for over [0,hi) per flavor *)
let pfor flavor b ~hi body =
  match flavor with
  | Seq | Mpi | Jlmpi -> B.for_n b hi body
  | Omp | Hybrid -> B.parallel_for b ~lo:(B.i64 b 0) ~hi body
  | Raja_ | RajaMpi -> Raja.forall b ~lo:(B.i64 b 0) ~hi body

(* accumulate v into h[i]: atomic when the loop runs threaded (the
   scatter-add force accumulation; LULESH's OMP version uses atomics) *)
let scatter flavor b h i v =
  if threaded flavor then
    match h with
    | Raw p -> B.atomic_add b p i v
    | Jla _ -> invalid_arg "lulesh: threaded julia scatter"
  else begin
    let cur = ld b h i in
    st b h i (B.add b cur v)
  end

(* min over elements of [body i], per flavor:
   - threaded: the Fig 7 manual per-thread-slot reduction for Omp/Hybrid,
     RAJA's ReduceMin for Raja_
   - otherwise a serial fold *)
let min_over flavor b ~hi body =
  match flavor with
  | Seq | Mpi | Jlmpi ->
    let cell = B.alloc b Ty.Float (B.i64 b 1) in
    let z = B.i64 b 0 in
    B.store b cell z (B.f64 b infinity);
    B.for_n b hi (fun i ->
        let v = body i in
        let cur = B.load b cell z in
        B.store b cell z (B.min_ b cur v));
    let r = B.load b cell z in
    B.free b cell;
    r
  | Omp | Hybrid ->
    (* Fig 7: per-thread partial mins, then a serial combine *)
    let nt = B.call b ~ret:Ty.Int "omp.max_threads" [] in
    let per = B.alloc b Ty.Float nt in
    B.for_n b nt (fun t -> B.store b per t (B.f64 b infinity));
    B.fork b (fun ~tid ~nth:_ ->
        let local = B.alloc b Ty.Float (B.i64 b 1) in
        let z = B.i64 b 0 in
        B.store b local z (B.f64 b infinity);
        B.workshare b ~lo:(B.i64 b 0) ~hi (fun i ->
            let v = body i in
            let cur = B.load b local z in
            B.store b local z (B.min_ b cur v));
        let cur = B.load b per tid in
        B.store b per tid (B.min_ b cur (B.load b local z));
        B.free b local);
    let cell = B.alloc b Ty.Float (B.i64 b 1) in
    let z = B.i64 b 0 in
    B.store b cell z (B.f64 b infinity);
    B.for_n b nt (fun t ->
        let cur = B.load b cell z in
        B.store b cell z (B.min_ b cur (B.load b per t)));
    let r = B.load b cell z in
    B.free b cell;
    B.free b per;
    r
  | Raja_ | RajaMpi ->
    let red = Raja.reduce_min b in
    Raja.forall_reduce b ~lo:(B.i64 b 0) ~hi (fun ~i ~tid ->
        Raja.contribute b red ~tid (body i));
    Raja.get b red

(* ---- the mesh kernel ---- *)

type bufs = {
  x : h; y : h; z : h;
  xd : h; yd : h; zd : h;
  e : h;
  nodelist : Var.t;  (** Ptr Int, 8 per element *)
  mass : h;
  nx : Var.t; ny : Var.t; nzl : Var.t;  (** local element dims *)
  nn : Var.t;  (** local node count *)
  ne : Var.t;  (** local element count *)
}

(* [loss = false] emits the "steps" variant used by the binomial
   checkpointed-adjoint driver: the same timestep loop, but no loss
   reduction — the function returns the final time step instead, so a
   segment's gradient can seed the adjoint of the loop-carried dt at its
   upper boundary (via d_ret) and read the adjoint at its lower boundary
   (via d_args, dt0 being an active scalar argument). *)
let emit_body ?(loss = true) flavor b (m : bufs) ~niter ~dt0 =
  let f = B.f64 b in
  let i0 = B.i64 b 0 in
  let gamma = f 1.4 and qq = f 2.0 and hgc = f 0.02 and scale = f 0.25 in
  (* force accumulators, allocated per flavor style *)
  let mk_nodal () =
    if julia flavor then Jla (Jl.zeros b m.nn) else Raw (B.alloc b Ty.Float m.nn)
  in
  let fx = mk_nodal () and fy = mk_nodal () and fz = mk_nodal () in
  let dtcell = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b dtcell i0 dt0;
  (* plane size for ghost exchange *)
  let np =
    B.mul b
      (B.add b m.nx (B.i64 b 1))
      (B.add b m.ny (B.i64 b 1))
  in
  let np3 = B.mul b np (B.i64 b 3) in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let has_lo = B.gt b rank i0 in
  let has_hi = B.lt b rank (B.sub b size (B.i64 b 1)) in
  let hi_plane_base =
    (* first node index of the k = nzl plane *)
    B.mul b m.nzl np
  in
  B.for_n b niter (fun it ->
      (* checkpoint at the top of every timestep: the snapshot walk
         starts from the program arguments, extended with loop-carried
         state that is not argument-reachable (the dt cell and the raw
         force accumulators) *)
      let extras =
        dtcell
        :: List.filter_map
             (function Raw p -> Some p | Jla _ -> None)
             [ fx; fy; fz ]
      in
      ignore (B.call b ~ret:Ty.Unit "parad.checkpoint" (it :: extras));
      let dt = B.load b dtcell i0 in
      (* 1. zero forces *)
      pfor flavor b ~hi:m.nn (fun n ->
          st b fx n (f 0.0);
          st b fy n (f 0.0);
          st b fz n (f 0.0));
      (* 2. element force calculation: gather, EOS, scatter *)
      pfor flavor b ~hi:m.ne (fun k ->
          let k8 = B.mul b k (B.i64 b 8) in
          let node j = B.load b m.nodelist (B.add b k8 (B.i64 b j)) in
          let nodes = Array.init 8 node in
          let gx = Array.map (fun n -> ld b m.x n) nodes in
          let gy = Array.map (fun n -> ld b m.y n) nodes in
          let gz = Array.map (fun n -> ld b m.z n) nodes in
          let gxd = Array.map (fun n -> ld b m.xd n) nodes in
          let gyd = Array.map (fun n -> ld b m.yd n) nodes in
          let gzd = Array.map (fun n -> ld b m.zd n) nodes in
          let mean8 g =
            let s =
              Array.fold_left (fun acc v -> B.add b acc v) (f 0.0) g
            in
            B.mul b s (f 0.125)
          in
          let cx = mean8 gx and cy = mean8 gy and cz = mean8 gz in
          let mxd = mean8 gxd and myd = mean8 gyd and mzd = mean8 gzd in
          (* volume: corner triple product of edges 0->1, 0->3, 0->4 *)
          let ax = B.sub b gx.(1) gx.(0)
          and ay = B.sub b gy.(1) gy.(0)
          and az = B.sub b gz.(1) gz.(0) in
          let bx = B.sub b gx.(3) gx.(0)
          and by = B.sub b gy.(3) gy.(0)
          and bz = B.sub b gz.(3) gz.(0) in
          let cx' = B.sub b gx.(4) gx.(0)
          and cy' = B.sub b gy.(4) gy.(0)
          and cz' = B.sub b gz.(4) gz.(0) in
          let det =
            B.add b
              (B.mul b ax (B.sub b (B.mul b by cz') (B.mul b bz cy')))
              (B.add b
                 (B.mul b ay (B.sub b (B.mul b bz cx') (B.mul b bx cz')))
                 (B.mul b az (B.sub b (B.mul b bx cy') (B.mul b by cx'))))
          in
          let vol = B.max_ b det (f 1e-3) in
          (* pressure (ideal gas) and artificial viscosity *)
          let ek = ld b m.e k in
          let p = B.div b (B.mul b (B.sub b gamma (f 1.0)) ek) vol in
          (* velocity divergence surrogate *)
          let divv = ref (f 0.0) in
          for j = 0 to 7 do
            let t =
              B.add b
                (B.mul b gxd.(j) (B.sub b gx.(j) cx))
                (B.add b
                   (B.mul b gyd.(j) (B.sub b gy.(j) cy))
                   (B.mul b gzd.(j) (B.sub b gz.(j) cz)))
            in
            divv := B.add b !divv t
          done;
          let divv = B.div b !divv vol in
          let neg = B.lt b divv (f 0.0) in
          let qv =
            B.select b neg (B.mul b qq (B.mul b divv divv)) (f 0.0)
          in
          let pq = B.add b p qv in
          (* scatter stress + hourglass forces *)
          for j = 0 to 7 do
            let n = nodes.(j) in
            let fxv =
              B.sub b
                (B.mul b (B.neg b pq) (B.mul b scale (B.sub b gx.(j) cx)))
                (B.mul b hgc (B.sub b gxd.(j) mxd))
            in
            let fyv =
              B.sub b
                (B.mul b (B.neg b pq) (B.mul b scale (B.sub b gy.(j) cy)))
                (B.mul b hgc (B.sub b gyd.(j) myd))
            in
            let fzv =
              B.sub b
                (B.mul b (B.neg b pq) (B.mul b scale (B.sub b gz.(j) cz)))
                (B.mul b hgc (B.sub b gzd.(j) mzd))
            in
            scatter flavor b fx n fxv;
            scatter flavor b fy n fyv;
            scatter flavor b fz n fzv
          done);
      (* 3. ghost exchange of boundary-plane force contributions *)
      if uses_mpi flavor then begin
        let mkbuf () =
          if julia flavor then Jla (Jl.zeros b np3)
          else Raw (B.alloc b Ty.Float np3)
        in
        let pack_into buf plane_base =
          (* pack fx,fy,fz of a node plane into one buffer *)
          B.for_n b np (fun i ->
              let n = B.add b plane_base i in
              st b buf i (ld b fx n);
              st b buf (B.add b i np) (ld b fy n);
              st b buf (B.add b i (B.mul b np (B.i64 b 2))) (ld b fz n))
        in
        let unpack_add plane_base buf =
          B.for_n b np (fun i ->
              let n = B.add b plane_base i in
              let add h v =
                let cur = ld b h n in
                st b h n (B.add b cur v)
              in
              add fx (ld b buf i);
              add fy (ld b buf (B.add b i np));
              add fz (ld b buf (B.add b i (B.mul b np (B.i64 b 2)))))
        in
        let tag = B.i64 b 11 in
        (* Post-all-then-wait-all, LULESH's CommSend/CommSBN structure:
           both planes' isend/irecv are in flight before either side
           waits.  Waiting per side before posting the other would chain
           rank r's hi exchange behind rank r+1's lo exchange and
           serialise the halo into a wave down the whole communicator.
           Requests cross the conditional scopes through the [reqs]
           array: slots are lo-send, lo-recv, hi-send, hi-recv.  The
           Julia flavor takes one GC.@preserve over the whole exchange
           (as MPI.jl users write around nonblocking code) instead of a
           token per request: preserve tokens are matched symbolically
           by the reverse pass, so they cannot round-trip through
           memory the way request handles can. *)
        let lo_send = mkbuf () and lo_recv = mkbuf () in
        let hi_send = mkbuf () and hi_recv = mkbuf () in
        let bufptr = function
          | Raw p -> p
          | Jla a -> Jl.data b a
        in
        let tok =
          if julia flavor then
            Some
              (B.call b ~ret:Ty.Int "gc.preserve_begin"
                 (List.map bufptr [ lo_send; lo_recv; hi_send; hi_recv ]))
          else None
        in
        let reqs = B.alloc b Ty.Int (B.i64 b 4) in
        let slot k = B.i64 b k in
        let post plane_base side sendb recvb peer =
          pack_into sendb plane_base;
          let sp = bufptr sendb and rp = bufptr recvb in
          B.store b reqs (slot side)
            (B.call b ~ret:Ty.Int "mpi.isend" [ sp; np3; peer; tag ]);
          B.store b reqs (slot (side + 1))
            (B.call b ~ret:Ty.Int "mpi.irecv" [ rp; np3; peer; tag ])
        in
        let complete plane_base side recvb =
          ignore
            (B.call b ~ret:Ty.Unit "mpi.wait" [ B.load b reqs (slot side) ]);
          ignore
            (B.call b ~ret:Ty.Unit "mpi.wait"
               [ B.load b reqs (slot (side + 1)) ]);
          unpack_add plane_base recvb
        in
        let lo_peer = B.sub b rank (B.i64 b 1)
        and hi_peer = B.add b rank (B.i64 b 1) in
        B.when_ b has_lo (fun () -> post i0 0 lo_send lo_recv lo_peer);
        B.when_ b has_hi (fun () ->
            post hi_plane_base 2 hi_send hi_recv hi_peer);
        B.when_ b has_lo (fun () -> complete i0 0 lo_recv);
        B.when_ b has_hi (fun () -> complete hi_plane_base 2 hi_recv);
        (match tok with
        | Some t -> ignore (B.call b ~ret:Ty.Unit "gc.preserve_end" [ t ])
        | None -> ());
        B.free b reqs;
        List.iter
          (fun buf -> match buf with Raw p -> B.free b p | Jla _ -> ())
          [ lo_send; lo_recv; hi_send; hi_recv ]
      end;
      (* 4. acceleration, velocity, position integration *)
      pfor flavor b ~hi:m.nn (fun n ->
          let mss = ld b m.mass n in
          let upd pos vel fc =
            let a = B.div b (ld b fc n) mss in
            let v' = B.add b (ld b vel n) (B.mul b dt a) in
            st b vel n v';
            st b pos n (B.add b (ld b pos n) (B.mul b dt v'))
          in
          upd m.x m.xd fx;
          upd m.y m.yd fy;
          upd m.z m.zd fz);
      (* 5. energy update: p dV work *)
      pfor flavor b ~hi:m.ne (fun k ->
          let k8 = B.mul b k (B.i64 b 8) in
          let node j = B.load b m.nodelist (B.add b k8 (B.i64 b j)) in
          (* recompute divergence-ish term cheaply from node 0/6 motion *)
          let n0 = node 0 and n6 = node 6 in
          let rel =
            B.add b
              (B.mul b
                 (B.sub b (ld b m.xd n6) (ld b m.xd n0))
                 (B.sub b (ld b m.x n6) (ld b m.x n0)))
              (B.add b
                 (B.mul b
                    (B.sub b (ld b m.yd n6) (ld b m.yd n0))
                    (B.sub b (ld b m.y n6) (ld b m.y n0)))
                 (B.mul b
                    (B.sub b (ld b m.zd n6) (ld b m.zd n0))
                    (B.sub b (ld b m.z n6) (ld b m.z n0))))
          in
          let ek = ld b m.e k in
          let e' = B.sub b ek (B.mul b (B.mul b (f 0.05) dt) (B.mul b ek rel)) in
          st b m.e k (B.max_ b e' (f 1e-6)));
      (* 6. time-step constraint: Courant-style min reduction *)
      let dtmin =
        min_over flavor b ~hi:m.ne (fun k ->
            let ek = ld b m.e k in
            let ss = B.sqrt_ b (B.mul b gamma (B.max_ b ek (f 1e-6))) in
            B.div b (f 0.3) ss)
      in
      let dtnext =
        if uses_mpi flavor then begin
          let sendc = B.alloc b Ty.Float (B.i64 b 1) in
          let recvc = B.alloc b Ty.Float (B.i64 b 1) in
          B.store b sendc i0 dtmin;
          ignore
            (B.call b ~ret:Ty.Unit "mpi.allreduce_min"
               [ sendc; recvc; B.i64 b 1 ]);
          let r = B.load b recvc i0 in
          B.free b sendc;
          B.free b recvc;
          r
        end
        else dtmin
      in
      B.store b dtcell i0 (B.min_ b (f 0.05) (B.mul b (f 0.9) dtnext)));
  let total =
    if not loss then B.load b dtcell i0
    else begin
      (* loss: total internal + kinetic energy *)
      let acc = B.alloc b Ty.Float (B.i64 b 1) in
      B.store b acc i0 (f 0.0);
      B.for_n b m.ne (fun k ->
          let cur = B.load b acc i0 in
          B.store b acc i0 (B.add b cur (ld b m.e k)));
      (* nodes on a plane shared with the higher neighbour are owned by
         that neighbour — avoid double counting under MPI *)
      let owned_nn = B.select b has_hi hi_plane_base m.nn in
      B.for_n b owned_nn (fun n ->
          let mss = ld b m.mass n in
          let ke =
            B.mul b (B.mul b (f 0.5) mss)
              (B.add b
                 (B.mul b (ld b m.xd n) (ld b m.xd n))
                 (B.add b
                    (B.mul b (ld b m.yd n) (ld b m.yd n))
                    (B.mul b (ld b m.zd n) (ld b m.zd n))))
          in
          let cur = B.load b acc i0 in
          B.store b acc i0 (B.add b cur ke));
      let total =
        if uses_mpi flavor then begin
          let recvc = B.alloc b Ty.Float (B.i64 b 1) in
          ignore
            (B.call b ~ret:Ty.Unit "mpi.allreduce_sum"
               [ acc; recvc; B.i64 b 1 ]);
          let r = B.load b recvc i0 in
          B.free b recvc;
          r
        end
        else B.load b acc i0
      in
      B.free b acc;
      total
    end
  in
  (match fx with Raw p -> B.free b p | Jla _ -> ());
  (match fy with Raw p -> B.free b p | Jla _ -> ());
  (match fz with Raw p -> B.free b p | Jla _ -> ());
  B.free b dtcell;
  total

(* ---- variant construction ---- *)

let raw_float_params =
  [ "x"; "y"; "z"; "xd"; "yd"; "zd"; "e" ]

let steps_name flavor = flavor_name flavor ^ "_steps"

let build ?(steps = false) flavor prog =
  let jl = julia flavor in
  let fparams =
    List.map
      (fun n -> n, if jl then Jl.desc_ty else Ty.Ptr Ty.Float)
      raw_float_params
    @ [
        "nodelist", Ty.Ptr Ty.Int;
        "mass", (if jl then Jl.desc_ty else Ty.Ptr Ty.Float);
        "nx", Ty.Int;
        "ny", Ty.Int;
        "nzl", Ty.Int;
        "niter", Ty.Int;
        "dt0", Ty.Float;
      ]
  in
  let attrs =
    if jl then List.map (fun _ -> Func.default_attr) fparams
    else
      List.map Func.(fun _ -> noalias) raw_float_params
      @ Func.
          [
            noalias_readonly;
            noalias_readonly;
            default_attr;
            default_attr;
            default_attr;
            default_attr;
            default_attr;
          ]
  in
  let fname = if steps then steps_name flavor else flavor_name flavor in
  let b, ps = B.func prog fname ~attrs ~params:fparams ~ret:Ty.Float in
  match ps with
  | [ x; y; z; xd; yd; zd; e; nodelist; mass; nx; ny; nzl; niter; dt0 ] ->
    let wrap v = if jl then Jla (Jl.of_param b v ~len:(B.i64 b 0)) else Raw v in
    let one = B.i64 b 1 in
    let nn =
      B.mul b
        (B.mul b (B.add b nx one) (B.add b ny one))
        (B.add b nzl one)
    in
    let ne = B.mul b (B.mul b nx ny) nzl in
    let m =
      {
        x = wrap x; y = wrap y; z = wrap z;
        xd = wrap xd; yd = wrap yd; zd = wrap zd;
        e = wrap e; nodelist; mass = wrap mass;
        nx; ny; nzl; nn; ne;
      }
    in
    let total = emit_body ~loss:(not steps) flavor b m ~niter ~dt0 in
    B.return b (Some total);
    ignore (B.finish b)
  | _ -> assert false

let program flavor =
  let prog = Prog.create () in
  build flavor prog;
  Verifier.check_prog prog;
  prog

(** The loss-free "steps" variant, for the binomial segmented driver. *)
let program_steps flavor =
  let prog = Prog.create () in
  build ~steps:true flavor prog;
  Verifier.check_prog prog;
  prog

(* ---- mesh generation and harness ---- *)

open Parad_runtime
module Engine = Parad_engine.Engine

type input = {
  nx : int;
  ny : int;
  nz : int;  (** global z elements; must divide by nranks *)
  niter : int;
  dt0 : float;
  escale : float;  (** scales the initial energy field (FD probes) *)
}

type rank_mesh = {
  coords : float array array;  (** [|x; y; z|] nodal *)
  vels : float array array;  (** [|xd; yd; zd|] *)
  energy : float array;
  conn : int array;  (** nodelist, 8 per element *)
  node_mass : float array;
  nzl : int;
}

(* deterministic small perturbation from global node coordinates *)
let jiggle gi gj gk axis =
  let h = ((gi * 73856093) lxor (gj * 19349663) lxor (gk * 83492791) lxor (axis * 2654435761)) land 0xFFFF in
  (float_of_int h /. 65535.0) -. 0.5

let mesh (inp : input) ~nranks ~rank : rank_mesh =
  if inp.nz mod nranks <> 0 then
    invalid_arg "lulesh mesh: nz must be divisible by nranks";
  let nzl = inp.nz / nranks in
  let nx = inp.nx and ny = inp.ny in
  let nnx = nx + 1 and nny = ny + 1 and nnz = nzl + 1 in
  let nn = nnx * nny * nnz in
  let ne = nx * ny * nzl in
  let h = 1.0 /. float_of_int (max inp.nx inp.nz) in
  let koff = rank * nzl in
  let node i j k = (k * nny * nnx) + (j * nnx) + i in
  let coords = Array.init 3 (fun _ -> Array.make nn 0.0) in
  for k = 0 to nnz - 1 do
    for j = 0 to nny - 1 do
      for i = 0 to nnx - 1 do
        let n = node i j k in
        let gk = k + koff in
        let base = [| float_of_int i; float_of_int j; float_of_int gk |] in
        for axis = 0 to 2 do
          coords.(axis).(n) <-
            (base.(axis) +. (0.08 *. jiggle i j gk axis)) *. h
        done
      done
    done
  done;
  let conn = Array.make (ne * 8) 0 in
  let eidx = ref 0 in
  for k = 0 to nzl - 1 do
    for j = 0 to ny - 1 do
      for i = 0 to nx - 1 do
        let base = !eidx * 8 in
        conn.(base + 0) <- node i j k;
        conn.(base + 1) <- node (i + 1) j k;
        conn.(base + 2) <- node (i + 1) (j + 1) k;
        conn.(base + 3) <- node i (j + 1) k;
        conn.(base + 4) <- node i j (k + 1);
        conn.(base + 5) <- node (i + 1) j (k + 1);
        conn.(base + 6) <- node (i + 1) (j + 1) (k + 1);
        conn.(base + 7) <- node i (j + 1) (k + 1);
        incr eidx
      done
    done
  done;
  (* initial energy: ambient plus a central deposition (the sedov-like
     spike), placed by global element coordinates *)
  let energy = Array.make ne 0.0 in
  let eidx = ref 0 in
  for k = 0 to nzl - 1 do
    for j = 0 to ny - 1 do
      for i = 0 to nx - 1 do
        let gk = k + koff in
        let centerish =
          i = nx / 2 && j = ny / 2 && gk = inp.nz / 2
        in
        energy.(!eidx) <- inp.escale *. (if centerish then 3.0 else 0.2);
        incr eidx
      done
    done
  done;
  {
    coords;
    vels = Array.init 3 (fun _ -> Array.make nn 0.0);
    energy;
    conn;
    node_mass = Array.make nn 1.0;
    nzl;
  }

type run_result = {
  total_energy : float;
  makespan : float;
  stats : Stats.t;
}

(* The primal arguments from explicit loop state: the seven
   loop-carried float arrays [state] (coordinates, velocities, element
   energies), the mesh's nodelist and node masses, and [nsteps] steps
   from time step [dt]. A Julia flavor wraps each float buffer in a
   descriptor cell. Returns the arguments and the seven state buffers. *)
let state_args flavor (inp : input) (m : rank_mesh) ctx ~state ~dt ~nsteps =
  let jl = julia flavor in
  let pack data =
    let d = Exec.floats ctx data in
    (if jl then Exec.ptr_cell ctx d else d), d
  in
  let p = Array.map pack state in
  let nodelist = Exec.ints ctx m.conn in
  let mass, _ = pack m.node_mass in
  ( Array.to_list (Array.map fst p)
    @ [
        nodelist; mass;
        Value.VInt inp.nx; Value.VInt inp.ny; Value.VInt m.nzl;
        Value.VInt nsteps; Value.VFloat dt;
      ],
    Array.map snd p )

(* the seven loop-carried arrays of a mesh, in argument order *)
let loop_state (m : rank_mesh) =
  [|
    m.coords.(0); m.coords.(1); m.coords.(2);
    m.vels.(0); m.vels.(1); m.vels.(2);
    m.energy;
  |]

let setup_args ?inject_nan flavor (inp : input) ~nranks (ctx : Interp.ctx)
    ~rank =
  let m = mesh inp ~nranks ~rank in
  (* NaN-injection hook for GradSan testing: poison one element energy on
     rank 0 before the buffers are built *)
  (match inject_nan with
  | Some i when rank = 0 && i >= 0 && i < Array.length m.energy ->
    m.energy.(i) <- Float.nan
  | _ -> ());
  let args, bufs =
    state_args flavor inp m ctx ~state:(loop_state m) ~dt:inp.dt0
      ~nsteps:inp.niter
  in
  args, Array.to_list bufs, m

(** Run a variant; [nranks] > 1 requires an MPI-using flavor. [faults]
    injects a deterministic communication-fault plan; [mpi_ref] captures
    the MPI state for post-run audit (even on deadlock). *)
let run ?(nthreads = 1) ?(nranks = 1) ?(pre = []) ?faults ?mpi_ref ?san
    ?inject_nan ?(engine = Engine.Interp) flavor (inp : input) : run_result =
  let cfg = { Interp.default_config with nthreads } in
  let prog = program flavor in
  let prog =
    if pre = [] then prog
    else Parad_opt.Pipeline.run prog pre
  in
  let res =
    Exec.run_spmd ~cfg ?faults ?mpi_ref ?san
      ~call:(Engine.call_fn (Engine.prepare prog) engine) prog ~nranks
      ~fname:(flavor_name flavor)
      ~setup:(fun ctx ~rank ->
        let args, _, _ = setup_args ?inject_nan flavor inp ~nranks ctx ~rank in
        args)
  in
  {
    total_energy = Value.to_float res.Exec.values.(0);
    makespan = res.Exec.makespan;
    stats = res.Exec.stats;
  }

type grad_result = {
  g_total : float;
  d_coords : float array array;  (** per rank: d x (rank-concatenated) *)
  d_energy : float array array;  (** per rank *)
  g_makespan : float;
  g_stats : Stats.t;
}

(* ---- compiled plans (ISSUE 7) ----

   The full pipeline — parse-free IR build, activity/locality analyses,
   reverse generation, post-AD optimization — runs once per (flavor,
   options) pair; executing a gradient against a [compiled] plan is then
   pure interpretation. The gradient service caches these, so plans must
   be reusable: nothing below may mutate them per request (programs are
   immutable after the pipeline; all run state lives in the
   interpreter). *)

type compiled = {
  c_flavor : flavor;
  c_opts : Parad_core.Plan.options;
  c_prog : Prog.t;  (** primal, after any [pre] pipeline *)
  c_dprog : Prog.t;  (** reverse-augmented loss-carrying program *)
  c_dname : string;  (** entry of the reverse program *)
  c_steps : (Prog.t * Prog.t * string) option;
      (** steps-variant primal, its reverse, and the reverse entry —
          present when compiled with [~steps:true] (binomial driver) *)
  c_eng : Engine.prepared;
      (** lowered form of [c_dprog] for the execution engine — function
          bodies are lowered lazily on first engine-path execution, so a
          warm plan ships its lowered program with it *)
  c_steps_eng : (Engine.prepared * Engine.prepared) option;
      (** lowered steps-variant primal and reverse, mirroring [c_steps] *)
}

(** Compile [flavor] once for repeated gradient execution. [steps] also
    compiles the parameterized [program_steps] variant and its reverse,
    which {!gradient_binomial} needs. *)
let compile ?(opts = Parad_core.Plan.default_options) ?(post_opt = true)
    ?(pre = []) ?(steps = false) flavor : compiled =
  let post p entry =
    if post_opt then
      Parad_opt.Pipeline.run_from p entry Parad_opt.Pipeline.post_ad
    else p
  in
  let prog = program flavor in
  let prog = if pre = [] then prog else Parad_opt.Pipeline.run prog pre in
  let dprog, dname =
    Parad_core.Reverse.gradient ~opts prog (flavor_name flavor)
  in
  let c_steps =
    if not steps then None
    else begin
      let sprog = program_steps flavor in
      let sdprog, sdname =
        Parad_core.Reverse.gradient ~opts sprog (steps_name flavor)
      in
      Some (sprog, post sdprog sdname, sdname)
    end
  in
  let c_dprog = post dprog dname in
  {
    c_flavor = flavor;
    c_opts = opts;
    c_prog = prog;
    c_dprog;
    c_dname = dname;
    c_steps;
    c_eng = Engine.prepare c_dprog;
    c_steps_eng =
      Option.map
        (fun (sp, sdp, _) -> Engine.prepare sp, Engine.prepare sdp)
        c_steps;
  }

let config_of ?cost ~nthreads (c : compiled) =
  {
    Interp.default_config with
    nthreads;
    cost = Option.value cost ~default:Interp.default_config.Interp.cost;
    coalesce = c.c_opts.Parad_core.Plan.coalesce_comm;
  }

(* ---- gradient sweeps, one seed lane or k ----

   A plan compiled with [opts.seeds = k > 1] emits k-stride adjoint
   planes: one forward/taping pass and one reverse sweep propagate all k
   return seeds, sharing the tape, the cache stream, and every primal
   re-evaluation across lanes. A single-seed gradient is the one-lane
   sweep. *)

(* The gradient's arguments after the primal ones, at [lanes] lanes: the
   seven state shadows and the mass shadow (k-stride planes, zero or
   taken from [seed]), the nodelist's zero shadow, the return seed
   [d_ret] (a scalar at one lane, a k-cell buffer above) and the k
   [d_args] cells that receive dt0's adjoint. Every gradient allocates
   them in this order, since buffer ids reach checkpoint snapshots.
   Returns the arguments and the buffers [|seven state shadows; mass
   shadow; d_args|]. *)
let grad_args ?seed flavor (m : rank_mesh) ctx ~lanes ~d_ret =
  let jl = julia flavor in
  let nn = Array.length m.node_mass and ne = Array.length m.energy in
  let shadow i =
    let d =
      Exec.floats ctx
        (match seed with
        | Some s -> s.(i)
        | None -> Array.make ((if i = 6 then ne else nn) * lanes) 0.0)
    in
    (if jl then Exec.ptr_cell ctx d else d), d
  in
  let st = Array.init 7 shadow in
  let d_nl = Exec.ints ctx (Array.make (ne * 8) 0) in
  let d_mass, mass_buf = shadow 7 in
  let d_ret =
    if lanes = 1 then Value.VFloat d_ret.(0) else Exec.floats ctx d_ret
  in
  let d_args = Exec.zeros ctx lanes in
  ( Array.to_list (Array.map fst st) @ [ d_nl; d_mass; d_ret; d_args ],
    Array.append (Array.map snd st) [| mass_buf; d_args |] )

(* The one gradient executor: runs [c]'s reverse program on [nranks]
   ranks, under the supervisor when [supervise] gives its restart budget
   and snapshot policy, with lane [l]'s return seeded by [d_rets.(l)] on
   rank 0, and reads back each lane's adjoints. At one lane the planes
   are handed back uncopied. *)
let sweep ?cost ~nthreads ~nranks ?faults ?mpi_ref ?san ?inject_nan ?deadline
    ~engine ?stats ?supervise (c : compiled) ~d_rets (inp : input) =
  let lanes = c.c_opts.Parad_core.Plan.seeds in
  if Array.length d_rets <> lanes then
    invalid_arg
      (Printf.sprintf "Lulesh gradient: %d seed values for a %d-lane plan"
         (Array.length d_rets) lanes);
  if lanes > 1 && nranks > 1 then
    invalid_arg "Lulesh gradient: a batched sweep runs on one rank";
  let cfg = config_of ?cost ~nthreads c in
  let planes = Array.make nranks [||] in
  let setup ctx ~rank =
    let args, _, m = setup_args ?inject_nan c.c_flavor inp ~nranks ctx ~rank in
    let d_ret = if rank = 0 then d_rets else Array.make lanes 0.0 in
    let dargs, bufs = grad_args c.c_flavor m ctx ~lanes ~d_ret in
    planes.(rank) <- bufs;
    args @ dargs
  in
  let call = Engine.call_fn c.c_eng engine in
  let res, recovery =
    match supervise with
    | None ->
      ( Exec.run_spmd ~cfg ?faults ?mpi_ref ?san ?deadline ?stats ~call
          c.c_dprog ~nranks ~fname:c.c_dname ~setup,
        None )
    | Some (max_restarts, policy) ->
      let res, r =
        Exec.run_spmd_recoverable ~cfg ?faults ?mpi_ref ?san ?max_restarts
          ?policy ?deadline ?stats ~call c.c_dprog ~nranks ~fname:c.c_dname
          ~setup
      in
      res, Some r
  in
  let read i = Array.map (fun p -> Exec.to_floats p.(i)) planes in
  let coords = read 0 and energy = read 6 in
  let col lane plane =
    if lanes = 1 then plane
    else
      Array.init (Array.length plane / lanes) (fun i ->
          plane.((i * lanes) + lane))
  in
  ( Array.init lanes (fun lane ->
        {
          g_total = Value.to_float res.Exec.values.(0);
          d_coords = Array.map (col lane) coords;
          d_energy = Array.map (col lane) energy;
          g_makespan = res.Exec.makespan;
          g_stats = res.Exec.stats;
        }),
    recovery )

(** Run one gradient against a plan compiled with [opts.seeds = k]:
    [d_rets.(l)] seeds lane [l]'s return adjoint, and the result array
    holds lane [l]'s gradient at index [l] — each column bit-identical
    to a standalone single-seed run with [~d_ret:d_rets.(l)]. More than
    one lane means one rank and a shared-memory flavor: the MPI adjoint
    runtime exchanges single-stride planes, so batched MPI plans are
    rejected at compile time. *)
let gradient_batched ?cost ?(nthreads = 1) ?(nranks = 1) ?faults ?san
    ?inject_nan ?deadline ?(engine = Engine.Interp) ?stats (c : compiled)
    ~d_rets (inp : input) : grad_result array =
  fst
    (sweep ?cost ~nthreads ~nranks ?faults ?san ?inject_nan ?deadline ~engine
       ?stats c ~d_rets inp)

(** Execute one gradient request against a cached plan: lane 0 of a
    one-lane sweep seeded with [d_ret]. Pure interpretation — no
    pipeline work — so repeated calls with equal inputs are
    bit-identical to each other and to a cold {!gradient}. *)
let gradient_compiled ?cost ?(nthreads = 1) ?(nranks = 1) ?faults ?mpi_ref
    ?san ?inject_nan ?deadline ?(d_ret = 1.0) ?(engine = Engine.Interp) ?stats
    (c : compiled) (inp : input) : grad_result =
  (fst
     (sweep ?cost ~nthreads ~nranks ?faults ?mpi_ref ?san ?inject_nan
        ?deadline ~engine ?stats c ~d_rets:[| d_ret |] inp)).(0)

(** Gradient of the returned total energy w.r.t. initial coordinates and
    element energies (seeded on rank 0's return, as the loss is
    all-reduced and identical on every rank). One-shot: compiles and
    executes. *)
let gradient ?cost ?(nthreads = 1) ?(nranks = 1)
    ?(opts = Parad_core.Plan.default_options) ?(post_opt = true) ?(pre = [])
    ?faults ?mpi_ref ?san ?inject_nan ?deadline ?engine flavor (inp : input) :
    grad_result =
  gradient_compiled ?cost ~nthreads ~nranks ?faults ?mpi_ref ?san ?inject_nan
    ?deadline ?engine
    (compile ~opts ~post_opt ~pre flavor)
    inp

(* ---- supervised (checkpoint/restart) harnesses ---- *)

(** Like {!run}, but under {!Exec.run_spmd_recoverable}: ranks checkpoint
    at each timestep and a killed rank triggers restore-and-replay
    instead of ending the run. *)
let run_recoverable ?(nthreads = 1) ?(nranks = 1) ?(pre = []) ?faults
    ?mpi_ref ?san ?max_restarts ?policy ?(engine = Engine.Interp) flavor
    (inp : input) : run_result * Exec.recovery =
  let cfg = { Interp.default_config with nthreads } in
  let prog = program flavor in
  let prog = if pre = [] then prog else Parad_opt.Pipeline.run prog pre in
  let res, recov =
    Exec.run_spmd_recoverable ~cfg ?faults ?mpi_ref ?san ?max_restarts ?policy
      ~call:(Engine.call_fn (Engine.prepare prog) engine) prog ~nranks
      ~fname:(flavor_name flavor)
      ~setup:(fun ctx ~rank ->
        let args, _, _ = setup_args flavor inp ~nranks ctx ~rank in
        args)
  in
  ( {
      total_energy = Value.to_float res.Exec.values.(0);
      makespan = res.Exec.makespan;
      stats = res.Exec.stats;
    },
    recov )

(** {!gradient_recoverable} against a cached plan. *)
let gradient_recoverable_compiled ?(nthreads = 1) ?(nranks = 1) ?faults
    ?mpi_ref ?san ?max_restarts ?policy ?deadline ?(engine = Engine.Interp)
    (c : compiled) (inp : input) : grad_result * Exec.recovery =
  let gs, recovery =
    sweep ~nthreads ~nranks ?faults ?mpi_ref ?san ?deadline ~engine
      ~supervise:(max_restarts, policy) c ~d_rets:[| 1.0 |] inp
  in
  gs.(0), Option.get recovery

(** Like {!gradient}, but supervised: the gradient's forward sweep
    checkpoints primal and shadow state, so a kill-and-recover run
    resumes the derivative computation and must reproduce the faultless
    gradient bit-for-bit. *)
let gradient_recoverable ?(nthreads = 1) ?(nranks = 1)
    ?(opts = Parad_core.Plan.default_options) ?(post_opt = true) ?(pre = [])
    ?faults ?mpi_ref ?san ?max_restarts ?policy ?deadline ?engine flavor
    (inp : input) : grad_result * Exec.recovery =
  gradient_recoverable_compiled ~nthreads ~nranks ?faults ?mpi_ref ?san
    ?max_restarts ?policy ?deadline ?engine
    (compile ~opts ~post_opt ~pre flavor)
    inp

(* ---- binomial (revolve) checkpointed adjoint driver ---- *)

type binom_result = {
  b_grad : grad_result;  (** aggregate gradient result over all sweeps *)
  b_budget : int;
  b_sweeps : int;  (** worst-case repetition count of the schedule *)
  b_segments : int;  (** single-step gradient segments executed *)
  b_advances : int;  (** primal re-advance steps executed *)
  b_degraded : int;
      (** snapshot fetches that found their target missing/corrupt and
          degraded to recomputing from an older checkpoint *)
  b_store : Checkpoint.store;
}

(** Gradient of the LULESH loss via revolve-style binomial checkpointing
    of the outer timestep loop (ROADMAP item 5): at most [budget]
    loop-state snapshots live at once in the tiered store, each reverse
    segment re-advances the primal from the nearest valid snapshot, and
    the per-step reverse sweeps are exactly the per-iteration slices of
    the monolithic sweep — so the result is bit-identical to {!gradient}
    (the store-all baseline) while the AD cache peak stays that of a
    single timestep. Snapshots are fetched through the store's checksums:
    a corrupted or evicted snapshot degrades the fetch to an older valid
    one (re-advancing further) instead of aborting. [faults] supervises
    every inner simulator run with {!Exec.run_spmd_recoverable}, each
    run starting from the plan the previous run's supervisor left, so a
    kill, flip or sticky corruption it consumed fires once per gradient;
    [on_snapshot] is a fault-injection hook invoked after each snapshot
    it takes (chaos soak corrupts there). *)
let gradient_binomial ?(nthreads = 1) ?(nranks = 1)
    ?(opts = Parad_core.Plan.default_options) ?(post_opt = true) ?faults
    ?max_restarts ?(tiers = 2)
    ?(on_snapshot : (step:int -> store:Checkpoint.store -> unit) option)
    ?compiled ?namespace ?deadline ?(engine = Engine.Interp) ?stats ~budget
    flavor (inp : input) : binom_result =
  if budget < 1 then invalid_arg "gradient_binomial: budget must be >= 1";
  let n = inp.niter in
  if n < 1 then invalid_arg "gradient_binomial: niter must be >= 1";
  let cc =
    match compiled with
    | Some c ->
      if c.c_flavor <> flavor then
        invalid_arg "gradient_binomial: compiled plan is for another flavor";
      if c.c_steps = None then
        invalid_arg
          "gradient_binomial: compiled plan lacks the steps variant (use \
           compile ~steps:true)";
      c
    | None -> compile ~opts ~post_opt ~steps:true flavor
  in
  let cfg = config_of ~nthreads cc in
  let c = cfg.Interp.cost in
  let policy = { Checkpoint.hot_budget = Some budget; tiers } in
  let store = Checkpoint.create_store ~policy ?namespace ~nranks () in
  let dprog_full, dname_full = cc.c_dprog, cc.c_dname in
  let prog_steps, dprog_steps, dname_steps =
    match cc.c_steps with Some s -> s | None -> assert false
  in
  let eng_full = cc.c_eng in
  let eng_steps_p, eng_steps_d =
    match cc.c_steps_eng with Some e -> e | None -> assert false
  in
  let meshes = Array.init nranks (fun rank -> mesh inp ~nranks ~rank) in
  let nn = Array.length meshes.(0).node_mass in
  let ne = Array.length meshes.(0).energy in
  let state_cells = (6 * nn) + ne + 1 in
  let initial_state rank = Array.map Array.copy (loop_state meshes.(rank)) in
  (* aggregates across all inner simulator runs + driver snapshot traffic *)
  let agg = match stats with Some s -> s | None -> Stats.create () in
  let makespan = ref 0.0 in
  let plan = ref (Option.value faults ~default:Faults.none) in
  let segments = ref 0 and advances = ref 0 and degraded = ref 0 in
  let g_total = ref 0.0 in
  (* an inner run counts into [agg] also when it raises; under [faults]
     it runs on the plan the previous inner run's supervisor left, so an
     event that supervisor consumed does not fire again *)
  let run_prog prep prog fname setup =
    let call = Engine.call_fn prep engine in
    let stats = Stats.create () in
    Fun.protect ~finally:(fun () -> Stats.merge ~into:agg stats) @@ fun () ->
    let res =
      match faults with
      | None ->
        Exec.run_spmd ~cfg ?deadline ~stats ~call prog ~nranks ~fname ~setup
      | Some _ ->
        let res, recov =
          Exec.run_spmd_recoverable ~cfg ~faults:!plan ?max_restarts ~policy
            ?deadline ~stats ~call prog ~nranks ~fname ~setup
        in
        plan := recov.Exec.r_plan;
        res
    in
    makespan := !makespan +. res.Exec.makespan;
    res.Exec.values
  in
  let args_at ctx ~rank ~state ~dts ~nsteps =
    state_args flavor inp meshes.(rank) ctx ~state:state.(rank)
      ~dt:dts.(rank) ~nsteps
  in
  (* driver snapshot traffic: charged like the checkpoint intrinsic *)
  let put_state ~step state dts =
    for rank = 0 to nranks - 1 do
      let pi =
        Checkpoint.put_floats store ~rank ~id:step ~dt:dts.(rank) state.(rank)
      in
      agg.snap_count <- agg.snap_count + 1;
      agg.snap_bytes <- agg.snap_bytes + pi.Checkpoint.p_bytes;
      agg.snap_evictions <- agg.snap_evictions + pi.Checkpoint.p_evictions;
      makespan :=
        !makespan +. c.Cost_model.ckpt_base
        +. (c.Cost_model.ckpt_per_cell *. float_of_int state_cells);
      if pi.Checkpoint.p_demoted_cells > 0 then
        makespan :=
          !makespan +. c.Cost_model.snap_disk_base
          +. (c.Cost_model.snap_disk_per_cell
             *. float_of_int pi.Checkpoint.p_demoted_cells)
    done;
    match on_snapshot with
    | Some hook -> hook ~step ~store
    | None -> ()
  in
  let all_valid id =
    let ok = ref true in
    for r = 0 to nranks - 1 do
      if not (Checkpoint.valid store ~rank:r ~id) then ok := false
    done;
    !ok
  in
  let exists_any id =
    let r = ref false in
    for rank = 0 to nranks - 1 do
      match Checkpoint.snapshot_tier store ~rank ~id with
      | Some _ -> r := true
      | None -> ()
    done;
    !r
  in
  (* run the primal forward [target - from] steps from explicit state *)
  let advance ~state ~dts ~from ~target =
    if target = from then state, dts
    else begin
      advances := !advances + (target - from);
      let out = Array.make nranks [||] in
      let values =
        run_prog eng_steps_p prog_steps (steps_name flavor) (fun ctx ~rank ->
            let args, bufs =
              args_at ctx ~rank ~state ~dts ~nsteps:(target - from)
            in
            out.(rank) <- bufs;
            args)
      in
      ( Array.map (Array.map Exec.to_floats) out,
        Array.map Value.to_float values )
    end
  in
  (* loop state at [step]: fetch the nearest valid snapshot at or below
     it (integrity-checked; invalid ones are skipped and counted as
     degradations) and re-advance the primal the rest of the way.
     Falls back to the deterministic initial state when nothing valid
     survives. *)
  let materialize step =
    let rec nearest id =
      if id < 0 then None
      else if all_valid id then Some id
      else nearest (id - 1)
    in
    let base, state, dts =
      match nearest step with
      | Some id ->
        for id' = id + 1 to step do
          if exists_any id' then incr degraded
        done;
        let dts = Array.make nranks 0.0 in
        let state =
          Array.init nranks (fun r ->
              match Checkpoint.get_floats store ~rank:r ~id with
              | Some (dt, arrays, tier) ->
                agg.snap_restores <- agg.snap_restores + 1;
                makespan :=
                  !makespan +. c.Cost_model.ckpt_base
                  +. (c.Cost_model.ckpt_per_cell *. float_of_int state_cells);
                (match tier with
                | Checkpoint.Disk ->
                  makespan :=
                    !makespan +. c.Cost_model.snap_disk_base
                    +. (c.Cost_model.snap_disk_per_cell
                       *. float_of_int state_cells)
                | Checkpoint.Hot -> ());
                dts.(r) <- dt;
                arrays
              | None -> assert false)
        in
        id, state, dts
      | None ->
        if step > 0 || exists_any 0 then incr degraded;
        0, Array.init nranks initial_state, Array.make nranks inp.dt0
    in
    advance ~state ~dts ~from:base ~target:step
  in
  (* reverse one timestep [step, step+1): gradient of the steps variant,
     seeded with the succeeding segment's adjoints [d] — or of the full
     (loss-carrying) variant for the last step, seeded by the loss.
     Returns, per rank, the buffers {!grad_args} hands back: the seven
     state shadows, the mass shadow, and d_args, whose cell is the
     boundary time step's adjoint and the preceding segment's d_ret. *)
  let seg_grad ~state ~dts ~step d =
    incr segments;
    let final = step = n - 1 in
    let prep, prog, fname =
      if final then eng_full, dprog_full, dname_full
      else eng_steps_d, dprog_steps, dname_steps
    in
    let out = Array.make nranks [||] in
    let values =
      run_prog prep prog fname (fun ctx ~rank ->
          let args, _ = args_at ctx ~rank ~state ~dts ~nsteps:1 in
          let seed = Option.map (fun d -> d.(rank)) d in
          let d_ret =
            match seed with
            | Some s -> s.(8).(0)
            | None -> if rank = 0 then 1.0 else 0.0
          in
          let dargs, bufs =
            grad_args ?seed flavor meshes.(rank) ctx ~lanes:1
              ~d_ret:[| d_ret |]
          in
          out.(rank) <- bufs;
          args @ dargs)
    in
    if final then g_total := Value.to_float values.(0);
    Array.map (Array.map Exec.to_floats) out
  in
  (* the revolve recursion: reverse steps [a, b) with [free] snapshot
     slots usable strictly inside the range (the snapshot at [a] is
     already placed). free = 0 peels one step at a time, re-advancing
     from [a] — the quadratic fallback the binomial split avoids. *)
  let rec rev a b free d =
    if b - a = 1 then begin
      let state, dts = materialize a in
      seg_grad ~state ~dts ~step:a d
    end
    else if free >= 1 then begin
      let adv = Parad_core.Plan.Binomial.advance ~budget:free ~steps:(b - a) in
      let mid = a + adv in
      let state, dts = materialize mid in
      put_state ~step:mid state dts;
      let d' = rev mid b (free - 1) d in
      Checkpoint.release store ~id:mid;
      rev a mid free (Some d')
    end
    else begin
      let state, dts = materialize (b - 1) in
      let d' = seg_grad ~state ~dts ~step:(b - 1) d in
      rev a (b - 1) 0 (Some d')
    end
  in
  (* the store's disk tier spills under a per-run namespace; clean it up
     whether the reversal completes or aborts (deadline, exhausted
     restarts) so a long-lived server leaks no snapshot files *)
  let d =
    Fun.protect
      ~finally:(fun () -> Checkpoint.dispose store)
      (fun () ->
        put_state ~step:0
          (Array.init nranks initial_state)
          (Array.make nranks inp.dt0);
        rev 0 n (budget - 1) None)
  in
  {
    b_grad =
      {
        g_total = !g_total;
        d_coords = Array.map (fun a -> a.(0)) d;
        d_energy = Array.map (fun a -> a.(6)) d;
        g_makespan = !makespan;
        g_stats = agg;
      };
    b_budget = budget;
    b_sweeps = Parad_core.Plan.Binomial.sweeps ~budget ~steps:n;
    b_segments = !segments;
    b_advances = !advances;
    b_degraded = !degraded;
    b_store = store;
  }
