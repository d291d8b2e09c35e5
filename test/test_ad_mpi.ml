(* Reverse-mode AD of message passing (paper §IV-B, Fig 5): nonblocking
   send/recv/wait duality through shadow requests, request arrays,
   blocking p2p, and collective adjoints. *)

open Parad_ir
open Parad_runtime
module B = Builder
module GC = Parad_verify.Grad_check
module E = Parad_engine.Engine

let feq = Alcotest.float 1e-6

let seed0 n ~rank:_ = [ Array.make n 0.0 ]
let dret_rank0 ~rank = if rank = 0 then 1.0 else 0.0

let check name r =
  match r with Ok _ -> () | Error m -> Alcotest.failf "%s: %s" name m

(* each rank: isend x to next, irecv y from prev, wait; return weighted
   local energy allreduced *)
let ring_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "ring"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let one = B.i64 b 1 in
  let next = B.rem b (B.add b rank one) size in
  let prev = B.rem b (B.add b rank (B.sub b size one)) size in
  let y = B.alloc b Ty.Float n in
  let tag = B.i64 b 3 in
  let sreq = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  let rreq = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ sreq ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ rreq ]);
  (* local = (rank+1) * sum_i y_i^2 *)
  let acc = B.alloc b Ty.Float one in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let yi = B.load b y i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b yi yi)));
  let w = B.to_float b (B.add b rank one) in
  let local = B.mul b w (B.load b acc (B.i64 b 0)) in
  B.store b acc (B.i64 b 0) local;
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ acc; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  prog

let test_ring_gradient_exact () =
  let prog = ring_prog () in
  let nranks = 4 in
  let n = 3 in
  let data rank = Array.init n (fun i -> float_of_int ((rank * n) + i) /. 5.0) in
  let g =
    GC.reverse_spmd prog "ring" ~nranks
      ~args:(fun ~rank -> [ GC.ABuf (data rank); GC.AInt n ])
      ~seeds:(seed0 n) ~d_ret:dret_rank0
  in
  (* x of rank r is received by rank r+1 with weight (r+1 mod R)+1:
     d x_r[i] = 2 * w * x_r[i] *)
  for r = 0 to nranks - 1 do
    let w = float_of_int (((r + 1) mod nranks) + 1) in
    let x = data r in
    Array.iteri
      (fun i xi ->
        Alcotest.check feq
          (Printf.sprintf "rank %d d x[%d]" r i)
          (2.0 *. w *. xi)
          (List.hd g.GC.s_d_bufs.(r)).(i))
      x
  done

let test_ring_gradient_fd () =
  let prog = ring_prog () in
  let n = 2 in
  check "ring vs fd"
    (GC.check_spmd prog "ring" ~nranks:3
       ~args:(fun ~rank ->
         [ GC.ABuf (Array.init n (fun i -> 0.3 +. float_of_int (rank + i))); GC.AInt n ])
       ~seeds:(seed0 n) ~d_ret:dret_rank0)

(* request ARRAYS: requests stored to and loaded from memory, waited in a
   separate loop — the shadow-request-through-memory path (LULESH's
   communication structure) *)
let reqarray_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "reqarr"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let one = B.i64 b 1 in
  let next = B.rem b (B.add b rank one) size in
  let prev = B.rem b (B.add b rank (B.sub b size one)) size in
  let y = B.alloc b Ty.Float n in
  let reqs = B.alloc b Ty.Int (B.i64 b 2) in
  let tag = B.i64 b 9 in
  let sreq = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  B.store b reqs (B.i64 b 0) sreq;
  let rreq = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  B.store b reqs (B.i64 b 1) rreq;
  (* waitall loop over the request array *)
  B.for_n b (B.i64 b 2) (fun i ->
      let r = B.load b reqs i in
      ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ r ]));
  let acc = B.alloc b Ty.Float one in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let yi = B.load b y i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b (B.sin_ b yi) yi)));
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ acc; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  prog

let test_request_array_gradient () =
  let prog = reqarray_prog () in
  let n = 2 in
  check "request arrays vs fd"
    (GC.check_spmd prog "reqarr" ~nranks:3
       ~args:(fun ~rank ->
         [
           GC.ABuf (Array.init n (fun i -> 0.2 +. (0.7 *. float_of_int (rank + i))));
           GC.AInt n;
         ])
       ~seeds:(seed0 n) ~d_ret:dret_rank0)

(* blocking send/recv in two phases to avoid deadlock *)
let blocking_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "blk"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let one = B.i64 b 1 in
  let y = B.alloc b Ty.Float n in
  let tag = B.i64 b 4 in
  let is_even = B.eq b (B.rem b rank (B.i64 b 2)) (B.i64 b 0) in
  let peer =
    B.select b is_even (B.add b rank one) (B.sub b rank one)
  in
  (* even ranks send then recv; odd ranks recv then send *)
  B.ite b is_even
    (fun () ->
      ignore (B.call b ~ret:Ty.Unit "mpi.send" [ x; n; peer; tag ]);
      ignore (B.call b ~ret:Ty.Unit "mpi.recv" [ y; n; peer; tag ]))
    (fun () ->
      ignore (B.call b ~ret:Ty.Unit "mpi.recv" [ y; n; peer; tag ]);
      ignore (B.call b ~ret:Ty.Unit "mpi.send" [ x; n; peer; tag ]));
  let acc = B.alloc b Ty.Float one in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let yi = B.load b y i in
      let xi = B.load b x i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b yi (B.exp_ b xi))));
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ acc; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  prog

(* The blocking kernels with adjoint coalescing on (the [_post] duals
   and [mpi.adj_waitall]) and off ([mpi.adj_send] / [mpi.adj_recv]):
   both agree with finite differences, give the same gradient bits, and
   the engine's seq runner reproduces the interpreter's bits, makespan
   and instruction count. [makespans] pins the interpreter's makespan
   (coalesced, uncoalesced). *)
let check_coalesce_modes name prog fname ~nranks ~args ~makespans =
  let seeds = seed0 2 in
  let opts coalesce =
    { Parad_core.Plan.default_options with coalesce_comm = coalesce }
  in
  let run coalesce engine =
    fst
      (GC.spmd_gradient ~opts:(opts coalesce) ~nranks ~args ~seeds
         ~d_ret:dret_rank0 prog fname ~run:(fun ~cfg dprog ~fname ~setup ->
           let call = E.call_fn (E.prepare dprog) engine in
           Exec.run_spmd ~cfg ~call dprog ~nranks ~fname ~setup, ()))
  in
  let bits (g : GC.spmd_gradient) =
    ( Array.map Int64.bits_of_float g.GC.s_primals,
      Array.map (List.map (Array.map Int64.bits_of_float)) g.GC.s_d_bufs )
  in
  let mode coalesce =
    let what = Printf.sprintf "%s (coalesce %b)" name coalesce in
    check (what ^ " vs fd")
      (GC.check_spmd ~opts:(opts coalesce) prog fname ~nranks ~args ~seeds
         ~d_ret:dret_rank0);
    let gi = run coalesce E.Interp and gs = run coalesce E.Seq in
    Alcotest.(check bool) (what ^ ": seq bits") true (bits gi = bits gs);
    Alcotest.(check (float 0.0))
      (what ^ ": seq makespan") gi.GC.s_makespan gs.GC.s_makespan;
    Alcotest.(check int)
      (what ^ ": seq instrs") gi.GC.s_stats.Stats.instrs
      gs.GC.s_stats.Stats.instrs;
    gi
  in
  let c = mode true and u = mode false in
  Alcotest.(check bool) (name ^ ": same bits either way") true (bits c = bits u);
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    (name ^ " makespans") makespans (c.GC.s_makespan, u.GC.s_makespan)

let test_blocking_p2p_gradient () =
  let n = 2 in
  check_coalesce_modes "blocking p2p" (blocking_prog ()) "blk" ~nranks:4
    ~args:(fun ~rank ->
      [
        GC.ABuf (Array.init n (fun i -> 0.1 +. (0.3 *. float_of_int (rank + i))));
        GC.AInt n;
      ])
    ~makespans:(37737.800000000003, 37632.200000000004)

(* allreduce_min adjoint: gradient flows only to the winning rank *)
let test_allreduce_min_gradient () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "armin"
      ~attrs:[ Func.noalias ]
      ~params:[ "x", Ty.Ptr Ty.Float ]
      ~ret:Ty.Float
  in
  let x = List.hd ps in
  let one = B.i64 b 1 in
  let s = B.alloc b Ty.Float one in
  (* contribute x[0]^2 *)
  let x0 = B.load b x (B.i64 b 0) in
  B.store b s (B.i64 b 0) (B.mul b x0 x0) ;
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_min" [ s; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  let g =
    GC.reverse_spmd prog "armin" ~nranks:3
      ~args:(fun ~rank -> [ GC.ABuf [| float_of_int (3 - rank) |] ])
      ~seeds:(fun ~rank:_ -> [ [| 0.0 |] ])
      ~d_ret:dret_rank0
  in
  (* min of {9, 4, 1}: rank 2 wins; d/dx = 2*x = 2 on rank 2 only *)
  Alcotest.check feq "rank0" 0.0 (List.hd g.GC.s_d_bufs.(0)).(0);
  Alcotest.check feq "rank1" 0.0 (List.hd g.GC.s_d_bufs.(1)).(0);
  Alcotest.check feq "rank2" 2.0 (List.hd g.GC.s_d_bufs.(2)).(0)

(* bcast adjoint: non-root adjoints fold back to the root *)
let test_bcast_gradient () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "bc"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  ignore (B.call b ~ret:Ty.Unit "mpi.bcast" [ x; n; B.i64 b 0 ]);
  (* each rank: (rank+1) * sum x_i^2, allreduced *)
  let one = B.i64 b 1 in
  let acc = B.alloc b Ty.Float one in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let xi = B.load b x i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b xi xi)));
  let w = B.to_float b (B.add b rank one) in
  B.store b acc (B.i64 b 0) (B.mul b w (B.load b acc (B.i64 b 0)));
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ acc; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  let nranks = 3 in
  let xr = [| 0.5; -1.0 |] in
  let g =
    GC.reverse_spmd prog "bc" ~nranks
      ~args:(fun ~rank:_ -> [ GC.ABuf xr; GC.AInt 2 ])
      ~seeds:(seed0 2) ~d_ret:dret_rank0
  in
  (* loss = (1+2+3) * sum x_i^2 with x = root's x: d x_i = 12 x_i at root *)
  Array.iteri
    (fun i xi ->
      Alcotest.check feq
        (Printf.sprintf "root d x[%d]" i)
        (12.0 *. xi)
        (List.hd g.GC.s_d_bufs.(0)).(i))
    xr;
  (* non-root shadows are zeroed by the bcast adjoint *)
  Alcotest.check feq "nonroot zero" 0.0 (List.hd g.GC.s_d_bufs.(1)).(0)

(* two messages on the same channel + multiple tags *)
let multi_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "mm2"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let one = B.i64 b 1 in
  let y = B.alloc b Ty.Float n in
  let z = B.alloc b Ty.Float n in
  let t0 = B.i64 b 0 and t1 = B.i64 b 1 in
  let is0 = B.eq b rank (B.i64 b 0) in
  B.ite b is0
    (fun () ->
      ignore (B.call b ~ret:Ty.Unit "mpi.send" [ x; n; one; t0 ]);
      ignore (B.call b ~ret:Ty.Unit "mpi.send" [ x; n; one; t1 ]);
      B.for_n b n (fun i ->
          B.store b y i (B.f64 b 0.0);
          B.store b z i (B.f64 b 0.0)))
    (fun () ->
      ignore (B.call b ~ret:Ty.Unit "mpi.recv" [ y; n; B.i64 b 0; t0 ]);
      ignore (B.call b ~ret:Ty.Unit "mpi.recv" [ z; n; B.i64 b 0; t1 ]));
  let acc = B.alloc b Ty.Float one in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let yi = B.load b y i and zi = B.load b z i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0)
        (B.add b cur (B.add b (B.mul b yi yi) (B.mul b (B.f64 b 3.0) zi))));
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ acc; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  prog

let test_multi_message () =
  check_coalesce_modes "multi message" (multi_prog ()) "mm2" ~nranks:2
    ~args:(fun ~rank ->
      [ GC.ABuf [| 0.4 +. float_of_int rank; 1.3 |]; GC.AInt 2 ])
    ~makespans:(21201.199999999997, 21855.199999999997)

let () =
  Alcotest.run "ad-mpi"
    [
      ( "p2p",
        [
          Alcotest.test_case "ring exact" `Quick test_ring_gradient_exact;
          Alcotest.test_case "ring vs fd" `Quick test_ring_gradient_fd;
          Alcotest.test_case "request arrays" `Quick
            test_request_array_gradient;
          Alcotest.test_case "blocking p2p" `Quick test_blocking_p2p_gradient;
          Alcotest.test_case "multi message" `Quick test_multi_message;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "allreduce_min" `Quick
            test_allreduce_min_gradient;
          Alcotest.test_case "bcast" `Quick test_bcast_gradient;
        ] );
    ]
