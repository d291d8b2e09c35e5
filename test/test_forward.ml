(* Forward (tangent) mode: directional derivatives must agree with the
   reverse-mode projection <adjoint, direction> — the paper's §VII
   consistency check between modes. *)

open Parad_ir
open Parad_runtime
module B = Builder
module GC = Parad_verify.Grad_check
module V = Value

let feq = Alcotest.float 1e-9

let cfgw w = { Interp.default_config with nthreads = w }

let test_forward_scalar () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "f" ~params:[ "x", Ty.Float; "y", Ty.Float ] ~ret:Ty.Float
  in
  let x, y = match ps with [ a; b ] -> a, b | _ -> assert false in
  let r = B.add b (B.sin_ b (B.mul b x y)) (B.div b x (B.exp_ b y)) in
  B.return b (Some r);
  ignore (B.finish b);
  let tprog, tname = Parad_core.Forward.tangent prog "f" in
  let xv = 0.8 and yv = 1.3 in
  let dir = [| 0.37; -0.61 |] in
  let tret = ref V.VUnit in
  let res =
    Exec.run tprog ~fname:tname ~setup:(fun ctx ->
        let t = Exec.zeros ctx 1 in
        tret := t;
        [ V.VFloat xv; V.VFloat yv; V.VFloat dir.(0); V.VFloat dir.(1); t ])
  in
  ignore res;
  let fwd = (Exec.to_floats !tret).(0) in
  let g = GC.reverse prog "f" [ GC.AScalar xv; GC.AScalar yv ] in
  let rev = (g.GC.d_scalars.(0) *. dir.(0)) +. (g.GC.d_scalars.(1) *. dir.(1)) in
  Alcotest.check feq "forward == <reverse, dir>" rev fwd

(* parallel kernel: out[i] = exp(x[i]) * x[i], forward through the fork *)
let test_forward_parallel () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "k"
      ~attrs:[ Func.noalias; Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, out, n = match ps with [ a; b; c ] -> a, b, c | _ -> assert false in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      let xi = B.load b x i in
      B.store b out i (B.mul b (B.exp_ b xi) xi));
  B.return b None;
  ignore (B.finish b);
  let tprog, tname = Parad_core.Forward.tangent prog "k" in
  Verifier.check_prog tprog;
  let input = [| 0.2; -0.5; 1.1; 0.8; -1.3 |] in
  let dir = [| 1.0; 0.5; -0.25; 0.0; 2.0 |] in
  let tout = ref V.VUnit in
  ignore
    (Exec.run ~cfg:(cfgw 4) tprog ~fname:tname ~setup:(fun ctx ->
         let xs = Exec.floats ctx input in
         let os = Exec.zeros ctx 5 in
         let tx = Exec.floats ctx dir in
         let to_ = Exec.zeros ctx 5 in
         tout := to_;
         [ xs; os; V.VInt 5; tx; to_ ]));
  let fwd = Exec.to_floats !tout in
  (* reverse with each unit seed gives rows; compare the directional sum *)
  let g =
    GC.reverse ~cfg:(cfgw 4) prog "k"
      [ GC.ABuf input; GC.ABuf (Array.make 5 0.0); GC.AInt 5 ]
      ~seeds:[ Array.make 5 0.0; Array.make 5 1.0 ]
  in
  let rev_proj =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i d -> d *. dir.(i)) (List.hd g.GC.d_bufs))
  in
  let fwd_proj = Array.fold_left ( +. ) 0.0 fwd in
  Alcotest.check feq "sum t_out == <d_x, dir>" rev_proj fwd_proj;
  (* elementwise: t_out[i] = (exp'(x)x + exp(x)) * dir[i] *)
  Array.iteri
    (fun i xi ->
      let expect = ((exp xi *. xi) +. exp xi) *. dir.(i) in
      Alcotest.check feq (Printf.sprintf "t_out[%d]" i) expect fwd.(i))
    input

(* forward through MPI: ring shift, tangents travel with the data *)
let test_forward_mpi () =
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
  let tag = B.i64 b 2 in
  let s = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  let r = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ s ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ r ]);
  let acc = B.alloc b Ty.Float one in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let yi = B.load b y i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b yi yi)));
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ acc; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  let tprog, tname = Parad_core.Forward.tangent prog "ring" in
  let nranks = 3 and nn = 2 in
  let data rank = Array.init nn (fun i -> 0.4 +. float_of_int (rank + i)) in
  let dir rank = Array.init nn (fun i -> 0.1 *. float_of_int ((rank * nn) + i + 1)) in
  (* loss = sum_r |x_r|^2 (the ring shift preserves the multiset), so the
     tangent on every rank is sum_r <2 x_r, dir_r> *)
  let expect =
    let acc = ref 0.0 in
    for r = 0 to nranks - 1 do
      Array.iteri
        (fun i xi -> acc := !acc +. (2.0 *. xi *. (dir r).(i)))
        (data r)
    done;
    !acc
  in
  let touts = Array.make nranks V.VUnit in
  ignore
    (Exec.run_spmd tprog ~nranks ~fname:tname ~setup:(fun ctx ~rank ->
         let xs = Exec.floats ctx (data rank) in
         let tx = Exec.floats ctx (dir rank) in
         let tr = Exec.floats ctx [| 0.0 |] in
         touts.(rank) <- tr;
         [ xs; V.VInt nn; tx; tr ]));
  for r = 0 to nranks - 1 do
    Alcotest.check feq
      (Printf.sprintf "rank %d tangent" r)
      expect
      (Exec.to_floats touts.(r)).(0)
  done


(* ---- property: forward == reverse on random programs ---- *)

let rand_input = [| 0.31; -0.87; 1.4; 0.52; -0.11; 0.93 |]
let build_random = Gen_prog.build ~len:(Array.length rand_input)
let rand_dir = [| 1.0; -0.5; 0.25; 2.0; -1.5; 0.75 |]

let forward_directional prog =
  let tprog, tname = Parad_core.Forward.tangent prog "rand" in
  let tret = ref V.VUnit in
  ignore
    (Exec.run tprog ~fname:tname ~setup:(fun ctx ->
         let xs = Exec.floats ctx rand_input in
         let tx = Exec.floats ctx rand_dir in
         let tr = Exec.zeros ctx 1 in
         tret := tr;
         [ xs; tx; tr ]));
  (Exec.to_floats !tret).(0)

let reverse_directional prog =
  let g =
    GC.reverse prog "rand" [ GC.ABuf rand_input ] ~seeds:[ Array.make 6 0.0 ]
  in
  Array.fold_left ( +. ) 0.0
    (Array.mapi (fun i d -> d *. rand_dir.(i)) (List.hd g.GC.d_bufs))

let prop_forward_eq_reverse =
  QCheck.Test.make ~name:"forward == reverse (random programs)" ~count:120
    (QCheck.make Gen_prog.gen_ops) (fun ops ->
      let prog = build_random ops in
      let f = forward_directional prog in
      let r = reverse_directional prog in
      Float.abs (f -. r) <= 1e-9 *. Float.max 1.0 (Float.abs f))

(* gradients of a random parallel map must not depend on thread count *)
let prop_parallel_gradient_width_invariant =
  QCheck.Test.make ~name:"parallel gradient width-invariant" ~count:40
    (QCheck.make
       QCheck.Gen.(pair Gen_prog.gen_ops (int_range 2 9)))
    (fun (ops, w) ->
      (* wrap the random expression in a parallel map over 6 elements *)
      let prog = Prog.create () in
      let b, ps =
        B.func prog "pmap"
          ~attrs:[ Func.noalias_readonly; Func.noalias; Func.default_attr ]
          ~params:
            [ "x", Ty.Ptr Ty.Float; "out", Ty.Ptr Ty.Float; "n", Ty.Int ]
          ~ret:Ty.Unit
      in
      let x, out, n =
        match ps with [ a; b; c ] -> a, b, c | _ -> assert false
      in
      B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
          let xi = B.load b x i in
          let stack = Gen_prog.emit b ~init:xi ~load:(fun _ -> xi) ops in
          B.store b out i (List.hd stack));
      B.return b None;
      ignore (B.finish b);
      let grad w =
        let g =
          GC.reverse ~cfg:(cfgw w) prog "pmap"
            [ GC.ABuf rand_input; GC.ABuf (Array.make 6 0.0); GC.AInt 6 ]
            ~seeds:[ Array.make 6 0.0; Array.make 6 1.0 ]
        in
        List.hd g.GC.d_bufs
      in
      let g1 = grad 1 and gw = grad w in
      Array.for_all2
        (fun a c -> Float.abs (a -. c) <= 1e-10 *. Float.max 1.0 (Float.abs a))
        g1 gw)

let () =
  Alcotest.run "forward"
    [
      ( "tangent",
        [
          Alcotest.test_case "scalar directional" `Quick test_forward_scalar;
          Alcotest.test_case "parallel for" `Quick test_forward_parallel;
          Alcotest.test_case "mpi ring" `Quick test_forward_mpi;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_forward_eq_reverse;
          QCheck_alcotest.to_alcotest prop_parallel_gradient_width_invariant;
        ] );
    ]
