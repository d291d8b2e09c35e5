(* LULESH proxy: cross-variant agreement (serial vs threaded vs
   distributed vs Julia), gradient correctness against finite
   differences, and the scaling shapes the paper reports. *)

module L = Apps_lulesh.Lulesh

let feq eps = Alcotest.float eps

let tiny = { L.nx = 2; ny = 2; nz = 4; niter = 3; dt0 = 0.01; escale = 1.0 }

let test_variants_agree () =
  let base = (L.run L.Seq tiny).L.total_energy in
  let check name v =
    Alcotest.check (feq 1e-9) name base v
  in
  check "omp" (L.run ~nthreads:4 L.Omp tiny).L.total_energy;
  check "raja" (L.run ~nthreads:4 L.Raja_ tiny).L.total_energy;
  check "mpi 1 rank" (L.run L.Mpi tiny).L.total_energy;
  check "mpi 2 ranks" (L.run ~nranks:2 L.Mpi tiny).L.total_energy;
  check "mpi 4 ranks" (L.run ~nranks:4 L.Mpi tiny).L.total_energy;
  check "hybrid 2x2" (L.run ~nranks:2 ~nthreads:2 L.Hybrid tiny).L.total_energy;
  check "julia 2 ranks" (L.run ~nranks:2 L.Jlmpi tiny).L.total_energy

let test_energy_evolves () =
  (* the shock actually moves material: energy changes over iterations *)
  let e1 = (L.run L.Seq { tiny with L.niter = 1 }).L.total_energy in
  let e5 = (L.run L.Seq { tiny with L.niter = 5 }).L.total_energy in
  Alcotest.(check bool) "dynamics happen" true (Float.abs (e1 -. e5) > 1e-9)

let test_gradient_matches_across_variants () =
  let gs = L.gradient L.Seq tiny in
  let check name (g : L.grad_result) =
    (* single-rank variants share mesh layout: compare directly *)
    Array.iteri
      (fun i x ->
        let y = g.L.d_coords.(0).(i) in
        let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
        Alcotest.check (feq 1e-7)
          (Printf.sprintf "%s d_x[%d]" name i)
          0.0
          ((x -. y) /. scale))
      gs.L.d_coords.(0)
  in
  check "omp" (L.gradient ~nthreads:4 L.Omp tiny);
  check "raja" (L.gradient ~nthreads:3 L.Raja_ tiny);
  check "mpi1" (L.gradient L.Mpi tiny);
  check "jl1" (L.gradient L.Jlmpi tiny)

let test_gradient_mpi_matches_seq () =
  (* 2-rank MPI gradient must equal the seq gradient on the same global
     mesh: rank slabs concatenate (shared plane rows both carry the halo
     contribution summed by the adjoint exchange) *)
  let gs = L.gradient L.Seq tiny in
  let gm = L.gradient ~nranks:2 L.Mpi tiny in
  (* rank 0's slab covers global nodes [0, nn0); its interior (below the
     shared plane) must match seq exactly *)
  let nnx = tiny.L.nx + 1 and nny = tiny.L.ny + 1 in
  let np = nnx * nny in
  let nzl = tiny.L.nz / 2 in
  let interior0 = np * nzl in
  for i = 0 to interior0 - 1 do
    let a = gs.L.d_coords.(0).(i) and b = gm.L.d_coords.(0).(i) in
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Alcotest.check (feq 1e-7)
      (Printf.sprintf "interior d_x[%d]" i)
      0.0
      ((a -. b) /. scale)
  done;
  (* the shared plane: seq adjoint = rank0's + rank1's copies summed *)
  for i = 0 to np - 1 do
    let a = gs.L.d_coords.(0).(interior0 + i) in
    let b =
      gm.L.d_coords.(0).(interior0 + i) +. gm.L.d_coords.(1).(i)
    in
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Alcotest.check (feq 1e-7)
      (Printf.sprintf "shared plane d_x[%d]" i)
      0.0
      ((a -. b) /. scale)
  done

let test_gradient_fd_seq () =
  (* directional finite difference: scale all initial element energies by
     (1+h); d loss/dh at 0 must equal sum_k e_k * dL/de_k *)
  let g = L.gradient L.Seq tiny in
  let m = L.mesh tiny ~nranks:1 ~rank:0 in
  let directional =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun k ek -> ek *. g.L.d_energy.(0).(k)) m.L.energy)
  in
  let h = 1e-6 in
  let loss s = (L.run L.Seq { tiny with L.escale = s }).L.total_energy in
  let fd = (loss (1.0 +. h) -. loss (1.0 -. h)) /. (2.0 *. h) in
  let scale = Float.max 1.0 (Float.max (Float.abs fd) (Float.abs directional)) in
  Alcotest.check (feq 1e-5) "directional fd"
    0.0 ((fd -. directional) /. scale)

let test_scaling_mpi () =
  let inp = { L.nx = 6; ny = 6; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let t n = (L.run ~nranks:n L.Mpi inp).L.makespan in
  let t1 = t 1 and t4 = t 4 in
  Alcotest.(check bool)
    (Printf.sprintf "mpi speedup %.2f" (t1 /. t4))
    true
    (t4 < t1 /. 1.8)

let test_scaling_gradient_mpi () =
  let inp = { L.nx = 6; ny = 6; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let t n = (L.gradient ~nranks:n L.Mpi inp).L.g_makespan in
  let t1 = t 1 and t4 = t 4 in
  Alcotest.(check bool)
    (Printf.sprintf "gradient mpi speedup %.2f" (t1 /. t4))
    true
    (t4 < t1 /. 1.8)

let test_gradient_coalesce_bit_identical () =
  (* Coalesced adjoint exchanges accumulate each chunk at exactly the
     program point where the one-blocking-dual-per-exchange baseline
     would have accumulated it (orphan chunks are parked until their
     expectation registers), so the gradients must be bit-identical to
     the --no-coalesce ablation — not merely close. *)
  let nc = { Parad_core.Plan.default_options with coalesce_comm = false } in
  let g_on = L.gradient ~nranks:4 L.Mpi tiny in
  let g_off = L.gradient ~nranks:4 ~opts:nc L.Mpi tiny in
  let bits name per_rank_on per_rank_off =
    Array.iteri
      (fun r (on : float array) ->
        Array.iteri
          (fun i x ->
            Alcotest.(check int64)
              (Printf.sprintf "rank %d %s[%d]" r name i)
              (Int64.bits_of_float per_rank_off.(r).(i))
              (Int64.bits_of_float x))
          on)
      per_rank_on
  in
  bits "d_x" g_on.L.d_coords g_off.L.d_coords;
  bits "d_e" g_on.L.d_energy g_off.L.d_energy

let test_gradient_coalesced_audit_clean () =
  (* the communication audit must match every packed adjoint message
     back to its originating exchanges: no residual staged chunks,
     unfulfilled expectations, or orphans after a coalesced sweep *)
  let mpi_ref = ref None in
  ignore (L.gradient ~nranks:4 ~mpi_ref L.Mpi tiny);
  match Parad_verify.Comm_check.audit (Option.get !mpi_ref) with
  | [] -> ()
  | issues ->
    Alcotest.failf "coalesced gradient audit: %s"
      (Parad_verify.Comm_check.report issues)

let test_scaling_omp () =
  let inp = { L.nx = 6; ny = 6; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let t w = (L.run ~nthreads:w L.Omp inp).L.makespan in
  let t1 = t 1 and t8 = t 8 in
  Alcotest.(check bool)
    (Printf.sprintf "omp speedup %.2f" (t1 /. t8))
    true
    (t8 < t1 /. 3.0)

(* A serial element loop differentiates no slower than the same loop as
   a fork body: at one thread and one rank the seq, MPI and Julia
   gradients pay no fork, barrier or atomic cost, so each takes at most
   the OMP gradient's virtual time. This holds only when the post-AD
   pipeline promotes the adjoint registers through the reversed
   timestep x element loop nest. *)
let test_serial_no_slower_than_fork () =
  let inp = { L.nx = 4; ny = 4; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let t fl =
    (L.gradient ~engine:Parad_engine.Engine.Seq fl inp).L.g_makespan
  in
  let omp = t L.Omp in
  List.iter
    (fun fl ->
      let s = t fl in
      Alcotest.(check bool)
        (Printf.sprintf "%s %.0f <= lulesh_omp %.0f cycles" (L.flavor_name fl)
           s omp)
        true (s <= omp))
    [ L.Seq; L.Mpi; L.Jlmpi ]

let () =
  Alcotest.run "lulesh"
    [
      ( "primal",
        [
          Alcotest.test_case "variants agree" `Quick test_variants_agree;
          Alcotest.test_case "dynamics evolve" `Quick test_energy_evolves;
          Alcotest.test_case "mpi scales" `Quick test_scaling_mpi;
          Alcotest.test_case "omp scales" `Quick test_scaling_omp;
        ] );
      ( "gradient",
        [
          Alcotest.test_case "variants agree" `Quick
            test_gradient_matches_across_variants;
          Alcotest.test_case "mpi matches seq" `Quick
            test_gradient_mpi_matches_seq;
          Alcotest.test_case "directional derivative" `Quick
            test_gradient_fd_seq;
          Alcotest.test_case "gradient scales" `Quick
            test_scaling_gradient_mpi;
          Alcotest.test_case "coalesce bit-identical" `Quick
            test_gradient_coalesce_bit_identical;
          Alcotest.test_case "coalesced audit clean" `Quick
            test_gradient_coalesced_audit_clean;
          Alcotest.test_case "serial no slower than fork" `Quick
            test_serial_no_slower_than_fork;
        ] );
    ]
