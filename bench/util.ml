(* Table formatting and shared measurement helpers for the figure
   drivers. All times are virtual cycles from the simulator (see
   DESIGN.md); "overhead" is gradient/forward, the paper's metric. *)

let header title =
  Printf.printf "\n=== %s ===\n" title

(* optional [--flag N] integer argument to the bench driver *)
let cli_int flag ~default =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then default
    else if Sys.argv.(i) = flag then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n -> n
      | None -> default
    else find (i + 1)
  in
  find 1

(* optional [--ranks N] for the MPI figure drivers; the simulated
   communicator uses recursive-doubling collectives, so N must be a
   power of two *)
let cli_ranks ~default =
  let n = cli_int "--ranks" ~default in
  if n <= 0 || n land (n - 1) <> 0 then begin
    Printf.eprintf
      "bench: --ranks must be a power of two (got %d); the simulated \
       communicator uses recursive-doubling collectives\n"
      n;
    exit 2
  end;
  n

let subheader t = Printf.printf "--- %s ---\n" t

let row_of_floats name xs =
  Printf.printf "%-24s %s\n" name
    (String.concat " "
       (List.map (fun x -> Printf.sprintf "%12.3g" x) xs))

let row_of_strings name xs =
  Printf.printf "%-24s %s\n" name
    (String.concat " " (List.map (Printf.sprintf "%12s") xs))

let cols name xs =
  row_of_strings name (List.map string_of_int xs)

(* speedup series: t(first) / t(n) *)
let speedups ts =
  match ts with
  | [] -> []
  | t1 :: _ -> List.map (fun t -> t1 /. t) ts

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module GC = Parad_verify.Grad_check
module TC = Parad_verify.Tape_check
module S = Parad_runtime.Stats

(* best of [reps] runs of [f], which returns a result and its wall-ns *)
let best_of reps f =
  let best = ref None and keep = ref None in
  for _ = 1 to reps do
    let r, ns = f () in
    match !best with
    | Some b when b <= ns -> ()
    | _ ->
      best := Some ns;
      keep := Some r
  done;
  match !keep, !best with Some r, Some ns -> r, ns | _ -> assert false

let bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

(* two LULESH gradients agree bit-for-bit on every rank *)
let lulesh_grads_eq (a : L.grad_result) (b : L.grad_result) =
  Array.length a.L.d_coords = Array.length b.L.d_coords
  && Array.for_all2 bits_eq a.L.d_coords b.L.d_coords
  && Array.for_all2 bits_eq a.L.d_energy b.L.d_energy

(* ---- machine-readable results ----

   Figure drivers record rows here; the main driver writes each figure's
   rows to BENCH_<figure>.json at exit (Bench_row.write), and
   bench/gate.exe checks them against bench/thresholds. *)

let rows : Bench_row.t list ref = ref []

let record ~figure ~config ?bitwise metrics =
  rows := { Bench_row.figure; config; metrics; bitwise } :: !rows

(* argument list for driving LULESH through the generic (tape) harness *)
let lulesh_args (inp : L.input) ~nranks ~rank =
  let m = L.mesh inp ~nranks ~rank in
  [
    GC.ABuf m.L.coords.(0);
    GC.ABuf m.L.coords.(1);
    GC.ABuf m.L.coords.(2);
    GC.ABuf m.L.vels.(0);
    GC.ABuf m.L.vels.(1);
    GC.ABuf m.L.vels.(2);
    GC.ABuf m.L.energy;
    GC.AIntBuf m.L.conn;
    GC.ABuf m.L.node_mass;
    GC.AInt inp.L.nx;
    GC.AInt inp.L.ny;
    GC.AInt m.L.nzl;
    GC.AInt inp.L.niter;
    GC.AScalar inp.L.dt0;
  ]

let lulesh_zero_seeds (inp : L.input) ~nranks ~rank =
  let m = L.mesh inp ~nranks ~rank in
  let nn = Array.length m.L.node_mass in
  let ne = Array.length m.L.energy in
  List.map (fun len -> Array.make len 0.0) [ nn; nn; nn; nn; nn; nn; ne; nn ]

(* the CoDiPack-analog gradient of LULESH-MPI in virtual time *)
let lulesh_tape_gradient (inp : L.input) ~nranks =
  let prog = L.program L.Mpi in
  let g, _ =
    TC.reverse_spmd prog "lulesh_mpi" ~nranks
      ~args:(fun ~rank -> lulesh_args inp ~nranks ~rank)
      ~seeds:(fun ~rank -> lulesh_zero_seeds inp ~nranks ~rank)
      ~d_ret:(fun ~rank -> if rank = 0 then 1.0 else 0.0)
  in
  g.GC.s_makespan
