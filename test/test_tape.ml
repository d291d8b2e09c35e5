(* The operator-overloading tape baseline (CoDiPack analog): correctness
   against the compiler-integrated engine and finite differences, its
   adjoint-MPI extension, its OpenMP limitation, and the cost-model
   property the paper's Fig 8 analysis hinges on (high serial gradient
   overhead). *)

open Parad_ir
open Parad_runtime
module B = Builder
module GC = Parad_verify.Grad_check
module TC = Parad_verify.Tape_check

let feq = Alcotest.float 1e-8

let bits = Int64.bits_of_float

let check_bits_arr name a b =
  Alcotest.(check (array int64)) name (Array.map bits a) (Array.map bits b)

let two ps = match ps with [ a; b ] -> a, b | _ -> assert false

(* shared serial test kernel: y = sum_i sin(x_i) * x_i^2 *)
let serial_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "k" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let xi = B.load b x i in
      let v = B.mul b (B.sin_ b xi) (B.mul b xi xi) in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur v));
  B.return b (Some (B.load b acc (B.i64 b 0)));
  ignore (B.finish b);
  prog

let input = [| 0.4; -1.3; 2.1; 0.9 |]

let test_tape_matches_enzyme () =
  let prog = serial_prog () in
  let args = [ GC.ABuf input; GC.AInt 4 ] in
  let seeds = [ Array.make 4 0.0 ] in
  let enzyme = GC.reverse prog "k" args ~seeds in
  let tape, _ = TC.reverse prog "k" args ~seeds in
  Alcotest.check feq "primal" enzyme.GC.primal tape.GC.primal;
  Array.iter2
    (fun a b -> Alcotest.check feq "adjoint" a b)
    (List.hd enzyme.GC.d_bufs)
    (List.hd tape.GC.d_bufs)

let test_tape_entries_recorded () =
  (* per element: sin, x*x, the product and the accumulation; no
     communication *)
  let module Tape = Parad_tape.Tape in
  let prog = serial_prog () in
  let g, tape =
    TC.reverse prog "k"
      [ GC.ABuf input; GC.AInt 4 ]
      ~seeds:[ Array.make 4 0.0 ]
  in
  Alcotest.(check int) "rows" (4 * 4) tape.Tape.rows;
  Alcotest.(check int) "communication entries" 0 (List.length tape.Tape.comms);
  Alcotest.(check int) "length = counted entries" g.GC.stats.Stats.tape_entries
    (Tape.length tape);
  Alcotest.(check int) "length = rows + communication entries"
    (tape.Tape.rows + List.length tape.Tape.comms)
    (Tape.length tape)

let test_tape_repeated_sweeps () =
  (* one recording, several sweeps: the sweep leaves the columns intact,
     each sweep starts from fresh adjoints, and the result is linear in
     the seed (power-of-two seeds scale every product exactly) *)
  let module Tape = Parad_tape.Tape in
  let prog = serial_prog () in
  let d_rets = [| 1.0; -2.0; 0.125; 1.0 |] in
  let swept = Array.make (Array.length d_rets) [||] in
  let tape = Tape.create ~rank:0 in
  let rows = ref 0 in
  ignore
    (Exec.run_spmd_custom prog ~nranks:1
       ~instrument:(fun ~rank:_ -> Tape.instrument tape)
       ~body:(fun ctx ~rank:_ ->
         let vals, bufs = GC.build_args ctx [ GC.ABuf input; GC.AInt 4 ] in
         List.iter (Tape.activate tape) bufs;
         let _, ret_slot =
           Interp.call_with_slots ctx "k" vals (List.map (fun _ -> 0) vals)
         in
         rows := tape.Tape.rows;
         Array.iteri
           (fun l d ->
             let sw = Tape.sweep tape in
             Tape.seed_slot sw ret_slot d;
             Tape.reverse sw ctx;
             swept.(l) <- Tape.adjoint_of sw (List.hd bufs))
           d_rets));
  Alcotest.(check int) "rows untouched by sweeps" !rows tape.Tape.rows;
  let enzyme =
    GC.reverse prog "k" [ GC.ABuf input; GC.AInt 4 ] ~seeds:[ Array.make 4 0.0 ]
  in
  Array.iter2
    (fun a b -> Alcotest.check feq "first sweep matches enzyme" a b)
    (List.hd enzyme.GC.d_bufs) swept.(0);
  Array.iteri
    (fun l d ->
      check_bits_arr
        (Printf.sprintf "sweep %d = %g * sweep 0" l d)
        (Array.map (fun x -> d *. x) swept.(0))
        swept.(l))
    d_rets

let test_tape_no_boxing () =
  (* a strand charge and a row recorded through the instrument, the
     engine's way (operands in scratch cells, the one partials function
     for every taped statement kind, the slot-only hook), allocate
     nothing on the minor heap: chunk columns come from the major heap,
     so only a few words per chunk count *)
  let module Tape = Parad_tape.Tape in
  let n = 100_000 in
  let v id = Var.make ~id ~ty:Ty.Float ~name:"v" in
  let stmts =
    Array.of_list
      (List.map
         (fun op -> Instr.Bin (v 0, op, v 1, v 2))
         Instr.[ Add; Sub; Mul; Div; Min; Max; Pow ]
      @ List.map
          (fun op -> Instr.Un (v 0, op, v 1))
          Instr.[ Neg; Sqrt; Sin; Cos; Exp; Log; Abs; Floor ]
      @ [ Instr.AtomicAdd (v 0, v 1, v 2) ])
  in
  let words, _, _ =
    Sim.run (fun () ->
        let tape = Tape.create ~rank:0 in
        let ins = Tape.instrument tape in
        let s = ins.Interp.scratch in
        let before = Gc.minor_words () in
        for _ = 1 to n do
          Sim.charge 1.0
        done;
        for k = 1 to n do
          s.(2) <- float_of_int k;
          s.(3) <- 0.5;
          s.(4) <- 0.5 *. float_of_int k;
          Interp.partials s stmts.(k mod Array.length stmts);
          ignore (ins.Interp.record k (k + 1))
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "rows" n tape.Tape.rows;
        words)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d charges and %d rows" words n n)
    true (words <= 1000.0)

let test_tape_serial_overhead_higher_than_enzyme () =
  (* the crux of the paper's CoDiPack comparison: per-statement taping
     makes the serial gradient much slower than the compiler-generated
     one *)
  let prog = serial_prog () in
  let big = Array.init 256 (fun i -> 0.01 *. float_of_int (i + 1)) in
  let args = [ GC.ABuf big; GC.AInt 256 ] in
  let seeds = [ Array.make 256 0.0 ] in
  let primal =
    let _, _, res = GC.run_primal prog "k" args in
    res.Exec.makespan
  in
  let enzyme = (GC.reverse prog "k" args ~seeds).GC.makespan in
  let tape = (fst (TC.reverse prog "k" args ~seeds)).GC.makespan in
  let eo = enzyme /. primal and to_ = tape /. primal in
  Alcotest.(check bool)
    (Printf.sprintf "tape overhead (%.2fx) > enzyme overhead (%.2fx)" to_ eo)
    true (to_ > eo)

let test_tape_rejects_openmp () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "pf" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, n = two ps in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      B.store b x i (B.f64 b 1.0));
  B.return b None;
  ignore (B.finish b);
  match
    TC.reverse prog "pf"
      [ GC.ABuf [| 0.0; 0.0 |]; GC.AInt 2 ]
      ~seeds:[ Array.make 2 1.0 ]
  with
  | _ -> Alcotest.fail "tape accepted fork/join parallelism"
  | exception Value.Runtime_error _ -> ()

(* MPI: ring exchange, tape vs enzyme vs exact *)
let ring_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "ring"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let one = B.i64 b 1 in
  let next = B.rem b (B.add b rank one) size in
  let prev = B.rem b (B.add b rank (B.sub b size one)) size in
  let y = B.alloc b Ty.Float n in
  let tag = B.i64 b 5 in
  let sreq = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  let rreq = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ sreq ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ rreq ]);
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
  prog

(* broadcast and min/max reductions placed so that communication
   entries land at row 0 (the first bcast), mid-tape (the min), back to
   back (the second bcast right after the min) and last (the max) *)
let bcast_min_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "bmin"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let zero = B.i64 b 0 and one = B.i64 b 1 in
  ignore (B.call b ~ret:Ty.Unit "mpi.bcast" [ x; n; zero ]);
  let y = B.alloc b Ty.Float n in
  B.for_n b n (fun i ->
      let xi = B.load b x i in
      let w = B.sin_ b (B.to_float b (B.add b rank i)) in
      B.store b y i (B.mul b (B.mul b xi xi) w));
  let z = B.alloc b Ty.Float n in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_min" [ y; z; n ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.bcast" [ z; n; one ]);
  let acc = B.alloc b Ty.Float one in
  B.store b acc zero (B.f64 b 0.0);
  let rf = B.to_float b rank in
  B.for_n b n (fun i ->
      let zi = B.load b z i in
      let cur = B.load b acc zero in
      B.store b acc zero (B.add b cur (B.mul b zi (B.sin_ b (B.add b zi rf)))));
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_max" [ acc; out; one ]);
  B.return b (Some (B.load b out zero));
  ignore (B.finish b);
  prog

let mpi_progs = [ "ring", ring_prog; "bmin", bcast_min_prog ]

let mpi_nranks = 4
let mpi_n = 3

let mpi_args ~rank =
  [
    GC.ABuf (Array.init mpi_n (fun i -> 0.2 +. (0.3 *. float_of_int (rank + i))));
    GC.AInt mpi_n;
  ]

let mpi_seeds ~rank:_ = [ Array.make mpi_n 0.0 ]
let mpi_d_ret ~rank = if rank = 0 then 1.0 else 0.0

let test_tape_ampi_matches_enzyme () =
  List.iter
    (fun (fname, mk) ->
      let prog = mk () in
      let enzyme =
        GC.reverse_spmd prog fname ~nranks:mpi_nranks ~args:mpi_args
          ~seeds:mpi_seeds ~d_ret:mpi_d_ret
      in
      let tape, _ =
        TC.reverse_spmd prog fname ~nranks:mpi_nranks ~args:mpi_args
          ~seeds:mpi_seeds ~d_ret:mpi_d_ret
      in
      for r = 0 to mpi_nranks - 1 do
        Array.iter2
          (fun a b -> Alcotest.check feq (Printf.sprintf "%s rank %d" fname r) a b)
          (List.hd enzyme.GC.s_d_bufs.(r))
          (List.hd tape.GC.s_d_bufs.(r))
      done)
    mpi_progs

let test_tape_comm_positions () =
  let module Tape = Parad_tape.Tape in
  let g, tapes =
    TC.reverse_spmd (bcast_min_prog ()) "bmin" ~nranks:mpi_nranks
      ~args:mpi_args ~seeds:mpi_seeds ~d_ret:mpi_d_ret
  in
  let t = tapes.(0) in
  (match List.map fst t.Tape.comms with
  | [ last; bcast; min; first ] ->
    Alcotest.(check (list int))
      "max last, min then bcast back to back, first bcast at row 0"
      [ t.Tape.rows; min; 0 ] [ last; bcast; first ];
    Alcotest.(check bool) "min mid-tape" true (0 < min && min < t.Tape.rows)
  | _ -> Alcotest.fail "expected four communication entries");
  Alcotest.(check bool)
    "root adjoint nonzero" true
    (Array.exists (fun d -> d <> 0.0) (List.hd g.GC.s_d_bufs.(0)))

(* 2 ranks: a loop that tapes exactly [Tape.chunk_rows] rows, an
   allreduce recorded right at that row, then three rows per element:
   [4 * chunk_rows] rows in all, four full chunks *)
let chunks_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "chunks"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let zero = B.i64 b 0 in
  let y = B.alloc b Ty.Float n in
  B.for_n b n (fun i ->
      let xi = B.load b x i in
      B.store b y i (B.mul b xi xi));
  let z = B.alloc b Ty.Float n in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ y; z; n ]);
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc zero (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let zi = B.load b z i in
      let cur = B.load b acc zero in
      B.store b acc zero (B.add b cur (B.mul b (B.sin_ b zi) zi)));
  B.return b (Some (B.load b acc zero));
  ignore (B.finish b);
  prog

let test_tape_spans_chunks () =
  let module Tape = Parad_tape.Tape in
  let module E = Parad_engine.Engine in
  let prog = chunks_prog () in
  let nranks = 2 and n = Tape.chunk_rows in
  let args ~rank =
    [
      GC.ABuf
        (Array.init n (fun i -> 0.25 +. (1e-4 *. float_of_int (i + rank))));
      GC.AInt n;
    ]
  in
  let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
  (* one recording per rank, swept twice: with [d_ret] and with 4x it *)
  let run call_slots =
    let tapes = Array.init nranks (fun rank -> Tape.create ~rank) in
    let primals = Array.make nranks 0.0 in
    let swept = Array.make_matrix nranks 2 [||] in
    let rows = Array.make nranks 0 in
    let makespan, stats =
      Exec.run_spmd_custom prog ~nranks
        ~instrument:(fun ~rank -> Tape.instrument tapes.(rank))
        ~body:(fun ctx ~rank ->
          let t = tapes.(rank) in
          let vals, bufs = GC.build_args ctx (args ~rank) in
          List.iter (Tape.activate t) bufs;
          let ret, ret_slot =
            call_slots ctx "chunks" vals (List.map (fun _ -> 0) vals)
          in
          primals.(rank) <- Value.to_float ret;
          rows.(rank) <- t.Tape.rows;
          List.iteri
            (fun l scale ->
              let sw = Tape.sweep t in
              Tape.seed_slot sw ret_slot (scale *. d_ret ~rank);
              Tape.reverse sw ctx;
              swept.(rank).(l) <- Tape.adjoint_of sw (List.hd bufs))
            [ 1.0; 4.0 ])
    in
    primals, swept, rows, makespan, stats, tapes
  in
  let pi, si, rows_i, mi, sti, tapes_i = run Interp.call_with_slots in
  let pe, se, rows_e, me, ste, tapes_e =
    run (E.call_fn_slots (E.prepare prog) E.Seq)
  in
  check_bits_arr "primal bits" pi pe;
  for r = 0 to nranks - 1 do
    check_bits_arr (Printf.sprintf "rank %d adjoint bits" r) si.(r).(0)
      se.(r).(0)
  done;
  Alcotest.(check (float 0.0)) "makespan" mi me;
  Alcotest.(check int) "tape entries" sti.Stats.tape_entries
    ste.Stats.tape_entries;
  let enzyme =
    GC.reverse_spmd prog "chunks" ~nranks ~args
      ~seeds:(fun ~rank:_ -> [ Array.make n 0.0 ])
      ~d_ret
  in
  List.iter
    (fun (what, rows, swept, stats, tapes) ->
      let entries = ref 0 in
      Array.iteri
        (fun r (t : Tape.t) ->
          let name s = Printf.sprintf "%s rank %d: %s" what r s in
          Alcotest.(check int) (name "rows") (4 * Tape.chunk_rows) t.Tape.rows;
          Alcotest.(check (list int))
            (name "allreduce at row chunk_rows")
            [ Tape.chunk_rows ]
            (List.map fst t.Tape.comms);
          Alcotest.(check int)
            (name "length = rows + communication entries")
            (t.Tape.rows + List.length t.Tape.comms)
            (Tape.length t);
          Alcotest.(check int) (name "rows untouched by sweeps") rows.(r)
            t.Tape.rows;
          Array.iter2
            (fun a b -> Alcotest.check feq (name "matches enzyme") a b)
            (List.hd enzyme.GC.s_d_bufs.(r))
            swept.(r).(0);
          check_bits_arr (name "4x seed = 4x adjoints")
            (Array.map (fun x -> 4.0 *. x) swept.(r).(0))
            swept.(r).(1);
          entries := !entries + Tape.length t)
        tapes;
      Alcotest.(check int)
        (what ^ ": lengths = tape_entries")
        stats.Stats.tape_entries !entries)
    [
      "interp", rows_i, si, sti, tapes_i;
      "engine", rows_e, se, ste, tapes_e;
    ]

let test_tape_ampi_scaling_artifact () =
  (* fig 8's analysis: tape "scales better" only because its serial
     overhead dominates at low rank counts. Check the signature: the
     tape/enzyme gradient-time ratio shrinks as ranks increase. *)
  let prog = ring_prog () in
  let total = 8192 in
  let time_of tool nranks =
    (* strong scaling: fixed total work split across ranks *)
    let n = total / nranks in
    let args ~rank =
      [ GC.ABuf (Array.init n (fun i -> 0.01 *. float_of_int (rank + i))); GC.AInt n ]
    in
    let seeds ~rank:_ = [ Array.make n 0.0 ] in
    let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
    match tool with
    | `Enzyme ->
      (GC.reverse_spmd prog "ring" ~nranks ~args ~seeds ~d_ret).GC.s_makespan
    | `Tape ->
      (fst (TC.reverse_spmd prog "ring" ~nranks ~args ~seeds ~d_ret))
        .GC.s_makespan
  in
  let ratio nranks = time_of `Tape nranks /. time_of `Enzyme nranks in
  let r2 = ratio 2 and r8 = ratio 8 in
  Alcotest.(check bool)
    (Printf.sprintf "tape/enzyme ratio shrinks with ranks (%.2f -> %.2f)" r2
       r8)
    true (r8 < r2)

(* ---- engine-compiled taping ---- *)

(* run the tape baseline with the primal on the engine's Seq runner vs
   the interpreter: identical tape, FNV-identical adjoints, identical
   makespan, and only the interpreter hand-offs the case expects *)
let engine_slots prog =
  let prep = Parad_engine.Engine.prepare prog in
  Parad_engine.Engine.call_fn_slots prep Parad_engine.Engine.Seq

(* every float-defining instruction a taped compile handles: a constant,
   each float binop and unop, int-to-float, select, store and load, an
   atomic add, a user call returning a float and a float yielded by an
   if *)
let ops_prog () =
  let prog = Prog.create () in
  let b, ps = B.func prog "sq" ~params:[ "x", Ty.Float ] ~ret:Ty.Float in
  let x = List.hd ps in
  B.return b (Some (B.add b (B.mul b x x) (B.f64 b 1.0)));
  ignore (B.finish b);
  let b, ps =
    B.func prog "ops" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  let tmp = B.alloc b Ty.Float n in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let xi = B.load b x i in
      let fi = B.to_float b i in
      let c = B.f64 b 1.5 in
      let v = B.div b (B.mul b (B.sub b (B.add b xi c) fi) xi) c in
      let v = B.max_ b (B.min_ b v xi) (B.neg b xi) in
      let v = B.pow b (B.add b (B.abs_ b v) c) c in
      let u = B.sqrt_ b (B.add b (B.mul b xi xi) c) in
      let u = B.add b u (B.sin_ b xi) in
      let u = B.add b u (B.cos_ b xi) in
      let u = B.add b u (B.exp_ b (B.mul b xi (B.f64 b 0.1))) in
      let u = B.add b u (B.log_ b (B.add b (B.abs_ b xi) c)) in
      let u = B.add b u (B.floor_ b xi) in
      B.store b tmp i (B.select b (B.lt b xi fi) v u);
      let y = B.call b ~ret:Ty.Float "sq" [ B.load b tmp i ] in
      let r =
        B.if_ b ~results:[ Ty.Float ]
          (B.gt b xi (B.f64 b 0.0))
          ~then_:(fun () -> [ B.mul b y xi ])
          ~else_:(fun () -> [ B.sub b y xi ])
      in
      B.atomic_add b acc (B.i64 b 0) (List.hd r));
  B.return b (Some (B.load b acc (B.i64 b 0)));
  ignore (B.finish b);
  prog

module L = Apps_lulesh.Lulesh

let lulesh_tiny =
  { L.nx = 2; ny = 2; nz = 4; niter = 2; dt0 = 0.01; escale = 1.0 }

let lulesh_args ~nranks ~rank =
  let m = L.mesh lulesh_tiny ~nranks ~rank in
  GC.
    [
      ABuf m.L.coords.(0); ABuf m.L.coords.(1); ABuf m.L.coords.(2);
      ABuf m.L.vels.(0); ABuf m.L.vels.(1); ABuf m.L.vels.(2);
      ABuf m.L.energy; AIntBuf m.L.conn; ABuf m.L.node_mass;
      AInt lulesh_tiny.L.nx; AInt lulesh_tiny.L.ny; AInt m.L.nzl;
      AInt lulesh_tiny.L.niter; AScalar lulesh_tiny.L.dt0;
    ]

(* one taping input: program, entry, ranks, per-rank arguments, buffer
   seeds and return seed, and the taped engine run's expected
   [eng_fallbacks] *)
type taping_case = {
  tname : string;
  tprog : Prog.t;
  tfname : string;
  tnranks : int;
  targs : rank:int -> GC.arg list;
  tseeds : rank:int -> float array list;
  td_ret : rank:int -> float;
  tfallbacks : int;
}

let taping_cases () =
  let serial name prog fname =
    {
      tname = name;
      tprog = prog;
      tfname = fname;
      tnranks = 1;
      targs = (fun ~rank:_ -> [ GC.ABuf input; GC.AInt 4 ]);
      tseeds = (fun ~rank:_ -> [ Array.make 4 0.0 ]);
      td_ret = (fun ~rank:_ -> 1.0);
      tfallbacks = 0;
    }
  in
  let nranks = 2 in
  [
    serial "serial kernel" (serial_prog ()) "k";
    serial "every float instruction" (ops_prog ()) "ops";
    {
      tname = "lulesh mpi";
      tprog = L.program L.Mpi;
      tfname = L.flavor_name L.Mpi;
      tnranks = nranks;
      targs = lulesh_args ~nranks;
      tseeds =
        (fun ~rank ->
          List.filter_map
            (function
              | GC.ABuf a -> Some (Array.make (Array.length a) 0.0)
              | _ -> None)
            (lulesh_args ~nranks ~rank));
      td_ret = (fun ~rank -> if rank = 0 then 1.0 else 0.0);
      (* the MPI intrinsics the engine delegates to the interpreter, one
         count each; never the whole call *)
      tfallbacks = 22;
    };
  ]

let test_engine_taping_bit_identical () =
  List.iter
    (fun c ->
      let run ?call_slots () =
        fst
          (TC.reverse_spmd ?call_slots c.tprog c.tfname ~nranks:c.tnranks
             ~args:c.targs ~seeds:c.tseeds ~d_ret:c.td_ret)
      in
      let ri = run () in
      let re = run ~call_slots:(engine_slots c.tprog) () in
      let name what = c.tname ^ ": " ^ what in
      check_bits_arr (name "primal bits") ri.GC.s_primals re.GC.s_primals;
      for r = 0 to c.tnranks - 1 do
        List.iter2
          (check_bits_arr (name (Printf.sprintf "rank %d adjoint bits" r)))
          ri.GC.s_d_bufs.(r) re.GC.s_d_bufs.(r)
      done;
      Alcotest.(check (float 0.0)) (name "makespan") ri.GC.s_makespan
        re.GC.s_makespan;
      Alcotest.(check int)
        (name "tape entries") ri.GC.s_stats.Stats.tape_entries
        re.GC.s_stats.Stats.tape_entries;
      Alcotest.(check int)
        (name "engine stayed resident") c.tfallbacks
        re.GC.s_stats.Stats.eng_fallbacks)
    (taping_cases ())

let test_engine_taping_ampi () =
  List.iter
    (fun (fname, mk) ->
      let prog = mk () in
      let run ?call_slots () =
        fst
          (TC.reverse_spmd ?call_slots prog fname ~nranks:mpi_nranks
             ~args:mpi_args ~seeds:mpi_seeds ~d_ret:mpi_d_ret)
      in
      let ri = run () in
      let re = run ~call_slots:(engine_slots prog) () in
      for r = 0 to mpi_nranks - 1 do
        check_bits_arr
          (Printf.sprintf "%s rank %d adjoint bits" fname r)
          (List.hd ri.GC.s_d_bufs.(r))
          (List.hd re.GC.s_d_bufs.(r))
      done;
      Alcotest.(check (float 0.0))
        (fname ^ " makespan") ri.GC.s_makespan re.GC.s_makespan)
    mpi_progs

let test_engine_taping_rejects_openmp () =
  (* the engine's taped compile must reject fork/join with the
     interpreter's exact diagnostic *)
  let prog = Prog.create () in
  let b, ps =
    B.func prog "pf" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, n = two ps in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      B.store b x i (B.f64 b 1.0));
  B.return b None;
  ignore (B.finish b);
  let run call_slots =
    match
      TC.reverse ?call_slots prog "pf"
        [ GC.ABuf [| 0.0; 0.0 |]; GC.AInt 2 ]
        ~seeds:[ Array.make 2 1.0 ]
    with
    | _ -> Alcotest.fail "tape accepted fork/join parallelism"
    | exception Value.Runtime_error m -> m
  in
  Alcotest.(check string)
    "byte-identical diagnostic" (run None)
    (run (Some (engine_slots prog)))

let test_taped_sanitizer_falls_back () =
  (* a sanitized taped run cannot stay engine-resident: the engine must
     hand the whole call to the interpreter (counted) and the result must
     be bit-identical to a pure interpreter run *)
  let prog = serial_prog () in
  let args = [ GC.ABuf input; GC.AInt 4 ] in
  let seeds = [ Array.make 4 0.0 ] in
  let san () = Sanitizer.create () in
  let ri, _ = TC.reverse ~san:(san ()) prog "k" args ~seeds in
  let re, _ =
    TC.reverse ~san:(san ()) ~call_slots:(engine_slots prog) prog "k" args
      ~seeds
  in
  check_bits_arr "adjoint bits" (List.hd ri.GC.d_bufs) (List.hd re.GC.d_bufs);
  Alcotest.(check (float 0.0)) "makespan" ri.GC.makespan re.GC.makespan;
  Alcotest.(check bool)
    "fallback counted" true
    (re.GC.stats.Stats.eng_fallbacks > 0)

let test_taped_fault_plan_identical () =
  (* fault injection lives in the message runtime, which taped engine
     code reaches through the same delegated intrinsics: a lossy plan
     must leave engine and interpreter taping bit-identical *)
  let prog = ring_prog () in
  let nranks = 4 in
  let n = 3 in
  let args ~rank =
    [ GC.ABuf (Array.init n (fun i -> 0.1 +. float_of_int (rank + i))); GC.AInt n ]
  in
  let seeds ~rank:_ = [ Array.make n 0.0 ] in
  let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
  let plan () = Faults.plan_of_name ~nranks "drop-retry" in
  let ri, _ =
    TC.reverse_spmd ~faults:(plan ()) prog "ring" ~nranks ~args ~seeds ~d_ret
  in
  let re, _ =
    TC.reverse_spmd ~faults:(plan ()) ~call_slots:(engine_slots prog) prog
      "ring" ~nranks ~args ~seeds ~d_ret
  in
  for r = 0 to nranks - 1 do
    check_bits_arr
      (Printf.sprintf "rank %d adjoint bits" r)
      (List.hd ri.GC.s_d_bufs.(r))
      (List.hd re.GC.s_d_bufs.(r))
  done;
  Alcotest.(check (float 0.0)) "makespan" ri.GC.s_makespan re.GC.s_makespan;
  Alcotest.(check bool)
    "retries actually injected" true
    (re.GC.s_stats.Stats.send_retries > 0)

let () =
  Alcotest.run "tape"
    [
      ( "serial",
        [
          Alcotest.test_case "matches enzyme" `Quick test_tape_matches_enzyme;
          Alcotest.test_case "records entries" `Quick
            test_tape_entries_recorded;
          Alcotest.test_case "repeated sweeps" `Quick test_tape_repeated_sweeps;
          Alcotest.test_case "no boxing per charge or row" `Quick
            test_tape_no_boxing;
          Alcotest.test_case "higher serial overhead" `Quick
            test_tape_serial_overhead_higher_than_enzyme;
          Alcotest.test_case "rejects openmp" `Quick test_tape_rejects_openmp;
        ] );
      ( "ampi",
        [
          Alcotest.test_case "matches enzyme" `Quick
            test_tape_ampi_matches_enzyme;
          Alcotest.test_case "communication positions" `Quick
            test_tape_comm_positions;
          Alcotest.test_case "spans chunks" `Quick test_tape_spans_chunks;
          Alcotest.test_case "scaling artifact" `Quick
            test_tape_ampi_scaling_artifact;
        ] );
      ( "engine",
        [
          Alcotest.test_case "taping bit-identical" `Quick
            test_engine_taping_bit_identical;
          Alcotest.test_case "taping over mpi" `Quick test_engine_taping_ampi;
          Alcotest.test_case "rejects openmp" `Quick
            test_engine_taping_rejects_openmp;
          Alcotest.test_case "sanitizer falls back" `Quick
            test_taped_sanitizer_falls_back;
          Alcotest.test_case "fault plan identical" `Quick
            test_taped_fault_plan_identical;
        ] );
    ]
