(** Driver for the operator-overloading tape baseline using the same
    argument/seed conventions as {!Grad_check}, so the two tools (and
    finite differences) can be compared on identical programs — the
    paper's §VII methodology. *)

open Parad_runtime
module GC = Grad_check
module Tape = Parad_tape.Tape
module V = Value

(** Run the tape baseline over an SPMD execution; returns per-rank input
    adjoints in the same shape as {!Grad_check.reverse_spmd}. Buffers are
    activated as inputs; seeds apply to final buffer contents; [d_ret]
    seeds each rank's return value.

    [call_slots] substitutes the slot-threading entry point that runs the
    taped primal — pass [Engine.call_fn_slots prep Engine.Seq] to record
    the tape from engine-compiled code (identical tape, FNV-identical
    adjoints, identical makespan). The reverse sweep is {!Tape.reverse}. *)
let reverse_spmd ?(cfg = Interp.default_config) ?faults ?san
    ?(call_slots = Interp.call_with_slots) ~nranks ~args
    ~seeds ~d_ret prog fname =
  let f = Parad_ir.Prog.find_exn prog fname in
  let ret_float = GC.ret_float f in
  let tapes = Array.init nranks (fun rank -> Tape.create ~rank) in
  let grads = Array.make nranks [] in
  let primals = Array.make nranks 0.0 in
  let makespan, stats =
    Exec.run_spmd_custom ~cfg ?faults ?san
      ~instrument:(fun ~rank -> Tape.instrument tapes.(rank))
      prog ~nranks
      ~body:(fun ctx ~rank ->
        let t = tapes.(rank) in
        let vals, bufs = GC.build_args ctx (args ~rank) in
        List.iter (Tape.activate t) bufs;
        let ret, ret_slot =
          call_slots ctx fname vals (List.map (fun _ -> 0) vals)
        in
        if ret_float then primals.(rank) <- V.to_float ret;
        (* reverse sweep, still inside the simulation *)
        let sw = Tape.sweep t in
        List.iter2 (Tape.seed sw) bufs (seeds ~rank);
        if ret_float then Tape.seed_slot sw ret_slot (d_ret ~rank);
        Tape.reverse sw ctx;
        grads.(rank) <- List.map (Tape.adjoint_of sw) bufs)
  in
  ( {
      GC.s_primals = primals;
      s_d_bufs = grads;
      s_d_scalars = Array.make nranks [||];
      s_makespan = makespan;
      s_stats = stats;
    },
    tapes )

(** Single-rank convenience wrapper. *)
let reverse ?cfg ?faults ?san ?call_slots ?seeds ?(d_ret = 1.0)
    prog fname args =
  let seeds_l =
    match seeds with Some s -> s | None -> GC.default_seeds args
  in
  let g, tapes =
    reverse_spmd ?cfg ?faults ?san ?call_slots ~nranks:1
      ~args:(fun ~rank:_ -> args)
      ~seeds:(fun ~rank:_ -> seeds_l)
      ~d_ret:(fun ~rank:_ -> d_ret)
      prog fname
  in
  ( {
      GC.primal = g.GC.s_primals.(0);
      d_bufs = g.GC.s_d_bufs.(0);
      d_scalars = [||];
      makespan = g.GC.s_makespan;
      stats = g.GC.s_stats;
    },
    tapes.(0) )
