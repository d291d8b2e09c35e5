(** Operator-overloading tape AD — the CoDiPack baseline of the paper's
    evaluation, with an adjoint-MPI extension (the AMPI-style libraries of
    §II).

    Instead of transforming code, the interpreter is instrumented: memory
    cells carry slots in side arrays, and every executed active float
    statement appends one row to a per-rank Jacobian tape. The tape is a
    structure of arrays: row [r] is [lhs.(r) = s1.(r) * p1.(r) +
    s2.(r) * p2.(r)] in slot/partial columns (every statement has at most
    two operands; slot 0 is passive, so one-operand rows carry [s2 = 0]).
    MPI operations append communication entries to a short side list, each
    tagged with the row count at the moment it was recorded. The reverse
    sweep is one tight backward loop over the columns that stops at each
    communication entry's row position to exchange adjoints over the same
    (simulated) network in reversed order.

    Like CoDiPack, the baseline cannot differentiate fork/join or task
    parallelism (the interpreter rejects [Fork]/[Spawn] under
    instrumentation) — only serial and MPI codes, which is exactly the
    paper's comparison setup (CoDiPack cannot differentiate OpenMP
    LULESH).

    Costs: each recorded row charges [tape_record]; each reversed row and
    communication entry charges [tape_reverse] — the "high serial gradient
    overhead" whose interaction with MPI scaling Fig 8 dissects. *)

open Parad_runtime
open Value

type kind = KSum | KMin | KMax

type comm =
  | Send of { peer : int; tag : int; slots : int array }
  | Recv of { peer : int; tag : int; slots : int array }
  | Allreduce of {
      kind : kind;
      in_slots : int array;
      in_vals : float array;
      out_slots : int array;
      out_vals : float array;
    }
  | Bcast of { root : int; in_slots : int array; out_slots : int array }

type t = {
  rank : int;
  mutable rows : int;
  mutable lhs : int array;
  mutable s1 : int array;
  mutable p1 : float array;
  mutable s2 : int array;
  mutable p2 : float array;
  mutable comms : (int * comm) list;
      (** newest first, each with the row count when it was recorded *)
  mutable next_slot : int;  (** slot 0 is the passive slot *)
  buf_slots : (int, int array) Hashtbl.t;
  activated : (int, int array) Hashtbl.t;
      (** activation-time slots of input buffers, by buffer id *)
}

let create ~rank =
  let cap = 1024 in
  {
    rank;
    rows = 0;
    lhs = Array.make cap 0;
    s1 = Array.make cap 0;
    p1 = Array.make cap 0.0;
    s2 = Array.make cap 0;
    p2 = Array.make cap 0.0;
    comms = [];
    next_slot = 1;
    buf_slots = Hashtbl.create 64;
    activated = Hashtbl.create 8;
  }

(** Rows plus communication entries. *)
let length t = t.rows + List.length t.comms

let count_entry () =
  let st = Sim.stats () in
  st.Stats.tape_entries <- st.Stats.tape_entries + 1

let fresh t =
  let s = t.next_slot in
  t.next_slot <- s + 1;
  s

let grow t =
  let n = t.rows in
  let widen a zero =
    let b = Array.make (2 * n) zero in
    Array.blit a 0 b 0 n;
    b
  in
  t.lhs <- widen t.lhs 0;
  t.s1 <- widen t.s1 0;
  t.p1 <- widen t.p1 0.0;
  t.s2 <- widen t.s2 0;
  t.p2 <- widen t.p2 0.0

(* Record [lhs = s1 * p1 + s2 * p2]; an all-passive statement is not
   taped and yields the passive slot. *)
let record t s1 p1 s2 p2 =
  if s1 = 0 && s2 = 0 then 0
  else begin
    Sim.charge (Sim.cost ()).Cost_model.tape_record;
    let lhs = fresh t in
    let r = t.rows in
    if r = Array.length t.lhs then grow t;
    t.lhs.(r) <- lhs;
    t.s1.(r) <- s1;
    t.p1.(r) <- p1;
    t.s2.(r) <- s2;
    t.p2.(r) <- p2;
    t.rows <- r + 1;
    count_entry ();
    lhs
  end

let push_comm t c =
  t.comms <- (t.rows, c) :: t.comms;
  count_entry ()

let buf_slots t (buf : buffer) =
  match Hashtbl.find_opt t.buf_slots buf.bid with
  | Some a -> a
  | None ->
    let a = Array.make (cells_len buf.data) 0 in
    Hashtbl.replace t.buf_slots buf.bid a;
    a

(** Mark a buffer's cells as active inputs: each gets a fresh slot, and
    the activation snapshot is kept so input adjoints can be read back
    after the reverse sweep. *)
let activate t (v : Value.t) =
  match v with
  | VPtr { buf; off = 0 } ->
    let a = buf_slots t buf in
    for i = 0 to Array.length a - 1 do
      a.(i) <- fresh t
    done;
    Hashtbl.replace t.activated buf.bid (Array.copy a)
  | _ -> error "Tape.activate: need a whole-buffer pointer"

(** The interpreter instrumentation hooks. *)
let instrument t : Interp.instrument =
  {
    Interp.record = record t;
    buf_slots = (fun buf -> buf_slots t buf);
    send_hook =
      (fun ~peer ~tag ~slots -> push_comm t (Send { peer; tag; slots }));
    recv_hook =
      (fun ~peer ~tag ~count ->
        let slots = Array.init count (fun _ -> fresh t) in
        push_comm t (Recv { peer; tag; slots });
        slots);
    allreduce_hook =
      (fun ~kind ~ins:(in_vals, in_slots) ~outs ->
        let kind =
          match kind with `Sum -> KSum | `Min -> KMin | `Max -> KMax
        in
        let out_slots = Array.map (fun _ -> fresh t) outs in
        push_comm t
          (Allreduce
             { kind; in_slots; in_vals; out_slots; out_vals = Array.copy outs });
        out_slots);
    bcast_hook =
      (fun ~root ~count ~slots ->
        ignore count;
        if t.rank = root then begin
          push_comm t (Bcast { root; in_slots = slots; out_slots = slots });
          slots
        end
        else begin
          let out = Array.map (fun _ -> fresh t) slots in
          push_comm t (Bcast { root; in_slots = [||]; out_slots = out });
          out
        end);
  }

(* ---- reverse sweep ---- *)

type sweep = { tape : t; adj : float array }

let sweep t = { tape = t; adj = Array.make t.next_slot 0.0 }

(** Seed d(loss)/d(current cell values) of a buffer. *)
let seed sw (v : Value.t) (s : float array) =
  match v with
  | VPtr { buf; off = 0 } ->
    let a = buf_slots sw.tape buf in
    Array.iteri
      (fun i x -> if a.(i) <> 0 then sw.adj.(a.(i)) <- sw.adj.(a.(i)) +. x)
      s
  | _ -> error "Tape.seed: need a whole-buffer pointer"

let seed_slot sw slot x = if slot <> 0 then sw.adj.(slot) <- sw.adj.(slot) +. x

(** Adjoints of an activated input buffer (activation-time slots). *)
let adjoint_of sw (v : Value.t) =
  match v with
  | VPtr { buf; off = 0 } -> (
    match Hashtbl.find_opt sw.tape.activated buf.bid with
    | Some slots -> Array.map (fun s -> sw.adj.(s)) slots
    | None -> error "Tape.adjoint_of: buffer was not activated")
  | _ -> error "Tape.adjoint_of: need a whole-buffer pointer"

let adj_tag_base = 2_000_000

(* temp buffer helpers for reverse communication *)
let with_temp (ctx : Interp.ctx) n f =
  let buf =
    Memory.alloc ctx.mem ~elem:Parad_ir.Ty.Float ~size:n ~kind:Parad_ir.Instr.Heap
      ~socket:(Sim.socket ())
  in
  let p = { buf; off = 0 } in
  let r = f p in
  Memory.free ctx.mem buf;
  r

let mpi_of (ctx : Interp.ctx) =
  match ctx.Interp.mpi with
  | Some m -> m
  | None -> error "tape reverse: MPI entry outside an SPMD run"

(* Reverse one communication entry: the network part of the sweep. *)
let reverse_comm adj (ctx : Interp.ctx) entry =
  let mpi () = mpi_of ctx in
  match entry with
  | Send { peer; tag; slots } ->
      (* reverse of a send: receive the adjoint contribution *)
      let n = Array.length slots in
      with_temp ctx n (fun p ->
          let req =
            Mpi_state.irecv (mpi ()) ~rank:ctx.Interp.rank ~ptr:p ~count:n
              ~src:peer ~tag:(tag + adj_tag_base)
          in
          ignore (Mpi_state.wait (mpi ()) ~rank:ctx.Interp.rank ~req);
          Array.iteri
            (fun i s ->
              if s <> 0 then
                adj.(s) <- adj.(s) +. to_float (Memory.load p i))
            slots)
  | Recv { peer; tag; slots } ->
      (* reverse of a receive: send the accumulated adjoints back *)
      let n = Array.length slots in
      with_temp ctx n (fun p ->
          Array.iteri (fun i s -> Memory.store p i (VFloat adj.(s))) slots;
          let req =
            Mpi_state.isend (mpi ()) ~rank:ctx.Interp.rank ~ptr:p ~count:n
              ~dst:peer ~tag:(tag + adj_tag_base)
          in
          ignore (Mpi_state.wait (mpi ()) ~rank:ctx.Interp.rank ~req))
  | Allreduce { kind; in_slots; in_vals; out_slots; out_vals } ->
      let n = Array.length out_slots in
      with_temp ctx n (fun send_p ->
          with_temp ctx n (fun recv_p ->
              Array.iteri
                (fun i s -> Memory.store send_p i (VFloat adj.(s)))
                out_slots;
              Mpi_state.allreduce (mpi ()) ~rank:ctx.Interp.rank
                ~kind:Mpi_state.Csum ~send:send_p ~recv:recv_p ~count:n;
              for i = 0 to n - 1 do
                let w = to_float (Memory.load recv_p i) in
                match kind with
                | KSum ->
                  if in_slots.(i) <> 0 then
                    adj.(in_slots.(i)) <- adj.(in_slots.(i)) +. w
                | KMin | KMax ->
                  if in_slots.(i) <> 0 && in_vals.(i) = out_vals.(i) then
                    adj.(in_slots.(i)) <- adj.(in_slots.(i)) +. w
              done))
  | Bcast { root; in_slots; out_slots } ->
      let n = Array.length out_slots in
      with_temp ctx n (fun send_p ->
          with_temp ctx n (fun recv_p ->
              Array.iteri
                (fun i s ->
                  (* the root's own out adjoints stay local (same slots);
                     non-roots contribute theirs *)
                  Memory.store send_p i
                    (VFloat (if ctx.Interp.rank = root then 0.0 else adj.(s))))
                out_slots;
              Mpi_state.allreduce (mpi ()) ~rank:ctx.Interp.rank
                ~kind:Mpi_state.Csum ~send:send_p ~recv:recv_p ~count:n;
              if ctx.Interp.rank = root then
                for i = 0 to n - 1 do
                  if in_slots.(i) <> 0 then
                    adj.(in_slots.(i)) <-
                      adj.(in_slots.(i)) +. to_float (Memory.load recv_p i)
                done))

(** Sweep the tape backwards, exchanging adjoints over the network in
    reversed order. Must run inside the same SPMD simulation as the
    forward sweep (each rank calls this on its own tape). *)
let reverse sw (ctx : Interp.ctx) =
  let t = sw.tape
  and adj = sw.adj in
  let c_rev = (Sim.cost ()).Cost_model.tape_reverse in
  let lhs = t.lhs
  and s1 = t.s1
  and p1 = t.p1
  and s2 = t.s2
  and p2 = t.p2 in
  (* rows [lo, hi), newest first *)
  let rows lo hi =
    for r = hi - 1 downto lo do
      Sim.charge c_rev;
      let d = adj.(lhs.(r)) in
      if d <> 0.0 then begin
        let s = s1.(r) in
        if s <> 0 then adj.(s) <- adj.(s) +. (d *. p1.(r));
        let s = s2.(r) in
        if s <> 0 then adj.(s) <- adj.(s) +. (d *. p2.(r))
      end
    done
  in
  let hi =
    List.fold_left
      (fun hi (at, c) ->
        rows at hi;
        Sim.charge c_rev;
        reverse_comm adj ctx c;
        at)
      t.rows t.comms
  in
  rows 0 hi
