(** Operator-overloading tape AD — the CoDiPack baseline of the paper's
    evaluation, with an adjoint-MPI extension (the AMPI-style libraries of
    §II).

    Instead of transforming code, the primal runs instrumented: the
    interpreter, or the engine compiled in taping mode, reports every
    executed active float statement through {!instrument}'s hooks. Memory
    cells carry slots in per-buffer side arrays, indexed by buffer id, and
    every such statement appends one row to a per-rank Jacobian tape. The
    tape is a structure of arrays: row [r] is [lhs.(r) = s1.(r) * p1.(r) +
    s2.(r) * p2.(r)] in slot/partial columns (every statement has at most
    two operands; slot 0 is passive, so one-operand rows carry [s2 = 0]).
    The record hook takes the two operand slots only; the partials arrive
    in the instrument's scratch cells ({!Interp.partials}). It only writes
    the row: its caller charges [tape_record] and counts the entry, so a
    taped statement on the engine makes no [Sim] call.

    The columns are stored in chunks of {!chunk_rows} rows, as in
    CoDiPack's chunked tape storage: when a chunk fills, the next row
    starts a new one, so no row is ever copied. MPI operations append
    communication entries to a short side list, each tagged with the row
    count at the moment it was recorded. The reverse sweep is one tight
    backward loop per chunk that stops at each communication entry's row
    position to exchange adjoints over the same (simulated) network in
    reversed order.

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

(* One chunk of the five columns: its row [j] is [lhs.(j) = s1.(j) *
   p1.(j) + s2.(j) * p2.(j)]. *)
type chunk = {
  lhs : int array;
  s1 : int array;
  p1 : float array;
  s2 : int array;
  p2 : float array;
}

(** Rows per chunk: row [r] is row [r mod chunk_rows] of chunk [r /
    chunk_rows]. *)
let chunk_rows = 4096

type t = {
  rank : int;
  mutable rows : int;
  mutable chunks : chunk list;
      (** newest first; the head holds row [rows - 1] *)
  mutable comms : (int * comm) list;
      (** newest first, each with the row count when it was recorded *)
  mutable next_slot : int;  (** slot 0 is the passive slot *)
  mutable slot_arrays : int array array;
      (** side slot arrays by buffer id (ids are dense per rank's
          [Memory]); [[||]] until the buffer is first touched *)
  mutable activated : (int * int array) list;
      (** activation-time slots of input buffers, by buffer id *)
  scratch : float array;  (** the instrument's record-protocol cells *)
}

let create ~rank =
  {
    rank;
    rows = 0;
    chunks = [];
    comms = [];
    next_slot = 1;
    slot_arrays = [||];
    activated = [];
    scratch = Array.make 5 0.0;
  }

(** Rows plus communication entries. *)
let length t = t.rows + List.length t.comms

(* Count a communication entry (rows are counted by the caller of
   {!record}). *)
let count_entry () =
  let st = Sim.stats () in
  st.Stats.tape_entries <- st.Stats.tape_entries + 1

let fresh t =
  let s = t.next_slot in
  t.next_slot <- s + 1;
  s

let new_chunk () =
  {
    lhs = Array.make chunk_rows 0;
    s1 = Array.make chunk_rows 0;
    p1 = Array.make chunk_rows 0.0;
    s2 = Array.make chunk_rows 0;
    p2 = Array.make chunk_rows 0.0;
  }

(* Record [lhs = s1 * p1 + s2 * p2] with the partials in scratch cells 0
   and 1, and return the fresh [lhs]. Only the row is written: the
   caller ({!Interp.tape_row} or the engine's taping mode) skips
   all-passive statements and charges and counts each row. *)
let record t s1 s2 =
  let lhs = fresh t in
  let r = t.rows in
  let j = r mod chunk_rows in
  (* a full chunk is never copied: the next row starts a new one *)
  if j = 0 then t.chunks <- new_chunk () :: t.chunks;
  let c = List.hd t.chunks in
  c.lhs.(j) <- lhs;
  c.s1.(j) <- s1;
  c.p1.(j) <- t.scratch.(0);
  c.s2.(j) <- s2;
  c.p2.(j) <- t.scratch.(1);
  t.rows <- r + 1;
  lhs

let push_comm t c =
  t.comms <- (t.rows, c) :: t.comms;
  count_entry ()

let buf_slots t (buf : buffer) =
  let id = buf.bid in
  if id >= Array.length t.slot_arrays then begin
    let a = Array.make (max 64 (2 * id + 1)) [||] in
    Array.blit t.slot_arrays 0 a 0 (Array.length t.slot_arrays);
    t.slot_arrays <- a
  end;
  match t.slot_arrays.(id) with
  | [||] ->
    let a = Array.make (cells_len buf.data) 0 in
    t.slot_arrays.(id) <- a;
    a
  | a -> a

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
    t.activated <- (buf.bid, Array.copy a) :: t.activated
  | _ -> error "Tape.activate: need a whole-buffer pointer"

(** The instrumentation hooks, for the interpreter and the engine's
    taping mode. *)
let instrument t : Interp.instrument =
  {
    Interp.scratch = t.scratch;
    record = record t;
    buf_slots = buf_slots t;
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
    match List.assoc_opt buf.bid sw.tape.activated with
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
  let chunks = Array.of_list (List.rev t.chunks) in
  (* rows [lo, hi), newest first, one chunk at a time *)
  let rows lo hi =
    let hi = ref hi in
    while !hi > lo do
      let k = (!hi - 1) / chunk_rows in
      let base = k * chunk_rows in
      let { lhs; s1; p1; s2; p2 } = chunks.(k) in
      let first = max lo base in
      for j = !hi - 1 - base downto first - base do
        Sim.charge c_rev;
        let d = adj.(lhs.(j)) in
        if d <> 0.0 then begin
          let s = s1.(j) in
          if s <> 0 then adj.(s) <- adj.(s) +. (d *. p1.(j));
          let s = s2.(j) in
          if s <> 0 then adj.(s) <- adj.(s) +. (d *. p2.(j))
        end
      done;
      hi := first
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
