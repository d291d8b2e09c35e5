(** Message-passing runtime: per-rank address spaces communicate through
    buffered point-to-point messages and tree-costed collectives, all in
    virtual time. Matching is FIFO per (src, dst, tag) channel, which —
    together with run-to-block scheduling — makes executions deterministic.

    Also hosts the adjoint-MPI bookkeeping the AD engine generates calls
    to: shadow requests record what a wait synchronized so its adjoint can
    spawn the dual operation (paper §IV-B, Fig 5). *)

open Value

type msg = {
  payload : Value.t array;
  avail : float;  (** virtual time at which the receiver can complete *)
  mcorrupt : (Value.t array * int * bool) option;
      (** set when fault injection damaged this delivery in flight:
          the sender's pristine staged copy (the retransmit source),
          the byte seed that picked the flipped bit, and whether the
          corruption is sticky (re-applied to every retransmit). *)
}

type pending_recv = {
  dst : ptr option;  (** [None] for packed adjoint messages: the payload
                         stays in [matched] for demand-driven unpacking *)
  count : int;
  psrc : int;
  ptag : int;
  ev : Sim.event;
  mutable matched : msg option;
  mutable pfailed : int option;
      (** the sender rank died before matching this receive *)
}

type channel = {
  msgs : msg Queue.t;  (** sent, not yet matched *)
  recvs : pending_recv Queue.t;  (** posted, not yet matched *)
}

type coll_kind = Csum | Cmin | Cmax | Cbarrier | Cbcast of int  (** root *)

let coll_kind_name = function
  | Csum -> "allreduce(sum)"
  | Cmin -> "allreduce(min)"
  | Cmax -> "allreduce(max)"
  | Cbarrier -> "barrier"
  | Cbcast r -> Printf.sprintf "bcast(root %d)" r

type coll_slot = {
  kind : coll_kind;
  count : int;
  mutable carrived : int;
  mutable cmax : float;
  mutable acc : float array;
  cev : Sim.event;
  cwho : bool array;  (** which ranks have joined (for diagnosis) *)
  mutable cfailed : int option;
      (** a rank died before joining; the collective can never complete *)
}

(* A nonblocking request as seen by one rank. *)
type req =
  | RSend
  | RRecv of pending_recv

type shadow_kind = SIsend | SIrecv

(* ---- adjoint-communication coalescing (paper §VI / ISSUE 5) ----

   With coalescing on, the reverse sweep's outgoing adjoint contributions
   are not sent one latency-charged message per forward exchange. Instead
   each is *staged* as a chunk (an eager snapshot of the shadow values,
   exactly like [isend]'s buffered copy-out) keyed by destination rank;
   all chunks for one destination are flushed as a single packed message
   the moment the rank is about to block (a wait, a collective, or the
   demand for an incoming adjoint). The receiving side registers an
   *expectation* per incoming adjoint — where to accumulate, under which
   original tag — and unpacks arriving packed messages against those
   expectations on demand. Matching is FIFO per (source, original tag),
   mirroring the channel semantics of the uncoalesced path, so gradients
   are bit-identical (see DESIGN.md). *)

(** Packed adjoint messages travel on this dedicated tag, above the
    adjoint-tag band ([forward tag + 1_000_000]) used by the uncoalesced
    path. *)
let packed_tag = 2_000_000

type adj_chunk = {
  ck_tag : int;  (** adjoint tag, i.e. originating forward tag + 1M *)
  ck_count : int;
  ck_data : float array;  (** snapshot taken when the chunk was staged *)
}

type adj_exp = {
  ex_src : int;
  ex_tag : int;  (** adjoint tag the chunk must carry *)
  ex_count : int;
  ex_dst : ptr;  (** shadow buffer the arriving adjoint accumulates into *)
  mutable ex_done : bool;
}

(* The dual of a forward exchange, from its posting to its finish. *)
type dual =
  | Expect of adj_exp  (** coalesced dual of a send: the expectation *)
  | Staged  (** coalesced dual of a receive: the chunk is staged *)
  | Recv of int * ptr
      (** dual of a send: the request receiving the adjoint into a temp
          buffer *)
  | Send of int  (** dual of a receive: the request sending the shadow *)

(* Shadow request: what the AD-generated forward pass records so that the
   reverse of the corresponding wait knows which dual operation to spawn. *)
type shadow_req = {
  skind : shadow_kind;
  sptr : ptr;  (** shadow (derivative) buffer of the communicated data *)
  scount : int;
  speer : int;
  stag : int;
  mutable dual : dual option;  (** the dual posted and not yet finished *)
}

type rank_state = {
  reqs : (int, req) Hashtbl.t;
  mutable next_req : int;
  shadows : (int, shadow_req) Hashtbl.t;
  mutable next_shadow : int;
  mutable coll_seq : int;
  mutable staged : (int * adj_chunk list ref) list;
      (** outgoing chunks per destination, in first-staged destination
          order; each chunk list is kept reversed (newest first) *)
  mutable exps : (int * adj_exp list ref) list;
      (** expectations per source, in registration order *)
  mutable orphans : (int * adj_chunk) list;
      (** (source, chunk) pairs that arrived in a packed message before
          their expectation was registered — a packet carries every chunk
          its sender staged, and the receiver may still be several
          reversal steps away from the matching exchange. Matched (FIFO,
          arrival order) when [adj_expect] registers the expectation. *)
}

type t = {
  nranks : int;
  coalesce : bool;  (** adjoint-communication coalescing enabled *)
  channels : (int * int * int, channel) Hashtbl.t;
  colls : (int, coll_slot) Hashtbl.t;  (** keyed by collective sequence no. *)
  ranks : rank_state array;
  sockets : int array;  (** socket of each rank *)
  faults : Faults.state option;
  dead : bool array;  (** ranks killed by fault injection *)
  mutable epoch : int;  (** failures observed so far (communicator epoch) *)
  mutable inflight : int;  (** packed adjoint messages sent, not consumed *)
}

(* ---- ULFM-style failure notification ----

   A kill no longer silently parks its peers: the communicator records
   the death, wakes every receive and collective that can never complete,
   and the first surviving rank to touch the dead rank raises a
   structured {!Rank_failed}. The notice carries the deterministic
   agreement outcome (survivor set, agreement completion time) so a
   supervisor can rebuild the communicator and charge recovery to the
   virtual clock. *)

type failure_notice = {
  fn_failed : int;  (** the rank that died *)
  fn_observed_by : int;  (** surviving rank that raised the notice *)
  fn_observed_at : float;  (** virtual time of observation *)
  fn_agreed_at : float;
      (** observation + deterministic agreement (a barrier-shaped vote
          over the survivors) *)
  fn_survivors : int list;
  fn_epoch : int;
}

exception Rank_failed of failure_notice

let pp_failure ppf n =
  Format.fprintf ppf
    "rank failure: rank %d killed; observed by rank %d at t=%.6g; %d \
     survivor(s) [%s]; agreement reached at t=%.6g (epoch %d)"
    n.fn_failed n.fn_observed_by n.fn_observed_at
    (List.length n.fn_survivors)
    (String.concat "; " (List.map string_of_int n.fn_survivors))
    n.fn_agreed_at n.fn_epoch

(* ---- silent-data-corruption detection on packed messages ----

   Every packed adjoint message carries an ABFT trailer: the FNV-1a
   digest of its cells, appended as one extra [VFloat] whose bits are
   the checksum. The receiver verifies the trailer before parsing the
   packet (a flipped header cell must never drive the unpacker), asks
   the sender's retained staging copy for a bounded number of
   retransmits on mismatch, and raises {!Corrupt_message} once the
   retry budget is spent — the same give-up ladder as dropped
   messages, but for corruption instead of loss. *)

type corruption_notice = {
  cm_src : int;  (** sender of the damaged packed message *)
  cm_dst : int;  (** receiver that detected the mismatch *)
  cm_at : float;  (** virtual time of detection *)
  cm_attempts : int;  (** retransmits tried before giving up *)
}

exception Corrupt_message of corruption_notice

let pp_corruption ppf c =
  Format.fprintf ppf
    "corrupt message: packed adjoint message %d->%d failed its checksum at \
     t=%.6g; %d retransmit(s) also corrupt — sender staging is poisoned"
    c.cm_src c.cm_dst c.cm_at c.cm_attempts

let () =
  Printexc.register_printer (function
    | Rank_failed n -> Some (Format.asprintf "%a" pp_failure n)
    | Corrupt_message c -> Some (Format.asprintf "%a" pp_corruption c)
    | _ -> None)

(* FNV-1a over the packet's cells in index order, each cell as a type
   byte plus its 64-bit pattern. *)
let packed_digest payload n =
  let h = ref Bitmix.fnv_init in
  for i = 0 to n - 1 do
    let tag, bits =
      match payload.(i) with
      | VInt k -> 0x69, Int64.of_int k
      | VFloat x -> 0x66, Int64.bits_of_float x
      | _ -> 0x75, 0L
    in
    h := Bitmix.fnv_int64 (Bitmix.fnv_byte !h tag) bits
  done;
  !h

(** True when the packet's trailer matches its contents. *)
let verify_packed (m : msg) =
  let n = Array.length m.payload in
  n >= 2
  &&
  match m.payload.(n - 1) with
  | VFloat x ->
    Int64.equal (Int64.bits_of_float x) (packed_digest m.payload (n - 1))
  | _ -> false

(* Flip one bit of one cell, the seed picking both. Structural cells
   (chunk headers) are fair targets: verification runs before parsing,
   so a damaged header is detected, never interpreted. *)
let damage payload byte =
  let n = Array.length payload in
  let i = byte mod n in
  (match payload.(i) with
  | VFloat x ->
    payload.(i) <-
      VFloat
        (Int64.float_of_bits
           (Int64.logxor (Int64.bits_of_float x)
              (Int64.shift_left 1L (byte mod 52))))
  | VInt k -> payload.(i) <- VInt (k lxor (1 lsl (byte mod 30)))
  | _ -> ());
  payload

let create ~cost ~nranks ?faults ?(coalesce = true) () =
  {
    nranks;
    coalesce;
    channels = Hashtbl.create 64;
    colls = Hashtbl.create 16;
    ranks =
      Array.init nranks (fun _ ->
          {
            reqs = Hashtbl.create 16;
            next_req = 0;
            shadows = Hashtbl.create 16;
            next_shadow = 0;
            coll_seq = 0;
            staged = [];
            exps = [];
            orphans = [];
          });
    sockets =
      Array.init nranks (fun r ->
          Cost_model.socket_of cost ~index:r ~width:nranks);
    faults = Option.map (Faults.make ~nranks) faults;
    dead = Array.make nranks false;
    epoch = 0;
    inflight = 0;
  }

let survivors t =
  List.filter (fun r -> not t.dead.(r)) (List.init t.nranks Fun.id)

(** Raise the structured failure notice for [failed] on behalf of
    surviving [rank]. The deterministic agreement is modelled as a
    barrier-shaped vote over the survivors, charged before the raise so
    [fn_agreed_at] is consistent with the observer's clock. *)
let raise_failure t ~rank ~failed =
  let now = Sim.now () in
  let survivors = survivors t in
  let agree =
    Cost_model.barrier_cost (Sim.cost ()) ~width:(List.length survivors)
  in
  Sim.charge agree;
  let stats = Sim.stats () in
  stats.ranks_failed <- stats.ranks_failed + 1;
  raise
    (Rank_failed
       {
         fn_failed = failed;
         fn_observed_by = rank;
         fn_observed_at = now;
         fn_agreed_at = now +. agree;
         fn_survivors = survivors;
         fn_epoch = t.epoch;
       })

(* The dead rank will never send or join again: wake every unmatched
   receive on a channel it feeds and every collective it has not joined,
   so blocked survivors observe the failure instead of deadlocking. *)
let mark_rank_dead t ~failed =
  let now = Sim.now () in
  Hashtbl.iter
    (fun (src, _, _) ch ->
      if src = failed then
        Queue.iter
          (fun pr ->
            if pr.matched = None && pr.pfailed = None then begin
              pr.pfailed <- Some failed;
              Sim.event_fill pr.ev ~time:now
            end)
          ch.recvs)
    t.channels;
  Hashtbl.iter
    (fun _ slot ->
      if
        slot.carrived < t.nranks
        && (not slot.cwho.(failed))
        && slot.cfailed = None
      then begin
        slot.cfailed <- Some failed;
        Sim.event_fill slot.cev ~time:now
      end)
    t.colls

(* A survivor touching a dead peer observes the failure immediately —
   including a receive posted against an already-dead rank (no waiting
   out the retry deadline). *)
let check_peer_alive t ~rank ~peer =
  if peer >= 0 && peer < t.nranks && t.dead.(peer) then
    raise_failure t ~rank ~failed:peer

let check_any_alive t ~rank =
  match List.find_opt (fun r -> t.dead.(r)) (List.init t.nranks Fun.id) with
  | Some failed -> raise_failure t ~rank ~failed
  | None -> ()

(* Gate every MPI entry point: a stalled rank is charged a one-time
   delay; a killed rank notifies the communicator (waking peers that can
   never be matched) and parks forever — survivors then raise the
   structured failure at their next MPI call or wakeup. *)
let fault_gate t ~rank =
  match t.faults with
  | None -> ()
  | Some fs -> (
    match Faults.rank_gate fs ~rank ~now:(Sim.now ()) with
    | `Ok -> ()
    | `Stall d ->
      (Sim.stats ()).stalls_injected <- (Sim.stats ()).stalls_injected + 1;
      Sim.charge d
    | `Kill at ->
      if not t.dead.(rank) then begin
        t.dead.(rank) <- true;
        t.epoch <- t.epoch + 1;
        mark_rank_dead t ~failed:rank
      end;
      let ev =
        Sim.event
          ~label:(fun () ->
            Printf.sprintf "rank %d killed at t>=%.6g by fault plan" rank at)
          ()
      in
      Sim.event_wait ev)

let channel t ~src ~dst ~tag =
  match Hashtbl.find_opt t.channels (src, dst, tag) with
  | Some c -> c
  | None ->
    let c = { msgs = Queue.create (); recvs = Queue.create () } in
    Hashtbl.add t.channels (src, dst, tag) c;
    c

let fresh_req rs r =
  let id = rs.next_req in
  rs.next_req <- id + 1;
  Hashtbl.add rs.reqs id r;
  id

let remote t ~src ~dst = t.sockets.(src) <> t.sockets.(dst)

let read_cells p count =
  Array.init count (fun i -> Memory.load p i)

let write_cells p (a : Value.t array) =
  Array.iteri (fun i v -> Memory.store p i v) a

let deliver (pr : pending_recv) (m : msg) =
  (match pr.dst with
  | Some dst ->
    if Array.length m.payload <> pr.count then
      error "mpi: message size %d does not match recv count %d"
        (Array.length m.payload) pr.count;
    write_cells dst m.payload
  | None -> (* packed adjoint: unpacked on demand by the receiver *) ());
  pr.matched <- Some m;
  Sim.event_fill pr.ev ~time:m.avail

let post_msg ch m =
  if Queue.is_empty ch.recvs then Queue.add m ch.msgs
  else deliver (Queue.pop ch.recvs) m

(** Nonblocking send: buffered semantics — the payload is copied out
    eagerly, so the request completes locally. Returns a request id.

    Under fault injection, dropped transmission attempts are recovered by
    retransmission with exponential backoff (added to the message's
    in-flight latency); a message past its retry/deadline budget is lost
    and never enqueued — the loss is recorded for wait-for diagnosis. *)
let isend t ~rank ~ptr ~count ~dst ~tag =
  if dst < 0 || dst >= t.nranks then error "mpi.isend: bad destination %d" dst;
  fault_gate t ~rank;
  check_peer_alive t ~rank ~peer:dst;
  let cost = Sim.cost () in
  let stats = Sim.stats () in
  stats.messages <- stats.messages + 1;
  stats.message_cells <- stats.message_cells + count;
  (* Sender-side overhead: copying the payload out. *)
  Sim.charge
    ((cost.mpi_per_cell *. float_of_int count) +. (0.1 *. cost.mpi_latency));
  let payload = read_cells ptr count in
  let avail =
    Sim.now ()
    +. Cost_model.message_cost cost ~cells:count
         ~remote:(remote t ~src:rank ~dst)
  in
  let fate =
    match t.faults with
    | None -> `Deliver Faults.{ extra = 0.0; copies = 0; retries = 0 }
    | Some fs -> Faults.on_send fs ~src:rank ~dst ~tag ~now:(Sim.now ())
  in
  (match fate with
  | `Lost _ -> stats.messages_lost <- stats.messages_lost + 1
  | `Deliver { Faults.extra; copies; retries } ->
    stats.send_retries <- stats.send_retries + retries;
    stats.messages_duplicated <- stats.messages_duplicated + copies;
    let ch = channel t ~src:rank ~dst ~tag in
    post_msg ch { payload; avail = avail +. extra; mcorrupt = None };
    for _ = 1 to copies do
      post_msg ch
        { payload = Array.copy payload; avail = avail +. extra;
          mcorrupt = None }
    done);
  fresh_req t.ranks.(rank) RSend

(** Nonblocking receive. Returns a request id; data is visible after the
    matching [wait]. *)
let irecv t ~rank ~ptr ~count ~src ~tag =
  if src < 0 || src >= t.nranks then error "mpi.irecv: bad source %d" src;
  fault_gate t ~rank;
  check_peer_alive t ~rank ~peer:src;
  let cost = Sim.cost () in
  Sim.charge (0.1 *. cost.mpi_latency);
  let label () =
    let lost =
      match t.faults with
      | Some fs -> Faults.lost_on fs ~src ~dst:rank ~tag
      | None -> 0
    in
    Printf.sprintf
      "rank %d: recv from rank %d tag %d (%d cells) has no matching send%s"
      rank src tag count
      (if lost > 0 then
         Printf.sprintf " — %d message(s) on this channel lost by fault \
                          injection"
           lost
       else "")
  in
  let pr =
    {
      dst = Some ptr;
      count;
      psrc = src;
      ptag = tag;
      ev = Sim.event ~label ();
      matched = None;
      pfailed = None;
    }
  in
  let ch = channel t ~src ~dst:rank ~tag in
  if Queue.is_empty ch.msgs then Queue.add pr ch.recvs
  else deliver pr (Queue.pop ch.msgs);
  fresh_req t.ranks.(rank) (RRecv pr)

(* ---- adjoint-communication coalescing ---- *)

(** Stage one outgoing adjoint contribution for [dst]: snapshot the shadow
    values now (the same eager copy-out [isend] performs, so later writes
    to [sptr] — e.g. the zeroing an [adj_irecv_finish] does — cannot change
    what is sent) and charge the copy; the latency is charged once per
    packed message at flush time. *)
let adj_stage t ~rank ~dst ~tag ~count ~sptr =
  if dst < 0 || dst >= t.nranks then error "mpi adjoint: bad destination %d" dst;
  check_peer_alive t ~rank ~peer:dst;
  let cost = Sim.cost () in
  Sim.charge (cost.mpi_per_cell *. float_of_int count);
  let data = Array.init count (fun i -> to_float (Memory.load sptr i)) in
  let rs = t.ranks.(rank) in
  let chunks =
    match List.assoc_opt dst rs.staged with
    | Some r -> r
    | None ->
      let r = ref [] in
      rs.staged <- rs.staged @ [ dst, r ];
      r
  in
  chunks := { ck_tag = tag; ck_count = count; ck_data = data } :: !chunks

(* Fulfill [ex] with [data]: the read-accumulate-write the uncoalesced
   path performs at its blocking receive, charged identically. *)
let adj_fulfill ex data =
  Sim.charge ((Sim.cost ()).mem *. float_of_int (2 * ex.ex_count));
  Array.iteri
    (fun i x ->
      let cur = to_float (Memory.load ex.ex_dst i) in
      Memory.store ex.ex_dst i (VFloat (cur +. x)))
    data;
  ex.ex_done <- true

(** Register the expectation of one incoming adjoint contribution:
    [count] cells under adjoint tag [tag] from [src], to be accumulated
    into [dst] when a packed message carrying the matching chunk is
    unpacked. Nonblocking; completion is [adj_complete]. If the chunk
    already arrived — packets carry whole staging epochs, so chunks can
    outrun their expectations — it was parked as an orphan and is claimed
    (and accumulated) here, at exactly the program point the uncoalesced
    blocking path would have accumulated it. *)
let adj_expect t ~rank ~src ~tag ~count ~dst =
  if src < 0 || src >= t.nranks then error "mpi adjoint: bad source %d" src;
  check_peer_alive t ~rank ~peer:src;
  let rs = t.ranks.(rank) in
  let q =
    match List.assoc_opt src rs.exps with
    | Some r -> r
    | None ->
      let r = ref [] in
      rs.exps <- rs.exps @ [ src, r ];
      r
  in
  let ex = { ex_src = src; ex_tag = tag; ex_count = count; ex_dst = dst; ex_done = false } in
  q := !q @ [ ex ];
  (let rec claim acc = function
     | [] -> ()
     | (s, c) :: rest
       when s = src && c.ck_tag = tag && c.ck_count = count ->
       rs.orphans <- List.rev_append acc rest;
       adj_fulfill ex c.ck_data
     | o :: rest -> claim (o :: acc) rest
   in
   claim [] rs.orphans);
  ex

(** Flush every staged chunk of [rank] as one packed message per
    destination: a header cell with the chunk count, then per chunk its
    adjoint tag, cell count, and data. One message — one latency charge —
    regardless of how many forward exchanges contributed. Runs the same
    fault gate as [isend], so drop/delay/duplicate plans apply to packed
    adjoint traffic too. *)
let adj_flush_all t ~rank =
  let rs = t.ranks.(rank) in
  if rs.staged <> [] then begin
    let staged = rs.staged in
    rs.staged <- [];
    let cost = Sim.cost () in
    let stats = Sim.stats () in
    List.iter
      (fun (dst, chunks) ->
        let chunks = List.rev !chunks in
        (* one header cell, the chunks, one checksum trailer cell *)
        let cells =
          List.fold_left (fun acc c -> acc + c.ck_count + 2) 2 chunks
        in
        let payload = Array.make cells VUnit in
        payload.(0) <- VInt (List.length chunks);
        let pos = ref 1 in
        List.iter
          (fun c ->
            payload.(!pos) <- VInt c.ck_tag;
            payload.(!pos + 1) <- VInt c.ck_count;
            pos := !pos + 2;
            Array.iter
              (fun x ->
                payload.(!pos) <- VFloat x;
                incr pos)
              c.ck_data)
          chunks;
        payload.(cells - 1) <-
          VFloat (Int64.float_of_bits (packed_digest payload (cells - 1)));
        stats.messages <- stats.messages + 1;
        stats.message_cells <- stats.message_cells + cells;
        stats.msgs_sent <- stats.msgs_sent + 1;
        stats.cells_sent <- stats.cells_sent + cells;
        Sim.charge (0.1 *. cost.mpi_latency);
        let avail =
          Sim.now ()
          +. Cost_model.message_cost cost ~cells
               ~remote:(remote t ~src:rank ~dst)
        in
        (* the global packed ordinal advances whatever this message's
           fate, so a plan's corrupt-msg targets are stable under other
           injected faults *)
        let corrupted =
          match t.faults with
          | None -> None
          | Some fs -> Faults.corrupt_gate fs
        in
        let fate =
          match t.faults with
          | None -> `Deliver Faults.{ extra = 0.0; copies = 0; retries = 0 }
          | Some fs ->
            Faults.on_send fs ~src:rank ~dst ~tag:packed_tag ~now:(Sim.now ())
        in
        match fate with
        | `Lost _ -> stats.messages_lost <- stats.messages_lost + 1
        | `Deliver { Faults.extra; copies; retries } ->
          stats.send_retries <- stats.send_retries + retries;
          stats.messages_duplicated <- stats.messages_duplicated + copies;
          (match corrupted with
          | Some _ -> stats.sdc_injected <- stats.sdc_injected + 1
          | None -> ());
          let ch = channel t ~src:rank ~dst ~tag:packed_tag in
          let post () =
            t.inflight <- t.inflight + 1;
            if t.inflight > stats.max_inflight then
              stats.max_inflight <- t.inflight;
            let m =
              match corrupted with
              | None ->
                { payload = Array.copy payload; avail = avail +. extra;
                  mcorrupt = None }
              | Some (byte, sticky) ->
                { payload = damage (Array.copy payload) byte;
                  avail = avail +. extra;
                  mcorrupt = Some (payload, byte, sticky) }
            in
            post_msg ch m
          in
          post ();
          for _ = 1 to copies do post () done)
      staged
  end

(* Accumulate an arriving chunk into the first pending expectation from
   [src] with the same adjoint tag and count — FIFO per (source, tag),
   exactly the order the uncoalesced per-channel matching imposes. A
   packet carries every chunk its sender staged, so some chunks can
   outrun their expectation (the receiver has not reversed that exchange
   yet); those park as orphans until [adj_expect] claims them. *)
let adj_apply_chunk t ~rank ~src ~tag ~count data =
  let rs = t.ranks.(rank) in
  let ex =
    match List.assoc_opt src rs.exps with
    | None -> None
    | Some q ->
      List.find_opt
        (fun e -> (not e.ex_done) && e.ex_tag = tag && e.ex_count = count)
        !q
  in
  match ex with
  | None ->
    rs.orphans <-
      rs.orphans @ [ src, { ck_tag = tag; ck_count = count; ck_data = data } ]
  | Some ex -> adj_fulfill ex data

let adj_unpack t ~rank ~src (m : msg) =
  t.inflight <- t.inflight - 1;
  let pos = ref 0 in
  let geti () =
    let v = to_int m.payload.(!pos) in
    incr pos;
    v
  in
  let nchunks = geti () in
  for _ = 1 to nchunks do
    let tag = geti () in
    let count = geti () in
    let data =
      Array.init count (fun i -> to_float m.payload.(!pos + i))
    in
    pos := !pos + count;
    adj_apply_chunk t ~rank ~src ~tag ~count data
  done

(* Verify a packed message's checksum trailer; on mismatch, run the
   bounded retransmit ladder against the sender's retained staging copy
   (each round charged as backoff plus a fresh wire transfer), raising
   {!Corrupt_message} once the budget is spent. Returns the message to
   unpack — the original when intact, the recovered retransmit
   otherwise. *)
let check_packed t ~rank ~src (m : msg) =
  if verify_packed m then m
  else begin
    let stats = Sim.stats () in
    stats.sdc_detected <- stats.sdc_detected + 1;
    let p =
      match t.faults with Some fs -> fs.Faults.plan | None -> Faults.none
    in
    let cost = Sim.cost () in
    let cells = Array.length m.payload in
    let wire =
      Cost_model.message_cost cost ~cells ~remote:(remote t ~src ~dst:rank)
    in
    let backoff = ref p.Faults.backoff in
    let attempt = ref 0 in
    let fixed = ref None in
    while !fixed = None do
      if !attempt >= p.Faults.max_retries then
        raise
          (Corrupt_message
             { cm_src = src; cm_dst = rank; cm_at = Sim.now ();
               cm_attempts = !attempt });
      incr attempt;
      stats.msgs_retransmitted <- stats.msgs_retransmitted + 1;
      Sim.charge (!backoff +. wire);
      backoff := !backoff *. 2.0;
      let payload =
        match m.mcorrupt with
        | Some (clean, byte, true) ->
          (* sticky: the fault re-strikes every retransmit *)
          damage (Array.copy clean) byte
        | Some (clean, _, false) -> clean
        | None ->
          (* no pristine copy retained — corruption did not come from
             the injection gate, so retransmits cannot help *)
          raise
            (Corrupt_message
               { cm_src = src; cm_dst = rank; cm_at = Sim.now ();
                 cm_attempts = !attempt })
      in
      let m' = { m with payload; mcorrupt = None } in
      if verify_packed m' then fixed := Some m'
    done;
    stats.sdc_recovered <- stats.sdc_recovered + 1;
    Option.get !fixed
  end

(* Blocking receive of the next packed adjoint message from [src]. *)
let adj_recv_packed t ~rank ~src =
  fault_gate t ~rank;
  check_peer_alive t ~rank ~peer:src;
  let ch = channel t ~src ~dst:rank ~tag:packed_tag in
  let m =
    if not (Queue.is_empty ch.msgs) then begin
      let m = Queue.pop ch.msgs in
      (* the message is in flight until [avail]; jumping the clock there is
         what lets earlier accumulation compute overlap the transfer *)
      let now = Sim.now () in
      if m.avail > now then Sim.charge (m.avail -. now);
      m
    end
    else begin
      let label () =
        let lost =
          match t.faults with
          | Some fs -> Faults.lost_on fs ~src ~dst:rank ~tag:packed_tag
          | None -> 0
        in
        Printf.sprintf
          "rank %d: packed adjoint message from rank %d has not been sent%s"
          rank src
          (if lost > 0 then
             Printf.sprintf
               " — %d packed message(s) on this channel lost by fault \
                injection"
               lost
           else "")
      in
      let pr =
        {
          dst = None;
          count = 0;
          psrc = src;
          ptag = packed_tag;
          ev = Sim.event ~label ();
          matched = None;
          pfailed = None;
        }
      in
      Queue.add pr ch.recvs;
      Sim.event_wait pr.ev;
      (match pr.pfailed with
      | Some failed -> raise_failure t ~rank ~failed
      | None -> ());
      match pr.matched with
      | Some m -> m
      | None -> error "mpi adjoint: packed receive woke without a message"
    end
  in
  Sim.charge (0.1 *. (Sim.cost ()).mpi_latency);
  (* integrity check before any structural parse of the packet *)
  let m = check_packed t ~rank ~src m in
  adj_unpack t ~rank ~src m

(** Complete one expectation: flush our own staged chunks first (they may
    be exactly what the peer is blocked on), then drain packed messages
    from the expectation's source until it is fulfilled. *)
let adj_complete t ~rank ex =
  adj_flush_all t ~rank;
  while not ex.ex_done do
    adj_recv_packed t ~rank ~src:ex.ex_src
  done

(** Waitall-style completion of every registered expectation. *)
let adj_complete_all t ~rank =
  adj_flush_all t ~rank;
  let rs = t.ranks.(rank) in
  List.iter
    (fun (src, q) ->
      List.iter
        (fun ex ->
          while not ex.ex_done do
            adj_recv_packed t ~rank ~src
          done)
        !q)
    rs.exps;
  rs.exps <- []

(** True when [rank] has no staged chunks and no unfulfilled expectation —
    required of a valid checkpoint, like an empty request table. *)
let adj_idle t ~rank =
  let rs = t.ranks.(rank) in
  rs.staged = []
  && rs.orphans = []
  && List.for_all (fun (_, q) -> List.for_all (fun e -> e.ex_done) !q) rs.exps

(* deterministic exports for the communication audit *)
let export_staged t ~rank =
  List.map (fun (dst, chunks) -> dst, List.rev !chunks) t.ranks.(rank).staged

let export_unfulfilled t ~rank =
  List.concat_map
    (fun (_, q) -> List.filter (fun e -> not e.ex_done) !q)
    t.ranks.(rank).exps

let export_orphans t ~rank = t.ranks.(rank).orphans

(** Decode a packed payload back to its originating exchanges:
    (adjoint tag, cell count) per chunk, in staging order. *)
let decode_packed (m : msg) =
  let pos = ref 0 in
  let geti () =
    let v = to_int m.payload.(!pos) in
    incr pos;
    v
  in
  let nchunks = geti () in
  List.init nchunks (fun _ ->
      let tag = geti () in
      let count = geti () in
      pos := !pos + count;
      tag, count)

(** Wait for a request. For receives this blocks (in virtual time) until
    the message is available, then charges receiver-side overhead and
    returns the completed receive (so callers can instrument it). *)
let wait t ~rank ~req =
  fault_gate t ~rank;
  (* flush-before-block: staged adjoint chunks may be what the peer we
     are about to wait on is itself blocked on *)
  adj_flush_all t ~rank;
  let rs = t.ranks.(rank) in
  match Hashtbl.find_opt rs.reqs req with
  | None -> error "mpi.wait: unknown request %d on rank %d" req rank
  | Some RSend ->
    Hashtbl.remove rs.reqs req;
    None
  | Some (RRecv pr) ->
    Hashtbl.remove rs.reqs req;
    Sim.event_wait pr.ev;
    (match pr.pfailed with
    | Some failed -> raise_failure t ~rank ~failed
    | None -> ());
    Sim.charge (0.1 *. (Sim.cost ()).mpi_latency);
    Some pr

(* ---- collectives ----

   Ranks join collectives in global call order (the [coll_seq] counter);
   mismatched kinds or counts across ranks are detected. The last arrival
   combines contributions and releases everyone at
   [max(arrival) + tree cost]. *)

let coll_cost t ~count =
  fst (Cost_model.collective_cost (Sim.cost ()) ~nranks:t.nranks ~count)

let coll_kind_eq a b =
  match a, b with
  | Csum, Csum | Cmin, Cmin | Cmax, Cmax | Cbarrier, Cbarrier -> true
  | Cbcast r, Cbcast r' -> r = r'
  | (Csum | Cmin | Cmax | Cbarrier | Cbcast _), _ -> false

(* Join the current collective slot; returns it. *)
let coll_join t ~rank ~kind ~count ~contrib =
  fault_gate t ~rank;
  adj_flush_all t ~rank;
  check_any_alive t ~rank;
  let rs = t.ranks.(rank) in
  let seq = rs.coll_seq in
  rs.coll_seq <- seq + 1;
  let slot =
    match Hashtbl.find_opt t.colls seq with
    | Some s ->
      if not (coll_kind_eq s.kind kind) || s.count <> count then
        error
          "mpi: mismatched collective at sequence %d: rank %d called %s \
           (count %d) but the slot holds %s (count %d)"
          seq rank (coll_kind_name kind) count (coll_kind_name s.kind)
          s.count;
      s
    | None ->
      let init =
        match kind with
        | Csum | Cbarrier | Cbcast _ -> Array.make count 0.0
        | Cmin -> Array.make count infinity
        | Cmax -> Array.make count neg_infinity
      in
      let cwho = Array.make t.nranks false in
      let label () =
        let missing = ref [] in
        for r = t.nranks - 1 downto 0 do
          if not cwho.(r) then missing := r :: !missing
        done;
        Printf.sprintf "collective #%d %s (count %d): %d/%d ranks arrived, \
                        waiting for rank(s) [%s]"
          seq (coll_kind_name kind) count
          (t.nranks - List.length !missing)
          t.nranks
          (String.concat "; " (List.map string_of_int !missing))
      in
      let s =
        {
          kind;
          count;
          carrived = 0;
          cmax = 0.0;
          acc = init;
          cev = Sim.event ~label ();
          cwho;
          cfailed = None;
        }
      in
      Hashtbl.add t.colls seq s;
      s
  in
  slot.cwho.(rank) <- true;
  (match slot.kind, contrib with
  | Csum, Some c -> Array.iteri (fun i x -> slot.acc.(i) <- slot.acc.(i) +. x) c
  | Cmin, Some c ->
    Array.iteri (fun i x -> if x < slot.acc.(i) then slot.acc.(i) <- x) c
  | Cmax, Some c ->
    Array.iteri (fun i x -> if x > slot.acc.(i) then slot.acc.(i) <- x) c
  | Cbcast root, Some c -> if rank = root then Array.blit c 0 slot.acc 0 count
  | Cbarrier, None -> ()
  | _, None -> ()
  | Cbarrier, Some _ -> error "mpi: barrier with data");
  slot.carrived <- slot.carrived + 1;
  if Sim.now () > slot.cmax then slot.cmax <- Sim.now ();
  if slot.carrived = t.nranks then
    Sim.event_fill slot.cev ~time:(slot.cmax +. coll_cost t ~count);
  slot

let read_floats p count = Array.init count (fun i -> to_float (Memory.load p i))

let write_floats p (a : float array) =
  Array.iteri (fun i x -> Memory.store p i (VFloat x)) a

(** allreduce / reduce-to-all of [count] floats with operator [kind]. *)
let allreduce t ~rank ~kind ~send ~recv ~count =
  let stats = Sim.stats () in
  let _, stages = Cost_model.collective_cost (Sim.cost ()) ~nranks:t.nranks ~count in
  stats.messages <- stats.messages + stages;
  let contrib = read_floats send count in
  let slot = coll_join t ~rank ~kind ~count ~contrib:(Some contrib) in
  Sim.event_wait slot.cev;
  (match slot.cfailed with
  | Some failed -> raise_failure t ~rank ~failed
  | None -> ());
  write_floats recv slot.acc

let barrier t ~rank =
  let slot = coll_join t ~rank ~kind:Cbarrier ~count:0 ~contrib:None in
  Sim.event_wait slot.cev;
  match slot.cfailed with
  | Some failed -> raise_failure t ~rank ~failed
  | None -> ()

let bcast t ~rank ~root ~ptr ~count =
  let contrib = if rank = root then Some (read_floats ptr count) else None in
  let slot = coll_join t ~rank ~kind:(Cbcast root) ~count ~contrib in
  Sim.event_wait slot.cev;
  (match slot.cfailed with
  | Some failed -> raise_failure t ~rank ~failed
  | None -> ());
  if rank <> root then write_floats ptr slot.acc

(* ---- shadow requests (AD bookkeeping) ---- *)

let shadow_note t ~rank ~skind ~sptr ~scount ~speer ~stag =
  let rs = t.ranks.(rank) in
  let id = rs.next_shadow in
  rs.next_shadow <- id + 1;
  Hashtbl.add rs.shadows id
    {
      skind;
      sptr;
      scount;
      speer;
      stag;
      dual = None;
    };
  id

let shadow_find t ~rank ~id =
  match Hashtbl.find_opt t.ranks.(rank).shadows id with
  | Some s -> s
  | None -> error "mpi: unknown shadow request %d on rank %d" id rank

(* ---- checkpoint support ----

   A checkpoint is only valid between MPI operations: no unwaited
   request, no collective the rank has joined but not completed. The
   counters and the shadow-request table are part of a rank's snapshot so
   a restored run hands out the same request/collective sequence numbers
   and can still run the reverse sweep over pre-checkpoint
   communication. *)

let unwaited_requests t ~rank = Hashtbl.length t.ranks.(rank).reqs

let open_collective t ~rank =
  Hashtbl.fold
    (fun seq slot acc ->
      if slot.cwho.(rank) && slot.carrived < t.nranks then Some seq else acc)
    t.colls None

let rank_counters t ~rank =
  let rs = t.ranks.(rank) in
  (rs.next_req, rs.next_shadow, rs.coll_seq)

(** Shadow requests of [rank], sorted by id (deterministic order for
    byte-stable snapshots). *)
let export_shadows t ~rank =
  Hashtbl.fold (fun id s acc -> (id, s) :: acc) t.ranks.(rank).shadows []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let restore_rank t ~rank ~next_req ~next_shadow ~coll_seq ~shadows =
  let rs = t.ranks.(rank) in
  Hashtbl.reset rs.reqs;
  rs.next_req <- next_req;
  rs.next_shadow <- next_shadow;
  rs.coll_seq <- coll_seq;
  Hashtbl.reset rs.shadows;
  List.iter (fun (id, s) -> Hashtbl.replace rs.shadows id s) shadows;
  (* a restored rank replays from a point with no adjoint staging in
     progress (checkpoints require [adj_idle]) *)
  rs.staged <- [];
  rs.exps <- [];
  rs.orphans <- []
