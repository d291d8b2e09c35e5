(** Checkpoint/restart of a rank's live state.

    A snapshot captures everything a replayed rank needs to resume at a
    program-designated point (the [parad.checkpoint] intrinsic, placed by
    the builder in an application's outer iteration loop): every memory
    buffer reachable from the program arguments (plus explicit extras
    named at the checkpoint site), the AD value caches, the MPI sequence
    counters and shadow-request table, and the rank's virtual clock.

    Snapshots are deterministic and byte-stable: buffers are serialized
    in buffer-id order, floats as their IEEE-754 bit patterns, and the
    scheduler itself is virtual-time deterministic — so two identical
    runs produce byte-identical snapshots (tested), and a snapshot plus a
    deterministic replay reproduces the original run bit-for-bit.

    Restore works by {e structural correspondence}: a replayed rank
    re-executes its preamble deterministically, so the n-th buffer it
    allocates is the same program object as the n-th buffer of the
    snapshotted run. Saved buffers whose id has a live counterpart are
    restored in place; saved buffers allocated during the skipped
    iterations (no counterpart) are resurrected fresh; every serialized
    pointer is remapped through that correspondence. Skipping itself is
    driven by {!Skip_iteration}: while a resume target is pending, the
    checkpoint intrinsic raises it and the interpreter's loop construct
    fast-forwards to the next iteration without executing the body.

    Consistency rule (see DESIGN.md): a checkpoint id is only globally
    usable once {e every} rank has a snapshot for it —
    {!latest_consistent} picks the newest such id for the supervised
    restart driver. *)

open Parad_ir
open Value

(** Raised by the [parad.checkpoint] intrinsic while fast-forwarding to a
    resume target; caught by the interpreter's loops, which skip the rest
    of the iteration body. *)
exception Skip_iteration

(** Raised when an ABFT region digest over live cache memory no longer
    matches its seal (see {!Cache_rt.seal}): a bit silently flipped in a
    cell the program never rewrote. [cr_cache] is the first cache whose
    digest failed, [cr_at] the virtual time of the check. The supervised
    recovery driver catches this and degrades to the newest consistent
    snapshot (taken from verified-clean state) instead of letting the
    corruption reach the gradient. *)
exception
  Corrupt_region of { cr_rank : int; cr_cache : int; cr_at : float }

(* ---- two-tier snapshot store ---- *)

type tier = Hot | Disk

(** Tiering policy of a store. [hot_budget = None] keeps every snapshot
    in the in-memory hot ring (the store-all baseline); [Some b] caps the
    ring at [b] snapshots per rank, evicting the oldest on overflow.
    [tiers = 2] demotes evicted snapshots to the byte-stable "disk" tier
    (restorable, but charged at disk bandwidth in the cost model);
    [tiers = 1] drops them outright — recovery then degrades to an older
    surviving snapshot or a cold restart. *)
type policy = { hot_budget : int option; tiers : int }

let default_policy = { hot_budget = None; tiers = 2 }

type entry = {
  mutable e_bytes : string;  (** payload while [Hot]; [""] once spilled *)
  e_sum : int64;  (** FNV-1a checksum of the pristine bytes *)
  e_cells : int;  (** payload cells, for bandwidth cost accounting *)
  mutable e_tier : tier;
  mutable e_path : string option;  (** spill file once demoted to [Disk] *)
}

type store = {
  snranks : int;
  policy : policy;
  snaps : (int * int, entry) Hashtbl.t;  (** (rank, ckpt id) -> entry *)
  hot : int Queue.t array;  (** per rank: hot-ring ids, oldest first *)
  namespace : string option;  (** pins the spill directory's name *)
  mutable sdir : string option;  (** the spill directory, once made *)
}

(* Namespacing: every store spills under its own directory, so
   concurrent server requests — and concurrent CI jobs sharing a temp
   dir — cannot collide on snapshot files. Without a namespace the
   directory is a fresh [parad-snap-<pid>-<random>] one, made at the
   first spill; an explicit [namespace] pins the path
   ([parad-snap-<namespace>]) for callers that hand a run id across
   processes. *)
let create_store ?(policy = default_policy) ?namespace ~nranks () =
  (match policy.hot_budget with
  | Some b when b < 1 ->
    error "checkpoint store: hot budget must be at least 1 (got %d)" b
  | _ -> ());
  if policy.tiers < 1 || policy.tiers > 2 then
    error "checkpoint store: tiers must be 1 or 2 (got %d)" policy.tiers;
  let ns_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
    | _ -> false
  in
  (match namespace with
  | Some ns when not (String.for_all ns_char ns) ->
    error "checkpoint store: bad namespace %S (use [A-Za-z0-9._-])" ns
  | _ -> ());
  {
    snranks = nranks;
    policy;
    snaps = Hashtbl.create 32;
    hot = Array.init nranks (fun _ -> Queue.create ());
    namespace;
    sdir = None;
  }

(* The store's spill directory, made at its first use. *)
let sdir store =
  match store.sdir with
  | Some d -> d
  | None ->
    let d =
      match store.namespace with
      | Some ns ->
        let d =
          Filename.concat (Filename.get_temp_dir_name ()) ("parad-snap-" ^ ns)
        in
        (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        d
      | None ->
        Filename.temp_dir ~perms:0o700
          (Printf.sprintf "parad-snap-%d-" (Unix.getpid ()))
          ""
    in
    store.sdir <- Some d;
    d

let spill_path store ~rank ~id =
  Filename.concat (sdir store) (Printf.sprintf "r%d-c%d.snap" rank id)

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes)

(* [None] on any read failure: a vanished or unreadable spill file is
   indistinguishable from an evicted snapshot, and recovery already
   degrades cleanly on [Missing]. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic))
        with End_of_file | Sys_error _ -> None)

let remove_spill e =
  match e.e_path with
  | Some p ->
    (try Sys.remove p with Sys_error _ -> ());
    e.e_path <- None
  | None -> ()

(* Forget a snapshot entirely, deleting its spill file if any. *)
let drop_entry store key =
  match Hashtbl.find_opt store.snaps key with
  | None -> ()
  | Some e ->
    remove_spill e;
    Hashtbl.remove store.snaps key

(** Delete every spilled snapshot file and the namespace directory, and
    empty the store. Call when the run/request owning the store
    completes; stores whose snapshots a caller still reads (e.g. the
    recovery driver's [r_store]) must skip this. Idempotent. *)
let dispose store =
  Hashtbl.iter (fun _ e -> remove_spill e) store.snaps;
  Hashtbl.reset store.snaps;
  Array.iter Queue.clear store.hot;
  Option.iter
    (fun d -> try Unix.rmdir d with Unix.Unix_error (_, _, _) -> ())
    store.sdir;
  store.sdir <- None

(* 64-bit FNV-1a: cheap, deterministic, and sensitive to any single
   flipped byte — enough to model end-to-end snapshot integrity. *)
let checksum s = Bitmix.fnv_string Bitmix.fnv_init s

type put_info = {
  p_bytes : int;  (** serialized size of the new snapshot *)
  p_evictions : int;  (** hot-ring evictions this put caused *)
  p_demoted_cells : int;  (** cells demoted to the disk tier (0 if dropped) *)
}

(** Insert a snapshot into the hot ring, evicting (demoting or dropping,
    per policy) the oldest hot snapshots of the same rank past the
    budget. *)
let put store ~rank ~id ~cells bytes =
  (* a re-taken id (replays revisit their sites) must not leak the old
     entry's spill file *)
  drop_entry store (rank, id);
  Hashtbl.replace store.snaps (rank, id)
    {
      e_bytes = bytes;
      e_sum = checksum bytes;
      e_cells = cells;
      e_tier = Hot;
      e_path = None;
    };
  let q = store.hot.(rank) in
  (* ...nor occupy two ring slots *)
  let q' = Queue.create () in
  Queue.iter (fun i -> if i <> id then Queue.add i q') q;
  Queue.clear q;
  Queue.transfer q' q;
  Queue.add id q;
  let evictions = ref 0 and demoted = ref 0 in
  (match store.policy.hot_budget with
  | None -> ()
  | Some budget ->
    while Queue.length q > budget do
      let old = Queue.pop q in
      incr evictions;
      match Hashtbl.find_opt store.snaps (rank, old) with
      | None -> ()
      | Some e ->
        if store.policy.tiers >= 2 then begin
          (* demotion is a real spill: bytes move to a namespaced file
             and the hot ring frees the memory *)
          let path = spill_path store ~rank ~id:old in
          write_file path e.e_bytes;
          e.e_path <- Some path;
          e.e_bytes <- "";
          e.e_tier <- Disk;
          demoted := !demoted + e.e_cells
        end
        else drop_entry store (rank, old)
    done);
  { p_bytes = String.length bytes; p_evictions = !evictions;
    p_demoted_cells = !demoted }

type got = Got of string * tier | Corrupt | Missing

(** Fetch a snapshot, verifying its integrity checksum. A mismatch is
    reported as [Corrupt] so callers degrade to an older snapshot
    instead of replaying from garbage; a spilled snapshot whose file
    vanished (an external cleanup, a concurrent job misconfigured into
    the same namespace) reads as [Missing] for the same reason. *)
let get store ~rank ~id =
  match Hashtbl.find_opt store.snaps (rank, id) with
  | None -> Missing
  | Some e -> (
    let bytes =
      match e.e_path with None -> Some e.e_bytes | Some p -> read_file p
    in
    match bytes with
    | None -> Missing
    | Some b ->
      if Int64.equal (checksum b) e.e_sum then Got (b, e.e_tier) else Corrupt)

let snapshot_bytes store ~rank ~id =
  match get store ~rank ~id with Got (b, _) -> Some b | Corrupt | Missing -> None

let snapshot_tier store ~rank ~id =
  match Hashtbl.find_opt store.snaps (rank, id) with
  | Some e -> Some e.e_tier
  | None -> None

let valid store ~rank ~id =
  match get store ~rank ~id with Got _ -> true | Corrupt | Missing -> false

(** Fault-injection hook (tests, chaos soak): flip one payload byte so
    the checksum no longer matches. *)
let corrupt store ~rank ~id =
  match Hashtbl.find_opt store.snaps (rank, id) with
  | None -> error "checkpoint: cannot corrupt absent snapshot (%d, %d)" rank id
  | Some e -> (
    let flip s =
      let b = Bytes.of_string s in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
      Bytes.to_string b
    in
    match e.e_path with
    | None -> e.e_bytes <- flip e.e_bytes
    | Some p -> (
      match read_file p with
      | Some s -> write_file p (flip s)
      | None -> error "checkpoint: cannot corrupt vanished spill file %s" p))

(** Drop checkpoint [id] on every rank — the binomial driver releasing a
    snapshot slot once the segments it guards are reversed. *)
let release store ~id =
  for rank = 0 to store.snranks - 1 do
    drop_entry store (rank, id);
    let q = store.hot.(rank) in
    let q' = Queue.create () in
    Queue.iter (fun i -> if i <> id then Queue.add i q') q;
    Queue.clear q;
    Queue.transfer q' q
  done

(** Newest checkpoint id for which every rank holds a *valid* snapshot,
    if any. Ranks pass checkpoints at different virtual times, so the
    newest id of any single rank may not be globally restorable yet; a
    corrupted or evicted snapshot likewise disqualifies its id, which is
    how recovery degrades to an older checkpoint instead of aborting. *)
let latest_consistent store =
  let ids =
    Hashtbl.fold
      (fun (r, id) _ acc -> if r = 0 then id :: acc else acc)
      store.snaps []
    |> List.sort_uniq (fun a b -> compare b a)
  in
  List.find_opt
    (fun id ->
      let ok = ref true in
      for r = 0 to store.snranks - 1 do
        if not (valid store ~rank:r ~id) then ok := false
      done;
      !ok)
    ids

(* ---- per-rank checkpoint session ---- *)

type session = {
  store : store;
  srank : int;
  mutable pending : int option;
      (** resume target: skip iterations until this checkpoint id, then
          restore from its snapshot *)
  mutable last_id : int;
      (** newest checkpoint id this rank has passed (taken, skipped or
          restored); the reverse-entry site [parad.checkpoint_rev]
          allocates [last_id + 1] so its snapshot orders after every
          forward-sweep snapshot *)
}

let session store ~rank ?resume () =
  { store; srank = rank; pending = resume; last_id = -1 }

(* ---- serialization (text tokens; deterministic by construction) ---- *)

let rec ty_code = function
  | Ty.Unit -> "U"
  | Ty.Bool -> "B"
  | Ty.Int -> "I"
  | Ty.Float -> "F"
  | Ty.Ptr t -> "P" ^ ty_code t

let ty_of_code s =
  let n = String.length s in
  let rec go i =
    if i >= n then error "checkpoint: bad type code %S" s
    else
      match s.[i] with
      | 'U' -> Ty.Unit
      | 'B' -> Ty.Bool
      | 'I' -> Ty.Int
      | 'F' -> Ty.Float
      | 'P' -> Ty.Ptr (go (i + 1))
      | _ -> error "checkpoint: bad type code %S" s
  in
  go 0

let kind_code = function
  | Instr.Heap -> "h"
  | Instr.Stack -> "s"
  | Instr.Gc -> "g"

let kind_of_code = function
  | "h" -> Instr.Heap
  | "s" -> Instr.Stack
  | "g" -> Instr.Gc
  | s -> error "checkpoint: bad buffer kind %S" s

let cell_code = function
  | VUnit -> "u"
  | VBool false -> "b0"
  | VBool true -> "b1"
  | VInt n -> "i" ^ string_of_int n
  | VFloat f -> "f" ^ Int64.to_string (Int64.bits_of_float f)
  | VPtr p -> Printf.sprintf "p%d:%d" p.buf.bid p.off
  | VNull ty -> "n" ^ ty_code ty

(* Decode one cell token; pointer targets are resolved through [lookup]
   (saved buffer id -> live buffer of the restored run). *)
let cell_of_code lookup s =
  let n = String.length s in
  if n = 0 then error "checkpoint: empty cell token";
  let rest () = String.sub s 1 (n - 1) in
  match s.[0] with
  | 'u' -> VUnit
  | 'b' -> VBool (rest () = "1")
  | 'i' -> VInt (int_of_string (rest ()))
  | 'f' -> VFloat (Int64.float_of_bits (Int64.of_string (rest ())))
  | 'n' -> VNull (ty_of_code (rest ()))
  | 'p' -> (
    match String.index_opt s ':' with
    | Some i ->
      let bid = int_of_string (String.sub s 1 (i - 1)) in
      let off = int_of_string (String.sub s (i + 1) (n - i - 1)) in
      VPtr { buf = lookup bid; off }
    | None -> error "checkpoint: bad pointer token %S" s)
  | _ -> error "checkpoint: bad cell token %S" s

(* ---- taking a snapshot ---- *)

(* Transitive pointer reachability from [roots], like the GC mark phase;
   freed buffers are recorded but their (poisoned) contents are not
   followed or kept. *)
let reachable roots =
  let seen : (int, buffer) Hashtbl.t = Hashtbl.create 64 in
  let rec mark v =
    match v with
    | VPtr p when not (Hashtbl.mem seen p.buf.bid) ->
      Hashtbl.add seen p.buf.bid p.buf;
      if not p.buf.freed then begin
        match p.buf.data with
        | VCells a -> Array.iter mark a
        | FCells _ -> ()
      end
    | VPtr _ | VUnit | VBool _ | VInt _ | VFloat _ | VNull _ -> ()
  in
  List.iter mark roots;
  Hashtbl.fold (fun _ b acc -> b :: acc) seen []
  |> List.sort (fun (a : buffer) b -> compare a.bid b.bid)

type taken = {
  t_cells : int;  (** cells captured, for cost accounting *)
  t_put : put_info;  (** store-side effects: bytes written, evictions *)
}

(** Snapshot rank state at checkpoint [id]. [roots] are the live values
    the buffer walk starts from — the entry function's arguments plus the
    extras listed at the checkpoint site; cache contents and MPI shadow
    buffers are added as roots implicitly. Rejects (with a clear error)
    checkpoints taken with an unwaited nonblocking request or inside an
    open collective: in-flight communication is not part of a rank-local
    snapshot. *)
let take session ~mem ~cache ~mpi ~roots ~id =
  let rank = session.srank in
  (match mpi with
  | None -> ()
  | Some m ->
    let n = Mpi_state.unwaited_requests m ~rank in
    if n > 0 then
      error
        "parad.checkpoint %d: rank %d has %d unwaited request(s); wait all \
         nonblocking sends/receives before checkpointing"
        id rank n;
    (match Mpi_state.open_collective m ~rank with
    | Some seq ->
      error
        "parad.checkpoint %d: rank %d is inside open collective #%d; \
         checkpoints must sit between completed collectives"
        id rank seq
    | None -> ());
    if not (Mpi_state.adj_idle m ~rank) then
      error
        "parad.checkpoint %d: rank %d has staged adjoint chunks or \
         unfulfilled adjoint expectations; flush and complete coalesced \
         adjoint communication before checkpointing"
        id rank);
  let shadows =
    match mpi with Some m -> Mpi_state.export_shadows m ~rank | None -> []
  in
  List.iter
    (fun (sid, (s : Mpi_state.shadow_req)) ->
      if s.dual <> None then
        error
          "parad.checkpoint %d: rank %d: shadow request %d is mid-reverse; \
           checkpoints inside the reverse sweep are unsupported"
          id rank sid)
    shadows;
  let cache_blocks = Cache_rt.export cache in
  let all_roots =
    roots
    @ Array.to_list
        (Array.concat (Array.to_list (Array.map (fun (c, _) -> c) cache_blocks)))
    @ List.map (fun (_, (s : Mpi_state.shadow_req)) -> VPtr s.sptr) shadows
  in
  let bufs = reachable all_roots in
  ignore mem;
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "parad-ckpt 2\n";
  pf "rank %d id %d clock %Ld\n" rank id (Int64.bits_of_float (Sim.now ()));
  (match mpi with
  | None -> pf "mpi none\n"
  | Some m ->
    let next_req, next_shadow, coll_seq = Mpi_state.rank_counters m ~rank in
    pf "mpi %d %d %d\n" next_req next_shadow coll_seq);
  pf "cache %d\n" (Array.length cache_blocks);
  Array.iteri
    (fun cid (cells, freed) ->
      pf "block %d %d %d\n" cid (Array.length cells) (if freed then 1 else 0);
      Array.iter (fun v -> pf "%s " (cell_code v)) cells;
      pf "\n")
    cache_blocks;
  pf "buffers %d\n" (List.length bufs);
  let cells = ref 0 in
  List.iter
    (fun (buf : buffer) ->
      let n = cells_len buf.data in
      pf "buf %d %s %d %s %d %d\n" buf.bid (ty_code buf.elem) n
        (kind_code buf.kind) buf.socket
        (if buf.freed then 1 else 0);
      if not buf.freed then begin
        cells := !cells + n;
        for i = 0 to n - 1 do
          pf "%s " (cell_code (get_cell buf.data i))
        done;
        pf "\n"
      end)
    bufs;
  pf "shadows %d\n" (List.length shadows);
  List.iter
    (fun (sid, (s : Mpi_state.shadow_req)) ->
      pf "sh %d %s %d %d %d %d %d\n" sid
        (match s.skind with Mpi_state.SIsend -> "s" | Mpi_state.SIrecv -> "r")
        s.sptr.buf.bid s.sptr.off s.scount s.speer s.stag)
    shadows;
  pf "end\n";
  let info = put session.store ~rank ~id ~cells:!cells (Buffer.contents b) in
  { t_cells = !cells; t_put = info }

(* ---- restoring ---- *)

(** Raised instead of a plain runtime error when a restore target's
    snapshot is missing or fails its integrity check: the supervised
    restart driver catches this and degrades to an older consistent
    checkpoint rather than aborting the run. *)
exception
  Snapshot_unavailable of {
    su_rank : int;
    su_id : int;
    su_corrupt : bool;  (** checksum mismatch (vs. simply absent) *)
  }

type restored = {
  r_cells : int;  (** cells written back, for cost accounting *)
  r_clock : float;  (** the snapshotted rank's virtual clock *)
  r_tier : tier;  (** where the snapshot was fetched from *)
}

(* Token-stream reader over a snapshot. *)
type reader = { toks : string array; mutable pos : int }

let tok r =
  if r.pos >= Array.length r.toks then
    error "checkpoint: truncated snapshot";
  let t = r.toks.(r.pos) in
  r.pos <- r.pos + 1;
  t

let expect r what =
  let t = tok r in
  if t <> what then
    error "checkpoint: malformed snapshot: expected %S, found %S" what t

let int_tok r = int_of_string (tok r)

(* [Array.init]'s element-evaluation order is unspecified; the parser
   must consume tokens strictly in stream order. *)
let tabulate n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

(** Restore rank state from the snapshot for checkpoint [id], taken in a
    structurally identical run. Buffers are matched by id to the
    replaying run's allocations (the deterministic preamble guarantees
    correspondence); unmatched buffers — allocated during the iterations
    this replay skipped — are resurrected. *)
let restore session ~mem ~cache ~mpi ~id =
  let rank = session.srank in
  let bytes, tier =
    match get session.store ~rank ~id with
    | Got (s, t) -> s, t
    | Missing ->
      raise (Snapshot_unavailable { su_rank = rank; su_id = id; su_corrupt = false })
    | Corrupt ->
      raise (Snapshot_unavailable { su_rank = rank; su_id = id; su_corrupt = true })
  in
  let r =
    {
      toks =
        String.split_on_char '\n' bytes
        |> List.concat_map (String.split_on_char ' ')
        |> List.filter (fun s -> s <> "")
        |> Array.of_list;
      pos = 0;
    }
  in
  expect r "parad-ckpt";
  expect r "2";
  expect r "rank";
  let srank = int_tok r in
  if srank <> rank then
    error "checkpoint: snapshot of rank %d restored on rank %d" srank rank;
  expect r "id";
  let sid = int_tok r in
  if sid <> id then
    error "checkpoint: snapshot id %d does not match restore target %d" sid id;
  expect r "clock";
  let clock = Int64.float_of_bits (Int64.of_string (tok r)) in
  expect r "mpi";
  let counters =
    match tok r with
    | "none" -> None
    | nr ->
      (* explicit sequencing: tuple components evaluate right-to-left,
         which would read the tokens out of stream order *)
      let next_req = int_of_string nr in
      let next_shadow = int_tok r in
      let coll_seq = int_tok r in
      Some (next_req, next_shadow, coll_seq)
  in
  expect r "cache";
  let ncache = int_tok r in
  (* First sweep the whole token stream structurally, recording raw
     tokens; decoding pointers needs the buffer map, which is only
     complete after all buffer headers are read. *)
  let cache_raw =
    tabulate ncache (fun cid ->
        expect r "block";
        let cid' = int_tok r in
        if cid' <> cid then error "checkpoint: cache block order broken";
        let len = int_tok r in
        let freed = int_tok r = 1 in
        (tabulate len (fun _ -> tok r), freed))
  in
  expect r "buffers";
  let nbufs = int_tok r in
  let bufs_raw =
    tabulate nbufs (fun _ ->
        let () = expect r "buf" in
        let bid = int_tok r in
        let elem = ty_of_code (tok r) in
        let size = int_tok r in
        let kind = kind_of_code (tok r) in
        let socket = int_tok r in
        let freed = int_tok r = 1 in
        let cells =
          if freed then [||] else tabulate size (fun _ -> tok r)
        in
        (bid, elem, size, kind, socket, freed, cells))
  in
  expect r "shadows";
  let nsh = int_tok r in
  let shadows_raw =
    tabulate nsh (fun _ ->
        let () = expect r "sh" in
        let sid = int_tok r in
        let skind =
          match tok r with
          | "s" -> Mpi_state.SIsend
          | "r" -> Mpi_state.SIrecv
          | k -> error "checkpoint: bad shadow kind %S" k
        in
        let bid = int_tok r in
        let off = int_tok r in
        let scount = int_tok r in
        let speer = int_tok r in
        let stag = int_tok r in
        (sid, skind, bid, off, scount, speer, stag))
  in
  expect r "end";
  (* Pass 1: bind every saved buffer id to a live buffer — the replay's
     structural counterpart when one exists, a resurrected buffer
     otherwise. *)
  let map : (int, buffer) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (bid, elem, size, kind, socket, freed, _) ->
      let target =
        match Memory.find_bid mem bid with
        | Some (b : buffer) ->
          if not (Ty.equal b.elem elem) || cells_len b.data <> size then
            error
              "checkpoint: buffer %d changed shape between snapshot and \
               replay (program is not structurally deterministic)"
              bid;
          if freed && not b.freed then Memory.free mem b;
          if (not freed) && b.freed then
            error
              "checkpoint: buffer %d is freed in the replay but live in the \
               snapshot"
              bid;
          b
        | None ->
          let b = Memory.alloc mem ~elem ~size ~kind ~socket ~site:"checkpoint" in
          if freed then Memory.free mem b;
          b
      in
      Hashtbl.replace map bid target)
    bufs_raw;
  let lookup bid =
    match Hashtbl.find_opt map bid with
    | Some b -> b
    | None -> error "checkpoint: dangling pointer to unsaved buffer %d" bid
  in
  (* Pass 2: write cell contents back, remapping pointers. *)
  let cells = ref 0 in
  Array.iter
    (fun (bid, _, _, _, _, freed, raw) ->
      if not freed then begin
        let b = Hashtbl.find map bid in
        cells := !cells + Array.length raw;
        match b.data with
        | FCells a ->
          Array.iteri
            (fun i t -> a.(i) <- Value.to_float (cell_of_code lookup t))
            raw
        | VCells a ->
          Array.iteri (fun i t -> a.(i) <- cell_of_code lookup t) raw
      end)
    bufs_raw;
  Cache_rt.restore cache
    (Array.map
       (fun (raw, freed) -> (Array.map (cell_of_code lookup) raw, freed))
       cache_raw);
  (match mpi, counters with
  | Some m, Some (next_req, next_shadow, coll_seq) ->
    let shadows =
      Array.to_list shadows_raw
      |> List.map (fun (sid, skind, bid, off, scount, speer, stag) ->
             ( sid,
               {
                 Mpi_state.skind;
                 sptr = { buf = lookup bid; off };
                 scount;
                 speer;
                 stag;
                 dual = None;
               } ))
    in
    Mpi_state.restore_rank m ~rank ~next_req ~next_shadow ~coll_seq ~shadows
  | None, None -> ()
  | Some _, None | None, Some _ ->
    error "checkpoint: snapshot and replay disagree about MPI");
  session.pending <- None;
  { r_cells = !cells; r_clock = clock; r_tier = tier }

(* ---- raw segment snapshots (binomial adjoint driver) ---- *)

(** The binomial driver carries a program's loop state between simulator
    runs as plain per-rank float arrays plus the loop-carried scalar
    [dt]; these snapshots share the tiered store (and its eviction,
    checksums and consistency rule) with the intrinsic's full-state
    snapshots. Same determinism contract: floats serialize as IEEE-754
    bit patterns, so snapshots of identical states are byte-identical. *)
let encode_floats ~dt (arrays : float array array) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "parad-seg 1\n";
  pf "dt %Ld\n" (Int64.bits_of_float dt);
  pf "arrays %d\n" (Array.length arrays);
  Array.iter
    (fun a ->
      pf "arr %d\n" (Array.length a);
      Array.iter (fun x -> pf "%Ld " (Int64.bits_of_float x)) a;
      pf "\n")
    arrays;
  pf "end\n";
  Buffer.contents b

let decode_floats bytes =
  let r =
    {
      toks =
        String.split_on_char '\n' bytes
        |> List.concat_map (String.split_on_char ' ')
        |> List.filter (fun s -> s <> "")
        |> Array.of_list;
      pos = 0;
    }
  in
  expect r "parad-seg";
  expect r "1";
  expect r "dt";
  let dt = Int64.float_of_bits (Int64.of_string (tok r)) in
  expect r "arrays";
  let n = int_tok r in
  let arrays =
    tabulate n (fun _ ->
        let () = expect r "arr" in
        let len = int_tok r in
        tabulate len (fun _ -> Int64.float_of_bits (Int64.of_string (tok r))))
  in
  expect r "end";
  (dt, arrays)

let put_floats store ~rank ~id ~dt arrays =
  let cells = Array.fold_left (fun n a -> n + Array.length a) 1 arrays in
  put store ~rank ~id ~cells (encode_floats ~dt arrays)

(** [None] when the snapshot is missing or corrupt — callers degrade to
    an older checkpoint (re-advancing the primal) instead of aborting. *)
let get_floats store ~rank ~id =
  match get store ~rank ~id with
  | Got (bytes, tier) ->
    let dt, arrays = decode_floats bytes in
    Some (dt, arrays, tier)
  | Corrupt | Missing -> None
