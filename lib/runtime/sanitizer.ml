(** ParSan: a runtime sanitizer for the parallel AD runtime (§VI-A1).

    Three cooperating checkers, each individually toggleable:

    - {b RaceSan} logs per-thread shadow-memory accesses inside forked /
      workshared regions and flags any cell touched by two threads where at
      least one access is a non-atomic write. Detected races are
      cross-validated against the static thread-locality analysis
      ([Race.t]): the reverse engine marks every buffer whose base it
      classified thread-private with a [san.mark_private] intrinsic, and a
      dynamic race on a claimed-private cell is a {e miscompilation} — the
      static proof that justified dropping atomics was wrong. Plain races
      (no privacy claim) are ordinary findings.

    - {b MemSan} tracks per-cell initialization bitmaps (uninitialized
      reads, behind the pedantic [uninit] toggle since adjoint buffers
      legitimately read their zero initialization), and reports unfreed
      heap buffers with their allocation sites at region exit. Poison-on-
      free provenance itself lives in [Memory]/[Value] (alloc site, free
      site, stale accessor).

    - {b GradSan} does first-origin tracking of non-finite values: the
      first time a NaN enters the computation (observed at a load/store),
      or a NaN/Inf is {e produced} from all-finite operands, it records the
      instruction, operands, iteration ordinal, virtual time and rank. In
      [Strict] mode the run aborts with that provenance
      ([Nonfinite_strict]); in [Degrade] mode the value is quarantined
      (replaced by 0.0), counted in [Stats], and the run finishes
      degraded. Inf observed in memory is deliberately {e not} flagged:
      reduction identities (e.g. LULESH's [min] sentinel) store
      infinities legitimately.

    All state is keyed by (rank, buffer, cell) so one sanitizer instance
    serves every rank of an SPMD run; the deterministic simulator makes
    findings reproducible byte-for-byte. *)

type mode = Strict | Degrade

type fclass =
  | Race  (** cross-thread conflict, no static privacy claim *)
  | Miscompile  (** conflict on a cell the static analysis claimed private *)
  | Uninit  (** read of a never-stored cell (pedantic) *)
  | Leak  (** heap buffer never freed by region exit *)
  | Nonfinite  (** first origin of a NaN/Inf *)

type finding = {
  cls : fclass;
  rank : int;
  time : float;
  msg : string;
}

type access = Read | Write | Atomic

(* Per-cell access state for RaceSan. [w]/[r]/[a] hold the single thread
   id that wrote/read/atomically-updated the cell in the current
   (region, epoch), -1 for none, -2 for several distinct threads. *)
type cell = {
  mutable c_region : int;
  mutable c_epoch : int;
  mutable c_w : int;
  mutable c_r : int;
  mutable c_a : int;
  mutable c_flagged : bool;
}

type t = {
  race_on : bool;
  mem_on : bool;
  grad_on : bool;
  uninit_on : bool;  (** pedantic sub-checker of MemSan *)
  mode : mode;
  max_findings : int;  (** cap on retained finding records (counters keep counting) *)
  mutable findings_rev : finding list;
  mutable n_findings : int;
  mutable races : int;
  mutable miscompiles : int;
  mutable uninit_reads : int;
  mutable leaks : int;
  mutable nonfinite : int;
  mutable quarantined : int;
  cells : (int * int * int, cell) Hashtbl.t;  (** (rank, bid, cell) *)
  claimed : (int * int, unit) Hashtbl.t;  (** statically claimed private *)
  init_maps : (int * int, Bytes.t) Hashtbl.t;  (** per-cell init bits *)
  mutable regions : int;  (** fresh parallel-region id source *)
}

exception Nonfinite_strict = Value.Nonfinite_strict
(** GradSan [Strict] abort, carrying first-origin provenance. *)

let create ?(race = true) ?(mem = true) ?(grad = true) ?(uninit = false)
    ?(mode = Strict) ?(max_findings = 200) () =
  {
    race_on = race;
    mem_on = mem;
    grad_on = grad;
    uninit_on = mem && uninit;
    mode;
    max_findings;
    findings_rev = [];
    n_findings = 0;
    races = 0;
    miscompiles = 0;
    uninit_reads = 0;
    leaks = 0;
    nonfinite = 0;
    quarantined = 0;
    cells = Hashtbl.create 1024;
    claimed = Hashtbl.create 64;
    init_maps = Hashtbl.create 64;
    regions = 0;
  }

let class_name = function
  | Race -> "race"
  | Miscompile -> "miscompilation"
  | Uninit -> "uninit-read"
  | Leak -> "leak"
  | Nonfinite -> "nonfinite"

let record t cls ~rank ~time fmt =
  Fmt.kstr
    (fun msg ->
      (match cls with
      | Race -> t.races <- t.races + 1
      | Miscompile -> t.miscompiles <- t.miscompiles + 1
      | Uninit -> t.uninit_reads <- t.uninit_reads + 1
      | Leak -> t.leaks <- t.leaks + 1
      | Nonfinite -> t.nonfinite <- t.nonfinite + 1);
      t.n_findings <- t.n_findings + 1;
      if t.n_findings <= t.max_findings then
        t.findings_rev <- { cls; rank; time; msg } :: t.findings_rev)
    fmt

(* ------------------------------------------------------------------ *)
(* RaceSan                                                             *)

(** Allocate a fresh id for a dynamic parallel region (one [Fork]
    execution). Cell state from other regions is invalidated lazily. *)
let fresh_region t =
  t.regions <- t.regions + 1;
  t.regions

(** The reverse engine's [san.mark_private] marker: the static analysis
    claims every access to [buf] is thread-private, so its accumulation
    skips atomics. *)
let mark_private t ~rank ~(buf : Value.buffer) =
  Hashtbl.replace t.claimed (rank, buf.bid) ()

let is_claimed t ~rank ~(buf : Value.buffer) =
  Hashtbl.mem t.claimed (rank, buf.bid)

let merge_tid slot tid = if slot = -1 || slot = tid then tid else -2

(* A conflict exists when a write is involved and two distinct threads
   touched the cell in the same (region, epoch) — epochs advance at
   barriers, which order accesses and reset the window. *)
let conflicting c =
  c.c_w = -2
  || (c.c_w >= 0
     && ((c.c_r >= 0 && c.c_r <> c.c_w)
        || c.c_r = -2
        || (c.c_a >= 0 && c.c_a <> c.c_w)
        || c.c_a = -2))

let on_access t ~rank ~tid ~region ~epoch ~(buf : Value.buffer) ~cell ~kind
    ~fn ~time =
  if t.race_on then begin
    let key = (rank, buf.bid, cell) in
    let c =
      match Hashtbl.find_opt t.cells key with
      | Some c -> c
      | None ->
        let c =
          {
            c_region = region;
            c_epoch = epoch;
            c_w = -1;
            c_r = -1;
            c_a = -1;
            c_flagged = false;
          }
        in
        Hashtbl.replace t.cells key c;
        c
    in
    if c.c_region <> region || c.c_epoch <> epoch then begin
      c.c_region <- region;
      c.c_epoch <- epoch;
      c.c_w <- -1;
      c.c_r <- -1;
      c.c_a <- -1;
      c.c_flagged <- false
    end;
    (match kind with
    | Read -> c.c_r <- merge_tid c.c_r tid
    | Write -> c.c_w <- merge_tid c.c_w tid
    | Atomic -> c.c_a <- merge_tid c.c_a tid);
    if (not c.c_flagged) && conflicting c then begin
      c.c_flagged <- true;
      if is_claimed t ~rank ~buf then
        record t Miscompile ~rank ~time
          "static analysis claimed buffer %d (alloc at %s) thread-private, \
           but cell [%d] is touched by multiple threads with a non-atomic \
           write (fn %s, thread %d, region %d)"
          buf.bid buf.asite cell fn tid region
      else
        record t Race ~rank ~time
          "data race: buffer %d (alloc at %s) cell [%d] touched by multiple \
           threads with a non-atomic write (fn %s, thread %d, region %d)"
          buf.bid buf.asite cell fn tid region
    end
  end

(* ------------------------------------------------------------------ *)
(* MemSan                                                              *)

let on_alloc t ~rank ~(buf : Value.buffer) =
  if t.mem_on then
    Hashtbl.replace t.init_maps (rank, buf.bid)
      (Bytes.make (Value.cells_len buf.data) '\000')

let on_store_init t ~rank ~(buf : Value.buffer) ~cell =
  if t.mem_on then
    match Hashtbl.find_opt t.init_maps (rank, buf.bid) with
    | Some bm when cell >= 0 && cell < Bytes.length bm ->
      Bytes.unsafe_set bm cell '\001'
    | _ -> ()

(* Buffers absent from [init_maps] (harness inputs, checkpoint-restored
   state) are considered fully initialized. *)
let on_load_init t ~rank ~(buf : Value.buffer) ~cell ~fn ~time =
  if t.uninit_on then
    match Hashtbl.find_opt t.init_maps (rank, buf.bid) with
    | Some bm
      when cell >= 0
           && cell < Bytes.length bm
           && Bytes.unsafe_get bm cell = '\000' ->
      Bytes.unsafe_set bm cell '\001' (* report each cell once *);
      record t Uninit ~rank ~time
        "read of uninitialized cell: buffer %d (alloc at %s) cell [%d] in %s"
        buf.bid buf.asite cell fn
    | _ -> ()

(** Leak check at region (rank) exit: heap buffers allocated by program
    [Alloc] instructions that were never freed. Harness- and checkpoint-
    owned buffers are exempt (the harness reads results from them after
    the run); GC buffers belong to the collector. *)
let report_leaks t ~rank ~(mem : Memory.t) =
  if t.mem_on then
    Hashtbl.fold (fun _ b acc -> b :: acc) mem.Memory.all []
    |> List.sort (fun (a : Value.buffer) b -> compare a.bid b.bid)
    |> List.iter (fun (b : Value.buffer) ->
           if
             b.Value.kind = Parad_ir.Instr.Heap
             && (not b.freed)
             && b.asite <> "harness"
             && b.asite <> "checkpoint"
           then
             record t Leak ~rank ~time:0.0
               "leaked buffer %d: %d cells allocated at %s, never freed"
               b.bid (Value.cells_len b.data) b.asite)

(* ------------------------------------------------------------------ *)
(* GradSan                                                             *)

(** First-origin report of a non-finite value. Returns the value to
    continue with: in [Degrade] mode the poison is quarantined to 0.0;
    [Strict] mode aborts with the provenance. *)
let nonfinite t ~rank ~time fmt =
  Fmt.kstr
    (fun msg ->
      record t Nonfinite ~rank ~time "%s" msg;
      (Sim.stats ()).Stats.nonfinite_found <-
        (Sim.stats ()).Stats.nonfinite_found + 1;
      match t.mode with
      | Strict ->
        raise (Nonfinite_strict (Fmt.str "rank %d t=%.0f: %s" rank time msg))
      | Degrade ->
        t.quarantined <- t.quarantined + 1;
        (Sim.stats ()).Stats.nonfinite_quarantined <-
          (Sim.stats ()).Stats.nonfinite_quarantined + 1;
        0.0)
    fmt

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let findings t = List.rev t.findings_rev
let clean t = t.n_findings = 0 && t.quarantined = 0

(** The run's class: a static thread-locality claim refuted at runtime
    is a miscompilation, quarantined non-finite values leave it
    degraded, and any other finding is a finding. *)
let verdict t =
  if t.miscompiles > 0 then Outcome.Miscompile
  else if t.quarantined > 0 then Outcome.Degraded
  else if t.n_findings > 0 then Outcome.Findings
  else Outcome.Ok

let pp_finding ppf f =
  Fmt.pf ppf "[%s] rank %d t=%.0f: %s" (class_name f.cls) f.rank f.time f.msg

let pp_report ppf t =
  Fmt.pf ppf "sanitizer: %d finding%s" t.n_findings
    (if t.n_findings = 1 then "" else "s");
  Fmt.pf ppf
    " (races=%d miscompilations=%d uninit=%d leaks=%d nonfinite=%d \
     quarantined=%d)"
    t.races t.miscompiles t.uninit_reads t.leaks t.nonfinite t.quarantined;
  List.iter (fun f -> Fmt.pf ppf "@.  %a" pp_finding f) (findings t);
  if t.n_findings > t.max_findings then
    Fmt.pf ppf "@.  ... %d further finding%s suppressed"
      (t.n_findings - t.max_findings)
      (if t.n_findings - t.max_findings = 1 then "" else "s")
