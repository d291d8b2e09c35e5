(** Execution counters, shared by all strands of a run. *)

type t = {
  mutable instrs : int;
  mutable flops : int;
  mutable loads : int;
  mutable stores : int;
  mutable atomics : int;
  mutable allocs : int;
  mutable alloc_cells : int;
  mutable frees : int;
  mutable calls : int;
  mutable forks : int;
  mutable barriers : int;
  mutable tasks : int;
  mutable messages : int;
  mutable message_cells : int;
  (* adjoint-communication coalescing (zero when coalescing is off or the
     run has no adjoint exchanges) *)
  mutable msgs_sent : int;  (** packed adjoint messages actually sent *)
  mutable cells_sent : int;  (** cells in those packed messages, headers incl. *)
  mutable max_inflight : int;  (** peak packed messages in flight at once *)
  mutable cache_stores : int;
  mutable cache_loads : int;
  mutable cache_cells : int;  (** distinct cache cells ever written *)
  mutable cache_peak : int;  (** peak live cache footprint, in cells *)
  mutable tape_entries : int;
  mutable context_switches : int;
  (* fault injection (all zero on fault-free runs) *)
  mutable send_retries : int;  (** retransmissions after dropped attempts *)
  mutable messages_lost : int;  (** sends abandoned past retries/deadline *)
  mutable messages_duplicated : int;
  mutable stalls_injected : int;
  (* checkpoint/recovery (all zero on fault-free, checkpoint-free runs) *)
  mutable checkpoints_taken : int;
  mutable checkpoints_restored : int;
  mutable ranks_failed : int;  (** structured rank-failure notifications *)
  mutable restarts : int;  (** supervised restarts after a failure *)
  (* two-tier snapshot store (all zero when no store is in play) *)
  mutable snap_count : int;  (** snapshots written into the tiered store *)
  mutable snap_bytes : int;  (** serialized bytes of those snapshots *)
  mutable snap_evictions : int;
      (** hot-ring evictions: demotions to the disk tier, or drops when
          the store is configured hot-only *)
  mutable snap_restores : int;  (** snapshots read back out of the store *)
  (* sanitizer (all zero on unsanitized runs) *)
  mutable nonfinite_found : int;  (** first-origin NaN/Inf detections *)
  mutable nonfinite_quarantined : int;  (** values zeroed in degrade mode *)
  (* silent-data-corruption envelope (all zero on corruption-free runs) *)
  mutable sdc_injected : int;  (** bit flips actually landed by the plan *)
  mutable sdc_detected : int;  (** checksum/digest mismatches caught *)
  mutable sdc_recovered : int;  (** detections repaired (retransmit/restore) *)
  mutable msgs_retransmitted : int;
      (** packed messages re-fetched from the sender after a bad trailer *)
  mutable wall_ns : int;
      (** host wall-clock nanoseconds spent inside the simulator run(s)
          that produced these counters — real time, not modeled time, so
          it is *not* printed by {!pp} (figures compare virtual time) *)
  mutable eng_fallbacks : int;
      (** times a native-engine entry point handed a call (or a single
          intrinsic) back to the interpreter instead of running compiled
          code — zero on a fully engine-resident run *)
}

let create () =
  {
    instrs = 0;
    flops = 0;
    loads = 0;
    stores = 0;
    atomics = 0;
    allocs = 0;
    alloc_cells = 0;
    frees = 0;
    calls = 0;
    forks = 0;
    barriers = 0;
    tasks = 0;
    messages = 0;
    message_cells = 0;
    msgs_sent = 0;
    cells_sent = 0;
    max_inflight = 0;
    cache_stores = 0;
    cache_loads = 0;
    cache_cells = 0;
    cache_peak = 0;
    tape_entries = 0;
    context_switches = 0;
    send_retries = 0;
    messages_lost = 0;
    messages_duplicated = 0;
    stalls_injected = 0;
    checkpoints_taken = 0;
    checkpoints_restored = 0;
    ranks_failed = 0;
    restarts = 0;
    snap_count = 0;
    snap_bytes = 0;
    snap_evictions = 0;
    snap_restores = 0;
    nonfinite_found = 0;
    nonfinite_quarantined = 0;
    sdc_injected = 0;
    sdc_detected = 0;
    sdc_recovered = 0;
    msgs_retransmitted = 0;
    wall_ns = 0;
    eng_fallbacks = 0;
  }

let pp ppf s =
  Fmt.pf ppf
    "instrs=%d flops=%d loads=%d stores=%d atomics=%d allocs=%d calls=%d \
     forks=%d barriers=%d tasks=%d msgs=%d msg_cells=%d cache_st=%d \
     cache_ld=%d cache_cells=%d cache_peak=%d tape=%d"
    s.instrs s.flops s.loads s.stores s.atomics s.allocs s.calls s.forks
    s.barriers s.tasks s.messages s.message_cells s.cache_stores s.cache_loads
    s.cache_cells s.cache_peak s.tape_entries;
  if s.msgs_sent + s.cells_sent + s.max_inflight > 0 then
    Fmt.pf ppf " msgs_sent=%d cells_sent=%d max_inflight=%d" s.msgs_sent
      s.cells_sent s.max_inflight;
  if
    s.send_retries + s.messages_lost + s.messages_duplicated
    + s.stalls_injected
    > 0
  then
    Fmt.pf ppf " retries=%d lost=%d dup=%d stalls=%d" s.send_retries
      s.messages_lost s.messages_duplicated s.stalls_injected;
  if
    s.checkpoints_taken + s.checkpoints_restored + s.ranks_failed + s.restarts
    > 0
  then
    Fmt.pf ppf " ckpts=%d restored=%d failed_ranks=%d restarts=%d"
      s.checkpoints_taken s.checkpoints_restored s.ranks_failed s.restarts;
  if s.snap_count + s.snap_bytes + s.snap_evictions + s.snap_restores > 0 then
    Fmt.pf ppf " snap_count=%d snap_bytes=%d snap_evictions=%d snap_restores=%d"
      s.snap_count s.snap_bytes s.snap_evictions s.snap_restores;
  if s.nonfinite_found + s.nonfinite_quarantined > 0 then
    Fmt.pf ppf " nonfinite=%d quarantined=%d" s.nonfinite_found
      s.nonfinite_quarantined;
  if
    s.sdc_injected + s.sdc_detected + s.sdc_recovered + s.msgs_retransmitted
    > 0
  then
    Fmt.pf ppf " sdc_inj=%d sdc_det=%d sdc_rec=%d retrans=%d" s.sdc_injected
      s.sdc_detected s.sdc_recovered s.msgs_retransmitted;
  if s.eng_fallbacks > 0 then Fmt.pf ppf " eng_fallbacks=%d" s.eng_fallbacks
