(** Deterministic fault injection for the message-passing runtime.

    A {!plan} describes communication failures to inject into an SPMD
    execution: targeted message faults (drop / delay / duplicate), a
    seeded per-attempt random drop probability, rank stalls, and rank
    kills. Because the scheduler is virtual-time deterministic and the
    PRNG is seeded, the same plan produces bit-identical executions —
    every injected failure is exactly reproducible from its seed.

    Dropped transmission attempts are recovered by retransmission with
    exponential backoff (charged as extra in-flight latency, so gradients
    are unchanged and only virtual time grows). A message whose drops
    exceed [max_retries], or whose accumulated backoff exceeds
    [deadline], is {e lost}: the sender gives up, the loss is recorded
    for diagnosis, and any receive waiting on that channel eventually
    surfaces in the scheduler's wait-for report instead of hanging. *)

type action =
  | Drop of int  (** drop the first n transmission attempts, then deliver *)
  | Drop_all  (** every attempt dropped: the message is lost *)
  | Delay of float  (** extra in-flight latency, in virtual cycles *)
  | Duplicate  (** deliver an extra copy of the message *)

type rule = {
  r_src : int option;  (** None matches any sender *)
  r_dst : int option;
  r_tag : int option;
  r_action : action;
  r_limit : int;  (** apply to at most this many messages; -1 = all *)
}

type plan = {
  name : string;
  seed : int;
  drop_prob : float;  (** seeded per-attempt random drop probability *)
  max_retries : int;  (** retransmissions before a message is lost *)
  backoff : float;  (** first retransmit delay; doubles per attempt *)
  deadline : float;  (** sender gives up past this much added delay *)
  rules : rule list;
  stalls : (int * float * float) list;  (** rank, not-before time, delay *)
  kills : (int * float) list;  (** rank, not-before time *)
  flips : (int * int * int * float) list;
      (** silent bit flips in live memory: rank, cell, bit (0..63),
          not-before time. [cell] indexes the victim's sealed cache
          cells (mod the sealed population at strike time), so every
          flip lands on a cell the detection layer is accountable
          for. *)
  corrupts : (int * int * bool) list;
      (** in-flight packed-message corruption: 1-based global packed
          message ordinal, byte seed (picks the victim cell inside the
          payload), sticky. A non-sticky corruption damages one
          delivery and the retransmit is clean; a sticky one damages
          every retransmit until the sender's retry budget is
          exhausted. *)
}

let none =
  {
    name = "none";
    seed = 0;
    drop_prob = 0.0;
    max_retries = 5;
    backoff = 2_000.0;
    deadline = infinity;
    rules = [];
    stalls = [];
    kills = [];
    flips = [];
    corrupts = [];
  }

(* A message the sender gave up on, kept for diagnosis and post-run
   audit. *)
type lost = {
  l_src : int;
  l_dst : int;
  l_tag : int;
  l_attempts : int;
  l_time : float;  (** virtual time of the original send *)
}

type state = {
  plan : plan;
  rng : Bitmix.rng;
  rule_used : int array;  (** messages each rule has been applied to *)
  stalled : bool array;  (** per-rank: stall already charged *)
  mutable lost_msgs : lost list;  (** reverse send order *)
  mutable injected : int;  (** total faults injected *)
  mutable flips_left : (int * int * int * float) list;
      (** bit flips not yet landed *)
  mutable corrupts_left : (int * int * bool) list;
      (** packed-message corruptions not yet landed *)
  mutable packed_seen : int;  (** global packed-message ordinal, 1-based *)
}

let make ~nranks plan =
  {
    plan;
    rng =
      { Bitmix.s = Int64.of_int ((plan.seed * 2654435761) lxor 0x5DEECE66D) };
    rule_used = Array.make (List.length plan.rules) 0;
    stalled = Array.make nranks false;
    lost_msgs = [];
    injected = 0;
    flips_left = plan.flips;
    corrupts_left = plan.corrupts;
    packed_seen = 0;
  }

let rule_matches r ~src ~dst ~tag =
  (match r.r_src with Some s -> s = src | None -> true)
  && (match r.r_dst with Some d -> d = dst | None -> true)
  && match r.r_tag with Some t -> t = tag | None -> true

type delivery = {
  extra : float;  (** added in-flight latency (delays + retransmits) *)
  copies : int;  (** duplicates to enqueue alongside the message *)
  retries : int;  (** retransmission attempts that were needed *)
}

let backoff_sum plan drops =
  let acc = ref 0.0 and d = ref plan.backoff in
  for _ = 1 to drops do
    acc := !acc +. !d;
    d := !d *. 2.0
  done;
  !acc

(** Decide the fate of one point-to-point message, advancing the fault
    state. Returns how to deliver it, or [`Lost attempts] if the sender
    exhausted its retries/deadline. *)
let on_send st ~src ~dst ~tag ~now =
  let p = st.plan in
  let drops = ref 0
  and extra = ref 0.0
  and copies = ref 0
  and doomed = ref false in
  List.iteri
    (fun i r ->
      if
        rule_matches r ~src ~dst ~tag
        && (r.r_limit < 0 || st.rule_used.(i) < r.r_limit)
      then begin
        st.rule_used.(i) <- st.rule_used.(i) + 1;
        st.injected <- st.injected + 1;
        match r.r_action with
        | Drop n -> drops := !drops + n
        | Drop_all -> doomed := true
        | Delay d -> extra := !extra +. d
        | Duplicate -> incr copies
      end)
    p.rules;
  (* one splitmix64 draw per transmission attempt: advancing the stream
     only in deterministic program order keeps runs reproducible *)
  if p.drop_prob > 0.0 then
    while
      (not !doomed)
      && !drops <= p.max_retries
      && Bitmix.draw_float st.rng < p.drop_prob
    do
      incr drops;
      st.injected <- st.injected + 1
    done;
  let retry_delay = backoff_sum p !drops in
  if !doomed || !drops > p.max_retries || retry_delay > p.deadline then begin
    let attempts = if !doomed then p.max_retries + 1 else !drops in
    st.lost_msgs <-
      { l_src = src; l_dst = dst; l_tag = tag; l_attempts = attempts;
        l_time = now }
      :: st.lost_msgs;
    `Lost attempts
  end
  else
    `Deliver { extra = !extra +. retry_delay; copies = !copies; retries = !drops }

(** Gate every runtime operation of [rank]: no fault, a one-time stall
    delay, or a kill (the caller must park the strand forever). *)
let rank_gate st ~rank ~now =
  match List.find_opt (fun (r, at) -> r = rank && now >= at) st.plan.kills with
  | Some (_, at) -> `Kill at
  | None -> (
    match
      List.find_opt
        (fun (r, at, _) -> r = rank && now >= at && not st.stalled.(rank))
        st.plan.stalls
    with
    | Some (_, _, d) ->
      st.stalled.(rank) <- true;
      st.injected <- st.injected + 1;
      `Stall d
    | None -> `Ok)

(** One pending bit flip for [rank] whose time has come, or [None].
    The flip is consumed from the state (it lands once per run); the
    caller applies it to live memory and bumps [Stats.sdc_injected]
    only if a target cell actually exists. *)
let flip_gate st ~rank ~now =
  let rec pick acc = function
    | [] -> None
    | (r, cell, bit, at) :: tl when r = rank && now >= at ->
      st.flips_left <- List.rev_append acc tl;
      st.injected <- st.injected + 1;
      Some (cell, bit)
    | h :: tl -> pick (h :: acc) tl
  in
  pick [] st.flips_left

(** Gate one packed-message send: advance the global packed ordinal and
    report whether this message is scheduled for corruption. Returns
    [(byte_seed, sticky)] when it is; a sticky entry re-fires on every
    retransmit of the same message (the caller keeps the returned pair
    attached to the message), a non-sticky one damages only the first
    delivery. Either way the entry is consumed here — the ordinal never
    repeats. *)
let corrupt_gate st =
  st.packed_seen <- st.packed_seen + 1;
  let rec pick acc = function
    | [] -> None
    | (n, byte, sticky) :: tl when n = st.packed_seen ->
      st.corrupts_left <- List.rev_append acc tl;
      st.injected <- st.injected + 1;
      Some (byte, sticky)
    | h :: tl -> pick (h :: acc) tl
  in
  pick [] st.corrupts_left

let lost st = List.rev st.lost_msgs

(** Messages lost on the (src, dst, tag) channel so far — used in
    wait-for descriptions of receives that will never match. *)
let lost_on st ~src ~dst ~tag =
  List.length
    (List.filter
       (fun l -> l.l_src = src && l.l_dst = dst && l.l_tag = tag)
       st.lost_msgs)

(* ---- named plans (CLI and tests) ---- *)

let plan_names =
  [ "none"; "drop-retry"; "flaky"; "dup"; "delay"; "blackhole"; "stall";
    "kill"; "flip"; "corrupt-msg" ]

(** Build a named plan. [rank] and [at] parameterize the rank-targeted
    plans (stall/kill/blackhole); defaults target rank 1 (or 0 when
    single-rank) from time 0. *)
let plan_of_name ?(seed = 42) ?rank ?(at = 0.0) ~nranks name =
  (* an out-of-range victim would make the plan silently inert (its
     stall/kill/rules never fire) — reject it loudly instead *)
  (match rank with
  | Some r when r < 0 || r >= nranks ->
    invalid_arg
      (Printf.sprintf
         "Faults.plan_of_name: victim rank %d out of range [0, %d)" r nranks)
  | _ -> ());
  let victim = match rank with Some r -> r | None -> min 1 (nranks - 1) in
  let base = { none with name; seed } in
  match name with
  | "none" -> base
  | "drop-retry" ->
    (* every message loses its first two transmission attempts; the
       retransmit path recovers all of them, so results are unchanged and
       only virtual time grows *)
    {
      base with
      rules =
        [ { r_src = None; r_dst = None; r_tag = None; r_action = Drop 2;
            r_limit = -1 } ];
    }
  | "flaky" ->
    (* seeded random attempt drops, always recovered within max_retries *)
    { base with drop_prob = 0.25; max_retries = 64 }
  | "dup" ->
    (* the first message is delivered twice *)
    {
      base with
      rules =
        [ { r_src = None; r_dst = None; r_tag = None; r_action = Duplicate;
            r_limit = 1 } ];
    }
  | "delay" ->
    (* every message from the victim rank is slowed by 50k cycles *)
    {
      base with
      rules =
        [ { r_src = Some victim; r_dst = None; r_tag = None;
            r_action = Delay 50_000.0; r_limit = -1 } ];
    }
  | "blackhole" ->
    (* every message from the victim rank is lost: unrecoverable *)
    {
      base with
      rules =
        [ { r_src = Some victim; r_dst = None; r_tag = None;
            r_action = Drop_all; r_limit = -1 } ];
    }
  | "stall" -> { base with stalls = [ victim, at, 200_000.0 ] }
  | "kill" -> { base with kills = [ victim, at ] }
  | "flip" ->
    (* one silent bit flip in the victim's live cache memory; override
       cell/bit via flip= in plan_of_spec *)
    { base with flips = [ victim, 0, 31, at ] }
  | "corrupt-msg" ->
    (* damage the first packed adjoint message in flight, once; the
       checksum trailer catches it and the retransmit is clean *)
    { base with corrupts = [ 1, 0, false ] }
  | _ ->
    invalid_arg
      (Printf.sprintf "Faults.plan_of_name: unknown plan %S (know: %s)" name
         (String.concat ", " plan_names))

(** Remove the first kill entry for [rank] from a plan. The supervised
    recovery driver consumes a fired kill before replaying, so each kill
    in the plan's budget fires at most once across restarts. *)
let consume_kill plan ~rank =
  let rec drop = function
    | [] -> []
    | (r, _) :: tl when r = rank -> tl
    | h :: tl -> h :: drop tl
  in
  { plan with kills = drop plan.kills }

(** Remove the first flip entry for [rank]: the supervised recovery
    driver consumes a detected flip before replaying from the snapshot,
    so each flip in the plan lands at most once across restarts. *)
let consume_flip plan ~rank =
  let rec drop = function
    | [] -> []
    | (r, _, _, _) :: tl when r = rank -> tl
    | h :: tl -> h :: drop tl
  in
  { plan with flips = drop plan.flips }

(** Remove the first sticky corruption entry. A sticky corruption
    exhausts the sender's retransmit budget and surfaces as
    [Corrupt_message]; the supervisor consumes it before replaying so
    the replay's sends go through clean. *)
let consume_corrupt plan =
  let rec drop = function
    | [] -> []
    | (_, _, true) :: tl -> tl
    | h :: tl -> h :: drop tl
  in
  { plan with corrupts = drop plan.corrupts }

(** Parse a plan spec: a plan name, optionally followed by
    [:key=val,...] overrides. Recognized keys: [seed], [victim], [at]
    (retarget the named plan), [retries], [backoff], [deadline], [prob]
    (tune recovery parameters), [kill=R@T], [stall=R@T@D],
    [flip=R@CELL@BIT@T] and [corrupt-msg=N@BYTE@sticky] (repeatable;
    append extra events, so multi-failure plans like
    ["kill:kill=2@0,kill=3@50000"] are expressible). Scalar keys may
    appear at most once — ["kill:at=0,at=500"] is rejected with
    [Invalid_argument] rather than silently keeping one of the values.
    Explicit [?seed]/[?rank]/[?at] arguments act as defaults that spec
    overrides win over. *)
let plan_of_spec ?seed ?rank ?at ~nranks spec =
  let bad fmt = Printf.ksprintf invalid_arg ("Faults.plan_of_spec: " ^^ fmt) in
  let name, overrides =
    match String.index_opt spec ':' with
    | None -> spec, []
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1)
        |> String.split_on_char ','
        |> List.filter (fun s -> s <> "") )
  in
  let kv =
    List.map
      (fun s ->
        match String.index_opt s '=' with
        | Some i ->
          String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)
        | None -> bad "override %S is not key=val" s)
      overrides
  in
  let int_of k v =
    try int_of_string v with _ -> bad "%s=%S is not an integer" k v
  in
  let float_of k v =
    try float_of_string v with _ -> bad "%s=%S is not a number" k v
  in
  (* scalar keys must appear at most once: a spec like
     "kill:at=0,at=500" is a conflict the caller should hear about,
     not a silent last-write-wins *)
  let scalar_keys =
    [ "seed"; "victim"; "at"; "retries"; "backoff"; "deadline"; "prob" ]
  in
  List.iter
    (fun k ->
      let n = List.length (List.filter (fun (k', _) -> k' = k) kv) in
      if n > 1 then
        bad "key %S given %d times; scalar keys may appear at most once" k n)
    scalar_keys;
  let seed =
    match List.assoc_opt "seed" kv with
    | Some v -> Some (int_of "seed" v)
    | None -> seed
  in
  let rank =
    match List.assoc_opt "victim" kv with
    | Some v -> Some (int_of "victim" v)
    | None -> rank
  in
  let at =
    match List.assoc_opt "at" kv with
    | Some v -> Some (float_of "at" v)
    | None -> at
  in
  let base = plan_of_name ?seed ?rank ?at ~nranks name in
  let check_rank k r =
    if r < 0 || r >= nranks then
      bad "%s targets rank %d, out of range [0, %d)" k r nranks;
    r
  in
  let plan =
    List.fold_left
      (fun p (k, v) ->
        match k with
        | "seed" | "victim" | "at" -> p (* consumed above *)
        | "retries" -> { p with max_retries = int_of k v }
        | "backoff" -> { p with backoff = float_of k v }
        | "deadline" -> { p with deadline = float_of k v }
        | "prob" -> { p with drop_prob = float_of k v }
        | "kill" -> (
          match String.split_on_char '@' v with
          | [ r ] ->
            { p with kills = p.kills @ [ check_rank k (int_of k r), 0.0 ] }
          | [ r; t ] ->
            {
              p with
              kills = p.kills @ [ check_rank k (int_of k r), float_of k t ];
            }
          | _ -> bad "kill=%S is not RANK or RANK@TIME" v)
        | "stall" -> (
          match String.split_on_char '@' v with
          | [ r; t; d ] ->
            {
              p with
              stalls =
                p.stalls
                @ [ check_rank k (int_of k r), float_of k t, float_of k d ];
            }
          | _ -> bad "stall=%S is not RANK@TIME@DELAY" v)
        | "flip" -> (
          let flip r c b t =
            let b = int_of k b in
            if b < 0 || b > 63 then bad "flip bit %d out of range [0, 63]" b;
            let c = int_of k c in
            if c < 0 then bad "flip cell %d is negative" c;
            {
              p with
              flips =
                p.flips @ [ check_rank k (int_of k r), c, b, float_of k t ];
            }
          in
          match String.split_on_char '@' v with
          | [ r; c; b ] -> flip r c b "0"
          | [ r; c; b; t ] -> flip r c b t
          | _ -> bad "flip=%S is not RANK@CELL@BIT or RANK@CELL@BIT@TIME" v)
        | "corrupt-msg" -> (
          let corrupt n b sticky =
            let n = int_of k n in
            if n < 1 then bad "corrupt-msg ordinal %d is not >= 1" n;
            let b = int_of k b in
            if b < 0 then bad "corrupt-msg byte %d is negative" b;
            { p with corrupts = p.corrupts @ [ n, b, sticky ] }
          in
          match String.split_on_char '@' v with
          | [ n ] -> corrupt n "0" false
          | [ n; b ] -> corrupt n b false
          | [ n; b; "sticky" ] -> corrupt n b true
          | _ -> bad "corrupt-msg=%S is not N, N@BYTE or N@BYTE@sticky" v)
        | _ ->
          bad
            "unknown key %S (know: seed, victim, at, retries, backoff, \
             deadline, prob, kill, stall, flip, corrupt-msg)"
            k)
      base kv
  in
  { plan with name = spec }

let pp_action ppf = function
  | Drop n -> Format.fprintf ppf "drop first %d attempt(s)" n
  | Drop_all -> Format.fprintf ppf "drop all attempts (lose)"
  | Delay d -> Format.fprintf ppf "delay by %.6g" d
  | Duplicate -> Format.fprintf ppf "duplicate"

let pp_opt ppf = function
  | Some v -> Format.fprintf ppf "%d" v
  | None -> Format.fprintf ppf "*"

(* Each entry of [p] as {!pp_plan} prints it, tagged with whether it
   acts on MPI messages or ranks only (every kind but a flip). *)
let entries p =
  let f fmt = Format.asprintf fmt in
  List.map
    (fun r ->
      ( true,
        f "msg %a->%a tag %a: %a%s" pp_opt r.r_src pp_opt r.r_dst pp_opt
          r.r_tag pp_action r.r_action
          (if r.r_limit < 0 then ""
           else Printf.sprintf " (first %d msg(s))" r.r_limit) ))
    p.rules
  @ List.map
      (fun (r, at, d) -> true, f "stall rank %d at t>=%.6g for %.6g" r at d)
      p.stalls
  @ List.map (fun (r, at) -> true, f "kill rank %d at t>=%.6g" r at) p.kills
  @ List.map
      (fun (r, c, b, at) ->
        false, f "flip rank %d cell %d bit %d at t>=%.6g" r c b at)
      p.flips
  @ List.map
      (fun (n, b, sticky) ->
        ( true,
          f "corrupt packed msg #%d byte %d%s" n b
            (if sticky then " (sticky)" else "") ))
      p.corrupts

let pp_plan ppf p =
  Format.fprintf ppf
    "fault plan %S (seed %d, drop_prob %.6g, max_retries %d, backoff %.6g)"
    p.name p.seed p.drop_prob p.max_retries p.backoff;
  List.iter (fun (_, e) -> Format.fprintf ppf "@\n  %s" e) (entries p)

(** The entries of [p] that act only on MPI messages or ranks, as
    {!pp_plan} prints them: a random drop probability, message rules,
    stalls, kills and packed-message corruption. A program without MPI
    gives none of them anything to act on. *)
let mpi_entries p =
  (if p.drop_prob > 0.0 then [ Printf.sprintf "drop_prob %.6g" p.drop_prob ]
   else [])
  @ List.filter_map (fun (mpi, e) -> if mpi then Some e else None) (entries p)
