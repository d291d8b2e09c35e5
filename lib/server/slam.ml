(** [parad slam]: a seeded chaos client for the gradient service.

    Drives a {!Service.t} through its full protocol surface (every
    request and response passes through the JSON codec, exactly as on
    the socket) with splitmix64-drawn request mixes, and checks the
    service's robustness contract:

    - every response is classified (a [class] field naming a class of
      the taxonomy, and that class's [code]) — no request, however
      hostile, produces an unclassified error or kills the daemon;
    - warm-plan gradients are bit-identical to cold compiles (digest
      equality on repeat requests, and binomial-vs-monolithic equality
      across distinct plan keys);
    - overload bursts shed with structured [overloaded] responses;
    - a poisoned plan key trips its circuit breaker and, after the
      cooldown, half-opens and recovers;
    - drain is graceful: a summary is produced and late requests are
      refused with a classified response.

    Deterministic end to end: the request stream is a pure function of
    the seed and the simulator is virtual-time deterministic, so a
    failing slam replays exactly. *)

module Bitmix = Parad_runtime.Bitmix
module Outcome = Parad_runtime.Outcome

type report = {
  s_seed : int;
  s_requests : int;  (** protocol lines sent, control lines excluded *)
  s_responses : int;
  s_unclassified : int;  (** responses without a documented class/code *)
  s_mismatches : int;  (** warm digests that differed from cold *)
  s_shed : int;
  s_trips : int;
  s_recoveries : int;
  s_drained : bool;
  s_classes : (string * int) list;  (** class histogram, sorted *)
}

let num f j =
  match Json.num_field f j with Some v -> Some v | None -> None

(* one exchange: request object in, parsed response out *)
let call svc ~stats j =
  let line = Service.handle_line svc (Json.to_string j) in
  match Json.of_string line with
  | Error m -> failwith ("slam: server emitted unparseable JSON: " ^ m)
  | Ok r ->
    (match Json.str_field "class" r with
    | Some cls -> (
      stats := (cls, 1 + Option.value (List.assoc_opt cls !stats) ~default:0)
               :: List.remove_assoc cls !stats;
      match Outcome.of_name cls, num "code" r with
      | Some c, Some code when code = float_of_int (Outcome.code c) -> ()
      | _ -> failwith ("slam: undocumented class or code: " ^ line))
    | None ->
      if Json.str_field "event" r = None then
        failwith ("slam: unclassified response: " ^ line));
    r

let obj = List.filter_map (fun (k, v) -> Option.map (fun v -> k, v) v)

let req fields = Json.Obj (obj fields)

let some_num v = Some (Json.Num v)
let some_str s = Some (Json.Str s)

(** Run one slam of [trials] mixed chaos requests (plus the directed
    warm/cold, overload, breaker and drain phases — the total is
    [trials] + ~30). [log], when given, receives one line per phase. *)
let run ?(trials = 50) ?log ~seed () : report =
  let say fmt =
    Printf.ksprintf (fun m -> match log with Some f -> f m | None -> ()) fmt
  in
  let cfg =
    {
      Service.workers = 2;
      queue_cap = 2;
      cache_cap = 6;
      breaker_k = 2;
      breaker_cooldown = 2;
      retries = 2;
      (* wall watchdog off for determinism; virtual deadlines only *)
      watchdog_ms = None;
    }
  in
  let svc = Service.create ~cfg () in
  let stats = ref [] in
  let sent = ref 0 and responses = ref 0 in
  let unclassified = ref 0 and mismatches = ref 0 in
  let send j =
    incr sent;
    match call svc ~stats j with
    | r ->
      incr responses;
      r
    | exception Failure m ->
      incr responses;
      incr unclassified;
      say "UNCLASSIFIED: %s" m;
      Json.Obj []
  in
  let digest_of r = Json.str_field "digest" r in

  (* phase 1: warm-plan bit-identity. Cold compile, then repeats on the
     warm plan; then the binomial driver (a different plan key) must
     produce the same gradient bits as the monolithic sweep. *)
  say "phase warm/cold: digests must be bit-identical";
  let base flavor nranks =
    [ "flavor", some_str flavor; "nranks", some_num (float_of_int nranks);
      "niter", some_num 2.0 ]
  in
  let check_warm fields =
    let cold = send (req fields) in
    let warm = send (req fields) in
    (match Json.bool_field "cached" warm with
    | Some true -> ()
    | _ -> incr mismatches);
    if digest_of cold = None || digest_of cold <> digest_of warm then begin
      incr mismatches;
      say "MISMATCH: warm digest differs: %s" (Json.to_string warm)
    end;
    digest_of cold
  in
  let d_mono = check_warm (base "mpi" 2) in
  ignore (check_warm (("app", some_str "bude") :: base "omp" 1));
  let d_binom =
    check_warm (("snap_budget", some_num 2.0) :: base "mpi" 2)
  in
  if d_mono = None || d_mono <> d_binom then begin
    incr mismatches;
    say "MISMATCH: binomial digest differs from store-all"
  end;

  (* phase 2: seeded chaos mix *)
  say "phase chaos: %d seeded mixed requests" trials;
  let r = Bitmix.rng seed in
  for i = 1 to trials do
    let fields =
      match Bitmix.draw_int r 10 with
      | 0 ->
        (* plain valid request, varied shape *)
        ("niter", some_num (float_of_int (1 + Bitmix.draw_int r 3)))
        :: base (if Bitmix.draw_bool r 0.5 then "mpi" else "seq")
             (if Bitmix.draw_bool r 0.5 then 2 else 1)
      | 1 ->
        (* invalid flags *)
        (match Bitmix.draw_int r 4 with
        | 0 -> [ "flavor", some_str "cuda" ]
        | 1 -> [ "nranks", some_num 3.0 ]
        | 2 -> [ "niter", some_num (-1.0) ]
        | _ -> [ "app", some_str "lulesh"; "escale", some_num 0.0 ])
      | 2 ->
        (* recoverable fault plan: the retry path consumes the kill *)
        ("faults", some_str "kill")
        :: ("fault_seed", some_num (float_of_int (Bitmix.draw_int r 1000)))
        :: base "mpi" 2
      | 3 ->
        (* kill mid-run at a drawn virtual time (including mid-reverse) *)
        ("faults", some_str "kill")
        :: ("fault_at", some_num (float_of_int (Bitmix.draw_int r 2_000_000)))
        :: base "mpi" 2
      | 4 ->
        (* unrecoverable: blackhole → deadlock, classified code 3 *)
        ("faults", some_str "blackhole") :: base "mpi" 2
      | 5 ->
        (* NaN injection under the sanitizer, strict or degrade *)
        ("inject_nan", some_num (float_of_int (Bitmix.draw_int r 4)))
        :: ( "sanitize",
             some_str (if Bitmix.draw_bool r 0.5 then "strict" else "on") )
        :: base "omp" 1
      | 6 ->
        (* deadline-busting horizon: a virtual budget far below the work *)
        ( "deadline_cycles",
          some_num (float_of_int (1 + Bitmix.draw_int r 50_000)) )
        :: ("niter", some_num 4.0) :: base "mpi" 2
      | 7 ->
        (* binomial under a drawn budget *)
        ("snap_budget", some_num (float_of_int (1 + Bitmix.draw_int r 3)))
        :: ("niter", some_num (float_of_int (2 + Bitmix.draw_int r 4)))
        :: base "mpi" 2
      | 8 ->
        (* SDC bit flip into sealed cache memory; the retry path
           consumes the fired flip so the replay is clean — on either
           app (bude exercises the single-rank envelope) *)
        let spec =
          Printf.sprintf "none:flip=0@%d@%d@%d" (Bitmix.draw_int r 10_000)
            (Bitmix.draw_int r 64)
            (Bitmix.draw_int r 500_000)
        in
        let tail =
          if Bitmix.draw_bool r 0.5 then
            ("app", some_str "bude") :: base "omp" 1
          else base "mpi" 2
        in
        ("faults", some_str spec) :: tail
      | _ ->
        (* SDC in-flight message corruption: non-sticky recovers by
           retransmit alone; sticky exhausts the ladder and leans on the
           request retry budget (or classifies as corrupted, code 9) *)
        let spec =
          Printf.sprintf "none:retries=3,corrupt-msg=%d@%d%s"
            (1 + Bitmix.draw_int r 4) (Bitmix.draw_int r 512)
            (if Bitmix.draw_bool r 0.5 then "@sticky" else "")
        in
        ("faults", some_str spec) :: base "mpi" 2
    in
    let j = req (("id", some_num (float_of_int (1000 + i))) :: fields) in
    ignore (send j)
  done;

  (* phase 3: overload burst — all arrivals at one virtual instant, 2
     workers, queue cap 2 → deterministic shedding *)
  say "phase overload: burst of 8 into workers=2 cap=2";
  for i = 1 to 8 do
    ignore
      (send
         (req
            (("id", some_num (float_of_int (2000 + i)))
            :: ("burst", Some (Json.Bool true))
            :: base "seq" 1)))
  done;

  (* phase 4: trip the breaker on one key, then watch it recover. The
     fault plan is not part of the plan key, so poisoned and clean
     requests share a breaker. *)
  say "phase breaker: trip with deadlocks, then recover";
  let hybrid = base "hybrid" 2 in
  for _ = 1 to cfg.Service.breaker_k do
    ignore (send (req (("faults", some_str "blackhole") :: hybrid)))
  done;
  let rejected = ref 0 in
  for _ = 1 to cfg.Service.breaker_cooldown do
    let r = send (req hybrid) in
    if Json.str_field "class" r = Some "breaker_open" then incr rejected
  done;
  let probe = send (req hybrid) in
  if Json.str_field "class" probe <> Some "ok" then begin
    incr unclassified;
    say "BREAKER: probe did not recover: %s" (Json.to_string probe)
  end;

  (* phase 5: graceful drain — summary out, late requests refused *)
  say "phase drain";
  let drained =
    match
      Json.of_string
        (Service.handle_line svc {|{"cmd": "drain"}|})
    with
    | Ok d -> Json.str_field "event" d = Some "drained"
    | Error _ -> false
  in
  let late = send (req (base "seq" 1)) in
  if Json.str_field "class" late <> Some "overloaded" then incr unclassified;

  let trips, _, recoveries = Service.breaker_totals svc in
  {
    s_seed = seed;
    s_requests = !sent;
    s_responses = !responses;
    s_unclassified = !unclassified;
    s_mismatches = !mismatches;
    s_shed = svc.Service.shed;
    s_trips = trips;
    s_recoveries = recoveries;
    s_drained = drained;
    s_classes = List.sort compare !stats;
  }

(** The slam passes iff nothing was unclassified, warm results matched
    cold bit-for-bit, overload shed at least once, the breaker tripped
    and recovered, and the drain was graceful. *)
let passed r =
  r.s_unclassified = 0 && r.s_mismatches = 0 && r.s_shed > 0 && r.s_trips > 0
  && r.s_recoveries > 0 && r.s_drained
