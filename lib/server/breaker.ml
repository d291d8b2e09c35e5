(** Per-plan-key circuit breaker.

    One poisoned program (a fault plan that deadlocks, a flag combination
    that always trips the sanitizer) must not monopolize the worker pool:
    after [k] consecutive failures on a key, the breaker opens and
    requests on that key are rejected immediately (class
    [breaker_open]) without executing. After [cooldown] further
    submissions on the key, it half-opens: the next request runs as a
    probe — success closes the breaker (a recovery), failure re-opens
    it for another cooldown.

    Time is counted in submissions on the key, not wall time: the
    service's admission model is virtual-time deterministic, and a
    submission-counted cooldown keeps trip/half-open/recover sequences
    exactly reproducible under seeded chaos (the [parad slam]
    acceptance criterion). *)

type state =
  | Closed
  | Open of int  (** submissions on this key remaining until half-open *)
  | Half_open  (** next outcome decides: close (recovery) or re-open *)

type t = {
  k : int;  (** consecutive failures that trip the breaker *)
  cooldown : int;  (** rejected submissions before half-opening *)
  mutable state : state;
  mutable consecutive : int;  (** consecutive failures while closed *)
  mutable trips : int;
  mutable probes : int;
  mutable recoveries : int;
}

let create ~k ~cooldown =
  if k < 1 then invalid_arg "Breaker.create: k must be >= 1";
  if cooldown < 1 then invalid_arg "Breaker.create: cooldown must be >= 1";
  {
    k;
    cooldown;
    state = Closed;
    consecutive = 0;
    trips = 0;
    probes = 0;
    recoveries = 0;
  }

type admission = Admit | Probe | Reject

(** Called once per submission on the key, before execution. [Reject]
    means answer [breaker_open] without running; [Probe] admits the
    half-open trial request. *)
let admit t =
  match t.state with
  | Closed -> Admit
  | Half_open ->
    t.probes <- t.probes + 1;
    Probe
  | Open 1 ->
    (* the last cooldown submission is still rejected; the next probes *)
    t.state <- Half_open;
    Reject
  | Open n ->
    t.state <- Open (n - 1);
    Reject

(** Record the outcome of an admitted (or probe) execution. *)
let record t ~ok =
  match t.state with
  | Open _ -> ()  (* rejected requests never report outcomes *)
  | Half_open ->
    if ok then begin
      t.state <- Closed;
      t.consecutive <- 0;
      t.recoveries <- t.recoveries + 1
    end
    else begin
      t.state <- Open t.cooldown;
      t.trips <- t.trips + 1
    end
  | Closed ->
    if ok then t.consecutive <- 0
    else begin
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= t.k then begin
        t.state <- Open t.cooldown;
        t.consecutive <- 0;
        t.trips <- t.trips + 1
      end
    end

let state t = t.state
