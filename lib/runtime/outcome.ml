(** The exit-code taxonomy. Every outcome of a run has exactly one
    class, and every class one code, 0–9: [parad] exits with it, the
    gradient service answers it in a response's [code] field, and the
    chaos soak reports it for a trial that aborted cleanly. This module
    is the only place that maps an exception to a class, or a class to
    a code. *)

type t =
  | Ok  (** completed, nothing to report *)
  | Findings  (** completed, but an audit or the sanitizer found issues *)
  | Invalid  (** a request or command line that names no runnable job *)
  | Runtime_error
  | San_strict  (** GradSan's strict mode aborted at a non-finite value *)
  | Error  (** any exception the runtime does not raise itself *)
  | Deadlock
  | Rank_failed  (** a killed rank that nothing recovered *)
  | Degraded  (** finished, but recovered lossily or quarantined values *)
  | Miscompile  (** a dynamic race on memory statically claimed private *)
  | Deadline
  | Overloaded  (** shed by the service's admission queue *)
  | Breaker_open  (** refused by an open per-plan circuit breaker *)
  | Corrupted  (** detected data corruption that nothing recovered *)

(* the one table: each class, its protocol name and its exit code *)
let table =
  [
    Ok, "ok", 0;
    Findings, "findings", 1;
    Invalid, "invalid", 2;
    Runtime_error, "runtime_error", 2;
    San_strict, "san_strict", 2;
    Error, "error", 2;
    Deadlock, "deadlock", 3;
    Rank_failed, "rank_failed", 3;
    Degraded, "degraded", 4;
    Miscompile, "miscompile", 5;
    Deadline, "deadline", 6;
    Overloaded, "overloaded", 7;
    Breaker_open, "breaker_open", 8;
    Corrupted, "corrupted", 9;
  ]

let entry c = List.find (fun (c', _, _) -> c' = c) table
let name c = match entry c with _, n, _ -> n
let code c = match entry c with _, _, k -> k

let of_name n =
  List.find_map (fun (c, n', _) -> if n' = n then Some c else None) table

(** A request or command line that cannot start a run; its message is
    the reason, printed as it is. *)
exception Invalid_request of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid_request m)) fmt

(** [classify e] is the class of a run that raised [e], and a report of
    what went wrong: the line [parad] prints and the service's [error]
    field. Total: an exception the runtime does not raise itself is an
    [Error]. *)
let classify = function
  | Invalid_request m -> Invalid, m
  | Sim.Deadlock d -> Deadlock, Format.asprintf "%a" Sim.pp_diagnosis d
  | Sim.Deadline_exceeded d ->
    Deadline, Format.asprintf "%a" Sim.pp_deadline_hit d
  | Mpi_state.Rank_failed n ->
    Rank_failed, Format.asprintf "%a" Mpi_state.pp_failure n
  | Mpi_state.Corrupt_message c ->
    Corrupted, Format.asprintf "%a" Mpi_state.pp_corruption c
  | Checkpoint.Corrupt_region { cr_rank; cr_cache; cr_at } ->
    ( Corrupted,
      Printf.sprintf
        "silent data corruption: rank %d cache %d digest mismatch at t=%.0f"
        cr_rank cr_cache cr_at )
  | Checkpoint.Snapshot_unavailable { su_rank; su_id; su_corrupt } ->
    ( Runtime_error,
      Printf.sprintf "runtime error: snapshot (%d, %d) %s" su_rank su_id
        (if su_corrupt then "corrupt" else "missing") )
  | Value.Nonfinite_strict m ->
    San_strict, "gradient-integrity violation (strict): " ^ m
  | Value.Runtime_error m | Invalid_argument m ->
    Runtime_error, "runtime error: " ^ m
  | Failure m -> Error, "error: " ^ m
  | e -> Error, "error: " ^ Printexc.to_string e

(** The failures a supervisor retries: a killed rank, a missing or
    corrupt snapshot, and detected data corruption. *)
let transient = function
  | Mpi_state.Rank_failed _ | Checkpoint.Snapshot_unavailable _
  | Mpi_state.Corrupt_message _ | Checkpoint.Corrupt_region _ ->
    true
  | _ -> false

(** [consumed plan e] is [plan] without the event whose firing raised
    the transient failure [e]: the killed rank's kill, the caught flip,
    or the sticky message corruption. A supervisor replays on it, so
    each such event fires once. Any other failure consumed nothing. *)
let consumed plan = function
  | Mpi_state.Rank_failed n -> Faults.consume_kill plan ~rank:n.fn_failed
  | Mpi_state.Corrupt_message _ -> Faults.consume_corrupt plan
  | Checkpoint.Corrupt_region { cr_rank; _ } ->
    Faults.consume_flip plan ~rank:cr_rank
  | _ -> plan
