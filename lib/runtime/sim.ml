(** Deterministic virtual-time execution engine.

    Parallelism (fork/join teams, barriers, tasks, and the events behind
    message passing) is simulated with cooperative strands implemented on
    OCaml effect handlers. Each strand carries a virtual clock; running
    code charges costs to the current strand's clock, and synchronization
    points combine clocks (join and barrier take maxima, events carry
    ready-times). Scheduling is run-to-block with a FIFO ready queue, so
    executions are fully deterministic; for programs whose observable
    behaviour does not depend on interleaving (the only programs with
    defined semantics, cf. §VI-D of the paper) the virtual times are
    exactly those of a time-ordered interleaving.

    The engine supports nested teams: the SPMD harness creates one strand
    per MPI rank, and an OpenMP [Fork] inside a rank creates a sub-team. *)

open Effect
open Effect.Deep

(** One parked strand in a wait-for report: who is blocked, at what
    virtual time, and a human-readable description of the operation it is
    waiting on (receive peer/tag, collective arrivals, barrier, task). *)
type blocked = {
  b_sid : int;
  b_tid : int;  (** index within the creating team (rank id for SPMD) *)
  b_width : int;
  b_clock : float;
  b_desc : string;
}

(** Structured replacement for the old [Deadlock of string]: the full
    wait-for state at the moment the scheduler ran out of runnable
    strands. Deterministic (strand ids, clocks and descriptions are all
    functions of the virtual-time execution), so the rendered report is
    byte-identical across reruns of the same seed. *)
type diagnosis = {
  d_live : int;  (** strands created and not finished *)
  d_blocked : blocked list;  (** parked strands, sorted by strand id *)
  d_note : string;
}

exception Deadlock of diagnosis

(** Per-run execution deadline (ISSUE 7): [dl_cycles] bounds the virtual
    clock of any strand — exceeding it cancels the run with
    {!Deadline_exceeded} at the next cost charge — and [dl_wall_ms]
    arms a wall-clock watchdog (checked every few thousand charges and
    at every context switch) that catches runs whose *host* time
    explodes even though virtual time advances slowly. Both checks leave
    the engine cleanly unwound: the exception propagates through
    {!run}'s cleanup, so a long-lived caller (the gradient service) can
    classify the abort and keep serving. *)
type deadline = {
  dl_cycles : float option;  (** virtual-time budget, in cycles *)
  dl_wall_ms : float option;  (** wall-clock budget, in milliseconds *)
}

let no_deadline = { dl_cycles = None; dl_wall_ms = None }

type deadline_hit = {
  de_at : float;  (** virtual clock when the deadline tripped *)
  de_limit : float;  (** the budget: cycles, or the wall budget in ms *)
  de_wall : bool;  (** true = the wall-clock watchdog fired *)
}

exception Deadline_exceeded of deadline_hit

let pp_deadline_hit ppf d =
  if d.de_wall then
    Format.fprintf ppf
      "deadline exceeded: wall-clock watchdog fired after %gms (virtual \
       t=%.6g)"
      d.de_limit d.de_at
  else
    Format.fprintf ppf
      "deadline exceeded: virtual clock %.6g passed the %.6g-cycle budget"
      d.de_at d.de_limit

let () =
  Printexc.register_printer (function
    | Deadline_exceeded d -> Some (Format.asprintf "%a" pp_deadline_hit d)
    | _ -> None)

let pp_blocked ppf b =
  Format.fprintf ppf "strand %d (tid %d/%d, t=%.6g): %s" b.b_sid b.b_tid
    b.b_width b.b_clock b.b_desc

let pp_diagnosis ppf d =
  Format.fprintf ppf "deadlock: %s; %d live strand(s), %d parked:" d.d_note
    d.d_live
    (List.length d.d_blocked);
  List.iter (fun b -> Format.fprintf ppf "@\n  %a" pp_blocked b) d.d_blocked

let diagnosis_to_string d = Format.asprintf "%a" pp_diagnosis d

let () =
  Printexc.register_printer (function
    | Deadlock d -> Some (diagnosis_to_string d)
    | _ -> None)

(** A strand's virtual clock. A one-field all-float record is stored
    flat, so a charge updates the cell in place without allocating (a
    [mutable float] field of the mixed [strand] record would box every
    new value). The compiled engine's sequential threads hold their
    strand's cell and charge it directly. *)
type clk = { mutable now : float }

type strand = {
  sid : int;
  clock : clk;
  tid : int;  (** index within the creating team (or rank id, or 0) *)
  width : int;  (** size of the creating team *)
  socket : int;
  team : team option;  (** team this strand belongs to, for barriers *)
}

and team = {
  twidth : int;
  mutable remaining : int;
  mutable max_finish : float;
  (* barrier rendezvous state *)
  mutable arrived : int;
  mutable bmax : float;
  mutable bwaiters : parked list;
}

and parked = P : strand * (unit, unit) continuation -> parked

type task = {
  mutable finished : float option;
  mutable twaiters : parked list;
}

type event = {
  mutable ready : float option;
  mutable ewaiters : parked list;
  mutable elabel : (unit -> string) option;
      (** wait-for description, rendered lazily at diagnosis time *)
}

type engine = {
  cost : Cost_model.t;
  stats : Stats.t;
  ready_q : (strand * (unit -> unit)) Queue.t;
  mutable current : strand;
  mutable nsid : int;
  mutable live : int;  (** strands created and not yet finished *)
  mutable makespan : float;
  parked_on : (int, strand * (unit -> string)) Hashtbl.t;
      (** sid -> (strand, blocked-on description) for every parked strand *)
  (* deadline enforcement; [guarded] caches "any deadline armed" so the
     per-charge hot path stays one branch on fault-free runs *)
  guarded : bool;
  vdeadline : float option;
  wall_stop : float option;  (** absolute [Unix.gettimeofday] cutoff *)
  wall_ms : float;  (** the configured wall budget, for the report *)
  mutable wall_tick : int;
}

type _ Effect.t +=
  | E_fork : int * (int -> int) * (tid:int -> width:int -> unit) -> unit Effect.t
      (** width, socket-of-tid, body *)
  | E_spawn : float * (unit -> unit) -> task Effect.t  (** start clock, body *)
  | E_sync : task -> unit Effect.t
  | E_barrier : unit Effect.t
  | E_wait : event -> unit Effect.t

let engine_ref : engine option ref = ref None

let eng () =
  match !engine_ref with
  | Some e -> e
  | None -> invalid_arg "Sim: no engine running (use Sim.run)"

let cost () = (eng ()).cost
let stats () = (eng ()).stats
let self () = (eng ()).current
let now () = (self ()).clock.now

(* Wall-clock probes cost a syscall; amortize them over charges. The
   mask trades detection latency for overhead — 4096 charges is well
   under a millisecond of host time. *)
let wall_mask = 4095

let check_deadline e (c : clk) =
  (match e.vdeadline with
  | Some d when c.now > d ->
    raise (Deadline_exceeded { de_at = c.now; de_limit = d; de_wall = false })
  | _ -> ());
  match e.wall_stop with
  | Some stop ->
    e.wall_tick <- e.wall_tick + 1;
    if e.wall_tick land wall_mask = 0 && Unix.gettimeofday () > stop then
      raise
        (Deadline_exceeded
           { de_at = c.now; de_limit = e.wall_ms; de_wall = true })
  | None -> ()

let charge c =
  let e = eng () in
  let st = e.current in
  st.clock.now <- st.clock.now +. c;
  if e.guarded then check_deadline e st.clock
let set_clock t = (self ()).clock.now <- t
let socket () = (self ()).socket

(** The armed deadline of the running engine, as
    [(virtual_budget, wall_cutoff, wall_ms)] — read by the compiled
    execution engine so its native charge path enforces the same limits
    the interpreter's {!charge} does. *)
let deadline_view () =
  let e = eng () in
  (e.vdeadline, e.wall_stop, e.wall_ms)

let enqueue e st thunk = Queue.add (st, thunk) e.ready_q

let resume e st k =
  Hashtbl.remove e.parked_on st.sid;
  enqueue e st (fun () -> continue k ())

let park e st desc = Hashtbl.replace e.parked_on st.sid (st, desc)

let finish_strand e clock =
  e.live <- e.live - 1;
  if clock > e.makespan then e.makespan <- clock

(* Run [f] as the body of [st]; [on_finish] is invoked (on the scheduler
   stack) with the strand's final clock. The handler never resumes a
   continuation inline: parked strands go through the ready queue, keeping
   the scheduler stack depth constant. *)
let rec run_strand e st f (on_finish : float -> unit) =
  match_with f ()
    {
      retc =
        (fun () ->
          finish_strand e st.clock.now;
          on_finish st.clock.now);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_fork (width, socket_of, body) ->
            Some
              (fun (k : (a, _) continuation) ->
                e.stats.forks <- e.stats.forks + 1;
                let t =
                  {
                    twidth = width;
                    remaining = width;
                    max_finish = 0.0;
                    arrived = 0;
                    bmax = 0.0;
                    bwaiters = [];
                  }
                in
                let start =
                  st.clock.now +. Cost_model.fork_cost e.cost ~width
                in
                let parent = st in
                for tid = 0 to width - 1 do
                  let child =
                    {
                      sid =
                        (e.nsid <- e.nsid + 1;
                         e.nsid);
                      clock = { now = start };
                      tid;
                      width;
                      socket = socket_of tid;
                      team = Some t;
                    }
                  in
                  e.live <- e.live + 1;
                  enqueue e child (fun () ->
                      run_strand e child
                        (fun () -> body ~tid ~width)
                        (fun clock ->
                          if clock > t.max_finish then t.max_finish <- clock;
                          t.remaining <- t.remaining - 1;
                          if t.remaining = 0 then begin
                            parent.clock.now <- t.max_finish +. e.cost.join;
                            resume e parent k
                          end))
                done)
          | E_spawn (start, body) ->
            Some
              (fun (k : (a, _) continuation) ->
                e.stats.tasks <- e.stats.tasks + 1;
                let task = { finished = None; twaiters = [] } in
                let parent = st in
                let child =
                  {
                    sid =
                      (e.nsid <- e.nsid + 1;
                       e.nsid);
                    clock = { now = start };
                    tid = st.tid;
                    width = st.width;
                    socket = st.socket;
                    team = st.team;
                  }
                in
                e.live <- e.live + 1;
                enqueue e child (fun () ->
                    run_strand e child body (fun clock ->
                        task.finished <- Some clock;
                        List.iter
                          (fun (P (w, wk)) ->
                            w.clock.now <-
                              Float.max w.clock.now clock +. e.cost.task_sync;
                            resume e w wk)
                          task.twaiters;
                        task.twaiters <- []));
                enqueue e parent (fun () -> continue k task))
          | E_sync task ->
            Some
              (fun (k : (a, _) continuation) ->
                match task.finished with
                | Some clock ->
                  st.clock.now <-
                    Float.max st.clock.now clock +. e.cost.task_sync;
                  resume e st k
                | None ->
                  park e st (fun () -> "sync on an unfinished task");
                  task.twaiters <- P (st, k) :: task.twaiters)
          | E_barrier ->
            Some
              (fun (k : (a, _) continuation) ->
                e.stats.barriers <- e.stats.barriers + 1;
                match st.team with
                | None ->
                  (* A barrier with no team (width 1) is a no-op. *)
                  resume e st k
                | Some t ->
                  t.arrived <- t.arrived + 1;
                  if st.clock.now > t.bmax then t.bmax <- st.clock.now;
                  if t.arrived < t.twidth then begin
                    park e st (fun () ->
                        Printf.sprintf "team barrier (%d/%d arrived)"
                          t.arrived t.twidth);
                    t.bwaiters <- P (st, k) :: t.bwaiters
                  end
                  else begin
                    let release =
                      t.bmax +. Cost_model.barrier_cost e.cost ~width:t.twidth
                    in
                    st.clock.now <- release;
                    let waiters = t.bwaiters in
                    t.bwaiters <- [];
                    t.arrived <- 0;
                    t.bmax <- 0.0;
                    List.iter
                      (fun (P (w, wk)) ->
                        w.clock.now <- release;
                        resume e w wk)
                      waiters;
                    resume e st k
                  end)
          | E_wait ev ->
            Some
              (fun (k : (a, _) continuation) ->
                match ev.ready with
                | Some t ->
                  st.clock.now <- Float.max st.clock.now t;
                  resume e st k
                | None ->
                  park e st (fun () ->
                      match ev.elabel with
                      | Some f -> f ()
                      | None -> "an unfilled event");
                  ev.ewaiters <- P (st, k) :: ev.ewaiters)
          | _ -> None);
    }

(* ---- public API used from simulated code ---- *)

let fork ?socket_of ~width body =
  let e = eng () in
  let socket_of =
    match socket_of with
    | Some f -> f
    | None -> fun tid -> Cost_model.socket_of e.cost ~index:tid ~width
  in
  if width = 1 then begin
    (* Degenerate team: run inline, but still pay the overheads. *)
    charge (Cost_model.fork_cost e.cost ~width:1);
    body ~tid:0 ~width:1;
    charge e.cost.join
  end
  else perform (E_fork (width, socket_of, body))

let spawn body =
  let e = eng () in
  let st = self () in
  st.clock.now <- st.clock.now +. e.cost.task_spawn;
  perform (E_spawn (st.clock.now, body))

let sync task = perform (E_sync task)
let barrier () = perform E_barrier

let event ?label () = { ready = None; ewaiters = []; elabel = label }

let event_fill ev ~time =
  let e = eng () in
  (match ev.ready with
  | Some _ -> invalid_arg "Sim.event_fill: already filled"
  | None -> ());
  ev.ready <- Some time;
  List.iter
    (fun (P (w, wk)) ->
      w.clock.now <- Float.max w.clock.now time;
      resume e w wk)
    ev.ewaiters;
  ev.ewaiters <- []

let event_wait ev = perform (E_wait ev)

(** Run [main] under a fresh engine. Returns the result, the makespan
    (largest strand finish time, i.e. the modeled runtime), and the
    engine's stats. *)
let run ?(cost = Cost_model.default) ?(stats = Stats.create ())
    ?(deadline = no_deadline) main =
  (match !engine_ref with
  | Some _ -> invalid_arg "Sim.run: engine already running (no nesting)"
  | None -> ());
  let root =
    {
      sid = 0;
      clock = { now = 0.0 };
      tid = 0;
      width = 1;
      socket = 0;
      team = None;
    }
  in
  let vdeadline = deadline.dl_cycles in
  let wall_ms = Option.value deadline.dl_wall_ms ~default:0.0 in
  let wall_stop =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (ms /. 1000.))
      deadline.dl_wall_ms
  in
  let e =
    {
      cost;
      stats;
      ready_q = Queue.create ();
      current = root;
      nsid = 0;
      live = 1;
      makespan = 0.0;
      parked_on = Hashtbl.create 16;
      guarded = vdeadline <> None || wall_stop <> None;
      vdeadline;
      wall_stop;
      wall_ms;
      wall_tick = 0;
    }
  in
  engine_ref := Some e;
  let result = ref None in
  let cleanup () = engine_ref := None in
  (try
     run_strand e root
       (fun () -> result := Some (main ()))
       (fun _ -> ());
     while not (Queue.is_empty e.ready_q) do
       let st, thunk = Queue.pop e.ready_q in
       e.current <- st;
       e.stats.context_switches <- e.stats.context_switches + 1;
       if e.guarded then check_deadline e st.clock;
       thunk ()
     done
   with ex ->
     cleanup ();
     raise ex);
  cleanup ();
  let diagnose note =
    let blocked =
      Hashtbl.fold
        (fun _ (st, desc) acc ->
          {
            b_sid = st.sid;
            b_tid = st.tid;
            b_width = st.width;
            b_clock = st.clock.now;
            b_desc = desc ();
          }
          :: acc)
        e.parked_on []
      |> List.sort (fun a b -> compare a.b_sid b.b_sid)
    in
    { d_live = e.live; d_blocked = blocked; d_note = note }
  in
  if e.live > 0 then
    raise
      (Deadlock
         (diagnose
            (Printf.sprintf "%d strand(s) blocked with empty ready queue"
               e.live)));
  match !result with
  | Some r -> r, e.makespan, e.stats
  | None -> raise (Deadlock (diagnose "main strand never completed"))
