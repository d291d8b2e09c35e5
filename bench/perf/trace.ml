(* In-memory spans around the public calls the benchmark makes.

   [span] always times its call (two clock reads) and returns the
   duration, so per-layer numbers and end-to-end numbers come from the
   same clock: the process's CPU time (see [now]). Spans are only
   recorded when [enabled] is set; they are written once, at exit, as
   Chrome trace-event JSON. *)

module J = Parad_server.Json

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span; 0 at top level *)
  op : int;  (** operation id: one set-up, one gradient, one request *)
  t0 : float;  (** CPU seconds of the process, see [now] *)
  t1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref 0
let last_op = ref 0

(** Run [f] as a fresh operation: the spans it opens share one id. *)
let operation f =
  incr last_op;
  let saved = !current_op in
  current_op := !last_op;
  Fun.protect ~finally:(fun () -> current_op := saved) f

(** User plus system CPU seconds of this process, to the microsecond.
    Every workload runs on one domain, so this is the time the calling
    thread ran. On an unshared core it equals wall time. Unlike wall
    time, it leaves out the time the CPU runs other processes or, on a
    virtual machine with steal-time accounting, other tenants. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** [span name f] is [f ()] and its CPU time in milliseconds. *)
let span name f =
  if not !enabled then begin
    let t0 = now () in
    let v = f () in
    v, (now () -. t0) *. 1e3
  end
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      recorded := { id; name; parent; op = !current_op; t0; t1 } :: !recorded;
      (t1 -. t0) *. 1e3
    in
    match f () with
    | v -> v, finish ()
    | exception e ->
      ignore (finish ());
      raise e
  end

(** Total self time (span minus the time its children cover) and call
    count per span name, sorted by name. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0
          +. (s.t1 -. s.t0)))
    !recorded;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      let ms, n =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0)
      in
      Hashtbl.replace by_name s.name (ms +. (self *. 1e3), n + 1))
    !recorded;
  List.sort compare (Hashtbl.fold (fun k (ms, n) acc -> (k, ms, n) :: acc) by_name [])

(** Write every recorded span to [path] as Chrome trace-event JSON
    (complete events, microsecond timestamps from the earliest start). *)
let write path ~meta =
  let spans = List.rev !recorded in
  let origin = List.fold_left (fun t s -> Float.min t s.t0) Float.infinity spans in
  let us t = J.Num (Float.round ((t -. origin) *. 1e6)) in
  let num i = J.Num (float_of_int i) in
  let event s =
    J.Obj
      [
        "name", J.Str s.name;
        "ph", J.Str "X";
        "ts", us s.t0;
        "dur", J.Num (Float.round ((s.t1 -. s.t0) *. 1e6));
        "pid", num 1;
        "tid", num 1;
        "args", J.Obj [ "id", num s.id; "parent", num s.parent; "op", num s.op ];
      ]
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            "traceEvents", J.Arr (List.map event spans);
            "displayTimeUnit", J.Str "ms";
            "otherData", J.Obj meta;
          ]));
  output_char oc '\n';
  close_out oc
