(* The gradient benchmark: five workloads, end-to-end metrics from an
   untraced run, per-layer metrics from a traced one, and every gradient
   checked against an oracle. Times are the process's CPU time
   ([Trace.now]); run lengths are wall time.

     perf.exe [--seed N] [--seconds S] [--trace 0|1|DIR] [--smoke]
              [--workload NAME] [--dump-requests FILE]
     perf.exe --compare RUN1 RUN2

   Without --workload it re-executes itself once per workload, one after
   another, so the peak RSS and GC state of one workload never reach
   the next. Each workload prints lines
   "<workload> <metric> <value> <unit> (n=<samples>)" and, last, one
   JSON object {correct, attempted, failed, metrics}; it exits 1 when
   any gradient is wrong. --compare checks that every end-to-end metric
   of RUN2 lies within its BENCHMARK.json bound of RUN1's. *)

module E = Parad_engine.Engine
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module S = Parad_runtime.Stats
module SV = Parad_server.Service
module PC = Parad_server.Plan_cache
module J = Parad_server.Json

(* ---- metrics ---- *)

let e2e_units =
  [
    "setup_s", "s";
    "grad_vs_primal_p50", "ratio";
    "grad_vs_primal_p90", "ratio";
    "grad_vs_ref_p50", "ratio";
    "overhead_x", "ratio";
    "makespan_mcycles", "Mcycles";
    "peak_rss_mb", "MB";
  ]

let layer_units =
  [
    "ir.build_ms", "ms";
    "ir.primal_instrs", "count";
    "core.reverse_ms", "ms";
    "core.dprog_instrs", "count";
    "opt.post_ad_ms", "ms";
    "opt.mem_forward_ms", "ms";
    "opt.constfold_ms", "ms";
    "opt.cse_ms", "ms";
    "opt.licm_ms", "ms";
    "opt.dce_ms", "ms";
    "opt.post_ad_instrs", "count";
    "engine.prepare_ms", "ms";
    "engine.lower_ms", "ms";
    "engine.ns_per_instr", "ns";
    "engine.fallbacks", "count";
    "runtime.sim_ms", "ms";
    "runtime.fwd_ms", "ms";
    "runtime.fwd_mcycles", "Mcycles";
    "runtime.instrs", "count";
    "runtime.flops", "count";
    "runtime.loads", "count";
    "runtime.stores", "count";
    "runtime.atomics", "count";
    "runtime.forks", "count";
    "runtime.barriers", "count";
    "runtime.context_switches", "count";
    "runtime.cache_stores", "count";
    "runtime.cache_loads", "count";
    "runtime.cache_peak", "count";
    "runtime.mpi_messages", "count";
    "runtime.mpi_msgs_sent", "count";
    "runtime.mpi_cells_sent", "count";
    "runtime.mpi_max_inflight", "count";
    "apps.harness_ms", "ms";
    "tape.entries", "count";
    "tape.ns_per_entry", "ns";
    "server.hit_ratio", "ratio";
    "server.misses", "count";
    "server.evictions", "count";
    "server.coalesced", "count";
    "server.compile_ms", "ms";
    "server.exec_ms", "ms";
    "server.overhead_ms", "ms";
    "gc.alloc_mb", "MB";
    "gc.major_per_100", "count";
    "gc.heap_mb", "MB";
    "trace.overhead_pct", "%";
  ]

(* name, samples behind it, value *)
type metric = string * int * float

(* error_rate is printed but not a BENCHMARK.json metric: that file
   holds only metrics that are never 0, and failures travel in the
   result object's "failed" *)
let unit_of name = List.assoc name ((("error_rate", "ratio") :: e2e_units) @ layer_units)

(* [table]'s metrics in table order; those a workload does not drive
   read 0 *)
let complete table (got : metric list) =
  List.map
    (fun (name, _) ->
      match List.find_opt (fun (n, _, _) -> n = name) got with
      | Some m -> m
      | None -> name, 0, 0.0)
    table

let print_metric w ((name, n, v) : metric) =
  Printf.printf "%s %s %.6g %s (n=%d)\n" w name v (unit_of name) n

let result_json ~correct ~attempted ~failed (ms : metric list) =
  let num i = J.Num (float_of_int i) in
  J.to_string
    (J.Obj
       [
         "correct", J.Bool correct;
         "attempted", num attempted;
         "failed", num failed;
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, _, v) ->
                  name, J.Obj [ "value", J.Num v; "unit", J.Str (unit_of name) ])
                ms) );
       ])

(* linear interpolation between closest ranks *)
let quantile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let x = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float x in
    if i >= Array.length a - 1 then a.(i)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' status)

(* ---- options ---- *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace_dir : string option;
  smoke : bool;
  dump : string option;
  corrupt_reference : bool;
      (** test hook: the oracle's references are wrong, so a correct run
          must be reported as incorrect *)
}

let usage =
  "usage: perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]\n\
  \                [--smoke] [--dump-requests FILE] [--corrupt-reference]\n\
  \       perf.exe --compare RUN1 RUN2"

let fail_usage msg =
  Printf.eprintf "perf: %s\n%s\n" msg usage;
  exit 2

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> go { o with seed } rest
      | None -> fail_usage "--seed takes an integer")
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0.0 -> go { o with seconds } rest
      | _ -> fail_usage "--seconds takes a number >= 0")
    | "--trace" :: "0" :: rest -> go { o with trace_dir = None } rest
    | "--trace" :: "1" :: rest -> go { o with trace_dir = Some "perf_out/trace" } rest
    | "--trace" :: dir :: rest -> go { o with trace_dir = Some dir } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--dump-requests" :: f :: rest -> go { o with dump = Some f } rest
    | "--corrupt-reference" :: rest -> go { o with corrupt_reference = true } rest
    | a :: _ -> fail_usage ("bad argument " ^ a)
  in
  go
    {
      workload = None;
      seed = 42;
      seconds = 10.0;
      trace_dir = None;
      smoke = false;
      dump = None;
      corrupt_reference = false;
    }
    args

let traced o = o.trace_dir <> None
let n_setups o = if o.smoke then 1 else 5

(* p90 needs at least ten samples beyond it *)
let min_samples o = if o.smoke then 3 else 100
let corrupt o digest = if o.corrupt_reference then digest ^ "!" else digest

(* ---- the closed loop ---- *)

type gc_delta = { alloc_bytes : float; majors : int }

let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

(* One timed call, with the CPU time of the two runs made right after
   it: [primal_ms], a primal run (of the same program on the same
   inputs; on serve-mix, of the set-up request), and [ref_ms], the
   reference kernel. *)
type 'a sample = {
  ms : float;
  primal_ms : float;
  ref_ms : float;
  v : 'a;
  gc : gc_delta option;
}

(* A fixed amount of floating-point work that shares no code with the
   repository. The host's speed drifts by ±10% over minutes, and CPU
   time drifts with it, but a call and a run made right after it slow
   down together, so their ratio holds still. Run after every call, this
   kernel turns the call's time into a ratio that still moves when the
   whole engine gets faster or slower; the primal run cannot do that. *)
let reference_input = Array.init 200_000 float_of_int

let reference_kernel () =
  Trace.span "reference kernel" (fun () ->
      Sys.opaque_identity (Array.fold_left (fun s x -> s +. sin x) 0.0 reference_input))

(* One client, one call at a time, stopping after a multiple of
   [quantum] calls once at least [min_n] calls were made and [seconds]
   of wall time have passed, give or take half a quantum's time: a
   window of serve-mix's blocks ends on the block boundary nearest to
   [seconds]. A host too slow to reach [min_n] in a quarter more than
   [seconds] stops there, so a run's length stays bounded. [step] is
   the call, [beside v] the primal run for the call that returned [v]. *)
let measure ~seconds ~min_n ~quantum ~gc step beside =
  let start = Unix.gettimeofday () in
  let rec go i acc =
    let elapsed = Unix.gettimeofday () -. start in
    let half_quantum =
      if i = 0 then 0.0 else 0.5 *. float_of_int quantum *. elapsed /. float_of_int i
    in
    let enough = i >= min_n && elapsed +. half_quantum >= seconds in
    let too_slow = i > 0 && seconds > 0.0 && elapsed >= 1.25 *. seconds in
    if i mod quantum = 0 && (enough || too_slow) then List.rev acc
    else begin
      let q0 = if gc then Some (Gc.quick_stat ()) else None in
      let v, ms = Trace.operation step in
      let gc =
        Option.map
          (fun q0 ->
            let q1 = Gc.quick_stat () in
            {
              alloc_bytes =
                (allocated q1 -. allocated q0) *. float_of_int (Sys.word_size / 8);
              majors = q1.Gc.major_collections - q0.Gc.major_collections;
            })
          q0
      in
      let primal_ms = Trace.operation (fun () -> beside v) in
      let _, ref_ms = Trace.operation reference_kernel in
      go (i + 1) ({ ms; primal_ms; ref_ms; v; gc } :: acc)
    end
  in
  go 0 []

(* One window of the timed phase: its untraced samples and, in a traced
   run, the traced samples that follow them. *)
type 'a window = { plain : 'a sample list; traced : 'a sample list }

(* The timed phase: [n_setups o] windows, each but the first opened by
   one fresh set-up [fresh ()], whose results come back with the
   windows, so the set-ups are spread over the run instead of sitting
   together at its start. A traced run splits each window into an
   untraced and a traced half. Also returns the heap size after the
   last window. *)
let timed o ~quantum ~fresh step beside =
  let k = n_setups o in
  let halves = if traced o then 2 else 1 in
  let seconds = o.seconds /. float_of_int (k * halves) in
  let total = if traced o then min 10 (min_samples o) else min_samples o in
  let min_n = (total + k - 1) / k in
  Gc.compact ();
  let windows =
    List.init k (fun i ->
        let setup = if i > 0 then Some (fresh ()) else None in
        Trace.enabled := false;
        let plain = measure ~seconds ~min_n ~quantum ~gc:false step beside in
        Trace.enabled := traced o;
        let traced =
          if traced o then measure ~seconds ~min_n ~quantum ~gc:true step beside else []
        in
        setup, { plain; traced })
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6
  in
  List.filter_map fst windows, List.map snd windows, heap_mb

(* A call's time is taken as a ratio to the runs made right after it
   (see [sample]), over every untraced call of the run. *)
let e2e ~setup_s ~windows ~overhead ~makespan ~rss : metric list =
  let plain = List.concat_map (fun w -> w.plain) windows in
  let n = List.length plain in
  let to_primal = List.map (fun s -> ratio s.ms s.primal_ms) plain in
  [
    "setup_s", List.length setup_s, median setup_s;
    "grad_vs_primal_p50", n, quantile 0.5 to_primal;
    "grad_vs_primal_p90", n, quantile 0.9 to_primal;
    "grad_vs_ref_p50", n, median (List.map (fun s -> ratio s.ms s.ref_ms) plain);
    "overhead_x", 1, overhead;
    "makespan_mcycles", 1, makespan /. 1e6;
    "peak_rss_mb", 1, rss;
  ]

(* ---- per-layer metrics ---- *)

(* What a traced run learns about the layers under one workload. *)
type profile = {
  setups : (App.setup * float) list;
      (** each set-up and the CPU ms of its first gradient *)
  steady : (float * S.t) list;  (** steady gradients: CPU ms, counters *)
  passes : (string -> float) list;  (** post-AD ms per pass, per repeat *)
  fwd : (float * float) list;  (** steady primal runs: makespan, CPU ms *)
}

let post_ad_passes = [ "mem-forward"; "constfold"; "cse"; "licm"; "dce" ]

let layer_metrics p : metric list =
  let nset = List.length p.setups and nst = List.length p.steady in
  let on_setups f = median (List.map (fun (s, first) -> f s first) p.setups) in
  let instrs = function Some prog -> float_of_int (App.instrs prog) | None -> 0.0 in
  let on_steady f = median (List.map (fun (ms, st) -> f ms st) p.steady) in
  let count name f = "runtime." ^ name, nst, on_steady (fun _ st -> float_of_int (f st)) in
  let steady_ms = on_steady (fun ms _ -> ms) in
  [
    "ir.build_ms", nset, on_setups (fun s _ -> s.App.build_ms);
    "ir.primal_instrs", nset, on_setups (fun s _ -> instrs (Some s.App.primal));
    "core.reverse_ms", nset, on_setups (fun s _ -> s.App.reverse_ms);
    "core.dprog_instrs", nset, on_setups (fun s _ -> instrs s.App.reverse);
    "opt.post_ad_ms", nset, on_setups (fun s _ -> s.App.post_ad_ms);
    "opt.post_ad_instrs", nset, on_setups (fun s _ -> instrs s.App.optimized);
    "engine.prepare_ms", nset, on_setups (fun s _ -> s.App.prepare_ms);
    "engine.lower_ms", nset, on_setups (fun _ first -> first) -. steady_ms;
    ( "engine.ns_per_instr",
      nst,
      on_steady (fun _ st -> ratio (float_of_int st.S.wall_ns) (float_of_int st.S.instrs)) );
    "engine.fallbacks", nst, on_steady (fun _ st -> float_of_int st.S.eng_fallbacks);
    "runtime.sim_ms", nst, on_steady (fun _ st -> float_of_int st.S.wall_ns /. 1e6);
    "runtime.fwd_ms", List.length p.fwd, median (List.map snd p.fwd);
    "runtime.fwd_mcycles", List.length p.fwd, median (List.map fst p.fwd) /. 1e6;
    count "instrs" (fun s -> s.S.instrs);
    count "flops" (fun s -> s.S.flops);
    count "loads" (fun s -> s.S.loads);
    count "stores" (fun s -> s.S.stores);
    count "atomics" (fun s -> s.S.atomics);
    count "forks" (fun s -> s.S.forks);
    count "barriers" (fun s -> s.S.barriers);
    count "context_switches" (fun s -> s.S.context_switches);
    count "cache_stores" (fun s -> s.S.cache_stores);
    count "cache_loads" (fun s -> s.S.cache_loads);
    count "cache_peak" (fun s -> s.S.cache_peak);
    count "mpi_messages" (fun s -> s.S.messages);
    count "mpi_msgs_sent" (fun s -> s.S.msgs_sent);
    count "mpi_cells_sent" (fun s -> s.S.cells_sent);
    count "mpi_max_inflight" (fun s -> s.S.max_inflight);
    "apps.harness_ms", nst, on_steady (fun ms st -> ms -. (float_of_int st.S.wall_ns /. 1e6));
    "tape.entries", nst, on_steady (fun _ st -> float_of_int st.S.tape_entries);
    ( "tape.ns_per_entry",
      nst,
      on_steady (fun ms st -> ratio (ms *. 1e6) (float_of_int st.S.tape_entries)) );
  ]
  @ List.map
      (fun pass ->
        ( "opt." ^ String.map (function '-' -> '_' | c -> c) pass ^ "_ms",
          List.length p.passes,
          median (List.map (fun f -> f pass) p.passes) ))
      post_ad_passes

let gc_metrics ~heap_mb samples : metric list =
  let ds = List.filter_map (fun s -> s.gc) samples in
  let n = List.length ds in
  let majors = List.fold_left (fun a d -> a + d.majors) 0 ds in
  [
    "gc.alloc_mb", n, median (List.map (fun d -> d.alloc_bytes /. 1e6) ds);
    "gc.major_per_100", n, ratio (100.0 *. float_of_int majors) (float_of_int n);
    "gc.heap_mb", 1, heap_mb;
  ]

(* traced against untraced calls, each timed against the reference
   kernel run after it, which tracing does not slow down *)
let trace_overhead windows : metric =
  let p50 half =
    median
      (List.concat_map (fun w -> List.map (fun s -> ratio s.ms s.ref_ms) (half w)) windows)
  in
  let plain = p50 (fun w -> w.plain) and traced = p50 (fun w -> w.traced) in
  ( "trace.overhead_pct",
    List.length (List.concat_map (fun w -> w.traced) windows),
    100.0 *. ratio (traced -. plain) plain )

(* ---- reporting ---- *)

let check w (desc, ok) =
  Printf.printf "# %s oracle: %s %s\n" w desc (if ok then "ok" else "FAILED");
  ok

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Print the oracle's verdict, the metrics and the result object; write
   the trace; exit 1 unless every check held and no call failed. *)
let finish o w ~e2e_metrics ~layer ~checks ~attempted ~failed =
  let correct = List.fold_left (fun ok c -> check w c && ok) true checks in
  let shown =
    if traced o then complete layer_units layer else complete e2e_units e2e_metrics
  in
  List.iter (print_metric w) shown;
  print_metric w
    ("error_rate", attempted, ratio (float_of_int failed) (float_of_int attempted));
  Option.iter
    (fun dir ->
      List.iter
        (fun (name, ms, n) -> Printf.printf "# %s self %s %.3f ms (n=%d)\n" w name ms n)
        (Trace.self_times ());
      mkdir_p dir;
      let path = Filename.concat dir (w ^ ".json") in
      Trace.write path ~meta:[ "workload", J.Str w; "seed", J.Num (float_of_int o.seed) ];
      Printf.printf "# %s trace written to %s\n" w path)
    o.trace_dir;
  print_endline (result_json ~correct ~attempted ~failed shown);
  exit (if correct && failed = 0 then 0 else 1)

let setup_span f = Trace.operation (fun () -> Trace.span "set-up" f)
let setup_seconds setups = List.map (fun (_, total_ms) -> total_ms /. 1e3) setups

(* ---- gradient workloads ---- *)

let run_grad o w (spec : App.spec) =
  let engine = spec.App.engine in
  Trace.enabled := traced o;
  (* a set-up: frontend build, AD, post-AD, engine prepare, first gradient *)
  let fresh () =
    setup_span (fun () ->
        let s = App.compile spec in
        s, App.gradient spec s.App.plan ~engine)
  in
  let ((setup, (first, _)), _) as setup0 = fresh () in
  let step () =
    let t0 = Trace.now () in
    match App.gradient spec setup.App.plan ~engine with
    | g, ms -> Some (g.App.digest, g.App.stats), ms
    | exception e ->
      Printf.eprintf "perf: %s: gradient raised %s\n%!" w (Printexc.to_string e);
      None, (Trace.now () -. t0) *. 1e3
  in
  let prep = E.prepare setup.App.primal in
  let primal () = App.primal spec setup.App.primal prep ~engine in
  (* the first primal run pays the engine's lazy lowering *)
  let primal_cycles, _ = Trace.operation primal in
  let extra, windows, heap_mb = timed o ~quantum:1 ~fresh step (fun _ -> snd (primal ())) in
  let setups = setup0 :: extra in
  let traced_samples = List.concat_map (fun w -> w.traced) windows in
  let all = List.concat_map (fun w -> w.plain @ w.traced) windows in
  let rss = peak_rss_mb () in
  let layer, pass_checks =
    if not (traced o) then [], []
    else begin
      let by_pass =
        match setup.App.reverse, setup.App.optimized with
        | Some r, Some expect ->
          List.init (n_setups o) (fun _ ->
              Trace.operation (fun () -> App.post_ad_by_pass r ~expect))
        | _ -> []
      in
      let profile =
        {
          setups = List.map (fun ((s, (_, first_ms)), _) -> s, first_ms) setups;
          steady =
            List.filter_map (fun s -> Option.map (fun (_, st) -> s.ms, st) s.v) traced_samples;
          passes = List.map fst by_pass;
          fwd = List.init 3 (fun _ -> Trace.operation primal);
        }
      in
      ( layer_metrics profile
        @ gc_metrics ~heap_mb traced_samples
        @ [ trace_overhead windows ],
        [
          ( "post-AD pass by pass prints identical to the one-call pipeline",
            List.for_all snd by_pass );
        ] )
    end
  in
  (* the oracle, after every clock has stopped *)
  Trace.enabled := false;
  let reference = corrupt o (App.reference spec).App.digest in
  let fd = App.fd_rel_error spec first ~seed:o.seed in
  let wrong =
    List.length
      (List.filter
         (fun s -> match s.v with Some (d, _) -> d <> reference | None -> true)
         all)
  in
  let tape_checks =
    match spec.App.kind with
    | App.Tape _ ->
      let rel = App.tape_vs_reverse spec first in
      [ Printf.sprintf "tape vs reverse-mode adjoints rel %.2e <= 1e-9" rel, rel <= 1e-9 ]
    | App.Lulesh _ | App.Bude _ -> []
  in
  finish o w
    ~e2e_metrics:
      (e2e ~setup_s:(setup_seconds setups) ~windows
         ~overhead:(first.App.makespan /. primal_cycles)
         ~makespan:first.App.makespan ~rss)
    ~layer
    ~checks:
      ([
         ( Printf.sprintf "set-up gradient digest %s = interpreter digest %s"
             first.App.digest reference,
           first.App.digest = reference );
         Printf.sprintf "directional FD rel %.2e <= 1e-6" fd, fd <= 1e-6;
         ( Printf.sprintf "%d/%d timed digests = interpreter digest"
             (List.length all - wrong) (List.length all),
           wrong = 0 );
       ]
      @ tape_checks @ pass_checks)
    ~attempted:(List.length all) ~failed:wrong

(* ---- serve-mix ---- *)

module M = Serve_mix

(* each plan key compiled and run directly, at its middle size *)
let key_profile () =
  let per_key =
    List.init (Array.length M.keys) (fun k ->
        Trace.operation (fun () ->
            let spec = M.spec { M.k; size = (M.sizes M.keys.(k).M.app).(1); escale = 1.0 } in
            let engine = spec.App.engine in
            let s = App.compile spec in
            let _, first_ms = App.gradient spec s.App.plan ~engine in
            let g, ms = App.gradient spec s.App.plan ~engine in
            let prep = E.prepare s.App.primal in
            ignore (App.primal spec s.App.primal prep ~engine);
            let by_pass =
              match s.App.reverse, s.App.optimized with
              | Some r, Some expect -> fst (App.post_ad_by_pass r ~expect)
              | _ -> fun _ -> 0.0
            in
            (s, first_ms), (ms, g.App.stats), by_pass, App.primal spec s.App.primal prep ~engine))
  in
  {
    setups = List.map (fun (s, _, _, _) -> s) per_key;
    steady = List.map (fun (_, st, _, _) -> st) per_key;
    passes = List.map (fun (_, _, p, _) -> p) per_key;
    fwd = List.map (fun (_, _, _, f) -> f) per_key;
  }

(* the service's counters at one instant *)
type counters = {
  hits : int;
  misses : int;
  evictions : int;
  miss_ns : float;
  executed : int;
  coalesced : int;
  sim_ns : int;
}

let counters (svc : SV.t) =
  let c = svc.SV.cache in
  {
    hits = c.PC.hits;
    misses = c.PC.misses;
    evictions = c.PC.evictions;
    miss_ns = c.PC.miss_ns;
    executed = svc.SV.executed;
    coalesced = svc.SV.coalesced;
    sim_ns = svc.SV.wall_ns;
  }

let server_metrics a b ~requests ~handled_ms : metric list =
  let misses = b.misses - a.misses and executed = b.executed - a.executed in
  let compile_ms = (b.miss_ns -. a.miss_ns) /. 1e6 in
  let exec_ms = float_of_int (b.sim_ns - a.sim_ns) /. 1e6 in
  let per n x = ratio x (float_of_int n) in
  [
    "server.hit_ratio", requests, per (b.hits - a.hits + misses) (float_of_int (b.hits - a.hits));
    "server.misses", requests, float_of_int misses;
    "server.evictions", requests, float_of_int (b.evictions - a.evictions);
    "server.coalesced", requests, float_of_int (b.coalesced - a.coalesced);
    "server.compile_ms", misses, per misses compile_ms;
    "server.exec_ms", executed, per executed exec_ms;
    "server.overhead_ms", requests, per requests (handled_ms -. compile_ms -. exec_ms);
  ]

let run_serve o w =
  Trace.enabled := traced o;
  let next = M.stream ~seed:o.seed in
  let dump = Option.map open_out o.dump in
  let log line = Option.iter (fun oc -> output_string oc (line ^ "\n")) dump in
  let send svc ~id ~engine r =
    let line = M.to_json ~id ~engine r in
    log line;
    let resp, ms = Trace.span "Service.handle_line" (fun () -> SV.handle_line svc line) in
    M.parse_response resp, ms
  in
  (* a set-up: a fresh service and its first request, a compile miss *)
  let fresh () =
    setup_span (fun () ->
        let svc, _ = Trace.span "Service.create" (fun () -> SV.create ()) in
        svc, fst (send svc ~id:0 ~engine:"seq" M.prime))
  in
  let ((svc, _), _) as setup0 = fresh () in
  let sent = ref 0 in
  let step () =
    let r = next !sent in
    incr sent;
    let resp, ms = send svc ~id:!sent ~engine:"seq" r in
    (r, resp), ms
  in
  (* The primal beside every request is the set-up request's, one fixed
     program. Beside each request's own primal, the slow tail would
     divide compile times by primals of very different sizes, and which
     keys fill it moves with the seed. *)
  let prime = M.spec M.prime in
  let prime_prog, _ = App.build_primal prime in
  let prime_prep = E.prepare prime_prog in
  let beside _ = snd (App.primal prime prime_prog prime_prep ~engine:prime.App.engine) in
  (* the first run pays the engine's lazy lowering *)
  ignore (Trace.operation beside);
  let before = counters svc in
  let extra, windows, heap_mb =
    timed o ~quantum:(if o.smoke then 1 else M.block) ~fresh step beside
  in
  let after = counters svc in
  let setups = setup0 :: extra in
  let rss = peak_rss_mb () in
  let plain = List.concat_map (fun w -> w.plain) windows in
  let traced_samples = List.concat_map (fun w -> w.traced) windows in
  let all = plain @ traced_samples in
  let ok (s : _ sample) = (snd s.v).M.cls = "ok" in
  let layer =
    if not (traced o) then []
    else
      layer_metrics (key_profile ())
      @ server_metrics before after ~requests:(List.length all)
          ~handled_ms:(sum (List.map (fun s -> s.ms) all))
      @ gc_metrics ~heap_mb traced_samples
      @ [ trace_overhead windows ]
  in
  Trace.enabled := false;
  (* virtual cost: every answered request is charged the cycles of the
     sweep that computed its digest, a coalesced one included, against
     the cycles of its primal *)
  let signature r = M.to_json ~engine:"seq" r in
  let sweep_cycles = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let r, resp = s.v in
      if ok s && not resp.M.coalesced then
        Hashtbl.replace sweep_cycles (signature r) resp.M.exec_cycles)
    all;
  let primals = Hashtbl.create 16 in
  let primal_cycles (r : M.request) =
    let key = r.M.k, r.M.size in
    match Hashtbl.find_opt primals key with
    | Some c -> c
    | None ->
      let spec = M.spec r in
      let prog, _ = App.build_primal spec in
      let c, _ = App.primal spec prog (E.prepare prog) ~engine:E.Interp in
      Hashtbl.replace primals key c;
      c
  in
  let answered = List.map (fun s -> fst s.v) (List.filter ok plain) in
  let grad_cycles =
    sum (List.map (fun r -> Option.value (Hashtbl.find_opt sweep_cycles (signature r)) ~default:0.0) answered)
  in
  let prim_cycles = sum (List.map primal_cycles answered) in
  (* the oracle: one digest per execution signature, and a seeded
     sample of the signatures replayed through a second service on the
     interpreter *)
  let digests = Hashtbl.create 64 in
  let consistent (r, (resp : M.response)) =
    let sg = signature r in
    resp.M.cls = "ok"
    &&
    match Hashtbl.find_opt digests sg with
    | Some (_, d) -> d = resp.M.digest
    | None ->
      Hashtbl.replace digests sg (r, resp.M.digest);
      true
  in
  let primes_ok = List.for_all (fun ((_, resp), _) -> consistent (M.prime, resp)) setups in
  let wrong = List.length (List.filter (fun s -> not (consistent s.v)) all) in
  let st = Random.State.make [| o.seed; 0x12 |] in
  let replay =
    Hashtbl.fold (fun sg rd acc -> (sg, rd) :: acc) digests []
    |> List.sort compare
    |> List.map (fun x -> Random.State.bits st, x)
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 12)
  in
  let interp = SV.create () in
  let replay_ok =
    List.for_all
      (fun (_, (_, (r, d))) ->
        let resp, _ = send interp ~id:0 ~engine:"interp" r in
        resp.M.cls = "ok" && resp.M.digest = corrupt o d)
      replay
  in
  Option.iter close_out dump;
  finish o w
    ~e2e_metrics:
      (e2e ~setup_s:(setup_seconds setups) ~windows
         ~overhead:(ratio grad_cycles prim_cycles)
         ~makespan:(ratio grad_cycles (float_of_int (List.length answered)))
         ~rss)
    ~layer
    ~checks:
      [
        "every set-up request answered ok, with one digest", primes_ok;
        ( Printf.sprintf "%d/%d requests ok with one digest per signature"
            (List.length all - wrong) (List.length all),
          wrong = 0 );
        ( Printf.sprintf "%d signatures replayed on the interpreter, same digests"
            (List.length replay),
          replay_ok );
      ]
    ~attempted:(List.length all) ~failed:wrong

(* ---- workloads ---- *)

let lulesh_input ~seed ~nx ~nz =
  let st = Random.State.make [| seed; 0x1e |] in
  { L.nx; ny = nx; nz; niter = 2; dt0 = 0.01; escale = 0.9 +. Random.State.float st 0.2 }

let bude_input ~seed =
  let d = MB.deck ~nposes:48 ~natlig:12 ~natpro:64 in
  let st = Random.State.make [| seed; 0xb0de |] in
  {
    d with
    MB.pose_data =
      Array.map (fun x -> x +. (0.05 *. (Random.State.float st 2.0 -. 1.0))) d.MB.pose_data;
  }

let grad kind ~nranks ~nthreads ?(seeds = 1) engine =
  {
    App.kind;
    nranks;
    nthreads;
    opts = { Parad_core.Plan.default_options with seeds };
    engine;
  }

type workload = Grad of (int -> App.spec) | Serve

(* why each workload is here: bench/perf/README.md and BENCHMARK.json *)
let workloads =
  let lulesh fl ~nx seed = lulesh_input ~seed ~nx ~nz:64 |> fun i -> App.Lulesh (fl, i) in
  [
    "omp64-seq", Grad (fun s -> grad (lulesh L.Omp ~nx:4 s) ~nranks:1 ~nthreads:64 E.Seq);
    "mpi16-seq", Grad (fun s -> grad (lulesh L.Mpi ~nx:4 s) ~nranks:16 ~nthreads:1 E.Seq);
    ( "bude8-k8",
      Grad (fun s -> grad (App.Bude (MB.Omp, bude_input ~seed:s)) ~nranks:1 ~nthreads:8 ~seeds:8 E.Seq) );
    ( "tape-mpi4",
      Grad (fun s -> grad (App.Tape (lulesh_input ~seed:s ~nx:2 ~nz:64)) ~nranks:4 ~nthreads:1 E.Seq) );
    "serve-mix", Serve;
  ]

(* ---- every workload, one process each ---- *)

let run_all o =
  Printf.printf "# perf: seed %d, %g s per workload, tracing %s\n%!" o.seed o.seconds
    (Option.value o.trace_dir ~default:"off");
  let exe = Sys.executable_name in
  let failed =
    List.filter
      (fun (w, _) ->
        let args =
          [ exe; "--workload"; w; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds ]
          @ (match o.trace_dir with Some d -> [ "--trace"; d ] | None -> [])
          @ (if o.smoke then [ "--smoke" ] else [])
          @ (match o.dump with Some f when w = "serve-mix" -> [ "--dump-requests"; f ] | _ -> [])
          @ if o.corrupt_reference then [ "--corrupt-reference" ] else []
        in
        let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  if failed = [] then begin
    Printf.printf "# perf: seed %d, all %d workloads correct\n" o.seed (List.length workloads);
    exit 0
  end
  else begin
    Printf.printf "# perf: seed %d, FAILED: %s\n" o.seed (String.concat " " (List.map fst failed));
    exit 1
  end

(* ---- --compare ---- *)

let read_metrics file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ w; name; v; _unit; n ] when String.starts_with ~prefix:"(n=" n ->
           Option.map (fun v -> (w, name), v) (float_of_string_opt v)
         | _ -> None)

let bounds () =
  let fail m =
    prerr_endline ("perf: BENCHMARK.json: " ^ m);
    exit 2
  in
  match J.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Error m -> fail m
  | Ok j -> (
    match J.field "end_to_end" j with
    | Some (J.Arr ms) ->
      List.filter_map
        (fun m ->
          match J.str_field "name" m, J.num_field "bound" m with
          | Some n, Some b -> Some (n, b)
          | _ -> None)
        ms
    | _ -> fail "no end_to_end list")

(* every metric of [a] must be in [b], within its bound (exact when it
   has none, as error_rate) *)
let compare_runs a b =
  let bounds = bounds () in
  let ma = read_metrics a and mb = read_metrics b in
  let bad =
    List.filter
      (fun ((w, name), va) ->
        let bound = Option.value (List.assoc_opt name bounds) ~default:0.0 in
        match List.assoc_opt (w, name) mb with
        | None ->
          Printf.printf "%s %s missing from %s\n" w name b;
          true
        | Some vb ->
          let d = if va = vb then 0.0 else Float.abs (vb -. va) /. Float.abs va in
          let ok = d <= bound in
          Printf.printf "%s %s %.6g -> %.6g (%+.2f%%, bound %.2f%%) %s\n" w name va vb
            (100.0 *. ratio (vb -. va) va)
            (100.0 *. bound)
            (if ok then "ok" else "DISAGREE");
          not ok)
      ma
  in
  exit (if bad = [] && ma <> [] then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; a; b ] -> compare_runs a b
  | args -> (
    let o = parse args in
    let o = if o.smoke then { o with seconds = 0.0 } else o in
    match o.workload with
    | None -> run_all o
    | Some w -> (
      Printf.printf "# %s: seed %d, %g s, tracing %s\n" w o.seed o.seconds
        (Option.value o.trace_dir ~default:"off");
      match List.assoc_opt w workloads with
      | Some (Grad spec) -> run_grad o w (spec o.seed)
      | Some Serve -> run_serve o w
      | None ->
        fail_usage
          ("unknown workload " ^ w ^ "; one of "
          ^ String.concat ", " (List.map fst workloads))))
