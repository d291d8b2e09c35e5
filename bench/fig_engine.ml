(* Execution-engine figure: wall-clock speedup of the lowered
   slot-addressed runner over the tree-walking interpreter, at identical
   virtual-time results.

   The headline row is the 64-thread LULESH OMP gradient (the mesh the
   interpreter takes ~half a second on): the same compiled plan is
   executed on engine=interp and engine=seq, wall time taken from
   Stats.wall_ns (simulation only — plan compilation is excluded), best
   of [reps] runs. Every engine row's gradient digest must equal the
   interpreter's, and bench/thresholds puts a floor under the seq row's
   speedup. Each row records the host's core count ("cores"). *)

open Util
module E = Parad_engine.Engine
module SV = Parad_server.Service

let run ~quick =
  header "Execution engine (wall-clock, bit-identical gradients)";
  let cores = Domain.recommended_domain_count () in
  let reps = if quick then 2 else 3 in
  (* a BENCH_engine.json row's metrics; speedup is interp wall / this
     wall on the same program *)
  let engine_metrics ~wall_ns ~speedup ~makespan =
    [
      "cores", float cores;
      "wall_ns", wall_ns;
      "speedup", speedup;
      "makespan", makespan;
    ]
  in

  subheader "LULESH OMP gradient (nthreads=64)";
  let inp =
    if quick then { L.nx = 4; ny = 4; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 }
    else { L.nx = 4; ny = 4; nz = 64; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  let c = L.compile L.Omp in
  let grad engine () =
    let g = L.gradient_compiled ~nthreads:64 ~engine c inp in
    g, float_of_int g.L.g_stats.S.wall_ns
  in
  let base, base_ns = best_of reps (grad E.Interp) in
  let base_digest = SV.digest_lulesh base in
  row_of_strings "engine" [ "wall_ms"; "speedup"; "makespan"; "bitwise" ];
  let report name ns (digest, makespan) =
    let bitwise = digest = base_digest in
    row_of_strings name
      [
        Printf.sprintf "%.1f" (ns /. 1e6);
        Printf.sprintf "%.2fx" (base_ns /. ns);
        Printf.sprintf "%.4g" makespan;
        string_of_bool bitwise;
      ];
    record ~figure:"engine" ~config:("lulesh_omp/" ^ name) ~bitwise
      (engine_metrics ~wall_ns:ns ~speedup:(base_ns /. ns) ~makespan);
    bitwise
  in
  let ok = ref (report "interp" base_ns (base_digest, base.L.g_makespan)) in
  let g, ns = best_of reps (grad E.Seq) in
  ok := report "seq" ns (SV.digest_lulesh g, g.L.g_makespan) && !ok;

  subheader "miniBUDE OMP gradient (nthreads=8)";
  let binp =
    if quick then MB.deck ~nposes:16 ~natlig:8 ~natpro:16
    else MB.deck ~nposes:48 ~natlig:12 ~natpro:64
  in
  let bc = MB.compile ~ntasks:8 MB.Omp in
  let bgrad engine () =
    let g = MB.gradient_compiled ~engine bc binp in
    g, float_of_int g.MB.g_stats.S.wall_ns
  in
  let bbase, bbase_ns = best_of reps (bgrad E.Interp) in
  let bdigest = SV.digest_bude bbase in
  List.iter
    (fun engine ->
      let g, ns = best_of reps (bgrad engine) in
      let bitwise = SV.digest_bude g = bdigest in
      row_of_strings
        ("bude_omp/" ^ E.choice_to_string engine)
        [
          Printf.sprintf "%.1f" (ns /. 1e6);
          Printf.sprintf "%.2fx" (bbase_ns /. ns);
          Printf.sprintf "%.4g" g.MB.g_makespan;
          string_of_bool bitwise;
        ];
      record ~figure:"engine"
        ~config:("bude_omp/" ^ E.choice_to_string engine)
        ~bitwise
        (engine_metrics ~wall_ns:ns ~speedup:(bbase_ns /. ns)
           ~makespan:g.MB.g_makespan);
      ok := !ok && bitwise)
    [ E.Interp; E.Seq ];
  if not !ok then begin
    Printf.eprintf "fig_engine: an engine gradient diverged from interp\n";
    exit 1
  end
