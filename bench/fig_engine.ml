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
  (* one table row and one BENCH_engine.json row; speedup is the
     interpreter's wall [base_ns] over this wall on the same program *)
  let report ~app ~base_ns name ns ~bitwise ~makespan =
    let config = app ^ "/" ^ name in
    row_of_strings config
      [
        Printf.sprintf "%.1f" (ns /. 1e6);
        Printf.sprintf "%.2fx" (base_ns /. ns);
        Printf.sprintf "%.4g" makespan;
        string_of_bool bitwise;
      ];
    record ~figure:"engine" ~config ~bitwise
      [
        "cores", float cores;
        "wall_ns", ns;
        "speedup", base_ns /. ns;
        "makespan", makespan;
      ];
    bitwise
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
  let lulesh = report ~app:"lulesh_omp" ~base_ns in
  let ok =
    ref (lulesh "interp" base_ns ~bitwise:true ~makespan:base.L.g_makespan)
  in
  let g, ns = best_of reps (grad E.Seq) in
  ok :=
    lulesh "seq" ns
      ~bitwise:(SV.digest_lulesh g = base_digest)
      ~makespan:g.L.g_makespan
    && !ok;

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
  (* the interpreter runs once: its timing is the base and its row *)
  let bbase, bbase_ns = best_of reps (bgrad E.Interp) in
  let bdigest = SV.digest_bude bbase in
  let bude = report ~app:"bude_omp" ~base_ns:bbase_ns in
  ok :=
    bude "interp" bbase_ns ~bitwise:true ~makespan:bbase.MB.g_makespan && !ok;
  List.iter
    (fun engine ->
      let g, ns = best_of reps (bgrad engine) in
      ok :=
        bude (E.choice_to_string engine) ns
          ~bitwise:(SV.digest_bude g = bdigest)
          ~makespan:g.MB.g_makespan
        && !ok)
    [ E.Seq ];
  if not !ok then begin
    Printf.eprintf "fig_engine: an engine gradient diverged from interp\n";
    exit 1
  end
