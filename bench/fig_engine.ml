(* Execution-engine figure: host-time speedup of the lowered
   slot-addressed runner over the tree-walking interpreter, at identical
   virtual-time results.

   The headline row is the 64-thread LULESH OMP gradient (the mesh the
   interpreter takes ~half a second on): the same compiled plan is
   executed on engine=interp and engine=seq, timed as interleaved pairs
   in process CPU time (Util.pairs; plan compilation is excluded), and
   the speedup is the median of the per-pair ratios. Every engine row's
   gradient digest must equal the interpreter's, and bench/thresholds
   puts a floor under the seq row's speedup. Each row records the host's
   core count ("cores"). *)

open Util
module E = Parad_engine.Engine
module SV = Parad_server.Service

let run ~quick =
  header "Execution engine (CPU time, bit-identical gradients)";
  let cores = Domain.recommended_domain_count () in
  let npairs = if quick then 7 else 9 in
  (* one table row and one BENCH_engine.json row: the median CPU time
     [ns] of this engine's gradient and its speedup over the
     interpreter's *)
  let report ~app name ns ~speedup ~bitwise ~makespan =
    let config = app ^ "/" ^ name in
    row_of_strings config
      [
        Printf.sprintf "%.1f" (ns /. 1e6);
        Printf.sprintf "%.2fx" speedup;
        Printf.sprintf "%.4g" makespan;
        string_of_bool bitwise;
      ];
    record ~figure:"engine" ~config ~bitwise
      [
        "cores", float cores;
        "cpu_ns", ns;
        "speedup", speedup;
        "makespan", makespan;
      ];
    bitwise
  in
  row_of_strings "engine" [ "cpu_ms"; "speedup"; "makespan"; "bitwise" ];

  subheader "LULESH OMP gradient (nthreads=64)";
  let inp =
    if quick then { L.nx = 4; ny = 4; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 }
    else { L.nx = 4; ny = 4; nz = 64; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  let c = L.compile L.Omp in
  let grad engine () = L.gradient_compiled ~nthreads:64 ~engine c inp in
  let (g, base), ns, base_ns, speedup =
    pairs npairs (grad E.Seq) (grad E.Interp)
  in
  let lulesh = report ~app:"lulesh_omp" in
  let ok =
    lulesh "interp" base_ns ~speedup:1.0 ~bitwise:true
      ~makespan:base.L.g_makespan
  in
  let ok =
    lulesh "seq" ns ~speedup
      ~bitwise:(SV.digest_lulesh g = SV.digest_lulesh base)
      ~makespan:g.L.g_makespan
    && ok
  in

  subheader "miniBUDE OMP gradient (nthreads=8)";
  let binp =
    if quick then MB.deck ~nposes:16 ~natlig:8 ~natpro:16
    else MB.deck ~nposes:48 ~natlig:12 ~natpro:64
  in
  let bc = MB.compile ~ntasks:8 MB.Omp in
  let bgrad engine () = MB.gradient_compiled ~engine bc binp in
  let (g, base), ns, base_ns, speedup =
    pairs npairs (bgrad E.Seq) (bgrad E.Interp)
  in
  let bude = report ~app:"bude_omp" in
  let ok =
    bude "interp" base_ns ~speedup:1.0 ~bitwise:true
      ~makespan:base.MB.g_makespan
    && ok
  in
  let ok =
    bude "seq" ns ~speedup
      ~bitwise:(SV.digest_bude g = SV.digest_bude base)
      ~makespan:g.MB.g_makespan
    && ok
  in
  if not ok then begin
    Printf.eprintf "fig_engine: an engine gradient diverged from interp\n";
    exit 1
  end
