(* Ablations of the design choices DESIGN.md calls out:
   - abl-preopt: optimize before differentiating (§V-E)
   - abl-mincut: cache-everything vs recompute-vs-cache planning (§IV-C)
   - abl-tl: thread-locality analysis vs the all-atomic fallback (§VI-A1)
   - abl-fuse: post-AD fork fusion of the fwd/rev pair (Fig 4)
   - abl-remat: how the mincut win depends on the rematerialized
     transcendental rate (the `parad grad --transcendental-remat` knob) *)

open Util
module Pipe = Parad_opt.Pipeline
module Plan = Parad_core.Plan
module Reverse = Parad_core.Reverse
open Parad_ir

let run ~quick =
  header "Ablations";
  let w = if quick then 8 else 16 in
  let deck = MB.deck ~nposes:32 ~natlig:6 ~natpro:8 in
  let inp =
    { L.nx = 4; ny = 4; nz = 8; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  subheader "abl-preopt: optimization before AD (miniBUDE OMP gradient)";
  let g pre = (MB.gradient ~nthreads:w ~pre MB.Omp deck).MB.g_makespan in
  Printf.printf "  no pre-opt      : %12.3g\n" (g []);
  Printf.printf "  O2              : %12.3g\n" (g Pipe.o2);
  Printf.printf "  O2 + OpenMPOpt  : %12.3g\n" (g Pipe.o2_openmp);
  subheader "abl-mincut: cache-everything vs recompute-vs-cache (LULESH OMP)";
  let row label depth =
    let r =
      L.gradient ~nthreads:w
        ~opts:{ Plan.default_options with Plan.recompute_depth = depth }
        L.Omp inp
    in
    Printf.printf "  %-26s: %12.3g cycles, %8d cache cells, %8d peak\n" label
      r.L.g_makespan r.L.g_stats.S.cache_cells r.L.g_stats.S.cache_peak
  in
  row "depth 0 (cache everything)" 0;
  row "depth 4 (cut, bounded)" 4;
  row "depth 10 (cut, bounded)" 10;
  row "default (cut, no bound)" Plan.default_options.Plan.recompute_depth;
  subheader
    "abl-remat: rematerialized-transcendental rate (LULESH OMP, depth 4)";
  (* recompute-vs-cache plans only beat cache-everything while a
     transcendental re-evaluated in a remat chain is cheaper than one on
     the primal path; sweep the remat rate up to the primal rate to show
     how the margin closes *)
  let cm = Parad_runtime.Cost_model.default in
  let g4 rate =
    let cost = { cm with Parad_runtime.Cost_model.transcendental_remat = rate } in
    (L.gradient ~cost ~nthreads:w
       ~opts:{ Plan.default_options with Plan.recompute_depth = 4 }
       L.Omp inp)
      .L.g_makespan
  in
  let cache_all =
    (L.gradient ~nthreads:w
       ~opts:{ Plan.default_options with Plan.recompute_depth = 0 }
       L.Omp inp)
      .L.g_makespan
  in
  List.iter
    (fun rate ->
      Printf.printf
        "  remat rate %5.1f : %12.0f cycles (cache-everything %12.0f)\n"
        rate (g4 rate) cache_all)
    [
      cm.Parad_runtime.Cost_model.transcendental_remat;
      6.0;
      cm.Parad_runtime.Cost_model.transcendental;
    ];
  subheader "abl-tl: thread-locality analysis vs all-atomic fallback";
  let g atomic_always =
    let r =
      L.gradient ~nthreads:w
        ~opts:{ Plan.default_options with Plan.atomic_always }
        L.Omp inp
    in
    r.L.g_makespan, r.L.g_stats.Parad_runtime.Stats.atomics
  in
  let t_an, a_an = g false and t_at, a_at = g true in
  Printf.printf "  analysis on  : %12.3g cycles, %8d atomics\n" t_an a_an;
  Printf.printf "  all atomics  : %12.3g cycles, %8d atomics\n" t_at a_at;
  subheader "abl-fuse: post-AD fork fusion (Fig 4) on a generated gradient";
  let prog = MB.program ~ntasks:1 () in
  let dprog, dname = Reverse.gradient prog "bude_omp" in
  let count_forks p name =
    let f = Prog.find_exn p name in
    Instr.fold_instrs
      (fun n i -> match i with Instr.Fork _ -> n + 1 | _ -> n)
      0 f.Func.body
  in
  let plain = Pipe.run dprog Pipe.post_ad in
  let fused = Pipe.run dprog Pipe.post_ad_fuse in
  Printf.printf "  forks without fusion: %d\n" (count_forks plain dname);
  Printf.printf "  forks with fusion   : %d\n" (count_forks fused dname)
