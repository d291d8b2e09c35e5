(* Table 1 analog — the abstract's headline: differentiation overhead at
   64 threads / 64 ranks for every language x framework combination,
   plus the tape-cache footprint behind each gradient run.

   Every row is also recorded into BENCH_overhead.json (see Util);
   bench/thresholds gates the "LULESH C++ OMP" row's overhead, so that
   configuration always runs at 64 threads even under --quick. *)

open Util
module Pipe = Parad_opt.Pipeline

let run ~quick =
  header "Overhead summary at 64 threads/ranks (abstract / Table 1 analog)";
  let n = cli_ranks ~default:(if quick then 32 else 64) in
  Printf.printf "%-28s %12s %12s %10s %12s %12s\n" "configuration" "forward"
    "gradient" "overhead" "cache-cells" "cache-peak";
  let line name ~nranks ~nthreads fwd grad stats =
    let cells =
      match (stats : S.t option) with
      | Some s -> Printf.sprintf "%12d %12d" s.S.cache_cells s.S.cache_peak
      | None -> Printf.sprintf "%12s %12s" "-" "-"
    in
    Printf.printf "%-28s %12.3g %12.3g %10.2f %s\n" name fwd grad (grad /. fwd)
      cells;
    let cache =
      match stats with
      | Some s ->
        [
          "cache_stores", float s.S.cache_stores;
          "cache_cells", float s.S.cache_cells;
          "cache_peak", float s.S.cache_peak;
        ]
      | None -> []
    in
    record ~figure:"overhead" ~config:name
      ([
         "nranks", float nranks;
         "nthreads", float nthreads;
         "forward", fwd;
         "gradient", grad;
         "overhead", grad /. fwd;
       ]
      @ cache)
  in
  (* LULESH *)
  let inp =
    { L.nx = 4; ny = 4; nz = 64; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  let l name ?(pre = []) ?(nranks = 1) ?(nthreads = 1) flavor =
    let f = (L.run ~nranks ~nthreads ~pre flavor inp).L.makespan in
    let g = L.gradient ~nranks ~nthreads ~pre flavor inp in
    line name ~nranks ~nthreads f g.L.g_makespan (Some g.L.g_stats)
  in
  (* the gated headline row: always 64 threads, even under --quick *)
  l "LULESH C++ OMP" ~nthreads:64 L.Omp;
  l "LULESH C++ OMP+Opt" ~pre:Pipe.o2_openmp ~nthreads:n L.Omp;
  l "LULESH C++ RAJA" ~nthreads:n L.Raja_;
  l "LULESH C++ MPI" ~nranks:n L.Mpi;
  l "LULESH Julia MPI.jl" ~nranks:n L.Jlmpi;
  l "LULESH hybrid 8x8" ~nranks:8 ~nthreads:8 L.Hybrid;
  (let f = (L.run ~nranks:n L.Mpi inp).L.makespan in
   let g = lulesh_tape_gradient inp ~nranks:n in
   line "LULESH CoDiPack MPI" ~nranks:n ~nthreads:1 f g None);
  (* miniBUDE *)
  let deck = MB.deck ~nposes:n ~natlig:8 ~natpro:10 in
  let m name ?(pre = []) variant =
    let f = (MB.run ~nthreads:n ~pre variant deck).MB.makespan in
    let g = MB.gradient ~nthreads:n ~pre variant deck in
    line name ~nranks:1 ~nthreads:n f g.MB.g_makespan (Some g.MB.g_stats)
  in
  m "miniBUDE C++ OMP" MB.Omp;
  m "miniBUDE C++ OMP+Opt" ~pre:Pipe.o2_openmp MB.Omp;
  m "miniBUDE Julia tasks" MB.Julia
