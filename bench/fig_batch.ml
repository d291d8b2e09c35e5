(* Batched multi-seed adjoints (ISSUE 10): one taping pass and one
   reverse sweep propagating k return seeds through k-stride adjoint
   planes, vs k sequential single-seed gradients on the same engine.

   The batched sweep amortizes everything that does not scale with the
   seed count — the forward/taping pass, cache traffic, and the
   derivative transcendentals hoisted out of the lane loop — so the
   headline LULESH OMP row should approach but never reach kx. Every
   lane column must be bit-identical to its standalone run (same d_ret,
   same engine): batching is a layout change, not a numeric one.
   bench/thresholds puts a floor under the lulesh_omp/k8 speedup, and
   under the virtual-cycle speedup (cycles_speedup) of the k8 rows.

   The two sides are timed as interleaved pairs in process CPU time —
   one batched sweep, then the k single-seed sweeps — and the speedup is
   the median of the per-pair ratios, so both sides of a ratio see the
   same host load. An untimed first pair pays the engine's lazy
   lowering and supplies the bitwise check. *)

open Util
module E = Parad_engine.Engine
module Plan = Parad_core.Plan

(* a BENCH_batch.json row's metrics: one batched k-lane sweep
   (batched_cpu_ns) against the sum of k single-seed sweeps on the same
   engine (solo_cpu_ns), each the median over the pairs, and the median
   of the per-pair ratios (speedup); and the k single-seed sweeps'
   summed virtual makespan over the batched sweep's (cycles_speedup),
   which, unlike the CPU times, is the same on every run *)
let batch_metrics ~seeds ~batched_ns ~solo_ns ~speedup ~cycles_speedup =
  [
    "seeds", float seeds;
    "batched_cpu_ns", batched_ns;
    "solo_cpu_ns", solo_ns;
    "speedup", speedup;
    "cycles_speedup", cycles_speedup;
  ]

let sum = List.fold_left ( +. ) 0.0

let cpu_ns () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [pairs n ~batched ~solo ~k] runs one untimed pair, whose results it
   returns for the bitwise check, then [n] timed pairs. Returns the
   median batched time, the median solo sum and the median ratio. *)
let pairs n ~batched ~solo ~k =
  let timed f =
    let t0 = cpu_ns () in
    let r = f () in
    r, Float.round (cpu_ns () -. t0)
  in
  let gs = batched () in
  let solos = List.init k solo in
  let samples =
    List.init n (fun _ ->
        let _, b = timed batched in
        let s =
          List.fold_left ( +. ) 0.0
            (List.init k (fun l -> snd (timed (fun () -> solo l))))
        in
        b, s)
  in
  ( (gs, solos),
    median (List.map fst samples),
    median (List.map snd samples),
    median (List.map (fun (b, s) -> s /. b) samples) )

let run ~quick =
  header "Batched multi-seed adjoints (one sweep, k seeds)";
  let npairs = if quick then 7 else 9 in
  let engine = E.Seq in
  row_of_strings "config"
    [ "batched_cpu_ms"; "k_solo_cpu_ms"; "speedup"; "cycles_x"; "bitwise" ];

  (* ---- LULESH OMP (nthreads=64): the headline row ---- *)
  let inp =
    if quick then
      { L.nx = 4; ny = 4; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 }
    else { L.nx = 4; ny = 4; nz = 64; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  let lulesh_row k =
    let d_rets = Array.init k (fun i -> 1.0 +. float_of_int i) in
    let cb = L.compile ~opts:{ Plan.default_options with seeds = k } L.Omp in
    let c1 = L.compile L.Omp in
    let batched () = L.gradient_batched ~nthreads:64 ~engine cb ~d_rets inp in
    let solo l =
      L.gradient_compiled ~nthreads:64 ~engine ~d_ret:d_rets.(l) c1 inp
    in
    let (gs, solos), batched_ns, solo_ns, speedup =
      pairs npairs ~batched ~solo ~k
    in
    let bitwise =
      List.for_all2
        (fun (g : L.grad_result) (b : L.grad_result) ->
          bits_eq g.L.d_coords.(0) b.L.d_coords.(0)
          && bits_eq g.L.d_energy.(0) b.L.d_energy.(0))
        solos (Array.to_list gs)
    in
    let cycles_speedup =
      sum (List.map (fun (g : L.grad_result) -> g.L.g_makespan) solos)
      /. gs.(0).L.g_makespan
    in
    let name = Printf.sprintf "lulesh_omp/k%d" k in
    row_of_strings name
      [
        Printf.sprintf "%.1f" (batched_ns /. 1e6);
        Printf.sprintf "%.1f" (solo_ns /. 1e6);
        Printf.sprintf "%.2fx" speedup;
        Printf.sprintf "%.2fx" cycles_speedup;
        string_of_bool bitwise;
      ];
    record ~figure:"batch" ~config:name ~bitwise
      (batch_metrics ~seeds:k ~batched_ns ~solo_ns ~speedup ~cycles_speedup);
    bitwise
  in
  subheader "LULESH OMP gradient (nthreads=64, engine=seq)";
  let ok = ref true in
  List.iter (fun k -> ok := lulesh_row k && !ok) (if quick then [ 2; 4; 8 ] else [ 2; 4; 8 ]);

  (* ---- miniBUDE OMP ---- *)
  subheader "miniBUDE OMP gradient (nthreads=8, engine=seq)";
  let binp =
    if quick then MB.deck ~nposes:16 ~natlig:8 ~natpro:16
    else MB.deck ~nposes:48 ~natlig:12 ~natpro:64
  in
  let bude_row k =
    let ge_seeds = Array.init k (fun i -> 1.0 +. (0.5 *. float_of_int i)) in
    let cb =
      MB.compile ~opts:{ Plan.default_options with seeds = k } ~ntasks:8
        MB.Omp
    in
    let c1 = MB.compile ~ntasks:8 MB.Omp in
    let batched () = MB.gradient_batched ~engine cb ~ge_seeds binp in
    let solo l = MB.gradient_compiled ~engine ~ge_seed:ge_seeds.(l) c1 binp in
    let (gs, solos), batched_ns, solo_ns, speedup =
      pairs npairs ~batched ~solo ~k
    in
    let bitwise =
      List.for_all2
        (fun (g : MB.grad_result) (b : MB.grad_result) ->
          bits_eq g.MB.d_lig b.MB.d_lig
          && bits_eq g.MB.d_pro b.MB.d_pro
          && bits_eq g.MB.d_poses b.MB.d_poses)
        solos (Array.to_list gs)
    in
    let cycles_speedup =
      sum (List.map (fun (g : MB.grad_result) -> g.MB.g_makespan) solos)
      /. gs.(0).MB.g_makespan
    in
    let name = Printf.sprintf "bude_omp/k%d" k in
    row_of_strings name
      [
        Printf.sprintf "%.1f" (batched_ns /. 1e6);
        Printf.sprintf "%.1f" (solo_ns /. 1e6);
        Printf.sprintf "%.2fx" speedup;
        Printf.sprintf "%.2fx" cycles_speedup;
        string_of_bool bitwise;
      ];
    record ~figure:"batch" ~config:name ~bitwise
      (batch_metrics ~seeds:k ~batched_ns ~solo_ns ~speedup ~cycles_speedup);
    bitwise
  in
  List.iter (fun k -> ok := bude_row k && !ok) [ 8 ];
  if not !ok then begin
    Printf.eprintf "fig_batch: a batched lane diverged from its standalone run\n";
    exit 1
  end
