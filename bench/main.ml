(* Benchmark harness: one driver per paper figure/table (see DESIGN.md's
   per-experiment index), plus bechamel micro-benchmarks of the framework
   itself (real wall time: AD transform latency and interpreter
   throughput).

   Usage: main.exe [--quick] [--figure fig8|fig9|fig10|fig11|overhead|
                              verify|ablation|checkpoint|serve|sdc|engine|
                              batch|micro]

   Figure drivers record machine-readable rows; the run writes each
   figure's rows to BENCH_<figure>.json on exit (see Bench_row). The
   micro rows go to BENCH_micro.json, which no gate condition names:
   wall times of this kind move with the host. *)

let figures =
  [
    "fig8", Fig8.run;
    "fig9", Fig9.run;
    "fig10", Fig10.run;
    "fig11", Fig11.run;
    "overhead", Fig_overhead.run;
    "verify", Fig_verify.run;
    "ablation", Fig_ablation.run;
    "checkpoint", Fig_checkpoint.run;
    "serve", Fig_serve.run;
    "sdc", Fig_sdc.run;
    "engine", Fig_engine.run;
    "batch", Fig_batch.run;
  ]

(* ---- bechamel micro-benchmarks (real time) ---- *)

let micro ~quick:_ =
  Util.header "Micro-benchmarks (bechamel, real wall time)";
  let open Bechamel in
  let lulesh_prog = Apps_lulesh.Lulesh.program Apps_lulesh.Lulesh.Omp in
  let bude_prog = Apps_minibude.Minibude.program () in
  (* the post-AD pipeline runs on every plan compile, over the functions
     the gradient reaches *)
  let post_ad flavor =
    let name = Apps_lulesh.Lulesh.flavor_name flavor in
    let rprog, dname =
      Parad_core.Reverse.gradient (Apps_lulesh.Lulesh.program flavor) name
    in
    Test.make ~name:("post_ad pipeline " ^ name)
      (Staged.stage (fun () ->
           ignore
             (Parad_opt.Pipeline.run_from rprog dname
                Parad_opt.Pipeline.post_ad)))
  in
  (* two of its parts on the emitted LULESH MPI gradient: the verifier,
     which runs after every pass, and the register promotion *)
  let mpi_rprog, mpi_dname =
    Parad_core.Reverse.gradient
      (Apps_lulesh.Lulesh.program Apps_lulesh.Lulesh.Mpi)
      "lulesh_mpi"
  in
  let verify_mpi =
    Test.make ~name:"verify lulesh_mpi"
      (Staged.stage (fun () -> Parad_ir.Verifier.check_prog mpi_rprog))
  in
  let mem_forward_mpi =
    let d = Parad_ir.Prog.find_exn mpi_rprog mpi_dname in
    Test.make ~name:"mem_forward d_lulesh_mpi"
      (Staged.stage (fun () -> ignore (Parad_opt.Mem_forward.run_func d)))
  in
  (* plan compilation after the post-AD pipeline: engine lowering of the
     gradient function, alone and behind the whole cold compile *)
  let lower prog dname =
    let e = Parad_engine.Engine.prepare prog in
    ignore (Parad_engine.Engine.get_cfun e ~taped:false dname)
  in
  let omp_grad =
    let rprog, dname = Parad_core.Reverse.gradient lulesh_prog "lulesh_omp" in
    Parad_opt.Pipeline.run_from rprog dname Parad_opt.Pipeline.post_ad, dname
  in
  let tiny =
    {
      Apps_lulesh.Lulesh.nx = 2;
      ny = 2;
      nz = 2;
      niter = 1;
      dt0 = 0.01;
      escale = 1.0;
    }
  in
  (* the tape baseline: the engine-taped primal and the tape's reverse
     sweep, on 2 ranks *)
  let tape_lulesh =
    let prog = Apps_lulesh.Lulesh.program Apps_lulesh.Lulesh.Mpi in
    let call_slots =
      Parad_engine.Engine.(call_fn_slots (prepare prog) Seq)
    in
    let nranks = 2 in
    let args =
      Array.init nranks (fun rank -> Util.lulesh_args tiny ~nranks ~rank)
    in
    let seeds =
      Array.init nranks (fun rank -> Util.lulesh_zero_seeds tiny ~nranks ~rank)
    in
    Test.make ~name:"tape lulesh_mpi"
      (Staged.stage (fun () ->
           ignore
             (Util.TC.reverse_spmd ~call_slots prog "lulesh_mpi" ~nranks
                ~args:(fun ~rank -> args.(rank))
                ~seeds:(fun ~rank -> seeds.(rank))
                ~d_ret:(fun ~rank -> if rank = 0 then 1.0 else 0.0))))
  in
  (* a steady engine gradient on 2 ranks: the plan is compiled, and its
     gradient lowered by a first run, outside the timed closure *)
  let engine_lulesh =
    let c = Apps_lulesh.Lulesh.compile Apps_lulesh.Lulesh.Mpi in
    let grad () =
      ignore
        (Apps_lulesh.Lulesh.gradient_compiled ~nranks:2
           ~engine:Parad_engine.Engine.Seq c tiny)
    in
    grad ();
    Test.make ~name:"engine gradient lulesh_mpi" (Staged.stage grad)
  in
  let tests =
    Test.make_grouped ~name:"parad" ~fmt:"%s %s"
      [
        Test.make ~name:"ad-transform lulesh_omp"
          (Staged.stage (fun () ->
               ignore
                 (Parad_core.Reverse.gradient lulesh_prog "lulesh_omp")));
        Test.make ~name:"ad-transform bude_omp"
          (Staged.stage (fun () ->
               ignore (Parad_core.Reverse.gradient bude_prog "bude_omp")));
        Test.make ~name:"interp lulesh 2x2x2"
          (Staged.stage (fun () ->
               ignore (Apps_lulesh.Lulesh.run Apps_lulesh.Lulesh.Seq tiny)));
        Test.make ~name:"o2 pipeline lulesh_omp"
          (Staged.stage (fun () ->
               ignore
                 (Parad_opt.Pipeline.run_on lulesh_prog "lulesh_omp"
                    Parad_opt.Pipeline.o2)));
        post_ad Apps_lulesh.Lulesh.Omp;
        post_ad Apps_lulesh.Lulesh.Mpi;
        verify_mpi;
        mem_forward_mpi;
        Test.make ~name:"engine lower lulesh_omp"
          (Staged.stage (fun () -> lower (fst omp_grad) (snd omp_grad)));
        Test.make ~name:"cold compile lulesh_omp"
          (Staged.stage (fun () ->
               let prog = Apps_lulesh.Lulesh.program Apps_lulesh.Lulesh.Omp in
               let rprog, dname =
                 Parad_core.Reverse.gradient prog "lulesh_omp"
               in
               lower
                 (Parad_opt.Pipeline.run_from rprog dname
                    Parad_opt.Pipeline.post_ad)
                 dname));
        tape_lulesh;
        engine_lulesh;
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        Printf.printf "%-32s %12.1f ns/run\n" name est;
        Util.record ~figure:"micro" ~config:name [ "ns_per_run", est ]
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (List.of_seq (Hashtbl.to_seq results)))

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let chosen =
    let rec find i =
      if i >= Array.length Sys.argv - 1 then None
      else if Sys.argv.(i) = "--figure" then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  (match chosen with
  | Some "micro" -> micro ~quick
  | Some name -> (
    match List.assoc_opt name figures with
    | Some f -> f ~quick
    | None ->
      Printf.eprintf "unknown figure %S; available: %s micro\n" name
        (String.concat " " (List.map fst figures));
      exit 1)
  | None ->
    List.iter (fun (_, f) -> f ~quick) figures;
    micro ~quick);
  Bench_row.write ~quick (List.rev !Util.rows);
  Printf.printf "\nbench: done.\n"
