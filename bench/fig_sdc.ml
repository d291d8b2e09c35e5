(* Silent-data-corruption figure (ISSUE 8): a seeded injection campaign
   over the full SDC envelope — bit flips into live cache memory and
   byte damage to in-flight packed messages — on both apps.

   Every trial runs a real gradient under one drawn fault and is
   classified against the faultless bits:

   - recovered : the fault landed, a checksum caught it, and the
     recovery path (retransmit or checkpoint restart) reproduced the
     clean gradient bit-for-bit;
   - masked    : the fault never landed (scheduled past the run's end,
     or aimed at a message ordinal never sent) or was overwritten
     before any read — the gradient is bit-identical without detection;
   - aborted   : detected, but the recovery budget was exhausted; the
     run ended in a structured notice, not a wrong answer;
   - silent    : a gradient whose bits differ from clean with no
     detection. The whole point of the envelope is that this row is
     zero; bench/thresholds holds every row to that.

   bench/thresholds also puts a floor under each campaign's detection
   coverage (detected / landed), and the protect_clean row prices the
   ABFT seals themselves: a never-firing flip plan arms protection
   without ever striking, so its makespan ratio is pure checksum
   overhead. *)

open Util
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module F = Parad_runtime.Faults
module Stats = Parad_runtime.Stats
module Exec = Parad_runtime.Exec
module Checkpoint = Parad_runtime.Checkpoint
module Mpi_state = Parad_runtime.Mpi_state
module Bitmix = Parad_runtime.Bitmix

(* a BENCH_sdc.json row's metrics; coverage is detected / injected,
   percent, and overhead the mean recovered/clean makespan ratio *)
let sdc_metrics ~trials ~injected ~detected ~recovered ~masked ~aborted
    ~silent ~overhead =
  [
    "trials", float trials;
    "injected", float injected;
    "detected", float detected;
    "recovered", float recovered;
    "masked", float masked;
    "aborted", float aborted;
    "silent", float silent;
    ( "coverage",
      if injected = 0 then 100.0
      else 100.0 *. float detected /. float injected );
    "overhead", overhead;
  ]

(* one campaign: run [trials] drawn faults through [trial], classify,
   record a row. [trial] returns the landed-fault stats and makespan on
   success, or `Aborted when detection exhausted the recovery budget. *)
type outcome =
  | Done of Stats.t * float * bool  (** stats, makespan, bits identical *)
  | Aborted

let campaign ~name ~trials ~clean_makespan trial =
  let injected = ref 0 and detected = ref 0 and recovered = ref 0 in
  let masked = ref 0 and aborted = ref 0 and silent = ref 0 in
  let ratio_sum = ref 0.0 in
  for i = 1 to trials do
    match trial i with
    | Done (s, makespan, identical) ->
      if s.Stats.sdc_injected > 0 then incr injected;
      if s.Stats.sdc_detected > 0 then incr detected;
      if identical then
        if s.Stats.sdc_detected > 0 then begin
          incr recovered;
          ratio_sum := !ratio_sum +. (makespan /. clean_makespan)
        end
        else incr masked
      else incr silent
    | Aborted ->
      (* the raised notice IS the detection: the fault landed, was
         caught, and the run refused to return a wrong gradient *)
      incr injected;
      incr detected;
      incr aborted
  done;
  let overhead =
    if !recovered = 0 then 1.0 else !ratio_sum /. float_of_int !recovered
  in
  Printf.printf
    "%-22s %4d trials: %3d landed, %3d detected, %3d recovered, %3d masked, \
     %3d aborted, %d SILENT; coverage %.1f%%, recovery overhead %.2fx\n"
    name trials !injected !detected !recovered !masked !aborted !silent
    (if !injected = 0 then 100.0
     else 100.0 *. float_of_int !detected /. float_of_int !injected)
    overhead;
  record ~figure:"sdc" ~config:name
    (sdc_metrics ~trials ~injected:!injected ~detected:!detected
       ~recovered:!recovered ~masked:!masked ~aborted:!aborted ~silent:!silent
       ~overhead)

let run ~quick =
  header "SDC resilience (seeded bit-flip and message-corruption campaign)";
  let n = if quick then 1 else 2 in
  let tiny = { L.nx = 2; ny = 2; nz = 4; niter = 2; dt0 = 0.01; escale = 1.0 } in
  let lc = L.compile L.Mpi in
  let nranks = 2 in
  let clean = L.gradient_compiled ~nranks lc tiny in
  let deck = MB.deck ~nposes:8 ~natlig:4 ~natpro:6 in
  let mc = MB.compile ~ntasks:1 MB.Omp in
  let mb_clean = MB.gradient_compiled mc deck in
  let lulesh_eq = lulesh_grads_eq clean in
  let mb_eq (g : MB.grad_result) =
    bits_eq mb_clean.MB.g_energies g.MB.g_energies
    && bits_eq mb_clean.MB.d_lig g.MB.d_lig
    && bits_eq mb_clean.MB.d_pro g.MB.d_pro
    && bits_eq mb_clean.MB.d_poses g.MB.d_poses
  in
  let horizon = int_of_float clean.L.g_makespan in

  subheader "memory bit flips, LULESH MPI, supervised recovery";
  let r = Bitmix.rng 11 in
  campaign ~name:"lulesh_mpi_flip" ~trials:(70 * n)
    ~clean_makespan:clean.L.g_makespan (fun _ ->
      let spec =
        Printf.sprintf "none:retries=5,flip=%d@%d@%d@%d"
          (Bitmix.draw_int r nranks) (Bitmix.draw_int r 10_000)
          (Bitmix.draw_int r 64)
          (Bitmix.draw_int r (2 * horizon))
      in
      let faults = F.plan_of_spec ~seed:(Bitmix.draw_int r 1000) ~nranks spec in
      match
        L.gradient_recoverable_compiled ~nranks ~faults ~max_restarts:4 lc
          tiny
      with
      | g, _ -> Done (g.L.g_stats, g.L.g_makespan, lulesh_eq g)
      | exception Checkpoint.Corrupt_region _ -> Aborted);

  subheader "in-flight message corruption, LULESH MPI, retransmit";
  let r = Bitmix.rng 13 in
  campaign ~name:"lulesh_mpi_msg" ~trials:(60 * n)
    ~clean_makespan:clean.L.g_makespan (fun _ ->
      (* ordinals past the traffic count are provably masked; the rest
         must be caught by the trailer and retransmitted in place *)
      let spec =
        Printf.sprintf "none:retries=4,corrupt-msg=%d@%d"
          (1 + Bitmix.draw_int r 8) (Bitmix.draw_int r 512)
      in
      let faults = F.plan_of_spec ~nranks spec in
      match L.gradient_compiled ~nranks ~faults lc tiny with
      | g -> Done (g.L.g_stats, g.L.g_makespan, lulesh_eq g)
      | exception Mpi_state.Corrupt_message _ -> Aborted);

  subheader "sticky message corruption, LULESH MPI, checkpoint restart";
  let r = Bitmix.rng 17 in
  campaign ~name:"lulesh_mpi_msg_sticky" ~trials:(30 * n)
    ~clean_makespan:clean.L.g_makespan (fun _ ->
      (* sticky damage re-corrupts every retransmit, so the ladder
         exhausts and recovery must fall back to a verified snapshot *)
      let spec =
        Printf.sprintf "none:retries=2,corrupt-msg=%d@%d@sticky"
          (1 + Bitmix.draw_int r 6) (Bitmix.draw_int r 512)
      in
      let faults = F.plan_of_spec ~nranks spec in
      match
        L.gradient_recoverable_compiled ~nranks ~faults ~max_restarts:4 lc
          tiny
      with
      | g, _ -> Done (g.L.g_stats, g.L.g_makespan, lulesh_eq g)
      | exception Mpi_state.Corrupt_message _ -> Aborted);

  subheader "memory bit flips, miniBUDE OMP, retry consumes the flip";
  let r = Bitmix.rng 19 in
  campaign ~name:"bude_omp_flip" ~trials:(60 * n)
    ~clean_makespan:mb_clean.MB.g_makespan (fun _ ->
      let spec =
        Printf.sprintf "none:flip=0@%d@%d@%d" (Bitmix.draw_int r 10_000)
          (Bitmix.draw_int r 64)
          (Bitmix.draw_int r (int_of_float (2.0 *. mb_clean.MB.g_makespan)))
      in
      (* single-rank envelope: no supervisor, so recovery consumes the
         fired flip and re-runs *)
      let faults = F.plan_of_spec ~nranks:1 spec in
      match MB.gradient_restarting ~faults ~max_restarts:4 mc deck with
      | g, _ -> Done (g.MB.g_stats, g.MB.g_makespan, mb_eq g)
      | exception Checkpoint.Corrupt_region _ -> Aborted);

  subheader "protection overhead: armed seals, never-firing flip";
  (* a flip scheduled past any reachable virtual time arms the ABFT
     machinery (sealing, boundary digests, the end-of-run sweep) but
     never strikes: the makespan ratio is the pure cost of coverage *)
  let armed = F.plan_of_spec ~nranks "none:flip=0@0@31@1e30" in
  let protected_run = L.gradient_compiled ~nranks ~faults:armed lc tiny in
  if not (lulesh_eq protected_run) then
    failwith "fig_sdc: armed-but-idle protection changed the gradient bits";
  let ratio = protected_run.L.g_makespan /. clean.L.g_makespan in
  Printf.printf "protect_clean: %.0f -> %.0f virtual cycles (%.4fx)\n"
    clean.L.g_makespan protected_run.L.g_makespan ratio;
  record ~figure:"sdc" ~config:"protect_clean"
    (sdc_metrics ~trials:1 ~injected:0 ~detected:0 ~recovered:0 ~masked:1
       ~aborted:0 ~silent:0 ~overhead:ratio)
