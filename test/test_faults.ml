(* Fault injection, structured deadlock diagnosis, and the post-run
   communication audit. *)

open Parad_ir
open Parad_runtime
module B = Builder
module V = Value
module CC = Parad_verify.Comm_check
module GC = Parad_verify.Grad_check

let feq = Alcotest.float 1e-9

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_contains what s sub =
  Alcotest.(check bool)
    (Printf.sprintf "%s mentions %S (got: %s)" what sub s)
    true (contains s sub)

(* non-differentiable ring: isend rank value to next, recv from prev *)
let ring_prog ?(send_tag = 7) ?(recv_tag = 7) ?(wait_send = true) () =
  let prog = Prog.create () in
  let b, _ = B.func prog "ring" ~params:[] ~ret:Ty.Float in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let next = B.rem b (B.add b rank (B.i64 b 1)) size in
  let prev = B.rem b (B.add b rank (B.sub b size (B.i64 b 1))) size in
  let sendbuf = B.alloc b Ty.Float (B.i64 b 1) in
  let recvbuf = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b sendbuf (B.i64 b 0) (B.to_float b rank);
  let one = B.i64 b 1 in
  let sreq =
    B.call b ~ret:Ty.Int "mpi.isend"
      [ sendbuf; one; next; B.i64 b send_tag ]
  in
  let rreq =
    B.call b ~ret:Ty.Int "mpi.irecv"
      [ recvbuf; one; prev; B.i64 b recv_tag ]
  in
  if wait_send then ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ sreq ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ rreq ]);
  B.return b (Some (B.load b recvbuf (B.i64 b 0)));
  ignore (B.finish b);
  prog

let run_ring ?faults ?mpi_ref ?(prog = ring_prog ()) ~nranks () =
  Exec.run_spmd ?faults ?mpi_ref prog ~nranks ~fname:"ring"
    ~setup:(fun _ ~rank:_ -> [])

(* ---- structured diagnosis of classic failure paths ---- *)

let test_tag_mismatch () =
  (* every send uses tag 1, every recv expects tag 2: all recvs block and
     the diagnosis must say which tag each rank is stuck on *)
  let prog = ring_prog ~send_tag:1 ~recv_tag:2 ~wait_send:false () in
  match run_ring ~prog ~nranks:3 () with
  | _ -> Alcotest.fail "tag mismatch not detected"
  | exception Sim.Deadlock d ->
    Alcotest.(check int) "all ranks parked" 3 (List.length d.Sim.d_blocked);
    let s = Sim.diagnosis_to_string d in
    check_contains "diagnosis" s "tag 2";
    check_contains "diagnosis" s "no matching send"

let test_collective_missing_rank () =
  (* rank 1 skips the allreduce: the others' diagnosis must name it *)
  let prog = Prog.create () in
  let b, _ = B.func prog "skip" ~params:[] ~ret:Ty.Float in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let c = B.eq b rank (B.i64 b 1) in
  let r =
    B.if_ b c ~results:[ Ty.Float ]
      ~then_:(fun () -> [ B.f64 b 0.0 ])
      ~else_:(fun () ->
        let s = B.alloc b Ty.Float (B.i64 b 1) in
        let out = B.alloc b Ty.Float (B.i64 b 1) in
        B.store b s (B.i64 b 0) (B.to_float b rank);
        ignore
          (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ s; out; B.i64 b 1 ]);
        [ B.load b out (B.i64 b 0) ])
  in
  B.return b (Some (List.hd r));
  ignore (B.finish b);
  let mpi_ref = ref None in
  match
    Exec.run_spmd ~mpi_ref prog ~nranks:4 ~fname:"skip"
      ~setup:(fun _ ~rank:_ -> [])
  with
  | _ -> Alcotest.fail "missing collective rank not detected"
  | exception Sim.Deadlock d ->
    let s = Sim.diagnosis_to_string d in
    check_contains "diagnosis" s "allreduce";
    check_contains "diagnosis" s "waiting for rank(s) [1]";
    let issues = CC.audit (Option.get !mpi_ref) in
    let incomplete =
      List.exists
        (function
          | CC.Incomplete_collective { missing; _ } -> missing = [ 1 ]
          | _ -> false)
        issues
    in
    Alcotest.(check bool) "audit reports rank 1 missing" true incomplete

let test_unwaited_isend () =
  (* recv with mpi.recv (blocking), never wait on the isend request: the
     run completes but the audit must flag the unobserved request *)
  let prog = Prog.create () in
  let b, _ = B.func prog "uw" ~params:[] ~ret:Ty.Float in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let next = B.rem b (B.add b rank (B.i64 b 1)) size in
  let prev = B.rem b (B.add b rank (B.sub b size (B.i64 b 1))) size in
  let sendbuf = B.alloc b Ty.Float (B.i64 b 1) in
  let recvbuf = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b sendbuf (B.i64 b 0) (B.to_float b rank);
  let one = B.i64 b 1 and tag = B.i64 b 5 in
  ignore (B.call b ~ret:Ty.Int "mpi.isend" [ sendbuf; one; next; tag ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.recv" [ recvbuf; one; prev; tag ]);
  B.return b (Some (B.load b recvbuf (B.i64 b 0)));
  ignore (B.finish b);
  let mpi_ref = ref None in
  let res =
    Exec.run_spmd ~mpi_ref prog ~nranks:3 ~fname:"uw"
      ~setup:(fun _ ~rank:_ -> [])
  in
  Array.iteri
    (fun rank v ->
      Alcotest.check feq
        (Printf.sprintf "rank %d value" rank)
        (float_of_int ((rank + 2) mod 3))
        (V.to_float v))
    res.Exec.values;
  let issues = CC.audit (Option.get !mpi_ref) in
  let unwaited =
    List.filter
      (function CC.Unwaited_request { kind = "isend"; _ } -> true | _ -> false)
      issues
  in
  Alcotest.(check int) "one unwaited isend per rank" 3 (List.length unwaited)

(* ---- fault plans ---- *)

let test_drop_retry_transparent () =
  (* recoverable drops: identical values, larger makespan, counted
     retries, nothing lost *)
  let clean = run_ring ~nranks:5 () in
  let plan = Faults.plan_of_name ~nranks:5 "drop-retry" in
  let faulty = run_ring ~faults:plan ~nranks:5 () in
  Array.iteri
    (fun rank v ->
      Alcotest.check feq
        (Printf.sprintf "rank %d value unchanged" rank)
        (V.to_float clean.Exec.values.(rank))
        (V.to_float v))
    faulty.Exec.values;
  Alcotest.(check bool)
    (Printf.sprintf "makespan grows (%.0f -> %.0f)" clean.Exec.makespan
       faulty.Exec.makespan)
    true
    (faulty.Exec.makespan > clean.Exec.makespan);
  Alcotest.(check int)
    "two retries per message" 10 faulty.Exec.stats.Stats.send_retries;
  Alcotest.(check int) "nothing lost" 0 faulty.Exec.stats.Stats.messages_lost

let test_seeded_drop_diagnosis_deterministic () =
  (* an unrecoverable seeded fault must produce a byte-identical
     diagnosis and audit across two executions *)
  let go () =
    let plan = Faults.plan_of_name ~seed:7 ~rank:1 ~nranks:4 "blackhole" in
    let mpi_ref = ref None in
    match run_ring ~faults:plan ~mpi_ref ~nranks:4 () with
    | _ -> Alcotest.fail "blackhole did not deadlock"
    | exception Sim.Deadlock d ->
      ( Sim.diagnosis_to_string d,
        CC.report (CC.audit (Option.get !mpi_ref)) )
  in
  let d1, a1 = go () and d2, a2 = go () in
  Alcotest.(check string) "diagnosis byte-identical" d1 d2;
  Alcotest.(check string) "audit byte-identical" a1 a2;
  check_contains "diagnosis" d1 "lost by fault injection";
  check_contains "audit" a1 "lost message: rank 1"

let test_flaky_deterministic_values () =
  (* seeded random attempt drops are always recovered and reproducible *)
  let plan = Faults.plan_of_name ~seed:3 ~nranks:5 "flaky" in
  let a = run_ring ~faults:plan ~nranks:5 () in
  let b = run_ring ~faults:plan ~nranks:5 () in
  Alcotest.(check (float 0.0))
    "same makespan across reruns" a.Exec.makespan b.Exec.makespan;
  Alcotest.(check int)
    "same retries across reruns" a.Exec.stats.Stats.send_retries
    b.Exec.stats.Stats.send_retries;
  let clean = run_ring ~nranks:5 () in
  Array.iteri
    (fun rank v ->
      Alcotest.check feq
        (Printf.sprintf "rank %d value unchanged" rank)
        (V.to_float clean.Exec.values.(rank))
        (V.to_float v))
    a.Exec.values

let test_kill_names_victim () =
  (* a killed rank no longer silently deadlocks its peers: a surviving
     rank raises a structured notification naming the victim, the
     survivor set, and the deterministic agreement time *)
  let plan = Faults.plan_of_name ~rank:2 ~nranks:4 "kill" in
  match run_ring ~faults:plan ~nranks:4 () with
  | _ -> Alcotest.fail "killed rank did not raise a structured failure"
  | exception Mpi_state.Rank_failed n ->
    Alcotest.(check int) "victim named" 2 n.Mpi_state.fn_failed;
    Alcotest.(check (list int))
      "survivor set" [ 0; 1; 3 ] n.Mpi_state.fn_survivors;
    Alcotest.(check bool)
      "agreement charged to virtual time" true
      (n.Mpi_state.fn_agreed_at > n.Mpi_state.fn_observed_at);
    check_contains "failure report"
      (Format.asprintf "%a" Mpi_state.pp_failure n)
      "rank 2 killed"

let test_recv_from_dead_immediate () =
  (* a receive posted against an already-dead rank observes the failure
     at post time — not after a retry deadline. In the ring, rank 2 dies
     at its first MPI call, so rank 3's later irecv from rank 2 hits a
     dead peer. *)
  let plan = Faults.plan_of_spec ~nranks:4 "kill:victim=2,deadline=1e12" in
  match run_ring ~faults:plan ~nranks:4 () with
  | _ -> Alcotest.fail "no failure raised"
  | exception Mpi_state.Rank_failed n ->
    Alcotest.(check int)
      "observed by the posting rank" 3 n.Mpi_state.fn_observed_by;
    Alcotest.(check bool)
      "observed long before the retry deadline" true
      (n.Mpi_state.fn_observed_at < 1e6)

let test_plan_spec_overrides () =
  let p =
    Faults.plan_of_spec ~nranks:8 "kill:victim=3,at=500,kill=5@1000,retries=9"
  in
  Alcotest.(check int) "retries override" 9 p.Faults.max_retries;
  Alcotest.(check (list (pair int (float 0.0))))
    "two kills" [ 3, 500.0; 5, 1000.0 ] p.Faults.kills;
  Alcotest.(check string)
    "plan named after the full spec" "kill:victim=3,at=500,kill=5@1000,retries=9"
    p.Faults.name;
  let p' = Faults.consume_kill p ~rank:3 in
  Alcotest.(check (list (pair int (float 0.0))))
    "fired kill consumed" [ 5, 1000.0 ] p'.Faults.kills;
  (match Faults.plan_of_spec ~nranks:4 "kill:bogus=1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown override key accepted");
  match Faults.plan_of_spec ~nranks:4 "stall:stall=2@0" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed stall override accepted"

let test_plan_spec_rejects () =
  (* every malformed spec must fail loudly with a message naming the
     problem — never parse to a silently-inert plan *)
  let expect_bad what sub spec =
    match Faults.plan_of_spec ~nranks:4 spec with
    | exception Invalid_argument msg -> check_contains what msg sub
    | _ -> Alcotest.fail (Printf.sprintf "%s: %S accepted" what spec)
  in
  expect_bad "unknown plan name" "unknown plan" "typo-plan";
  expect_bad "unknown override key" "unknown key" "drop-retry:bogus=1";
  expect_bad "non-integer retries" "retries" "drop-retry:retries=many";
  (* out-of-range ranks would make the plan silently never fire *)
  expect_bad "victim out of range" "out of range" "kill:victim=9";
  expect_bad "negative victim" "out of range" "stall:victim=-1";
  expect_bad "kill rank out of range" "out of range" "none:kill=7@100";
  expect_bad "stall rank out of range" "out of range" "none:stall=4@0@50";
  (* in-range explicit targets still parse *)
  let p = Faults.plan_of_spec ~nranks:4 "none:kill=3@100,stall=0@5@50" in
  Alcotest.(check (list (pair int (float 0.0))))
    "in-range kill kept" [ 3, 100.0 ] p.Faults.kills;
  match Faults.plan_of_name ~rank:5 ~nranks:4 "kill" with
  | exception Invalid_argument msg ->
    check_contains "plan_of_name victim range" msg "out of range"
  | _ -> Alcotest.fail "plan_of_name accepted victim 5 of 4 ranks"

let test_duplicate_flagged_by_audit () =
  let plan = Faults.plan_of_name ~nranks:3 "dup" in
  let mpi_ref = ref None in
  let res = run_ring ~faults:plan ~mpi_ref ~nranks:3 () in
  Alcotest.(check int)
    "one duplicate injected" 1 res.Exec.stats.Stats.messages_duplicated;
  let issues = CC.audit (Option.get !mpi_ref) in
  let dup_send =
    List.exists
      (function CC.Unmatched_send { msgs = 1; _ } -> true | _ -> false)
      issues
  in
  Alcotest.(check bool) "audit flags the extra copy" true dup_send

(* ---- gradients under injection (acceptance criterion) ---- *)

(* differentiable ring: isend x to next, irecv y from prev, return
   x[0]*2 + y[0]*3 so the adjoint flows through the message *)
let grad_ring_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "gring"
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = match ps with [ a; b ] -> a, b | _ -> assert false in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let next = B.rem b (B.add b rank (B.i64 b 1)) size in
  let prev = B.rem b (B.add b rank (B.sub b size (B.i64 b 1))) size in
  let y = B.alloc b Ty.Float n in
  let tag = B.i64 b 9 in
  let sreq = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  let rreq = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ sreq ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ rreq ]);
  let x0 = B.load b x (B.i64 b 0) in
  let y0 = B.load b y (B.i64 b 0) in
  B.return b
    (Some
       (B.add b
          (B.mul b x0 (B.f64 b 2.0))
          (B.mul b y0 (B.f64 b 3.0))));
  ignore (B.finish b);
  prog

let test_gradient_under_drop_retry () =
  (* retransmits change only virtual time, so reverse mode under a
     recoverable fault plan must still match finite differences *)
  let prog = grad_ring_prog () in
  let plan = Faults.plan_of_name ~nranks:3 "drop-retry" in
  let n = 2 in
  match
    GC.check_spmd prog "gring" ~nranks:3 ~faults:plan
      ~args:(fun ~rank ->
        [
          GC.ABuf (Array.init n (fun i -> 0.4 +. float_of_int (rank + i)));
          GC.AInt n;
        ])
      ~seeds:(fun ~rank:_ -> [ Array.make n 0.0 ])
      ~d_ret:(fun ~rank -> if rank = 0 then 1.0 else 0.0)
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "gradient under drop-retry: %s" m

let test_gradient_drop_retry_bitwise () =
  (* stronger than FD agreement: the adjoints themselves are bitwise
     unchanged by a recoverable plan *)
  let prog = grad_ring_prog () in
  let n = 2 in
  let args ~rank =
    [
      GC.ABuf (Array.init n (fun i -> 0.4 +. float_of_int (rank + i)));
      GC.AInt n;
    ]
  in
  let seeds ~rank:_ = [ Array.make n 0.0 ] in
  let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
  let grad faults =
    (GC.reverse_spmd ?faults ~nranks:3 ~args ~seeds ~d_ret prog "gring")
      .GC.s_d_bufs
  in
  let clean = grad None in
  let plan = Faults.plan_of_name ~nranks:3 "drop-retry" in
  let faulty = grad (Some plan) in
  Array.iteri
    (fun rank bufs ->
      List.iteri
        (fun bi arr ->
          Array.iteri
            (fun i d ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "rank %d buf %d adjoint %d" rank bi i)
                (List.nth clean.(rank) bi).(i)
                d)
            arr)
        bufs)
    faulty

let test_gradient_coalesced_plans_transparent () =
  (* Recoverable drop and delay plans act on the *packed* adjoint
     batches (Mpi_state.packed_tag) exactly as on forward traffic; both
     change only virtual time, so the LULESH MPI gradient stays bitwise
     identical to the faultless run and the audit stays clean. *)
  let module L = Apps_lulesh.Lulesh in
  let tiny =
    { L.nx = 2; ny = 2; nz = 4; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  let grad faults =
    let mpi_ref = ref None in
    let g = L.gradient ~nranks:4 ?faults ~mpi_ref L.Mpi tiny in
    (match CC.audit (Option.get !mpi_ref) with
    | [] -> ()
    | issues -> Alcotest.failf "audit under plan: %s" (CC.report issues));
    g
  in
  let clean = grad None in
  Alcotest.(check bool)
    "packed adjoint batches in flight" true
    (clean.L.g_stats.Stats.msgs_sent > 0);
  List.iter
    (fun plan_name ->
      let plan = Faults.plan_of_name ~nranks:4 plan_name in
      let faulty = grad (Some plan) in
      Array.iteri
        (fun r (on : float array) ->
          Array.iteri
            (fun i x ->
              Alcotest.(check int64)
                (Printf.sprintf "%s rank %d d_x[%d]" plan_name r i)
                (Int64.bits_of_float clean.L.d_coords.(r).(i))
                (Int64.bits_of_float x))
            on)
        faulty.L.d_coords)
    [ "drop-retry"; "delay" ]

(* ---- silent data corruption: inject, detect, recover ---- *)

let test_plan_spec_sdc_roundtrip () =
  (* flip and corrupt-msg keys parse to structured plan entries and
     render back through pp_plan naming every field *)
  let p =
    Faults.plan_of_spec ~nranks:4 "none:flip=1@5@40@100,corrupt-msg=2@7@sticky"
  in
  Alcotest.(check bool)
    "flip entry parsed" true
    (p.Faults.flips = [ 1, 5, 40, 100.0 ]);
  Alcotest.(check bool)
    "corrupt entry parsed" true
    (p.Faults.corrupts = [ 2, 7, true ]);
  let s = Format.asprintf "%a" Faults.pp_plan p in
  check_contains "pp_plan" s "flip rank 1 cell 5 bit 40 at t>=100";
  check_contains "pp_plan" s "corrupt packed msg #2 byte 7 (sticky)";
  (* spec keys append to the named plan's defaults; consume_* drops
     entries in order *)
  let p = Faults.plan_of_spec ~nranks:4 "flip:flip=0@9@1@2" in
  Alcotest.(check int) "append to default flip" 2 (List.length p.Faults.flips);
  let p = Faults.consume_flip p ~rank:1 in
  Alcotest.(check bool)
    "rank 1 default consumed" true
    (p.Faults.flips = [ 0, 9, 1, 2.0 ]);
  let p = Faults.plan_of_spec ~nranks:2 "none:corrupt-msg=1@3@sticky" in
  let p = Faults.consume_corrupt p in
  Alcotest.(check bool) "sticky corrupt consumed" true (p.Faults.corrupts = [])

let test_plan_spec_sdc_rejects () =
  let expect_bad what sub spec =
    match Faults.plan_of_spec ~nranks:4 spec with
    | exception Invalid_argument msg -> check_contains what msg sub
    | _ -> Alcotest.fail (Printf.sprintf "%s: %S accepted" what spec)
  in
  (* scalar keys may appear at most once: a silently-ignored second
     value would make a campaign spec lie about what it injects *)
  expect_bad "duplicate at" "at most once" "kill:at=0,at=500";
  expect_bad "duplicate retries" "at most once"
    "drop-retry:retries=2,retries=9";
  expect_bad "duplicate victim" "at most once" "kill:victim=1,victim=2";
  (* malformed SDC keys *)
  expect_bad "flip rank out of range" "out of range" "none:flip=7@0@31@0";
  expect_bad "flip bit out of range" "bit" "none:flip=0@0@64@0";
  expect_bad "corrupt ordinal" "ordinal" "none:corrupt-msg=0";
  expect_bad "corrupt bad sticky" "sticky" "none:corrupt-msg=1@3@bogus"

let tiny_lulesh =
  let module L = Apps_lulesh.Lulesh in
  { L.nx = 2; ny = 2; nz = 4; niter = 2; dt0 = 0.01; escale = 1.0 }

let check_bitwise_coords what (clean : float array array)
    (faulty : float array array) =
  Array.iteri
    (fun r (on : float array) ->
      Array.iteri
        (fun i x ->
          Alcotest.(check int64)
            (Printf.sprintf "%s rank %d d_x[%d]" what r i)
            (Int64.bits_of_float clean.(r).(i))
            (Int64.bits_of_float x))
        on)
    faulty

let test_corrupt_msg_retransmit_bitwise () =
  (* a damaged in-flight packed adjoint batch is caught by its checksum
     trailer before unpack and retransmitted from the sender's staging
     copy: the gradient is bitwise identical, only virtual time and the
     SDC counters move *)
  let module L = Apps_lulesh.Lulesh in
  let clean = L.gradient ~nranks:4 L.Mpi tiny_lulesh in
  let plan = Faults.plan_of_spec ~nranks:4 "none:corrupt-msg=1@9" in
  let faulty = L.gradient ~nranks:4 ~faults:plan L.Mpi tiny_lulesh in
  check_bitwise_coords "corrupt-msg" clean.L.d_coords faulty.L.d_coords;
  let s = faulty.L.g_stats in
  Alcotest.(check int) "one corruption injected" 1 s.Stats.sdc_injected;
  Alcotest.(check int) "detected by trailer" 1 s.Stats.sdc_detected;
  Alcotest.(check int) "recovered in place" 1 s.Stats.sdc_recovered;
  Alcotest.(check bool)
    "at least one retransmit" true (s.Stats.msgs_retransmitted >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "retransmit charged to virtual time (%.0f -> %.0f)"
       clean.L.g_makespan faulty.L.g_makespan)
    true
    (faulty.L.g_makespan > clean.L.g_makespan)

let test_sticky_corrupt_msg_raises () =
  (* a sticky corruption re-damages every retransmit: the ladder
     exhausts and must surface a structured notice, never a silently
     wrong gradient *)
  let module L = Apps_lulesh.Lulesh in
  let plan =
    Faults.plan_of_spec ~nranks:4 "none:retries=2,corrupt-msg=1@9@sticky"
  in
  match L.gradient ~nranks:4 ~faults:plan L.Mpi tiny_lulesh with
  | _ -> Alcotest.fail "sticky corruption not raised"
  | exception Mpi_state.Corrupt_message c ->
    Alcotest.(check bool) "attempts exhausted" true (c.Mpi_state.cm_attempts >= 2);
    check_contains "notice"
      (Format.asprintf "%a" Mpi_state.pp_corruption c)
      "corrupt"

let test_flip_detected_unsupervised () =
  (* an unsupervised run with a live bit flip must end in a structured
     Corrupt_region — the end-of-run ABFT sweep guarantees no flip
     leaves the run as a silently wrong value *)
  let module L = Apps_lulesh.Lulesh in
  let plan = Faults.plan_of_spec ~nranks:2 "none:flip=1@3@31@50" in
  match L.gradient ~nranks:2 ~faults:plan L.Mpi tiny_lulesh with
  | _ -> Alcotest.fail "flip not detected"
  | exception Checkpoint.Corrupt_region { cr_rank; _ } ->
    Alcotest.(check int) "victim rank named" 1 cr_rank

let test_flip_supervised_recovery_bitwise () =
  (* under supervision the same flip degrades to the nearest verified
     snapshot and re-advances: the recovered gradient is bitwise
     identical to the faultless one *)
  let module L = Apps_lulesh.Lulesh in
  let clean = L.gradient ~nranks:2 L.Mpi tiny_lulesh in
  let plan = Faults.plan_of_spec ~nranks:2 "none:flip=1@3@31@50" in
  let faulty, recov =
    L.gradient_recoverable ~nranks:2 ~faults:plan ~max_restarts:3 L.Mpi
      tiny_lulesh
  in
  check_bitwise_coords "flip recovery" clean.L.d_coords faulty.L.d_coords;
  let s = faulty.L.g_stats in
  Alcotest.(check int) "flip injected" 1 s.Stats.sdc_injected;
  Alcotest.(check int) "flip detected" 1 s.Stats.sdc_detected;
  Alcotest.(check int) "flip recovered" 1 s.Stats.sdc_recovered;
  Alcotest.(check bool) "restarted at least once" true (s.Stats.restarts >= 1);
  Alcotest.(check bool)
    "resumed from a snapshot" true
    (List.length recov.Exec.r_resumed_from >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "recovery charged to virtual time (%.0f -> %.0f)"
       clean.L.g_makespan faulty.L.g_makespan)
    true
    (faulty.L.g_makespan > clean.L.g_makespan)

let test_bude_flip_restart_bitwise () =
  (* miniBUDE has no checkpoint driver: a caught flip is consumed and the
     gradient re-run from the start, which reproduces the faultless bits *)
  let module MB = Apps_minibude.Minibude in
  let deck = MB.deck ~nposes:16 ~natlig:8 ~natpro:16 in
  let c = MB.compile ~ntasks:1 MB.Omp in
  let clean = MB.gradient_compiled c deck in
  let faults = Faults.plan_of_spec ~nranks:1 "none:flip=0@5@62@300000" in
  (match MB.gradient_restarting ~faults ~max_restarts:0 c deck with
  | _ -> Alcotest.fail "flip not detected without a restart budget"
  | exception Checkpoint.Corrupt_region { cr_rank; _ } ->
    Alcotest.(check int) "victim rank named" 0 cr_rank);
  let g, restarts = MB.gradient_restarting ~faults ~max_restarts:2 c deck in
  Alcotest.(check int) "one restart" 1 restarts;
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (what, a, b) ->
      Alcotest.(check (array int64)) what (bits a) (bits b))
    [
      "d_lig", clean.MB.d_lig, g.MB.d_lig;
      "d_pro", clean.MB.d_pro, g.MB.d_pro;
      "d_poses", clean.MB.d_poses, g.MB.d_poses;
    ];
  let s = g.MB.g_stats in
  Alcotest.(check (list int))
    "restarts, flips injected, detected, recovered" [ 1; 1; 1; 1 ]
    [ s.Stats.restarts; s.sdc_injected; s.sdc_detected; s.sdc_recovered ]

let () =
  Alcotest.run "faults"
    [
      ( "diagnosis",
        [
          Alcotest.test_case "recv tag mismatch" `Quick test_tag_mismatch;
          Alcotest.test_case "rank absent from collective" `Quick
            test_collective_missing_rank;
          Alcotest.test_case "unwaited isend" `Quick test_unwaited_isend;
        ] );
      ( "plans",
        [
          Alcotest.test_case "drop-retry transparent" `Quick
            test_drop_retry_transparent;
          Alcotest.test_case "seeded diagnosis deterministic" `Quick
            test_seeded_drop_diagnosis_deterministic;
          Alcotest.test_case "flaky deterministic" `Quick
            test_flaky_deterministic_values;
          Alcotest.test_case "kill names victim" `Quick test_kill_names_victim;
          Alcotest.test_case "recv from dead rank immediate" `Quick
            test_recv_from_dead_immediate;
          Alcotest.test_case "plan spec overrides" `Quick
            test_plan_spec_overrides;
          Alcotest.test_case "plan spec rejects bad input" `Quick
            test_plan_spec_rejects;
          Alcotest.test_case "duplicate flagged" `Quick
            test_duplicate_flagged_by_audit;
        ] );
      ( "gradients",
        [
          Alcotest.test_case "fd check under drop-retry" `Quick
            test_gradient_under_drop_retry;
          Alcotest.test_case "adjoints bitwise stable" `Quick
            test_gradient_drop_retry_bitwise;
          Alcotest.test_case "plans transparent to coalesced batches"
            `Quick test_gradient_coalesced_plans_transparent;
        ] );
      ( "sdc",
        [
          Alcotest.test_case "flip/corrupt spec round-trip" `Quick
            test_plan_spec_sdc_roundtrip;
          Alcotest.test_case "sdc spec rejects bad input" `Quick
            test_plan_spec_sdc_rejects;
          Alcotest.test_case "corrupt-msg retransmit bitwise" `Quick
            test_corrupt_msg_retransmit_bitwise;
          Alcotest.test_case "sticky corruption raises" `Quick
            test_sticky_corrupt_msg_raises;
          Alcotest.test_case "flip detected unsupervised" `Quick
            test_flip_detected_unsupervised;
          Alcotest.test_case "flip recovery bitwise" `Quick
            test_flip_supervised_recovery_bitwise;
          Alcotest.test_case "bude flip restart bitwise" `Quick
            test_bude_flip_restart_bitwise;
        ] );
    ]
