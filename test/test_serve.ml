(* Gradient service: JSON codec, plan-cache correctness (warm results
   bit-identical to cold), admission shedding, circuit-breaker
   lifecycle, deadline classification, checkpoint namespace hygiene,
   and a mini seeded slam soak. *)

open Parad_runtime
module S = Parad_server.Service
module J = Parad_server.Json
module PC = Parad_server.Plan_cache
module Bk = Parad_server.Breaker
module Slam = Parad_server.Slam
module L = Apps_lulesh.Lulesh

let req fields = J.to_string (J.Obj fields)

let send svc fields =
  match J.of_string (S.handle_line svc (req fields)) with
  | Ok r -> r
  | Error m -> Alcotest.failf "unparseable response: %s" m

let cls r = Option.value (J.str_field "class" r) ~default:"<none>"
let digest r = J.str_field "digest" r

let base ?(niter = 2) flavor nranks =
  [
    "flavor", J.Str flavor;
    "nranks", J.Num (float_of_int nranks);
    "niter", J.Num (float_of_int niter);
  ]

let no_watchdog = { S.default_config with S.watchdog_ms = None }

(* ---- json ---- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        "s", J.Str "a\"b\\c\nd";
        "f", J.Num 0.1;
        "i", J.Num 42.0;
        "neg", J.Num (-1.5e-9);
        "b", J.Bool true;
        "z", J.Null;
        "a", J.Arr [ J.Num 1.0; J.Str "x"; J.Obj [] ];
      ]
  in
  match J.of_string (J.to_string v) with
  | Error m -> Alcotest.failf "roundtrip parse failed: %s" m
  | Ok v' ->
    Alcotest.(check string) "print . parse . print is stable"
      (J.to_string v) (J.to_string v');
    (* floats survive bit-exactly through %.17g *)
    Alcotest.(check (option int)) "int field" (Some 42) (J.int_field "i" v');
    match J.num_field "neg" v' with
    | Some f ->
      Alcotest.(check int64) "float bits survive" (Int64.bits_of_float (-1.5e-9))
        (Int64.bits_of_float f)
    | None -> Alcotest.fail "neg field lost"

let test_json_errors () =
  let bad s =
    match J.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
  in
  bad "";
  bad "{";
  bad "{\"a\": }";
  bad "[1, 2";
  bad "nul";
  bad "{\"a\": 1} trailing";
  bad "\"unterminated"

(* ---- plan-cache LRU ---- *)

let test_cache_lru () =
  let c = PC.create ~cap:2 in
  let compiled = ref [] in
  let get k =
    fst
      (PC.get_or_compile c k ~compile:(fun () ->
           compiled := k :: !compiled;
           k))
  in
  Alcotest.(check string) "miss compiles" "a" (get "a");
  Alcotest.(check string) "hit returns cached" "a" (get "a");
  Alcotest.(check int) "one compile so far" 1 (List.length !compiled);
  ignore (get "b");
  ignore (get "a") (* touch a: now b is the LRU victim *);
  ignore (get "c") (* evicts b *);
  Alcotest.(check bool) "a survived (recently used)" true (PC.mem c "a");
  Alcotest.(check bool) "b evicted" false (PC.mem c "b");
  ignore (get "b");
  Alcotest.(check int) "b recompiled after eviction" 2
    (List.length (List.filter (( = ) "b") !compiled));
  Alcotest.(check int) "evictions counted" 2 c.PC.evictions;
  Alcotest.(check int) "hits counted" 2 c.PC.hits

(* ---- breaker unit transitions ---- *)

let test_breaker_transitions () =
  let b = Bk.create ~k:2 ~cooldown:2 in
  let admit () = Bk.admit b and record ok = Bk.record b ~ok in
  Alcotest.(check bool) "starts closed" true (Bk.state b = Bk.Closed);
  ignore (admit ());
  record false;
  ignore (admit ());
  record true (* success resets the consecutive count *);
  ignore (admit ());
  record false;
  Alcotest.(check bool) "still closed below k" true (Bk.state b = Bk.Closed);
  ignore (admit ());
  record false (* second consecutive: trips *);
  Alcotest.(check int) "tripped" 1 b.Bk.trips;
  Alcotest.(check bool) "reject while open" true (admit () = Bk.Reject);
  Alcotest.(check bool) "still rejecting through the cooldown" true
    (admit () = Bk.Reject);
  Alcotest.(check bool) "half-open probe after cooldown" true
    (admit () = Bk.Probe);
  record false (* failed probe re-opens *);
  Alcotest.(check int) "re-trip counted" 2 b.Bk.trips;
  ignore (admit ());
  ignore (admit ());
  Alcotest.(check bool) "probe again" true (admit () = Bk.Probe);
  record true;
  Alcotest.(check bool) "recovered to closed" true (Bk.state b = Bk.Closed);
  Alcotest.(check int) "recovery counted" 1 b.Bk.recoveries

(* ---- plan-cache correctness through the service ---- *)

let test_warm_bit_identical () =
  let svc = S.create ~cfg:no_watchdog () in
  let fields = base "mpi" 2 in
  let cold = send svc fields in
  let warm1 = send svc fields in
  let warm2 = send svc fields in
  Alcotest.(check string) "cold ok" "ok" (cls cold);
  Alcotest.(check (option bool)) "cold is a miss" (Some false)
    (J.bool_field "cached" cold);
  Alcotest.(check (option bool)) "warm is a hit" (Some true)
    (J.bool_field "cached" warm1);
  Alcotest.(check (option bool)) "still warm" (Some true)
    (J.bool_field "cached" warm2);
  Alcotest.(check bool) "digest present" true (digest cold <> None);
  Alcotest.(check (option string)) "warm digest = cold" (digest cold)
    (digest warm1);
  Alcotest.(check (option string)) "third run too" (digest cold)
    (digest warm2);
  (* fresh Stats per request: virtual exec cycles identical, so nothing
     accumulated across requests *)
  Alcotest.(check (option (float 0.0))) "exec cycles identical"
    (J.num_field "exec_cycles" cold)
    (J.num_field "exec_cycles" warm1)

let test_clean_after_failure_same_key () =
  (* a deadlocked request must not poison the cached plan: the next
     clean request on the same key still yields the cold digest *)
  let svc = S.create ~cfg:no_watchdog () in
  let fields = base "mpi" 2 in
  let cold = send svc fields in
  let failed = send svc (("faults", J.Str "blackhole") :: fields) in
  Alcotest.(check string) "fault classified as deadlock" "deadlock"
    (cls failed);
  let after = send svc fields in
  Alcotest.(check string) "clean again" "ok" (cls after);
  Alcotest.(check (option string)) "digest unchanged after failure"
    (digest cold) (digest after)

let test_binomial_matches_monolithic () =
  (* distinct plan keys (b0 vs b2), same gradient bits *)
  let svc = S.create ~cfg:no_watchdog () in
  let mono = send svc (base ~niter:3 "mpi" 2) in
  let binom =
    send svc (("snap_budget", J.Num 2.0) :: base ~niter:3 "mpi" 2)
  in
  Alcotest.(check string) "binomial ok" "ok" (cls binom);
  Alcotest.(check bool) "different plan keys" true
    (J.str_field "plan_key" mono <> J.str_field "plan_key" binom);
  Alcotest.(check (option string)) "bit-identical gradients" (digest mono)
    (digest binom)

let test_default_depth () =
  (* an omitted recompute_depth is the planner's default, as for
     [parad grad], not the cache-everything depth 0: the same plan key
     and gradient as a request naming the default ("inf"), and a cheaper
     sweep than depth 0 with the same bits *)
  let svc = S.create ~cfg:no_watchdog () in
  let omitted = send svc (base "omp" 1) in
  let named = send svc (("recompute_depth", J.Str "inf") :: base "omp" 1) in
  let cache_all = send svc (("recompute_depth", J.Num 0.0) :: base "omp" 1) in
  List.iter
    (fun r -> Alcotest.(check string) "ok" "ok" (cls r))
    [ omitted; named; cache_all ];
  Alcotest.(check (option string)) "default spelled in the plan key"
    (Some "lulesh|lulesh_omp|r1|t1|dinf|b0|c1|s1")
    (J.str_field "plan_key" omitted);
  Alcotest.(check (option string)) "omitted = named plan key"
    (J.str_field "plan_key" omitted) (J.str_field "plan_key" named);
  Alcotest.(check (option string)) "omitted = named digest" (digest omitted)
    (digest named);
  Alcotest.(check (option string)) "depth 0: same bits" (digest omitted)
    (digest cache_all);
  Alcotest.(check bool) "depth 0 is the costlier plan" true
    (J.num_field "exec_cycles" cache_all > J.num_field "exec_cycles" omitted);
  Alcotest.(check string) "a depth word other than inf is rejected"
    "invalid"
    (cls (send svc (("recompute_depth", J.Str "deep") :: base "omp" 1)))

(* ---- request validation ---- *)

let test_validation () =
  let svc = S.create ~cfg:no_watchdog () in
  let invalid fields =
    let r = send svc fields in
    Alcotest.(check string)
      (Printf.sprintf "%s rejected" (req fields))
      "invalid" (cls r);
    Alcotest.(check bool) "carries an error message" true
      (J.str_field "error" r <> None)
  in
  invalid [ "flavor", J.Str "cuda" ];
  invalid [ "nranks", J.Num 3.0 ];
  invalid (base "seq" 2) (* seq is not MPI-capable *);
  invalid [ "app", J.Str "bude"; "nranks", J.Num 2.0 ];
  invalid [ "niter", J.Num 0.0 ];
  (* past 2^53 a JSON number is no exact integer; 1e19 used to wrap to
     recompute depth 0 *)
  invalid [ "recompute_depth", J.Num 1e19 ];
  invalid [ "escale", J.Num 0.0 ];
  invalid [ "deadline_cycles", J.Num (-5.0) ];
  invalid [ "deadline_ms", J.Num 0.0 ];
  invalid [ "faults", J.Str "warp-core-breach" ];
  invalid [ "sanitize", J.Str "maybe" ];
  invalid [ "app", J.Str "hpcg" ];
  invalid [ "engine", J.Str "par" ];
  (* bad JSON is a classified response, not a dead server *)
  let r =
    match J.of_string (S.handle_line svc "{oops") with
    | Ok r -> r
    | Error m -> Alcotest.failf "bad response: %s" m
  in
  Alcotest.(check string) "malformed line classified" "invalid" (cls r);
  let ok = send svc (base "mpi" 2) in
  Alcotest.(check string) "server still healthy" "ok" (cls ok)

(* ---- deadlines ---- *)

let test_deadline_classified () =
  let svc = S.create ~cfg:no_watchdog () in
  let r = send svc (("deadline_cycles", J.Num 100.0) :: base "mpi" 2) in
  Alcotest.(check string) "busted deadline classified" "deadline" (cls r);
  Alcotest.(check (option int)) "code 6" (Some 6) (J.int_field "code" r);
  (* a huge deadline is semantically free: same bits as no deadline *)
  let free = send svc (base "omp" 1) in
  let guarded =
    send svc (("deadline_cycles", J.Num 1e12) :: base "omp" 1)
  in
  Alcotest.(check string) "guarded run ok" "ok" (cls guarded);
  Alcotest.(check (option string)) "deadline guard changes no bits"
    (digest free) (digest guarded)

(* ---- admission control ---- *)

let test_admission_sheds () =
  let cfg = { no_watchdog with S.workers = 2; queue_cap = 2 } in
  let svc = S.create ~cfg () in
  let shed = ref 0 and okc = ref 0 in
  for i = 1 to 8 do
    let r =
      send svc
        (("id", J.Num (float_of_int i))
        :: ("burst", J.Bool true)
        :: base "seq" 1)
    in
    match cls r with
    | "overloaded" ->
      incr shed;
      Alcotest.(check (option int)) "code 7" (Some 7) (J.int_field "code" r)
    | "ok" -> incr okc
    | c -> Alcotest.failf "unexpected class %s" c
  done;
  Alcotest.(check int) "workers + queue admitted" 4 !okc;
  Alcotest.(check int) "the rest shed" 4 !shed;
  Alcotest.(check int) "shed counter agrees" 4 svc.S.shed;
  (* closed-loop traffic after the burst is admitted again *)
  Alcotest.(check string) "recovers after burst" "ok"
    (cls (send svc (base "seq" 1)))

(* ---- breaker end-to-end ---- *)

let test_breaker_e2e () =
  let cfg = { no_watchdog with S.breaker_k = 2; breaker_cooldown = 2 } in
  let svc = S.create ~cfg () in
  let fields = base "hybrid" 2 in
  for _ = 1 to 2 do
    let r = send svc (("faults", J.Str "blackhole") :: fields) in
    Alcotest.(check string) "poisoned run deadlocks" "deadlock" (cls r)
  done;
  for _ = 1 to 2 do
    let r = send svc fields in
    Alcotest.(check string) "rejected while open" "breaker_open" (cls r);
    Alcotest.(check (option int)) "code 8" (Some 8) (J.int_field "code" r)
  done;
  let probe = send svc fields in
  Alcotest.(check string) "half-open probe recovers" "ok" (cls probe);
  let trips, probes, recoveries = S.breaker_totals svc in
  Alcotest.(check int) "one trip" 1 trips;
  Alcotest.(check bool) "probe counted" true (probes >= 1);
  Alcotest.(check int) "one recovery" 1 recoveries;
  (* other keys were never impeded *)
  Alcotest.(check string) "other plan keys unaffected" "ok"
    (cls (send svc (base "mpi" 2)))

(* ---- retries ---- *)

let test_retry_consumes_kill () =
  let svc = S.create ~cfg:no_watchdog () in
  let killed = ("faults", J.Str "kill") :: ("fault_seed", J.Num 5.0)
               :: base ~niter:3 "mpi" 2 in
  let r = send svc killed in
  Alcotest.(check string) "kill retried to success" "ok" (cls r);
  Alcotest.(check bool) "at least one retry recorded" true
    (match J.int_field "retries" r with Some n -> n >= 1 | None -> false);
  Alcotest.(check bool) "host time counted" true (svc.S.wall_ns > 0);
  (* the retried gradient matches a faultless run bit-for-bit *)
  let clean = send svc (base ~niter:3 "mpi" 2) in
  Alcotest.(check (option string)) "retried bits = clean bits" (digest clean)
    (digest r);
  (* the same request with no retry budget fails on its one attempt,
     and the host time that attempt spent simulating is still counted *)
  let once = S.create ~cfg:{ no_watchdog with S.retries = 0 } () in
  let f = send once killed in
  Alcotest.(check string) "no retry: rank failure" "rank_failed" (cls f);
  Alcotest.(check bool) "failed attempt's host time counted" true
    (once.S.wall_ns > 0);
  (* so is a binomial attempt's, when one of its inner runs fails *)
  let binom = S.create ~cfg:{ no_watchdog with S.retries = 0 } () in
  let f =
    send binom
      (("faults", J.Str "blackhole") :: ("snap_budget", J.Num 2.0)
      :: base ~niter:3 "mpi" 2)
  in
  Alcotest.(check bool) "binomial attempt failed" true (cls f <> "ok");
  Alcotest.(check bool) "failed binomial attempt's host time counted" true
    (binom.S.wall_ns > 0)

(* ---- batched seeds + coalescing ---- *)

let test_seeds_validation () =
  let svc = S.create ~cfg:no_watchdog () in
  let invalid fields =
    let r = send svc fields in
    Alcotest.(check string)
      (Printf.sprintf "%s rejected" (req fields))
      "invalid" (cls r)
  in
  invalid (("seeds", J.Num 0.0) :: base "omp" 1);
  invalid (("seeds", J.Num 2.0) :: base "mpi" 2) (* MPI can't batch *);
  invalid
    (("seeds", J.Num 2.0) :: ("snap_budget", J.Num 2.0) :: base "omp" 1);
  invalid
    (("seeds", J.Num 2.0) :: ("inject_nan", J.Num 3.0) :: base "omp" 1);
  (* miniBUDE Julia spawns tasks, which a batched plan cannot
     differentiate: rejected with the planner's reason before a plan is
     compiled, so no number of them trips its plan key's breaker *)
  let julia =
    [
      "app", J.Str "bude"; "flavor", J.Str "julia"; "nthreads", J.Num 2.0;
      "seeds", J.Num 8.0;
    ]
  in
  for _ = 0 to no_watchdog.S.breaker_k do
    invalid julia
  done;
  Alcotest.(check (option string))
    "the planner's reason"
    (Some
       "variant \"bude_julia\" cannot batch seeds: \
        batched seeds (k>1) cannot differentiate task parallelism")
    (J.str_field "error" (send svc julia));
  let trips, _, _ = S.breaker_totals svc in
  Alcotest.(check int) "no breaker tripped" 0 trips;
  (* seeds: 1 is the plain single-seed path, not an error *)
  Alcotest.(check string) "seeds=1 ok" "ok"
    (cls (send svc (("seeds", J.Num 1.0) :: base "omp" 1)))

let test_seeds_batched_ok () =
  let svc = S.create ~cfg:no_watchdog () in
  let fields = ("seeds", J.Num 4.0) :: base "omp" 1 in
  let cold = send svc fields in
  Alcotest.(check string) "batched sweep ok" "ok" (cls cold);
  Alcotest.(check bool) "seed width is in the plan key" true
    (match J.str_field "plan_key" cold with
    | Some k ->
      String.length k >= 3 && String.sub k (String.length k - 3) 3 = "|s4"
    | None -> false);
  (* a warm run replays the cached 4-lane plan bit-identically *)
  let svc2 = S.create ~cfg:no_watchdog () in
  let again = send svc2 fields in
  Alcotest.(check (option string)) "digest deterministic across services"
    (digest cold) (digest again);
  (* bude batches too *)
  let b =
    send svc
      [ "app", J.Str "bude"; "flavor", J.Str "omp"; "seeds", J.Num 3.0 ]
  in
  Alcotest.(check string) "bude batched ok" "ok" (cls b)

let test_seeds_coalesce () =
  let svc = S.create ~cfg:no_watchdog () in
  let fields = ("seeds", J.Num 2.0) :: base "omp" 1 in
  let first = send svc fields in
  Alcotest.(check string) "sweep ok" "ok" (cls first);
  (* identical signature arriving while the sweep is in flight rides it:
     same digest, no execution of its own *)
  let rider = send svc (("burst", J.Bool true) :: fields) in
  Alcotest.(check (option bool)) "rider coalesced" (Some true)
    (J.bool_field "coalesced" rider);
  Alcotest.(check (option string)) "rider digest = sweep digest"
    (digest first) (digest rider);
  Alcotest.(check (option (float 0.0))) "rider executes nothing"
    (Some 0.0)
    (J.num_field "exec_cycles" rider);
  (* a different signature on the same key must NOT ride *)
  let other =
    send svc
      (("burst", J.Bool true) :: ("seeds", J.Num 2.0) :: base ~niter:3 "omp" 1)
  in
  Alcotest.(check (option bool)) "different niter does not coalesce" None
    (J.bool_field "coalesced" other);
  (* faulty requests never ride a clean sweep *)
  let faulty =
    send svc (("burst", J.Bool true) :: ("faults", J.Str "drop-retry") :: fields)
  in
  Alcotest.(check (option bool)) "faulty request does not coalesce" None
    (J.bool_field "coalesced" faulty);
  Alcotest.(check int) "coalesced counter" 1 svc.S.coalesced;
  (* the stats line surfaces host wall time for the executed sweeps *)
  match S.handle_line svc {|{"cmd": "stats"}|} |> J.of_string with
  | Ok s ->
    Alcotest.(check bool) "summary carries wall_ns > 0" true
      (match J.num_field "wall_ns" s with Some w -> w > 0.0 | None -> false);
    Alcotest.(check (option int)) "summary counts riders" (Some 1)
      (J.int_field "coalesced" s)
  | Error m -> Alcotest.failf "bad stats reply: %s" m

(* ---- drain ---- *)

let test_drain () =
  let svc = S.create ~cfg:no_watchdog () in
  ignore (send svc (base "seq" 1));
  let d =
    match J.of_string (S.handle_line svc {|{"cmd": "drain"}|}) with
    | Ok d -> d
    | Error m -> Alcotest.failf "bad drain reply: %s" m
  in
  Alcotest.(check (option string)) "drain event" (Some "drained")
    (J.str_field "event" d);
  Alcotest.(check (option int)) "summary counts the work" (Some 1)
    (J.int_field "executed" d);
  let late = send svc (base "seq" 1) in
  Alcotest.(check string) "late request refused, classified" "overloaded"
    (cls late)

(* ---- checkpoint namespace hygiene ---- *)

let spill_files ns =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("parad-snap-" ^ ns)
  in
  if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else []

let test_checkpoint_namespaces () =
  (* two stores with distinct namespaces spill to distinct directories;
     dispose removes every file and the directory itself *)
  let mk ns =
    Checkpoint.create_store
      ~policy:{ Checkpoint.hot_budget = Some 1; tiers = 2 }
      ~namespace:ns ~nranks:1 ()
  in
  let s1 = mk "testsrv-a" and s2 = mk "testsrv-b" in
  let snap st id v =
    ignore (Checkpoint.put_floats st ~rank:0 ~id ~dt:0.01 [| [| v; v |] |])
  in
  snap s1 0 1.0;
  snap s1 1 2.0 (* demotes id 0 to disk *);
  snap s2 0 3.0;
  snap s2 1 4.0;
  Alcotest.(check int) "store a spilled to its namespace" 1
    (List.length (spill_files "testsrv-a"));
  Alcotest.(check int) "store b spilled to its namespace" 1
    (List.length (spill_files "testsrv-b"));
  (* disk read-through still works *)
  (match Checkpoint.get_floats s1 ~rank:0 ~id:0 with
  | Some (_, arrays, Checkpoint.Disk) ->
    Alcotest.(check (float 0.0)) "spilled bytes intact" 1.0 arrays.(0).(0)
  | Some (_, _, _) -> Alcotest.fail "expected the disk tier"
  | None -> Alcotest.fail "expected Some from disk tier");
  Checkpoint.dispose s1;
  Alcotest.(check int) "dispose removed store a's files" 0
    (List.length (spill_files "testsrv-a"));
  Alcotest.(check int) "store b untouched" 1
    (List.length (spill_files "testsrv-b"));
  Checkpoint.dispose s2;
  Alcotest.(check int) "store b cleaned" 0
    (List.length (spill_files "testsrv-b"))

let test_binomial_cleans_spill () =
  (* the binomial driver namespaces its store per run and disposes it:
     no parad-snap litter may survive the call. Only this process's
     namespaces are compared — concurrently running test binaries share
     the temp dir and create and remove their own. *)
  let ours () =
    let prefix = Printf.sprintf "parad-snap-%d-" (Unix.getpid ()) in
    Sys.readdir (Filename.get_temp_dir_name ())
    |> Array.to_list
    |> List.filter (String.starts_with ~prefix)
    |> List.sort compare
  in
  let before = ours () in
  let inp = { L.nx = 2; ny = 2; nz = 4; niter = 4; dt0 = 0.01; escale = 1.0 } in
  let b = L.gradient_binomial ~nranks:2 ~budget:2 L.Mpi inp in
  Alcotest.(check bool) "gradient finite" true
    (Float.is_finite b.L.b_grad.L.g_total);
  Alcotest.(check (list string)) "no spill directories leaked" before (ours ())

(* ---- mini slam soak ---- *)

let test_mini_slam () =
  let r = Slam.run ~trials:10 ~seed:3 () in
  Alcotest.(check int) "all classified" 0 r.Slam.s_unclassified;
  Alcotest.(check int) "warm = cold everywhere" 0 r.Slam.s_mismatches;
  Alcotest.(check bool) "soak passed" true (Slam.passed r)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "warm-bit-identical" `Quick
            test_warm_bit_identical;
          Alcotest.test_case "clean-after-failure" `Quick
            test_clean_after_failure_same_key;
          Alcotest.test_case "binomial-matches" `Quick
            test_binomial_matches_monolithic;
          Alcotest.test_case "default-depth" `Quick test_default_depth;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "transitions" `Quick test_breaker_transitions;
          Alcotest.test_case "end-to-end" `Quick test_breaker_e2e;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "deadline" `Quick test_deadline_classified;
          Alcotest.test_case "admission" `Quick test_admission_sheds;
          Alcotest.test_case "retry" `Quick test_retry_consumes_kill;
          Alcotest.test_case "seeds-validation" `Quick test_seeds_validation;
          Alcotest.test_case "seeds-batched" `Quick test_seeds_batched_ok;
          Alcotest.test_case "seeds-coalesce" `Quick test_seeds_coalesce;
          Alcotest.test_case "drain" `Quick test_drain;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "namespaces" `Quick test_checkpoint_namespaces;
          Alcotest.test_case "binomial-cleanup" `Quick
            test_binomial_cleans_spill;
        ] );
      ("slam", [ Alcotest.test_case "mini-soak" `Quick test_mini_slam ]);
    ]
