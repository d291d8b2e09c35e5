(* The exit-code / response-class taxonomy is a protocol: [parad]'s
   process exit codes, the service's JSON [code] field and the chaos
   tools' classifiers must all agree on one table, which Outcome holds.
   This test pins that table — a new class must claim a fresh code, never
   reuse one — and the class each runtime failure lands in. *)

open Parad_runtime
module Chaos = Apps_lulesh.Chaos

(* every documented class, in exit-code order, as the README lists it *)
let documented =
  [
    "ok", 0;
    "findings", 1;
    "invalid", 2;
    "runtime_error", 2;
    "san_strict", 2;
    "error", 2;
    "deadlock", 3;
    "rank_failed", 3;
    "degraded", 4;
    "miscompile", 5;
    "deadline", 6;
    "overloaded", 7;
    "breaker_open", 8;
    "corrupted", 9;
  ]

let code_of_name n =
  match Outcome.of_name n with
  | Some c -> Outcome.code c
  | None -> Alcotest.failf "class %S is not in the table" n

let test_codes_match_table () =
  List.iter
    (fun (cls, code) ->
      Alcotest.(check int) (Printf.sprintf "class %S" cls) code
        (code_of_name cls))
    documented;
  Alcotest.(check int)
    "the table has no undocumented class" (List.length documented)
    (List.length Outcome.table)

let test_codes_cover_range () =
  (* the distinct codes are exactly 0..9: no gaps (an undocumented exit
     would be unclassifiable) and no code above the documented ceiling
     (slam accepts codes 0-9 only) *)
  let codes =
    List.sort_uniq compare (List.map (fun (_, c) -> c) documented)
  in
  Alcotest.(check (list int)) "codes are exactly 0..9"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    codes

let test_distinct_failure_kinds_distinct_codes () =
  (* one code per failure kind: classes that mean different things to a
     caller must not collapse onto the same exit code *)
  let kinds =
    [
      "ok"; "findings"; "invalid"; "deadlock"; "degraded"; "miscompile";
      "deadline"; "overloaded"; "breaker_open"; "corrupted";
    ]
  in
  let codes = List.map code_of_name kinds in
  Alcotest.(check int)
    "ten kinds, ten codes" 10
    (List.length (List.sort_uniq compare codes))

let test_unknown_class_rejected () =
  Alcotest.(check bool)
    "no class named segfault" true
    (Outcome.of_name "segfault" = None)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* every runtime failure kind, the class and code it lands in, and a
   phrase its report must carry (scripts/check.sh greps for some) *)
let failures =
  [
    ( Sim.Deadlock { d_live = 2; d_blocked = []; d_note = "test" },
      "deadlock", 3, "deadlock" );
    ( Mpi_state.Rank_failed
        {
          fn_failed = 1;
          fn_observed_by = 0;
          fn_observed_at = 10.0;
          fn_agreed_at = 12.0;
          fn_survivors = [ 0 ];
          fn_epoch = 1;
        },
      "rank_failed", 3, "rank failure" );
    ( Sim.Deadline_exceeded
        { de_at = 600.0; de_limit = 500.0; de_wall = false },
      "deadline", 6, "deadline exceeded" );
    ( Mpi_state.Corrupt_message
        { cm_src = 0; cm_dst = 1; cm_at = 5.0; cm_attempts = 2 },
      "corrupted", 9, "corrupt" );
    ( Checkpoint.Corrupt_region { cr_rank = 1; cr_cache = 3; cr_at = 50.0 },
      "corrupted", 9, "silent data corruption" );
    ( Checkpoint.Snapshot_unavailable
        { su_rank = 0; su_id = 2; su_corrupt = true },
      "runtime_error", 2, "snapshot (0, 2) corrupt" );
    ( Sanitizer.Nonfinite_strict "rank 0 t=7: NaN",
      "san_strict", 2, "gradient-integrity violation" );
    Value.Runtime_error "boom", "runtime_error", 2, "boom";
  ]

let test_failures_classify () =
  List.iter
    (fun (e, want, code, phrase) ->
      let cls, msg = Outcome.classify e in
      let what = Printexc.to_string e in
      Alcotest.(check string) (what ^ ": class") want (Outcome.name cls);
      Alcotest.(check int) (what ^ ": code") code (Outcome.code cls);
      Alcotest.(check bool)
        (Printf.sprintf "%s: report %S mentions %S" what msg phrase)
        true (contains msg phrase))
    failures

let test_chaos_agrees () =
  (* the soak accepts these kinds as clean aborts, and must report each
     with the taxonomy's code *)
  List.iter
    (fun (e, _, code, _) ->
      match Chaos.classify e with
      | Chaos.Classified (c, _) ->
        Alcotest.(check int) (Printexc.to_string e) code c
      | _ -> Alcotest.failf "chaos did not accept %s" (Printexc.to_string e))
    (List.filter
       (fun (e, _, _, _) ->
         match e with
         | Sim.Deadline_exceeded _ | Sanitizer.Nonfinite_strict _ -> false
         | _ -> true)
       failures);
  (* the taxonomy classifies every exception, but the soak accepts only
     the kinds a recovery stack may end in *)
  List.iter
    (fun e ->
      match Chaos.classify e with
      | Chaos.Unclassified _ -> ()
      | _ -> Alcotest.failf "chaos accepted %s" (Printexc.to_string e))
    [
      Invalid_argument "bad index"; Failure "oops"; Not_found;
      Sim.Deadline_exceeded { de_at = 1.0; de_limit = 1.0; de_wall = true };
      Sanitizer.Nonfinite_strict "NaN";
    ]

let () =
  Alcotest.run "protocol"
    [
      ( "exit codes",
        [
          Alcotest.test_case "classes match documented table" `Quick
            test_codes_match_table;
          Alcotest.test_case "codes cover 0..9 exactly" `Quick
            test_codes_cover_range;
          Alcotest.test_case "failure kinds get distinct codes" `Quick
            test_distinct_failure_kinds_distinct_codes;
          Alcotest.test_case "unknown class rejected" `Quick
            test_unknown_class_rejected;
          Alcotest.test_case "runtime failures classify" `Quick
            test_failures_classify;
          Alcotest.test_case "chaos codes agree" `Quick test_chaos_agrees;
        ] );
    ]
