(* The bench gate: checks BENCH_*.json files against a thresholds file.

   Usage: gate.exe THRESHOLDS BENCH_FILE...

   A thresholds line is "figure | config | metric | op | bound", op one
   of <=, >= or =; config "*" puts the condition on every row of the
   figure. Conditions are checked for the figures whose files are
   given. A row a condition names must exist and carry the metric, and
   no row may report "bitwise": false. Prints one line per check and
   exits 1 if any failed. *)

module R = Bench_row

type cond = {
  figure : string;
  config : string;
  metric : string;
  op : string;
  bound : float;
}

let ops : (string * (float -> float -> bool)) list =
  [ "<=", ( <= ); ">=", ( >= ); "=", ( = ) ]

let parse_thresholds path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         let bad () =
           failwith (Printf.sprintf "%s: bad condition %S" path line)
         in
         if line = "" || line.[0] = '#' then None
         else
           match List.map String.trim (String.split_on_char '|' line) with
           | [ figure; config; metric; op; bound ] when List.mem_assoc op ops
             -> (
             match float_of_string_opt bound with
             | Some bound -> Some { figure; config; metric; op; bound }
             | None -> bad ())
           | _ -> bad ())

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then incr failures;
      Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") msg)
    fmt

let metric (r : R.t) m = List.assoc_opt m r.metrics

let check_cond files c =
  match List.assoc_opt c.figure files with
  | None -> ()
  | Some rows -> (
    let named =
      if c.config = "*" then rows
      else List.filter (fun (r : R.t) -> r.config = c.config) rows
    in
    match named with
    | [] ->
      check false "%s %S: missing row (%s %s %g)" c.figure c.config c.metric
        c.op c.bound
    | _ ->
      List.iter
        (fun (r : R.t) ->
          match metric r c.metric with
          | None ->
            check false "%s %S: no metric %s" c.figure r.config c.metric
          | Some v ->
            check (List.assoc c.op ops v c.bound) "%s %S: %s %g %s %g" c.figure
              r.config c.metric v c.op c.bound)
        named)

let check_bitwise (figure, rows) =
  let compared = List.filter (fun (r : R.t) -> r.bitwise <> None) rows in
  let bad = List.filter (fun (r : R.t) -> r.bitwise = Some false) compared in
  List.iter
    (fun (r : R.t) -> check false "%s %S: not bitwise" figure r.config)
    bad;
  if compared <> [] && bad = [] then
    check true "%s: %d compared row(s) bitwise" figure (List.length compared)

let () =
  match Array.to_list Sys.argv with
  | _ :: thresholds :: (_ :: _ as paths) ->
    let conds =
      try parse_thresholds thresholds
      with Failure m | Sys_error m ->
        prerr_endline ("gate: " ^ m);
        exit 2
    in
    let files =
      List.filter_map
        (fun path ->
          match R.read path with
          | file -> Some file
          | exception (Failure m | Sys_error m) ->
            check false "%s: %s" path m;
            None)
        paths
    in
    List.iter (check_cond files) conds;
    List.iter check_bitwise files;
    Printf.printf "gate: %d figure(s), %d failure(s)\n" (List.length files)
      !failures;
    exit (if !failures = 0 then 0 else 1)
  | _ ->
    prerr_endline "usage: gate.exe THRESHOLDS BENCH_FILE...";
    exit 2
