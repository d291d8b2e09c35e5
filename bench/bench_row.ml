(* One result row of a bench figure, and the BENCH_<figure>.json files
   that hold them. Every figure writes the same schema: a header naming
   the figure, then one row object per line, so a diff of a committed
   file shows which rows moved. bench/gate.exe reads the files back. *)

module J = Parad_server.Json

type t = {
  figure : string;  (** rows of figure [f] live in BENCH_[f].json *)
  config : string;  (** unique within the figure *)
  metrics : (string * float) list;
  bitwise : bool option;
      (** the gradient is bit-identical to its reference; [None] when the
          row makes no such comparison *)
}

let schema = "parad-bench/2"

let to_json r =
  J.Obj
    [
      "config", J.Str r.config;
      "metrics", J.Obj (List.map (fun (k, v) -> k, J.Num v) r.metrics);
      "bitwise", (match r.bitwise with Some b -> J.Bool b | None -> J.Null);
    ]

(** Write each figure's rows, in recording order, to BENCH_<figure>.json. *)
let write ~quick rows =
  List.iter
    (fun figure ->
      let mine = List.filter (fun r -> r.figure = figure) rows in
      let path = "BENCH_" ^ figure ^ ".json" in
      let oc = open_out path in
      Printf.fprintf oc
        "{\"schema\": %s, \"figure\": %s, \"quick\": %b, \"rows\": [\n%s\n]}\n"
        (J.to_string (J.Str schema))
        (J.to_string (J.Str figure))
        quick
        (String.concat ",\n"
           (List.map (fun r -> J.to_string (to_json r)) mine));
      close_out oc;
      Printf.printf "wrote %s (%d rows)\n" path (List.length mine))
    (List.sort_uniq compare (List.map (fun r -> r.figure) rows))

(** Read one BENCH file back, as [write] wrote it: its figure and rows.
    Raises [Failure] on anything else. *)
let read path =
  let bad what = failwith ("not a " ^ schema ^ " file: " ^ what) in
  let j =
    match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error m -> bad m
  in
  let row figure = function
    | J.Obj
        [
          ("config", J.Str config);
          ("metrics", J.Obj ms);
          ("bitwise", ((J.Bool _ | J.Null) as b));
        ] ->
      let metric = function
        | k, J.Num v -> k, v
        | k, _ -> bad (config ^ ": metric " ^ k ^ " is not a number")
      in
      let bitwise = match b with J.Bool b -> Some b | _ -> None in
      { figure; config; metrics = List.map metric ms; bitwise }
    | _ -> bad "a row is not {config, metrics, bitwise}"
  in
  match j with
  | J.Obj
      [
        ("schema", J.Str s);
        ("figure", J.Str figure);
        ("quick", J.Bool _);
        ("rows", J.Arr rows);
      ]
    when s = schema ->
    figure, List.map (row figure) rows
  | _ -> bad "no schema, figure, quick and rows header"
