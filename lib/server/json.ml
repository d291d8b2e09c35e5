(** Minimal JSON for the gradient service's newline-delimited protocol.

    Hand-rolled on purpose: the build carries no JSON dependency, and
    the protocol needs only flat objects of scalars. Printing is
    deterministic (fields in construction order, floats via [%.17g] so
    values round-trip bit-exactly); parsing is a plain recursive-descent
    over the full grammar, returning [Error] — never an exception — on
    malformed input so the server can classify bad requests. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_nan f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" f

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> Buffer.add_string b (number f)
  | Str s -> escape b s
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape b k;
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

(* ---- parsing ---- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %C at offset %d, found %C" ch c.pos x
  | None -> fail "expected %C at offset %d, found end of input" ch c.pos

let literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s
    && String.sub c.s c.pos n = word
  then begin
    c.pos <- c.pos + n;
    v
  end
  else fail "bad literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> fail "unterminated escape"
      | Some e ->
        advance c;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if c.pos + 4 > String.length c.s then fail "truncated \\u escape";
          let hex = String.sub c.s c.pos 4 in
          c.pos <- c.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail "bad \\u escape %S" hex
          in
          (* protocol strings are ASCII; encode the BMP scalar as UTF-8 *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
          end
        | e -> fail "bad escape \\%c" e);
        go ())
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> numchar ch | None -> false) do
    advance c
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> fail "bad number %S at offset %d" tok start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elems (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Bad m -> Error m

(* ---- typed accessors (lenient field lookup for requests) ---- *)

let mem k = function Obj fields -> List.mem_assoc k fields | _ -> false

let field k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let str_field k v =
  match field k v with Some (Str s) -> Some s | _ -> None

let num_field k v =
  match field k v with Some (Num f) -> Some f | _ -> None

let bool_field k v =
  match field k v with Some (Bool b) -> Some b | _ -> None

(* Only integers a float holds exactly (|n| <= 2^53) convert: past the
   int range, [int_of_float] returns garbage. *)
let int_field k v =
  match num_field k v with
  | Some f when Float.is_integer f && Float.abs f <= 0x1p53 ->
    Some (int_of_float f)
  | _ -> None
