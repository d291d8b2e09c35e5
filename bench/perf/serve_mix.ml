(* The serve-mix traffic: seeded JSON requests for the gradient service.

   Twelve plan keys drawn with Zipf(1.0) weights, so the default LRU
   cap of 8 keeps the popular plans warm and the tail keeps compiling —
   the only workload with plan compilation on the hot path. The stream
   is cut into blocks of [block] requests, each holding every key its
   Zipf share of times (largest remainder) in a seeded order, with nx /
   nposes cycling through three sizes per key: the seed moves the order,
   and with it which requests miss, but not the mix, so medians taken
   over whole blocks do not drift with the seed. escale is drawn from
   four values, so execution signatures repeat and the
   one-signature-one-digest check has something to compare. *)

module J = Parad_server.Json
module SV = Parad_server.Service
module MB = Apps_minibude.Minibude

type key = {
  app : string;
  flavor : string;
  nranks : int;
  nthreads : int;
  depth : int;  (** recompute depth *)
  seeds : int;  (** adjoint lanes *)
}

let key app flavor ?(nranks = 1) ?(nthreads = 1) ?(depth = 0) ?(seeds = 1) () =
  { app; flavor; nranks; nthreads; depth; seeds }

(* most requested first *)
let keys =
  [|
    key "lulesh" "omp" ~nthreads:4 ();
    key "lulesh" "mpi" ~nranks:2 ();
    key "bude" "omp" ~nthreads:4 ();
    key "lulesh" "raja" ~nthreads:4 ();
    key "lulesh" "hybrid" ~nranks:2 ~nthreads:2 ();
    key "lulesh" "omp" ~nthreads:4 ~seeds:4 ();
    key "lulesh" "julia" ~nranks:2 ();
    key "bude" "julia" ~nthreads:4 ();
    key "lulesh" "omp" ~nthreads:4 ~depth:4 ();
    key "lulesh" "mpi" ~nranks:2 ~depth:4 ();
    key "lulesh" "omp" ~nthreads:4 ~seeds:8 ();
    key "bude" "omp" ~nthreads:4 ~seeds:8 ();
  |]

let block = 100

(* requests per key in one block: Zipf(1.0) shares, largest remainder *)
let counts =
  let w = Array.mapi (fun i _ -> 1.0 /. float_of_int (i + 1)) keys in
  let total = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> float_of_int block *. x /. total) w in
  let c = Array.map truncate exact in
  let short = block - Array.fold_left ( + ) 0 c in
  let by_rem =
    List.sort
      (fun i j -> compare (exact.(j) -. Float.of_int c.(j)) (exact.(i) -. Float.of_int c.(i)))
      (List.init (Array.length keys) Fun.id)
  in
  List.iteri (fun n i -> if n < short then c.(i) <- c.(i) + 1) by_rem;
  c

type request = {
  k : int;  (** index into {!keys} *)
  size : int;  (** LULESH nx, miniBUDE poses *)
  escale : float;  (** LULESH only *)
}

let sizes = function "bude" -> [| 8; 12; 16 |] | _ -> [| 3; 4; 5 |]
let escales = [| 0.8; 0.9; 1.0; 1.1 |]

(** The request every fresh service answers first: the most popular
    plan at a middle size. *)
let prime = { k = 0; size = 4; escale = 1.0 }

(* one block, shuffled with [st] *)
let gen_block st =
  let a =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun k n ->
              let sz = sizes keys.(k).app in
              Array.init n (fun j ->
                  {
                    k;
                    size = sz.(j mod Array.length sz);
                    escale = escales.(Random.State.int st (Array.length escales));
                  }))
            counts))
  in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** [stream ~seed] is the seeded request stream, generated a block at a
    time as it is consumed. *)
let stream ~seed =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let blocks = Hashtbl.create 8 in
  fun i ->
    let b = i / block in
    if not (Hashtbl.mem blocks b) then Hashtbl.replace blocks b (gen_block st);
    (Hashtbl.find blocks b).(i mod block)

(** The request as the service reads it. Without [id] it is the
    execution signature: equal strings must get equal digests. *)
let to_json ?id ~engine r =
  let kk = keys.(r.k) in
  let num n = J.Num (float_of_int n) in
  let shape =
    if kk.app = "bude" then [ "nposes", num r.size ]
    else [ "nx", num r.size; "escale", J.Num r.escale ]
  in
  J.to_string
    (J.Obj
       ((match id with Some i -> [ "id", num i ] | None -> [])
       @ [
           "app", J.Str kk.app;
           "flavor", J.Str kk.flavor;
           "nranks", num kk.nranks;
           "nthreads", num kk.nthreads;
           "recompute_depth", num kk.depth;
           "seeds", num kk.seeds;
         ]
       @ shape
       @ [ "engine", J.Str engine ]))

type response = {
  cls : string;
  digest : string;
  exec_cycles : float;
  coalesced : bool;
}

let parse_response line =
  match J.of_string line with
  | Error m -> { cls = "bad response: " ^ m; digest = ""; exec_cycles = 0.0; coalesced = false }
  | Ok j ->
    {
      cls = Option.value (J.str_field "class" j) ~default:"?";
      digest = Option.value (J.str_field "digest" j) ~default:"";
      exec_cycles = Option.value (J.num_field "exec_cycles" j) ~default:0.0;
      coalesced = J.bool_field "coalesced" j = Some true;
    }

(** The plan and inputs the service runs for [r], as an {!App.spec}, so
    the benchmark can compile and run it directly. *)
let spec r : App.spec =
  let line = to_json ~engine:"seq" r in
  let rq =
    match J.of_string line with
    | Ok j -> SV.request_of_json ~default_watchdog_ms:None j
    | Error m -> invalid_arg m
  in
  let kind =
    match rq.SV.rq_app with
    | SV.Lulesh fl -> App.Lulesh (fl, SV.lulesh_input rq)
    | SV.Bude v ->
      (* the deck Service.attempt builds for a miniBUDE request *)
      App.Bude (v, MB.deck ~nposes:rq.SV.rq_nposes ~natlig:4 ~natpro:6)
  in
  {
    App.kind;
    nranks = rq.SV.rq_nranks;
    nthreads = rq.SV.rq_nthreads;
    opts =
      {
        Parad_core.Plan.default_options with
        recompute_depth = rq.SV.rq_depth;
        coalesce_comm = rq.SV.rq_coalesce;
        seeds = rq.SV.rq_seeds;
      };
    engine = rq.SV.rq_engine;
  }
