(** Runtime backing for the AD engine's value caches (paper §IV-C).

    The reverse-pass transform emits [cache.*] intrinsic calls; each cache
    is a growable array of runtime values indexed by a linearized
    iteration/thread index computed in IR. Growth doubling gives the
    "dynamically reallocate" behaviour of caching case 3 (unknown trip
    counts) without a realloc instruction in the IR.

    Caches whose planned key type is [Ty.Float] use an unboxed
    [float array] fast path (["cache.newf"]) instead of boxed [Value.t]
    cells — the minimal-cache representation of §V-E; a write bitmap
    preserves read-before-write detection. The table also tracks cell
    occupancy so the runtime can report cells stored and the peak live
    cache footprint. *)

open Value

type storage =
  | Boxed of Value.t array
  | Floats of float array * Bytes.t  (** cells, written bitmap *)

(** ABFT seal over a cache's float-valued cells: the coverage mask and
    FNV-1a digest frozen at seal time. Cells written after sealing land
    outside the mask and do not disturb the digest; a legitimate
    overwrite of a covered cell drops the seal (see {!set}), so any
    digest mismatch at verify time is a corruption of memory the
    program never rewrote — a silent bit flip. *)
type seal = {
  mask : Bytes.t;  (** '\001' where a float cell is covered *)
  covered : int;  (** population count of [mask] *)
  digest : int64;  (** FNV-1a over covered cells' bits, index order *)
}

type cache = {
  mutable s : storage;
  mutable freed : bool;
  mutable nwritten : int;  (** distinct cells written so far *)
  mutable seal : seal option;
}

type t = {
  mutable table : cache array;
  mutable n : int;
  mutable cells_written : int;
      (** total distinct cells ever written, across all caches *)
  mutable live_cells : int;  (** written cells of not-yet-freed caches *)
  mutable peak_cells : int;  (** high-water mark of [live_cells] *)
  mutable protect : bool;
      (** arm ABFT sealing: caches are sealed on first read and checked
          at checkpoint boundaries / free / run end. Off by default so
          corruption-free runs pay nothing. *)
}

let mk_boxed capacity =
  Boxed (Array.make (max capacity 4) VUnit)

let mk_floats capacity =
  let n = max capacity 4 in
  Floats (Array.make n 0.0, Bytes.make n '\000')

let create () =
  {
    table =
      Array.init 8 (fun _ ->
          { s = Boxed [||]; freed = true; nwritten = 0; seal = None });
    n = 0;
    cells_written = 0;
    live_cells = 0;
    peak_cells = 0;
    protect = false;
  }

let fresh ?(unboxed = false) t ~capacity =
  let c =
    {
      s = (if unboxed then mk_floats capacity else mk_boxed capacity);
      freed = false;
      nwritten = 0;
      seal = None;
    }
  in
  if t.n = Array.length t.table then begin
    let bigger =
      Array.init (2 * t.n) (fun i ->
          if i < t.n then t.table.(i)
          else { s = Boxed [||]; freed = true; nwritten = 0; seal = None })
    in
    t.table <- bigger
  end;
  t.table.(t.n) <- c;
  t.n <- t.n + 1;
  t.n - 1

let get_cache t id =
  if id < 0 || id >= t.n then error "cache: unknown cache %d" id;
  let c = t.table.(id) in
  if c.freed then error "cache: use after free of cache %d" id;
  c

let is_unboxed t ~id =
  match (get_cache t id).s with Floats _ -> true | Boxed _ -> false

(* -- ABFT seals -------------------------------------------------------- *)

(* Seals digest the raw bits of covered floats by FNV-1a, in index
   order. *)
let seal_cache c =
  match c.s with
  | Boxed cells ->
    let n = Array.length cells in
    let mask = Bytes.make n '\000' in
    let covered = ref 0
    and h = ref Bitmix.fnv_init in
    for i = 0 to n - 1 do
      match cells.(i) with
      | VFloat x ->
        Bytes.set mask i '\001';
        incr covered;
        h := Bitmix.fnv_float !h x
      | _ -> ()
    done;
    { mask; covered = !covered; digest = !h }
  | Floats (cells, written) ->
    let n = Array.length cells in
    let mask = Bytes.sub written 0 n in
    let covered = ref 0
    and h = ref Bitmix.fnv_init in
    for i = 0 to n - 1 do
      if Bytes.get mask i = '\001' then begin
        incr covered;
        h := Bitmix.fnv_float !h cells.(i)
      end
    done;
    { mask; covered = !covered; digest = !h }

let verify_cache c =
  match c.seal with
  | None -> true
  | Some s ->
    let m = Bytes.length s.mask in
    let h = ref Bitmix.fnv_init in
    (match c.s with
    | Boxed cells ->
      for i = 0 to m - 1 do
        if Bytes.get s.mask i = '\001' then
          match cells.(i) with
          | VFloat x -> h := Bitmix.fnv_float !h x
          (* a covered cell can only stop being a float through [set],
             which drops the seal — defensively treat it as corrupt *)
          | _ -> h := Int64.lognot !h
      done
    | Floats (cells, _) ->
      for i = 0 to m - 1 do
        if Bytes.get s.mask i = '\001' then h := Bitmix.fnv_float !h cells.(i)
      done);
    Int64.equal !h s.digest

(** (Re)seal every live cache with written cells. Returns the number of
    cells digested, for virtual-cost charging. *)
let seal_all t =
  let cells = ref 0 in
  for i = 0 to t.n - 1 do
    let c = t.table.(i) in
    if (not c.freed) && c.nwritten > 0 then begin
      let s = seal_cache c in
      c.seal <- Some s;
      cells := !cells + s.covered
    end
  done;
  !cells

(** True when at least one live cache is sealed — i.e. there is covered
    memory a pending bit flip could strike. The flip poll holds its
    event until this is true, so a plan's flip lands on detectable
    state instead of being consumed against an empty address space. *)
let has_sealed t =
  let rec scan i =
    i < t.n
    && ((not t.table.(i).freed) && t.table.(i).seal <> None || scan (i + 1))
  in
  scan 0

(** Check every sealed live cache against its seal. Returns
    [(cells_scanned, first_corrupt_cache_id)]. *)
let verify t =
  let scanned = ref 0
  and bad = ref None in
  for i = 0 to t.n - 1 do
    let c = t.table.(i) in
    match c.seal with
    | Some s when not c.freed ->
      scanned := !scanned + s.covered;
      if !bad = None && not (verify_cache c) then bad := Some i
    | _ -> ()
  done;
  (!scanned, !bad)

(** Sealed-cell count of one live cache (0 when unsealed or freed), so
    the caller can charge the verify scan to virtual time. *)
let covered_id t ~id =
  if id < 0 || id >= t.n then 0
  else
    let c = t.table.(id) in
    match c.seal with Some s when not c.freed -> s.covered | _ -> 0

(** Check one cache (before freeing it). [true] = intact or unsealed. *)
let verify_id t ~id =
  if id < 0 || id >= t.n then true
  else
    let c = t.table.(id) in
    c.freed || verify_cache c

(** Land one bit flip in sealed memory, bypassing {!set} so the seal
    stays armed and the next verify sees the damage. [cell] is reduced
    mod the sealed-cell population so every plan hits live, protected
    memory; returns the [(cache, index)] struck, or [None] when nothing
    is sealed yet (the flip is provably masked: no covered cell
    existed to corrupt). *)
let flip t ~cell ~bit =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    match t.table.(i).seal with
    | Some s when not t.table.(i).freed -> total := !total + s.covered
    | _ -> ()
  done;
  if !total = 0 then None
  else begin
    let target = ((cell mod !total) + !total) mod !total in
    let mask64 = Int64.shift_left 1L (bit land 63) in
    let hit = ref None
    and seen = ref 0 in
    (try
       for i = 0 to t.n - 1 do
         let c = t.table.(i) in
         match c.seal with
         | Some s when not c.freed ->
           if !seen + s.covered > target then begin
             (* the (target - seen)-th covered index of this cache *)
             let k = ref (target - !seen)
             and j = ref (-1) in
             (try
                for m = 0 to Bytes.length s.mask - 1 do
                  if Bytes.get s.mask m = '\001' then
                    if !k = 0 then begin
                      j := m;
                      raise Exit
                    end
                    else decr k
                done
              with Exit -> ());
             let xor x =
               Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) mask64)
             in
             (match c.s with
             | Floats (cells, _) -> cells.(!j) <- xor cells.(!j)
             | Boxed cells -> (
               match cells.(!j) with
               | VFloat x -> cells.(!j) <- VFloat (xor x)
               | _ -> ()));
             hit := Some (i, !j);
             raise Exit
           end
           else seen := !seen + s.covered
         | _ -> ()
       done
     with Exit -> ());
    !hit
  end

let note_written t c =
  c.nwritten <- c.nwritten + 1;
  t.cells_written <- t.cells_written + 1;
  t.live_cells <- t.live_cells + 1;
  if t.live_cells > t.peak_cells then t.peak_cells <- t.live_cells

let set t ~id ~idx v =
  let c = get_cache t id in
  if idx < 0 then error "cache: negative index %d" idx;
  (* a legitimate overwrite of a covered cell invalidates the frozen
     digest; drop the seal rather than report a false corruption (the
     cache is resealed at the next boundary) *)
  (match c.seal with
  | Some s when idx < Bytes.length s.mask && Bytes.get s.mask idx = '\001' ->
    c.seal <- None
  | _ -> ());
  match c.s with
  | Boxed cells ->
    let n = Array.length cells in
    let cells =
      if idx >= n then begin
        let bigger = Array.make (max (2 * n) (idx + 1)) VUnit in
        Array.blit cells 0 bigger 0 n;
        c.s <- Boxed bigger;
        bigger
      end
      else cells
    in
    (match cells.(idx) with VUnit -> note_written t c | _ -> ());
    cells.(idx) <- v
  | Floats (cells, written) ->
    let x =
      match v with
      | VFloat x -> x
      | _ -> error "cache %d: non-float value in a float cache" id
    in
    let n = Array.length cells in
    let cells, written =
      if idx >= n then begin
        let m = max (2 * n) (idx + 1) in
        let bigger = Array.make m 0.0 in
        Array.blit cells 0 bigger 0 n;
        let wbigger = Bytes.make m '\000' in
        Bytes.blit written 0 wbigger 0 n;
        c.s <- Floats (bigger, wbigger);
        bigger, wbigger
      end
      else cells, written
    in
    if Bytes.get written idx = '\000' then begin
      note_written t c;
      Bytes.set written idx '\001'
    end;
    cells.(idx) <- x

let get t ~id ~idx =
  let c = get_cache t id in
  (* seal on first read: once the reverse sweep starts consuming a
     cache its contents are supposed to be frozen, so this is the
     earliest point the whole read set can be covered *)
  if t.protect && c.seal = None && c.nwritten > 0 then
    c.seal <- Some (seal_cache c);
  (match c.s with
  | Boxed cells ->
    if idx < 0 || idx >= Array.length cells then
      error "cache %d: index %d out of range" id idx
  | Floats (cells, _) ->
    if idx < 0 || idx >= Array.length cells then
      error "cache %d: index %d out of range" id idx);
  match c.s with
  | Boxed cells -> (
    match cells.(idx) with
    | VUnit -> error "cache %d: slot %d read before write" id idx
    | v -> v)
  | Floats (cells, written) ->
    if Bytes.get written idx = '\000' then
      error "cache %d: slot %d read before write" id idx;
    VFloat cells.(idx)

(* Unboxed entry points for the execution engine: the same semantics
   (growth, occupancy, seal interaction, error messages) as {!set}/{!get},
   with the float read from / written to one cell of a frame's float
   array, so it never crosses the call boxed on a [Floats] cache ([Boxed]
   storage goes through {!set}/{!get}). [c] is cache [id]'s record, which
   the engine resolves once per compiled call and also uses for the
   representation test that picks the charge. *)
let set_from t c ~id ~idx (f : float array) src =
  match c.s with
  | Boxed _ -> set t ~id ~idx (VFloat f.(src))
  | Floats (cells, written) ->
    if idx < 0 then error "cache: negative index %d" idx;
    (match c.seal with
    | Some s when idx < Bytes.length s.mask && Bytes.get s.mask idx = '\001' ->
      c.seal <- None
    | _ -> ());
    let n = Array.length cells in
    let cells, written =
      if idx >= n then begin
        let m = max (2 * n) (idx + 1) in
        let bigger = Array.make m 0.0 in
        Array.blit cells 0 bigger 0 n;
        let wbigger = Bytes.make m '\000' in
        Bytes.blit written 0 wbigger 0 n;
        c.s <- Floats (bigger, wbigger);
        bigger, wbigger
      end
      else cells, written
    in
    if Bytes.get written idx = '\000' then begin
      note_written t c;
      Bytes.set written idx '\001'
    end;
    cells.(idx) <- f.(src)

let get_into t c ~id ~idx (f : float array) dst =
  match c.s with
  | Boxed _ -> f.(dst) <- Value.to_float (get t ~id ~idx)
  | Floats (cells, written) ->
    if t.protect && c.seal = None && c.nwritten > 0 then
      c.seal <- Some (seal_cache c);
    if idx < 0 || idx >= Array.length cells then
      error "cache %d: index %d out of range" id idx;
    if Bytes.get written idx = '\000' then
      error "cache %d: slot %d read before write" id idx;
    f.(dst) <- cells.(idx)

let is_floats c = match c.s with Floats _ -> true | Boxed _ -> false

let free t ~id =
  let c = get_cache t id in
  c.freed <- true;
  t.live_cells <- t.live_cells - c.nwritten;
  c.nwritten <- 0;
  c.s <- Boxed [||];
  c.seal <- None

let cells_written t = t.cells_written
let live_cells t = t.live_cells
let peak_cells t = t.peak_cells

(* -- checkpoint support ------------------------------------------------ *)

(** All caches allocated so far, in id order, as [(cells, freed)]. Cells
    are copied (unboxed floats are boxed) so the caller owns a stable
    snapshot independent of the cache representation. *)
let export t =
  Array.init t.n (fun i ->
      let c = t.table.(i) in
      match c.s with
      | Boxed cells -> (Array.copy cells, c.freed)
      | Floats (cells, written) ->
        ( Array.init (Array.length cells) (fun j ->
              if Bytes.get written j = '\001' then VFloat cells.(j) else VUnit),
          c.freed ))

(** Replace the whole table with [blocks] (as produced by {!export});
    cache ids are reassigned densely from 0 so a restored run hands out
    the same ids the snapshotted run did. Occupancy counters are rebuilt
    from the snapshot. *)
let restore t blocks =
  let n = Array.length blocks in
  let table =
    Array.init (max 8 n) (fun _ ->
        { s = Boxed [||]; freed = true; nwritten = 0; seal = None })
  in
  t.live_cells <- 0;
  Array.iteri
    (fun i (cells, freed) ->
      let nwritten =
        Array.fold_left
          (fun acc v -> match v with VUnit -> acc | _ -> acc + 1)
          0 cells
      in
      (* seals do not survive a restore: the snapshot was taken from
         verified-clean state, and the restored caches are resealed at
         the next boundary / first read *)
      table.(i) <- { s = Boxed cells; freed; nwritten; seal = None };
      if not freed then t.live_cells <- t.live_cells + nwritten)
    blocks;
  if t.live_cells > t.peak_cells then t.peak_cells <- t.live_cells;
  t.table <- table;
  t.n <- n
