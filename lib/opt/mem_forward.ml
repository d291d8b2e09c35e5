(** Store-to-load forwarding, redundant-store elimination, and adjoint
    slot promotion for non-escaping allocations accessed at constant
    indices.

    The reverse-mode transform materializes SSA adjoints as slots in an
    "adjoint register" buffer; a real compiler (LLVM's SROA/mem2reg,
    which Enzyme relies on) promotes those slots to registers. This pass
    models that promotion:

    - within a segment, a load from a non-escaping allocation at a known
      constant index is replaced by the last value stored there, and
      stores overwritten (or freed) before any possible read are deleted;
    - allocations are zero-initialized ([Memory.alloc] fills with
      [zero_of]), so loads from never-written cells fold to the zero
      constant in scope (a new one only when none is), and stores of
      that same value are dropped as redundant;
    - knowledge survives region boundaries: a child region only kills
      the cells it may write (per a syntactic write summary);
    - a loop body is walked to an optimistic fixpoint. Every cell the
      loop writes starts at its known entry value; each walk drops the
      cells whose exit value differs, and the body is walked again
      until every cell left holds at exit. Those hold at every
      iteration entry (the adjoint accumulate-then-zero pattern), and
      after the loop. A loop nested in another sees the cells the outer
      walk assumes, so registers are promoted through a whole nest;
      starting from unknown cells instead, an inner loop proves nothing
      and the outer loop then sees its cells unknown at exit;
    - only a loop's last walk is kept, and a discarded walk leaves no
      facts behind: the loads it folded lose their constant, and the
      summaries made while those stood are recomputed. Otherwise a load
      the last walk keeps would still read as zero, and a store of it
      would be dropped as redundant;
    - constant-index cells live through [If] regions via a per-branch
      merge: when the two branch exits disagree, the cell's value is
      promoted to a fresh [If] result fed by extra [Yield] operands —
      the SROA/mem2reg phi. Only the same variable on both sides
      survives as is: equal constants may each be defined in their own
      branch, so two zeros merge to the zero fill and any other pair
      gets a phi;
    - barriers only kill knowledge about buffers that are *shared*
      across the team; an allocation made inside the current [Fork]
      body is private to the executing strand (the same provenance fact
      [Race.analyze] uses) and keeps its forwarding state.

    Eligible buffers never escape (their pointer is used only as the
    direct operand of Load/Store/AtomicAdd/Free), so no call, spawn, or
    captured pointer can touch them; cross-strand interference on them
    is limited to the enclosing parallel region re-executing the same
    instructions, which the write summaries and barrier kills cover
    under the usual data-race-freedom assumption.

    The pass runs on every plan compile. A loop costs one walk of its
    body when its first assumptions hold, and one more per walk that
    drops some; a nested loop is walked once per walk of its parent.
    Per-variable facts live in arrays indexed by var id; every write
    site is listed once, in walk order, and a region's summary is its
    range of that list, computed once rather than once per enclosing
    loop; one table holds the stores not yet observed; and an
    instruction is rebuilt only when an operand's alias differs. The
    iteration order of the cell tables is part of the output, because
    an If merge numbers its phis in it, so they stay hash tables, and a
    kill filters them in place, which leaves the surviving cells in
    their order. *)

open Parad_ir
open Rewrite

module IS = Set.Make (Int)

(* Cells of tracked buffers, keyed (base, constant index). Hashed exactly
   like the generic table: an If merge visits cells in this table's
   order and numbers the phis it creates in that order, so the order is
   part of the pass's output. *)
module CH = Hashtbl.Make (struct
  type t = int * int

  let equal ((b, i) : t) ((b', i') : t) = b = b' && i = i'
  let hash = Hashtbl.hash
end)

(* Var-id-indexed facts; fresh variables (If-merge phis and zeros) grow
   the table. *)
type 'a vtab = { mutable data : 'a array; none : 'a }

let vtab n none = { data = Array.make n none; none }
let vget t id = if id < Array.length t.data then t.data.(id) else t.none

let vset t id x =
  let n = Array.length t.data in
  if id >= n then begin
    let d = Array.make (max (id + 1) (2 * n)) t.none in
    Array.blit t.data 0 d 0 n;
    t.data <- d
  end;
  t.data.(id) <- x

(* bases eligible for tracking: Alloc results used only as the direct
   pointer of Load/Store/AtomicAdd/Free *)
let eligible_bases (f : Func.t) =
  let alloc = Array.make f.var_count false in
  let bad = Array.make f.var_count false in
  Instr.iter_instrs
    (fun i ->
      (match i with
      | Instr.Alloc (v, _, _, _) -> alloc.(Var.id v) <- true
      | _ -> ());
      let direct_ptr =
        match i with
        | Instr.Load (_, p, _) | Instr.Store (p, _, _)
        | Instr.AtomicAdd (p, _, _) | Instr.Free p -> Var.id p
        | _ -> -1
      in
      List.iter
        (fun u ->
          if Var.id u <> direct_ptr && Ty.is_ptr (Var.ty u) then
            bad.(Var.id u) <- true)
        (Instr.uses i))
    f.body;
  fun id -> id < f.var_count && alloc.(id) && not bad.(id)

(* What a cell is known to hold: a specific SSA value, the allocation's
   zero fill (never written since), or nothing. *)
type aval = Val of Var.t | Zero | Unk

(* The walk's knowledge at a program point: explicit cell facts, and
   the eligible allocations still all zero where no fact says otherwise.
   A child region walks a copy; [zero] is persistent, so only [facts] is
   copied. *)
type state = { mutable facts : aval CH.t; mutable zero : IS.t }

(* every cell table starts at this size, as a reset table returns to it *)
let initial_cells = 32

let copy st = { st with facts = CH.copy st.facts }

let lookup st key =
  match CH.find_opt st.facts key with
  | Some a -> a
  | None -> if IS.mem (fst key) st.zero then Zero else Unk

let set st key a = CH.replace st.facts key a

(* in place: the cells left keep their order, which numbers merge phis *)
let kill st b =
  CH.filter_map_inplace
    (fun (b', _) a -> if b' = b then None else Some a)
    st.facts;
  st.zero <- IS.remove b st.zero

(* Syntactic may-write summary of a region over eligible bases:
   constant-index cells written (in first-write order), and bases
   written at unknown indices / atomically / freed (whole-base kills). *)
type summary = { s_cells : unit CH.t; s_bases : IS.t }

(* A region instruction of the input: the function's write sites nested
   in it (base, index — [None] for a free), as a range of one array
   that lists every site in walk order, the region instructions of each
   of its sub-regions, and its summary once computed. *)
type rnode = {
  lo : int;
  hi : int;  (** its sites are [sites.(lo)] .. [sites.(hi - 1)] *)
  subs : rnode list list;  (** per [Instr.regions] entry, in body order *)
  mutable summary : (int * summary) option;
      (** with the count of late integer constants it was made under *)
}

let run_func (f : Func.t) : Func.t =
  let eligible = eligible_bases f in
  let ctx = ctx_of f in
  (* constant environments; fresh zero constants register themselves *)
  let consts = vtab f.var_count None and fconsts = vtab f.var_count None in
  (* integer constants the walk made out of zero-fill loads, or took
     back: a summary classifies a write by whether its index is
     constant, so one made before such a load turned constant, or
     stopped being one, is stale *)
  let late_ints = ref 0 in
  let note_const (i : Instr.t) =
    match i with
    | Instr.Const (v, Instr.Cint x) ->
      if Var.id v < f.var_count && Option.is_none (vget consts (Var.id v)) then
        incr late_ints;
      vset consts (Var.id v) (Some x)
    | Instr.Const (v, Instr.Cfloat x) -> vset fconsts (Var.id v) (Some x)
    | _ -> ()
  in
  (* the zero constant of each type in scope at the walk's position: a
     load of the zero fill becomes an alias of it, as CSE would make it,
     so a fold found only by the pipeline's last pass is not left behind
     as a second constant *)
  let zeros = ref [] in
  let note_zero v =
    if not (List.mem_assoc (Var.ty v) !zeros) then
      zeros := (Var.ty v, v) :: !zeros
  in
  (* the loads the walk folded to their zero fill, latest first *)
  let folded = ref [] in
  (* take back the folds made since [mark]: the walk that made them is
     discarded, and the one that replaces it may keep those loads *)
  let unfold_since mark =
    let rec undo l =
      if l != mark then
        match l with
        | id :: rest ->
          if Option.is_some (vget consts id) then begin
            vset consts id None;
            incr late_ints
          end;
          vset fconsts id None;
          undo rest
        | [] -> ()
    in
    undo !folded;
    folded := mark
  in
  let alias = vtab f.var_count None in
  let rec sub v =
    match vget alias (Var.id v) with Some v' -> sub v' | None -> v
  in
  let cint v = vget consts (Var.id v) in
  (* value equality strong enough to drop a redundant store: same SSA
     var, or two constants with identical bits *)
  let same_val a b =
    Var.id a = Var.id b
    ||
    match vget fconsts (Var.id a), vget fconsts (Var.id b) with
    | Some x, Some y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> ( match cint a, cint b with Some x, Some y -> x = y | _ -> false)
  in
  let is_plus_zero v =
    match vget fconsts (Var.id v) with
    | Some x -> Int64.equal (Int64.bits_of_float x) 0L
    | None -> ( match cint v with Some 0 -> true | _ -> false)
  in
  (* the cell holds +0 of its type: the zero fill, or a zero constant *)
  let holds_zero = function
    | Zero -> true
    | Val v -> is_plus_zero v
    | Unk -> false
  in
  (* the zero fill of an allocation, as a constant, when representable *)
  let zero_const_of (ty : Ty.t) =
    match ty with
    | Ty.Float -> Some (Instr.Cfloat 0.0)
    | Ty.Int -> Some (Instr.Cint 0)
    | _ -> None
  in
  (* One walk before the rewrite notes the constants and lists every
     write site to an eligible base in walk order; each region
     instruction keeps the range of the sites nested in it. *)
  let site_list = ref [] and nsites = ref 0 in
  let add_site b ix =
    site_list := (b, ix) :: !site_list;
    incr nsites
  in
  let rec annotate instrs = List.filter_map annotate1 instrs
  and annotate1 (i : Instr.t) =
    note_const i;
    (match i with
    | (Instr.Store (p, ix, _) | Instr.AtomicAdd (p, ix, _))
      when eligible (Var.id p) ->
      add_site (Var.id p) (Some ix)
    | Instr.Free p when eligible (Var.id p) -> add_site (Var.id p) None
    | _ -> ());
    match Instr.regions i with
    | [] -> None
    | rs ->
      let lo = !nsites in
      let subs =
        List.map (fun (r : Instr.region) -> annotate r.Instr.body) rs
      in
      Some { lo; hi = !nsites; subs; summary = None }
  in
  let roots = annotate f.body in
  late_ints := 0;
  let sites = Array.of_list (List.rev !site_list) in
  let summary (n : rnode) =
    match n.summary with
    | Some (late, s) when late = !late_ints -> s
    | _ ->
      let cells = CH.create 16 in
      let bases = ref IS.empty in
      for k = n.lo to n.hi - 1 do
        let b, ix = sites.(k) in
        match Option.bind ix cint with
        | Some idx -> CH.replace cells (b, idx) ()
        | None -> bases := IS.add b !bases
      done;
      let s = { s_cells = cells; s_bases = !bases } in
      n.summary <- Some (!late_ints, s);
      s
  in
  (* apply a child region's may-write summary to the parent state *)
  let apply_summary s st =
    CH.iter (fun key () -> set st key Unk) s.s_cells;
    IS.iter (kill st) s.s_bases
  in
  (* Stores of the region body being walked that nothing has observed
     yet: base -> index -> the store's position in the body's output.
     Every region boundary observes them all, so one table serves the
     whole walk. *)
  let pending : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let observe_all () =
    if Hashtbl.length pending > 0 then Hashtbl.reset pending
  in
  let observe_base b = Hashtbl.remove pending b in
  (* [go st private_bases instrs rnodes] rewrites one region body, whose
     region instructions are [rnodes], mutating [st] to the body's exit
     state. [private_bases] holds bases allocated inside the current
     Fork body (barrier-immune); [None] outside any fork. *)
  let rec go st private_bases instrs rnodes =
    let scope = !zeros in
    let kill_base b =
      kill st b;
      (* pending stores to the base become observable *)
      observe_base b
    in
    (* the body's output, reversed; [dead] holds the positions of the
       stores found overwritten or freed before any read *)
    let out = ref [] and n_out = ref 0 and dead = ref [] in
    let emit i =
      out := i :: !out;
      incr n_out
    in
    let rnodes = ref rnodes in
    let next_rnode () =
      let n = List.hd !rnodes in
      rnodes := List.tl !rnodes;
      n
    in
    (* rewrite a child region body from a state copied off the parent *)
    let walk_child ?private_bases:(pb = private_bases) seed
        (r : Instr.region) rnodes =
      { r with Instr.body = go seed pb r.Instr.body rnodes }
    in
    (* For / While / Fork / Workshare: kill the summary footprint in the
       parent, then walk children seeded with the surviving facts (sound
       for any trip count / strand interleaving: seeds only contain cells
       no execution of the region writes). *)
    let enter_region (n : rnode) =
      let s = summary n in
      observe_all ();
      apply_summary s st;
      s
    in
    (* Walk a loop body to an optimistic fixpoint: seed every cell the
       loop writes with its known entry value, walk, drop the seeds the
       exit state does not re-establish, and walk again until every seed
       left holds. Those seeds are inductive (the adjoint
       accumulate-then-zero pattern), so they also hold after the loop.
       Only the last walk's body is kept; a discarded walk takes back the
       loads it folded. *)
    let loop_body (n : rnode) (r : Instr.region) =
      (* the written cells' known entry values, in reverse summary order *)
      let seeds =
        CH.fold
          (fun key () acc ->
            match lookup st key with Unk -> acc | a -> (key, a) :: acc)
          (summary n).s_cells []
      in
      ignore (enter_region n);
      let holds k (key, a) =
        match a, lookup k key with
        | Val v, Val v' -> same_val v v'
        | Zero, b -> holds_zero b
        | _ -> false
      in
      let rec fix seeds =
        let k = copy st in
        List.iter (fun (key, a) -> set k key a) seeds;
        let mark = !folded in
        let r' = walk_child k r (List.hd n.subs) in
        let kept = List.filter (holds k) seeds in
        if List.compare_lengths kept seeds = 0 then begin
          List.iter (fun (key, a) -> set st key a) seeds;
          r'
        end
        else begin
          unfold_since mark;
          fix kept
        end
      in
      fix seeds
    in
    List.iter
      (fun (i : Instr.t) ->
        let i = map_uses sub i in
        match i with
        | Instr.If (rs, c, t, e) ->
          let n = next_rnode () in
          let tsub, esub =
            match n.subs with [ ts; es ] -> ts, es | _ -> assert false
          in
          (* branches may read anything still pending *)
          observe_all ();
          (* the then-branch walks the parent's own state, which the
             merge rebuilds from scratch *)
          let ke = copy st in
          let t' = walk_child st t tsub in
          let e' = walk_child ke e esub in
          let kt = { st with facts = st.facts } in
          (* merge the branch exits; disagreeing known cells become
             fresh If results (the mem2reg phi) *)
          let keys = CH.create 16 in
          CH.iter (fun k _ -> CH.replace keys k ()) kt.facts;
          CH.iter (fun k _ -> CH.replace keys k ()) ke.facts;
          st.facts <- CH.create initial_cells;
          st.zero <- IS.inter kt.zero ke.zero;
          let promote = ref [] in
          CH.iter
            (fun key () ->
              let mt = lookup kt key and me = lookup ke key in
              let merged =
                match mt, me with
                | Unk, _ | _, Unk -> Unk
                | Val a, Val b when Var.id a = Var.id b -> Val a
                (* two zeros, or two equal constants, may each be defined
                   in its own branch: only a phi or [Zero] is in scope *)
                | _ when holds_zero mt && holds_zero me -> Zero
                | (Val _ | Zero), (Val _ | Zero) ->
                  promote := (key, mt, me) :: !promote;
                  Unk
              in
              match merged with
              | Unk -> if IS.mem (fst key) st.zero then set st key Unk
              | a -> set st key a)
            keys;
          (* materialize promoted cells: extend results and both yields *)
          let extra_res = ref [] and extra_t = ref [] and extra_e = ref [] in
          let materialize (extras : Instr.t list ref) side_zero_ty a =
            match a with
            | Val v -> Some v
            | Zero -> (
              match zero_const_of side_zero_ty with
              | Some c ->
                let z = fresh ctx side_zero_ty "mf.zero" in
                extras := Instr.Const (z, c) :: !extras;
                note_const (Instr.Const (z, c));
                Some z
              | None -> None)
            | Unk -> None
          in
          (* Reuse an existing result whose then/else yields already carry
             exactly these merged values — typically a phi a previous run
             of this pass materialized.  Without this, re-running the pass
             re-promotes the same cells into fresh results every time and
             the post-AD pipeline stops being idempotent. *)
          let matches a y =
            match a with
            | Val v -> same_val v y
            | Zero -> is_plus_zero y
            | Unk -> false
          in
          let reuse =
            let yields (r : Instr.region) =
              match List.rev r.Instr.body with
              | Instr.Yield vs :: _ -> Some vs
              | _ -> None
            in
            match yields t', yields e' with
            | Some yt, Some ye ->
              fun ty mt me ->
                let rec find rs yt ye =
                  match rs, yt, ye with
                  | r :: _, a :: _, bv :: _
                    when Var.ty r = ty && matches mt a && matches me bv ->
                    Some r
                  | _ :: rs', _ :: yt', _ :: ye' -> find rs' yt' ye'
                  | _ -> None
                in
                find rs yt ye
            | _ -> fun _ _ _ -> None
          in
          let aval_eq a bv =
            match a, bv with
            | Val x, Val y -> same_val x y
            | Zero, Zero -> true
            | _ -> false
          in
          let created = ref [] in
          let tpre = ref [] and epre = ref [] in
          List.iter
            (fun (key, mt, me) ->
              let ty =
                match mt, me with
                | Val v, _ | _, Val v -> Var.ty v
                | _ -> Ty.Float
              in
              match reuse ty mt me with
              | Some r -> set st key (Val r)
              | None -> (
                match
                  List.find_opt
                    (fun (ty', mt', me', _) ->
                      ty = ty' && aval_eq mt mt' && aval_eq me me')
                    !created
                with
                | Some (_, _, _, r) -> set st key (Val r)
                | None -> (
                  match materialize tpre ty mt, materialize epre ty me with
                  | Some vt, Some ve ->
                    let r = fresh ctx ty "mf.phi" in
                    extra_res := r :: !extra_res;
                    extra_t := vt :: !extra_t;
                    extra_e := ve :: !extra_e;
                    created := (ty, mt, me, r) :: !created;
                    set st key (Val r)
                  | _ -> ())))
            !promote;
          let extend (r : Instr.region) pre extras =
            match List.rev r.Instr.body with
            | Instr.Yield vs :: rest ->
              { r with
                Instr.body =
                  List.rev_append rest
                    (List.rev pre @ [ Instr.Yield (vs @ extras) ])
              }
            | _ -> r (* unterminated branch: leave untouched *)
          in
          if !extra_res = [] then emit (Instr.If (rs, c, t', e'))
          else begin
            let t' = extend t' !tpre (List.rev !extra_t) in
            let e' = extend e' !epre (List.rev !extra_e) in
            emit (Instr.If (rs @ List.rev !extra_res, c, t', e'))
          end
        | Instr.For r ->
          let body = loop_body (next_rnode ()) r.body in
          emit (Instr.For { r with body })
        | Instr.Workshare r ->
          let body = loop_body (next_rnode ()) r.body in
          emit (Instr.Workshare { r with body })
        | Instr.While { cond; body } ->
          let n = next_rnode () in
          let csub, bsub =
            match n.subs with [ cs; bs ] -> cs, bs | _ -> assert false
          in
          ignore (enter_region n);
          let cond = walk_child (copy st) cond csub in
          let body = walk_child (copy st) body bsub in
          emit (Instr.While { cond; body })
        | Instr.Fork r ->
          let n = next_rnode () in
          ignore (enter_region n);
          let body =
            walk_child ~private_bases:(Some (ref IS.empty)) (copy st) r.body
              (List.hd n.subs)
          in
          emit (Instr.Fork { r with body })
        | Instr.Alloc (v, ety, _, _) ->
          emit i;
          if eligible (Var.id v) then begin
            (match private_bases with
            | Some t -> t := IS.add (Var.id v) !t
            | None -> ());
            if Option.is_some (zero_const_of ety) then
              st.zero <- IS.add (Var.id v) st.zero
          end
        | Instr.Store (p, ix, x) when eligible (Var.id p) -> (
          let b = Var.id p in
          match cint ix with
          | Some idx ->
            let key = b, idx in
            let redundant =
              match lookup st key with
              | Val y -> same_val y x
              | Zero -> is_plus_zero x
              | Unk -> false
            in
            if not redundant then begin
              let cells =
                match Hashtbl.find_opt pending b with
                | Some cells -> cells
                | None ->
                  let cells = Hashtbl.create 8 in
                  Hashtbl.replace pending b cells;
                  cells
              in
              (* previous unobserved store to the same cell is dead *)
              (match Hashtbl.find_opt cells idx with
              | Some pos -> dead := pos :: !dead
              | None -> ());
              set st key (Val x);
              Hashtbl.replace cells idx !n_out;
              emit i
            end
          | None ->
            kill_base b;
            emit i)
        | Instr.Load (v, p, ix) when eligible (Var.id p) -> (
          let b = Var.id p in
          let forget () = vset alias (Var.id v) None in
          match cint ix with
          | Some idx -> (
            let key = b, idx in
            match lookup st key with
            | Val value -> vset alias (Var.id v) (Some value)
            | Zero -> (
              (* the cell still holds the allocation's zero fill;
                 materialize it as a constant in place of the load *)
              match zero_const_of (Var.ty v) with
              | Some c -> (
                forget ();
                let ci = Instr.Const (v, c) in
                note_const ci;
                folded := Var.id v :: !folded;
                match List.assoc_opt (Var.ty v) !zeros with
                | Some z ->
                  vset alias (Var.id v) (Some z);
                  set st key (Val z)
                | None ->
                  note_zero v;
                  set st key (Val v);
                  emit ci)
              | None ->
                observe_base b;
                forget ();
                set st key (Val v);
                emit i)
            | Unk ->
              (* reading an unknown cell observes all pending stores to
                 this base *)
              observe_base b;
              forget ();
              set st key (Val v);
              emit i)
          | None ->
            observe_base b;
            forget ();
            emit i)
        | Instr.AtomicAdd (p, ix, _) when eligible (Var.id p) -> (
          let b = Var.id p in
          match cint ix with
          | Some idx ->
            set st (b, idx) Unk;
            (match Hashtbl.find_opt pending b with
            | Some cells -> Hashtbl.remove cells idx
            | None -> ());
            emit i
          | None ->
            kill_base b;
            emit i)
        | Instr.Free p when eligible (Var.id p) ->
          (* stores never observed before the free are dead *)
          (match Hashtbl.find_opt pending (Var.id p) with
          | Some cells -> Hashtbl.iter (fun _ pos -> dead := pos :: !dead) cells
          | None -> ());
          kill_base (Var.id p);
          emit i
        | Instr.Barrier ->
          (* other strands may publish writes to shared buffers here;
             allocations made inside this Fork body stay private *)
          observe_all ();
          let is_private b =
            match private_bases with Some t -> IS.mem b !t | None -> false
          in
          CH.filter_map_inplace
            (fun (b, _) v -> if is_private b then Some v else None)
            st.facts;
          st.zero <- IS.filter is_private st.zero;
          emit i
        | Instr.Return _ | Instr.Yield _ ->
          observe_all ();
          emit i
        | Instr.Const (v, _) ->
          if is_plus_zero v then note_zero v;
          emit i
        | i -> emit i)
      instrs;
    (* what the body left pending is observed by whatever follows it *)
    observe_all ();
    zeros := scope;
    match !dead with
    | [] -> List.rev !out
    | dead ->
      let is_dead = Array.make !n_out false in
      List.iter (fun pos -> is_dead.(pos) <- true) dead;
      (* [out] holds positions [n_out - 1] down to 0 *)
      let rec keep pos out body =
        match out with
        | [] -> body
        | i :: rest ->
          keep (pos - 1) rest (if is_dead.(pos) then body else i :: body)
      in
      keep (!n_out - 1) !out []
  in
  let st = { facts = CH.create initial_cells; zero = IS.empty } in
  let body = go st None f.body roots in
  { f with body; var_count = ctx.next }
