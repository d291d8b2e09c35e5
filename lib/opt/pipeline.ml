(** Pass manager and standard pipelines. *)

open Parad_ir

type pass = { name : string; run : Prog.t -> Func.t -> Func.t }

let fold = { name = "constfold"; run = (fun _ f -> Passes.fold_func f) }
let cse = { name = "cse"; run = (fun _ f -> Passes.cse_func f) }
let dce = { name = "dce"; run = (fun _ f -> Passes.dce_func f) }
let licm = { name = "licm"; run = (fun _ f -> Passes.licm_func f) }

let inline ?max_size () =
  { name = "inline"; run = (fun p f -> Inline.inline_func ?max_size p f) }

let openmp_opt ?fuse () =
  { name = "openmp-opt"; run = (fun _ f -> Openmp_opt.run ?fuse f) }

let mem_forward =
  { name = "mem-forward"; run = (fun _ f -> Mem_forward.run_func f) }

(** The default pre-differentiation pipeline (§V-E). The second [cse]
    merges the duplicates LICM hoists out of sibling loops, making one
    pipeline run a fixpoint (running it again is a no-op). *)
let o2 = [ inline (); fold; cse; licm; cse; dce ]

(** [o2] plus parallel-region optimization (the paper's "OpenMPOpt"
    configuration). OpenMPOpt hoists loads and cache allocations out of
    parallel regions, so [cse] runs once more after it. *)
let o2_openmp = [ inline (); fold; cse; licm; openmp_opt (); cse; dce ]

(** Post-AD cleanup: promote adjoint-register slots (mem2reg analog),
    fold, and sweep dead code. The second [mem_forward] picks up the
    stores the first round's forwarding left dead (their loads are gone
    only after cse/dce), which also makes the pipeline a fixpoint. The
    reverse pass no longer writes that shape (one constant per value,
    block-local adjoints as SSA values), so on the bundled app
    gradients the second run deletes nothing — the golden post-AD
    programs print the same without it — and costs about 0.9 ms on
    LULESH OMP and MPI, where it used to delete ~500 instructions in
    1.5 and 4.0 ms. It still catches a register nest written in the
    old per-access shape (test_opt's "registers promoted through a
    loop nest"). Fork fusion (Fig 4) is kept separate as an ablation:
    see [post_ad_fuse]. *)
let post_ad = [ mem_forward; fold; cse; licm; cse; mem_forward; dce ]

let post_ad_fuse =
  [ mem_forward; fold; cse; licm; openmp_opt (); cse; mem_forward; dce ]

(** Apply passes to one function of a program, in order, verifying the
    result; returns a new program. *)
let run_on (prog : Prog.t) fname passes =
  let prog = Prog.copy prog in
  List.iter
    (fun pass ->
      let f = Prog.find_exn prog fname in
      let f' = pass.run prog f in
      (match Verifier.check_func f' with
      | () -> ()
      | exception Verifier.Ill_formed m ->
        invalid_arg
          (Fmt.str "pass %s broke function %s: %s" pass.name fname m));
      Prog.add prog f')
    passes;
  prog

(** Apply passes to every function. *)
let run (prog : Prog.t) passes =
  List.fold_left
    (fun prog (f : Func.t) -> run_on prog f.name passes)
    prog (Prog.functions prog)
