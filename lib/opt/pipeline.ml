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
    fold, and sweep dead code. One [mem_forward] run suffices: it also
    drops a store that writes back what its cell held before an
    unobserved store it overwrites (the accumulate-then-zero shape of a
    register nest written per access), so a second run after cse/dce
    finds nothing, and running the pipeline again is a no-op. Fork
    fusion (Fig 4) is kept separate as an ablation: see
    [post_ad_fuse]. *)
let post_ad = [ mem_forward; fold; cse; licm; cse; dce ]

let post_ad_fuse =
  [ mem_forward; fold; cse; licm; openmp_opt (); cse; dce ]

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

(** Apply passes to every function [entry] reaches through calls and
    spawns ({!Prog.reachable}); the others stay as they are. A gradient
    program carries its source functions verbatim, and no gradient calls
    them, so a plan compile optimizes only what its entry runs. *)
let run_from (prog : Prog.t) entry passes =
  List.fold_left
    (fun prog (f : Func.t) -> run_on prog f.name passes)
    prog (Prog.reachable prog entry)
