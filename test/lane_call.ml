(* Hand-built adj.lanes_k calls for test_engine and test_batch, laid out
   by the runtime's own [Interp.lane_operands], the inverse of the
   [Interp.split_lanes] both runners read the call with. *)

open Parad_ir
module B = Builder
module I = Parad_runtime.Interp

(** A group operand: [host]'s lanes at [off], folded into by [mode] and
    [kind], with coefficients [c1], [c2] and [cond]. *)
let group b ?(mode = 0) ?(c1 = 0.0) ?(c2 = 0.0) ?(cond = false) host off kind
    : Var.t I.lane_group =
  {
    g_host = host;
    g_off = B.i64 b off;
    g_mode = B.i64 b mode;
    g_c1 = B.f64 b c1;
    g_c2 = B.f64 b c2;
    g_cond = B.bool b cond;
    g_kind = B.i64 b (I.kind_code kind);
  }

(** [adj.lanes_k] on [file]: take the [k] lanes of [src] at [soff] into
    the scratch, zeroing them when [zero], then fold them into [groups]. *)
let call b ?(k = 4) ~file ~src ~soff ~zero groups =
  ignore
    (B.call b ~ret:Ty.Unit I.lanes_name
       (I.lane_operands
          {
            l_file = file;
            l_src = src;
            l_soff = soff;
            l_zero = B.i64 b (if zero then 1 else 0);
            l_groups = groups;
            l_k = B.i64 b k;
          }))

(** The lane calls of [f], split. *)
let calls (f : Func.t) =
  Instr.fold_instrs
    (fun acc i ->
      match i with
      | Instr.Call (_, name, args) when name = I.lanes_name -> (
        match I.split_lanes args with
        | Some l -> l :: acc
        | None -> failwith "a lane call whose operands are not whole groups")
      | _ -> acc)
    [] f.body
  |> List.rev
