(** The two 64-bit bit mixers every seeded stream and digest in the
    repository shares: splitmix64 (fault plans, chaos soaks, slam request
    mixes, SDC campaigns) and FNV-1a (cache seals, packed-message
    trailers, checkpoint checksums, gradient digests). It depends on
    nothing, so any module can use it. *)

(* ---- splitmix64 ---- *)

type rng = { mutable s : int64 }

(** The stream of an integer seed, as the soak, slam and SDC campaign
    draw it. *)
let rng seed = { s = Int64.of_int (0x9e3779b9 + (seed * 0x85ebca6b)) }

(** Advance the stream by one step and return its next 64-bit draw. *)
let next r =
  r.s <- Int64.add r.s 0x9e3779b97f4a7c15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform in [\[0, bound)]. *)
let draw_int r bound =
  Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

(** Uniform in [\[0, 1)], from the top 53 bits of one draw. *)
let draw_float r =
  Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0

let draw_bool r p = draw_float r < p

(* ---- 64-bit FNV-1a ---- *)

let fnv_init = 0xcbf29ce484222325L

(** Fold the low 8 bits of [b] into [h]. *)
let fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

(** Fold the 8 bytes of [bits], least significant first. *)
let fnv_int64 h bits =
  let h = ref h in
  for k = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical bits (8 * k)))
  done;
  !h

(** Fold the IEEE-754 bit pattern of [x]. *)
let fnv_float h x = fnv_int64 h (Int64.bits_of_float x)

(** Fold every byte of [s]. *)
let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h
