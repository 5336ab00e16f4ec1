(* Per-layer counters gathered in traced passes only: sums and maxima
   keyed by metric stem, read back when the per-layer metrics are
   computed.  Only the main thread records them. *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 32
let maxes : (string, float) Hashtbl.t = Hashtbl.create 8
let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums k))

let max k v =
  Hashtbl.replace maxes k (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt maxes k)))

let sum k = Option.value ~default:0.0 (Hashtbl.find_opt sums k)
let peak k = Option.value ~default:0.0 (Hashtbl.find_opt maxes k)

let clear () =
  Hashtbl.reset sums;
  Hashtbl.reset maxes

(* [ratio a b] — [a / b], 0 when nothing was counted. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let count_input ~traced qasm =
  if traced then add "circuit.qasm_bytes" (float_of_int (String.length qasm))
