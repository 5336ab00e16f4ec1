(* Independent output checks.  Each check recomputes the expected answer
   apart from the code path under test: with a different data structure,
   a closed form, or a dense matrix/state-vector comparison.  Checks run
   outside every timed window. *)

module Cx = Qdt.Linalg.Cx
module Vec = Qdt.Linalg.Vec
module Mat = Qdt.Linalg.Mat
module Circuit = Qdt.Circuit.Circuit
module Sv = Qdt.Arrays.Statevector

type verdict = (unit, string) result

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let all checks = List.fold_left (fun acc c -> Result.bind acc (fun () -> c ())) (Ok ()) checks

let cx_close ?(tol = 1e-9) (a : Cx.t) (b : Cx.t) = Cx.norm (Cx.sub a b) <= tol

let amp_close ?tol ~what a b =
  if cx_close ?tol a b then Ok ()
  else
    fail "%s: got %.12g%+.12gi, expected %.12g%+.12gi" what a.Cx.re a.Cx.im b.Cx.re b.Cx.im

(* ------------------------------------------------------------------ *)
(* Closed forms                                                        *)
(* ------------------------------------------------------------------ *)

(* ⟨k| QFT |x⟩ = e^{2πi·x·k/N}/√N for the generator's DFT convention. *)
let qft_amplitude ~n ~x k =
  let dim = float_of_int (1 lsl n) in
  let phase = 2.0 *. Float.pi *. float_of_int ((x * k) land ((1 lsl n) - 1)) /. dim in
  Cx.of_polar ~mag:(1.0 /. Float.sqrt dim) ~phase

(* Basis index the Cuccaro adder maps (a, b) to: qubit 0 is the carry-in,
   b_i sits on qubit 1+2i, a_i on 2+2i, the carry-out on 2n+1. *)
let adder_input_index ~n ~a ~b =
  let idx = ref 0 in
  for i = 0 to n - 1 do
    if b land (1 lsl i) <> 0 then idx := !idx lor (1 lsl (1 + (2 * i)));
    if a land (1 lsl i) <> 0 then idx := !idx lor (1 lsl (2 + (2 * i)))
  done;
  !idx

let adder_output_index ~n ~a ~b =
  let s = a + b in
  let idx = adder_input_index ~n ~a ~b:(s land ((1 lsl n) - 1)) in
  if s lsr n <> 0 then idx lor (1 lsl ((2 * n) + 1)) else idx

(* ------------------------------------------------------------------ *)
(* Counts                                                              *)
(* ------------------------------------------------------------------ *)

let counts_ok ~shots ~support counts =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  if total <> shots then fail "counts sum to %d, expected %d shots" total shots
  else
    match List.find_opt (fun (k, c) -> c > 0 && not (support k)) counts with
    | Some (k, _) -> fail "outcome %d has probability 0" k
    | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Dense references                                                    *)
(* ------------------------------------------------------------------ *)

let dense_state c = Sv.to_vec (Sv.run_unitary c)
let dense_amplitude c k = Sv.amplitude (Sv.run_unitary c) k

(* A seeded random input-state preparation: U3 on every qubit, a CX
   chain, U3 again — entangled, so product-state blind spots vanish. *)
let random_prep ~seed n =
  let st = Random.State.make [| seed; n; 7 |] in
  let angle () = Random.State.float st (2.0 *. Float.pi) in
  let layer c =
    let c = ref c in
    for q = 0 to n - 1 do
      c := Circuit.u3 ~theta:(angle ()) ~phi:(angle ()) ~lambda:(angle ()) q !c
    done;
    !c
  in
  let c = ref (layer (Circuit.empty n)) in
  for q = 0 to n - 2 do
    c := Circuit.cx q (q + 1) !c
  done;
  layer !c

(* Drop qubits neither circuit touches and relabel the rest densely.
   An untouched qubit carries the identity in both circuits, so the
   comparison on the remaining qubits decides equivalence exactly. *)
let compact a b =
  let n = Circuit.num_qubits a in
  let used = Array.make n false in
  List.iter
    (fun c ->
      List.iter
        (fun i -> List.iter (fun q -> used.(q) <- true) (Circuit.qubits_of_instruction i))
        (Circuit.unitary_instructions c))
    [ a; b ];
  let index = Array.make n (-1) in
  let m = ref 0 in
  Array.iteri
    (fun q u ->
      if u then begin
        index.(q) <- !m;
        incr m
      end)
    used;
  let m = max 1 !m in
  let relabel c =
    List.fold_left
      (fun acc i ->
        let i' =
          match i with
          | Circuit.Apply { gate; controls; target } ->
              Circuit.Apply
                { gate; controls = List.map (fun q -> index.(q)) controls; target = index.(target) }
          | Circuit.Swap { controls; a; b } ->
              Circuit.Swap
                { controls = List.map (fun q -> index.(q)) controls; a = index.(a); b = index.(b) }
          | other -> other
        in
        Circuit.add i' acc)
      (Circuit.empty m) (Circuit.unitary_instructions c)
  in
  (relabel a, relabel b)

let max_dense_unitary_qubits = 7

(* [dense_equivalent a b] — equality up to global phase, decided with
   dense arrays: full unitaries up to 7 qubits, else the two circuits'
   dense output states on three random entangled inputs, which must all
   agree up to one common phase. *)
let dense_equivalent a b =
  let a, b = compact a b in
  let n = Circuit.num_qubits a in
  if n <= max_dense_unitary_qubits then
    Mat.equal_up_to_global_phase ~eps:1e-8
      (Qdt.Arrays.Unitary_builder.unitary_by_columns a)
      (Qdt.Arrays.Unitary_builder.unitary_by_columns b)
  else
    let overlaps =
      List.map
        (fun seed ->
          let prep = random_prep ~seed n in
          Vec.dot (dense_state (Circuit.append prep a)) (dense_state (Circuit.append prep b)))
        [ 1; 2; 3 ]
    in
    let first = List.hd overlaps in
    List.for_all (fun o -> Float.abs (Cx.norm o -. 1.0) <= 1e-8) overlaps
    && List.for_all (fun o -> cx_close ~tol:1e-7 o first) overlaps

(* [widen n c] — [c] on the first qubits of an [n]-qubit register. *)
let widen n c =
  if Circuit.num_qubits c = n then c
  else List.fold_left (fun acc i -> Circuit.add i acc) (Circuit.empty n) (Circuit.instructions c)
