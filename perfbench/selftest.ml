(* The benchmark's own tests: nearest-rank percentiles on known samples,
   the closed forms against the dense simulator, and every output check
   rejecting a corrupted result while accepting the true one. *)

module Circuit = Qdt.Circuit.Circuit
module G = Qdt.Circuit.Generators
module Cx = Qdt.Linalg.Cx
module Json = Qdt.Obs.Json
module R = Refcheck

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "selftest FAILED: %s\n" name
  end

let is_ok = Result.is_ok
let is_error = Result.is_error

let percentiles () =
  let seq n = Array.init n (fun i -> float_of_int (i + 1)) in
  expect "p50 of 1..100 is 50" (Measure.percentile ~p:50.0 (seq 100) = 50.0);
  expect "p99 of 1..100 is 99" (Measure.percentile ~p:99.0 (seq 100) = 99.0);
  expect "p100 of 1..100 is 100" (Measure.percentile ~p:100.0 (seq 100) = 100.0);
  expect "p99 of 1..1000 is 990" (Measure.percentile ~p:99.0 (seq 1000) = 990.0);
  expect "p50 of [3;1;2] is 2" (Measure.percentile ~p:50.0 [| 3.0; 1.0; 2.0 |] = 2.0);
  expect "p50 of 1..4 is 2 (nearest rank, no interpolation)"
    (Measure.percentile ~p:50.0 (seq 4) = 2.0);
  expect "p99 of one sample is that sample" (Measure.percentile ~p:99.0 [| 7.5 |] = 7.5)

let closed_forms () =
  let n = 4 and x = 5 in
  let c = Sim_batch.with_basis_input x (G.qft n) in
  let st = Qdt.Arrays.Statevector.run_unitary c in
  expect "QFT closed form matches the dense state"
    (List.for_all
       (fun k -> R.cx_close (Qdt.Arrays.Statevector.amplitude st k) (R.qft_amplitude ~n ~x k))
       (List.init 16 Fun.id));
  let n = 2 and a = 3 and b = 2 in
  let c = Sim_batch.with_basis_input (R.adder_input_index ~n ~a ~b) (G.cuccaro_adder n) in
  let probs = Qdt.Arrays.Statevector.probabilities (Qdt.Arrays.Statevector.run_unitary c) in
  expect "adder closed form matches the dense state"
    (Float.abs (probs.(R.adder_output_index ~n ~a ~b) -. 1.0) < 1e-9)

let corrupted () =
  (* wrong amplitude *)
  let a = R.qft_amplitude ~n:3 ~x:1 1 in
  expect "true amplitude accepted" (is_ok (R.amp_close ~what:"a" a a));
  expect "wrong amplitude rejected"
    (is_error (R.amp_close ~what:"a" (Cx.add a (Cx.make 1e-6 0.0)) a));
  expect "state norm 0.99 rejected" (is_error (Sim_batch.check_norm 0.99));
  (* counts *)
  let support k = k = 0 || k = 3 in
  expect "true counts accepted" (is_ok (R.counts_ok ~shots:100 ~support [ (0, 51); (3, 49) ]));
  expect "counts that do not sum rejected"
    (is_error (R.counts_ok ~shots:100 ~support [ (0, 50); (3, 49) ]));
  expect "counts on a zero-probability outcome rejected"
    (is_error (R.counts_ok ~shots:100 ~support [ (0, 50); (1, 1); (3, 49) ]));
  (* non-equivalent circuits, both dense paths *)
  let small = G.qft 4 in
  expect "equal circuits accepted (dense unitary)" (R.dense_equivalent small small);
  expect "non-equivalent circuit rejected (dense unitary)"
    (not (R.dense_equivalent small (Circuit.t 2 small)));
  let wide = G.ghz 9 in
  let routed =
    Qdt.Compile.Router.undo_final_permutation
      (Qdt.Compile.Router.route wide (Qdt.Compile.Coupling.ring 9))
  in
  expect "routed circuit accepted (dense probes)" (R.dense_equivalent wide routed);
  expect "non-equivalent circuit rejected (dense probes)"
    (not (R.dense_equivalent wide (Circuit.z 3 wide)));
  expect "global phase ignored (dense probes)"
    (R.dense_equivalent wide (Circuit.x 0 (Circuit.z 0 (Circuit.x 0 (Circuit.z 0 wide)))));
  (* served payloads *)
  let req = List.hd Serve_small.tranche in
  let exact = Qdt.Job.Amplitude_of (Cx.make Cx.sqrt1_2 0.0) in
  let payload s = Result.get_ok (Json.parse s) in
  let six = payload {|{"kind": "amplitude", "re": 0.707107, "im": 0}|} in
  let full = payload (Printf.sprintf {|{"kind": "amplitude", "re": %.17g, "im": 0}|} Cx.sqrt1_2) in
  expect "exact tranche rejects a 6-digit amplitude"
    (is_error (Serve_small.check_payload req exact six));
  expect "exact tranche accepts a round-trip amplitude"
    (is_ok (Serve_small.check_payload req exact full));
  let loose = { req with Serve_small.exact = false } in
  expect "6-digit amplitude accepted outside the tranche"
    (is_ok (Serve_small.check_payload loose exact six));
  expect "wrong served amplitude rejected"
    (is_error
       (Serve_small.check_payload loose exact
          (payload {|{"kind": "amplitude", "re": 0.7072, "im": 0}|})));
  expect "served counts that differ rejected"
    (is_error
       (Serve_small.check_payload loose
          (Qdt.Job.Counts [ (0, 50); (3, 50) ])
          (payload {|{"kind": "counts", "counts": [[0, 50], [3, 49]]}|})))

let run () =
  percentiles ();
  closed_forms ();
  corrupted ();
  if !failures = 0 then begin
    print_endline "selftest: all checks passed";
    0
  end
  else 1
