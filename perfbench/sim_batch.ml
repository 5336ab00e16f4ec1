(* sim-batch: in process, one persistent session per backend (the way
   [qdt run] works).  Each operation parses a distinct mid-size QASM text
   and submits one job to the backend its family suits; engine kernels
   dominate and no circuit repeats within a run. *)

module Circuit = Qdt.Circuit.Circuit
module G = Qdt.Circuit.Generators
module Qasm = Qdt.Circuit.Qasm
module Job = Qdt.Job
module Cx = Qdt.Linalg.Cx
module R = Refcheck

type session = {
  submit : Circuit.t -> Job.t -> Job.result Qdt.Backend.outcome;
  close : unit -> unit;
}

let open_session name =
  let (module S : Qdt.Backend.SESSION) = Option.get (Qdt.Registry.find_session name) in
  let s = S.create ~label:(Qdt.Backend.fresh_session_label ()) () in
  { submit = S.submit s; close = (fun () -> S.close s) }

let backends = [ "arrays"; "decision-diagrams"; "mps"; "tensor-network"; "stabilizer"; "auto" ]

type ctx = (string * session) list

(* Short layer names used for span and metric names. *)
let layer_of_backend = function
  | "arrays" -> "arrays"
  | "decision-diagrams" -> "dd"
  | "mps" -> "mps"
  | "tensor-network" -> "tn"
  | "stabilizer" -> "stabilizer"
  | "auto" -> "auto"
  | b -> b

let job_kind = function
  | Job.Full_state -> "full_state"
  | Job.Amplitude _ -> "amplitude"
  | Job.Sample _ -> "sample"
  | Job.Expectation_z _ -> "expectation_z"

(* ------------------------------------------------------------------ *)
(* Per-layer counters of traced passes                                 *)
(* ------------------------------------------------------------------ *)

let record_layers ~backend ~c ~minor_words (stats : Qdt.Backend.stats) =
  let add = Layers.add and mx = Layers.max in
  let ran = stats.Qdt.Backend.backend in
  add "heap.minor_words" minor_words;
  add "heap.ops" 1.0;
  if backend = "arrays" then begin
    let n = Circuit.num_qubits c in
    let gates = float_of_int (Circuit.count_total c) in
    add "arrays.gates" gates;
    add "arrays.minor_words" minor_words;
    (* computed, not measured: each gate reads and writes every amplitude
       of the 2^n × 16-byte state once *)
    add "arrays.computed_bytes" (gates *. 2.0 *. 16.0 *. float_of_int (1 lsl n))
  end;
  (match stats.Qdt.Backend.dd with
  | Some d when ran = "decision-diagrams" ->
      add "dd.ops" 1.0;
      add "dd.peak_nodes" (float_of_int d.Qdt.Backend.peak_nodes);
      add "dd.unique_hit_rate" d.Qdt.Backend.unique_hit_rate;
      add "dd.compute_hit_rate" d.Qdt.Backend.compute_hit_rate;
      add "dd.gc_runs" (float_of_int d.Qdt.Backend.gc_runs)
  | _ -> ());
  (match stats.Qdt.Backend.mps with
  | Some m -> mx "mps.max_bond_dim" (float_of_int m.Qdt.Backend.max_bond_dim)
  | None -> ());
  match stats.Qdt.Backend.tableau_bytes with
  | Some b ->
      add "stabilizer.tableau_ops" 1.0;
      add "stabilizer.tableau_bytes" (float_of_int b)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(* Jobs of the first traced operations, replayed after the measured
   window to time what a warm run does not: a cold session (create,
   submit, close) and the auto router's choice on its own. *)
let probe_jobs = ref []
let probe_limit = 24

let probe () =
  Measure.Trace.enabled := true;
  List.iter
    (fun (backend, c, job) ->
      Measure.Trace.span "core.cold_session" (fun () ->
          let s = open_session backend in
          ignore (s.submit c job);
          s.close ());
      if backend = "auto" then
        ignore
          (Measure.Trace.span "auto.route" (fun () ->
               Qdt.Auto.choose ~op:(Qdt.Backend.operation_of_job job) c)))
    (List.rev !probe_jobs);
  Measure.Trace.enabled := false

(* [submit_op] — the timed part parses the QASM text and submits the job;
   [summarize] (untimed) keeps only what the check needs, so a
   dense state does not outlive its operation. *)
let submit_op ~cls ~backend ~job c ~summarize =
  let qasm = Qasm.to_string c in
  let layer = layer_of_backend backend in
  {
    Inproc.cls;
    key = backend ^ "/" ^ job_kind job;
    input = qasm;
    run =
      (fun ctx () ->
        let traced = !Measure.Trace.enabled in
        let session = List.assoc backend ctx in
        Layers.count_input ~traced qasm;
        let parsed = Measure.Trace.span "circuit.qasm_parse" (fun () -> Qasm.of_string qasm) in
        let w0 = if traced then Gc.minor_words () else 0.0 in
        let t0 = Measure.now_ns () in
        let r = Measure.Trace.span (layer ^ ".submit") (fun () -> session.submit parsed job) in
        let submit_ns = Measure.now_ns () - t0 in
        let minor_words = if traced then Gc.minor_words () -. w0 else 0.0 in
        fun () ->
          match r with
          | Error e ->
              let msg = Qdt.Backend.error_to_string e in
              fun () -> Error msg
          | Ok (res, stats) ->
              if traced then begin
                record_layers ~backend ~c:parsed ~minor_words stats;
                Layers.add "core.warm_submit_ms" (float_of_int submit_ns /. 1e6);
                Layers.add "core.warm_submits" 1.0;
                if List.length !probe_jobs < probe_limit then
                  probe_jobs := (backend, parsed, job) :: !probe_jobs
              end;
              summarize res);
  }

let wrong_kind () = Error "unexpected result kind"

let random_basis st n = Random.State.bits st land ((1 lsl n) - 1)

(* Prepend X gates writing basis state [x]. *)
let with_basis_input x c =
  let n = Circuit.num_qubits c in
  let prep = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    if x land (1 lsl q) <> 0 then prep := Circuit.x q !prep
  done;
  Circuit.append !prep c

(* [distinct st c] — prefix a random pattern of diagonal Cliffords (I, Z,
   S, S†) per qubit.  On the |0…0⟩ input it changes nothing, yet it makes
   the text of otherwise fixed circuits (GHZ, Grover, adders, QFT on a
   basis input) differ from pass to pass, so no circuit repeats within a
   run.  Being Clifford, it leaves stabilizer and auto routing alone. *)
let distinct st c =
  let n = Circuit.num_qubits c in
  let tag = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    match Random.State.int st 4 with
    | 1 -> tag := Circuit.z q !tag
    | 2 -> tag := Circuit.s q !tag
    | 3 -> tag := Circuit.sdg q !tag
    | _ -> ()
  done;
  Circuit.append !tag c

(* Nearest-neighbour brickwork: Ry angles in [0, theta) and random Rz on
   every qubit, then CX on alternating neighbour pairs.  Small [theta]
   keeps entanglement low, so the MPS bond dimension stays small. *)
let brickwork st ~theta ~depth n =
  let c = ref (Circuit.empty n) in
  for layer = 0 to depth - 1 do
    for q = 0 to n - 1 do
      c := Circuit.ry (Random.State.float st theta) q !c;
      c := Circuit.rz (Random.State.float st (2.0 *. Float.pi)) q !c
    done;
    let q = ref (layer mod 2) in
    while !q + 1 < n do
      c := Circuit.cx !q (!q + 1) !c;
      q := !q + 2
    done
  done;
  !c

(* [mirror st n] — a wide random Clifford C, then C†, then X on a random
   set: the tableau works through a highly entangled middle, and the
   output is a known basis state. *)
let mirror st n =
  let c = G.random_clifford ~seed:(Random.State.bits st) ~gates:(6 * n) n in
  let flips = List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id) in
  let out = List.fold_left (fun acc q -> Circuit.x q acc) (Circuit.append c (Circuit.adjoint c)) flips in
  (out, flips)

(* Keep a full state's norm and a few amplitudes. *)
let state_summary ~indices v =
  let n2 = Qdt.Linalg.Vec.norm2 v in
  (n2, List.map (fun k -> (k, Qdt.Linalg.Vec.get v k)) indices)

let check_norm n2 =
  if Float.abs (n2 -. 1.0) <= 1e-9 then Ok () else R.fail "state norm² %.15g, expected 1" n2

(* A reference amplitude from a fresh session of another backend. *)
let ref_amplitude backend c k =
  let s = open_session backend in
  let r = s.submit c (Job.Amplitude k) in
  s.close ();
  match r with
  | Ok (Job.Amplitude_of a, _) -> a
  | Ok _ -> failwith "reference: unexpected result kind"
  | Error e -> failwith ("reference: " ^ Qdt.Backend.error_to_string e)

let dense_expectation c q = Qdt.Arrays.Statevector.expectation_z (Qdt.Arrays.Statevector.run_unitary c) q

(* Arrays full state of a random circuit: norm 1, and one amplitude
   against the decision-diagram backend (a DD run costs several times
   the arrays job here, so one index keeps the checks affordable). *)
let arrays_random st ~depth n =
  let c = G.random_circuit ~seed:(Random.State.bits st) ~depth n in
  let indices = [ random_basis st n ] in
  submit_op ~cls:(Printf.sprintf "arrays.random%d" n) ~backend:"arrays" ~job:Job.Full_state c
    ~summarize:(function
      | Job.State v ->
          let n2, amps = state_summary ~indices v in
          fun () ->
            R.all
              ((fun () -> check_norm n2)
              :: List.map
                   (fun (k, a) () ->
                     R.amp_close ~tol:1e-8 ~what:(Printf.sprintf "amplitude %d vs dd" k) a
                       (ref_amplitude "decision-diagrams" c k))
                   amps)
      | _ -> wrong_kind)

(* QFT on a basis input: every amplitude has a closed form. *)
let qft_state st ~backend n =
  let x = random_basis st n in
  let c = distinct st (with_basis_input x (G.qft n)) in
  let indices = List.init 8 (fun _ -> random_basis st n) in
  submit_op ~cls:(Printf.sprintf "%s.qft%d" (layer_of_backend backend) n) ~backend
    ~job:Job.Full_state c ~summarize:(function
    | Job.State v ->
        let n2, amps = state_summary ~indices v in
        fun () ->
          R.all
            ((fun () -> check_norm n2)
            :: List.map
                 (fun (k, a) () ->
                   R.amp_close ~what:(Printf.sprintf "QFT amplitude %d" k) a
                     (R.qft_amplitude ~n ~x k))
                 amps)
    | _ -> wrong_kind)

let qft_amplitude st ~backend n =
  let x = random_basis st n in
  let k = random_basis st n in
  let c = distinct st (with_basis_input x (G.qft n)) in
  submit_op ~cls:(Printf.sprintf "%s.qft%d" (layer_of_backend backend) n) ~backend
    ~job:(Job.Amplitude k) c ~summarize:(function
    | Job.Amplitude_of a -> fun () -> R.amp_close ~what:"QFT amplitude" a (R.qft_amplitude ~n ~x k)
    | _ -> wrong_kind)

let sample_op ~cls ~backend ~shots st c ~support =
  submit_op ~cls ~backend ~job:(Job.Sample { seed = Random.State.bits st; shots }) c
    ~summarize:(function
    | Job.Counts counts -> fun () -> R.counts_ok ~shots ~support counts
    | _ -> wrong_kind)

let ghz st n =
  let top = (1 lsl n) - 1 in
  sample_op ~cls:(Printf.sprintf "dd.ghz%d" n) ~backend:"decision-diagrams" ~shots:256 st
    (distinct st (G.ghz n)) ~support:(fun k -> k = 0 || k = top)

let adder st n =
  let a = Random.State.int st (1 lsl n) and b = Random.State.int st (1 lsl n) in
  let expected = R.adder_output_index ~n ~a ~b in
  let c = distinct st (with_basis_input (R.adder_input_index ~n ~a ~b) (G.cuccaro_adder n)) in
  sample_op ~cls:(Printf.sprintf "dd.adder%d" n) ~backend:"decision-diagrams" ~shots:64 st c
    ~support:(fun k -> k = expected)

(* Grover: counts only on outcomes the dense reference gives nonzero
   probability, and most of them on the marked item. *)
let grover st n =
  let marked = Random.State.int st (1 lsl n) in
  let c = distinct st (G.grover ~marked n) in
  let shots = 64 in
  submit_op ~cls:(Printf.sprintf "dd.grover%d" n) ~backend:"decision-diagrams"
    ~job:(Job.Sample { seed = Random.State.bits st; shots }) c ~summarize:(function
    | Job.Counts counts ->
        fun () ->
          let probs = Qdt.Arrays.Statevector.probabilities (Qdt.Arrays.Statevector.run_unitary c) in
          R.all
            [
              (fun () -> R.counts_ok ~shots ~support:(fun k -> probs.(k) > 1e-12) counts);
              (fun () ->
                let hits = Option.value ~default:0 (List.assoc_opt marked counts) in
                if 2 * hits > shots then Ok ()
                else R.fail "marked item %d drew %d of %d shots" marked hits shots);
            ]
    | _ -> wrong_kind)

(* An amplitude checked against the dense state-vector reference. *)
let amplitude_vs_dense ~cls ~backend st c =
  let k = random_basis st (Circuit.num_qubits c) in
  submit_op ~cls ~backend ~job:(Job.Amplitude k) c ~summarize:(function
    | Job.Amplitude_of a ->
        fun () -> R.amp_close ~tol:1e-8 ~what:"amplitude vs arrays" a (R.dense_amplitude c k)
    | _ -> wrong_kind)

let expectation_vs_dense ~cls ~backend st c =
  let q = Random.State.int st (Circuit.num_qubits c) in
  submit_op ~cls ~backend ~job:(Job.Expectation_z { seed = Random.State.bits st; qubit = q }) c
    ~summarize:(function
    | Job.Expectation e ->
        fun () ->
          let r = dense_expectation c q in
          if Float.abs (e -. r) <= 1e-8 then Ok ()
          else R.fail "<Z_%d> = %.12g, arrays gives %.12g" q e r
    | _ -> wrong_kind)

let hidden_shift st n =
  let shift = Random.State.bits st land ((1 lsl n) - 1) in
  sample_op ~cls:(Printf.sprintf "stabilizer.hidden_shift%d" n) ~backend:"stabilizer" ~shots:64 st
    (G.hidden_shift ~shift n) ~support:(fun k -> k = shift)

let stabilizer_mirror st n =
  let c, flips = mirror st n in
  let q = Random.State.int st n in
  let expected = if List.mem q flips then -1.0 else 1.0 in
  submit_op ~cls:(Printf.sprintf "stabilizer.mirror%d" n) ~backend:"stabilizer"
    ~job:(Job.Expectation_z { seed = Random.State.bits st; qubit = q }) c ~summarize:(function
    | Job.Expectation e ->
        fun () ->
          if Float.abs (e -. expected) <= 1e-9 then Ok ()
          else R.fail "<Z_%d> = %.12g, expected %g" q e expected
    | _ -> wrong_kind)

let bernstein_vazirani st n =
  let secret = Random.State.int st (1 lsl n) in
  sample_op ~cls:(Printf.sprintf "auto.bv%d" n) ~backend:"auto" ~shots:64 st
    (G.bernstein_vazirani ~secret n) ~support:(fun k -> k land ((1 lsl n) - 1) = secret)

let auto_random st n =
  let c = G.random_circuit ~seed:(Random.State.bits st) ~depth:2 n in
  let k = random_basis st n in
  submit_op ~cls:(Printf.sprintf "auto.random%d" n) ~backend:"auto" ~job:(Job.Amplitude k) c
    ~summarize:(function
    | Job.Amplitude_of a ->
        fun () ->
          R.amp_close ~tol:1e-8 ~what:"amplitude vs dd" a (ref_amplitude "decision-diagrams" c k)
    | _ -> wrong_kind)

(* One pass: the body slots twice, then the tail slot once.  Each slot
   draws fresh parameters from (seed, pass, position).  The tail class
   (arrays QFT on 17 qubits) costs well above every body class and is
   about 2% of a pass, so latency_p99_ms lands near the middle of one
   homogeneous class instead of on the tails of several. *)
let body : (Random.State.t -> ctx Inproc.op) list =
  [
    (fun st -> arrays_random st ~depth:2 14);
    (fun st -> arrays_random st ~depth:2 15);
    (fun st -> arrays_random st ~depth:2 16);
    (fun st -> qft_state st ~backend:"arrays" 14);
    (fun st -> ghz st 24);
    (fun st -> ghz st 32);
    (fun st -> qft_amplitude st ~backend:"decision-diagrams" 16);
    (fun st -> qft_amplitude st ~backend:"decision-diagrams" 18);
    (fun st -> adder st 6);
    (fun st -> adder st 8);
    (fun st -> grover st 6);
    (fun st -> grover st 7);
    (fun st -> amplitude_vs_dense ~cls:"mps.brick12" ~backend:"mps" st (brickwork st ~theta:0.6 ~depth:6 12));
    (fun st -> amplitude_vs_dense ~cls:"mps.brick14" ~backend:"mps" st (brickwork st ~theta:0.6 ~depth:6 14));
    (fun st ->
      amplitude_vs_dense ~cls:"tn.random10" ~backend:"tensor-network" st
        (G.random_circuit ~seed:(Random.State.bits st) ~depth:1 10));
    (fun st ->
      amplitude_vs_dense ~cls:"tn.random12" ~backend:"tensor-network" st
        (G.random_circuit ~seed:(Random.State.bits st) ~depth:1 12));
    (fun st -> hidden_shift st 32);
    (fun st -> hidden_shift st 48);
    (fun st -> stabilizer_mirror st 64);
    (fun st ->
      expectation_vs_dense ~cls:"stabilizer.clifford10" ~backend:"stabilizer" st
        (G.random_clifford ~seed:(Random.State.bits st) ~gates:80 10));
    (fun st -> bernstein_vazirani st 16);
    (fun st -> auto_random st 12);
    (fun st ->
      expectation_vs_dense ~cls:"auto.clifford_t8" ~backend:"auto" st
        (G.random_clifford_t ~seed:(Random.State.bits st) ~gates:60 ~t_fraction:0.3 8));
  ]

let tail st = qft_state st ~backend:"arrays" 17
let slots = body @ body @ [ tail ]

let workload : ctx Inproc.workload =
  {
    Inproc.name = "sim-batch";
    create = (fun () -> List.map (fun b -> (b, open_session b)) backends);
    close = (fun ctx -> List.iter (fun (_, s) -> s.close ()) ctx);
    gen_pass =
      (fun ~seed ~pass ->
        Array.of_list
          (List.mapi (fun i slot -> slot (Random.State.make [| seed; pass; i; 0x5b |])) slots));
  }
