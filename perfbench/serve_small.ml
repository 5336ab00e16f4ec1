(* serve-small: a closed loop of two client connections against a child
   [qdt serve --workers 1], sending small circuits (at most 12 qubits)
   from a fixed set of 16 QASM texts.  Nearly every request repeats an
   earlier circuit and engine time is a small share of each request, so
   per-request overhead dominates: HTTP, JSON decode, QASM parse,
   session lookup and result encode. *)

module Circuit = Qdt.Circuit.Circuit
module G = Qdt.Circuit.Generators
module Qasm = Qdt.Circuit.Qasm
module Job = Qdt.Job
module Json = Qdt.Obs.Json
module Cx = Qdt.Linalg.Cx
module Protocol = Qdt_serve.Protocol
module R = Refcheck

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request = {
  circuit : Circuit.t;
  backend : string;
  job : Job.t;
  session : string option;
  exact : bool;
      (** in the exact-amplitude tranche: checked to 1e-12, the bound a
          served result must meet to equal the in-process one *)
  body : string;
}

let session_name backend = "perfbench-" ^ backend

let job_json = function
  | Job.Full_state -> {|{"kind": "full_state"}|}
  | Job.Amplitude k -> Printf.sprintf {|{"kind": "amplitude", "index": %d}|} k
  | Job.Sample { seed; shots } ->
      Printf.sprintf {|{"kind": "sample", "seed": %d, "shots": %d}|} seed shots
  | Job.Expectation_z { seed; qubit } ->
      Printf.sprintf {|{"kind": "expectation_z", "seed": %d, "qubit": %d}|} seed qubit

let make_request ?(exact = false) ~sessionless circuit backend job =
  let session = if sessionless then None else Some (session_name backend) in
  let body =
    Printf.sprintf {|{"qasm": %s, "backend": %s, "job": %s%s}|}
      (Json.string (Qasm.to_string circuit))
      (Json.string backend) (job_json job)
      (match session with Some s -> Printf.sprintf {|, "session": %s|} (Json.string s) | None -> "")
  in
  { circuit; backend; job; session; exact; body }

(* The fixed set of 16 circuits.  Circuit structure is fixed, so the
   cost of each request does not depend on the seed: circuits whose cost
   depends on a random structure (random Cliffords, QAOA graphs) use
   fixed generator seeds, and the run seed draws only angles, secrets,
   marked items and basis inputs.  The first six are Clifford, so the
   stabilizer backend accepts them. *)
let circuits st =
  let bits n = Random.State.bits st land ((1 lsl n) - 1) in
  let clifford =
    [|
      G.bell;
      G.ghz 8;
      G.bernstein_vazirani ~secret:(bits 8) 8;
      G.random_clifford ~seed:11 ~gates:40 10;
      G.random_clifford ~seed:12 ~gates:24 6;
      G.hidden_shift ~shift:(bits 10) 10;
    |]
  in
  let general =
    [|
      Sim_batch.with_basis_input (bits 5) (G.qft 5);
      G.grover ~marked:(bits 4) 4;
      Sim_batch.brickwork st ~theta:Float.pi ~depth:2 5;
      Sim_batch.brickwork st ~theta:Float.pi ~depth:3 6;
      G.w_state 5;
      Sim_batch.with_basis_input (bits 6) (G.cuccaro_adder 2);
      G.qaoa_maxcut ~seed:13 ~layers:1 6;
      G.random_clifford_t ~seed:14 ~gates:30 ~t_fraction:0.2 5;
      G.qft 4;
      G.ghz 12;
    |]
  in
  Array.append clifford general

let n_clifford = 6

(* The fixed known-failing tranche: amplitudes with no 6-digit decimal
   form (1/√2, 1/√8, 1/√3, 1/√5), independent of the seed. *)
let tranche =
  [
    make_request ~exact:true ~sessionless:false G.bell "arrays" (Job.Amplitude 0);
    make_request ~exact:true ~sessionless:false (G.qft 3) "decision-diagrams" (Job.Amplitude 0);
    make_request ~exact:true ~sessionless:false (G.w_state 3) "arrays" (Job.Amplitude 1);
    make_request ~exact:true ~sessionless:false (G.w_state 5) "decision-diagrams"
      (Job.Amplitude 1);
  ]

let pass_length = 64

(* One pass: 60 seeded requests plus the 4-request tranche (one in
   sixteen).  Every eighth request is sessionless.  Which circuit, backend
   and job kind each slot carries is fixed, so every seed gives the same
   mix; the seed draws circuit parameters, sample seeds, amplitude
   indices and qubits.

   One seeded slot is heavy: ⟨Z⟩ of a 12-qubit, depth-12 brickwork on
   warm arrays, about 11 ms against 0.8 ms at the median.  It is 1/64 of
   the requests, so the 99th percentile sits inside that one homogeneous
   class rather than on the tails of the many light ones, where it would
   swing with how many scheduling stalls a run happens to draw. *)
let gen_requests ~seed =
  let st = Random.State.make [| seed; 0x55 |] in
  let circuits = circuits st in
  let heavy = Sim_batch.brickwork st ~theta:Float.pi ~depth:12 12 in
  let cycle lst =
    let i = ref 0 in
    fun () ->
      let v = List.nth lst (!i mod List.length lst) in
      incr i;
      v
  in
  let all = cycle (List.init (Array.length circuits) Fun.id) in
  let cliff = cycle (List.init n_clifford Fun.id) in
  (* the 10-qubit random Clifford state is dense, 1024 entries on the wire *)
  let state = cycle (List.filter (fun i -> i <> 3) (List.init (Array.length circuits) Fun.id)) in
  let job_for kind c =
    let n = Circuit.num_qubits c in
    match kind with
    | `Sample -> Job.Sample { seed = Random.State.bits st; shots = 100 }
    | `Expz -> Job.Expectation_z { seed = Random.State.bits st; qubit = Random.State.int st n }
    | `Amp -> Job.Amplitude (Random.State.bits st land ((1 lsl n) - 1))
    | `State -> Job.Full_state
    | `Heavy -> Job.Expectation_z { seed = Random.State.bits st; qubit = Random.State.int st n }
  in
  let template =
    List.concat_map
      (fun (backend, kinds) -> List.concat_map (fun (k, count) -> List.init count (fun _ -> (backend, k))) kinds)
      [
        ("decision-diagrams", [ (`Sample, 4); (`Expz, 4); (`Amp, 4); (`State, 3) ]);
        ("arrays", [ (`Sample, 4); (`Expz, 3); (`Amp, 4); (`State, 3); (`Heavy, 1) ]);
        ("stabilizer", [ (`Sample, 6); (`Expz, 6) ]);
        ("auto", [ (`Sample, 5); (`Expz, 4); (`Amp, 4); (`State, 5) ]);
      ]
  in
  let seeded =
    List.mapi
      (fun i (backend, kind) ->
        let c =
          match (backend, kind) with
          | _, `Heavy -> heavy
          | "stabilizer", _ -> circuits.(cliff ())
          | _, `State -> circuits.(state ())
          | _ -> circuits.(all ())
        in
        make_request ~sessionless:(i mod 8 = 7) c backend (job_for kind c))
      template
  in
  (* Interleave the tranche evenly: positions 15, 31, 47, 63. *)
  let seeded = Array.of_list seeded in
  let tranche = Array.of_list tranche in
  Array.init pass_length (fun i ->
      if i mod 16 = 15 then tranche.(i / 16) else seeded.(i - ((i + 1) / 16)))

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

let spawn ~qdt =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let env = Array.append [| "QDT_JOBS=1" |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env qdt
      [| qdt; "serve"; "--port"; "0"; "--workers"; "1" |]
      env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  (* Ready when it prints "listening on HOST:PORT"; no polling. *)
  let line = input_line out in
  let port =
    match String.index_opt line ':' with
    | Some _ -> (
        try Scanf.sscanf line "qdt serve: listening on %[^:]:%d" (fun _ p -> p)
        with Scanf.Scan_failure _ | End_of_file -> failwith ("unexpected server line: " ^ line))
    | None -> failwith ("unexpected server line: " ^ line)
  in
  { pid; port; out }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  close_in_noerr s.out

(* ------------------------------------------------------------------ *)
(* Client loop                                                         *)
(* ------------------------------------------------------------------ *)

type sample = { idx : int; latency_ns : int; status : int; body : string; retries : int }

let post_retrying conn body =
  let rec go retries =
    match Qdt_serve.Client.post conn ~path:"/v1/jobs" ~body with
    | Ok (429, _) ->
        Unix.sleepf 0.001;
        go (retries + 1)
    | Ok (status, resp) -> (status, resp, retries)
    | Error e -> failwith ("request failed: " ^ e)
  in
  go 0

let clients = 2

(* [closed_loop] — two client threads claim request indices from one
   shared counter and stop once [seconds] have passed and the counter
   sits on a pass boundary, so a segment always holds whole passes. *)
let closed_loop ~port ~(requests : request array) ~seconds ~traced =
  let n = Array.length requests in
  let lock = Mutex.create () in
  let next = ref 0 in
  let t_start = Measure.now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let claim () =
    Mutex.lock lock;
    let r =
      if !next mod n = 0 && !next > 0 && Measure.now_ns () >= deadline then None
      else begin
        let i = !next in
        incr next;
        Some i
      end
    in
    Mutex.unlock lock;
    r
  in
  let results = Array.make clients [] in
  let worker k =
    let conn = Qdt_serve.Client.connect ~host:"127.0.0.1" ~port in
    let rec loop acc =
      match claim () with
      | None -> acc
      | Some i ->
          let req = requests.(i mod n) in
          let t0 = Measure.now_ns () in
          let status, body, retries = post_retrying conn req.body in
          let t1 = Measure.now_ns () in
          if traced then Measure.Trace.record ~parent:(-1) "client.request" t0 t1;
          loop ({ idx = i mod n; latency_ns = t1 - t0; status; body; retries } :: acc)
    in
    results.(k) <- loop [];
    Qdt_serve.Client.close conn
  in
  let threads = List.init clients (fun k -> Thread.create worker k) in
  List.iter Thread.join threads;
  let window_ns = Measure.now_ns () - t_start in
  (List.concat (Array.to_list results), window_ns)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let num v = Option.bind v Json.to_number

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

(* In-process reference: a fresh session of the same backend. *)
let reference req =
  let (module S : Qdt.Backend.SESSION) = Option.get (Qdt.Registry.find_session req.backend) in
  let s = S.create () in
  let r = S.submit s req.circuit req.job in
  S.close s;
  match r with
  | Ok (res, _) -> res
  | Error e -> failwith ("reference: " ^ Qdt.Backend.error_to_string e)

(* The wire carries 6 significant digits today ([Json.float] prints
   %.6g); a served value must agree with the in-process one to that. *)
let close6 served expected =
  Float.abs (served -. expected) <= (1e-5 *. Float.abs expected) +. 1e-9

let check_payload req (ref_result : Job.result) result =
  let kind = Option.bind (field [ "kind" ] result) Json.to_string in
  match (ref_result, kind) with
  | Job.Amplitude_of a, Some "amplitude" -> (
      match (num (field [ "re" ] result), num (field [ "im" ] result)) with
      | Some re, Some im ->
          if req.exact then
            if Float.abs (re -. a.Cx.re) <= 1e-12 && Float.abs (im -. a.Cx.im) <= 1e-12 then Ok ()
            else
              R.fail "served amplitude %.17g%+.17gi differs from in-process %.17g%+.17gi by more than 1e-12"
                re im a.Cx.re a.Cx.im
          else
            let mag = Cx.norm a in
            let ok s e = Float.abs (s -. e) <= (1e-5 *. mag) +. 1e-9 in
            if ok re a.Cx.re && ok im a.Cx.im then Ok ()
            else R.fail "served amplitude %g%+gi, in-process %g%+gi" re im a.Cx.re a.Cx.im
      | _ -> R.fail "amplitude payload without re/im")
  | Job.Expectation e, Some "expectation" -> (
      match num (field [ "value" ] result) with
      | Some v when close6 v e -> Ok ()
      | Some v -> R.fail "served <Z> %g, in-process %g" v e
      | None -> R.fail "expectation payload without value")
  | Job.Counts counts, Some "counts" -> (
      match field [ "counts" ] result with
      | Some (Json.Array items) ->
          let served =
            List.filter_map
              (function
                | Json.Array [ Json.Number k; Json.Number c ] -> Some (int_of_float k, int_of_float c)
                | _ -> None)
              items
            |> List.sort compare
          in
          if served = List.sort compare counts then Ok ()
          else R.fail "served counts differ from the in-process counts"
      | _ -> R.fail "counts payload without counts")
  | Job.State v, Some "state" -> (
      match field [ "amplitudes" ] result with
      | Some (Json.Array items) ->
          let seen = Hashtbl.create 16 in
          let bad =
            List.exists
              (function
                | Json.Array [ Json.Number k; Json.Number re; Json.Number im ] ->
                    let k = int_of_float k in
                    Hashtbl.replace seen k ();
                    let a = Qdt.Linalg.Vec.get v k in
                    not (close6 re a.Cx.re && close6 im a.Cx.im)
                | _ -> true)
              items
          in
          let missing = ref false in
          Qdt.Linalg.Vec.iteri
            (fun k a -> if Cx.norm2 a > 1e-10 && not (Hashtbl.mem seen k) then missing := true)
            v;
          if bad then R.fail "served state entries differ from the in-process state"
          else if !missing then R.fail "served state misses an entry"
          else Ok ()
      | _ -> R.fail "state payload without amplitudes")
  | _ -> R.fail "payload kind does not match the job"

type served = { queue_wait_ns : float; run_ns : float; check : R.verdict }

let check_sample (requests : request array) refs (s : sample) =
  let req = requests.(s.idx) in
  if s.status <> 200 then
    { queue_wait_ns = 0.0; run_ns = 0.0; check = R.fail "HTTP %d: %s" s.status s.body }
  else
    match Json.parse s.body with
    | Error e -> { queue_wait_ns = 0.0; run_ns = 0.0; check = R.fail "bad JSON: %s" e }
    | Ok j ->
        let get k = Option.value ~default:0.0 (num (Json.member k j)) in
        let check =
          match Json.member "result" j with
          | Some result -> check_payload req refs.(s.idx) result
          | None -> R.fail "response without result"
        in
        { queue_wait_ns = get "queue_wait_ns"; run_ns = get "run_ns"; check }

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* The measured window is [segments] segments of whole passes, about
   3 s each at 25 s.  Steal bursts on the shared 2-vCPU host last a
   few seconds and stall whichever requests are in flight, so the 99th
   percentile is taken per segment (each with 25+ samples beyond it)
   and reported as the median over segments.  Throughput is the
   untraced segments' requests over their summed time: the host's speed
   switches between two levels for seconds at a time, and a median of
   per-segment rates jumps between them where a total moves in
   proportion to the time spent at each.  Set-up rounds: a few before
   the window and a few between each pair of segments (the measured
   server idles meanwhile). *)
let setup_rounds_before = 3
let setup_rounds_between = 2
let segments = 8

(* Spawn, wait for the listening line, then one warm-up request per
   distinct (backend, job kind) on the named sessions. *)
let setup ~qdt (requests : request array) =
  let warmups =
    let seen = Hashtbl.create 16 in
    Array.to_list requests
    |> List.filter (fun (r : request) ->
           let key = (r.backend, Sim_batch.job_kind r.job) in
           if r.session = None || Hashtbl.mem seen key then false
           else begin
             Hashtbl.add seen key ();
             true
           end)
  in
  let t0 = Measure.now_ns () in
  let server = spawn ~qdt in
  let conn = Qdt_serve.Client.connect ~host:"127.0.0.1" ~port:server.port in
  List.iter
    (fun (r : request) ->
      let status, body, _ = post_retrying conn r.body in
      if status <> 200 then failwith (Printf.sprintf "warm-up failed: HTTP %d %s" status body))
    warmups;
  Qdt_serve.Client.close conn;
  (server, float_of_int (Measure.now_ns () - t0) /. 1e9)

(* ------------------------------------------------------------------ *)
(* In-process replay (traced runs)                                     *)
(* ------------------------------------------------------------------ *)

let span = Measure.Trace.span

(* Replay the request bodies in process through the stages a served job
   passes: decode, QASM parse, a warm session's submit (or a cold
   create+submit+close for sessionless requests), and result encode. *)
let replay (requests : request array) ~passes =
  let sessions = Hashtbl.create 8 in
  let warm backend =
    match Hashtbl.find_opt sessions backend with
    | Some s -> s
    | None ->
        let s = Sim_batch.open_session backend in
        Hashtbl.add sessions backend s;
        s
  in
  Array.iter (fun (r : request) -> if r.session <> None then ignore (warm r.backend)) requests;
  Measure.Trace.enabled := true;
  for _ = 1 to passes do
    Array.iter
      (fun (r : request) ->
        let w0 = Gc.minor_words () in
        let req =
          match span "protocol.decode" (fun () -> Protocol.job_request_of_string r.body) with
          | Ok req -> req
          | Error e -> failwith ("replay decode: " ^ e)
        in
        let c =
          match span "circuit.qasm_parse" (fun () -> Protocol.circuit_of req) with
          | Ok c -> c
          | Error e -> failwith ("replay parse: " ^ e)
        in
        Layers.add "circuit.qasm_bytes" (float_of_int (String.length req.Protocol.qasm));
        if req.Protocol.backend = "auto" then
          ignore
            (span "auto.route" (fun () ->
                 Qdt.Auto.choose ~op:(Qdt.Backend.operation_of_job req.Protocol.job) c));
        let layer = Sim_batch.layer_of_backend req.Protocol.backend ^ ".submit" in
        let outcome =
          match req.Protocol.session with
          | Some _ ->
              let s = warm req.Protocol.backend in
              let t0 = Measure.now_ns () in
              let o = span "core.warm_submit" (fun () -> span layer (fun () -> s.Sim_batch.submit c req.Protocol.job)) in
              Layers.add "core.warm_submit_ms" (float_of_int (Measure.now_ns () - t0) /. 1e6);
              Layers.add "core.warm_submits" 1.0;
              o
          | None ->
              span "core.cold_session" (fun () ->
                  let s = Sim_batch.open_session req.Protocol.backend in
                  let o = span layer (fun () -> s.Sim_batch.submit c req.Protocol.job) in
                  s.Sim_batch.close ();
                  o)
        in
        match outcome with
        | Ok (payload, stats) ->
            ignore
              (span "protocol.encode" (fun () ->
                   Protocol.ok_body ~job:req.Protocol.job ~payload ~stats ~queue_wait_ns:0 ~run_ns:0));
            Sim_batch.record_layers ~backend:req.Protocol.backend ~c
              ~minor_words:(Gc.minor_words () -. w0) stats
        | Error e -> failwith ("replay submit: " ^ Qdt.Backend.error_to_string e))
      requests
  done;
  Measure.Trace.enabled := false;
  Hashtbl.iter (fun _ s -> s.Sim_batch.close ()) sessions

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  first_error : string option;
  setup_s : float;
  ops_per_s : float;  (** over the untraced segments' summed time *)
  p50_ms : float;  (** over all untraced samples *)
  p99_ms : float;  (** per untraced segment, median over segments *)
  cpu_ms_per_op : float;  (** server CPU over the untraced segments *)
  peak_rss_mb : float;
  overhead_pct : float;
  serve : (string * float) list;
  repeat_share : float;  (** share of requests whose circuit repeats an earlier one *)
}

let run ~qdt ~seed ~seconds ~trace =
  let requests = gen_requests ~seed in
  let setups = Measure.Samples.create () in
  (* A throwaway set-up round: spawn, warm up, stop. *)
  let spare_setup () =
    let spare, s = setup ~qdt requests in
    stop spare;
    Measure.Samples.add setups s
  in
  for _ = 2 to setup_rounds_before do
    spare_setup ()
  done;
  let server, s = setup ~qdt requests in
  Measure.Samples.add setups s;
  Fun.protect
    ~finally:(fun () -> stop server)
    (fun () ->
      (* Traced runs alternate untraced/traced segments, so host drift
         cancels out of the overhead figure.  Server CPU is summed over
         the untraced segments. *)
      let seg_s = seconds /. float_of_int segments in
      let server_cpu_s = ref 0.0 in
      let runs =
        List.init segments (fun i ->
            let traced = trace && i mod 2 = 1 in
            if i > 0 then for _ = 1 to setup_rounds_between do spare_setup () done;
            let cpu0 = Measure.proc_cpu_s server.pid in
            let samples, window_ns = closed_loop ~port:server.port ~requests ~seconds:seg_s ~traced in
            if not traced then server_cpu_s := !server_cpu_s +. Measure.proc_cpu_s server.pid -. cpu0;
            (traced, samples, window_ns))
      in
      let server_cpu_s = !server_cpu_s in
      let setup_s = Measure.median (Measure.Samples.to_array setups) in
      let peak_rss_mb = Measure.peak_rss_mb (string_of_int server.pid) in
      let pick t = List.filter (fun (tr, _, _) -> tr = t) runs in
      let ops_per_s l =
        let ops = List.fold_left (fun acc (_, s, _) -> acc + List.length s) 0 l in
        let ns = List.fold_left (fun acc (_, _, w) -> acc + w) 0 l in
        float_of_int ops /. (float_of_int ns /. 1e9)
      in
      let untraced = pick false in
      let untraced_samples = List.concat_map (fun (_, s, _) -> s) untraced in
      let all_samples = List.concat_map (fun (_, s, _) -> s) runs in
      let lat_ms samples =
        Array.of_list (List.map (fun (s : sample) -> float_of_int s.latency_ns /. 1e6) samples)
      in
      let seg_median f = Measure.median (Array.of_list (List.map f untraced)) in
      (* References: once per distinct request, after the windows. *)
      let refs = Array.map reference requests in
      let checked = List.map (fun s -> (s, check_sample requests refs s)) all_samples in
      let failed = ref 0 and unexpected = ref 0 and first_error = ref None in
      List.iter
        (fun ((s : sample), c) ->
          match c.check with
          | Ok () -> ()
          | Error e ->
              incr failed;
              if not requests.(s.idx).exact then begin
                incr unexpected;
                if !first_error = None then first_error := Some e
              end)
        checked;
      let traced_checked =
        List.concat_map
          (fun (_, samples, _) -> List.map (fun s -> (s, check_sample requests refs s)) samples)
          (pick true)
      in
      let overhead_pct, serve =
        if not trace then (0.0, [])
        else begin
          let base = ops_per_s untraced and traced = ops_per_s (pick true) in
          let lat = Array.of_list (List.map (fun ((s : sample), _) -> float_of_int s.latency_ns /. 1e6) traced_checked) in
          let qw = Array.of_list (List.map (fun (_, c) -> c.queue_wait_ns /. 1e6) traced_checked) in
          let rn = Array.of_list (List.map (fun (_, c) -> c.run_ns /. 1e6) traced_checked) in
          let unexplained =
            Array.of_list
              (List.map
                 (fun ((s : sample), c) -> (float_of_int s.latency_ns -. c.queue_wait_ns -. c.run_ns) /. 1e6)
                 traced_checked)
          in
          let bytes = List.fold_left (fun acc ((s : sample), _) -> acc + String.length s.body) 0 traced_checked in
          let retries = List.fold_left (fun acc (s : sample) -> acc + s.retries) 0 all_samples in
          ( 100.0 *. (base -. traced) /. base,
            [
              ("latency_ms_p50", Measure.median lat);
              ("queue_wait_ms_p50", Measure.median qw);
              ("run_ms_p50", Measure.median rn);
              ("unexplained_ms_p50", Measure.median unexplained);
              ("response_bytes_per_op", float_of_int bytes /. float_of_int (Array.length lat));
              ("retries_429", float_of_int retries);
            ] )
        end
      in
      {
        attempted = List.length all_samples;
        failed = !failed;
        correct = !unexpected = 0;
        first_error = !first_error;
        setup_s;
        ops_per_s = ops_per_s untraced;
        p50_ms = Measure.median (lat_ms untraced_samples);
        p99_ms = seg_median (fun (_, samples, _) -> Measure.percentile ~p:99.0 (lat_ms samples));
        cpu_ms_per_op = 1000.0 *. server_cpu_s /. float_of_int (List.length untraced_samples);
        peak_rss_mb;
        overhead_pct;
        serve;
        repeat_share =
          (let distinct = Hashtbl.create 64 in
           Array.iter (fun (r : request) -> Hashtbl.replace distinct (Qasm.to_string r.circuit) ()) requests;
           let n = List.length all_samples in
           float_of_int (n - Hashtbl.length distinct) /. float_of_int n);
      })
