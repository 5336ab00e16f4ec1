(* The QDT benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--qdt PATH]
     main.exe --selftest
     main.exe --setup NAME

   NAME is serve-small, sim-batch, design-flow, or all.  [--setup] is
   one timed set-up round of an in-process workload in a fresh process;
   the run starts it itself.  The last line of
   standard output is one JSON object: correct, attempted, failed and the
   metrics (end-to-end with --trace 0, per-layer with --trace 1). *)

let workloads = [ "serve-small"; "sim-batch"; "design-flow" ]

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "metric value %f is not a number" v)

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_float x.value)
           x.unit_)
       ms)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)
(* ------------------------------------------------------------------ *)

type summary = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
}

let end_to_end ~setup_s ~ops_per_s ~p50_ms ~p99_ms ~cpu_ms_per_op ~peak_rss_mb =
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "ops/s" ops_per_s;
    m "latency_p50_ms" "ms" p50_ms;
    m "latency_p99_ms" "ms" p99_ms;
    m "cpu_ms_per_op" "ms" cpu_ms_per_op;
    m "peak_rss_mb" "MB" peak_rss_mb;
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* Span totals (ms) and counts by name, over the traced passes. *)
let span_stats name =
  List.fold_left
    (fun (c, t) (n, count, total, _) -> if n = name then (c + count, t + total) else (c, t))
    (0, 0) (Measure.Trace.table ())

let span_ms_per_op name =
  let c, t = span_stats name in
  if c = 0 then 0.0 else float_of_int t /. 1e6 /. float_of_int c

let span_total_s name = float_of_int (snd (span_stats name)) /. 1e9

(* Layer metric declarations: name, unit, and how to read it.  A layer a
   workload does not call reads 0 on that workload. *)
let per_layer ~overhead_pct ~serve =
  let l = Layers.sum and r = Layers.ratio in
  [
    m "serve.queue_wait_ms_p50" "ms" (List.assoc "queue_wait_ms_p50" serve);
    m "serve.run_ms_p50" "ms" (List.assoc "run_ms_p50" serve);
    m "serve.unexplained_ms_p50" "ms" (List.assoc "unexplained_ms_p50" serve);
    m "serve.response_bytes_per_op" "bytes" (List.assoc "response_bytes_per_op" serve);
    m "serve.retries_429" "count" (List.assoc "retries_429" serve);
    m "protocol.decode_us_per_op" "us" (1000.0 *. span_ms_per_op "protocol.decode");
    m "protocol.encode_us_per_op" "us" (1000.0 *. span_ms_per_op "protocol.encode");
    m "circuit.qasm_parse_us_per_op" "us" (1000.0 *. span_ms_per_op "circuit.qasm_parse");
    m "circuit.qasm_bytes_per_s" "bytes/s"
      (r (l "circuit.qasm_bytes") (span_total_s "circuit.qasm_parse"));
    m "core.warm_submit_us_per_op" "us" (1000.0 *. Layers.ratio (l "core.warm_submit_ms") (l "core.warm_submits"));
    m "core.cold_session_us_per_op" "us" (1000.0 *. span_ms_per_op "core.cold_session");
    m "auto.route_us_per_op" "us" (1000.0 *. span_ms_per_op "auto.route");
    m "arrays.gates_per_s" "gates/s" (r (l "arrays.gates") (span_total_s "arrays.submit"));
    m "arrays.computed_bytes_per_gate" "bytes" (r (l "arrays.computed_bytes") (l "arrays.gates"));
    m "arrays.minor_words_per_gate" "words" (r (l "arrays.minor_words") (l "arrays.gates"));
    m "dd.submit_ms_per_op" "ms" (span_ms_per_op "dd.submit");
    m "dd.peak_nodes_mean" "nodes" (r (l "dd.peak_nodes") (l "dd.ops"));
    m "dd.unique_hit_rate" "ratio" (r (l "dd.unique_hit_rate") (l "dd.ops"));
    m "dd.compute_hit_rate" "ratio" (r (l "dd.compute_hit_rate") (l "dd.ops"));
    m "dd.gc_runs" "count/pass" (r (l "dd.gc_runs") (l "passes"));
    m "mps.submit_ms_per_op" "ms" (span_ms_per_op "mps.submit");
    m "mps.max_bond_dim" "count" (Layers.peak "mps.max_bond_dim");
    m "tn.submit_ms_per_op" "ms" (span_ms_per_op "tn.submit");
    m "stabilizer.submit_ms_per_op" "ms" (span_ms_per_op "stabilizer.submit");
    m "stabilizer.tableau_bytes" "bytes" (r (l "stabilizer.tableau_bytes") (l "stabilizer.tableau_ops"));
    m "compile.lower_ms_per_op" "ms" (span_ms_per_op "compile.lower");
    m "compile.route_ms_per_op" "ms" (span_ms_per_op "compile.route");
    m "compile.optimize_ms_per_op" "ms" (span_ms_per_op "compile.optimize");
    m "compile.swaps_added_per_op" "count" (r (l "compile.swaps_added") (l "compile.ops"));
    m "compile.out_2q_gates_per_op" "count" (r (l "compile.out_2q_gates") (l "compile.ops"));
    m "zx.optimize_ms_per_op" "ms" (span_ms_per_op "zx.optimize");
    m "zx.t_count_out_per_op" "count" (r (l "zx.t_count_out") (l "zx.ops"));
    m "verify.dd_alternating_ms_per_op" "ms" (span_ms_per_op "verify.dd_alternating");
    m "verify.zx_ms_per_op" "ms" (span_ms_per_op "verify.zx");
    m "verify.dd_peak_nodes_mean" "nodes" (r (l "verify.dd_peak_nodes") (l "verify.dd_probes"));
    m "obs.trace_overhead_pct" "%" overhead_pct;
    m "heap.minor_mw_per_op" "Mwords" (r (l "heap.minor_words" /. 1e6) (l "heap.ops"));
  ]

let no_serve =
  [
    ("queue_wait_ms_p50", 0.0);
    ("run_ms_p50", 0.0);
    ("unexplained_ms_p50", 0.0);
    ("response_bytes_per_op", 0.0);
    ("retries_429", 0.0);
  ]

(* ------------------------------------------------------------------ *)
(* Workload runs                                                       *)
(* ------------------------------------------------------------------ *)

let trace_path workload seed =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed)


let inproc_summary ~name ~trace ~probe (o : Inproc.outcome) ~seed =
  (match o.first_error with Some e -> Printf.printf "check failed: %s\n" e | None -> ());
  Printf.printf "%s: %.4f of operations repeat an earlier circuit\n" name o.repeat_share;
  let n_untraced = Array.length o.latencies_ms in
  let per_layer =
    if not trace then []
    else begin
      probe ();
      let base = o.ops_per_s and traced = o.traced_ops_per_s in
      let overhead = 100.0 *. (base -. traced) /. base in
      Printf.printf "traced run of %s: %.2f ops/s traced, %.2f ops/s untraced\n"
        name traced base;
      Printf.printf "obs.trace_overhead_pct = %.3f%% of the untraced %.2f ops/s\n" overhead base;
      Measure.Trace.print_table ();
      let path = trace_path name seed in
      Measure.Trace.write path;
      Printf.printf "trace written to %s\n" path;
      per_layer ~overhead_pct:overhead ~serve:no_serve
    end
  in
  {
    correct = o.correct;
    attempted = o.attempted;
    failed = o.failed;
    end_to_end =
      end_to_end ~setup_s:o.setup_s ~ops_per_s:o.ops_per_s
        ~p50_ms:(Measure.percentile ~p:50.0 o.latencies_ms)
        ~p99_ms:(Measure.percentile ~p:99.0 o.latencies_ms)
        ~cpu_ms_per_op:(1000.0 *. o.cpu_s /. float_of_int n_untraced)
        ~peak_rss_mb:o.peak_rss_mb;
    per_layer;
  }

let replay_passes = 20

(* Outside-in stage table for a served request: client latency against
   the server-reported queue wait and run time and the in-process replay
   of decode, QASM parse and encode. *)
let print_stage_table serve =
  let lat = List.assoc "latency_ms_p50" serve in
  let stages =
    [
      ("queue_wait (server)", List.assoc "queue_wait_ms_p50" serve);
      ("run (server)", List.assoc "run_ms_p50" serve);
      ("decode (replay)", span_ms_per_op "protocol.decode");
      ("qasm_parse (replay)", span_ms_per_op "circuit.qasm_parse");
      ("encode (replay)", span_ms_per_op "protocol.encode");
    ]
  in
  Printf.printf "served-request stages (p50 server figures, replay means), client latency p50 %.4f ms\n" lat;
  List.iter (fun (n, v) -> Printf.printf "  %-22s %10.4f ms %6.1f%%\n" n v (100.0 *. v /. lat)) stages;
  let covered = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 stages in
  Printf.printf "  %-22s %10.4f ms %6.1f%%\n" "unexplained" (lat -. covered)
    (100.0 *. (lat -. covered) /. lat)

let serve_summary ~trace ~seed (o : Serve_small.outcome) =
  (match o.first_error with Some e -> Printf.printf "check failed: %s\n" e | None -> ());
  Printf.printf "serve-small: %.4f of requests repeat an earlier circuit\n" o.repeat_share;
  let per_layer =
    if not trace then []
    else begin
      Serve_small.replay (Serve_small.gen_requests ~seed) ~passes:replay_passes;
      Printf.printf "obs.trace_overhead_pct = %.3f%% of the untraced %.2f ops/s\n" o.overhead_pct
        o.ops_per_s;
      Measure.Trace.print_table ();
      print_stage_table o.serve;
      let path = trace_path "serve-small" seed in
      Measure.Trace.write path;
      Printf.printf "trace written to %s\n" path;
      per_layer ~overhead_pct:o.overhead_pct ~serve:o.serve
    end
  in
  {
    correct = o.correct;
    attempted = o.attempted;
    failed = o.failed;
    end_to_end =
      end_to_end ~setup_s:o.setup_s ~ops_per_s:o.ops_per_s ~p50_ms:o.p50_ms ~p99_ms:o.p99_ms
        ~cpu_ms_per_op:o.cpu_ms_per_op ~peak_rss_mb:o.peak_rss_mb;
    per_layer;
  }

let run_workload ~qdt ~seed ~seconds ~trace name =
  (* per-layer figures of one workload must not include another's *)
  Measure.Trace.clear ();
  Layers.clear ();
  match name with
  | "sim-batch" ->
      let o = Inproc.run Sim_batch.workload ~seed ~seconds ~trace in
      inproc_summary ~name ~trace ~probe:Sim_batch.probe o ~seed
  | "design-flow" ->
      let o = Inproc.run Design_flow.workload ~seed ~seconds ~trace in
      inproc_summary ~name ~trace ~probe:Design_flow.probe o ~seed
  | "serve-small" ->
      let o = Serve_small.run ~qdt ~seed ~seconds ~trace in
      serve_summary ~trace ~seed o
  | _ -> failwith ("unknown workload " ^ name)

let print_summary name s =
  Printf.printf "== %s: attempted %d, failed %d, correct %b\n" name s.attempted s.failed s.correct;
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.name x.value x.unit_)
    (s.end_to_end @ s.per_layer)

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-small|sim-batch|design-flow|all --seed N --seconds S \
     --trace 0|1 [--qdt PATH]\n       main.exe --selftest\n       main.exe --setup sim-batch|design-flow";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--selftest" :: rest -> parse (("selftest", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  if get "selftest" <> None then exit (Selftest.run ())
  else if get "setup" = Some Sim_batch.workload.name then Inproc.setup_child Sim_batch.workload
  else if get "setup" = Some Design_flow.workload.name then Inproc.setup_child Design_flow.workload
  else begin
    let workload = Option.value ~default:"" (get "workload") in
    let int_opt k = match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage () in
    let seed = int_opt "seed" and seconds = int_opt "seconds" and trace = int_opt "trace" in
    if seconds <= 0 || (trace <> 0 && trace <> 1) then usage ();
    let qdt = Option.value ~default:"_build/default/bin/qdt_cli.exe" (get "qdt") in
    let names =
      if workload = "all" then workloads
      else if List.mem workload workloads then [ workload ]
      else usage ()
    in
    let results =
      List.map
        (fun name ->
          let s =
            run_workload ~qdt ~seed ~seconds:(float_of_int seconds) ~trace:(trace = 1) name
          in
          print_summary name s;
          s)
        names
    in
    let correct = List.for_all (fun s -> s.correct) results in
    let attempted = List.fold_left (fun acc s -> acc + s.attempted) 0 results in
    let failed = List.fold_left (fun acc s -> acc + s.failed) 0 results in
    (* With several workloads the metrics of the last one are printed; run
       one workload per invocation to compare runs. *)
    let last = List.nth results (List.length results - 1) in
    let ms = if trace = 1 then last.per_layer else last.end_to_end in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      correct attempted failed (metrics_json ms)
  end
