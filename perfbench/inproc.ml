(* The in-process runner shared by sim-batch and design-flow.

   A run is a number of whole passes.  Pass [p] is generated from the
   workload seed and [p] before it is timed, so no circuit repeats within
   a run while every pass has the same make-up.  An operation's [run]
   does the timed work and returns [finish]; [finish] (untimed) records
   the per-layer counters, reduces the raw result to what its check needs
   and returns the check.  The checks of a pass run in a forked child
   ([check_pass]): their reference computations never touch this
   process's memory, and nothing of a pass outlives it, so the peak RSS
   read at the end is the engines' own and does not grow with the number
   of passes. *)

type 'ctx op = {
  cls : string;  (** job class: family, size band and backend *)
  key : string;  (** distinct (backend, job kind) — one warm-up each *)
  input : string;  (** the circuit text, to measure how often one repeats *)
  run : 'ctx -> unit -> unit -> unit -> Refcheck.verdict;
}

type 'ctx workload = {
  name : string;  (** the workload name, as [main.exe --setup] takes it *)
  create : unit -> 'ctx;  (** open sessions *)
  close : 'ctx -> unit;
  gen_pass : seed:int -> pass:int -> 'ctx op array;
}

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  first_error : string option;
  setup_s : float;
  latencies_ms : float array;  (** untraced passes *)
  ops_per_s : float;  (** untraced operations over the untraced passes' time *)
  traced_ops_per_s : float;  (** the same over the traced passes; 0 untraced *)
  cpu_s : float;  (** process CPU time over the untraced passes *)
  peak_rss_mb : float;
  repeat_share : float;  (** share of operations whose circuit text repeats an earlier one *)
}

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* One set-up: open the sessions, then one warm-up operation per distinct
   (backend, job kind). *)
let setup w warmups =
  let ctx = w.create () in
  List.iter (fun op -> ignore (op.run ctx () : unit -> unit -> Refcheck.verdict)) warmups;
  ctx

(* Warm-up operations come from a fixed seed, so set-up does the same
   work whatever the run seed. *)
let warmup_ops w =
  let seen = Hashtbl.create 16 in
  Array.fold_left
    (fun acc op ->
      if Hashtbl.mem seen op.key then acc
      else begin
        Hashtbl.add seen op.key ();
        op :: acc
      end)
    [] (w.gen_pass ~seed:0 ~pass:(-1))
  |> List.rev

(* [setup_child w] is [main.exe --setup NAME]: a fresh process that sets
   up once and prints [ready G], G being the nanoseconds it spent
   generating its warm-up circuits. *)
let setup_child w =
  let t0 = Measure.now_ns () in
  let warmups = warmup_ops w in
  let gen_ns = Measure.now_ns () - t0 in
  let ctx = setup w warmups in
  Printf.printf "ready %d\n%!" gen_ns;
  w.close ctx

(* [cold_setup_s w] — seconds from starting [main.exe --setup] until it
   is ready, less its input generation: set-up as a new process pays it,
   first-use costs included. *)
let cold_setup_s w =
  let exe = Sys.executable_name in
  let r, wr = Unix.pipe ~cloexec:true () in
  let t0 = Measure.now_ns () in
  let pid = Unix.create_process exe [| exe; "--setup"; w.name |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = Measure.now_ns () in
  close_in ic;
  match (snd (Unix.waitpid [] pid), Scanf.sscanf_opt line "ready %d%!" Fun.id) with
  | Unix.WEXITED 0, Some gen_ns -> float_of_int (t1 - t0 - gen_ns) /. 1e9
  | _ -> failwith ("set-up process of " ^ w.name ^ " failed")

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* [check_pass checks] runs one pass's checks in a forked child and
   returns how many failed and the first error. *)
let check_pass checks =
  flush_all ();
  let r, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let failed = ref 0 and first = ref "" in
      Array.iter
        (fun (cls, check) ->
          match try check () with e -> Error (Printexc.to_string e) with
          | Ok () -> ()
          | Error e ->
              incr failed;
              if !first = "" then
                first := cls ^ ": " ^ String.map (function '\n' -> ' ' | c -> c) e)
        checks;
      let oc = Unix.out_channel_of_descr wr in
      Printf.fprintf oc "%d\n%s\n" !failed !first;
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr r in
      let reply =
        try
          let failed = int_of_string (input_line ic) in
          Some (failed, input_line ic)
        with End_of_file | Failure _ -> None
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match reply with
      | Some (failed, "") -> (failed, None)
      | Some (failed, first) -> (failed, Some first)
      | None -> failwith "check process ended without a reply")

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* Set-up is timed in a fresh process once before the first pass and
   again after every [setup_every]-th pass; spreading the rounds over the
   run keeps a burst of host contention from setting the median. *)
let setup_every = 4

(* [run w ~seed ~seconds ~trace] — passes run until their own time adds
   up to [seconds]; set-up rounds and checks come between passes and are
   not counted.  With [trace] the passes alternate untraced/traced (an
   even count), so traced and untraced throughput come from interleaved
   passes and host drift cancels out of the overhead figure.  End-to-end
   figures use the untraced passes only.  Throughput is their operations
   over their summed time, not a median of per-pass rates: the host's
   speed switches between two levels about 1.5x apart for seconds at a
   time, so pass rates are bimodal and their median jumps from one level
   to the other as the share of slow time crosses one half, where a
   total moves in proportion to that share. *)
let rate ops ns = if ns = 0 then 0.0 else float_of_int ops /. (float_of_int ns /. 1e9)

let run w ~seed ~seconds ~trace =
  let setups = Measure.Samples.create () in
  Measure.Samples.add setups (cold_setup_s w);
  let ctx = setup w (warmup_ops w) in
  let lat = Measure.Samples.create () in
  let cpu = ref 0.0 in
  let done_ops = ref 0 and done_ns = ref 0 and traced_ops = ref 0 and traced_ns = ref 0 in
  let attempted = ref 0 and failed = ref 0 and first_error = ref None in
  let seen = Hashtbl.create 4096 and repeats = ref 0 in
  let measured_ns = ref 0 in
  let pass = ref 0 in
  let continue_ () =
    float_of_int !measured_ns /. 1e9 < seconds || (trace && !pass mod 2 = 1)
  in
  while continue_ () do
    let ops = w.gen_pass ~seed ~pass:!pass in
    let traced = trace && !pass mod 2 = 1 in
    Measure.Trace.enabled := traced;
    let finishes = Array.make (Array.length ops) (fun () () -> Ok ()) in
    let c0 = Measure.cpu_s () in
    let t_pass = Measure.now_ns () in
    Array.iteri
      (fun i op ->
        let t0 = Measure.now_ns () in
        let fin = Measure.Trace.span "op" (fun () -> op.run ctx ()) in
        let dt = Measure.now_ns () - t0 in
        finishes.(i) <- fin;
        if not traced then Measure.Samples.add lat (float_of_int dt /. 1e6))
      ops;
    let pass_ns = Measure.now_ns () - t_pass in
    let pass_cpu = Measure.cpu_s () -. c0 in
    Measure.Trace.enabled := false;
    measured_ns := !measured_ns + pass_ns;
    if traced then begin
      traced_ops := !traced_ops + Array.length ops;
      traced_ns := !traced_ns + pass_ns;
      Layers.add "passes" 1.0
    end
    else begin
      done_ops := !done_ops + Array.length ops;
      done_ns := !done_ns + pass_ns;
      cpu := !cpu +. pass_cpu
    end;
    attempted := !attempted + Array.length ops;
    Array.iter
      (fun op ->
        let d = Digest.string op.input in
        if Hashtbl.mem seen d then incr repeats else Hashtbl.add seen d ())
      ops;
    let f, e = check_pass (Array.mapi (fun i op -> (op.cls, finishes.(i) ())) ops) in
    failed := !failed + f;
    if !first_error = None then first_error := e;
    if (!pass + 1) mod setup_every = 0 then Measure.Samples.add setups (cold_setup_s w);
    incr pass
  done;
  let peak_rss_mb = Measure.peak_rss_mb "self" in
  w.close ctx;
  {
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0;
    first_error = !first_error;
    setup_s = Measure.median (Measure.Samples.to_array setups);
    latencies_ms = Measure.Samples.to_array lat;
    ops_per_s = rate !done_ops !done_ns;
    traced_ops_per_s = rate !traced_ops !traced_ns;
    cpu_s = !cpu;
    peak_rss_mb;
    repeat_share = float_of_int !repeats /. float_of_int !attempted;
  }
