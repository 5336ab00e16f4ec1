(* Measurement primitives shared by the workloads: exact percentiles over
   raw samples, process CPU/RSS readers, and the benchmark's own span
   recorder for traced runs. *)

let now_ns = Qdt.Obs.Clock.now_ns

(* ------------------------------------------------------------------ *)
(* Samples and statistics                                              *)
(* ------------------------------------------------------------------ *)

(* A growable float buffer: per-operation samples are recorded raw so
   percentiles are exact, never read off a bucketed histogram. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it.  [p] in (0, 100]. *)
let percentile ~p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "percentile: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "percentile: p outside (0, 100]";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 1 rank - 1)

let median samples = percentile ~p:50.0 samples

let mean samples =
  if Array.length samples = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(* ------------------------------------------------------------------ *)
(* Process readers                                                     *)
(* ------------------------------------------------------------------ *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* procfs files report length 0; read them line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set size ([VmHWM]) of process [pid] in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines path)
  with
  | None -> failwith ("no VmHWM in " ^ path)
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)

(* CPU seconds (user + system) of another process, from
   [/proc/<pid>/stat] fields 14 and 15 (clock ticks). *)
let clock_ticks_per_s = 100.0

let proc_cpu_s pid =
  let line = List.hd (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  (* The command name (field 2) may contain spaces; fields resume after
     the last ')'. *)
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3, so fields 14/15 sit at offsets 11/12. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clock_ticks_per_s

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own spans around each call into a layer.  Kept in
   memory while the run lasts and written out at its end.  Spans nest
   through an explicit stack; the serve-small client threads record
   flat spans under a mutex. *)
module Trace = struct
  type span = { id : int; parent : int; name : string; start_ns : int; end_ns : int }

  let enabled = ref false
  let spans : span list ref = ref []
  let next_id = ref 0
  let stack : int list ref = ref []
  let lock = Mutex.create ()

  let record ~parent name start_ns end_ns =
    Mutex.lock lock;
    let id = !next_id in
    incr next_id;
    spans := { id; parent; name; start_ns; end_ns } :: !spans;
    Mutex.unlock lock

  (* [span name f] — run [f] inside a span when tracing is on.  The id is
     taken up front so children can name their parent. *)
  let span name f =
    if not !enabled then f ()
    else begin
      Mutex.lock lock;
      let id = !next_id in
      incr next_id;
      Mutex.unlock lock;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now_ns () in
      let finish () =
        let t1 = now_ns () in
        stack := List.tl !stack;
        Mutex.lock lock;
        spans := { id; parent; name; start_ns = t0; end_ns = t1 } :: !spans;
        Mutex.unlock lock
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let all () = List.rev !spans

  let clear () =
    spans := [];
    next_id := 0

  (* Per-name count, total and self time (total minus the time covered by
     direct children). *)
  let table () =
    let all = all () in
    let child_ns = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child_ns s.parent
            ((s.end_ns - s.start_ns)
            + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
      all;
    let rows = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let dur = s.end_ns - s.start_ns in
        let self = dur - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
        let c, tot, sf = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt rows s.name) in
        Hashtbl.replace rows s.name (c + 1, tot + dur, sf + self))
      all;
    Hashtbl.fold (fun name (c, tot, sf) acc -> (name, c, tot, sf) :: acc) rows []
    |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

  let print_table () =
    Printf.printf "%-34s %9s %12s %12s\n" "span" "count" "total_ms" "self_ms";
    List.iter
      (fun (name, c, tot, sf) ->
        Printf.printf "%-34s %9d %12.3f %12.3f\n" name c (float_of_int tot /. 1e6)
          (float_of_int sf /. 1e6))
      (table ())

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start_ns\": %d, \"end_ns\": %d}\n"
          s.id s.parent s.name s.start_ns s.end_ns)
      (all ());
    close_out oc
end
