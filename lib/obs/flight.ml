(* Bounded flight recorder: a ring buffer of the most recent
   instrumentation events (span open/close, counter deltas, round
   charges, free-form marks), dumped as a self-contained JSON
   post-mortem when something dies mid-pipeline.

   The recorder sits *under* Obs: [Obs.span]/[Obs.time]/[Obs.count]/
   [Obs.add]/[Obs.record_rounds] forward into the [on_*] hooks below
   from inside their enabled paths, so recording requires
   [Obs.set_enabled true] and costs nothing when either switch is off
   (one load).
   [Engine.run], the chaos [Harness], and [forestd] call [mark] at
   interesting boundaries (checkpoints, pass failures, epoch verdicts)
   and [trigger] when a run must be explained after the fact.

   The process holds one ring, like Obs holds one trace, and the dump
   carries it as one "ring" object. *)

let now () = Monotonic_clock.now ()

type event =
  | Span_open of { t_ns : int64; name : string }
  | Span_close of { t_ns : int64; name : string; dur_ns : int64; rounds : int }
  | Counter of { t_ns : int64; name : string; delta : int }
  | Charge of { t_ns : int64; label : string; rounds : int }
  | Mark of { t_ns : int64; name : string; fields : (string * string) list }

let event_t_ns = function
  | Span_open { t_ns; _ }
  | Span_close { t_ns; _ }
  | Counter { t_ns; _ }
  | Charge { t_ns; _ }
  | Mark { t_ns; _ } ->
      t_ns

(* ------------------------------------------------------------------ *)
(* switches and configuration                                          *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let default_capacity = 512
let capacity = ref default_capacity

let configure ?capacity:(c = default_capacity) () =
  if c < 1 then invalid_arg "Flight.configure: capacity must be >= 1";
  capacity := c

(* ------------------------------------------------------------------ *)
(* the ring                                                            *)

type ring = {
  ring_tid : int;
  events : event option array; (* fixed capacity, circular *)
  mutable written : int; (* total appends; head slot = written mod cap *)
}

(* created at the configured capacity by the first append after start
   or [reset] *)
let ring : ring option ref = ref None

let last_marks : (string, int64 * (string * string) list) Hashtbl.t =
  Hashtbl.create 8

let my_ring () =
  match !ring with
  | Some r -> r
  | None ->
      let r =
        {
          ring_tid = (Domain.self () :> int);
          events = Array.make !capacity None;
          written = 0;
        }
      in
      ring := Some r;
      r

let append ev =
  let r = my_ring () in
  let cap = Array.length r.events in
  r.events.(r.written mod cap) <- Some ev;
  r.written <- r.written + 1

(* ------------------------------------------------------------------ *)
(* recording entry points                                              *)

let on_span_open ~t_ns name =
  if !enabled_flag then append (Span_open { t_ns; name })

let on_span_close ~t_ns ~dur_ns ~rounds name =
  if !enabled_flag then
    append (Span_close { t_ns; name; dur_ns; rounds })

let on_counter ~name ~delta =
  if !enabled_flag then
    append (Counter { t_ns = now (); name; delta })

let on_charge ~label ~rounds =
  if rounds > 0 && !enabled_flag then
    append (Charge { t_ns = now (); label; rounds })

let mark name fields =
  if !enabled_flag then begin
    let t_ns = now () in
    append (Mark { t_ns; name; fields });
    Hashtbl.replace last_marks name (t_ns, fields)
  end

let last_mark name =
  Option.map (fun (_, fields) -> fields) (Hashtbl.find_opt last_marks name)

(* ------------------------------------------------------------------ *)
(* dump rendering (schema nw-flight/2)                                 *)

let ring_events r =
  let cap = Array.length r.events in
  let w = r.written in
  let len = if w < cap then w else cap in
  let start = if w < cap then 0 else w mod cap in
  List.init len (fun i -> r.events.((start + i) mod cap))
  |> List.filter_map Fun.id

let events_dropped r =
  let cap = Array.length r.events in
  if r.written > cap then r.written - cap else 0

type snapshot = {
  snap_ring : int * int * event list; (* tid, dropped, events *)
  snap_marks : (string * (int64 * (string * string) list)) list;
}

let snapshot () =
  {
    snap_ring =
      (match !ring with
      | None -> ((Domain.self () :> int), 0, [])
      | Some r -> (r.ring_tid, events_dropped r, ring_events r));
    snap_marks =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) last_marks []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let dump_seq = ref 0

(* relative microseconds keep timestamps small enough for exact float
   JSON round-trips (raw monotonic ns exceed 2^53) *)
let us ~epoch t_ns = Int64.to_float (Int64.sub t_ns epoch) /. 1e3

let render ?(env = []) ~reason b =
  let snap = snapshot () in
  incr dump_seq;
  let seq = !dump_seq in
  let tid, dropped, evs = snap.snap_ring in
  let epoch =
    List.fold_left
      (fun acc ev ->
        let t = event_t_ns ev in
        if Int64.compare t acc < 0 then t else acc)
      (List.fold_left
         (fun acc (_, (t, _)) -> if Int64.compare t acc < 0 then t else acc)
         Int64.max_int snap.snap_marks)
      evs
  in
  let epoch = if epoch = Int64.max_int then 0L else epoch in
  let str = Json_lite.Emit.string in
  let kv_first = ref true in
  let sep () =
    if not !kv_first then Buffer.add_char b ',';
    kv_first := false
  in
  let fields_obj fields =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        str b k;
        Buffer.add_char b ':';
        str b v)
      fields;
    Buffer.add_char b '}'
  in
  let event_json ev =
    (match ev with
    | Span_open { t_ns; name } ->
        Buffer.add_string b "{\"ev\":\"open\",\"t_us\":";
        Buffer.add_string b (Printf.sprintf "%.3f" (us ~epoch t_ns));
        Buffer.add_string b ",\"name\":";
        str b name
    | Span_close { t_ns; name; dur_ns; rounds } ->
        Buffer.add_string b "{\"ev\":\"close\",\"t_us\":";
        Buffer.add_string b (Printf.sprintf "%.3f" (us ~epoch t_ns));
        Buffer.add_string b ",\"name\":";
        str b name;
        Buffer.add_string b
          (Printf.sprintf ",\"dur_us\":%.3f,\"rounds\":%d"
             (Int64.to_float dur_ns /. 1e3)
             rounds)
    | Counter { t_ns; name; delta } ->
        Buffer.add_string b "{\"ev\":\"count\",\"t_us\":";
        Buffer.add_string b (Printf.sprintf "%.3f" (us ~epoch t_ns));
        Buffer.add_string b ",\"name\":";
        str b name;
        Buffer.add_string b (Printf.sprintf ",\"delta\":%d" delta)
    | Charge { t_ns; label; rounds } ->
        Buffer.add_string b "{\"ev\":\"charge\",\"t_us\":";
        Buffer.add_string b (Printf.sprintf "%.3f" (us ~epoch t_ns));
        Buffer.add_string b ",\"label\":";
        str b label;
        Buffer.add_string b (Printf.sprintf ",\"rounds\":%d" rounds)
    | Mark { t_ns; name; fields } ->
        Buffer.add_string b "{\"ev\":\"mark\",\"t_us\":";
        Buffer.add_string b (Printf.sprintf "%.3f" (us ~epoch t_ns));
        Buffer.add_string b ",\"name\":";
        str b name;
        Buffer.add_string b ",\"fields\":";
        fields_obj fields);
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"schema\":\"nw-flight/2\",\"reason\":";
  str b reason;
  Buffer.add_string b (Printf.sprintf ",\"seq\":%d,\"clock\":\"monotonic\"" seq);
  Buffer.add_string b ",\"env\":{";
  kv_first := true;
  List.iter
    (fun (k, v) ->
      sep ();
      str b k;
      Buffer.add_char b ':';
      str b v)
    env;
  Buffer.add_string b "},\"last\":{";
  kv_first := true;
  List.iter
    (fun (name, (t_ns, fields)) ->
      sep ();
      str b name;
      Buffer.add_string b
        (Printf.sprintf ":{\"t_us\":%.3f,\"fields\":" (us ~epoch t_ns));
      fields_obj fields;
      Buffer.add_char b '}')
    snap.snap_marks;
  Buffer.add_string b
    (Printf.sprintf "},\"ring\":{\"tid\":%d,\"dropped\":%d,\"events\":["
       tid dropped);
  List.iteri
    (fun j ev ->
      if j > 0 then Buffer.add_char b ',';
      event_json ev)
    evs;
  Buffer.add_string b "]}}\n"

(* ------------------------------------------------------------------ *)
(* auto-dump sink                                                      *)

type sink = { sink_path : string; sink_env : (string * string) list }

let sink : sink option ref = ref None

let set_sink ?(env = []) path =
  sink := Some { sink_path = path; sink_env = env }

let clear_sink () = sink := None
let sink_path () = Option.map (fun s -> s.sink_path) !sink
let dumps = ref 0
let dumps_written () = !dumps

let trigger ~reason () =
  match !sink with
  | None -> ()
  | Some s -> (
      let b = Buffer.create 8192 in
      render ~env:s.sink_env ~reason b;
      (* the post-mortem path must never mask the failure being
         explained; an unwritable sink loses the dump, nothing else *)
      try
        let oc = open_out s.sink_path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Buffer.output_buffer oc b);
        incr dumps
      with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* test support                                                        *)

let reset () =
  ring := None;
  Hashtbl.reset last_marks;
  dump_seq := 0;
  dumps := 0
