(* Tests for the lib/obs tracing layer: span nesting and phase
   aggregation, round attribution through the Rounds hook, the
   disabled-mode cost contract, well-formedness of the Chrome / JSONL
   exports (parsed back with Json_lite), histogram percentiles, the
   flight recorder and the Prometheus renderer. The metrics socket
   that serves the renderer lives with the daemon (test_service.ml). *)

module Obs = Nw_obs.Obs
module J = Nw_obs.Json_lite
module Flight = Nw_obs.Flight
module Prom = Nw_obs.Prometheus
module Rounds = Nw_localsim.Rounds

(* recording is a process-wide switch: every test restores it so the
   rest of the suite (and the default-off contract) is unaffected *)
let with_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let phase_by_name t name =
  List.find_opt (fun (p : Obs.phase) -> p.Obs.name = name) (Obs.phases t)

(* ------------------------------------------------------------------ *)
(* disabled mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_passthrough () =
  Obs.set_enabled false;
  Alcotest.(check int) "span returns the thunk value" 42
    (Obs.span "x" (fun () -> 41 + 1));
  let (), t =
    Obs.collect (fun () ->
        Obs.span "y" (fun () -> ());
        Obs.count "c";
        Obs.observe "h" 1.0;
        Obs.set_attr "k" (Obs.Int 1))
  in
  Alcotest.(check bool) "trace stays empty when disabled" true
    (Obs.is_empty t)

let test_disabled_no_alloc () =
  Obs.set_enabled false;
  let thunk () = () in
  let v = 1.0 in
  (* warm-up so any one-time setup is out of the measured window *)
  for _ = 1 to 100 do
    Obs.span "hot" thunk;
    Obs.count "c";
    Obs.observe "h" v
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.span "hot" thunk;
    Obs.count "c";
    Obs.observe "h" v
  done;
  let dw = Gc.minor_words () -. w0 in
  (* tolerance covers the boxes of Gc.minor_words itself; 10k disabled
     probes must not allocate per call *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled probes allocate nothing (%.0f words)" dw)
    true (dw < 256.0)

(* ------------------------------------------------------------------ *)
(* spans, nesting, phases                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_enabled @@ fun () ->
  let (), t =
    Obs.collect (fun () ->
        Obs.span "a" (fun () ->
            Obs.span "b" (fun () -> ());
            Obs.span "b" (fun () -> Obs.span "c" (fun () -> ()))))
  in
  Alcotest.(check bool) "trace not empty" false (Obs.is_empty t);
  let names = List.map (fun (p : Obs.phase) -> p.Obs.name) (Obs.phases t) in
  Alcotest.(check (list string))
    "phases in first-seen pre-order" [ "a"; "b"; "c" ] names;
  let a = Option.get (phase_by_name t "a") in
  let b = Option.get (phase_by_name t "b") in
  Alcotest.(check int) "a called once" 1 a.Obs.calls;
  Alcotest.(check int) "b called twice" 2 b.Obs.calls;
  (* self time never exceeds total, and a's total covers its children *)
  Alcotest.(check bool) "self <= total" true
    (Int64.compare a.Obs.self_ns a.Obs.total_ns <= 0);
  Alcotest.(check bool) "root wall = a total" true
    (Int64.equal (Obs.root_wall_ns t) a.Obs.total_ns)

let test_span_exception_closes () =
  with_enabled @@ fun () ->
  let res, t =
    Obs.collect (fun () ->
        try Obs.span "boom" (fun () -> raise Exit) with Exit -> "caught")
  in
  Alcotest.(check string) "exception propagates" "caught" res;
  match phase_by_name t "boom" with
  | Some p -> Alcotest.(check int) "span closed once" 1 p.Obs.calls
  | None -> Alcotest.fail "span lost on exception"

let test_collect_isolation () =
  with_enabled @@ fun () ->
  let inner_ref = ref None in
  let (), outer =
    Obs.collect (fun () ->
        Obs.span "o" (fun () ->
            let (), inner = Obs.collect (fun () -> Obs.span "i" ignore) in
            inner_ref := Some inner))
  in
  let inner = Option.get !inner_ref in
  Alcotest.(check (list string))
    "inner trace sees only its own span" [ "i" ]
    (List.map (fun (p : Obs.phase) -> p.Obs.name) (Obs.phases inner));
  Alcotest.(check (list string))
    "outer trace does not absorb the inner one" [ "o" ]
    (List.map (fun (p : Obs.phase) -> p.Obs.name) (Obs.phases outer))

(* ------------------------------------------------------------------ *)
(* round attribution (the Rounds.charge hook)                          *)
(* ------------------------------------------------------------------ *)

let test_rounds_attribution () =
  with_enabled @@ fun () ->
  let r = Rounds.create () in
  let (), t =
    Obs.collect (fun () ->
        Obs.span "outer" (fun () ->
            Rounds.charge r ~label:"l1" 5;
            Obs.span "inner" (fun () -> Rounds.charge r ~label:"l2" 7));
        Rounds.charge r ~label:"l3" 2)
  in
  Alcotest.(check int) "ledger total" 14 (Rounds.total r);
  Alcotest.(check int) "trace total matches ledger" 14 (Obs.total_rounds t);
  Alcotest.(check int) "outside-span charge is unattributed" 2
    (Obs.unattributed_rounds t);
  let outer = Option.get (phase_by_name t "outer") in
  let inner = Option.get (phase_by_name t "inner") in
  Alcotest.(check int) "outer keeps only its self-rounds" 5 outer.Obs.rounds;
  Alcotest.(check int) "inner rounds" 7 inner.Obs.rounds;
  Alcotest.(check (list (pair string int)))
    "per-label split survives" [ ("l2", 7) ]
    inner.Obs.rounds_by_label;
  (* the BENCH invariant: phase self-rounds + unattributed = flat total *)
  let phase_sum =
    List.fold_left
      (fun acc (p : Obs.phase) -> acc + p.Obs.rounds)
      0 (Obs.phases t)
  in
  Alcotest.(check int) "phases + unattributed = total" (Obs.total_rounds t)
    (phase_sum + Obs.unattributed_rounds t)

(* ------------------------------------------------------------------ *)
(* counters and histograms                                             *)
(* ------------------------------------------------------------------ *)

let test_counters_histograms () =
  with_enabled @@ fun () ->
  let (), t =
    Obs.collect (fun () ->
        Obs.count "c";
        Obs.count "c" ~by:4;
        Obs.observe "h" 1.0;
        Obs.observe "h" 2.0;
        Obs.observe "h" 4.0)
  in
  Alcotest.(check (list (pair string int)))
    "counter sums" [ ("c", 5) ] (Obs.counters t);
  match Obs.histograms t with
  | [ ("h", h) ] ->
      Alcotest.(check int) "count" 3 h.Obs.count;
      Alcotest.(check (float 1e-9)) "sum" 7.0 h.Obs.sum;
      Alcotest.(check (float 1e-9)) "min" 1.0 h.Obs.min;
      Alcotest.(check (float 1e-9)) "max" 4.0 h.Obs.max;
      Alcotest.(check int) "buckets cover every observation" 3
        (List.fold_left (fun acc (_, c) -> acc + c) 0 h.Obs.buckets)
  | other ->
      Alcotest.failf "expected one histogram, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* exports                                                             *)
(* ------------------------------------------------------------------ *)

let sample_trace () =
  let r = Rounds.create () in
  let (), t =
    Obs.collect (fun () ->
        Obs.span "root" ~attrs:[ ("k", Obs.Str "v") ] (fun () ->
            Obs.span "child" (fun () -> Rounds.charge r ~label:"lbl" 3);
            Obs.set_attr "colors_used" (Obs.Int 7));
        Obs.count "msgs" ~by:2;
        Obs.observe "len" 5.0)
  in
  t

let test_chrome_export_wellformed () =
  with_enabled @@ fun () ->
  let t = sample_trace () in
  let b = Buffer.create 1024 in
  Obs.Export.chrome b [ t ];
  let json = J.parse (Buffer.contents b) in
  let events =
    match Option.bind (J.member "traceEvents" json) J.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "missing traceEvents"
  in
  Alcotest.(check int) "one event per span" 2 (List.length events);
  List.iter
    (fun ev ->
      (match Option.bind (J.member "ph" ev) J.to_string with
      | Some "X" -> ()
      | _ -> Alcotest.fail "not a complete event");
      (match Option.bind (J.member "name" ev) J.to_string with
      | Some ("root" | "child") -> ()
      | _ -> Alcotest.fail "unexpected event name");
      match
        ( Option.bind (J.member "ts" ev) J.to_float,
          Option.bind (J.member "dur" ev) J.to_float )
      with
      | Some ts, Some dur ->
          Alcotest.(check bool) "ts/dur nonnegative" true
            (ts >= 0.0 && dur >= 0.0)
      | _ -> Alcotest.fail "missing ts/dur")
    events;
  (* attributes and rounds surface under args *)
  let root =
    List.find
      (fun ev ->
        Option.bind (J.member "name" ev) J.to_string = Some "root")
      events
  in
  let args = Option.get (J.member "args" root) in
  Alcotest.(check (option string)) "attr exported" (Some "v")
    (Option.bind (J.member "k" args) J.to_string);
  Alcotest.(check (option int)) "late attr exported" (Some 7)
    (Option.bind (J.member "colors_used" args) J.to_int);
  let child =
    List.find
      (fun ev ->
        Option.bind (J.member "name" ev) J.to_string = Some "child")
      events
  in
  let cargs = Option.get (J.member "args" child) in
  Alcotest.(check (option int)) "self-rounds exported" (Some 3)
    (Option.bind (J.member "rounds_self" cargs) J.to_int)

let test_jsonl_export_wellformed () =
  with_enabled @@ fun () ->
  let t = sample_trace () in
  let b = Buffer.create 1024 in
  Obs.Export.jsonl b [ t ];
  let lines =
    String.split_on_char '\n' (Buffer.contents b)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "several events" true (List.length lines >= 4);
  let kinds =
    List.map
      (fun line ->
        let json = J.parse line in
        match Option.bind (J.member "type" json) J.to_string with
        | Some k -> k
        | None -> Alcotest.fail "jsonl line without a type")
      lines
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "kind %s present" k)
        true (List.mem k kinds))
    [ "span"; "counter"; "histogram" ]

(* ------------------------------------------------------------------ *)
(* escaping: hostile strings through the shared JSON emitter           *)
(* ------------------------------------------------------------------ *)

let hostile = "q\"uote\\back\nnl\ttab\rcr\001ctl{}[]"

let test_emit_roundtrip () =
  List.iter
    (fun s ->
      match J.parse (J.Emit.string_value s) with
      | J.String s' -> Alcotest.(check string) "round-trips" s s'
      | _ -> Alcotest.fail "emitted string did not parse as a string")
    [ hostile; ""; "plain"; String.init 32 Char.chr ]

let test_chrome_escaping_roundtrip () =
  with_enabled @@ fun () ->
  let (), t =
    Obs.collect (fun () ->
        Obs.span hostile ~attrs:[ ("k", Obs.Str hostile) ] (fun () -> ()))
  in
  let b = Buffer.create 256 in
  Obs.Export.chrome b [ t ];
  let json = J.parse (Buffer.contents b) in
  let events =
    Option.get (Option.bind (J.member "traceEvents" json) J.to_list)
  in
  let ev = List.hd events in
  Alcotest.(check (option string))
    "hostile span name survives" (Some hostile)
    (Option.bind (J.member "name" ev) J.to_string);
  let args = Option.get (J.member "args" ev) in
  Alcotest.(check (option string))
    "hostile attr value survives" (Some hostile)
    (Option.bind (J.member "k" args) J.to_string)

(* ------------------------------------------------------------------ *)
(* histogram percentiles                                               *)
(* ------------------------------------------------------------------ *)

let hist_of thunk =
  with_enabled @@ fun () ->
  let (), t = Obs.collect thunk in
  match Obs.histograms t with
  | [ (_, h) ] -> h
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other)

let test_percentile_constant () =
  let h = hist_of (fun () -> for _ = 1 to 100 do Obs.observe "h" 5.0 done) in
  List.iter
    (fun q ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "p%g of a constant is the constant" q)
        (Some 5.0) (Obs.percentile h q))
    [ 0.0; 50.0; 90.0; 99.0; 100.0 ]

let test_percentile_single_sample () =
  let h = hist_of (fun () -> Obs.observe "h" 3.0) in
  List.iter
    (fun q ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "p%g of one sample is the sample" q)
        (Some 3.0) (Obs.percentile h q))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_percentile_empty () =
  let h =
    { Obs.count = 0; sum = 0.0; min = 0.0; max = 0.0; buckets = [] }
  in
  Alcotest.(check (option (float 1e-9))) "empty histogram" None
    (Obs.percentile h 50.0)

let test_percentile_uniform () =
  let h =
    hist_of (fun () ->
        for i = 1 to 1024 do Obs.observe "h" (float_of_int i) done)
  in
  let p q = Option.get (Obs.percentile h q) in
  (* power-of-two buckets: the answer is the bucket upper bound, within
     a factor of 2 of the true quantile *)
  let check_factor2 q truth =
    let v = p q in
    Alcotest.(check bool)
      (Printf.sprintf "p%g=%g within factor 2 of %g" q v truth)
      true
      (v >= truth /. 2.0 && v <= truth *. 2.0)
  in
  check_factor2 50.0 512.0;
  check_factor2 90.0 922.0;
  check_factor2 99.0 1014.0;
  Alcotest.(check bool) "monotone p50<=p90<=p99" true
    (p 50.0 <= p 90.0 && p 90.0 <= p 99.0);
  (* out-of-range quantiles clamp instead of raising *)
  Alcotest.(check bool) "q>100 clamps to max" true (p 200.0 <= h.Obs.max);
  Alcotest.(check bool) "q<0 clamps to min side" true (p (-5.0) >= h.Obs.min)

(* ------------------------------------------------------------------ *)
(* flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* recorder state is process-wide like the Obs switch: reset on entry,
   restore every switch on the way out *)
let with_flight f =
  Obs.set_enabled true;
  Flight.set_enabled true;
  Flight.reset ();
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.clear_sink ();
      Flight.reset ();
      Flight.configure ();
      Obs.set_enabled false)
    f

let read_whole path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_flight_roundtrip () =
  with_flight @@ fun () ->
  let r = Rounds.create () in
  let (), _t =
    Obs.collect (fun () ->
        Obs.span "work" (fun () -> Rounds.charge r ~label:"peel" 3);
        Obs.count "msgs" ~by:2)
  in
  Flight.mark "engine.checkpoint" [ ("pipeline", "p"); ("id", "p#1") ];
  let b = Buffer.create 1024 in
  Flight.render ~env:[ ("backend", "csr") ] ~reason:"unit-test" b;
  let json = J.parse (Buffer.contents b) in
  Alcotest.(check (option string))
    "schema" (Some "nw-flight/1")
    (Option.bind (J.member "schema" json) J.to_string);
  Alcotest.(check (option string))
    "reason" (Some "unit-test")
    (Option.bind (J.member "reason" json) J.to_string);
  let env = Option.get (J.member "env" json) in
  Alcotest.(check (option string))
    "env stamped" (Some "csr")
    (Option.bind (J.member "backend" env) J.to_string);
  let last = Option.get (J.member "last" json) in
  let ck = Option.get (J.member "engine.checkpoint" last) in
  let fields = Option.get (J.member "fields" ck) in
  Alcotest.(check (option string))
    "latest mark lifted into last" (Some "p#1")
    (Option.bind (J.member "id" fields) J.to_string);
  let doms = Option.get (Option.bind (J.member "domains" json) J.to_list) in
  Alcotest.(check bool) "at least one ring" true (doms <> []);
  let tags =
    List.concat_map
      (fun d ->
        match Option.bind (J.member "events" d) J.to_list with
        | Some evs ->
            List.filter_map
              (fun ev -> Option.bind (J.member "ev" ev) J.to_string)
              evs
        | None -> [])
      doms
  in
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Printf.sprintf "event kind %s recorded" tag)
        true (List.mem tag tags))
    [ "open"; "close"; "count"; "charge"; "mark" ]

let test_flight_ring_bound () =
  Flight.configure ~capacity:8 ();
  with_flight @@ fun () ->
  for _ = 1 to 100 do
    Obs.count "c"
  done;
  let b = Buffer.create 1024 in
  Flight.render ~reason:"bound" b;
  let json = J.parse (Buffer.contents b) in
  let doms = Option.get (Option.bind (J.member "domains" json) J.to_list) in
  let mine =
    List.find
      (fun d ->
        Option.bind (J.member "tid" d) J.to_int
        = Some (Domain.self () :> int))
      doms
  in
  let evs = Option.get (Option.bind (J.member "events" mine) J.to_list) in
  Alcotest.(check int) "ring keeps the newest capacity events" 8
    (List.length evs);
  Alcotest.(check (option int)) "dump counts what fell off" (Some 92)
    (Option.bind (J.member "dropped" mine) J.to_int)

let test_flight_trigger_sink () =
  with_flight @@ fun () ->
  let path = Filename.temp_file "nwflight" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Flight.trigger ~reason:"ignored" ();
  Alcotest.(check int) "no dump without a sink" 0 (Flight.dumps_written ());
  Flight.set_sink ~env:[ ("a", "b") ] path;
  Obs.count "c";
  Flight.trigger ~reason:"pass-failed" ();
  Alcotest.(check int) "one dump" 1 (Flight.dumps_written ());
  let json = J.parse (read_whole path) in
  Alcotest.(check (option string))
    "dump carries the trigger reason" (Some "pass-failed")
    (Option.bind (J.member "reason" json) J.to_string);
  let env = Option.get (J.member "env" json) in
  Alcotest.(check (option string))
    "dump carries the armed env" (Some "b")
    (Option.bind (J.member "a" env) J.to_string)

let test_flight_disabled_is_silent () =
  Obs.set_enabled true;
  Flight.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  Flight.mark "m" [ ("k", "v") ];
  Alcotest.(check bool) "marks are dropped when disabled" true
    (Flight.last_mark "m" = None)

let test_flight_last_mark_latest () =
  with_flight @@ fun () ->
  Flight.mark "m" [ ("k", "old") ];
  Flight.mark "m" [ ("k", "new") ];
  Alcotest.(check bool) "last_mark returns the latest fields" true
    (Flight.last_mark "m" = Some [ ("k", "new") ])

(* ------------------------------------------------------------------ *)
(* prometheus rendering                                                *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_has text line =
  Alcotest.(check bool) (Printf.sprintf "exposes %S" line) true
    (contains text line)

let test_prometheus_render () =
  with_enabled @@ fun () ->
  let t = sample_trace () in
  let text = Prom.to_string [ t ] in
  check_has text "# TYPE nw_counter_total counter\n";
  check_has text "nw_counter_total{name=\"msgs\"} 2\n";
  (* one observation of 5.0 lands in the (4,8] power-of-two bucket;
     the +Inf bucket is the total count *)
  check_has text "# TYPE nw_len histogram\n";
  check_has text "nw_len_bucket{le=\"8\"} 1\n";
  check_has text "nw_len_bucket{le=\"+Inf\"} 1\n";
  check_has text "nw_len_sum 5\n";
  check_has text "nw_len_count 1\n";
  check_has text "nw_phase_calls_total{phase=\"root\"} 1\n";
  check_has text "nw_phase_rounds_total{phase=\"child\"} 3\n";
  check_has text "nw_rounds_total 3\n";
  check_has text "nw_rounds_unattributed_total 0\n"

let test_prometheus_merge () =
  with_enabled @@ fun () ->
  let t = sample_trace () in
  let text = Prom.to_string [ t; t ] in
  check_has text "nw_counter_total{name=\"msgs\"} 4\n";
  check_has text "nw_len_count 2\n";
  check_has text "nw_phase_calls_total{phase=\"root\"} 2\n";
  check_has text "nw_rounds_total 6\n"

let test_prometheus_label_escaping () =
  with_enabled @@ fun () ->
  let (), t = Obs.collect (fun () -> Obs.count "a\"b\nc\\d") in
  let text = Prom.to_string [ t ] in
  check_has text "nw_counter_total{name=\"a\\\"b\\nc\\\\d\"} 1\n"

let test_live_snapshot () =
  with_enabled @@ fun () ->
  let (), _t =
    Obs.collect (fun () ->
        Obs.span "done" (fun () -> ());
        Obs.count "c" ~by:3;
        Obs.observe "h" 1.0;
        Obs.span "open" (fun () ->
            let live = Obs.live_snapshot () in
            Alcotest.(check (list (pair string int)))
              "counters visible mid-run" [ ("c", 3) ] (Obs.counters live);
            Alcotest.(check int) "histogram visible mid-run" 1
              (match Obs.histograms live with
              | [ (_, h) ] -> h.Obs.count
              | _ -> -1);
            let names =
              List.map (fun (p : Obs.phase) -> p.Obs.name) (Obs.phases live)
            in
            Alcotest.(check (list string))
              "completed roots only; the open span is excluded" [ "done" ]
              names))
  in
  ()

(* [fold_roots] trades span trees for per-name totals: everything the
   exposition reads (phases in first-seen order, round and wall totals)
   must be the same before and after, with roots folded in several
   steps and a fold that meets unfolded roots later *)
let test_fold_roots () =
  with_enabled @@ fun () ->
  let r = Rounds.create () in
  let request ?(late = false) i =
    Obs.span "req" ~attrs:[ ("i", Obs.Int i) ] (fun () ->
        Rounds.charge r ~label:"a" 2;
        Obs.span "inner" (fun () ->
            Rounds.charge r ~label:"b" i;
            Obs.span "leaf" (fun () -> Rounds.charge r ~label:"a" 1));
        Obs.span "inner" (fun () -> ());
        if late then Obs.span "late" (fun () -> Rounds.charge r ~label:"c" 4);
        Obs.count "c");
    Rounds.charge r ~label:"out" 1;
    Obs.observe "h" (float_of_int i)
  in
  let view () =
    let t = Obs.live_snapshot () in
    ( Prom.to_string [ t ],
      Obs.total_rounds t,
      Obs.root_wall_ns t,
      Obs.phases t )
  in
  let same what (text, rounds, wall, phases) (text', rounds', wall', phases') =
    Alcotest.(check string) (what ^ ": exposition") text text';
    Alcotest.(check int) (what ^ ": total rounds") rounds rounds';
    Alcotest.(check int64) (what ^ ": root wall") wall wall';
    Alcotest.(check bool) (what ^ ": phases") true (phases = phases')
  in
  let (), t =
    Obs.collect (fun () ->
        Obs.fold_roots ();
        Alcotest.(check bool) "a fold with no roots keeps the trace empty"
          true
          (Obs.is_empty (Obs.live_snapshot ()));
        request 1;
        request 2;
        let v0 = view () in
        Obs.fold_roots ();
        same "first fold" v0 (view ());
        Obs.fold_roots ();
        same "second fold" v0 (view ());
        (* folded totals plus unfolded roots, one name first seen late *)
        let snap = Obs.live_snapshot () in
        let snap_text = Prom.to_string [ snap ] in
        request ~late:true 3;
        let ((_, _, _, phases1) as v1) = view () in
        Alcotest.(check (list string))
          "first-seen order across folded and unfolded spans"
          [ "req"; "inner"; "leaf"; "late" ]
          (List.map (fun (p : Obs.phase) -> p.Obs.name) phases1);
        Obs.fold_roots ();
        same "fold after more spans" v1 (view ());
        (* a fold inside an open span leaves that span's children alone *)
        Obs.span "open" (fun () ->
            request 4;
            Obs.fold_roots ());
        request 5;
        Obs.fold_roots ();
        Alcotest.(check string) "an earlier snapshot does not move"
          snap_text (Prom.to_string [ snap ]))
  in
  Alcotest.(check int) "folded rounds match the ledger" (Rounds.total r)
    (Obs.total_rounds t);
  let calls name = (Option.get (phase_by_name t name)).Obs.calls in
  Alcotest.(check int) "req calls" 5 (calls "req");
  Alcotest.(check int) "inner calls" 10 (calls "inner");
  Alcotest.(check int) "open calls" 1 (calls "open");
  Alcotest.(check (list (pair string int)))
    "per-label split survives the fold" [ ("a", 10) ]
    (Option.get (phase_by_name t "req")).Obs.rounds_by_label;
  let b = Buffer.create 64 in
  Obs.Export.jsonl b [ t ];
  Alcotest.(check bool) "exports show no folded span" false
    (contains (Buffer.contents b) "\"type\":\"span\"")

let () =
  Alcotest.run "nw_obs"
    [
      ( "disabled",
        [
          Alcotest.test_case "passthrough" `Quick test_disabled_passthrough;
          Alcotest.test_case "no allocation" `Quick test_disabled_no_alloc;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception" `Quick test_span_exception_closes;
          Alcotest.test_case "collect isolation" `Quick
            test_collect_isolation;
        ] );
      ( "rounds",
        [ Alcotest.test_case "attribution" `Quick test_rounds_attribution ] );
      ( "metrics",
        [
          Alcotest.test_case "counters+histograms" `Quick
            test_counters_histograms;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome" `Quick test_chrome_export_wellformed;
          Alcotest.test_case "jsonl" `Quick test_jsonl_export_wellformed;
          Alcotest.test_case "emit round-trip" `Quick test_emit_roundtrip;
          Alcotest.test_case "chrome hostile strings" `Quick
            test_chrome_escaping_roundtrip;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "constant" `Quick test_percentile_constant;
          Alcotest.test_case "single sample" `Quick
            test_percentile_single_sample;
          Alcotest.test_case "empty" `Quick test_percentile_empty;
          Alcotest.test_case "uniform" `Quick test_percentile_uniform;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump round-trip" `Quick test_flight_roundtrip;
          Alcotest.test_case "ring bound" `Quick test_flight_ring_bound;
          Alcotest.test_case "trigger sink" `Quick test_flight_trigger_sink;
          Alcotest.test_case "disabled is silent" `Quick
            test_flight_disabled_is_silent;
          Alcotest.test_case "last mark wins" `Quick
            test_flight_last_mark_latest;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "render" `Quick test_prometheus_render;
          Alcotest.test_case "merge" `Quick test_prometheus_merge;
          Alcotest.test_case "label escaping" `Quick
            test_prometheus_label_escaping;
          Alcotest.test_case "live snapshot" `Quick test_live_snapshot;
          Alcotest.test_case "fold roots" `Quick test_fold_roots;
        ] );
    ]
