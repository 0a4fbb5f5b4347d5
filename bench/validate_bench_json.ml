(* Schema checker for the observability artifacts:

     validate_bench_json.exe BENCH_e5.json BENCH_e7.json ...
     validate_bench_json.exe --trace e5.trace.json BENCH_e5.json

   BENCH records must parse as JSON, carry a known schema tag
   (nw-bench/1 or nw-bench/2), and have every required field of their
   version; for nw-bench/2 records with a per-phase breakdown the
   self-rounds summed over the phases must equal the flat
   charged_rounds total (the invariant behind docs/benchmarking.md's
   "phases" table). `--trace FILE` additionally validates a Chrome
   trace_event export: a traceEvents array of named complete events
   with numeric ts/dur. `--flight FILE` validates an nw-flight/1
   post-mortem dump from the flight recorder. Exits nonzero on the
   first violation. *)

module J = Nw_obs.Json_lite

let failures = ref 0

let fail file fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "%s: %s\n" file msg)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let require file json field =
  match J.member field json with
  | Some v when v <> J.Null -> Some v
  | Some J.Null | None ->
      fail file "missing field %S" field;
      None
  | Some _ -> assert false

(* fields every schema version must carry, with a shape predicate *)
let shape_string = function J.String _ -> true | _ -> false
let shape_number = function J.Number _ -> true | _ -> false
let shape_bool = function J.Bool _ -> true | _ -> false
let shape_obj = function J.Obj _ -> true | _ -> false

let check_field file json (field, shape) =
  match require file json field with
  | None -> ()
  | Some v -> if not (shape v) then fail file "field %S has the wrong type" field

let common_fields =
  [
    ("exp", shape_string);
    ("desc", shape_string);
    ("quick", shape_bool);
    ("domains", shape_number);
    ("wall_s", shape_number);
    ("charged_rounds", shape_number);
    ("connectivity", shape_obj);
  ]

let v2_fields =
  [
    ("env", shape_obj);
    ("rounds_attribution", shape_string);
    ("counter_attribution", shape_string);
  ]

let check_connectivity file json =
  match J.member "connectivity" json with
  | Some (J.Obj _ as conn) ->
      List.iter
        (fun f -> check_field file conn (f, shape_number))
        [ "uf_queries"; "bfs_runs"; "uf_rebuilds" ]
  | _ -> ()

let check_env file json =
  match J.member "env" json with
  | Some (J.Obj _ as env) ->
      List.iter
        (check_field file env)
        [
          ("hostname", shape_string);
          ("ocaml_version", shape_string);
          ("stamped_at", shape_number);
        ];
      (* git_commit may be null (not a git checkout); fault_plan is
         optional — only stamped by runs under --chaos — but when present
         it must be an object carrying the plan digest and its canonical
         summary (docs/fault-model.md) *)
      (match J.member "fault_plan" env with
      | None -> ()
      | Some (J.Obj _ as fp) ->
          List.iter
            (check_field file fp)
            [ ("hash", shape_string); ("summary", shape_string) ]
      | Some _ ->
          fail file "env field \"fault_plan\" must be an object when present");
      (* pipeline is optional — records written before the engine refactor
         omit it — but when present it must name the algorithm registry and
         the pass-list digest it was built from (docs/architecture.md) *)
      (match J.member "pipeline" env with
      | None -> ()
      | Some (J.Obj _ as pl) ->
          List.iter
            (check_field file pl)
            [ ("registry", shape_string); ("hash", shape_string) ]
      | Some _ ->
          fail file "env field \"pipeline\" must be an object when present");
      (* backend is historical: records from the two-plane era name the
         data plane they ran on; current records omit it *)
      (match J.member "backend" env with
      | None -> ()
      | Some (J.String _) -> ()
      | Some _ ->
          fail file "env field \"backend\" must be a string when present");
      (* core counts are optional — records stamped before they existed
         omit them — but when present nproc is a number (null when the
         command was unavailable) and recommended_domain_count a number *)
      (match J.member "nproc" env with
      | None | Some J.Null | Some (J.Number _) -> ()
      | Some _ ->
          fail file
            "env field \"nproc\" must be a number or null when present");
      (match J.member "recommended_domain_count" env with
      | None | Some (J.Number _) -> ()
      | Some _ ->
          fail file
            "env field \"recommended_domain_count\" must be a number when \
             present")
  | _ -> ()

(* additive nw-bench/2 field: a throughput sweep (BENCH_scaling.json) is a
   list of (instance, edges, rate) legs, each fully numeric so
   trajectory tooling can diff edges_per_sec across commits *)
let check_throughput file json =
  match J.member "throughput" json with
  | None -> ()
  | Some (J.List legs) ->
      if legs = [] then fail file "field \"throughput\" must not be empty";
      List.iteri
        (fun i leg ->
          if not (shape_obj leg) then
            fail file "throughput leg %d is not an object" i
          else begin
            (* backend and domains are historical: legs from the
               two-plane and sharded-round eras name the data plane and
               the domain count they ran at; current legs omit both *)
            (match J.member "backend" leg with
            | None | Some (J.String _) -> ()
            | Some _ ->
                fail file
                  "throughput leg field \"backend\" must be a string when \
                   present");
            (match J.member "domains" leg with
            | None | Some (J.Number _) -> ()
            | Some _ ->
                fail file
                  "throughput leg field \"domains\" must be a number when \
                   present");
            (* instance is optional — legs predating the full-pipeline
               sweep omit it — but when present it names the timed
               pipeline and joins the benchdiff alignment key *)
            (match J.member "instance" leg with
            | None | Some (J.String _) -> ()
            | Some _ ->
                fail file
                  "throughput leg field \"instance\" must be a string when \
                   present");
            List.iter
              (fun f -> check_field file leg (f, shape_number))
              [ "edges"; "wall_s"; "edges_per_sec" ]
          end)
        legs
  | Some _ -> fail file "field \"throughput\" must be an array when present"

(* additive nw-bench/2 field: per-experiment GC/allocator attribution
   captured as quick_stat deltas around the measured run. Old records
   without it stay valid; when present every field must be a number —
   top_heap_words is the high-water mark at experiment end, not a
   delta, but it is numeric all the same. *)
let resources_fields =
  [
    "minor_words";
    "major_words";
    "promoted_words";
    "minor_collections";
    "major_collections";
    "top_heap_words";
  ]

(* historical: records from the sharded-round era also counted what
   helper domains allocated; accepted, not required *)
let legacy_resources_fields = [ "worker_minor_words"; "worker_major_words" ]

let check_resources file json =
  match J.member "resources" json with
  | None -> ()
  | Some (J.Obj _ as res) ->
      List.iter
        (fun f -> check_field file res (f, shape_number))
        resources_fields;
      List.iter
        (fun f ->
          match J.member f res with
          | None | Some (J.Number _) -> ()
          | Some _ -> fail file "resources field %S must be a number" f)
        legacy_resources_fields
  | Some _ -> fail file "field \"resources\" must be an object when present"

(* nw-bench/2 invariant: phase self-rounds (including the trailing
   "(unattributed)" bucket) sum to the flat charged_rounds total *)
let check_phases file json =
  match J.member "phases" json with
  | None -> fail file "missing field \"phases\" (null when tracing is off)"
  | Some J.Null -> ()
  | Some (J.List phases) ->
      let sum = ref 0 in
      List.iter
        (fun p ->
          (match J.member "name" p with
          | Some (J.String _) -> ()
          | _ -> fail file "phase entry without a string \"name\"");
          match Option.bind (J.member "rounds" p) J.to_int with
          | Some r -> sum := !sum + r
          | None -> fail file "phase entry without an integer \"rounds\"")
        phases;
      let total =
        Option.bind (J.member "charged_rounds" json) J.to_int
      in
      (match total with
      | Some total when total <> !sum ->
          fail file
            "phase rounds sum to %d but charged_rounds is %d (attribution \
             leak)"
            !sum total
      | _ -> ())
  | Some _ -> fail file "field \"phases\" must be an array or null"

let check_bench file =
  match J.parse (read_file file) with
  | exception J.Parse_error msg -> fail file "invalid JSON: %s" msg
  | exception Sys_error msg -> fail file "unreadable: %s" msg
  | json -> (
      match Option.bind (J.member "schema" json) J.to_string with
      | Some "nw-bench/1" ->
          List.iter (check_field file json) common_fields;
          check_connectivity file json
      | Some "nw-bench/2" ->
          List.iter (check_field file json) (common_fields @ v2_fields);
          check_connectivity file json;
          check_env file json;
          check_phases file json;
          check_throughput file json;
          check_resources file json
      | Some other -> fail file "unknown schema %S" other
      | None -> fail file "missing schema tag")

let check_trace file =
  match J.parse (read_file file) with
  | exception J.Parse_error msg -> fail file "invalid JSON: %s" msg
  | exception Sys_error msg -> fail file "unreadable: %s" msg
  | json -> (
      match J.member "traceEvents" json with
      | Some (J.List events) ->
          if events = [] then fail file "empty traceEvents array";
          List.iteri
            (fun i ev ->
              let str f = Option.bind (J.member f ev) J.to_string in
              let num f = Option.bind (J.member f ev) J.to_float in
              (match str "name" with
              | Some "" | None -> fail file "event %d: unnamed" i
              | Some _ -> ());
              (match str "ph" with
              | Some "X" -> ()
              | _ -> fail file "event %d: phase is not a complete event" i);
              match (num "ts", num "dur") with
              | Some ts, Some dur when ts >= 0.0 && dur >= 0.0 -> ()
              | _ -> fail file "event %d: ts/dur missing or negative" i)
            events
      | _ -> fail file "missing traceEvents array")

(* nw-flight/1 post-mortem dumps (docs/observability.md): a dump must
   name why it was written, stamp its environment, lift the latest mark
   per name into "last", and carry per-domain ring snapshots whose
   events are tagged open/close/count/charge/mark with the per-kind
   payload. This is the round-trip half of the flight-recorder smoke
   leg: Flight.render emits it, this parser re-reads it. *)
let check_flight_event file i j ev =
  let where = Printf.sprintf "domain %d event %d" i j in
  if not (shape_obj ev) then fail file "%s is not an object" where
  else begin
    (match Option.bind (J.member "t_us" ev) J.to_float with
    | Some t when t >= 0.0 -> ()
    | _ -> fail file "%s: t_us missing or negative" where);
    let str f = Option.bind (J.member f ev) J.to_string in
    let num f = Option.bind (J.member f ev) J.to_float in
    let need_name () =
      match str "name" with
      | Some "" | None -> fail file "%s: unnamed" where
      | Some _ -> ()
    in
    match str "ev" with
    | Some "open" -> need_name ()
    | Some "close" ->
        need_name ();
        (match num "dur_us" with
        | Some d when d >= 0.0 -> ()
        | _ -> fail file "%s: close without nonneg dur_us" where);
        if num "rounds" = None then fail file "%s: close without rounds" where
    | Some "count" ->
        need_name ();
        if num "delta" = None then fail file "%s: count without delta" where
    | Some "charge" ->
        (match str "label" with
        | Some "" | None -> fail file "%s: charge without label" where
        | Some _ -> ());
        if num "rounds" = None then fail file "%s: charge without rounds" where
    | Some "mark" ->
        need_name ();
        (match J.member "fields" ev with
        | Some (J.Obj _) -> ()
        | _ -> fail file "%s: mark without a fields object" where)
    | Some other -> fail file "%s: unknown event tag %S" where other
    | None -> fail file "%s: missing event tag \"ev\"" where
  end

let check_flight file =
  match J.parse (read_file file) with
  | exception J.Parse_error msg -> fail file "invalid JSON: %s" msg
  | exception Sys_error msg -> fail file "unreadable: %s" msg
  | json -> (
      match Option.bind (J.member "schema" json) J.to_string with
      | Some "nw-flight/1" ->
          List.iter (check_field file json)
            [
              ("reason", shape_string);
              ("seq", shape_number);
              ("clock", shape_string);
              ("env", shape_obj);
              ("rings_dropped", shape_number);
            ];
          (match J.member "last" json with
          | Some (J.Obj marks) ->
              List.iter
                (fun (name, m) ->
                  if not (shape_obj m) then
                    fail file "last mark %S is not an object" name
                  else begin
                    check_field file m ("t_us", shape_number);
                    match J.member "fields" m with
                    | Some (J.Obj fields) ->
                        List.iter
                          (fun (k, v) ->
                            if not (shape_string v) then
                              fail file "last mark %S field %S is not a string"
                                name k)
                          fields
                    | _ ->
                        fail file "last mark %S without a fields object" name
                  end)
                marks
          | _ -> fail file "missing \"last\" object");
          (match J.member "domains" json with
          | Some (J.List doms) ->
              List.iteri
                (fun i d ->
                  if not (shape_obj d) then
                    fail file "domain %d is not an object" i
                  else begin
                    check_field file d ("tid", shape_number);
                    check_field file d ("dropped", shape_number);
                    match J.member "events" d with
                    | Some (J.List evs) ->
                        List.iteri (check_flight_event file i) evs
                    | _ -> fail file "domain %d without an events array" i
                  end)
                doms
          | _ -> fail file "missing \"domains\" array")
      | Some other -> fail file "unknown flight schema %S" other
      | None -> fail file "missing schema tag")

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse traces flights benches = function
    | "--trace" :: file :: rest -> parse (file :: traces) flights benches rest
    | "--flight" :: file :: rest -> parse traces (file :: flights) benches rest
    | [ ("--trace" | "--flight") as flag ] ->
        Printf.eprintf "validate_bench_json: %s expects a file\n" flag;
        exit 2
    | file :: rest -> parse traces flights (file :: benches) rest
    | [] -> (List.rev traces, List.rev flights, List.rev benches)
  in
  let traces, flights, benches = parse [] [] [] args in
  if traces = [] && flights = [] && benches = [] then begin
    prerr_endline
      "usage: validate_bench_json [--trace TRACE.json] [--flight FLIGHT.json] \
       BENCH_*.json ...";
    exit 2
  end;
  List.iter check_trace traces;
  List.iter check_flight flights;
  List.iter check_bench benches;
  let total = List.length traces + List.length flights + List.length benches in
  if !failures > 0 then begin
    Printf.eprintf "validate_bench_json: %d violation%s\n" !failures
      (if !failures = 1 then "" else "s");
    exit 1
  end;
  Printf.printf "validate_bench_json: %d file%s ok\n" total
    (if total = 1 then "" else "s")
