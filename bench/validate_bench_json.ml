(* Schema checker for the observability artifacts:

     validate_bench_json.exe BENCH_e5.json BENCH_e7.json ...
     validate_bench_json.exe --trace e5.trace.json BENCH_e5.json

   BENCH records must parse as JSON, carry the schema tag nw-bench/3,
   and have every field bench/main.exe's writer always emits, with its
   shape; a per-phase breakdown's self-rounds must sum to the flat
   charged_rounds total (the invariant behind docs/benchmarking.md's
   "phases" table). `--trace FILE` additionally validates a Chrome
   trace_event export: a traceEvents array of named complete events
   with numeric ts/dur. `--flight FILE` validates an nw-flight/2
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

let shape_string = function J.String _ -> true | _ -> false
let shape_number = function J.Number _ -> true | _ -> false
let shape_bool = function J.Bool _ -> true | _ -> false
let shape_obj = function J.Obj _ -> true | _ -> false

let check_field file json (field, shape) =
  match require file json field with
  | None -> ()
  | Some v -> if not (shape v) then fail file "field %S has the wrong type" field

(* a field the writer always emits, as null or with [shape] *)
let check_nullable file json (field, shape) =
  match J.member field json with
  | None -> fail file "missing field %S" field
  | Some J.Null -> ()
  | Some v -> if not (shape v) then fail file "field %S has the wrong type" field

(* [field] is an object carrying [fields] *)
let check_obj file json field fields =
  check_field file json (field, shape_obj);
  match J.member field json with
  | Some (J.Obj _ as o) -> List.iter (check_field file o) fields
  | _ -> ()

let numbers = List.map (fun f -> (f, shape_number))

(* a short hex hash, with "-dirty" when tracked files differed from that
   commit *)
let shape_commit = function
  | J.String s ->
      let hash =
        match String.index_opt s '-' with
        | Some i when String.sub s i (String.length s - i) = "-dirty" ->
            String.sub s 0 i
        | Some _ -> ""
        | None -> s
      in
      hash <> ""
      && String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           hash
  | _ -> false

let check_env file env =
  List.iter (check_field file env)
    [
      ("recommended_domain_count", shape_number);
      ("hostname", shape_string);
      ("ocaml_version", shape_string);
      ("stamped_at", shape_number);
    ];
  (* null outside a git checkout, and nproc null without the command *)
  check_nullable file env ("git_commit", shape_commit);
  check_nullable file env ("nproc", shape_number);
  (* the algorithm registry and pass-list digest the run was built from
     (docs/architecture.md) *)
  check_obj file env "pipeline"
    [ ("registry", shape_string); ("hash", shape_string) ];
  (* only runs under --chaos stamp the plan digest and its canonical
     summary (docs/fault-model.md) *)
  if J.member "fault_plan" env <> None then
    check_obj file env "fault_plan"
      [ ("hash", shape_string); ("summary", shape_string) ]

(* only an experiment that timed legs (e15) writes a throughput array:
   (instance, n, edges, rate) legs that benchdiff aligns across commits *)
let check_throughput file json =
  match J.member "throughput" json with
  | None -> ()
  | Some (J.List (_ :: _ as legs)) ->
      List.iter
        (fun leg ->
          if shape_obj leg then
            List.iter (check_field file leg)
              (("instance", shape_string)
              :: numbers [ "n"; "edges"; "wall_s"; "edges_per_sec" ])
          else fail file "a throughput leg is not an object")
        legs
  | Some _ ->
      fail file "field \"throughput\" must be a non-empty array when present"

(* phase self-rounds (including the trailing "(unattributed)" bucket)
   sum to the flat charged_rounds total *)
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
      | Some "nw-bench/3" ->
          List.iter (check_field file json)
            ([ ("exp", shape_string); ("desc", shape_string);
               ("quick", shape_bool); ("env", shape_obj) ]
            @ numbers [ "wall_s"; "charged_rounds" ]);
          check_nullable file json ("failed", shape_string);
          (match J.member "env" json with
          | Some (J.Obj _ as env) -> check_env file env
          | _ -> ());
          check_obj file json "connectivity"
            (numbers [ "uf_queries"; "bfs_runs"; "uf_rebuilds" ]);
          (* Gc.quick_stat deltas around the experiment; top_heap_words
             is the high-water mark at its end *)
          check_obj file json "resources"
            (numbers
               [
                 "minor_words";
                 "major_words";
                 "promoted_words";
                 "minor_collections";
                 "major_collections";
                 "top_heap_words";
               ]);
          check_phases file json;
          check_throughput file json
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

(* nw-flight/2 post-mortem dumps (docs/observability.md): a dump must
   name why it was written, stamp its environment, lift the latest mark
   per name into "last", and carry the process's one ring, whose
   events are tagged open/close/count/charge/mark with the per-kind
   payload. This is the round-trip half of the flight-recorder smoke
   leg: Flight.render emits it, this parser re-reads it. *)
let check_flight_event file j ev =
  let where = Printf.sprintf "ring event %d" j in
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
      | Some "nw-flight/2" ->
          List.iter (check_field file json)
            [
              ("reason", shape_string);
              ("seq", shape_number);
              ("clock", shape_string);
              ("env", shape_obj);
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
          check_obj file json "ring"
            [ ("tid", shape_number); ("dropped", shape_number) ];
          (match Option.bind (J.member "ring" json) (J.member "events") with
          | Some (J.List evs) -> List.iteri (check_flight_event file) evs
          | _ -> fail file "ring without an events array")
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
  if !failures > 0 then begin
    Printf.eprintf "validate_bench_json: %d violation%s\n" !failures
      (if !failures = 1 then "" else "s");
    exit 1
  end;
  (* one line per file, on stdout only: a run expected to fail names
     the file it accepted *)
  List.iter (Printf.printf "%s: ok\n") (traces @ flights @ benches)
