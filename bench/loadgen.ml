(* loadgen: deterministic seed-driven client for `forestd serve`.

   Spawns a daemon on a private Unix socket, loads one session, then
   replays a seeded mix of batch (decompose), point (stats), and churn
   (insert/delete-edge) requests while validating every response:
   id echo, epoch monotonicity, server-side verification flags, the
   churn mode the entry allows and color bounds on incremental answers,
   and a final client-side check of the served coloring, with the
   entry's own checker, against an independently rebuilt live graph.
   Client-observed latencies are summarised as nearest-rank p50/p95/p99
   per request class and written — together with throughput and the
   daemon's incremental/fallback tallies — into the additive `service`
   object of an nw-bench/2 record (BENCH_service.json, `@load-smoke`).
   Exit is non-zero if any response was invalid. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Coloring = Nw_decomp.Coloring
module Verify = Nw_decomp.Verify
module Wire = Nw_service.Wire
module J = Nw_obs.Json_lite

let usage =
  "loadgen --forestd PATH [options]\n\
   \  --forestd PATH     forestd executable to spawn (required)\n\
   \  --socket PATH      Unix socket path (default: private temp path)\n\
   \  --seed N           workload RNG seed (default 11)\n\
   \  --requests N       total mixed requests to replay (default 120)\n\
   \  --mix B:P:C        batch:point:churn request weights (default 1:3:6)\n\
   \  --n N              session graph vertices (default 160)\n\
   \  --alpha A          forest-union arboricity of the graph (default 3)\n\
   \  --algorithm NAME   registry entry for batch requests (default augment)\n\
   \  --epsilon E        epsilon for batch requests (default 0.5)\n\
   \  --json FILE        nw-bench/2 output path (default BENCH_service.json)\n\
   \  --dump-colors FILE write the final served coloring to FILE\n\
   \  --check-colors FILE require the final served coloring to equal FILE\n\
   \  --quick            mark the record as a quick run\n"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("loadgen: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)
(* ------------------------------------------------------------------ *)

type cfg = {
  mutable forestd : string;
  mutable socket : string;
  mutable seed : int;
  mutable requests : int;
  mutable mix : int * int * int;
  mutable n : int;
  mutable alpha : int;
  mutable algorithm : string;
  mutable epsilon : float;
  mutable json : string;
  mutable dump_colors : string;
  mutable check_colors : string;
  mutable quick : bool;
}

let parse_mix s =
  match String.split_on_char ':' s with
  | [ b; p; c ] -> (
      match
        (int_of_string_opt b, int_of_string_opt p, int_of_string_opt c)
      with
      | Some b, Some p, Some c when b >= 0 && p >= 0 && c >= 0 && b + p + c > 0
        ->
          (b, p, c)
      | _ -> die "--mix wants non-negative B:P:C with a positive sum")
  | _ -> die "--mix wants B:P:C (e.g. 1:3:6)"

let parse_args () =
  let cfg =
    {
      forestd = "";
      socket = "";
      seed = 11;
      requests = 120;
      mix = (1, 3, 6);
      n = 160;
      alpha = 3;
      algorithm = "augment";
      epsilon = 0.5;
      json = "BENCH_service.json";
      dump_colors = "";
      check_colors = "";
      quick = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--forestd" :: v :: rest ->
        cfg.forestd <- v;
        go rest
    | "--socket" :: v :: rest ->
        cfg.socket <- v;
        go rest
    | "--seed" :: v :: rest ->
        cfg.seed <- int_of_string v;
        go rest
    | "--requests" :: v :: rest ->
        cfg.requests <- int_of_string v;
        go rest
    | "--mix" :: v :: rest ->
        cfg.mix <- parse_mix v;
        go rest
    | "--n" :: v :: rest ->
        cfg.n <- int_of_string v;
        go rest
    | "--alpha" :: v :: rest ->
        cfg.alpha <- int_of_string v;
        go rest
    | "--algorithm" :: v :: rest ->
        cfg.algorithm <- v;
        go rest
    | "--epsilon" :: v :: rest ->
        cfg.epsilon <- float_of_string v;
        go rest
    | "--json" :: v :: rest ->
        cfg.json <- v;
        go rest
    | "--dump-colors" :: v :: rest ->
        cfg.dump_colors <- v;
        go rest
    | "--check-colors" :: v :: rest ->
        cfg.check_colors <- v;
        go rest
    | "--quick" :: rest ->
        cfg.quick <- true;
        go rest
    | ("--help" | "-h") :: _ ->
        print_string usage;
        exit 0
    | other :: _ -> die "unknown argument %S (see --help)" other
  in
  (match Array.to_list Sys.argv with _ :: args -> go args | [] -> ());
  if cfg.forestd = "" then die "--forestd is required";
  if cfg.requests < 1 then die "--requests must be >= 1";
  if cfg.n < 4 then die "--n must be >= 4";
  if cfg.alpha < 1 then die "--alpha must be >= 1";
  if cfg.socket = "" then
    (* Unix socket paths are capped around 107 bytes; dune sandboxes sit
       deep in _build, so anchor the default under the system temp dir. *)
    cfg.socket <-
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "nw-loadgen-%d.sock" (Unix.getpid ()));
  cfg

(* ------------------------------------------------------------------ *)
(* daemon lifecycle and framed RPC                                     *)
(* ------------------------------------------------------------------ *)

let spawn_daemon cfg =
  (if Sys.file_exists cfg.socket then
     try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let argv = [| cfg.forestd; "serve"; "--socket"; cfg.socket |] in
  Unix.create_process cfg.forestd argv Unix.stdin Unix.stderr Unix.stderr

let connect cfg =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX cfg.socket) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

type conn = { ic : in_channel; oc : out_channel; mutable next_id : int }

let open_conn fd =
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd;
    next_id = 1 }

(* one blocking round trip; returns (parsed response, latency in ms) *)
let rpc conn fields =
  let id = conn.next_id in
  conn.next_id <- id + 1;
  let payload = Wire.obj_fields (Wire.int "id" id :: fields) in
  let t0 = Unix.gettimeofday () in
  Wire.write_frame conn.oc payload;
  let reply =
    match Wire.read_frame conn.ic with
    | Some r -> r
    | None -> die "daemon closed the connection mid-request"
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let json =
    match J.parse reply with
    | v -> v
    | exception J.Parse_error msg -> die "unparsable response: %s" msg
  in
  (id, json, ms)

let member_int json f = Option.bind (J.member f json) J.to_int
let member_bool json f =
  match J.member f json with Some (J.Bool b) -> Some b | _ -> None
let member_str json f = Option.bind (J.member f json) J.to_string

(* ------------------------------------------------------------------ *)
(* response validation                                                 *)
(* ------------------------------------------------------------------ *)

let invalid = ref 0

let flag fmt =
  Printf.ksprintf
    (fun s ->
      incr invalid;
      prerr_endline ("loadgen: INVALID RESPONSE: " ^ s))
    fmt

(* every response must echo the request id and carry ok:true *)
let expect_ok ~what id json =
  let ok =
    match (member_int json "id", member_bool json "ok") with
    | Some rid, Some true when rid = id -> true
    | Some rid, _ when rid <> id ->
        flag "%s: id %d echoed as %d" what id rid;
        false
    | _ ->
        flag "%s: ok:false or missing id (%s)"
          what
          (Option.value ~default:"?" (member_str json "error"));
        false
  in
  ok

(* ------------------------------------------------------------------ *)
(* client-side session mirror                                          *)
(* ------------------------------------------------------------------ *)

(* The mirror tracks exactly what the daemon's session should contain:
   the append-only slot table and which slots are live. Every churn
   response is cross-checked against it and the final served coloring
   is re-verified on a graph rebuilt from the mirror alone. *)
type mirror = {
  mutable slots : (int * int) array;
  mutable live : bool array;
  mutable used : int;
  mutable live_list : int array; (* live slot ids, for O(1) random picks *)
  mutable live_count : int;
  mutable epoch : int;
  mutable palette : int;
      (* max color id + 1 of the last decompose; 0 = none yet. Star
         pipelines use sparse ids, so the count of distinct colors is
         not a bound *)
  (* a fallback re-decomposition may widen the palette without telling
     the churn response, so the bound check pauses until the next
     decompose refreshes the palette *)
  mutable palette_exact : bool;
}

let mirror_of_edges n edges =
  ignore n;
  let m = Array.length edges in
  let cap = max 8 (2 * m) in
  let slots = Array.make cap (0, 0) in
  Array.blit edges 0 slots 0 m;
  {
    slots;
    live = Array.init cap (fun i -> i < m);
    used = m;
    live_list = Array.init cap (fun i -> if i < m then i else 0);
    live_count = m;
    epoch = 0;
    palette = 0;
    palette_exact = false;
  }

let mirror_grow mi =
  if mi.used = Array.length mi.slots then begin
    let cap = 2 * Array.length mi.slots in
    let slots = Array.make cap (0, 0) in
    Array.blit mi.slots 0 slots 0 mi.used;
    let live = Array.make cap false in
    Array.blit mi.live 0 live 0 mi.used;
    let live_list = Array.make cap 0 in
    Array.blit mi.live_list 0 live_list 0 mi.live_count;
    mi.slots <- slots;
    mi.live <- live;
    mi.live_list <- live_list
  end

let mirror_insert mi u v =
  mirror_grow mi;
  let slot = mi.used in
  mi.slots.(slot) <- (u, v);
  mi.live.(slot) <- true;
  mi.used <- slot + 1;
  mi.live_list.(mi.live_count) <- slot;
  mi.live_count <- mi.live_count + 1;
  slot

let mirror_delete mi idx =
  let slot = mi.live_list.(idx) in
  mi.live.(slot) <- false;
  mi.live_list.(idx) <- mi.live_list.(mi.live_count - 1);
  mi.live_count <- mi.live_count - 1;
  slot

(* epoch must be strictly increasing across mutating responses *)
let check_epoch ~what mi json =
  match member_int json "epoch" with
  | Some e when e > mi.epoch -> mi.epoch <- e
  | Some e -> flag "%s: epoch went %d -> %d (not monotone)" what mi.epoch e
  | None -> flag "%s: response without an epoch" what

(* ------------------------------------------------------------------ *)
(* percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let summarise cls samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  Printf.sprintf
    "{\"class\":%s,\"count\":%d,\"p50\":%.4f,\"p95\":%.4f,\"p99\":%.4f}"
    (Nw_obs.Json_lite.Emit.string_value cls)
    (Array.length a) (percentile a 0.50) (percentile a 0.95)
    (percentile a 0.99)

(* ------------------------------------------------------------------ *)
(* nw-bench/2 record                                                   *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> None
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> None)

let write_record cfg ~wall_s ~service_obj =
  let oc = open_out cfg.json in
  let b, p, c = cfg.mix in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"nw-bench/2\",\n\
    \  \"exp\": \"service\",\n\
    \  \"desc\": \"forestd serve under a seeded %d:%d:%d \
     batch:point:churn mix\",\n\
    \  \"quick\": %b,\n\
    \  \"domains\": 1,\n\
    \  \"env\": {\n\
    \    \"git_commit\": %s,\n\
    \    \"hostname\": \"%s\",\n\
    \    \"ocaml_version\": \"%s\",\n\
    \    \"stamped_at\": %.0f\n\
    \  },\n\
    \  \"rounds_attribution\": \"per-domain\",\n\
    \  \"counter_attribution\": \"exact\",\n\
    \  \"wall_s\": %.6f,\n\
    \  \"charged_rounds\": 0,\n\
    \  \"connectivity\": {\n\
    \    \"uf_queries\": 0,\n\
    \    \"bfs_runs\": 0,\n\
    \    \"uf_rebuilds\": 0\n\
    \  },\n\
    \  \"service\": %s,\n\
    \  \"phases\": null,\n\
    \  \"failed\": null\n\
     }\n"
    b p c cfg.quick
    (match git_commit () with
    | Some c -> Printf.sprintf "\"%s\"" (json_escape c)
    | None -> "null")
    (json_escape (try Unix.gethostname () with _ -> "unknown"))
    (json_escape Sys.ocaml_version)
    (Unix.time ())
    wall_s service_obj;
  close_out oc

(* ------------------------------------------------------------------ *)
(* workload                                                            *)
(* ------------------------------------------------------------------ *)

let () =
  let cfg = parse_args () in
  (* star-flagged entries (star forests, list star forests) are checked
     as star forests, and the daemon keeps no live coloring for them: the
     forest-only insert probe cannot enforce their predicate, so every
     insert must come back as a colored fallback. Entries that reject
     multigraphs get a simple session: a simple input graph, and inserts
     that never duplicate a live pair. *)
  let star, simple_only =
    match Nw_engine.Registry.find cfg.algorithm with
    | Some e -> Nw_engine.Registry.(e.star, e.simple_only)
    | None -> (false, false)
  in
  let rng = Random.State.make [| cfg.seed |] in
  let g =
    if simple_only then Gen.forest_union_simple rng cfg.n cfg.alpha
    else Gen.forest_union rng cfg.n cfg.alpha
  in
  let edges = G.edges g in
  let mi = mirror_of_edges cfg.n edges in
  let pair u v = if u < v then (u, v) else (v, u) in
  let live_pairs = Hashtbl.create 64 in
  if simple_only then
    Array.iter (fun (u, v) -> Hashtbl.replace live_pairs (pair u v) ()) edges;
  let pid = spawn_daemon cfg in
  let cleanup () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
    if Sys.file_exists cfg.socket then
      try Unix.unlink cfg.socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let conn = open_conn (connect cfg) in

  (* handshake *)
  let id, json, _ = rpc conn [ Wire.str "op" "hello"; Wire.str "proto" Wire.proto ] in
  if expect_ok ~what:"hello" id json then begin
    match member_str json "proto" with
    | Some p when p = Wire.proto -> ()
    | p ->
        flag "hello: daemon speaks %s, client wants %s"
          (Option.value ~default:"?" p) Wire.proto
  end;

  (* load the session *)
  let edges_json =
    let buf = Buffer.create (8 * Array.length edges) in
    Buffer.add_char buf '[';
    Array.iteri
      (fun i (u, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "[%d,%d]" u v))
      edges;
    Buffer.add_char buf ']';
    Buffer.contents buf
  in
  let id, json, _ =
    rpc conn
      [
        Wire.str "op" "load-graph";
        Wire.str "session" "load";
        Wire.int "n" cfg.n;
        Wire.raw "edges" edges_json;
      ]
  in
  if expect_ok ~what:"load-graph" id json then check_epoch ~what:"load-graph" mi json;

  let decompose_fields () =
    [
      Wire.str "op" "decompose";
      Wire.str "session" "load";
      Wire.str "algorithm" cfg.algorithm;
      Wire.float "epsilon" cfg.epsilon;
      Wire.int "seed" cfg.seed;
    ]
  in
  let last_colors = ref [||] in
  let check_decompose ~what json =
    check_epoch ~what mi json;
    (match member_bool json "verified" with
    | Some true -> ()
    | _ -> flag "%s: served output not verified" what);
    (match member_int json "colors_used" with
    | Some k when k >= 1 -> ()
    | _ -> flag "%s: missing colors_used" what);
    match J.member "colors" json with
    | Some (J.List cols) ->
        if List.length cols <> mi.used then
          flag "%s: %d colors for %d slots" what (List.length cols) mi.used
        else begin
          last_colors :=
            Array.of_list
              (List.map (fun c -> Option.value ~default:(-1) (J.to_int c)) cols);
          mi.palette <- 1 + Array.fold_left max 0 !last_colors;
          mi.palette_exact <- true
        end
    | _ -> flag "%s: missing colors array" what
  in

  (* warm-up decompose so churn has a coloring to grow *)
  let id, json, _ = rpc conn (decompose_fields ()) in
  if expect_ok ~what:"decompose(warmup)" id json then
    check_decompose ~what:"decompose(warmup)" json;

  (* seeded mixed workload *)
  let b, p, c = cfg.mix in
  let batch_ms = ref [] and point_ms = ref [] and churn_ms = ref [] in
  let wrng = Random.State.make [| cfg.seed; 0x10ad |] in
  let t_start = Unix.gettimeofday () in
  for _ = 1 to cfg.requests do
    let pick = Random.State.int wrng (b + p + c) in
    if pick < b then begin
      let id, json, ms = rpc conn (decompose_fields ()) in
      batch_ms := ms :: !batch_ms;
      if expect_ok ~what:"decompose" id json then
        check_decompose ~what:"decompose" json
    end
    else if pick < b + p then begin
      let id, json, ms =
        rpc conn [ Wire.str "op" "stats"; Wire.str "session" "load" ]
      in
      point_ms := ms :: !point_ms;
      if expect_ok ~what:"stats" id json then begin
        let st = J.member "session_stats" json in
        match Option.bind st (fun s -> member_int s "live_edges") with
        | Some le when le = mi.live_count -> ()
        | Some le -> flag "stats: %d live edges, mirror has %d" le mi.live_count
        | None -> flag "stats: missing session_stats.live_edges"
      end
    end
    else if mi.live_count <= cfg.n / 4 || Random.State.bool wrng then begin
      (* churn: insert a random non-loop edge *)
      let rec draw () =
        let u = Random.State.int wrng cfg.n in
        let v = (u + 1 + Random.State.int wrng (cfg.n - 1)) mod cfg.n in
        if simple_only && Hashtbl.mem live_pairs (pair u v) then draw ()
        else (u, v)
      in
      let u, v = draw () in
      let id, json, ms =
        rpc conn
          [
            Wire.str "op" "insert-edge";
            Wire.str "session" "load";
            Wire.int "u" u;
            Wire.int "v" v;
          ]
      in
      churn_ms := ms :: !churn_ms;
      if expect_ok ~what:"insert-edge" id json then begin
        check_epoch ~what:"insert-edge" mi json;
        let slot = mirror_insert mi u v in
        if simple_only then Hashtbl.replace live_pairs (pair u v) ();
        (match member_int json "edge" with
        | Some e when e = slot -> ()
        | Some e -> flag "insert-edge: slot %d, mirror expected %d" e slot
        | None -> flag "insert-edge: missing edge id");
        match (member_str json "mode", member_int json "color") with
        | Some "incremental", None when mi.palette = 0 ->
            (* nothing decomposed yet: the append is structural *)
            ()
        | Some "incremental", Some c
          when (not star) && mi.palette > 0 && c >= 0
               && (c < mi.palette || not mi.palette_exact) ->
            ()
        | Some "incremental", Some c when (not star) && mi.palette > 0 ->
            flag "insert-edge: incremental color %d outside palette of %d" c
              mi.palette
        | Some "fallback", Some c when c >= 0 && mi.palette > 0 ->
            mi.palette_exact <- false
        | m, c ->
            flag "insert-edge: unexpected mode %s with color %s"
              (Option.value ~default:"?" m)
              (Option.fold ~none:"none" ~some:string_of_int c)
      end
    end
    else begin
      (* churn: delete a random live edge *)
      let idx = Random.State.int wrng mi.live_count in
      let slot = mi.live_list.(idx) in
      let id, json, ms =
        rpc conn
          [
            Wire.str "op" "delete-edge";
            Wire.str "session" "load";
            Wire.int "edge" slot;
          ]
      in
      churn_ms := ms :: !churn_ms;
      if expect_ok ~what:"delete-edge" id json then begin
        check_epoch ~what:"delete-edge" mi json;
        let dead = mirror_delete mi idx in
        if simple_only then
          Hashtbl.remove live_pairs (pair (fst mi.slots.(dead)) (snd mi.slots.(dead)));
        match member_str json "mode" with
        | Some ("incremental" | "fallback") -> ()
        | m ->
            flag "delete-edge: unexpected mode %s"
              (Option.value ~default:"?" m)
      end
    end
  done;
  let wall_s = Unix.gettimeofday () -. t_start in

  (* final decompose: re-verify the served coloring client-side on a
     graph rebuilt purely from the mirror (catches silent corruption
     that a daemon-side verified:true could mask) *)
  let id, json, _ = rpc conn (decompose_fields ()) in
  if expect_ok ~what:"decompose(final)" id json then begin
    check_decompose ~what:"decompose(final)" json;
    let colors = !last_colors in
    if Array.length colors = mi.used && mi.live_count > 0 then begin
      let bld = G.create_builder cfg.n in
      let live_colors = ref [] in
      for slot = 0 to mi.used - 1 do
        if mi.live.(slot) then begin
          let u, v = mi.slots.(slot) in
          let e = G.add_edge bld u v in
          live_colors := (e, colors.(slot)) :: !live_colors
        end
      done;
      let g' = G.build bld in
      let col = Coloring.create g' ~colors:mi.palette in
      List.iter
        (fun (e, c) ->
          if c < 0 then flag "final coloring: live slot %d uncolored" e
          else Coloring.set col e c)
        !live_colors;
      let check =
        if star then Verify.star_forest_decomposition
        else Verify.forest_decomposition
      in
      match check col with
      | Ok () -> ()
      | Error msg -> flag "final coloring fails client-side check: %s" msg
    end
  end;

  (* cross-run output equality: the final served coloring is the
     deterministic product of the seeded workload, so one run can dump
     it and a same-seed replay must reproduce it exactly *)
  (if cfg.dump_colors <> "" then begin
     let oc = open_out cfg.dump_colors in
     Array.iter (fun c -> Printf.fprintf oc "%d\n" c) !last_colors;
     close_out oc
   end);
  (if cfg.check_colors <> "" then begin
     let expected =
       let ic = open_in cfg.check_colors in
       let acc = ref [] in
       (try
          while true do
            acc := int_of_string (String.trim (input_line ic)) :: !acc
          done
        with End_of_file -> ());
       close_in ic;
       Array.of_list (List.rev !acc)
     in
     if expected <> !last_colors then
       flag "check-colors: final coloring differs from %s (%d vs %d slots)"
         cfg.check_colors
         (Array.length expected)
         (Array.length !last_colors)
   end);

  (* daemon-side tallies for the record *)
  let incr_updates = ref 0 and fallbacks = ref 0 and srv_errors = ref 0 in
  let id, json, _ = rpc conn [ Wire.str "op" "stats"; Wire.str "session" "load" ] in
  if expect_ok ~what:"stats(final)" id json then begin
    let st = J.member "session_stats" json in
    let field f = Option.value ~default:0 (Option.bind st (fun s -> member_int s f)) in
    incr_updates := field "incremental_updates";
    fallbacks := field "fallbacks"
  end;
  let id, json, _ = rpc conn [ Wire.str "op" "stats" ] in
  if expect_ok ~what:"stats(global)" id json then
    srv_errors := Option.value ~default:0 (member_int json "errors");
  let id, json, _ = rpc conn [ Wire.str "op" "shutdown" ] in
  ignore (expect_ok ~what:"shutdown" id json);

  let total =
    List.length !batch_ms + List.length !point_ms + List.length !churn_ms
  in
  let mean = function
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let speedup =
    let mb = mean !batch_ms and mc = mean !churn_ms in
    if mb > 0.0 && mc > 0.0 then Printf.sprintf "%.4f" (mb /. mc) else "null"
  in
  let service_obj =
    Printf.sprintf
      "{\n\
      \    \"proto\": \"%s\",\n\
      \    \"requests\": %d,\n\
      \    \"invalid\": %d,\n\
      \    \"errors\": %d,\n\
      \    \"requests_per_sec\": %.2f,\n\
      \    \"incremental_updates\": %d,\n\
      \    \"fallbacks\": %d,\n\
      \    \"incremental_speedup\": %s,\n\
      \    \"mix\": {\"batch\": %d, \"point\": %d, \"churn\": %d},\n\
      \    \"latency_ms\": [\n\
      \      %s,\n\
      \      %s,\n\
      \      %s\n\
      \    ]\n\
      \  }"
      Wire.proto total !invalid !srv_errors
      (if wall_s > 0.0 then float_of_int total /. wall_s else 0.0)
      !incr_updates !fallbacks speedup b p c
      (summarise "batch" !batch_ms)
      (summarise "point" !point_ms)
      (summarise "churn" !churn_ms)
  in
  write_record cfg ~wall_s ~service_obj;
  Printf.printf
    "loadgen: %d requests (%d invalid) in %.2fs; %d incremental, %d \
     fallbacks -> %s\n"
    total !invalid wall_s !incr_updates !fallbacks cfg.json;
  if !invalid > 0 then exit 1
