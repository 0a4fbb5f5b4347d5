(* The two served workloads: a closed loop over one connection to a
   `forestd serve` daemon, no think time (the daemon serves one
   connection at a time, so one client is the whole load).

   serve-churn: point:churn = 1:9 on a large session, so every insert
   pays the session's per-insert rebuild of the whole slot graph while
   deletes and point requests do not. serve-mixed: batch:point:churn =
   1:6:13 on a small session, where batch decompositions dominate.

   The measured loop is a fixed number of requests (a nominal rate
   times --seconds), not a fixed time: the daemon keeps state for every
   request it served, so its peak memory and the session's final state
   then depend on the seed alone, not on how fast the host ran.

   Churn keeps the session one or two edges above its initial
   alpha*(n-1) edges: an insert when it holds at most m0 + 1, a delete
   otherwise. The edge count forces arboricity alpha + 1 from the first
   insert on, so every batch resolves the same arboricity at the same
   cost and the first insert is the one fallback that widens the
   palette. Deletes spare the input's first spanning tree: on a
   disconnected graph the augment pipeline's network decomposition loses
   its single-cluster shortcut and a batch costs some fifty times more,
   which would make batch latency bimodal on whichever seeds happen to
   isolate a vertex. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Verify = Nw_decomp.Verify
module Coloring = Nw_decomp.Coloring
module Wire = Nw_service.Wire
module J = Nw_obs.Json_lite

let algorithm = "augment"
let session = "bench"
let batch_seed = 7

type cfg = {
  forestd : string;
  name : string;
  seed : int;
  seconds : float;
  requests : int;  (** requests in the measured loop *)
  trace : bool;
  n : int;
  alpha : int;
  mix : int * int * int;  (** batch : point : churn *)
}

exception Transport of string

(* ------------------------------------------------------------------ *)
(* daemon and connection                                               *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
  mutable alive : bool;
}

let rec connect sock deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
    when Proc.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect sock deadline
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      raise (Transport ("connect: " ^ Unix.error_message e))

let start cfg ~tag ~metrics =
  let sock = Proc.path (cfg.name ^ tag ^ ".sock") in
  let extra = match metrics with Some m -> [ "--serve-metrics"; m ] | None -> [] in
  let pid = Proc.spawn cfg.forestd ([ "serve"; "--socket"; sock ] @ extra) in
  match connect sock (Proc.now () +. 30.0) with
  | fd ->
      { pid; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd;
        next_id = 1; alive = true }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Proc.wait pid);
      raise e

(* the daemon ends on its own after [shutdown]; anything else is killed *)
let reap d ~graceful =
  if d.alive then begin
    d.alive <- false;
    if not graceful then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    close_out_noerr d.oc;
    ignore (Proc.wait d.pid)
  end

(* one blocking round trip: (request id, payload, reply, ms) *)
let rpc d fields =
  let id = d.next_id in
  d.next_id <- id + 1;
  let payload = Wire.obj_fields (Wire.int "id" id :: fields) in
  let t0 = Proc.now () in
  let reply =
    match
      Wire.write_frame d.oc payload;
      Wire.read_frame d.ic
    with
    | Some s -> s
    | None -> raise (Transport "daemon closed the connection")
    | exception (Sys_error m | Wire.Protocol_error m) -> raise (Transport m)
    | exception End_of_file -> raise (Transport "end of stream")
  in
  (id, payload, reply, (Proc.now () -. t0) *. 1000.0)

let int_field json k = Option.bind (J.member k json) J.to_int

(* parse a reply, check the id echo and ok:true *)
let answer r ~what id reply =
  match J.parse reply with
  | exception J.Parse_error m ->
      Metric.attempt r (Error (what ^ ": unparsable reply: " ^ m));
      None
  | json -> (
      match (int_field json "id", J.member "ok" json) with
      | Some i, Some (J.Bool true) when i = id ->
          Metric.attempt r (Ok ());
          Some json
      | _ ->
          let detail =
            Option.value ~default:"?" (Option.bind (J.member "error" json) J.to_string)
          in
          Metric.attempt r (Error (Printf.sprintf "%s: not ok (%s)" what detail));
          None)

(* ------------------------------------------------------------------ *)
(* the client's record of the session                                  *)
(* ------------------------------------------------------------------ *)

type mirror = {
  mutable slots : (int * int) array;  (** every slot ever created *)
  mutable used : int;
  mutable live : bool array;
  kept : int;
      (** slots [0, kept) hold the input's first spanning tree, which is
          never deleted, so the session stays connected *)
  mutable live_list : int array;  (** live slots past [kept], for deletes *)
  mutable live_count : int;
  initial : int;  (** m0, the loaded edge count *)
  mutable epoch : int;
}

let mirror_of ~kept edges =
  let m = Array.length edges in
  let cap = (2 * m) + 16 in
  let slots = Array.make cap (0, 0) in
  Array.blit edges 0 slots 0 m;
  { slots; used = m; live = Array.init cap (fun i -> i < m); kept;
    live_list = Array.init cap (fun i -> if i < m - kept then kept + i else 0);
    live_count = m - kept; initial = m; epoch = 0 }

let live_edges mi = mi.kept + mi.live_count

let grow a used fill =
  if used < Array.length a then a
  else begin
    let b = Array.make (2 * used) fill in
    Array.blit a 0 b 0 used;
    b
  end

let mirror_insert mi u v =
  mi.slots <- grow mi.slots mi.used (0, 0);
  mi.live <- grow mi.live mi.used false;
  mi.live_list <- grow mi.live_list mi.live_count 0;
  let slot = mi.used in
  mi.slots.(slot) <- (u, v);
  mi.live.(slot) <- true;
  mi.used <- slot + 1;
  mi.live_list.(mi.live_count) <- slot;
  mi.live_count <- mi.live_count + 1

let mirror_delete mi idx =
  mi.live.(mi.live_list.(idx)) <- false;
  mi.live_list.(idx) <- mi.live_list.(mi.live_count - 1);
  mi.live_count <- mi.live_count - 1

let check_epoch r mi ~what json =
  match int_field json "epoch" with
  | Some e when e > mi.epoch -> mi.epoch <- e
  | e ->
      Metric.check r false "%s: epoch %s after %d" what
        (match e with Some e -> string_of_int e | None -> "missing")
        mi.epoch

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

let decompose_fields =
  [
    Wire.str "op" "decompose"; Wire.str "session" session;
    Wire.str "algorithm" algorithm; Wire.float "epsilon" 0.5;
    Wire.int "seed" batch_seed;
  ]

(* a decompose reply: verified, one color per slot; returns the colors
   (dead slots -1) and colors_used *)
let check_decompose r mi ~what json =
  check_epoch r mi ~what json;
  Metric.check r
    (J.member "verified" json = Some (J.Bool true))
    "%s: served coloring not verified" what;
  match (J.member "colors" json, int_field json "colors_used") with
  | Some (J.List cs), Some used when List.length cs = mi.used ->
      Some
        ( Array.of_list
            (List.map (fun c -> Option.value ~default:(-1) (J.to_int c)) cs),
          used )
  | _ ->
      Metric.check r false "%s: missing colors or colors_used" what;
      None

(* (class, ms, seconds since the loop started when it completed) per
   request, newest first *)
type lat = (string * float * float) list

let class_samples (lat : lat) cls =
  List.rev (List.filter_map (fun (c, ms, _) -> if c = cls then Some ms else None) lat)

(* Throughput of each of eight consecutive stretches of the loop, cut so
   that each holds an equal share of the requests of the class that took
   the most time (inserts on serve-churn, batches on serve-mixed), so the
   stretches carry about equal work. CPU availability on a shared host
   swings over seconds and only ever slows requests down, so the fastest
   stretch is the stable estimate of what the code sustains. *)
let stretch_rates (lat : lat) =
  let reqs = Array.of_list (List.rev lat) in
  let n = Array.length reqs in
  let heavy =
    List.fold_left
      (fun (best, bt) cls ->
        let t = List.fold_left ( +. ) 0.0 (class_samples lat cls) in
        if t > bt then (cls, t) else (best, bt))
      ("", 0.0) Metric.classes
    |> fst
  in
  let marks =
    Array.of_list
      (List.filter (fun i -> let c, _, _ = reqs.(i) in c = heavy) (List.init n Fun.id))
  in
  let k = min 8 (Array.length marks) in
  (* stretch i ends after the last heavy request of its share *)
  let ends =
    List.init k (fun i ->
        if i = k - 1 then n - 1 else marks.((((i + 1) * Array.length marks) / k) - 1))
  in
  let done_at i = let _, _, t = reqs.(i) in t in
  snd
    (List.fold_left
       (fun (prev, acc) last ->
         let start = if prev < 0 then 0.0 else done_at prev in
         (last, (float_of_int (last - prev) /. (done_at last -. start)) :: acc))
       (-1, []) ends)

(* The seeded request loop: [count] requests, or fewer if [budget]
   seconds run out first, calling [after] with each request's payload
   once its answer is in. The sequence depends on the seed alone, so a
   shorter run replays a prefix of a longer one. *)
let request_loop r cfg d mi ~count:limit ~budget ~after =
  let lat = ref [] in
  let t0 = Proc.now () in
  let record cls ms = lat := (cls, ms, Proc.now () -. t0) :: !lat in
  let wrng = Random.State.make [| cfg.seed; 0x5e77e |] in
  let b, p, c = cfg.mix in
  let count = ref 0 in
  let finished () = !count >= limit || Proc.now () -. t0 >= budget in
  while not (finished ()) do
    incr count;
    let pick = Random.State.int wrng (b + p + c) in
    if pick < b then begin
      let id, payload, reply, ms = rpc d decompose_fields in
      record "batch" ms;
      after payload;
      Option.iter
        (fun json -> ignore (check_decompose r mi ~what:"decompose" json))
        (answer r ~what:"decompose" id reply)
    end
    else if pick < b + p then begin
      let id, payload, reply, ms =
        rpc d [ Wire.str "op" "stats"; Wire.str "session" session ]
      in
      record "point" ms;
      after payload;
      Option.iter
        (fun json ->
          let live =
            Option.bind (J.member "session_stats" json) (fun s -> int_field s "live_edges")
          in
          Metric.check r (live = Some (live_edges mi))
            "stats: live edges disagree with the client's record")
        (answer r ~what:"stats" id reply)
    end
    else if live_edges mi <= mi.initial + 1 then begin
      let u = Random.State.int wrng cfg.n in
      let v = (u + 1 + Random.State.int wrng (cfg.n - 1)) mod cfg.n in
      let id, payload, reply, ms =
        rpc d
          [ Wire.str "op" "insert-edge"; Wire.str "session" session;
            Wire.int "u" u; Wire.int "v" v ]
      in
      record "insert" ms;
      after payload;
      Option.iter
        (fun json ->
          check_epoch r mi ~what:"insert-edge" json;
          Metric.check r
            (int_field json "edge" = Some mi.used)
            "insert-edge: slot id disagrees with the client's record";
          mirror_insert mi u v)
        (answer r ~what:"insert-edge" id reply)
    end
    else begin
      let idx = Random.State.int wrng mi.live_count in
      let id, payload, reply, ms =
        rpc d
          [ Wire.str "op" "delete-edge"; Wire.str "session" session;
            Wire.int "edge" mi.live_list.(idx) ]
      in
      record "delete" ms;
      after payload;
      Option.iter
        (fun json ->
          check_epoch r mi ~what:"delete-edge" json;
          mirror_delete mi idx)
        (answer r ~what:"delete-edge" id reply)
    end
  done;
  (!lat, !count, Proc.now () -. t0)

(* ------------------------------------------------------------------ *)
(* set-up                                                              *)
(* ------------------------------------------------------------------ *)

let edges_json edges =
  let b = Buffer.create (12 * Array.length edges) in
  Buffer.add_char b '[';
  Array.iteri
    (fun i (u, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d]" u v))
    edges;
  Buffer.add_char b ']';
  Buffer.contents b

(* spawn, hello, load-graph, warm-up decompose: the daemon, a fresh
   mirror, the warm-up's colors and its latency *)
let setup r cfg ~tag ~metrics ~edges ~edges_json =
  let d = start cfg ~tag ~metrics in
  let mi = mirror_of ~kept:(cfg.n - 1) edges in
  let id, _, reply, _ = rpc d [ Wire.str "op" "hello"; Wire.str "proto" Wire.proto ] in
  Option.iter
    (fun json ->
      Metric.check r
        (Option.bind (J.member "proto" json) J.to_string = Some Wire.proto)
        "hello: protocol mismatch")
    (answer r ~what:"hello" id reply);
  let id, _, reply, _ =
    rpc d
      [ Wire.str "op" "load-graph"; Wire.str "session" session;
        Wire.int "n" cfg.n; Wire.raw "edges" edges_json ]
  in
  Option.iter (check_epoch r mi ~what:"load-graph") (answer r ~what:"load-graph" id reply);
  let id, _, reply, ms = rpc d decompose_fields in
  let colors =
    Option.bind (answer r ~what:"warm-up decompose" id reply)
      (check_decompose r mi ~what:"warm-up decompose")
  in
  (d, mi, colors, ms)

(* ------------------------------------------------------------------ *)
(* the workload                                                        *)
(* ------------------------------------------------------------------ *)

(* the client's own check of a served coloring, with the entry's own
   checker, on a graph rebuilt from its record of the session *)
let verify_final cfg mi colors =
  let bld = G.create_builder cfg.n in
  let assigned = ref [] in
  for slot = 0 to mi.used - 1 do
    if mi.live.(slot) then begin
      let u, v = mi.slots.(slot) in
      assigned := (G.add_edge bld u v, colors.(slot)) :: !assigned
    end
  done;
  let c =
    Coloring.create (G.build bld) ~colors:(1 + Array.fold_left max 0 colors)
  in
  match
    List.iter
      (fun (e, col) ->
        if col < 0 then failwith "a live edge is uncolored";
        Coloring.set c e col)
      !assigned
  with
  | () -> (
      match Nw_engine.Registry.find algorithm with
      | Some e when e.Nw_engine.Registry.star ->
          Verify.star_forest_decomposition c
      | _ -> Verify.forest_decomposition c)
  | exception (Failure m | Invalid_argument m) -> Error m

(* p50 and tail of one request class; spreads from four time-ordered
   segments of the run *)
let set_class r cfg lat cls =
  let xs = class_samples lat cls in
  if xs <> [] then begin
    let segs = Stats.segments 4 xs in
    Metric.set r ("service." ^ cls ^ "_p50_ms") (Stats.median xs)
      ~spread:(Stats.spread (List.map Stats.median segs))
      ~samples:(List.length xs);
    if cls = "insert" || cls = "batch" then begin
      let v, q = Stats.tail xs in
      Printf.printf "  %s: %s tail is p%.2f of %d samples\n" cfg.name cls q
        (List.length xs);
      Metric.set r ("service." ^ cls ^ "_tail_ms") v
        ~spread:(Stats.spread (List.map (fun s -> Stats.at_level s q) segs))
        ~samples:(List.length xs)
    end
  end

(* Five final decomposes of the churned session (the same graph and
   seed, so the same coloring each time; single decomposes in the
   daemon vary with where its major GC slices fall), the first verified
   client-side; then session tallies, peak memory, shutdown. Returns the
   final decomposes' latencies. *)
let finish r cfg d mi =
  let finals =
    List.init 5 (fun _ ->
        let id, _, reply, ms = rpc d decompose_fields in
        ( Option.bind
            (answer r ~what:"final decompose" id reply)
            (check_decompose r mi ~what:"final decompose"),
          id, reply, ms ))
  in
  let colorings = List.map (fun (c, _, _, _) -> c) finals in
  Metric.check r
    (List.for_all (( = ) (List.hd colorings)) colorings)
    "final decomposes of one session color it differently";
  (match finals with
  | (Some (colors, used), id, reply, _) :: _ ->
      Metric.set r "colors_used" (float_of_int used);
      let verdict, verify_s = Proc.time (fun () -> verify_final cfg mi colors) in
      Metric.attempt r
        (Result.map_error (( ^ ) "final coloring fails the client's check: ") verdict);
      Metric.set r "decomp.verify_s" verify_s;
      Metric.set r "service.response_bytes.batch" (float_of_int (String.length reply));
      (* encode the received answer again, as the daemon does *)
      let (), enc_s =
        Proc.time (fun () ->
            ignore
              (Wire.response_ok ~id
                 [ Wire.str "session" session; Wire.int "epoch" mi.epoch;
                   Wire.str "algorithm" algorithm; Wire.str "mode" "full";
                   Wire.int "colors_used" used;
                   Wire.raw "colors" (Wire.int_array colors);
                   Wire.bool "verified" true ]))
      in
      Metric.set r "service.encode_batch_ms" (enc_s *. 1000.0)
  | _ -> ());
  let id, _, reply, _ = rpc d [ Wire.str "op" "stats"; Wire.str "session" session ] in
  Option.iter
    (fun json ->
      let st k =
        float_of_int
          (Option.value ~default:0
             (Option.bind (J.member "session_stats" json) (fun s -> int_field s k)))
      in
      let inc = st "incremental_updates" and fb = st "fallbacks" in
      Metric.set r "service.fallbacks" fb;
      Metric.set r "service.incremental_ratio"
        (if inc +. fb > 0.0 then inc /. (inc +. fb) else 0.0))
    (answer r ~what:"stats" id reply);
  Option.iter (Metric.set r "peak_rss_mb") (Proc.vmhwm_mb d.pid);
  ignore (rpc d [ Wire.str "op" "shutdown" ]);
  reap d ~graceful:true;
  List.map (fun (_, _, _, ms) -> ms) finals

let op_of_class = function
  | "insert" -> "insert-edge"
  | "delete" -> "delete-edge"
  | "point" -> "stats"
  | _ -> "decompose"

(* one HTTP/1.0 GET of the daemon's metrics socket, headers included *)
let scrape sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let req = "GET / HTTP/1.0\r\nHost: localhost\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      In_channel.input_all ic)

(* The traced replay: a daemon serving its Prometheus exposition replays
   a prefix of the untraced run's request sequence, for at most as long
   as that run measured. The daemon republishes its whole exposition
   after every answer, which costs more the more it has served; the
   client waits for each republish (the exposition's request counter)
   before the next request, so no latency includes the previous
   request's republish, and the overhead counts the waits. The scrape
   gives each request class's server time; the client mean minus it is
   the rest (framing, socket, client). *)
let traced r cfg d mi ~msock ~lat ~warmup_ms ~count =
  let served () = Layers.counter (Layers.of_prometheus (scrape msock)) "service.requests" in
  let expected = ref 3.0 (* hello, load-graph, warm-up decompose *) in
  let await () =
    while served () < !expected do
      Unix.sleepf 0.0002
    done
  in
  await ();
  let payloads = ref [] in
  let traced_lat, k, traced_wall =
    request_loop r cfg d mi ~count ~budget:cfg.seconds
      ~after:(fun p ->
        payloads := p :: !payloads;
        expected := !expected +. 1.0;
        await ())
  in
  (* the untraced run's wall over the same prefix *)
  let _, _, untraced_wall = List.nth (List.rev lat) (k - 1) in
  Metric.set r "obs.tracing_overhead" ((traced_wall /. untraced_wall) -. 1.0);
  let p = Layers.of_prometheus (scrape msock) in
  ignore (rpc d [ Wire.str "op" "shutdown" ]);
  reap d ~graceful:true;
  Layers.apply r p;
  Metric.set r "localsim.charged_rounds" (float_of_int p.rounds);
  Metric.set r "decomp.uf_queries" (Layers.counter p "coloring.uf_queries");
  Metric.set r "decomp.uf_rebuilds" (Layers.counter p "coloring.uf_rebuilds");
  Metric.set r "decomp.bfs_runs" (Layers.counter p "coloring.bfs_runs");
  List.iter
    (fun pass ->
      Metric.set r ("engine.pass." ^ pass ^ "_s") (Layers.total_s p ("pass:" ^ pass)))
    Metric.augment_passes;
  List.iter
    (fun cls ->
      let op = "serve:" ^ op_of_class cls in
      let calls = Layers.calls p op in
      let client =
        (if cls = "batch" then [ warmup_ms ] else []) @ class_samples traced_lat cls
      in
      if calls > 0 && client <> [] then begin
        let server_ms = Layers.total_s p op /. float_of_int calls *. 1000.0 in
        Metric.set r ("service.server." ^ cls ^ "_ms") server_ms;
        Metric.set r ("service.transport." ^ cls ^ "_ms") (Stats.mean client -. server_ms)
      end)
    Metric.classes;
  let sent = !payloads in
  let (), parse_s =
    Proc.time (fun () -> List.iter (fun s -> ignore (Wire.parse_request s)) sent)
  in
  if sent <> [] then
    Metric.set r "service.parse_us" (parse_s /. float_of_int (List.length sent) *. 1e6)

let run cfg =
  let r = Metric.create cfg.name in
  let daemons = ref [] in
  Fun.protect ~finally:(fun () -> List.iter (reap ~graceful:false) !daemons)
  @@ fun () ->
  let setup ~tag ~metrics ~edges ~edges_json =
    let ((d, _, _, _) as s), dt =
      Proc.time (fun () -> setup r cfg ~tag ~metrics ~edges ~edges_json)
    in
    daemons := d :: !daemons;
    (s, dt)
  in
  (* one set-up on instance [i] of the input family, its warm-up
     coloring checked client-side; the daemon is kept for the measured
     loop or shut down *)
  let setup_instance i ~keep =
    let g, gen_s =
      Proc.time (fun () ->
          Gen.forest_union
            (Batch.input_rng ~instance:i ~seed:cfg.seed 3)
            cfg.n cfg.alpha)
    in
    let edges = G.edges g in
    let edges_json = edges_json edges in
    let ((d, mi, colors, _), _) as s =
      setup ~tag:(string_of_int i) ~metrics:None ~edges ~edges_json
    in
    Option.iter
      (fun (c, _) ->
        Metric.attempt r
          (Result.map_error
             (( ^ ) "warm-up coloring fails the client's check: ")
             (verify_final cfg mi c)))
      colors;
    if not keep then begin
      ignore (rpc d [ Wire.str "op" "shutdown" ]);
      reap d ~graceful:true
    end;
    (s, gen_s, edges, edges_json)
  in
  (try
     (* five set-ups, each on its own instance, two before the measured
        loop and two after it so they spread over the run; the third
        serves the loop *)
     let before = List.init 2 (fun i -> setup_instance i ~keep:false) in
     let (((d, mi, _, _), _), _, edges, edges_json) as measured =
       setup_instance 2 ~keep:true
     in
     let lat, count, _ =
       request_loop r cfg d mi ~count:cfg.requests ~budget:(6.0 *. cfg.seconds)
         ~after:ignore
     in
     let rates = stretch_rates lat in
     Metric.set r "requests_per_s" (List.fold_left Float.max 0.0 rates)
       ~spread:(Stats.spread rates) ~samples:count;
     List.iter (set_class r cfg lat) Metric.classes;
     let finals = finish r cfg d mi in
     Metric.set_fastest r "decompose_s"
       (List.map (fun ms -> ms /. 1000.0) (class_samples lat "batch" @ finals));
     let setups =
       before @ (measured :: List.init 2 (fun i -> setup_instance (3 + i) ~keep:false))
     in
     Metric.set_fastest r "setup_s" (List.map (fun ((_, dt), _, _, _) -> dt) setups);
     Metric.set_median r "graphs.generate_s" (List.map (fun (_, gen_s, _, _) -> gen_s) setups);
     if cfg.trace then begin
       let msock = Proc.path (cfg.name ^ ".metrics.sock") in
       let (d, mi, _, warmup_ms), _ = setup ~tag:"t" ~metrics:(Some msock) ~edges ~edges_json in
       traced r cfg d mi ~msock ~lat ~warmup_ms ~count
     end
   with
  | Transport m -> Metric.attempt r (Error ("transport: " ^ m))
  | Unix.Unix_error (e, fn, _) ->
      Metric.attempt r (Error (fn ^ ": " ^ Unix.error_message e)));
  r
