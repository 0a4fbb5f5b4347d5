module Obs = Nw_obs.Obs
module Prometheus = Nw_obs.Prometheus
module Plan = Nw_chaos.Plan
module Registry = Nw_engine.Registry
module J = Nw_obs.Json_lite
module Jmit = Nw_obs.Json_lite.Emit

type config = {
  socket_path : string;
  metrics_socket : string option;
}

exception Server_error of string

type state = {
  sessions : (string, Session.t) Hashtbl.t;
  mutable st_requests : int;
  mutable st_errors : int;
}

let create_state () =
  { sessions = Hashtbl.create 16; st_requests = 0; st_errors = 0 }

let requests st = st.st_requests
let errors st = st.st_errors
let survivable = function Out_of_memory | Stack_overflow -> false | _ -> true

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let op_label = function
  | Wire.Hello _ -> "hello"
  | Wire.Load_graph _ -> "load-graph"
  | Wire.Decompose _ -> "decompose"
  | Wire.Orient _ -> "orient"
  | Wire.Insert_edge _ -> "insert-edge"
  | Wire.Delete_edge _ -> "delete-edge"
  | Wire.Arm_chaos _ -> "arm-chaos"
  | Wire.Stats _ -> "stats"
  | Wire.Shutdown -> "shutdown"

let session_of = function
  | Wire.Hello _ | Wire.Shutdown -> None
  | Wire.Load_graph { session; _ }
  | Wire.Decompose { session; _ }
  | Wire.Orient { session; _ }
  | Wire.Insert_edge { session; _ }
  | Wire.Delete_edge { session; _ }
  | Wire.Arm_chaos { session; _ } ->
      Some session
  | Wire.Stats { session } -> session

(* best-effort id recovery for error responses to payloads that failed
   full parsing: a client that at least sent an integer id deserves to
   correlate the rejection *)
let recover_id payload =
  match J.parse payload with
  | exception J.Parse_error _ -> None
  | v -> Option.bind (J.member "id" v) J.to_int

let err st ~id code detail =
  st.st_errors <- st.st_errors + 1;
  Obs.count "service.errors";
  Wire.response_error ~id ~code ~detail

let with_session st ~id session k =
  match Hashtbl.find_opt st.sessions session with
  | Some s -> k s
  | None ->
      err st ~id:(Some id) "unknown-session"
        (Printf.sprintf "no session named %S (load-graph first)" session)

let algorithms_json () =
  let b = Buffer.create 128 in
  Buffer.add_char b '[';
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      Jmit.string b name)
    (Registry.names ());
  Buffer.add_char b ']';
  Buffer.contents b

let chaos_json (cs : Session.chaos_summary) =
  Printf.sprintf
    "{\"valid\":%d,\"detected\":%d,\"corrupt\":%d,\"recoveries\":%d}"
    cs.Session.cs_valid cs.cs_detected cs.cs_corrupt cs.cs_recoveries

let session_json s =
  Wire.(
    obj_fields
      [
        str "session" (Session.name s);
        int "n" (Session.vertex_count s);
        int "live_edges" (Session.live_edges s);
        int "total_slots" (Session.total_slots s);
        int "epoch" (Session.epoch s);
        int "incremental_updates" (Session.incremental_updates s);
        int "fallbacks" (Session.fallbacks s);
        (match Session.last_algorithm s with
        | Some a -> str "algorithm" a
        | None -> null "algorithm");
        bool "chaos_armed" (Session.chaos_armed s);
      ])

let decomposed_fields s ~algorithm (d : Session.decomposed) =
  let base =
    [
      Wire.str "session" (Session.name s);
      Wire.int "epoch" d.Session.d_epoch;
      Wire.str "algorithm" algorithm;
      Wire.str "mode" "full";
      (match d.Session.d_alpha with
      | Some a -> Wire.int "alpha" a
      | None -> Wire.null "alpha");
    ]
  in
  let out =
    match d.Session.d_output with
    | Session.Colored { slot_colors; colors_used } ->
        [
          Wire.int "colors_used" colors_used;
          Wire.raw "colors" (Wire.int_array slot_colors);
        ]
    | Session.Oriented { heads; max_out_degree } ->
        [
          Wire.int "max_out_degree" max_out_degree;
          Wire.raw "heads" (Wire.int_array heads);
        ]
    | Session.Pseudo { slot_colors; k } ->
        [
          Wire.int "pseudo_forests" k;
          Wire.raw "colors" (Wire.int_array slot_colors);
        ]
  in
  let verified =
    match d.Session.d_verified with
    | Ok () -> [ Wire.bool "verified" true ]
    | Error msg ->
        [ Wire.bool "verified" false; Wire.str "verify_error" msg ]
  in
  let chaos =
    match d.Session.d_chaos with
    | None -> []
    | Some cs -> [ Wire.raw "chaos" (chaos_json cs) ]
  in
  base @ out @ verified @ chaos

let churn_fields s (c : Session.churn) =
  [
    Wire.str "session" (Session.name s);
    Wire.int "edge" c.Session.ch_edge;
    (match c.Session.ch_color with
    | Some color -> Wire.int "color" color
    | None -> Wire.null "color");
    Wire.str "mode" (Session.mode_label c.Session.ch_mode);
    Wire.int "epoch" c.Session.ch_epoch;
    Wire.int "live_edges" (Session.live_edges s);
  ]

let run_batch st ~id ~op ~session ~algorithm ~epsilon ~seed ~alpha =
  with_session st ~id session @@ fun s ->
  match Registry.find algorithm with
  | None ->
      err st ~id:(Some id) "unknown-algorithm"
        (Printf.sprintf "no algorithm named %S (see hello.algorithms)"
           algorithm)
  | Some entry -> (
      let orientation_entry =
        match entry.Registry.yields with
        | Registry.Orientation_out -> true
        | Registry.Coloring_out | Registry.Pseudo_out -> false
      in
      let mismatch =
        match op with
        | `Orient -> not orientation_entry
        | `Decompose -> orientation_entry
      in
      if mismatch then
        err st ~id:(Some id) "wrong-op"
          (Printf.sprintf
             "%S yields %s output; use the %s op"
             algorithm
             (if orientation_entry then "an orientation" else "a decomposition")
             (if orientation_entry then "orient" else "decompose"))
      else
        match Session.decompose s ~entry ~epsilon ~seed ~alpha with
        | Ok d -> Wire.response_ok ~id (decomposed_fields s ~algorithm d)
        | Error detail -> err st ~id:(Some id) "decompose-failed" detail)

let dispatch st ~id request =
  match request with
  | Wire.Hello { client_proto } ->
      if String.equal client_proto Wire.proto then begin
        let registry, registry_hash = Registry.stamp () in
        Wire.response_ok ~id
          [
            Wire.str "proto" Wire.proto;
            Wire.str "server" "forestd";
            Wire.str "registry" registry;
            Wire.str "registry_hash" registry_hash;
            Wire.raw "algorithms" (algorithms_json ());
          ]
      end
      else
        err st ~id:(Some id) "proto-mismatch"
          (Printf.sprintf "server speaks %s, client sent %s" Wire.proto
             client_proto)
  | Wire.Load_graph { session; n; edges } -> (
      let bad =
        if n < 0 then Some "negative vertex count"
        else
          List.fold_left
            (fun acc (u, v) ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match Session.valid_edge ~n u v with
                  | Ok () -> None
                  | Error e ->
                      Some (Printf.sprintf "edge (%d, %d): %s" u v e)))
            None edges
      in
      match bad with
      | Some detail -> err st ~id:(Some id) "bad-graph" detail
      | None ->
          let s = Session.create ~name:session ~n ~edges in
          Hashtbl.replace st.sessions session s;
          Wire.response_ok ~id
            [
              Wire.str "session" session;
              Wire.int "n" n;
              Wire.int "edges" (List.length edges);
              Wire.int "epoch" (Session.epoch s);
            ])
  | Wire.Decompose { session; algorithm; epsilon; seed; alpha } ->
      run_batch st ~id ~op:`Decompose ~session ~algorithm ~epsilon ~seed
        ~alpha
  | Wire.Orient { session; algorithm; epsilon; seed; alpha } ->
      run_batch st ~id ~op:`Orient ~session ~algorithm ~epsilon ~seed ~alpha
  | Wire.Insert_edge { session; u; v } -> (
      with_session st ~id session @@ fun s ->
      match Session.insert_edge s ~u ~v with
      | Ok c -> Wire.response_ok ~id (churn_fields s c)
      | Error detail -> err st ~id:(Some id) "bad-edge" detail)
  | Wire.Delete_edge { session; edge } -> (
      with_session st ~id session @@ fun s ->
      match Session.delete_edge s ~edge with
      | Ok c -> Wire.response_ok ~id (churn_fields s c)
      | Error detail -> err st ~id:(Some id) "bad-edge" detail)
  | Wire.Arm_chaos { session; plan; chaos_seed } -> (
      with_session st ~id session @@ fun s ->
      match Plan.of_string plan with
      | Error detail -> err st ~id:(Some id) "bad-plan" detail
      | Ok p ->
          Session.arm_chaos s ~plan:p ~chaos_seed;
          Wire.response_ok ~id
            [
              Wire.str "session" session;
              Wire.str "plan" (Plan.to_string p);
              Wire.str "plan_digest" (Plan.digest p);
              Wire.int "chaos_seed" chaos_seed;
              Wire.int "epoch" (Session.epoch s);
            ])
  | Wire.Stats { session = Some session } ->
      with_session st ~id session @@ fun s ->
      Wire.response_ok ~id [ Wire.raw "session_stats" (session_json s) ]
  | Wire.Stats { session = None } ->
      let b = Buffer.create 256 in
      Buffer.add_char b '[';
      let first = ref true in
      Hashtbl.iter
        (fun _ s ->
          if not !first then Buffer.add_char b ',';
          first := false;
          Buffer.add_string b (session_json s))
        st.sessions;
      Buffer.add_char b ']';
      Wire.response_ok ~id
        [
          Wire.int "requests" st.st_requests;
          Wire.int "errors" st.st_errors;
          Wire.int "session_count" (Hashtbl.length st.sessions);
          Wire.raw "sessions" (Buffer.contents b);
        ]
  | Wire.Shutdown ->
      Wire.response_ok ~id [ Wire.bool "stopping" true ]

let serve_payload st payload =
  st.st_requests <- st.st_requests + 1;
  Obs.count "service.requests";
  match Wire.parse_request payload with
  | Error detail ->
      ( err st ~id:(recover_id payload) "bad-request" detail,
        `Continue )
  | Ok { Wire.id; request } ->
      let label = op_label request in
      let attrs =
        (("request_id", Obs.Int id) :: []
        |> fun l ->
        match session_of request with
        | Some s -> ("session", Obs.Str s) :: l
        | None -> l)
      in
      let t0 = Obs.now_ns () in
      let resp =
        Obs.span ~attrs ("serve:" ^ label) @@ fun () ->
        match dispatch st ~id request with
        | resp -> resp
        | exception exn when survivable exn ->
            err st ~id:(Some id) "internal-error" (Printexc.to_string exn)
      in
      let dt_ms =
        Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1_000_000.
      in
      Obs.observe ("service.latency_ms." ^ label) dt_ms;
      let continue =
        match request with Wire.Shutdown -> `Shutdown | _ -> `Continue
      in
      (resp, continue)

(* the request's [serve:<op>] span has closed: keep its per-name totals
   and drop the tree, so a long-lived collection holds memory bounded by
   the span names seen, not by the requests served. The daemon folds
   only after the answer is written, so the fold stays off the client's
   path. *)
let handle st payload =
  let answer = serve_payload st payload in
  Obs.fold_roots ();
  answer

(* ------------------------------------------------------------------ *)
(* the daemon                                                          *)
(* ------------------------------------------------------------------ *)

(* a frame that has started must finish within this bound, and a
   response write that makes no progress for as long (SO_SNDTIMEO)
   closes its connection too *)
let frame_deadline_s = 2.0

(* open connections, clients and scrapers together; one more evicts the
   longest-idle *)
let max_connections = 64

(* a scraper whose request head outgrows this is answered anyway *)
let max_scrape_request = 8192

type kind = Client of Wire.decoder | Scrape of Buffer.t

type conn = {
  fd : Unix.file_descr;
  kind : kind;
  mutable started : float;  (* when the pending frame or scrape began *)
  mutable last_active : float;
}

let now () = Int64.to_float (Obs.now_ns ()) *. 1e-9

(* a connection is on the clock while a frame or a scrape is pending;
   between frames a client blocks nobody and has no timer *)
let pending c =
  match c.kind with Client d -> Wire.mid_frame d | Scrape _ -> true

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let serve config =
  let paths = config.socket_path :: Option.to_list config.metrics_socket in
  (* stale socket files are swept, anything else at a path is refused
     (Invalid_argument) before either socket is bound *)
  List.iter (Metrics.reclaim_socket_path ~whom:"forestd serve") paths;
  (* a dropped client mid-write must be an EPIPE on the write, not a
     process-killing SIGPIPE *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let bound = ref [] and conns = ref [] in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let finish () =
    List.iter (fun c -> close c.fd) !conns;
    List.iter
      (fun (fd, path) ->
        close fd;
        try Unix.unlink path with Unix.Unix_error _ -> ())
      !bound
  in
  Fun.protect ~finally:finish @@ fun () ->
  let listen path =
    match Metrics.listen path with
    | Ok fd ->
        bound := (fd, path) :: !bound;
        fd
    | Error detail -> raise (Server_error detail)
  in
  let lfd = listen config.socket_path in
  let mfd = Option.map listen config.metrics_socket in
  (* the request spans/histograms always run ([handle] folds each
     request's spans into per-name totals); scrapes render them live.
     Obs-on changes no served bytes. *)
  Obs.set_enabled true;
  fst
  @@ Obs.collect
  @@ fun () ->
  let st = create_state () in
  let stop = ref false in
  let buf = Bytes.create 65536 in
  let drop ?reason c =
    conns := List.filter (fun c' -> c'.fd <> c.fd) !conns;
    Option.iter (fun r -> Obs.count ("service.connections_closed." ^ r)) reason;
    close c.fd
  in
  (* false when the write failed and the connection is gone *)
  let send c s =
    match write_all c.fd s with
    | () -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        drop ~reason:"deadline" c;
        false
    | exception Unix.Unix_error _ ->
        drop c;
        false
  in
  (* the stream is out of sync: answer what we can, drop only this
     connection — the daemon survives *)
  let protocol_error c detail =
    st.st_errors <- st.st_errors + 1;
    Obs.count "service.errors";
    let resp = Wire.response_error ~id:None ~code:"protocol-error" ~detail in
    if send c (Wire.encode resp) then drop c
  in
  let answer c payload =
    let resp, k = serve_payload st payload in
    let open_ = send c (Wire.encode resp) in
    Obs.fold_roots ();
    if k = `Shutdown then stop := true;
    open_
  in
  let read_client c d t =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> drop c
    | 0 -> (
        match Wire.finish d with
        | () -> drop c
        | exception Wire.Protocol_error detail -> protocol_error c detail)
    | n ->
        c.last_active <- t;
        if not (Wire.mid_frame d) then c.started <- t;
        let rec consume off =
          if off < n && not !stop then
            match Wire.feed d buf off (n - off) with
            | exception Wire.Protocol_error detail -> protocol_error c detail
            | k -> (
                match Wire.take d with
                | None -> ()
                | Some payload ->
                    c.started <- t;
                    if answer c payload then consume (off + k))
        in
        consume 0
  in
  let read_scrape c b =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> drop c
    | n ->
        Buffer.add_subbytes b buf 0 n;
        if
          n = 0
          || Buffer.length b > max_scrape_request
          || Metrics.request_ended (Buffer.contents b)
        then begin
          let body = Prometheus.to_string [ Obs.live_snapshot () ] in
          if send c (Metrics.http_response body) then drop c
        end
  in
  let accept lfd kind =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        if List.length !conns >= max_connections then
          drop ~reason:"evicted"
            (List.fold_left
               (fun a c -> if c.last_active < a.last_active then c else a)
               (List.hd !conns) !conns);
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO frame_deadline_s;
        let t = now () in
        conns := { fd; kind = kind (); started = t; last_active = t } :: !conns
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        (* out of descriptors: the client waits in the backlog; pause
           rather than spin on a listener that stays readable *)
        Unix.sleepf 0.01
    | exception Unix.Unix_error (e, _, _) ->
        raise (Server_error ("accept: " ^ Unix.error_message e))
  in
  let listeners = lfd :: Option.to_list mfd in
  while not !stop do
    let t = now () in
    let timeout =
      List.fold_left
        (fun acc c ->
          if pending c then Float.min acc (c.started +. frame_deadline_s -. t)
          else acc)
        Float.infinity !conns
    in
    let timeout =
      if timeout = Float.infinity then -1.0 else Float.max 0.0 timeout
    in
    match
      Unix.select (listeners @ List.map (fun c -> c.fd) !conns) [] [] timeout
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        let t = now () in
        (* connections first: an accept may evict one and hand its
           descriptor number to a client that has sent nothing yet *)
        List.iter
          (fun fd ->
            if not !stop then
              match List.find_opt (fun c -> c.fd = fd) !conns with
              | Some ({ kind = Client d; _ } as c) -> read_client c d t
              | Some ({ kind = Scrape b; _ } as c) -> read_scrape c b
              | None -> ())
          ready;
        if not !stop then begin
          if List.mem lfd ready then
            accept lfd (fun () -> Client (Wire.decoder ()));
          Option.iter
            (fun m ->
              if List.mem m ready then
                accept m (fun () -> Scrape (Buffer.create 128)))
            mfd;
          (* a pending frame that sent nothing this round and has run
             out its deadline *)
          List.iter
            (fun c ->
              if
                pending c
                && t -. c.started >= frame_deadline_s
                && not (List.mem c.fd ready)
              then drop ~reason:"deadline" c)
            !conns
        end
  done
