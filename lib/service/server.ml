module Obs = Nw_obs.Obs
module Prometheus = Nw_obs.Prometheus
module Metrics_server = Nw_obs.Metrics_server
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
      Wire.int "alpha" d.Session.d_alpha;
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
   the span names seen, not by the requests served. [serve_connection]
   folds only after the answer is written, so the fold stays off the
   client's path. *)
let handle st payload =
  let answer = serve_payload st payload in
  Obs.fold_roots ();
  answer

(* ------------------------------------------------------------------ *)
(* the daemon                                                          *)
(* ------------------------------------------------------------------ *)

let serve_connection st client ~publish ~stop =
  let ic = Unix.in_channel_of_descr client in
  let oc = Unix.out_channel_of_descr client in
  let close_conn () =
    (* closing the out channel flushes and closes the shared fd *)
    try close_out oc with Sys_error _ -> ()
  in
  let rec loop () =
    match Wire.read_frame ic with
    | None -> ()
    | Some payload ->
        let resp, k = serve_payload st payload in
        Wire.write_frame oc resp;
        Obs.fold_roots ();
        publish ();
        (match k with
        | `Continue -> loop ()
        | `Shutdown -> stop := true)
    | exception Wire.Protocol_error detail ->
        (* the stream is out of sync: answer what we can, drop only
           this connection — the daemon survives *)
        st.st_errors <- st.st_errors + 1;
        Obs.count "service.errors";
        (try
           Wire.write_frame oc
             (Wire.response_error ~id:None ~code:"protocol-error" ~detail)
         with Sys_error _ -> ())
  in
  Fun.protect ~finally:close_conn (fun () ->
      try loop () with Sys_error _ -> ())

let serve config =
  (* shared reclaim policy with the metrics endpoint: stale socket files
     are swept, anything else at the path is refused (Invalid_argument) *)
  Metrics_server.reclaim_socket_path ~whom:"forestd serve"
    config.socket_path;
  (* a dropped client mid-write must be a Sys_error on the channel, not
     a process-killing SIGPIPE *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let fd =
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | fd -> fd
    | exception Unix.Unix_error (e, _, _) ->
        raise (Server_error ("socket: " ^ Unix.error_message e))
  in
  (match Unix.bind fd (Unix.ADDR_UNIX config.socket_path) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise
        (Server_error
           (Printf.sprintf "bind %s: %s" config.socket_path
              (Unix.error_message e))));
  (match Unix.listen fd 16 with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Server_error ("listen: " ^ Unix.error_message e)));
  (* the request spans/histograms always run ([handle] folds each
     request's spans into per-name totals); the exposition endpoint is
     opt-in. Obs-on changes no served bytes. *)
  Obs.set_enabled true;
  let published = Atomic.make "" in
  let msrv =
    Option.map
      (fun path ->
        Metrics_server.start ~path (fun () -> Atomic.get published))
      config.metrics_socket
  in
  let publish () =
    if Option.is_some msrv then
      Atomic.set published (Prometheus.to_string [ Obs.live_snapshot () ])
  in
  let finish () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
    Option.iter Metrics_server.stop msrv
  in
  Fun.protect ~finally:finish @@ fun () ->
  fst
  @@ Obs.collect
  @@ fun () ->
  let st = create_state () in
  let stop = ref false in
  while not !stop do
    match Unix.accept fd with
    | client, _ -> serve_connection st client ~publish ~stop
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        ()
    | exception Unix.Unix_error (e, _, _) ->
        raise (Server_error ("accept: " ^ Unix.error_message e))
  done
