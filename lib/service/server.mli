(** The decomposition daemon: accept loop, request dispatch, metrics.

    [serve config] binds a Unix stream socket (reclaiming a stale socket
    file through {!Nw_obs.Metrics_server.reclaim_socket_path}, so a
    non-socket path is refused with [Invalid_argument], never unlinked),
    then answers nw-wire/1 frames one connection at a time on the
    calling domain, batch work included, so every session mutation is
    trivially race-free.

    Per request: an [Obs] span [serve:<op>] tagged with the request id
    (and session), a [service.latency_ms.<op>] histogram observation and
    a [service.requests] counter bump. Once the answer is written, the
    request's spans are folded into per-name totals
    ({!Nw_obs.Obs.fold_roots}, as {!handle} does), so the daemon's trace
    memory is bounded by the distinct span names, not by the requests
    served, and the fold is off the client's path. With
    [metrics_socket] set, a {!Nw_obs.Metrics_server} endpoint serves the
    Prometheus rendering of the live snapshot, republished after every
    request.

    A framing error ([Wire.Protocol_error]) poisons only its connection:
    the daemon answers [id:null]/[protocol-error] and closes that
    socket. A request-level failure (unknown session/algorithm, invalid
    edge, a survivable exception out of a pipeline) becomes an
    [ok:false] response on the live connection. Only resource-exhaustion
    panics and listener-level failures ({!Server_error}) escape. *)

type config = {
  socket_path : string;
  metrics_socket : string option;  (** [--serve-metrics] endpoint *)
}

(** Listener-level failure (bind/listen/accept); fatal for the daemon.
    The carried string is the diagnostic detail. *)
exception Server_error of string

(** Run the daemon until a [shutdown] frame arrives. Raises
    [Invalid_argument] when [socket_path] exists and is not a socket,
    {!Server_error} on listener failures. *)
val serve : config -> unit

(** {1 Testable core}

    The framing-free dispatch surface: one request payload in, one
    response payload out. [serve] is this plus sockets; the protocol
    tests drive [handle] directly so malformed-frame and session-logic
    coverage needs no daemon process. *)

type state

val create_state : unit -> state

(** Requests dispatched so far (well-formed or not). *)
val requests : state -> int

(** Responses answered with [ok:false] so far. *)
val errors : state -> int

(** [handle state payload] dispatches one request payload and returns
    the response payload plus whether the daemon should keep serving.
    Never raises on hostile input — parse failures and survivable
    dispatch exceptions become error responses. Ends with
    {!Nw_obs.Obs.fold_roots}: the request's completed spans survive as
    per-name totals in the current Obs collection, not as a tree. *)
val handle : state -> string -> string * [ `Continue | `Shutdown ]
