(** The decomposition daemon: one select loop, request dispatch, metrics.

    [serve config] binds a Unix stream socket, and the metrics socket
    when one is configured (each path reclaimed through
    {!Metrics.reclaim_socket_path}, so a non-socket path is refused with
    [Invalid_argument], never unlinked). Then one [Unix.select] loop on
    the calling domain watches both listeners and every open
    connection. Each connection has its own {!Wire.decoder}; every
    complete frame is answered in turn, batch work included, so session
    mutations need no locking and one client's partial frame holds up
    nobody else.

    Limits, all fixed in the module:
    - a frame that has started must complete within a 2 s frame
      deadline, or its connection is closed
      ([service.connections_closed.deadline]);
    - a response write that makes no progress for as long
      ([SO_SNDTIMEO]) closes its connection under the same counter;
    - between frames a connection has no timer, but at most 64 are open:
      one more evicts the longest-idle
      ([service.connections_closed.evicted]);
    - running out of descriptors on accept pauses accepting, never the
      daemon.

    A scrape of the metrics socket is answered inside the loop: the
    scraper's HTTP request head is read, then the Prometheus rendering
    of {!Nw_obs.Obs.live_snapshot} taken at that moment is written
    back, and the connection is closed.

    Per request: an [Obs] span [serve:<op>] tagged with the request id
    (and session), a [service.latency_ms.<op>] histogram observation and
    a [service.requests] counter bump. Once the answer is written, the
    request's spans are folded into per-name totals
    ({!Nw_obs.Obs.fold_roots}, as {!handle} does), so the daemon's trace
    memory is bounded by the distinct span names, not by the requests
    served, and the fold is off the client's path.

    A framing error ([Wire.Protocol_error]) poisons only its connection:
    the daemon answers [id:null]/[protocol-error] and closes that
    socket. A request-level failure (unknown session/algorithm, invalid
    edge, a survivable exception out of a pipeline) becomes an
    [ok:false] response on the live connection. Only resource-exhaustion
    panics and listener-level failures ({!Server_error}) escape. A
    [shutdown] frame stops the loop once it is answered, closing every
    other open connection. *)

type config = {
  socket_path : string;
  metrics_socket : string option;
      (** [forestd serve --serve-metrics]: Prometheus scrapes *)
}

(** Listener-level failure (socket/bind/listen/accept); fatal for the
    daemon. The carried string is the diagnostic detail. *)
exception Server_error of string

(** The cap on open connections (64). *)
val max_connections : int

(** Run the daemon until a [shutdown] frame arrives. Raises
    [Invalid_argument] when [socket_path] or [metrics_socket] exists and
    is not a socket, {!Server_error} on listener failures. *)
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
