(** The daemon's Unix-socket listeners and its Prometheus scrape answer.

    Both sockets of [forestd serve] (requests, and the optional metrics
    socket) go through {!reclaim_socket_path} and {!listen}; the select
    loop in {!Server} answers a scrape with {!http_response} once
    {!request_ended} says the scraper's request has been read. Scrape
    with [curl --unix-socket PATH http://localhost/]. *)

(** [reclaim_socket_path ~whom path] unlinks a stale socket file left at
    [path] by a listener that died before unlinking it, so a rebind never
    fails with EADDRINUSE. A missing file is fine; anything at [path]
    that is not a socket raises [Invalid_argument] ("[whom]: ... exists
    and is not a socket") instead of being deleted — that is someone
    else's file. *)
val reclaim_socket_path : whom:string -> string -> unit

(** [listen path] binds a listening Unix stream socket at [path] (which
    the caller has reclaimed). [Error] names the failing call. *)
val listen : string -> (Unix.file_descr, string) result

(** The bytes read so far hold a complete HTTP request head (a blank
    line). *)
val request_ended : string -> bool

(** The HTTP/1.0 [200] response carrying [body] as Prometheus text
    exposition. *)
val http_response : string -> string
