(* The daemon's Unix-socket listeners and its scrape answer: one reclaim
   policy and one listen helper for the request socket and the metrics
   socket, and the HTTP/1.0 response a scrape gets. The daemon's select
   loop owns the sockets; nothing here blocks or keeps state. *)

let unlink_existing path =
  try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* reclaim a stale socket file (a daemon that died before it could
   unlink) so a restart never sees EADDRINUSE — but refuse to delete
   anything that is not a socket: that is someone else's file and
   silently unlinking it would be data loss *)
let reclaim_socket_path ~whom path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> unlink_existing path
  | _ ->
      invalid_arg
        (Printf.sprintf "%s: %s exists and is not a socket" whom path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let listen path =
  match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("socket: " ^ Unix.error_message e)
  | fd -> (
      match
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 16
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, fn, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "%s %s: %s" fn path (Unix.error_message e)))

(* the scraper's request is read to its blank line before the answer:
   on Linux, closing a Unix socket with unread bytes makes the peer's
   next read fail with ECONNRESET, response or not *)
let request_ended s =
  let n = String.length s in
  let rec at i =
    i + 1 < n
    && ((s.[i] = '\n' && s.[i + 1] = '\n')
       || (i + 3 < n && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
          && s.[i + 3] = '\n')
       || at (i + 1))
  in
  at 0

let http_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body
