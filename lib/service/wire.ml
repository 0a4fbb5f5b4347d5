module J = Nw_obs.Json_lite
module Jmit = Nw_obs.Json_lite.Emit

let proto = "nw-wire/1"

(* generous for graphs (a 10^6-edge load-graph frame is ~15 MB) while
   still refusing to allocate unboundedly on a garbage length prefix *)
let max_frame_bytes = 64 * 1024 * 1024

exception Protocol_error of string

let protocol_error fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let encode payload =
  let n = String.length payload in
  let b = Buffer.create (n + 12) in
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.add_char b '\n';
  Buffer.contents b

(* The one frame parser. A decoder holds the state of at most one
   partial frame: the length line as it accumulates, then the payload,
   allocated once at the length the header announced and filled in
   place, then the terminator byte. The daemon feeds it whatever each
   read(2) returned; [read_frame] drives it from a channel. *)

type phase = Header | Payload | Terminator

type decoder = {
  header : Buffer.t;
  mutable phase : phase;
  mutable payload : Bytes.t;
  mutable filled : int;
  mutable ready : string option;
}

(* a valid length line is at most 8 digits; anything this long without
   a newline is garbage, refused before it can grow without bound *)
let max_header_bytes = 64

let decoder () =
  {
    header = Buffer.create 16;
    phase = Header;
    payload = Bytes.empty;
    filled = 0;
    ready = None;
  }

let mid_frame d = d.phase <> Header || Buffer.length d.header > 0

let malformed line =
  protocol_error "malformed frame length %S"
    (if String.length line > 32 then String.sub line 0 32 else line)

let parse_length line =
  match int_of_string_opt (String.trim line) with
  | Some l when l >= 0 && l <= max_frame_bytes -> l
  | Some l -> protocol_error "frame length %d out of range" l
  | None -> malformed line

let start_payload d len =
  Buffer.clear d.header;
  d.payload <- Bytes.create len;
  d.filled <- 0;
  d.phase <- (if len = 0 then Terminator else Payload)

(* one byte of a length line or of a terminator *)
let byte d c =
  match d.phase with
  | Header ->
      if c = '\n' then start_payload d (parse_length (Buffer.contents d.header))
      else if Buffer.length d.header >= max_header_bytes then
        malformed (Buffer.contents d.header)
      else Buffer.add_char d.header c
  | Terminator ->
      if c <> '\n' then protocol_error "frame payload not newline-terminated";
      d.ready <- Some (Bytes.unsafe_to_string d.payload);
      d.payload <- Bytes.empty;
      d.phase <- Header
  | Payload -> assert false

let feed d buf off len =
  let pos = ref off and stop = off + len in
  while !pos < stop && Option.is_none d.ready do
    match d.phase with
    | Payload ->
        let k = min (stop - !pos) (Bytes.length d.payload - d.filled) in
        Bytes.blit buf !pos d.payload d.filled k;
        d.filled <- d.filled + k;
        pos := !pos + k;
        if d.filled = Bytes.length d.payload then d.phase <- Terminator
    | Header | Terminator ->
        byte d (Bytes.get buf !pos);
        incr pos
  done;
  !pos - off

let take d =
  let r = d.ready in
  d.ready <- None;
  r

(* end of input: clean only at a frame boundary. A length line cut
   short by EOF still counts as a line, as [input_line] reads it. *)
let finish d =
  match d.phase with
  | Header when Buffer.length d.header = 0 -> ()
  | Header ->
      if parse_length (Buffer.contents d.header) = 0 then
        protocol_error "truncated frame terminator"
      else protocol_error "truncated frame payload"
  | Payload -> protocol_error "truncated frame payload"
  | Terminator -> protocol_error "truncated frame terminator"

let read_frame ic =
  let d = decoder () in
  let rec go () =
    match d.phase with
    | Payload ->
        let len = Bytes.length d.payload - d.filled in
        (match really_input ic d.payload d.filled len with
        | () -> d.phase <- Terminator
        | exception End_of_file -> finish d);
        go ()
    | Header | Terminator -> (
        match input_char ic with
        | exception End_of_file ->
            finish d;
            None
        | c -> (
            byte d c;
            match take d with Some _ as frame -> frame | None -> go ()))
  in
  go ()

let write_frame oc payload =
  output_string oc (encode payload);
  flush oc

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Hello of { client_proto : string }
  | Load_graph of { session : string; n : int; edges : (int * int) list }
  | Decompose of {
      session : string;
      algorithm : string;
      epsilon : float;
      seed : int;
      alpha : int option;
    }
  | Orient of {
      session : string;
      algorithm : string;
      epsilon : float;
      seed : int;
      alpha : int option;
    }
  | Insert_edge of { session : string; u : int; v : int }
  | Delete_edge of { session : string; edge : int }
  | Arm_chaos of { session : string; plan : string; chaos_seed : int }
  | Stats of { session : string option }
  | Shutdown

type frame = { id : int; request : request }

let ( let* ) = Result.bind

let field name obj =
  match J.member name obj with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field name obj =
  let* v = field name obj in
  match J.to_string v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" name)

let int_field name obj =
  let* v = field name obj in
  match J.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S must be an integer" name)

let opt_int_field name obj =
  match J.member name obj with
  | None | Some J.Null -> Ok None
  | Some v -> (
      match J.to_int v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "field %S must be an integer" name))

let opt_str_field name obj =
  match J.member name obj with
  | None | Some J.Null -> Ok None
  | Some v -> (
      match J.to_string v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S must be a string" name))

let default_int name ~default obj =
  let* v = opt_int_field name obj in
  Ok (Option.value v ~default)

let default_float name ~default obj =
  match J.member name obj with
  | None | Some J.Null -> Ok default
  | Some v -> (
      match J.to_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S must be a number" name))

let edges_field name obj =
  let* v = field name obj in
  match J.to_list v with
  | None -> Error (Printf.sprintf "field %S must be a list" name)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.List [ a; b ] :: rest -> (
            match (J.to_int a, J.to_int b) with
            | Some u, Some v -> go ((u, v) :: acc) rest
            | _ -> Error "edges must be [u, v] integer pairs")
        | _ -> Error "edges must be [u, v] integer pairs"
      in
      go [] items

let decompose_fields obj =
  let* session = str_field "session" obj in
  let* algorithm = str_field "algorithm" obj in
  let* epsilon = default_float "epsilon" ~default:0.5 obj in
  let* seed = default_int "seed" ~default:2021 obj in
  let* alpha = opt_int_field "alpha" obj in
  Ok (session, algorithm, epsilon, seed, alpha)

let parse_request payload =
  let* obj =
    match J.parse payload with
    | v -> Ok v
    | exception J.Parse_error msg -> Error ("malformed JSON: " ^ msg)
  in
  let* id = int_field "id" obj in
  let* op = str_field "op" obj in
  let* request =
    match op with
    | "hello" ->
        let* client_proto = str_field "proto" obj in
        Ok (Hello { client_proto })
    | "load-graph" ->
        let* session = str_field "session" obj in
        let* n = int_field "n" obj in
        let* edges = edges_field "edges" obj in
        Ok (Load_graph { session; n; edges })
    | "decompose" ->
        let* session, algorithm, epsilon, seed, alpha =
          decompose_fields obj
        in
        Ok (Decompose { session; algorithm; epsilon; seed; alpha })
    | "orient" ->
        let* session, algorithm, epsilon, seed, alpha =
          decompose_fields obj
        in
        Ok (Orient { session; algorithm; epsilon; seed; alpha })
    | "insert-edge" ->
        let* session = str_field "session" obj in
        let* u = int_field "u" obj in
        let* v = int_field "v" obj in
        Ok (Insert_edge { session; u; v })
    | "delete-edge" ->
        let* session = str_field "session" obj in
        let* edge = int_field "edge" obj in
        Ok (Delete_edge { session; edge })
    | "arm-chaos" ->
        let* session = str_field "session" obj in
        let* plan = str_field "plan" obj in
        let* chaos_seed = default_int "chaos-seed" ~default:0 obj in
        Ok (Arm_chaos { session; plan; chaos_seed })
    | "stats" ->
        let* session = opt_str_field "session" obj in
        Ok (Stats { session })
    | "shutdown" -> Ok Shutdown
    | other -> Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { id; request }

(* ------------------------------------------------------------------ *)
(* responses                                                           *)
(* ------------------------------------------------------------------ *)

type field_value =
  | Fstr of string
  | Fint of int
  | Ffloat of float
  | Fbool of bool
  | Fnull
  | Fraw of string

type field = string * field_value

let str k v = (k, Fstr v)
let int k v = (k, Fint v)
let float k v = (k, Ffloat v)
let bool k v = (k, Fbool v)
let null k = (k, Fnull)
let raw k v = (k, Fraw v)

(* %.17g is the shortest-lossless-enough float form used verbatim on
   both ends of the golden tests; ints go through the int printer so
   latencies and counters never pick up an exponent *)
let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let add_field b (k, v) =
  Jmit.string b k;
  Buffer.add_char b ':';
  match v with
  | Fstr s -> Jmit.string b s
  | Fint i -> Buffer.add_string b (string_of_int i)
  | Ffloat f -> Buffer.add_string b (float_literal f)
  | Fbool x -> Buffer.add_string b (if x then "true" else "false")
  | Fnull -> Buffer.add_string b "null"
  | Fraw s -> Buffer.add_string b s

let obj fields =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      add_field b f)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let int_array a =
  let b = Buffer.create (4 * Array.length a + 2) in
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      if x < 0 then Buffer.add_string b "null"
      else Buffer.add_string b (string_of_int x))
    a;
  Buffer.add_char b ']';
  Buffer.contents b

let obj_fields = obj
let response_ok ~id fields = obj (int "id" id :: bool "ok" true :: fields)

let response_error ~id ~code ~detail =
  let idf = match id with Some i -> int "id" i | None -> null "id" in
  obj [ idf; bool "ok" false; str "error" code; str "detail" detail ]
