(** nw-wire/1: the daemon's framing and message vocabulary.

    Frames are length-prefixed JSON lines over a Unix stream socket:

    {v <payload-byte-count as decimal ASCII>\n<payload>\n v}

    The payload is one RFC 8259 JSON object parsed with
    {!Nw_obs.Json_lite} (so hostile strings round-trip through the same
    escaper as every other JSON artifact in the tree). Requests carry an
    integer [id] echoed verbatim in the response; responses are
    [{"id":..,"ok":true,..}] or [{"id":..,"ok":false,"error":..,
    "detail":..}]. A malformed frame is a per-connection error
    ({!Protocol_error}); the daemon answers with [id:null] where the id
    could not be recovered and drops only that connection, never the
    process. See [docs/service.md] for the full wire contract. *)

(** Protocol version announced by [hello]. *)
val proto : string

(** Hard ceiling on a single frame's payload size (bytes); a length
    prefix beyond it is a {!Protocol_error}, not an allocation. *)
val max_frame_bytes : int

(** Framing violation: unparsable length prefix, oversized or truncated
    payload, missing frame terminator. Raised by {!feed}, {!finish} and
    {!read_frame}; the connection is no longer in sync and must be
    closed. *)
exception Protocol_error of string

(** [encode payload] is the framed bytes for one payload. *)
val encode : string -> string

(** {1 Incremental decoding}

    The one frame parser, fed whatever bytes arrive: the daemon feeds
    each connection's decoder from [read(2)], {!read_frame} drives one
    from a channel. A payload is allocated once, at the length its
    header announces, and filled in place. *)

type decoder

val decoder : unit -> decoder

(** [feed d buf off len] consumes bytes of [buf] up to the end of the
    first frame they complete and returns how many it consumed; collect
    that frame with {!take}, then feed the rest.
    @raise Protocol_error when the stream desynchronizes. *)
val feed : decoder -> Bytes.t -> int -> int -> int

(** The frame the last {!feed} completed, once. *)
val take : decoder -> string option

(** Some bytes of a frame have arrived, but not all of them. *)
val mid_frame : decoder -> bool

(** End of input: returns at a frame boundary.
    @raise Protocol_error on a truncated frame. *)
val finish : decoder -> unit

(** Read one frame; [None] on clean EOF at a frame boundary.
    @raise Protocol_error when the stream desynchronizes. *)
val read_frame : in_channel -> string option

(** [write_frame oc payload] writes one framed payload and flushes. *)
val write_frame : out_channel -> string -> unit

(** {1 Requests} *)

type request =
  | Hello of { client_proto : string }
  | Load_graph of { session : string; n : int; edges : (int * int) list }
      (** create/replace a named session holding an [n]-vertex graph *)
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

(** Parse one request payload. [Error detail] covers JSON syntax errors,
    a missing/non-integer [id], an unknown [op] and missing or
    ill-typed fields; the detail string is safe to echo back. *)
val parse_request : string -> (frame, string) result

(** {1 Responses}

    Responses are built with an ordered field list so the encoding is a
    pure function of the fields — the golden tests pin served bytes
    against locally re-encoded expectations. *)

type field

val str : string -> string -> field
val int : string -> int -> field
val float : string -> float -> field
val bool : string -> bool -> field
val null : string -> field

(** [raw k json] splices pre-rendered JSON (arrays, nested objects). *)
val raw : string -> string -> field

(** [int_array a] renders [a] as a JSON array literal, [-1] as [null]
    (the uncolored/dead-slot convention of the decompose response). *)
val int_array : int array -> string

(** Render a bare JSON object from ordered fields (for nesting via
    {!raw}). *)
val obj_fields : field list -> string

val response_ok : id:int -> field list -> string
val response_error : id:int option -> code:string -> detail:string -> string
