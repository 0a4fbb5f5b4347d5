(* Intrinsic effect extraction.

   Each project definition (and each synthetic node for a lambda handed
   to a spawn point) gets a node with:

   - its intrinsic *events*: writes/reads of top-level mutable state
     classified by region, Store accesses with resolved literal keys,
     Domain.DLS traffic, and the effectful primitives (IO, wall clock,
     unseeded Random);
   - its *call edges*: every reference that resolves to a project
     definition (bare references count — a function passed to
     List.iter may be called);
   - its *spawn edges*: the callback arguments of Dpool.run,
     Domain.spawn, and the sharded Msg_net round entry points.

   Writes whose target root is a local, a parameter, or a captured
   binding are the per-shard mailbox discipline and are not events;
   only targets that resolve to a top-level project definition count.
   The region model (docs/static-analysis.md): Scratch and Obs/Rounds
   are sanctioned state, Chaos.Rng is the seed-threaded draw source,
   allowlisted merge accumulators are Accum, everything else that is
   written is a global-ref. *)

open Ppxlib
module P = Project

type region = Scratch | Obs | Rng | Accum | Store_region | Global

let region_name = function
  | Scratch -> "Scratch"
  | Obs -> "Obs/Rounds"
  | Rng -> "Chaos.Rng"
  | Accum -> "accumulator"
  | Store_region -> "Store"
  | Global -> "global-ref"

type event =
  | Write_global of string * region  (* canonical target *)
  | Read_mutable of string * region
  | Store_write of string option  (* resolved literal key *)
  | Store_read of string option
  | Dls_write
  | Dls_read
  | Dls_new_key  (* only recorded when created under a lambda *)
  | Io of string
  | Wall_clock of string
  | Rng_unseeded of string

type spawn_kind = Dpool_run | Domain_spawn | Msgnet_callback of string

let spawn_kind_name = function
  | Dpool_run -> "Dpool.run"
  | Domain_spawn -> "Domain.spawn"
  | Msgnet_callback label -> "Msg_net round ~" ^ label

type node = {
  n_name : string;
  n_loc : Location.t;
  n_synthetic : bool;
  mutable n_events : (event * Location.t) list;
  mutable n_calls : (string * Location.t) list;
  mutable n_spawns : (spawn_kind * string * Location.t) list;
}

type config = {
  scratch_modules : string list;
  accumulators : string list;  (* canonical allowlisted merge accumulators *)
  obs_prefixes : string list;  (* canonical prefixes of sanctioned state *)
  rng_prefixes : string list;
  dpool_run : string list;  (* canonical spawn entry points *)
  msgnet_fns : string list;  (* sharded round entry points, by last segment *)
  store_prefixes : string list;  (* canonical Store module prefixes *)
  pure_roots : string list;  (* canonical prefixes EFF001 treats as pure *)
  merge_markers : string list;  (* substrings naming merge-phase functions *)
}

let default_config =
  {
    scratch_modules = [ "Scratch"; "Counters" ];
    accumulators =
      [ "Nw_localsim.Dpool.worker_minor"; "Nw_localsim.Dpool.worker_major" ];
    obs_prefixes = [ "Nw_obs."; "Nw_localsim.Rounds." ];
    rng_prefixes = [ "Nw_chaos.Rng." ];
    dpool_run = [ "Nw_localsim.Dpool.run" ];
    msgnet_fns =
      [
        "round";
        "round_count";
        "round_exchange";
        "round_exchange_edges";
        "run_until";
      ];
    store_prefixes = [ "Nw_engine.Store." ];
    pure_roots = [ "Nw_chaos.Rng."; "Nw_chaos.Plan."; "Nw_decomp.Verify." ];
    merge_markers = [ "merge" ];
  }

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* region of a canonical definition name *)
let region_of cfg name =
  let segs = String.split_on_char '.' name in
  let mods = match segs with [] | [ _ ] -> [] | _ -> P.drop_last segs in
  if List.exists (fun m -> List.mem m cfg.scratch_modules) mods then Scratch
  else if List.mem name cfg.accumulators then Accum
  else if List.exists (fun p -> has_prefix ~prefix:p name) cfg.obs_prefixes
  then Obs
  else if List.exists (fun p -> has_prefix ~prefix:p name) cfg.rng_prefixes
  then Rng
  else Global

let obs_owned cfg name =
  List.exists (fun p -> has_prefix ~prefix:p name) cfg.obs_prefixes

(* mutator-call table: canonical stdlib mutators and the index of the
   argument they mutate *)
let mutators =
  [
    ([ "Array"; "set" ], 0);
    ([ "Array"; "fill" ], 0);
    ([ "Array"; "blit" ], 2);
    ([ "Array"; "unsafe_set" ], 0);
    ([ "Bytes"; "set" ], 0);
    ([ "Bytes"; "unsafe_set" ], 0);
    ([ "Bytes"; "fill" ], 0);
    ([ "Bytes"; "blit" ], 2);
    ([ "Hashtbl"; "add" ], 0);
    ([ "Hashtbl"; "replace" ], 0);
    ([ "Hashtbl"; "remove" ], 0);
    ([ "Hashtbl"; "reset" ], 0);
    ([ "Hashtbl"; "clear" ], 0);
    ([ "Hashtbl"; "filter_map_inplace" ], 1);
    ([ "Atomic"; "set" ], 0);
    ([ "Atomic"; "exchange" ], 0);
    ([ "Atomic"; "compare_and_set" ], 0);
    ([ "Atomic"; "fetch_and_add" ], 0);
    ([ "Atomic"; "incr" ], 0);
    ([ "Atomic"; "decr" ], 0);
    ([ "Buffer"; "add_char" ], 0);
    ([ "Buffer"; "add_string" ], 0);
    ([ "Buffer"; "add_substring" ], 0);
    ([ "Buffer"; "add_buffer" ], 0);
    ([ "Buffer"; "clear" ], 0);
    ([ "Buffer"; "reset" ], 0);
    ([ "Buffer"; "truncate" ], 0);
    ([ "Queue"; "push" ], 1);
    ([ "Queue"; "add" ], 1);
    ([ "Queue"; "pop" ], 0);
    ([ "Queue"; "take" ], 0);
    ([ "Queue"; "clear" ], 0);
    ([ "Stack"; "push" ], 1);
    ([ "Stack"; "pop" ], 0);
    ([ "Stack"; "clear" ], 0);
  ]

let mutable_readers =
  [ [ "Atomic"; "get" ]; [ "Hashtbl"; "find" ]; [ "Hashtbl"; "find_opt" ];
    [ "Hashtbl"; "mem" ]; [ "Hashtbl"; "length" ]; [ "Queue"; "peek" ];
    [ "Buffer"; "contents" ] ]

let wall_clocks =
  [ [ "Unix"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Sys"; "time" ] ]

let io_calls =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_char" ]; [ "print_int" ]; [ "print_float" ];
    [ "prerr_string" ]; [ "prerr_endline" ]; [ "prerr_newline" ];
    [ "print_bytes" ]; [ "prerr_bytes" ]; [ "read_line" ]; [ "read_int" ];
    [ "output_string" ]; [ "output_char" ]; [ "output_bytes" ];
    [ "open_in" ]; [ "open_in_bin" ]; [ "open_out" ]; [ "open_out_bin" ];
    [ "input_line" ]; [ "really_input_string" ];
    [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Printf"; "fprintf" ];
    [ "Format"; "printf" ]; [ "Format"; "eprintf" ];
    [ "Sys"; "command" ]; [ "Sys"; "remove" ]; [ "Sys"; "rename" ];
    [ "Sys"; "getenv" ]; [ "Sys"; "getenv_opt" ];
    [ "Unix"; "write" ]; [ "Unix"; "read" ]; [ "Unix"; "openfile" ];
    [ "Unix"; "unlink" ]; [ "Unix"; "socket" ]; [ "Unix"; "connect" ];
    [ "Unix"; "bind" ]; [ "Unix"; "accept" ]; [ "Unix"; "system" ];
  ]

let io_idents = [ [ "stdout" ]; [ "stderr" ]; [ "stdin" ] ]

(* ------------------------------------------------------------------ *)
(* the walker                                                          *)

type ctx = {
  cfg : config;
  proj : P.t;
  file : P.file;
  modpath : string list;
  locals : (string, int) Hashtbl.t;
  mutable local_funs : (string * expression) list;
  mutable inlining : string list;  (* recursion guard for local inlines *)
  mutable lambda_depth : int;
  mutable node : node;
  mutable in_synth : bool;
  key_env : (string, string) Hashtbl.t;  (* param -> literal Store key *)
  out : node list ref;  (* synthetic nodes created during the walk *)
}

let push_local ctx name =
  Hashtbl.replace ctx.locals name
    (1 + Option.value (Hashtbl.find_opt ctx.locals name) ~default:0)

let pop_local ctx name =
  match Hashtbl.find_opt ctx.locals name with
  | Some 1 -> Hashtbl.remove ctx.locals name
  | Some n -> Hashtbl.replace ctx.locals name (n - 1)
  | None -> ()

let rec pattern_vars acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pattern_vars (txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pattern_vars acc ps
  | Ppat_construct (_, Some (_, p)) -> pattern_vars acc p
  | Ppat_variant (_, Some p) -> pattern_vars acc p
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pattern_vars acc p) acc fields
  | Ppat_or (a, b) -> pattern_vars (pattern_vars acc a) b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p)
  | Ppat_exception p ->
      pattern_vars acc p
  | _ -> acc

let with_vars ctx names f =
  List.iter (push_local ctx) names;
  Fun.protect ~finally:(fun () -> List.iter (pop_local ctx) names) f

let event ctx ev loc = ctx.node.n_events <- (ev, loc) :: ctx.node.n_events

let call_edge ctx name loc =
  ctx.node.n_calls <- (name, loc) :: ctx.node.n_calls

(* root identifier of a write target: chase field projections, array /
   ref reads, and constraints down to the base identifier *)
let rec target_root e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (P.flatten_lid txt)
  | Pexp_field (e, _) -> target_root e
  | Pexp_constraint (e, _) -> target_root e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, a) :: _) -> (
      match P.strip_stdlib (P.flatten_lid txt) with
      | [ "!" ]
      | [ "Array"; "get" ] | [ "Array"; "unsafe_get" ]
      | [ "Bytes"; "get" ] | [ "String"; "get" ]
      | [ "Atomic"; "get" ] | [ "Hashtbl"; "find" ] ->
          target_root a
      | _ -> None)
  | _ -> None

let classify_target ctx e =
  match target_root e with
  | None -> None
  | Some [] -> None
  | Some ([ v ] as segs) ->
      if Hashtbl.mem ctx.locals v then None
      else
        Option.map
          (fun (d : P.def) -> d.d_name)
          (P.resolve_def ctx.proj ctx.file ~modpath:ctx.modpath segs)
  | Some segs ->
      Option.map
        (fun (d : P.def) -> d.d_name)
        (P.resolve_def ctx.proj ctx.file ~modpath:ctx.modpath segs)

let record_write ctx e loc =
  match classify_target ctx e with
  | Some target -> event ctx (Write_global (target, region_of ctx.cfg target)) loc
  | None -> ()

let record_read ctx e loc =
  match classify_target ctx e with
  | Some target ->
      event ctx (Read_mutable (target, region_of ctx.cfg target)) loc
  | None -> ()

(* resolve a Store key argument to a literal string: constants, params
   bound in key_env, or top-level string/tuple constants *)
let rec resolve_key ctx e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | Pexp_constraint (e, _) -> resolve_key ctx e
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "fst"; _ }; _ },
        [ (_, arg) ] ) ->
      resolve_key ctx arg
  | Pexp_tuple (k :: _) -> resolve_key ctx k
  | Pexp_ident { txt; _ } -> (
      let segs = P.flatten_lid txt in
      match segs with
      | [ v ] when Hashtbl.mem ctx.key_env v -> Hashtbl.find_opt ctx.key_env v
      | _ -> (
          match
            P.resolve_def ctx.proj ctx.file ~modpath:ctx.modpath segs
          with
          | Some d -> resolve_key ctx d.d_expr
          | None -> None))
  | _ -> None

let nth_positional args n =
  let rec go n = function
    | [] -> None
    | (Nolabel, e) :: rest -> if n = 0 then Some e else go (n - 1) rest
    | _ :: rest -> go n rest
  in
  go n args

let fresh_synth ctx kind loc =
  let line = loc.loc_start.pos_lnum in
  let name =
    Printf.sprintf "%s#%s:%d" ctx.node.n_name (spawn_kind_name kind) line
  in
  { n_name = name; n_loc = loc; n_synthetic = true; n_events = [];
    n_calls = []; n_spawns = [] }

let rec walk ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> note_ident ctx (P.flatten_lid txt) e.pexp_loc
  | Pexp_constant _ | Pexp_unreachable -> ()
  | Pexp_apply (f, args) -> apply ctx f args e.pexp_loc
  | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> walk ctx vb.pvb_expr) vbs;
      let vars =
        List.fold_left (fun acc vb -> pattern_vars acc vb.pvb_pat) [] vbs
      in
      let funs =
        List.filter_map
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
            | Ppat_var { txt; _ }, (Pexp_function _ | Pexp_ident _) ->
                Some (txt, vb.pvb_expr)
            | _ -> None)
          vbs
      in
      let saved = ctx.local_funs in
      ctx.local_funs <- funs @ ctx.local_funs;
      with_vars ctx vars (fun () -> walk ctx body);
      ctx.local_funs <- saved
  | Pexp_function (params, _, body) ->
      let vars =
        List.fold_left
          (fun acc p ->
            match p.pparam_desc with
            | Pparam_val (_, default, pat) ->
                Option.iter (walk ctx) default;
                pattern_vars acc pat
            | Pparam_newtype _ -> acc)
          [] params
      in
      ctx.lambda_depth <- ctx.lambda_depth + 1;
      with_vars ctx vars (fun () ->
          match body with
          | Pfunction_body b -> walk ctx b
          | Pfunction_cases (cases, _, _) -> walk_cases ctx cases);
      ctx.lambda_depth <- ctx.lambda_depth - 1
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      walk ctx s;
      walk_cases ctx cases
  | Pexp_setfield (tgt, _, v) ->
      record_write ctx tgt e.pexp_loc;
      walk ctx tgt;
      walk ctx v
  | Pexp_field (inner, _) -> walk ctx inner
  | Pexp_tuple es | Pexp_array es -> List.iter (walk ctx) es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      Option.iter (walk ctx) arg
  | Pexp_record (fields, base) ->
      List.iter (fun (_, e) -> walk ctx e) fields;
      Option.iter (walk ctx) base
  | Pexp_ifthenelse (a, b, c) ->
      walk ctx a;
      walk ctx b;
      Option.iter (walk ctx) c
  | Pexp_sequence (a, b) ->
      walk ctx a;
      walk ctx b
  | Pexp_while (a, b) ->
      walk ctx a;
      walk ctx b
  | Pexp_for (p, a, b, _, body) ->
      walk ctx a;
      walk ctx b;
      with_vars ctx (pattern_vars [] p) (fun () -> walk ctx body)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_assert e
  | Pexp_lazy e | Pexp_poly (e, _) | Pexp_newtype (_, e)
  | Pexp_open (_, e) | Pexp_send (e, _) | Pexp_setinstvar (_, e) ->
      walk ctx e
  | Pexp_letmodule (name, me, body) ->
      (* local module alias: extend the file alias table for the body *)
      let restore =
        match (name.txt, P.module_expr_head me) with
        | Some n, Some segs ->
            let old = Hashtbl.find_opt ctx.file.P.aliases n in
            Hashtbl.replace ctx.file.P.aliases n segs;
            Some (n, old)
        | _ -> None
      in
      walk ctx body;
      (match restore with
      | Some (n, Some old) -> Hashtbl.replace ctx.file.P.aliases n old
      | Some (n, None) -> Hashtbl.remove ctx.file.P.aliases n
      | None -> ())
  | Pexp_letexception (_, body) -> walk ctx body
  | Pexp_letop { let_; ands; body } ->
      walk ctx let_.pbop_exp;
      List.iter (fun a -> walk ctx a.pbop_exp) ands;
      let vars =
        List.fold_left
          (fun acc b -> pattern_vars acc b.pbop_pat)
          (pattern_vars [] let_.pbop_pat)
          ands
      in
      with_vars ctx vars (fun () -> walk ctx body)
  | Pexp_override fields -> List.iter (fun (_, e) -> walk ctx e) fields
  | _ -> ()

and walk_cases ctx cases =
  List.iter
    (fun c ->
      with_vars ctx (pattern_vars [] c.pc_lhs) (fun () ->
          Option.iter (walk ctx) c.pc_guard;
          walk ctx c.pc_rhs))
    cases

and note_ident ctx segs loc =
  match segs with
  | [] -> ()
  | [ v ] when Hashtbl.mem ctx.locals v ->
      (* a local function referenced from a synthetic (spawned) node was
         attributed to the enclosing node at its definition; re-walk it
         here so the spawn root owns its effects too *)
      if ctx.in_synth && not (List.mem v ctx.inlining) then (
        match List.assoc_opt v ctx.local_funs with
        | Some body ->
            ctx.inlining <- v :: ctx.inlining;
            Fun.protect
              ~finally:(fun () -> ctx.inlining <- List.tl ctx.inlining)
              (fun () -> walk ctx body)
        | None -> ())
  | _ -> (
      let raw = P.strip_stdlib segs in
      if List.mem raw io_idents then event ctx (Io (P.dotted raw)) loc;
      match P.resolve_def ctx.proj ctx.file ~modpath:ctx.modpath segs with
      | Some d ->
          call_edge ctx d.d_name loc;
          if d.d_mutable then
            event ctx (Read_mutable (d.d_name, region_of ctx.cfg d.d_name)) loc
      | None -> classify_external ctx raw None loc)

(* effectful-primitive classification for paths that do not resolve to
   a project definition *)
and classify_external ctx raw args loc =
  if List.mem raw wall_clocks then event ctx (Wall_clock (P.dotted raw)) loc
  else if List.mem raw io_calls then event ctx (Io (P.dotted raw)) loc
  else
    match raw with
    | "Random" :: f :: _ when f <> "State" ->
        event ctx (Rng_unseeded ("Random." ^ f)) loc
    | [ "Random"; "State"; "make_self_init" ] ->
        event ctx (Rng_unseeded "Random.State.make_self_init") loc
    | [ "Domain"; "DLS"; "new_key" ] ->
        if ctx.lambda_depth > 0 then event ctx Dls_new_key loc
    | [ "Domain"; "DLS"; "get" ] -> event ctx Dls_read loc
    | [ "Domain"; "DLS"; "set" ] -> event ctx Dls_write loc
    | _ -> (
        match args with
        | None -> ()
        | Some args -> (
            match List.assoc_opt raw mutators with
            | Some idx -> (
                match nth_positional args idx with
                | Some tgt -> record_write ctx tgt loc
                | None -> ())
            | None ->
                if List.mem raw mutable_readers then
                  match nth_positional args 0 with
                  | Some tgt -> record_read ctx tgt loc
                  | None -> ()))

and apply ctx f args loc =
  match (f.pexp_desc, args) with
  | Pexp_ident { txt = Lident "|>"; _ }, [ (_, x); (_, g) ] ->
      apply_fn ctx g [ (Nolabel, x) ] loc
  | Pexp_ident { txt = Lident "@@"; _ }, [ (_, g); (_, x) ] ->
      apply_fn ctx g [ (Nolabel, x) ] loc
  | _ -> apply_fn ctx f args loc

and apply_fn ctx f args loc =
  match f.pexp_desc with
  | Pexp_apply (g, args0) -> apply_fn ctx g (args0 @ args) loc
  | Pexp_ident { txt; _ } -> apply_ident ctx (P.flatten_lid txt) args loc
  | _ ->
      walk ctx f;
      List.iter (fun (_, a) -> walk ctx a) args

and apply_ident ctx segs args loc =
  let raw = P.strip_stdlib segs in
  let walk_args () = List.iter (fun (_, a) -> walk ctx a) args in
  match raw with
  | [ ":=" ] ->
      (match args with
      | (_, lhs) :: rest ->
          record_write ctx lhs loc;
          List.iter (fun (_, a) -> walk ctx a) rest
      | [] -> ())
  | [ "incr" ] | [ "decr" ] ->
      (match nth_positional args 0 with
      | Some tgt -> record_write ctx tgt loc
      | None -> ());
      walk_args ()
  | [ "!" ] ->
      (match nth_positional args 0 with
      | Some tgt -> record_read ctx tgt loc
      | None -> ());
      walk_args ()
  | _ -> (
      match P.resolve_def ctx.proj ctx.file ~modpath:ctx.modpath segs with
      | Some d ->
          call_edge ctx d.d_name loc;
          if d.d_mutable then
            event ctx (Read_mutable (d.d_name, region_of ctx.cfg d.d_name))
              loc;
          (* Store and the spawn entry points resolve to project defs
             when their files are among the sources — classify anyway *)
          store_access ctx d.d_name args loc;
          spawn_sites ctx d.d_name args loc;
          walk_args ()
      | None ->
          let canonical = P.dotted (P.canon ctx.proj ctx.file segs) in
          store_access ctx canonical args loc;
          classify_external ctx raw (Some args) loc;
          spawn_sites ctx canonical args loc;
          walk_args ())

and store_access ctx canonical args loc =
  (* Store's own accessors call each other with parameter keys; those
     internal edges are not artifact accesses of the caller *)
  if
    List.exists
      (fun p -> has_prefix ~prefix:p ctx.node.n_name)
      ctx.cfg.store_prefixes
  then ()
  else
  match
    List.find_opt
      (fun p -> has_prefix ~prefix:p canonical)
      ctx.cfg.store_prefixes
  with
  | None -> ()
  | Some prefix ->
      let fn =
        String.sub canonical (String.length prefix)
          (String.length canonical - String.length prefix)
      in
      let key () =
        match nth_positional args 1 with
        | Some e -> resolve_key ctx e
        | None -> None
      in
      if fn = "put" then event ctx (Store_write (key ())) loc
      else if
        List.mem fn
          [
            "get"; "find"; "mem"; "graph"; "coloring"; "mask"; "orientation";
            "partition"; "clustering"; "palette"; "sides"; "fd_stats";
            "sfd_stats"; "assignment"; "flag"; "num";
          ]
      then event ctx (Store_read (key ())) loc

(* spawn-point detection: Dpool.run's callback, Domain.spawn's thunk,
   and the ~send/~recv/~decide arguments of sharded Msg_net rounds *)
and spawn_sites ctx canonical args loc =
  let spawn kind e =
    let e =
      let rec strip e =
        match e.pexp_desc with
        | Pexp_constraint (e, _) -> strip e
        | _ -> e
      in
      strip e
    in
    match e.pexp_desc with
    | Pexp_function _ -> synth ctx kind e loc
    | Pexp_ident { txt = Lident v; _ }
      when List.mem_assoc v ctx.local_funs ->
        synth ctx kind (List.assoc v ctx.local_funs) loc
    | Pexp_ident { txt; _ } -> (
        match
          P.resolve_def ctx.proj ctx.file ~modpath:ctx.modpath
            (P.flatten_lid txt)
        with
        | Some d ->
            ctx.node.n_spawns <- (kind, d.d_name, loc) :: ctx.node.n_spawns
        | None -> ())
    | _ -> ()
  in
  if List.mem canonical ctx.cfg.dpool_run then (
    (* the callback is the last positional argument *)
    let rec last_pos acc = function
      | [] -> acc
      | (Nolabel, e) :: rest -> last_pos (Some e) rest
      | _ :: rest -> last_pos acc rest
    in
    match last_pos None args with
    | Some e -> spawn Dpool_run e
    | None -> ())
  else if canonical = "Domain.spawn" then (
    match nth_positional args 0 with
    | Some e -> spawn Domain_spawn e
    | None -> ())
  else
    let segs = String.split_on_char '.' canonical in
    let is_msgnet =
      List.exists (fun s -> s = "Msg_net") segs
      && List.mem (List.nth segs (List.length segs - 1)) ctx.cfg.msgnet_fns
    in
    if is_msgnet then
      List.iter
        (fun (label, e) ->
          match label with
          | Labelled (("send" | "recv" | "decide" | "value") as l) ->
              spawn (Msgnet_callback l) e
          | _ -> ())
        args

and synth ctx kind e loc =
  let node = fresh_synth ctx kind loc in
  ctx.out := node :: !(ctx.out);
  ctx.node.n_spawns <- (kind, node.n_name, loc) :: ctx.node.n_spawns;
  let saved_node = ctx.node and saved_synth = ctx.in_synth in
  let saved_depth = ctx.lambda_depth in
  ctx.node <- node;
  ctx.in_synth <- true;
  ctx.lambda_depth <- 0;
  Fun.protect
    ~finally:(fun () ->
      ctx.node <- saved_node;
      ctx.in_synth <- saved_synth;
      ctx.lambda_depth <- saved_depth)
    (fun () -> walk ctx e)

(* ------------------------------------------------------------------ *)
(* node construction                                                   *)

let make_ctx ?(key_env = []) cfg proj (file : P.file) ~modpath node out =
  let ke = Hashtbl.create 4 in
  List.iter (fun (k, v) -> Hashtbl.replace ke k v) key_env;
  {
    cfg;
    proj;
    file;
    modpath;
    locals = Hashtbl.create 32;
    local_funs = [];
    inlining = [];
    lambda_depth = 0;
    node;
    in_synth = false;
    key_env = ke;
    out;
  }

(* analyze one definition; returns its node plus any synthetic spawn
   nodes discovered inside it *)
let analyze_def cfg proj (d : P.def) =
  match P.file_by_path proj d.d_file with
  | None -> []
  | Some file ->
      let node =
        { n_name = d.d_name; n_loc = d.d_loc; n_synthetic = false;
          n_events = []; n_calls = []; n_spawns = [] }
      in
      let out = ref [] in
      let ctx = make_ctx cfg proj file ~modpath:d.d_modpath node out in
      walk ctx d.d_expr;
      node :: !out

(* analyze an arbitrary expression (a pass body, a fixture snippet) as
   a synthetic root named [name] *)
let analyze_expr ?key_env cfg proj (file : P.file) ~modpath ~name e =
  let node =
    { n_name = name; n_loc = e.pexp_loc; n_synthetic = true; n_events = [];
      n_calls = []; n_spawns = [] }
  in
  let out = ref [] in
  let ctx = make_ctx ?key_env cfg proj file ~modpath node out in
  walk ctx e;
  node :: !out
