(* Intrinsic effect extraction.

   Each project definition (and each synthetic node for a pass body)
   gets a node with:

   - its intrinsic *events*: writes/reads of top-level mutable state
     classified by region, Store accesses with resolved literal keys,
     and the effectful primitives (IO, wall clock, unseeded Random);
   - its *call edges*: every reference that resolves to a project
     definition (bare references count — a function passed to
     List.iter may be called).

   Writes whose target root is a local, a parameter, or a captured
   binding are not events; only targets that resolve to a top-level
   project definition count. The region model
   (docs/static-analysis.md): Scratch and Obs/Rounds are sanctioned
   state, Chaos.Rng is the seed-threaded draw source, everything else
   that is written is a global-ref. *)

open Ppxlib
module P = Project

type region = Scratch | Obs | Rng | Store_region | Global

let region_name = function
  | Scratch -> "Scratch"
  | Obs -> "Obs/Rounds"
  | Rng -> "Chaos.Rng"
  | Store_region -> "Store"
  | Global -> "global-ref"

type event =
  | Write_global of string * region  (* canonical target *)
  | Read_mutable of string * region
  | Store_write of string option  (* resolved literal key *)
  | Store_read of string option
  | Io of string
  | Wall_clock of string
  | Rng_unseeded of string

type node = {
  n_name : string;
  n_loc : Location.t;
  n_synthetic : bool;
  mutable n_events : (event * Location.t) list;
  mutable n_calls : (string * Location.t) list;
}

type config = {
  scratch_modules : string list;
  obs_prefixes : string list;  (* canonical prefixes of sanctioned state *)
  rng_prefixes : string list;
  store_prefixes : string list;  (* canonical Store module prefixes *)
  pure_roots : string list;  (* canonical prefixes EFF001 treats as pure *)
}

let default_config =
  {
    scratch_modules = [ "Scratch"; "Counters" ];
    obs_prefixes = [ "Nw_obs."; "Nw_localsim.Rounds." ];
    rng_prefixes = [ "Nw_chaos.Rng." ];
    store_prefixes = [ "Nw_engine.Store." ];
    pure_roots = [ "Nw_chaos.Rng."; "Nw_chaos.Plan."; "Nw_decomp.Verify." ];
  }

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* region of a canonical definition name *)
let region_of cfg name =
  let segs = String.split_on_char '.' name in
  let mods = match segs with [] | [ _ ] -> [] | _ -> P.drop_last segs in
  if List.exists (fun m -> List.mem m cfg.scratch_modules) mods then Scratch
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
  [ [ "Hashtbl"; "find" ]; [ "Hashtbl"; "find_opt" ];
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
  node : node;
  key_env : (string, string) Hashtbl.t;  (* param -> literal Store key *)
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
      | [ "Hashtbl"; "find" ] ->
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
      with_vars ctx vars (fun () -> walk ctx body)
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
      with_vars ctx vars (fun () ->
          match body with
          | Pfunction_body b -> walk ctx b
          | Pfunction_cases (cases, _, _) -> walk_cases ctx cases)
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
  | [ v ] when Hashtbl.mem ctx.locals v -> ()
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
          (* Store resolves to project defs when its file is among the
             sources — classify anyway *)
          store_access ctx d.d_name args loc;
          walk_args ()
      | None ->
          let canonical = P.dotted (P.canon ctx.proj ctx.file segs) in
          store_access ctx canonical args loc;
          classify_external ctx raw (Some args) loc;
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

(* ------------------------------------------------------------------ *)
(* node construction                                                   *)

let make_ctx ?(key_env = []) cfg proj (file : P.file) ~modpath node =
  let ke = Hashtbl.create 4 in
  List.iter (fun (k, v) -> Hashtbl.replace ke k v) key_env;
  { cfg; proj; file; modpath; locals = Hashtbl.create 32; node; key_env = ke }

(* analyze one definition; [None] when its file is not among the sources *)
let analyze_def cfg proj (d : P.def) =
  Option.map
    (fun file ->
      let node =
        { n_name = d.d_name; n_loc = d.d_loc; n_synthetic = false;
          n_events = []; n_calls = [] }
      in
      walk (make_ctx cfg proj file ~modpath:d.d_modpath node) d.d_expr;
      node)
    (P.file_by_path proj d.d_file)

(* analyze an arbitrary expression (a pass body, a fixture snippet) as
   a synthetic root named [name] *)
let analyze_expr ?key_env cfg proj (file : P.file) ~modpath ~name e =
  let node =
    { n_name = name; n_loc = e.pexp_loc; n_synthetic = true; n_events = [];
      n_calls = [] }
  in
  walk (make_ctx ?key_env cfg proj file ~modpath node) e;
  node
