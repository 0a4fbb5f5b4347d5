(* The nwlint analysis engine.

   One pass of [Ast_traverse.iter] per file, with three pieces of
   context threaded through the walk:

   - a module-alias table ([module G = Nw_graphs.Multigraph]) collected
     in a prepass, so rules see resolved paths;
   - the lexical span depth: +1 inside the arguments of an
     [Obs.span]/[Obs.with_span] application (including through [@@] and
     [|>]) and inside bindings/expressions carrying an
     [@obs.in_span]/[@obs.span] attribute — LEDGER001 and EXN001 are
     defined in terms of it;
   - the module-name stack, so PURE001 can exempt sanctioned scratch
     modules.

   Rules fire by path scope: DET/IO/EXN/PURE/DOM apply under lib/ (PURE001
   only under lib/core and lib/decomp; DET001 allowlists lib/obs);
   LEDGER001 applies everywhere the driver looks. *)

module Lint_config = Config
open Ppxlib

(* ------------------------------------------------------------------ *)
(* path scoping                                                        *)

type scope = {
  in_lib : bool;
  in_lib_obs : bool;
  in_lib_chaos : bool;  (* lib/chaos hosts the sanctioned Rng itself *)
  in_lib_service : bool;  (* the forestd daemon (SVC001 session isolation) *)
  in_pure_dirs : bool;  (* lib/core or lib/decomp *)
  in_engine_dirs : bool;
      (* lib/core (the composites' home) or lib/engine (the sanctioned
         caller) — ENG001 is silent there *)
}

let path_segments path =
  String.split_on_char '/' path
  |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")

let scope_of_path path =
  let segs = path_segments path in
  (* anchor on the last "lib"/"bench"/"bin" segment so relative
     prefixes like ../../lib/core/foo.ml classify correctly *)
  let rec tail_from = function
    | [] -> []
    | ("lib" | "bench" | "bin") :: _ as l -> l
    | _ :: rest -> tail_from rest
  in
  let anchored = tail_from segs in
  match anchored with
  | "lib" :: rest ->
      {
        in_lib = true;
        in_lib_obs = (match rest with "obs" :: _ -> true | _ -> false);
        in_lib_chaos = (match rest with "chaos" :: _ -> true | _ -> false);
        in_lib_service =
          (match rest with "service" :: _ -> true | _ -> false);
        in_pure_dirs =
          (match rest with ("core" | "decomp") :: _ -> true | _ -> false);
        in_engine_dirs =
          (match rest with ("core" | "engine") :: _ -> true | _ -> false);
      }
  | _ ->
      {
        in_lib = false;
        in_lib_obs = false;
        in_lib_chaos = false;
        in_lib_service = false;
        in_pure_dirs = false;
        in_engine_dirs = false;
      }

(* ------------------------------------------------------------------ *)
(* longident utilities                                                 *)

let flatten_lid lid =
  match Longident.flatten_exn lid with
  | segs -> segs
  | exception _ -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | segs -> segs

let rec last = function [] -> "" | [ x ] -> x | _ :: rest -> last rest

let dotted segs = String.concat "." segs

(* ------------------------------------------------------------------ *)
(* engine                                                              *)

let span_attr_names = [ "obs.in_span"; "obs.span" ]

let has_span_attr attrs =
  List.exists
    (fun a -> List.mem a.attr_name.txt span_attr_names)
    attrs

let lint_ast (config : Lint_config.t) ~scope ~file ~source_defines_compare
    (aliases : (string, string list) Hashtbl.t) ast =
  let diags = ref [] in
  let add ~loc rule severity message hint =
    let pos = loc.Location.loc_start in
    diags :=
      Diagnostic.make ~file ~line:pos.pos_lnum
        ~col:(pos.pos_cnum - pos.pos_bol)
        ~rule ~severity ~message ?hint ()
      :: !diags
  in
  (* resolve the head module of a path through local aliases *)
  let expand segs =
    let rec go depth segs =
      if depth > 8 then segs
      else
        match segs with
        | first :: rest when Hashtbl.mem aliases first ->
            go (depth + 1) (Hashtbl.find aliases first @ rest)
        | segs -> segs
    in
    strip_stdlib (go 0 segs)
  in
  let expand_lid lid = expand (flatten_lid lid) in

  (* --- DET001 -------------------------------------------------- *)
  let det1_exact =
    [
      [ "Unix"; "time" ];
      [ "Unix"; "gettimeofday" ];
      [ "Sys"; "time" ];
    ]
  in
  (* raw monotonic-clock modules: fine inside lib/obs (that is where the
     sanctioned wrapper lives), DET001 anywhere else in lib/ unless the
     expanded path resolves to a sanctioned source *)
  let clock_modules = [ "Monotonic_clock"; "Mtime_clock"; "Mtime" ] in
  let is_clock_path segs =
    let modpath =
      match List.rev segs with [] -> [] | _ :: m -> List.rev m
    in
    List.exists (fun m -> List.mem m clock_modules) modpath
  in
  let clock_sanctioned segs =
    let d = dotted segs in
    List.exists
      (fun p ->
        let lp = String.length p in
        String.equal d p
        || (String.length d > lp
            && String.equal (String.sub d 0 lp) p
            && d.[lp] = '.'))
      config.det1_clock_allow
  in
  let check_det1 ~loc segs =
    if scope.in_lib && not scope.in_lib_obs then
      if List.mem segs det1_exact then
        add ~loc "DET001" Error
          (Printf.sprintf "wall-clock read `%s` in lib/" (dotted segs))
          (Some
             "lib/ must be deterministic and clock-free; time only via \
              the monotonic clock in lib/obs")
      else
        match segs with
        | [ "Random"; "State"; "make_self_init" ] | [ "Random"; "self_init" ]
          ->
            add ~loc "DET001" Error
              (Printf.sprintf "nondeterministic seeding `%s` in lib/"
                 (dotted segs))
              (Some
                 "seed explicitly from the experiment config \
                  (Random.State.make [| seed |])")
        | "Random" :: f :: _ when f <> "State" ->
            add ~loc "DET001" Error
              (Printf.sprintf
                 "global Random state `%s` in lib/ (unseeded, \
                  process-wide)"
                 (dotted segs))
              (Some
                 "thread a seeded Random.State.t from the experiment \
                  config instead")
        | _ when is_clock_path segs && not (clock_sanctioned segs) ->
            add ~loc "DET001" Error
              (Printf.sprintf "raw monotonic-clock read `%s` in lib/"
                 (dotted segs))
              (Some
                 "timestamps flow through Nw_obs.Obs.now_ns (behind the \
                  Obs enable switch, so disabled runs stay clock-free); \
                  sanction other sources with --allow-clock PREFIX")
        | _ ->
            (* paths through a module named Rng are hand-rolled
               generators unless they resolve to a sanctioned source
               (config.det1_rng_allow; lib/chaos hosts that source, so
               its own unqualified Rng is exempt) *)
            let modpath =
              match List.rev segs with [] -> [] | _ :: m -> List.rev m
            in
            let has_prefix p =
              let d = dotted segs in
              let lp = String.length p in
              String.length d > lp
              && String.equal (String.sub d 0 lp) p
              && d.[lp] = '.'
            in
            if
              List.mem "Rng" modpath
              && (not scope.in_lib_chaos)
              && not (List.exists has_prefix config.det1_rng_allow)
            then
              add ~loc "DET001" Error
                (Printf.sprintf "ad-hoc RNG module in `%s` in lib/"
                   (dotted segs))
                (Some
                   "randomness in lib/ flows through the seed-threaded \
                    splittable Nw_chaos.Rng (alias it: module Rng = \
                    Nw_chaos.Rng) or an explicitly seeded Random.State.t")
  in

  (* --- OBS001 -------------------------------------------------- *)
  (* Gc.stat walks the entire major heap to compute live/free block
     counts; every resource-attribution field the observability layer
     reads (minor/major/promoted words, collection counts,
     top_heap_words) is available from the O(1) Gc.quick_stat *)
  let check_obs1 ~loc segs =
    if scope.in_lib && segs = [ "Gc"; "stat" ] then
      add ~loc "OBS001" Error
        "`Gc.stat` in lib/ — walks the whole heap (O(live blocks) pause)"
        (Some
           "use Gc.quick_stat: minor/major/promoted words, collection \
            counts, and top_heap_words are all O(1) counter reads")
  in

  (* --- DET002 -------------------------------------------------- *)
  let poly_idents =
    [ [ "compare" ]; [ "Hashtbl"; "hash" ]; [ "Hashtbl"; "seeded_hash" ];
      [ "Hashtbl"; "hash_param" ] ]
  in
  let check_det2_bare ~loc segs =
    if scope.in_lib && List.mem segs poly_idents then
      if not (segs = [ "compare" ] && source_defines_compare) then
        add ~loc "DET002" Error
          (Printf.sprintf
             "polymorphic structural `%s` in lib/ — silent \
              nondeterminism on mutable graph records"
             (dotted segs))
          (Some
             "use a monomorphic comparator (Int.compare, String.compare, \
              or an explicit per-type compare)")
  in
  (* is this operand (syntactically) a graph-like value? *)
  let graph_valued e =
    let module_hit segs =
      let modpath = match List.rev segs with [] -> [] | _ :: m -> List.rev m in
      List.exists (fun m -> List.mem m config.det2_modules) modpath
      && not (List.mem (last segs) config.det2_scalar_allow)
    in
    match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        let segs = expand (flatten_lid txt) in
        module_hit segs || List.mem (last segs) config.det2_value_deny
    | Pexp_field (_, { txt; _ }) ->
        List.mem (last (flatten_lid txt)) config.det2_value_deny
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        module_hit (expand (flatten_lid txt))
    | _ -> false
  in
  let check_det2_eq ~loc op args =
    if scope.in_lib && List.mem op [ "="; "<>"; "=="; "!=" ] then
      match args with
      | [ (_, a); (_, b) ] when graph_valued a || graph_valued b ->
          add ~loc "DET002" Error
            (Printf.sprintf
               "polymorphic `%s` applied to a graph/adjacency/coloring \
                value"
               op)
            (Some
               "compare via an explicit accessor or a monomorphic \
                equality for the type")
      | _ -> ()
  in

  (* --- IO001 --------------------------------------------------- *)
  let io_deny =
    [
      [ "print_endline" ]; [ "print_string" ]; [ "print_newline" ];
      [ "print_char" ]; [ "print_int" ]; [ "print_float" ];
      [ "print_bytes" ]; [ "stdout" ];
      [ "Printf"; "printf" ];
      [ "Format"; "printf" ]; [ "Format"; "print_string" ];
      [ "Format"; "print_newline" ]; [ "Format"; "std_formatter" ];
    ]
  in
  let check_io ~loc segs =
    if scope.in_lib && List.mem segs io_deny then
      add ~loc "IO001" Error
        (Printf.sprintf "stdout I/O `%s` in lib/" (dotted segs))
        (Some
           "library code reports through nw_obs (spans, counters) or \
            returned values; printing belongs to bench/ and bin/")
  in

  (* --- ENG001 -------------------------------------------------- *)
  (* composite-phase entry points of lib/core may only be invoked via
     the engine: outside lib/core and lib/engine, any alias-expanded
     path ending in a denylisted [Module.func] fires. The engine wraps
     every pass in an Obs span, attributes its rounds, and can
     checkpoint at the boundary — direct calls silently lose all
     three. *)
  let check_eng1 ~loc segs =
    if not scope.in_engine_dirs then
      match List.rev segs with
      | func :: modname :: _ -> (
          match List.assoc_opt modname config.eng1_composites with
          | Some funcs
            when List.mem func funcs
                 && not
                      (List.mem
                         (modname ^ "." ^ func)
                         config.eng1_allow) ->
              add ~loc "ENG001" Error
                (Printf.sprintf
                   "direct call of composite `%s` outside the engine"
                   (dotted segs))
                (Some
                   "go through Nw_engine.Run or build the pipeline \
                    with Nw_engine.Pipelines and Engine.run — direct \
                    calls lose per-pass spans, rounds attribution, and \
                    checkpoints")
          | _ -> ())
      | _ -> ()
  in

  (* --- SVC001 -------------------------------------------------- *)
  (* session isolation in the daemon: every piece of Store state the
     service holds belongs to exactly one named session, and session.ml
     is the single sanctioned owner of that coupling. A request handler
     (server.ml, wire.ml, anything else under lib/service) reaching
     into Nw_engine.Store directly — even through a module alias — can
     read or clobber keys of a session the request does not own, so the
     access must go through the Session API instead. *)
  let in_session_owner =
    String.equal (Filename.remove_extension (Filename.basename file)) "session"
  in
  let check_svc1 ~loc segs =
    if scope.in_lib_service && not in_session_owner then
      match segs with
      | "Nw_engine" :: "Store" :: _ ->
          add ~loc "SVC001" Error
            (Printf.sprintf
               "direct Store access `%s` in a daemon request handler"
               (dotted segs))
            (Some
               "lib/service touches engine state only through Session \
                (lib/service/session.ml), which scopes every Store key \
                to the session that owns it — a handler-level Store \
                access can cross session boundaries")
      | _ -> ()
  in

  (* --- DOM001 -------------------------------------------------- *)
  (* lib/ runs on one domain: the LOCAL kernel, the engine and the
     daemon's select loop are all sequential. A second domain, a
     domain-local key or an atomic would bring back the races that
     nothing here is built to guard against. *)
  let check_dom1 ~loc segs =
    if scope.in_lib then
      match segs with
      | "Domain" :: ("spawn" | "DLS") :: _ | "Atomic" :: _ :: _ ->
          add ~loc "DOM001" Error
            (Printf.sprintf "`%s` in lib/, which runs on one domain"
               (dotted segs))
            (Some
               "keep lib/ sequential: plain refs and mutable fields for \
                shared state, the daemon's select loop for concurrency")
      | _ -> ()
  in

  (* --- PERF001 ------------------------------------------------- *)
  (* O(n) scratch resets in lib/ hot paths: the data-plane discipline is
     generation-stamped scratch (Nw_graphs.Scratch), where reset is a
     counter bump. Cold rebuild paths suppress with a justification. *)
  let check_perf1 ~loc segs =
    if scope.in_lib && segs = [ "Array"; "fill" ] then
      add ~loc "PERF001" Error
        "O(n) `Array.fill` scratch reset in lib/"
        (Some
           "reset scratch via generation stamps (Nw_graphs.Scratch, O(1) \
            reset); if this is a genuinely cold rebuild path, suppress \
            with a justification")
  in

  (* --- LEDGER001 ----------------------------------------------- *)
  let is_rounds_charge segs =
    match List.rev segs with
    | ("charge" | "charge_max" | "merge_into") :: "Rounds" :: _ -> true
    | _ -> false
  in

  (* --- EXN001 -------------------------------------------------- *)
  let reraise_idents =
    [
      [ "raise" ]; [ "raise_notrace" ]; [ "failwith" ]; [ "invalid_arg" ];
      [ "Printexc"; "raise_with_backtrace" ];
    ]
  in
  let expr_reraises e =
    let found = ref false in
    let it =
      object
        inherit Ast_traverse.iter as super

        method! expression e =
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              let segs = expand_lid txt in
              let l = last segs in
              if
                List.mem segs reraise_idents
                || (String.length l >= 4 && String.sub l 0 4 = "fail")
              then found := true
          | Pexp_assert _ -> found := true
          | _ -> ());
          super#expression e
      end
    in
    it#expression e;
    !found
  in
  let rec catch_all pat =
    match pat.ppat_desc with
    | Ppat_any | Ppat_var _ -> true
    | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_all p
    | Ppat_or (a, b) -> catch_all a || catch_all b
    | _ -> false
  in
  let check_exn ~loc:_ ~span_depth cases =
    if scope.in_lib then
      List.iter
        (fun c ->
          if catch_all c.pc_lhs && c.pc_guard = None
             && not (expr_reraises c.pc_rhs)
          then
            let severity =
              if span_depth > 0 then Diagnostic.Error else Diagnostic.Warning
            in
            let where =
              if span_depth > 0 then " inside an Obs span scope" else ""
            in
            add ~loc:c.pc_lhs.ppat_loc "EXN001" severity
              (Printf.sprintf
                 "catch-all handler swallows exceptions without \
                  re-raise%s"
                 where)
              (Some
                 "match specific exceptions, or re-raise after cleanup \
                  so spans close on the failing path"))
        cases
  in

  (* --- PURE001 ------------------------------------------------- *)
  let mutable_ctors =
    [
      [ "ref" ];
      [ "Hashtbl"; "create" ];
      [ "Buffer"; "create" ];
      [ "Queue"; "create" ];
      [ "Stack"; "create" ];
      [ "Atomic"; "make" ];
      [ "Array"; "make" ];
      [ "Array"; "init" ];
      [ "Array"; "create_float" ];
      [ "Bytes"; "create" ];
      [ "Bytes"; "make" ];
      [ "Weak"; "create" ];
    ]
  in
  let rec mutable_toplevel_rhs e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> mutable_toplevel_rhs e
    | Pexp_tuple es -> List.exists mutable_toplevel_rhs es
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        List.mem (expand_lid txt) mutable_ctors
    | _ -> false
  in

  (* spans: Obs.span / Obs.with_span applications *)
  let is_span_fn e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let check segs =
          match List.rev segs with
          | ("span" | "with_span") :: modpath ->
              List.exists
                (fun m ->
                  let m = String.lowercase_ascii m in
                  m = "obs" || m = "nw_obs")
                modpath
          | _ -> false
        in
        let raw = flatten_lid txt in
        check raw || check (expand raw))
    | _ -> false
  in
  let is_span_application e =
    match e.pexp_desc with
    | Pexp_apply (f, _) -> is_span_fn f
    | _ -> is_span_fn e
  in

  let visitor =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable span_depth = 0
      val mutable mod_stack : string list = []

      method private in_span f =
        span_depth <- span_depth + 1;
        f ();
        span_depth <- span_depth - 1

      method! module_binding mb =
        let name = Option.value ~default:"_" mb.pmb_name.txt in
        mod_stack <- name :: mod_stack;
        super#module_binding mb;
        mod_stack <- List.tl mod_stack

      method! structure_item it =
        (match it.pstr_desc with
        | Pstr_value (_, vbs)
          when scope.in_pure_dirs
               && not
                    (List.exists
                       (fun m -> List.mem m config.scratch_modules)
                       mod_stack) ->
            List.iter
              (fun vb ->
                if mutable_toplevel_rhs vb.pvb_expr then
                  add ~loc:vb.pvb_loc "PURE001" Error
                    "top-level mutable state in lib/core or lib/decomp \
                     is hidden state shared by every session and run in \
                     the process"
                    (Some
                       "allocate inside the algorithm entry point, or \
                        move it into a sanctioned Scratch module"))
              vbs
        | _ -> ());
        super#structure_item it

      method! value_binding vb =
        if has_span_attr vb.pvb_attributes then
          self#in_span (fun () -> super#value_binding vb)
        else super#value_binding vb

      (* --- PERF002 ------------------------------------------------ *)
      (* a new boxed-tuple adjacency plane — per-vertex rows of (int *
         int) endpoints held in any two nested {array, list} containers:
         `(int * int) array array`, `(int * int) list array`, ... —
         allocates one tuple per incidence and makes every scan chase
         pointers; adjacency lives in Multigraph's flat int rows. The
         list-row forms matter as much as the array ones: an
         incremental-churn helper in lib/decomp that accumulates
         adjacency as list rows would rebuild a boxed layout beside the
         graph. *)
      method! core_type ct =
        (if scope.in_lib then
           let is_int c =
             match c.ptyp_desc with
             | Ptyp_constr ({ txt = Lident "int"; _ }, []) -> true
             | _ -> false
           in
           let container c =
             match c with
             | Ptyp_constr ({ txt = Lident (("array" | "list") as name); _ },
                            [ inner ]) ->
                 Some (name, inner)
             | _ -> None
           in
           match container ct.ptyp_desc with
           | Some (outer, inner1) -> (
               match container inner1.ptyp_desc with
               | Some (inner, inner2) -> (
                   match inner2.ptyp_desc with
                   | Ptyp_tuple comps
                     when List.length comps >= 2 && List.for_all is_int comps
                     ->
                       add ~loc:ct.ptyp_loc "PERF002" Error
                         (Printf.sprintf
                            "boxed-tuple adjacency plane type `(int * int) \
                             %s %s` in lib/"
                            inner outer)
                         (Some
                            "adjacency belongs to Nw_graphs.Multigraph \
                             (flat int rows, packed neighbor/edge ints): \
                             scan it with Multigraph.iter_incident / \
                             fold_incident instead of building a new \
                             boxed plane")
                   | _ -> ())
               | None -> ())
           | None -> ());
        super#core_type ct

      method! expression e =
        if has_span_attr e.pexp_attributes then
          self#in_span (fun () -> self#expression_inner e)
        else self#expression_inner e

      method private expression_inner e =
        let loc = e.pexp_loc in
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
            let segs = expand_lid txt in
            check_det1 ~loc segs;
            check_obs1 ~loc segs;
            check_det2_bare ~loc segs;
            check_io ~loc segs;
            check_eng1 ~loc segs;
            check_svc1 ~loc segs;
            check_dom1 ~loc segs;
            check_perf1 ~loc segs
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            let segs = expand_lid txt in
            check_det2_eq ~loc (dotted segs) args;
            if is_rounds_charge segs && span_depth = 0 then
              add ~loc "LEDGER001" Error
                (Printf.sprintf
                   "`%s` outside any Obs span scope — these rounds \
                    escape per-phase attribution"
                   (dotted segs))
                (Some
                   "wrap the call site in Obs.span, or mark the \
                    enclosing function [@obs.in_span] if every caller \
                    opens a span"))
        | Pexp_try (_, cases) -> check_exn ~loc ~span_depth cases
        | _ -> ());
        match e.pexp_desc with
        | Pexp_apply (f, args) when is_span_fn f ->
            self#expression f;
            self#in_span (fun () ->
                List.iter (fun (_, a) -> self#expression a) args)
        | Pexp_apply
            ( ({ pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ } as op),
              [ (_, l); (_, r) ] )
          when is_span_application l ->
            self#expression op;
            self#expression l;
            self#in_span (fun () -> self#expression r)
        | Pexp_apply
            ( ({ pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ } as op),
              [ (_, l); (_, r) ] )
          when is_span_application r ->
            self#expression op;
            self#expression r;
            self#in_span (fun () -> self#expression l)
        | _ -> super#expression e
    end
  in
  (match ast with
  | `Impl str -> visitor#structure str
  | `Intf sg -> visitor#signature sg);
  !diags

(* ------------------------------------------------------------------ *)
(* prepasses                                                           *)

let collect_aliases str =
  let tbl = Hashtbl.create 8 in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! module_binding mb =
        (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
        | Some name, Pmod_ident { txt; _ } -> (
            match flatten_lid txt with
            | [] -> ()
            | segs -> Hashtbl.replace tbl name segs)
        | _ -> ());
        super#module_binding mb
    end
  in
  it#structure str;
  tbl

let defines_compare str =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        (match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = "compare"; _ } -> found := true
        | _ -> ());
        super#value_binding vb
    end
  in
  it#structure str;
  !found

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)

let parse_error_diag ~file exn =
  let message =
    match Location.Error.of_exn exn with
    | Some err -> Location.Error.message err
    | None -> Printexc.to_string exn
  in
  [
    Diagnostic.make ~file ~line:1 ~col:0 ~rule:"PARSE001" ~severity:Error
      ~message:(Printf.sprintf "cannot parse: %s" message)
      ();
  ]

let apply_suppressions ~file directives diags =
  let active = Hashtbl.create 8 in
  let supp = ref [] in
  let add_supp line rule severity message =
    supp :=
      Diagnostic.make ~file ~line ~col:0 ~rule ~severity ~message ()
      :: !supp
  in
  List.iter
    (fun (d : Suppress.directive) ->
      if not d.justified then
        add_supp d.line "SUPP001" Error
          "suppression without a `-- justification`";
      List.iter
        (fun r ->
          if not (Lint_config.suppressible r) then
            add_supp d.line "SUPP003" Error
              (Printf.sprintf "unknown rule id %S in nwlint:disable" r)
          else Hashtbl.replace active r d)
        d.rules)
    directives;
  let kept =
    List.filter
      (fun (d : Diagnostic.t) ->
        match Hashtbl.find_opt active d.rule with
        | Some dir ->
            dir.used <- true;
            false
        | None -> true)
      diags
  in
  List.iter
    (fun (d : Suppress.directive) ->
      if d.justified && not d.used
         && List.for_all Lint_config.suppressible d.rules
         (* flow-rule suppressions are consumed by the interprocedural
            layer, which this per-file engine cannot see *)
         && not (List.exists Lint_config.flow_rule d.rules)
      then
        add_supp d.line "SUPP002" Warning
          (Printf.sprintf "suppression of %s never fired — remove it"
             (String.concat ", " d.rules)))
    directives;
  kept @ !supp

let lint_string ?(config = Lint_config.default) ~path source =
  let scope = scope_of_path path in
  let directives = Suppress.scan source in
  let diags =
    let lexbuf = Lexing.from_string source in
    Lexing.set_filename lexbuf path;
    if Filename.check_suffix path ".mli" then
      match Parse.interface lexbuf with
      | sg ->
          lint_ast config ~scope ~file:path ~source_defines_compare:false
            (Hashtbl.create 1) (`Intf sg)
      | exception exn -> parse_error_diag ~file:path exn
    else
      match Parse.implementation lexbuf with
      | str ->
          let aliases = collect_aliases str in
          lint_ast config ~scope ~file:path
            ~source_defines_compare:(defines_compare str) aliases (`Impl str)
      | exception exn -> parse_error_diag ~file:path exn
  in
  apply_suppressions ~file:path directives diags
  |> List.sort Diagnostic.compare_pos

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?config path =
  match read_file path with
  | source -> lint_string ?config ~path source
  | exception Sys_error msg ->
      [
        Diagnostic.make ~file:path ~line:1 ~col:0 ~rule:"PARSE001"
          ~severity:Error
          ~message:(Printf.sprintf "cannot read: %s" msg)
          ();
      ]

(* recursive .ml/.mli discovery, deterministic order *)
let collect_files paths =
  let skip_dir name =
    String.length name > 0
    && (name.[0] = '.' || name.[0] = '_' || name = "node_modules")
  in
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.iter (fun entry ->
             let child = Filename.concat path entry in
             if Sys.is_directory child then (
               if not (skip_dir entry) then walk child)
             else if
               Filename.check_suffix entry ".ml"
               || Filename.check_suffix entry ".mli"
             then acc := child :: !acc)
    else acc := path :: !acc
  in
  List.iter walk paths;
  List.sort String.compare !acc
