(* Orchestration for the interprocedural rules.

   CONTRACT001  per-pass Store access vs. declared reads/writes:
            undeclared accesses, dead contract entries (declared but
            never touched; a declared write with no Store.put is
            exempt when the key is also declared read — the in-place
            mutation pattern), unresolvable contracts, non-literal
            keys.
   EFF001  IO / wall-clock / unseeded-Random reachable from a pass
            body or from a configured proved-pure root.

   Results are cached in a content-hashed summary file (--flow-cache):
   same sources, same answer, no re-analysis. The --baseline ratchet
   compares per-rule finding counts and the suppression-directive
   count against a committed snapshot and fails on any growth. *)

module P = Project
module E = Effects
module S = Summary
module D = Nwlint_core.Diagnostic
module J = Nw_obs.Json_lite

let schema = "nwlint-flow/1"
let baseline_schema = "nwlint-baseline/1"

type result = {
  findings : D.t list;  (* suppression-filtered, sorted *)
  summaries : (string * string) list;  (* canonical fn -> effect sig *)
  pipelines : string list;  (* pl_names whose contracts were verified *)
  pass_count : int;
  function_count : int;
  scc_count : int;
}

let diag ?hint ~rule ~severity ~message (loc : Ppxlib.Location.t) =
  let p = loc.loc_start in
  D.make ~file:p.pos_fname ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol)
    ~rule ~severity ~message ?hint ()

let chain_text chain = String.concat " -> " chain

let site_text (loc : Ppxlib.Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

(* ------------------------------------------------------------------ *)
(* rules                                                               *)

let eff001 cfg summary (contract : Contract.t) =
  let out = ref [] in
  let check ~root ~what =
    match
      S.witness summary ~root ~pred:(fun owner ev ->
          (match ev with
          | E.Io _ | E.Wall_clock _ | E.Rng_unseeded _ -> true
          | _ -> false)
          && not (E.obs_owned cfg owner.E.n_name))
    with
    | None -> ()
    | Some (chain, ev, loc) ->
        let eff =
          match ev with
          | E.Io f -> "IO (" ^ f ^ ")"
          | E.Wall_clock f -> "wall clock (" ^ f ^ ")"
          | E.Rng_unseeded f -> "unseeded randomness (" ^ f ^ ")"
          | _ -> "effect"
        in
        out :=
          diag ~rule:"EFF001" ~severity:D.Error
            ~message:
              (Printf.sprintf "%s reachable from %s (chain: %s)" eff what
                 (chain_text chain))
            ~hint:
              "thread effects through ctx (rng), Nw_obs (timing), or \
               return values (output) so pass replay stays deterministic"
            loc
          :: !out
  in
  List.iter
    (fun (pi : Contract.pass_inst) ->
      check ~root:pi.Contract.pi_node
        ~what:(Printf.sprintf "pass %S (a proved-pure context)" pi.pi_name))
    contract.Contract.passes;
  Hashtbl.iter
    (fun name (n : E.node) ->
      if
        (not n.E.n_synthetic)
        && List.exists
             (fun p -> E.has_prefix ~prefix:p name)
             cfg.E.pure_roots
      then check ~root:name ~what:(name ^ " (declared pure)"))
    summary.S.nodes;
  !out

let contract001 summary (contract : Contract.t) =
  let out = ref [] in
  let add ?(severity = D.Error) loc message =
    out := diag ~rule:"CONTRACT001" ~severity ~message loc :: !out
  in
  List.iter
    (fun (msg, loc) -> add ~severity:D.Warning loc msg)
    contract.Contract.unresolved;
  List.iter
    (fun (pi : Contract.pass_inst) ->
      let name = pi.Contract.pi_name in
      let declared which l =
        List.filter_map
          (fun k ->
            match k with
            | Some k -> Some k
            | None ->
                add ~severity:D.Warning pi.pi_loc
                  (Printf.sprintf
                     "pass %S: a declared %s key does not reduce to a \
                      literal — CONTRACT001 cannot verify it"
                     name which);
                None)
          l
      in
      let reads_decl = declared "read" pi.pi_reads in
      let writes_decl = declared "write" pi.pi_writes in
      let accesses = S.summary summary pi.pi_node in
      let ra = ref [] and wa = ref [] in
      S.ESet.iter
        (fun ev ->
          match ev with
          | E.Store_read (Some k) -> ra := k :: !ra
          | E.Store_write (Some k) -> wa := k :: !wa
          | E.Store_read None ->
              add pi.pi_loc
                (Printf.sprintf
                   "pass %S reads the Store through a non-literal key — \
                    the contract cannot be verified statically"
                   name)
          | E.Store_write None ->
              add pi.pi_loc
                (Printf.sprintf
                   "pass %S writes the Store through a non-literal key — \
                    the contract cannot be verified statically"
                   name)
          | _ -> ())
        accesses;
      let ra = List.sort_uniq String.compare !ra in
      let wa = List.sort_uniq String.compare !wa in
      List.iter
        (fun k ->
          if not (List.mem k reads_decl) then
            add pi.pi_loc
              (Printf.sprintf
                 "pass %S reads artifact %S but does not declare it in \
                  `reads` — the engine cannot schedule or checkpoint \
                  around an undeclared dependency"
                 name k))
        ra;
      List.iter
        (fun k ->
          if not (List.mem k writes_decl) then
            add pi.pi_loc
              (Printf.sprintf
                 "pass %S writes artifact %S but does not declare it in \
                  `writes`"
                 name k))
        wa;
      List.iter
        (fun k ->
          if not (List.mem k ra || List.mem k wa) then
            add pi.pi_loc
              (Printf.sprintf
                 "pass %S declares read of %S but never accesses it — \
                  dead contract entry"
                 name k))
        reads_decl;
      List.iter
        (fun k ->
          if (not (List.mem k wa)) && not (List.mem k reads_decl) then
            add pi.pi_loc
              (Printf.sprintf
                 "pass %S declares write of %S but never writes it — \
                  dead contract entry"
                 name k))
        writes_decl)
    contract.Contract.passes;
  !out

(* ------------------------------------------------------------------ *)
(* analysis                                                            *)

let dedup_diags diags =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (d : D.t) ->
      let k = (d.D.file, d.D.line, d.D.col, d.D.rule, d.D.message) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    diags

(* file-scoped suppression directives apply to flow findings too; the
   per-file engine owns SUPP001/SUPP003 hygiene for the same
   directives, so here we only filter *)
let filter_suppressed sources findings =
  let directives = Hashtbl.create 16 in
  List.iter
    (fun (path, content) ->
      let rules =
        List.concat_map
          (fun (d : Nwlint_core.Suppress.directive) ->
            if d.justified then d.rules else [])
          (Nwlint_core.Suppress.scan content)
      in
      Hashtbl.replace directives path rules)
    sources;
  List.filter
    (fun (d : D.t) ->
      match Hashtbl.find_opt directives d.D.file with
      | Some rules -> not (List.mem d.D.rule rules)
      | None -> true)
    findings

let analyze_project ?(config = E.default_config) proj sources =
  let def_nodes =
    Hashtbl.fold
      (fun _ d acc ->
        match E.analyze_def config proj d with
        | Some n -> n :: acc
        | None -> acc)
      proj.P.defs []
  in
  let contract = Contract.extract config proj in
  let all_nodes = contract.Contract.extra_nodes @ def_nodes in
  let summary = S.compute all_nodes in
  let findings =
    contract001 summary contract
    @ eff001 config summary contract
  in
  let findings =
    filter_suppressed sources (dedup_diags findings)
    |> List.sort D.compare_pos
  in
  let summaries =
    Hashtbl.fold
      (fun name (n : E.node) acc ->
        if n.E.n_synthetic then acc
        else (name, S.signature summary name) :: acc)
      summary.S.nodes []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    findings;
    summaries;
    pipelines = contract.Contract.pipelines;
    pass_count = List.length contract.Contract.passes;
    function_count = List.length summaries;
    scc_count = List.length summary.S.sccs;
  }

let analyze_sources ?config sources =
  analyze_project ?config (P.of_sources sources) sources

(* ------------------------------------------------------------------ *)
(* summary cache                                                       *)

let severity_of_string = function "warning" -> D.Warning | _ -> D.Error

let result_to_json digest r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%s,\"digest\":%s,\"findings\":[%s]"
       (J.Emit.string_value schema)
       (J.Emit.string_value digest)
       (String.concat "," (List.map D.to_json r.findings)));
  Buffer.add_string b ",\"summaries\":[";
  List.iteri
    (fun i (name, eff) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"fn\":%s,\"effect\":%s}"
           (J.Emit.string_value name)
           (J.Emit.string_value eff)))
    r.summaries;
  Buffer.add_string b "],\"pipelines\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (J.Emit.string_value p))
    r.pipelines;
  Buffer.add_string b
    (Printf.sprintf "],\"passes\":%d,\"functions\":%d,\"sccs\":%d}"
       r.pass_count r.function_count r.scc_count);
  Buffer.contents b

let result_of_json ~digest text =
  match J.parse text with
  | exception J.Parse_error _ -> None
  | j -> (
      let str m = Option.bind (J.member m j) J.to_string in
      match (str "schema", str "digest") with
      | Some s, Some d when s = schema && d = digest ->
          let diag_of_json dj =
            let s m = Option.bind (J.member m dj) J.to_string in
            let i m = Option.bind (J.member m dj) J.to_int in
            match (s "file", i "line", i "col", s "rule", s "severity",
                   s "message")
            with
            | Some file, Some line, Some col, Some rule, Some sev,
              Some message ->
                Some
                  (D.make ~file ~line ~col ~rule
                     ~severity:(severity_of_string sev) ~message
                     ?hint:(s "hint") ())
            | _ -> None
          in
          let all l f =
            let mapped = List.map f l in
            if List.for_all Option.is_some mapped then
              Some (List.filter_map Fun.id mapped)
            else None
          in
          Option.bind (J.member "findings" j) J.to_list
          |> Fun.flip Option.bind (fun fl ->
                 all fl diag_of_json
                 |> Fun.flip Option.bind (fun findings ->
                        let summaries =
                          Option.bind (J.member "summaries" j) J.to_list
                          |> Option.map
                               (List.filter_map (fun sj ->
                                    match
                                      ( Option.bind (J.member "fn" sj)
                                          J.to_string,
                                        Option.bind (J.member "effect" sj)
                                          J.to_string )
                                    with
                                    | Some f, Some e -> Some (f, e)
                                    | _ -> None))
                        in
                        let pipelines =
                          Option.bind (J.member "pipelines" j) J.to_list
                          |> Option.map (List.filter_map J.to_string)
                        in
                        match
                          ( summaries, pipelines,
                            Option.bind (J.member "passes" j) J.to_int,
                            Option.bind (J.member "functions" j) J.to_int,
                            Option.bind (J.member "sccs" j) J.to_int )
                        with
                        | Some summaries, Some pipelines, Some pass_count,
                          Some function_count, Some scc_count ->
                            Some
                              {
                                findings;
                                summaries;
                                pipelines;
                                pass_count;
                                function_count;
                                scc_count;
                              }
                        | _ -> None))
      | _ -> None)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let digest_sources sources =
  Digest.to_hex
    (Digest.string
       (String.concat "\x01"
          (List.map (fun (p, c) -> p ^ "\x00" ^ c) sources)))

(* analyze the .ml files under [paths], reusing [cache] when its digest
   matches the current sources *)
let analyze_paths ?config ?cache paths =
  let files =
    Nwlint_core.Engine.collect_files paths
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
  in
  let sources = List.map (fun p -> (p, read_file p)) files in
  let digest = digest_sources sources in
  let cached =
    match cache with
    | Some path when Sys.file_exists path -> (
        match result_of_json ~digest (read_file path) with
        | Some r -> Some r
        | None -> None
        | exception _ -> None)
    | _ -> None
  in
  match cached with
  | Some r -> r
  | None ->
      let r = analyze_sources ?config sources in
      (match cache with
      | Some path -> ( try write_file path (result_to_json digest r) with _ -> ())
      | None -> ());
      r

(* ------------------------------------------------------------------ *)
(* baseline ratchet                                                    *)

type baseline = { b_rules : (string * int) list; b_suppressions : int }

let rule_counts diags =
  List.fold_left
    (fun acc (d : D.t) ->
      let n = Option.value (List.assoc_opt d.D.rule acc) ~default:0 in
      (d.D.rule, n + 1) :: List.remove_assoc d.D.rule acc)
    [] diags
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let baseline_to_json b =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":%s,\"rules\":{"
       (J.Emit.string_value baseline_schema));
  List.iteri
    (fun i (rule, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%s:%d" (J.Emit.string_value rule) n))
    b.b_rules;
  Buffer.add_string buf
    (Printf.sprintf "},\"suppressions\":%d}\n" b.b_suppressions);
  Buffer.contents buf

let load_baseline path =
  match J.parse (read_file path) with
  | exception Sys_error msg -> Error msg
  | exception J.Parse_error msg -> Error (path ^ ": " ^ msg)
  | j -> (
      match Option.bind (J.member "schema" j) J.to_string with
      | Some s when s = baseline_schema -> (
          let rules =
            match J.member "rules" j with
            | Some (J.Obj fields) ->
                Some
                  (List.filter_map
                     (fun (k, v) ->
                       Option.map (fun n -> (k, n)) (J.to_int v))
                     fields)
            | _ -> None
          in
          match
            (rules, Option.bind (J.member "suppressions" j) J.to_int)
          with
          | Some b_rules, Some b_suppressions ->
              Ok { b_rules; b_suppressions }
          | _ -> Error (path ^ ": malformed baseline"))
      | _ -> Error (path ^ ": not a " ^ baseline_schema ^ " file"))

let write_baseline path ~diags ~suppressions =
  write_file path
    (baseline_to_json
       { b_rules = rule_counts diags; b_suppressions = suppressions })

(* regressions: any rule whose count grew, or suppression-count growth.
   Improvements are reported separately so the snapshot can ratchet
   down. *)
let compare_baseline b ~diags ~suppressions =
  let current = rule_counts diags in
  let regressions = ref [] and improvements = ref [] in
  List.iter
    (fun (rule, n) ->
      let base = Option.value (List.assoc_opt rule b.b_rules) ~default:0 in
      if n > base then
        regressions :=
          Printf.sprintf "%s: %d finding(s), baseline allows %d" rule n base
          :: !regressions)
    current;
  List.iter
    (fun (rule, base) ->
      let n = Option.value (List.assoc_opt rule current) ~default:0 in
      if n < base then
        improvements :=
          Printf.sprintf "%s: %d finding(s), baseline allows %d" rule n base
          :: !improvements)
    b.b_rules;
  if suppressions > b.b_suppressions then
    regressions :=
      Printf.sprintf "suppressions: %d directive(s), baseline allows %d"
        suppressions b.b_suppressions
      :: !regressions
  else if suppressions < b.b_suppressions then
    improvements :=
      Printf.sprintf "suppressions: %d directive(s), baseline allows %d"
        suppressions b.b_suppressions
      :: !improvements;
  (List.rev !regressions, List.rev !improvements)
