(* nwlint driver.

     nwlint [--json] [--fail-on warning|error] [--list-rules]
            [--deny-module M] [--allow-scalar F] [--deny-value V]
            [--scratch M] [--allow-rng PREFIX] [--allow-clock PREFIX]
            [--allow-composite Module.func]
            [--flow] [--flow-cache FILE] [--flow-summaries]
            [--baseline FILE] [--write-baseline FILE] PATH...

   Paths are files or directories (searched recursively for .ml/.mli,
   skipping dot/underscore directories such as _build). --flow adds the
   interprocedural layer (call graph + effect summaries: CONTRACT001,
   EFF001) over the .ml files; --baseline
   compares finding and suppression counts against a committed
   snapshot and fails on growth (the ratchet); --write-baseline
   refreshes the snapshot. Exit status: 0 clean, 1 findings at or
   above the --fail-on threshold or a baseline regression, 2 usage or
   internal error (a crashed rule exits 2, so CI distinguishes "tool
   broke" from "tool found something"). *)

module D = Nwlint_core.Diagnostic
module Config = Nwlint_core.Config
module Engine = Nwlint_core.Engine
module Suppress = Nwlint_core.Suppress
module Flow = Nwlint_flow.Flow

let usage () =
  prerr_endline
    "usage: nwlint [--json] [--fail-on warning|error] [--list-rules]\n\
    \              [--deny-module M] [--allow-scalar F] [--deny-value V]\n\
    \              [--scratch M] [--allow-rng PREFIX] [--allow-clock PREFIX]\n\
    \              [--allow-composite Module.func]\n\
    \              [--flow] [--flow-cache FILE] [--flow-summaries]\n\
    \              [--baseline FILE] [--write-baseline FILE] PATH...";
  exit 2

let list_rules () =
  List.iter
    (fun (id, sev, summary) ->
      Printf.printf "%-10s %-8s %s\n" id (D.severity_to_string sev) summary)
    Config.rules;
  exit 0

let () =
  let json = ref false in
  let fail_on = ref D.Warning in
  let paths = ref [] in
  let config = ref Config.default in
  let flow = ref false in
  let flow_cache = ref None in
  let flow_summaries = ref false in
  let baseline = ref None in
  let write_baseline = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--list-rules" :: _ -> list_rules ()
    | "--fail-on" :: level :: rest ->
        (match level with
        | "warning" -> fail_on := D.Warning
        | "error" -> fail_on := D.Error
        | _ -> usage ());
        parse rest
    | "--deny-module" :: m :: rest ->
        config := { !config with det2_modules = m :: !config.det2_modules };
        parse rest
    | "--allow-scalar" :: f :: rest ->
        config :=
          { !config with det2_scalar_allow = f :: !config.det2_scalar_allow };
        parse rest
    | "--deny-value" :: v :: rest ->
        config :=
          { !config with det2_value_deny = v :: !config.det2_value_deny };
        parse rest
    | "--scratch" :: m :: rest ->
        config :=
          { !config with scratch_modules = m :: !config.scratch_modules };
        parse rest
    | "--allow-rng" :: p :: rest ->
        config :=
          { !config with det1_rng_allow = p :: !config.det1_rng_allow };
        parse rest
    | "--allow-clock" :: p :: rest ->
        config :=
          { !config with det1_clock_allow = p :: !config.det1_clock_allow };
        parse rest
    | "--allow-composite" :: f :: rest ->
        config := { !config with eng1_allow = f :: !config.eng1_allow };
        parse rest
    | "--flow" :: rest ->
        flow := true;
        parse rest
    | "--flow-cache" :: f :: rest ->
        flow := true;
        flow_cache := Some f;
        parse rest
    | "--flow-summaries" :: rest ->
        flow := true;
        flow_summaries := true;
        parse rest
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse rest
    | "--write-baseline" :: f :: rest ->
        write_baseline := Some f;
        parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | path :: rest ->
        paths := path :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !paths = [] then usage ();
  let files =
    try Engine.collect_files (List.rev !paths)
    with Sys_error msg ->
      Printf.eprintf "nwlint: %s\n" msg;
      exit 2
  in
  if files = [] then begin
    prerr_endline "nwlint: no .ml/.mli files found";
    exit 2
  end;
  let classic =
    try List.concat_map (Engine.lint_file ~config:!config) files
    with exn ->
      Printf.eprintf "nwlint: internal error: %s\n" (Printexc.to_string exn);
      exit 2
  in
  let flow_result =
    if not !flow then None
    else
      try Some (Flow.analyze_paths ?cache:!flow_cache (List.rev !paths))
      with exn ->
        Printf.eprintf "nwlint: flow analysis error: %s\n"
          (Printexc.to_string exn);
        exit 2
  in
  let diags =
    List.sort D.compare_pos
      (classic
      @ match flow_result with Some r -> r.Flow.findings | None -> [])
  in
  let suppressions =
    List.fold_left
      (fun acc path ->
        match Engine.read_file path with
        | content -> acc + List.length (Suppress.scan content)
        | exception Sys_error _ -> acc)
      0 files
  in
  let errors =
    List.length (List.filter (fun d -> d.D.severity = D.Error) diags)
  in
  let warnings = List.length diags - errors in
  if !json then begin
    Printf.printf
      "{\"tool\":\"nwlint\",\"version\":1,\"files\":%d,\"errors\":%d,\"warnings\":%d,\"suppressions\":%d,\"findings\":[%s]}\n"
      (List.length files) errors warnings suppressions
      (String.concat "," (List.map D.to_json diags))
  end
  else begin
    List.iter (fun d -> print_endline (D.to_text d)) diags;
    (match flow_result with
    | Some r ->
        Printf.printf
          "nwlint-flow: %d function%s, %d scc%s, %d pass contract%s, %d \
           pipeline%s\n"
          r.Flow.function_count
          (if r.Flow.function_count = 1 then "" else "s")
          r.Flow.scc_count
          (if r.Flow.scc_count = 1 then "" else "s")
          r.Flow.pass_count
          (if r.Flow.pass_count = 1 then "" else "s")
          (List.length r.Flow.pipelines)
          (if List.length r.Flow.pipelines = 1 then "" else "s");
        if !flow_summaries then
          List.iter
            (fun (fn, eff) -> Printf.printf "  %s: %s\n" fn eff)
            r.Flow.summaries
    | None -> ());
    Printf.printf "nwlint: %d file%s, %d error%s, %d warning%s\n"
      (List.length files)
      (if List.length files = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")
  end;
  (match !write_baseline with
  | Some path -> (
      try Flow.write_baseline path ~diags ~suppressions
      with Sys_error msg ->
        Printf.eprintf "nwlint: cannot write baseline: %s\n" msg;
        exit 2)
  | None -> ());
  let regressed =
    match !baseline with
    | None -> false
    | Some path -> (
        match Flow.load_baseline path with
        | Error msg ->
            Printf.eprintf "nwlint: baseline: %s\n" msg;
            exit 2
        | Ok b ->
            let regressions, improvements =
              Flow.compare_baseline b ~diags ~suppressions
            in
            List.iter
              (fun r -> Printf.eprintf "nwlint: baseline regression: %s\n" r)
              regressions;
            List.iter
              (fun r ->
                Printf.eprintf
                  "nwlint: baseline can ratchet down (re-run with \
                   --write-baseline): %s\n"
                  r)
              improvements;
            regressions <> [])
  in
  let failing =
    match !fail_on with D.Error -> errors > 0 | D.Warning -> diags <> []
  in
  exit (if failing || regressed then 1 else 0)
