(* nwlint-flow tests: each interprocedural rule fires on its fixture
   under test/fixtures/flow; the shipped lib/ tree is flow-clean; the
   contract verifier covers every registry pipeline; a shared-ref write
   from a Domain.spawn thunk deliberately injected into a real lib/
   function is caught (the "would @lint-deep fail?" drill);
   suppressions, the summary cache, and the baseline ratchet
   round-trip. *)

module D = Nwlint_core.Diagnostic
module Engine = Nwlint_core.Engine
module E = Nwlint_flow.Effects
module Flow = Nwlint_flow.Flow

let find_root () =
  let rec up dir depth =
    if depth > 6 then None
    else if
      Sys.file_exists (Filename.concat dir "lib")
      && Sys.is_directory (Filename.concat dir "lib")
      && Sys.file_exists (Filename.concat dir "dune-project")
    then Some dir
    else up (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  up (Sys.getcwd ()) 0

let repo_root () =
  match find_root () with
  | Some r -> r
  | None -> Alcotest.fail "could not locate the repo root from the test cwd"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lib_sources () =
  let lib = Filename.concat (repo_root ()) "lib" in
  Engine.collect_files [ lib ]
  |> List.filter (fun p -> Filename.check_suffix p ".ml")
  |> List.map (fun p -> (p, read_file p))

let fixtures_dir () =
  (* the dune (source_tree fixtures) dep places them next to the cwd *)
  if Sys.file_exists "fixtures/flow" then "fixtures/flow"
  else Filename.concat (repo_root ()) "test/fixtures/flow"

let fixture_findings () =
  let dir = fixtures_dir () in
  let sources =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun f ->
           let p = Filename.concat dir f in
           (p, read_file p))
  in
  Alcotest.(check bool) "fixtures present" true (List.length sources >= 4);
  (Flow.analyze_sources sources).Flow.findings

let with_rule rule ds = List.filter (fun d -> d.D.rule = rule) ds

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let assert_finding ds rule fragment =
  Alcotest.(check bool)
    (Printf.sprintf "%s finding mentioning %S" rule fragment)
    true
    (List.exists
       (fun d -> d.D.rule = rule && contains ~needle:fragment d.D.message)
       ds)

(* --- fixtures: every rule fires ----------------------------------- *)

let race001_fixture () =
  let ds = fixture_findings () in
  assert_finding ds "RACE001" "Race001.total";
  assert_finding ds "RACE001" "Race001.seen";
  (* the three-calls-deep write names its whole chain *)
  assert_finding ds "RACE001" "Race001.work -> Race001.bump"

let race002_fixture () =
  let ds = fixture_findings () in
  assert_finding ds "RACE002" "Race002.make_key";
  assert_finding ds "RACE002" "Race002.merge_results";
  (* the top-level key itself is sanctioned *)
  Alcotest.(check int) "exactly two RACE002 findings" 2
    (List.length (with_rule "RACE002" ds))

let contract001_fixture () =
  let ds = fixture_findings () in
  assert_finding ds "CONTRACT001" "reads artifact \"hidden\"";
  assert_finding ds "CONTRACT001" "writes artifact \"coloring\"";
  assert_finding ds "CONTRACT001" "declares write of \"mask\""

let eff001_fixture () =
  let ds = fixture_findings () in
  Alcotest.(check bool)
    "EFF001 fires on the noisy pass" true
    (List.exists
       (fun d -> d.D.rule = "EFF001" && contains ~needle:"fixture.noisy" d.D.message)
       ds)

(* --- the shipped lib/ tree is flow-clean -------------------------- *)

let lib_result = lazy (Flow.analyze_sources (lib_sources ()))

let lib_clean () =
  let r = Lazy.force lib_result in
  Alcotest.(check (list string))
    "nwlint --flow is clean on the repo's own lib/" []
    (List.map D.to_text r.Flow.findings)

let registry_names =
  [
    "exact"; "greedy"; "be"; "augment"; "star"; "amr-star"; "lsfd";
    "orientation"; "pseudo";
  ]

let contract_coverage () =
  let r = Lazy.force lib_result in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "pipeline %S contract-verified" name)
        true
        (List.mem name r.Flow.pipelines))
    registry_names;
  Alcotest.(check bool) "all pass bodies analyzed" true (r.Flow.pass_count >= 20)

(* --- injected race: a spawned write to a shared ref inside lib/ ---- *)

let replace ~first ~needle ~by s =
  let nl = String.length needle in
  let rec at i =
    if i + nl > String.length s then None
    else if String.sub s i nl = needle then Some i
    else at (i + 1)
  in
  match at 0 with
  | None -> Alcotest.fail (Printf.sprintf "anchor %S not found" needle)
  | Some i ->
      ignore first;
      String.sub s 0 i ^ by ^ String.sub s (i + nl) (String.length s - i - nl)

let injected_race () =
  let sources = lib_sources () in
  let mutated =
    List.map
      (fun (path, content) ->
        if Filename.basename path <> "msg_net.ml" then (path, content)
        else
          (* a kernel round that hands work to a helper domain, which
             bumps a module-level counter *)
          let content =
            replace ~first:true ~needle:"let count_step "
              ~by:"let leaked_total = ref 0\n\nlet count_step " content
          in
          let content =
            replace ~first:true ~needle:"let sent = ref 0 in"
              ~by:
                "let sent = ref 0 in\n\
                \  Domain.join (Domain.spawn (fun () -> incr leaked_total));"
              content
          in
          (path, content))
      sources
  in
  let r = Flow.analyze_sources mutated in
  Alcotest.(check bool)
    "injected spawned write to a shared ref is caught" true
    (List.exists
       (fun d ->
         d.D.rule = "RACE001" && contains ~needle:"leaked_total" d.D.message)
       r.Flow.findings)

(* --- EFF001 pure roots -------------------------------------------- *)

let pure_root_eff001 () =
  let config =
    { E.default_config with E.pure_roots = [ "Helper." ] }
  in
  let r =
    Flow.analyze_sources ~config
      [
        ( "helper.ml",
          "let shout x = print_endline x\nlet check x = shout x" );
      ]
  in
  Alcotest.(check bool)
    "IO under a declared-pure root is flagged" true
    (List.exists
       (fun d -> d.D.rule = "EFF001" && contains ~needle:"Helper.check" d.D.message)
       r.Flow.findings)

(* --- suppressions -------------------------------------------------- *)

let race_src =
  "(* nwlint:disable RACE001 -- fixture: demonstrating suppression *)\n\
   let total = ref 0\n\
   let spawn xs = Domain.spawn (fun () -> total := List.length xs)\n"

let flow_suppression () =
  let r = Flow.analyze_sources [ ("supp.ml", race_src) ] in
  Alcotest.(check (list string))
    "file-scoped disable silences the flow finding" []
    (List.map D.to_text r.Flow.findings)

let no_supp002_for_flow_rules () =
  (* the per-file engine cannot see flow findings, so it must not flag
     a flow-rule suppression as unused *)
  let ds = Engine.lint_string ~path:"lib/core/fixture.ml" race_src in
  Alcotest.(check (list string))
    "no SUPP002 for a flow-rule directive" []
    (List.map D.to_text (List.filter (fun d -> d.D.rule = "SUPP002") ds))

(* --- summary cache round-trip -------------------------------------- *)

let cache_roundtrip () =
  let r = Lazy.force lib_result in
  let json = Flow.result_to_json "digest0" r in
  match Flow.result_of_json ~digest:"digest0" json with
  | None -> Alcotest.fail "cache round-trip failed to parse"
  | Some r2 ->
      Alcotest.(check int) "findings survive" (List.length r.Flow.findings)
        (List.length r2.Flow.findings);
      Alcotest.(check int) "functions survive" r.Flow.function_count
        r2.Flow.function_count;
      Alcotest.(check (list string)) "pipelines survive" r.Flow.pipelines
        r2.Flow.pipelines;
      Alcotest.(check bool) "digest mismatch invalidates" true
        (Flow.result_of_json ~digest:"other" json = None)

(* --- baseline ratchet ---------------------------------------------- *)

let baseline_ratchet () =
  let mk rule =
    D.make ~file:"f.ml" ~line:1 ~col:0 ~rule ~severity:D.Error ~message:"m" ()
  in
  let path = Filename.temp_file "nwlint" ".baseline.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Flow.write_baseline path ~diags:[ mk "RACE001" ] ~suppressions:2;
      match Flow.load_baseline path with
      | Error msg -> Alcotest.fail msg
      | Ok b ->
          let reg, imp =
            Flow.compare_baseline b ~diags:[ mk "RACE001" ] ~suppressions:2
          in
          Alcotest.(check (list string)) "steady state is quiet" [] reg;
          Alcotest.(check (list string)) "no improvements either" [] imp;
          let reg, _ =
            Flow.compare_baseline b
              ~diags:[ mk "RACE001"; mk "RACE001" ]
              ~suppressions:2
          in
          Alcotest.(check bool) "finding growth regresses" true (reg <> []);
          let reg, _ =
            Flow.compare_baseline b ~diags:[ mk "RACE001" ] ~suppressions:3
          in
          Alcotest.(check bool) "suppression growth regresses" true (reg <> []);
          let reg, imp =
            Flow.compare_baseline b ~diags:[] ~suppressions:1
          in
          Alcotest.(check (list string)) "improvement is not a failure" [] reg;
          Alcotest.(check bool) "improvement is reported" true (imp <> []))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "nwlint-flow"
    [
      ( "fixtures",
        [
          tc "RACE001 fires" race001_fixture;
          tc "RACE002 fires" race002_fixture;
          tc "CONTRACT001 fires" contract001_fixture;
          tc "EFF001 fires" eff001_fixture;
        ] );
      ( "lib",
        [
          tc "repo lib/ is flow-clean" lib_clean;
          tc "registry contract coverage" contract_coverage;
          tc "injected shard race is caught" injected_race;
        ] );
      ( "config",
        [
          tc "pure-root EFF001" pure_root_eff001;
          tc "flow suppression filters" flow_suppression;
          tc "no SUPP002 for flow rules" no_supp002_for_flow_rules;
        ] );
      ( "persistence",
        [
          tc "cache round-trip" cache_roundtrip;
          tc "baseline ratchet" baseline_ratchet;
        ] );
    ]
