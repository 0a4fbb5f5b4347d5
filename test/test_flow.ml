(* nwlint-flow tests: each interprocedural rule fires on its fixture
   under test/fixtures/flow; the shipped lib/ tree is flow-clean; the
   contract verifier covers every registry pipeline; suppressions, the
   summary cache, and the baseline ratchet round-trip. *)

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
  Alcotest.(check bool) "fixtures present" true (List.length sources >= 2);
  (Flow.analyze_sources sources).Flow.findings

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

let noisy_pass =
  "let noisy_pass = { name = \"fixture.supp\"; reads = []; writes = [];\n\
  \  run = (fun _ctx _store -> print_endline \"noise\") }\n"

let supp_src =
  "(* nwlint:disable EFF001 -- fixture: demonstrating suppression *)\n"
  ^ noisy_pass

let flow_suppression () =
  let texts src =
    List.map D.to_text (Flow.analyze_sources [ ("supp.ml", src) ]).Flow.findings
  in
  Alcotest.(check bool)
    "without the directive EFF001 fires" true
    (List.exists (fun t -> contains ~needle:"EFF001" t) (texts noisy_pass));
  Alcotest.(check (list string))
    "file-scoped disable silences the flow finding" [] (texts supp_src)

let no_supp002_for_flow_rules () =
  (* the per-file engine cannot see flow findings, so it must not flag
     a flow-rule suppression as unused *)
  let ds = Engine.lint_string ~path:"lib/core/fixture.ml" supp_src in
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
      Flow.write_baseline path ~diags:[ mk "EFF001" ] ~suppressions:2;
      match Flow.load_baseline path with
      | Error msg -> Alcotest.fail msg
      | Ok b ->
          let reg, imp =
            Flow.compare_baseline b ~diags:[ mk "EFF001" ] ~suppressions:2
          in
          Alcotest.(check (list string)) "steady state is quiet" [] reg;
          Alcotest.(check (list string)) "no improvements either" [] imp;
          let reg, _ =
            Flow.compare_baseline b
              ~diags:[ mk "EFF001"; mk "EFF001" ]
              ~suppressions:2
          in
          Alcotest.(check bool) "finding growth regresses" true (reg <> []);
          let reg, _ =
            Flow.compare_baseline b ~diags:[ mk "EFF001" ] ~suppressions:3
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
          tc "CONTRACT001 fires" contract001_fixture;
          tc "EFF001 fires" eff001_fixture;
        ] );
      ( "lib",
        [
          tc "repo lib/ is flow-clean" lib_clean;
          tc "registry contract coverage" contract_coverage;
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
