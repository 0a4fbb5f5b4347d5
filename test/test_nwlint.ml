(* nwlint engine tests: every rule gets a positive fixture (fires), a
   negative fixture (stays silent), and a suppression fixture; plus
   suppression hygiene (SUPP001/002/003) and a self-check that the
   engine is clean on the repo's own lib/ tree — the in-process twin of
   `dune build @lint`. *)

module D = Nwlint_core.Diagnostic
module C = Nwlint_core.Config
module Engine = Nwlint_core.Engine

let lint ?(path = "lib/core/fixture.ml") src = Engine.lint_string ~path src

let rules ds = List.map (fun d -> d.D.rule) ds

let check_fires rule ?path src () =
  let ds = lint ?path src in
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on %S" rule src)
    true
    (List.mem rule (rules ds))

let check_silent rule ?path src () =
  let ds = lint ?path src in
  Alcotest.(check (list string))
    (Printf.sprintf "no %s on %S" rule src)
    []
    (List.filter (String.equal rule) (rules ds))

let check_clean ?path src () =
  let ds = lint ?path src in
  Alcotest.(check (list string)) (Printf.sprintf "clean: %S" src) [] (rules ds)

(* --- DET001 ------------------------------------------------------- *)

let det1 =
  [
    ("positive: Random.self_init", check_fires "DET001" "let x = Random.self_init ()");
    ("positive: global Random.int", check_fires "DET001" "let x = Random.int 5");
    ( "positive: Unix.gettimeofday",
      check_fires "DET001" "let t = Unix.gettimeofday ()" );
    ("positive: Sys.time", check_fires "DET001" "let t = Sys.time ()");
    ( "positive: Random.State.make_self_init",
      check_fires "DET001" "let s = Random.State.make_self_init ()" );
    ( "negative: seeded Random.State",
      check_clean "let x rng = Random.State.int rng 5" );
    ( "negative: wall clock outside lib/",
      check_clean ~path:"bench/fixture.ml" "let t = Unix.gettimeofday ()" );
    ( "negative: lib/obs allowlisted",
      check_clean ~path:"lib/obs/fixture.ml" "let t = Sys.time ()" );
    ( "suppressed",
      check_silent "DET001"
        "(* nwlint:disable DET001 -- fixture justification *)\n\
         let x = Random.int 5" );
    (* the sanctioned randomness source: paths through a module named Rng
       must resolve to Nw_chaos.Rng (seed-threaded, splittable) *)
    ( "positive: ad-hoc local Rng module",
      check_fires "DET001"
        "module Rng = struct let next s = (s * 25214903917 + 11)\n\
        \  land 0xffffffff end\n\
         let draw s = Rng.next s" );
    ( "positive: qualified ad-hoc Rng",
      check_fires "DET001" "let draw s = My_util.Rng.next s" );
    ( "negative: Rng aliased to Nw_chaos.Rng",
      check_clean
        "module Rng = Nw_chaos.Rng\n\
         let draw t = Rng.bits t [ 1; 2 ]" );
    ( "negative: fully qualified Nw_chaos.Rng",
      check_clean "let draw t = Nw_chaos.Rng.float t [ 0 ]" );
    ( "negative: lib/chaos hosts the source itself",
      check_clean ~path:"lib/chaos/fixture.ml" "let draw s = Rng.mix s" );
    ( "negative: Rng use outside lib/",
      check_clean ~path:"bench/fixture.ml" "let draw s = My_util.Rng.next s" );
    (* raw monotonic-clock reads: only lib/obs touches the clock module
       directly; everyone else goes through Nw_obs.Obs.now_ns *)
    ( "positive: raw Monotonic_clock read",
      check_fires "DET001" "let t = Monotonic_clock.now ()" );
    ( "positive: clock module behind an alias",
      check_fires "DET001"
        "module Clock = Monotonic_clock\nlet t = Clock.now ()" );
    ( "positive: Mtime_clock read",
      check_fires "DET001" "let t = Mtime_clock.elapsed ()" );
    ( "negative: lib/obs hosts the clock wrapper",
      check_clean ~path:"lib/obs/fixture.ml" "let t = Monotonic_clock.now ()"
    );
    ( "negative: monotonic clock outside lib/",
      check_clean ~path:"bench/fixture.ml" "let t = Monotonic_clock.now ()" );
    ( "negative: the sanctioned Obs.now_ns route",
      check_clean "module Obs = Nw_obs.Obs\nlet t = Obs.now_ns ()" );
    ( "suppressed: clock read",
      check_silent "DET001"
        "(* nwlint:disable DET001 -- fixture justification *)\n\
         let t = Monotonic_clock.now ()" );
  ]

(* --allow-clock extends det1_clock_allow exactly like --allow-rng
   extends det1_rng_allow *)
let clock_allow_extension () =
  let config =
    {
      C.default with
      C.det1_clock_allow = "Monotonic_clock" :: C.default.C.det1_clock_allow;
    }
  in
  let ds =
    Engine.lint_string ~config ~path:"lib/core/fixture.ml"
      "let t = Monotonic_clock.now ()"
  in
  Alcotest.(check (list string))
    "--allow-clock sanctions the source" [] (rules ds)

(* --- OBS001 ------------------------------------------------------- *)

let obs1 =
  [
    ("positive: Gc.stat in lib/", check_fires "OBS001" "let s = Gc.stat ()");
    ( "positive: Gc.stat behind an alias",
      check_fires "OBS001" "module M = Gc\nlet s = M.stat ()" );
    ( "positive: Stdlib-qualified Gc.stat",
      check_fires "OBS001" "let s = Stdlib.Gc.stat ()" );
    ( "negative: Gc.quick_stat is the sanctioned read",
      check_clean "let s = Gc.quick_stat ()" );
    ( "negative: Gc.stat outside lib/",
      check_clean ~path:"bench/fixture.ml" "let s = Gc.stat ()" );
    ( "suppressed",
      check_silent "OBS001"
        "(* nwlint:disable OBS001 -- fixture justification *)\n\
         let s = Gc.stat ()" );
  ]

(* --- DET002 ------------------------------------------------------- *)

let det2 =
  [
    ( "positive: List.sort compare",
      check_fires "DET002" "let f l = List.sort compare l" );
    ("positive: Hashtbl.hash", check_fires "DET002" "let h g = Hashtbl.hash g");
    ( "positive: = on graph value via alias",
      check_fires "DET002"
        "module G = Nw_graphs.Multigraph\nlet eq a b = G.of_edges 1 a = b" );
    ( "positive: = on denylisted value name",
      check_fires "DET002" "let f adj adj' = adj = adj'" );
    ( "negative: scalar accessor compares are fine",
      check_clean
        "module G = Nw_graphs.Multigraph\nlet empty g = G.n g = 0 && G.m g = 0"
    );
    ( "negative: Coloring.color option compare",
      check_clean
        "module Coloring = Nw_decomp.Coloring\n\
         let same c e k = Coloring.color c e = Some k" );
    ( "negative: Int.compare",
      check_clean "let f l = List.sort Int.compare l" );
    ( "negative: locally defined compare",
      check_silent "DET002"
        "let compare a b = Int.compare a b\nlet f l = List.sort compare l" );
    ( "negative: bare compare outside lib/",
      check_clean ~path:"bench/fixture.ml" "let f l = List.sort compare l" );
    ( "suppressed",
      check_silent "DET002"
        "(* nwlint:disable DET002 -- fixture justification *)\n\
         let f l = List.sort compare l" );
  ]

(* --- LEDGER001 ---------------------------------------------------- *)

let ledger =
  [
    ( "positive: charge outside any span",
      check_fires "LEDGER001"
        "let f rounds = Nw_localsim.Rounds.charge rounds ~label:\"x\" 1" );
    ( "positive: charge_max outside any span",
      check_fires "LEDGER001"
        "module Rounds = Nw_localsim.Rounds\n\
         let f rounds subs = Rounds.charge_max rounds subs" );
    ( "negative: charge under Obs.span @@",
      check_clean
        "module Obs = Nw_obs.Obs\n\
         module Rounds = Nw_localsim.Rounds\n\
         let f rounds =\n\
        \  Obs.span \"phase\" @@ fun () ->\n\
        \  Rounds.charge rounds ~label:\"x\" 1" );
    ( "negative: charge under direct Obs.span application",
      check_clean
        "module Rounds = Nw_localsim.Rounds\n\
         let f rounds =\n\
        \  Nw_obs.Obs.span \"phase\" (fun () -> Rounds.charge rounds \
         ~label:\"x\" 1)" );
    ( "negative: [@obs.in_span] function",
      check_clean
        "module Rounds = Nw_localsim.Rounds\n\
         let[@obs.in_span] f rounds = Rounds.charge rounds ~label:\"x\" 1" );
    ( "suppressed",
      check_silent "LEDGER001"
        "(* nwlint:disable LEDGER001 -- fixture justification *)\n\
         let f rounds = Nw_localsim.Rounds.charge rounds ~label:\"x\" 1" );
  ]

(* --- IO001 -------------------------------------------------------- *)

let io =
  [
    ("positive: print_endline", check_fires "IO001" "let f () = print_endline \"hi\"");
    ( "positive: Format.std_formatter",
      check_fires "IO001" "let f pp = pp Format.std_formatter" );
    ( "positive: Printf.printf",
      check_fires "IO001" "let f n = Printf.printf \"%d\" n" );
    ( "negative: Format.fprintf on a caller formatter",
      check_clean "let f ppf = Format.fprintf ppf \"ok\"" );
    ( "negative: printing outside lib/",
      check_clean ~path:"bin/fixture.ml" "let f () = print_endline \"hi\"" );
    ( "suppressed",
      check_silent "IO001"
        "(* nwlint:disable IO001 -- fixture justification *)\n\
         let f () = print_endline \"hi\"" );
  ]

(* --- EXN001 ------------------------------------------------------- *)

let exn =
  [
    ( "positive: swallow inside span is an error",
      fun () ->
        let ds =
          lint
            "module Obs = Nw_obs.Obs\n\
             let f g =\n\
            \  Obs.span \"phase\" @@ fun () ->\n\
            \  try g () with _ -> 0"
        in
        let hits = List.filter (fun d -> d.D.rule = "EXN001") ds in
        Alcotest.(check int) "one finding" 1 (List.length hits);
        Alcotest.(check string)
          "error severity" "error"
          (D.severity_to_string (List.hd hits).D.severity) );
    ( "positive: swallow outside span is a warning",
      fun () ->
        let ds = lint "let f g = try g () with _ -> 0" in
        let hits = List.filter (fun d -> d.D.rule = "EXN001") ds in
        Alcotest.(check int) "one finding" 1 (List.length hits);
        Alcotest.(check string)
          "warning severity" "warning"
          (D.severity_to_string (List.hd hits).D.severity) );
    ( "negative: re-raise after cleanup",
      check_silent "EXN001"
        "let f g cleanup = try g () with e -> cleanup (); raise e" );
    ( "negative: specific exception",
      check_silent "EXN001" "let f g = try g () with Not_found -> 0" );
    ( "suppressed",
      check_silent "EXN001"
        "(* nwlint:disable EXN001 -- fixture justification *)\n\
         let f g = try g () with _ -> 0" );
  ]

(* --- PURE001 ------------------------------------------------------ *)

let pure =
  [
    ( "positive: top-level ref in lib/core",
      check_fires "PURE001" "let counter = ref 0" );
    ( "positive: top-level Hashtbl in lib/decomp",
      check_fires "PURE001" ~path:"lib/decomp/fixture.ml"
        "let cache = Hashtbl.create 16" );
    ( "negative: allocation inside a function",
      check_clean "let f () = ref 0" );
    ( "negative: sanctioned scratch module",
      check_silent "PURE001"
        "module Scratch = struct\n  let buf = ref 0\nend" );
    ( "negative: outside lib/core and lib/decomp",
      check_clean ~path:"lib/localsim/fixture.ml" "let counter = ref 0" );
    ( "suppressed",
      check_silent "PURE001"
        "(* nwlint:disable PURE001 -- fixture justification *)\n\
         let counter = ref 0" );
  ]

(* --- ENG001 ------------------------------------------------------- *)

let eng =
  [
    ( "positive: direct composite in bench",
      check_fires "ENG001" ~path:"bench/fixture.ml"
        "let run g palette nd rng rounds =\n\
        \  Nw_core.Forest_algo.partial_color g palette ~epsilon:0.5 ~alpha:3\n\
        \    ~cut:Nw_core.Cut.Depth_mod ~radii:(6, 3) ~nd ~rng ~rounds" );
    ( "positive: composite through an alias",
      check_fires "ENG001" ~path:"bin/fixture.ml"
        "module FA = Nw_core.Forest_algo\n\
         let run g rng rounds = FA.partial_color g" );
    ( "positive: Star_forest phase function in lib/localsim",
      check_fires "ENG001" ~path:"lib/localsim/fixture.ml"
        "let f g = Nw_core.Star_forest.sfd_realize g" );
    ( "positive: Lsfd.distributed in bench",
      check_fires "ENG001" ~path:"bench/fixture.ml"
        "let f g p = Nw_core.Lsfd.distributed g p" );
    ( "negative: the engine wrapper is the sanctioned path",
      check_silent "ENG001" ~path:"bench/fixture.ml"
        "let run g rng rounds =\n\
        \  Nw_engine.Run.forest_decomposition g ~epsilon:0.5 ~alpha:3\n\
        \    ~rng ~rounds ()" );
    ( "negative: leaf primitives stay callable",
      check_silent "ENG001" ~path:"bench/fixture.ml"
        "let f fd rounds = Nw_core.Orient.of_forest_decomposition fd ~rounds" );
    ( "negative: composites may call each other inside lib/core",
      check_silent "ENG001" ~path:"lib/core/fixture.ml"
        "let f g = Forest_algo.partial_color g" );
    ( "negative: lib/engine is the sanctioned caller",
      check_silent "ENG001" ~path:"lib/engine/fixture.ml"
        "let f g = Nw_core.Forest_algo.partial_color g" );
    ( "suppressed",
      check_silent "ENG001" ~path:"bench/fixture.ml"
        "(* nwlint:disable ENG001 -- fixture justification *)\n\
         let f g = Nw_core.Forest_algo.partial_color g" );
  ]

(* --- SVC001 ------------------------------------------------------- *)

let svc =
  [
    ( "positive: direct Store access in a request handler",
      check_fires "SVC001" ~path:"lib/service/server.ml"
        "let peek st = Nw_engine.Store.find st \"coloring\"" );
    ( "positive: Store through a module alias",
      check_fires "SVC001" ~path:"lib/service/server.ml"
        "module Store = Nw_engine.Store\n\
         let peek st = Store.find st \"coloring\"" );
    ( "positive: any non-session file under lib/service",
      check_fires "SVC001" ~path:"lib/service/wire.ml"
        "let clobber st v = Nw_engine.Store.set st \"graph\" v" );
    ( "negative: session.ml is the sanctioned owner",
      check_silent "SVC001" ~path:"lib/service/session.ml"
        "let peek st = Nw_engine.Store.find st \"coloring\"" );
    ( "negative: Store use outside lib/service",
      check_silent "SVC001" ~path:"lib/engine/fixture.ml"
        "let peek st = Nw_engine.Store.find st \"coloring\"" );
    ( "negative: handlers go through the Session API",
      check_silent "SVC001" ~path:"lib/service/server.ml"
        "let run s entry = Session.decompose s ~entry" );
    ( "suppressed",
      check_silent "SVC001" ~path:"lib/service/server.ml"
        "(* nwlint:disable SVC001 -- fixture justification *)\n\
         let peek st = Nw_engine.Store.find st \"coloring\"" );
  ]

(* --- PERF001 / PERF002 -------------------------------------------- *)

let perf =
  [
    ( "PERF001 positive: Array.fill scratch reset in lib/",
      check_fires "PERF001" ~path:"lib/core/fixture.ml"
        "let f dist = Array.fill dist 0 (Array.length dist) (-1)" );
    ( "PERF001 positive: qualified through Stdlib",
      check_fires "PERF001" ~path:"lib/localsim/fixture.ml"
        "let f a = Stdlib.Array.fill a 0 4 0" );
    ( "PERF001 negative: outside lib/",
      check_silent "PERF001" ~path:"bench/fixture.ml"
        "let f a = Array.fill a 0 4 0" );
    ( "PERF001 negative: generation-stamped reset",
      check_silent "PERF001" ~path:"lib/core/fixture.ml"
        "let f s = Nw_graphs.Scratch.Ints.reset s" );
    ( "PERF001 suppressed",
      check_silent "PERF001" ~path:"lib/core/fixture.ml"
        "(* nwlint:disable PERF001 -- fixture justification *)\n\
         let f a = Array.fill a 0 4 0" );
    ( "PERF002 positive: boxed-tuple adjacency plane in lib/",
      check_fires "PERF002" ~path:"lib/core/fixture.ml"
        "type t = { adj : (int * int) array array }" );
    ( "PERF002 positive: bare type alias",
      check_fires "PERF002" ~path:"lib/decomp/fixture.ml"
        "type rows = (int * int) array array" );
    ( "PERF002 negative: flat int rows",
      check_silent "PERF002" ~path:"lib/core/fixture.ml"
        "type t = { rows : int array array }" );
    ( "PERF002 negative: single-level tuple array",
      check_silent "PERF002" ~path:"lib/core/fixture.ml"
        "type t = { pairs : (int * int) array }" );
    ( "PERF002 positive: list-row adjacency plane in lib/decomp",
      check_fires "PERF002" ~path:"lib/decomp/fixture.ml"
        "type t = { adj : (int * int) list array }" );
    ( "PERF002 positive: array rows inside a list",
      check_fires "PERF002" ~path:"lib/decomp/fixture.ml"
        "type rows = (int * int) array list" );
    ( "PERF002 positive: wider int tuple in list rows",
      check_fires "PERF002" ~path:"lib/decomp/fixture.ml"
        "type t = (int * int * int) list array" );
    ( "PERF002 negative: plain edge list",
      check_silent "PERF002" ~path:"lib/decomp/fixture.ml"
        "type t = { edges : (int * int) list }" );
    ( "PERF002 negative: non-int tuple rows",
      check_silent "PERF002" ~path:"lib/decomp/fixture.ml"
        "type t = (int * float) list array" );
    ( "PERF002 negative: outside lib/",
      check_silent "PERF002" ~path:"tools/fixture.ml"
        "type t = (int * int) array array" );
    ( "PERF002 suppressed",
      check_silent "PERF002" ~path:"lib/core/fixture.ml"
        "(* nwlint:disable PERF002 -- fixture justification *)\n\
         type t = (int * int) array array" );
  ]

(* --- suppression hygiene and parse errors ------------------------- *)

let hygiene =
  [
    ( "SUPP001: suppression without justification",
      check_fires "SUPP001"
        "(* nwlint:disable DET001 *)\nlet x = Random.int 5" );
    ( "SUPP002: unused suppression",
      check_fires "SUPP002"
        "(* nwlint:disable DET001 -- justified but nothing fires *)\n\
         let x = 1" );
    ( "SUPP003: unknown rule id",
      check_fires "SUPP003"
        "(* nwlint:disable NOPE999 -- justified *)\nlet x = 1" );
    ( "used suppression leaves no residue",
      check_clean
        "(* nwlint:disable DET001 -- fixture justification *)\n\
         let x = Random.int 5" );
    ( "directive inside a string literal is ignored",
      check_fires "DET001"
        "let s = \"(* nwlint:disable DET001 -- not a comment *)\"\n\
         let x = Random.int 5" );
    ("PARSE001 on unparsable source", check_fires "PARSE001" "let let let");
    ( "mli files are linted",
      check_clean ~path:"lib/core/fixture.mli" "val f : int -> int" );
  ]

(* --- self-check: the engine is clean on the repo's own lib/ ------- *)

let find_lib_root () =
  let rec up dir depth =
    if depth > 6 then None
    else if
      Sys.file_exists (Filename.concat dir "lib")
      && Sys.is_directory (Filename.concat dir "lib")
      && Sys.file_exists (Filename.concat dir "dune-project")
    then Some (Filename.concat dir "lib")
    else up (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  up (Sys.getcwd ()) 0

let self_check () =
  match find_lib_root () with
  | None -> Alcotest.fail "could not locate the repo's lib/ from the test cwd"
  | Some lib ->
      let files = Engine.collect_files [ lib ] in
      Alcotest.(check bool) "found lib sources" true (List.length files > 50);
      let ds = List.concat_map Engine.lint_file files in
      Alcotest.(check (list string))
        "nwlint is clean on the repo's own lib/" []
        (List.map D.to_text ds)

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "nwlint"
    [
      ( "det001",
        List.map tc det1
        @ [ Alcotest.test_case "allow-clock extension" `Quick
              clock_allow_extension ] );
      ("det002", List.map tc det2);
      ("obs001", List.map tc obs1);
      ("ledger001", List.map tc ledger);
      ("io001", List.map tc io);
      ("exn001", List.map tc exn);
      ("pure001", List.map tc pure);
      ("eng001", List.map tc eng);
      ("svc001", List.map tc svc);
      ("perf", List.map tc perf);
      ("hygiene", List.map tc hygiene);
      ("self-check", [ Alcotest.test_case "repo lib/ is clean" `Quick self_check ]);
    ]
