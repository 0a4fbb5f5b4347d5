(* Pinned spec: literal outputs of every registry entry, and of the
   pipelines no entry builds.

   Each registry entry runs through the engine on one simple graph and
   one multigraph (entries that reject multigraphs are pinned to do so);
   the [partial], [lfd] and [star-list] pipelines run through their
   [Nw_engine.Run] wrappers on one fixture each. For every run the test
   pins three digests computed once and written here as literals:

   - the output: the coloring, orientation or pseudo-forest assignment
     the pipeline left in the store;
   - the per-label round ledger;
   - the Obs counter totals of the run.

   One chaos plan's fault-timeline digest is pinned as well. Any change
   to the data plane, the message kernel or the decomposition core must
   reproduce these literals exactly; an intentional algorithmic change
   re-derives them with [print_actual] below. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Registry = Nw_engine.Registry
module Engine = Nw_engine.Engine
module EStore = Nw_engine.Store
module Artifact = Nw_engine.Artifact
module Rounds = Nw_localsim.Rounds
module Net = Nw_localsim.Msg_net
module Coloring = Nw_decomp.Coloring
module Orientation = Nw_graphs.Orientation
module Obs = Nw_obs.Obs

let md5 s = Digest.to_hex (Digest.string s)

let simple = Gen.forest_union_simple (Random.State.make [| 2021 |]) 48 3
let multi = Gen.forest_union (Random.State.make [| 2021; 7 |]) 40 3

let add_coloring b c =
  for e = 0 to G.m (Coloring.graph c) - 1 do
    Buffer.add_string b
      (match Coloring.color c e with
      | Some k -> string_of_int k ^ ","
      | None -> "-,")
  done

let output_string_of store (entry : Registry.entry) g =
  let b = Buffer.create 256 in
  (match entry.Registry.yields with
  | Registry.Coloring_out -> add_coloring b (EStore.coloring store "coloring")
  | Registry.Orientation_out ->
      let o = EStore.orientation store "orientation" in
      for e = 0 to G.m g - 1 do
        Buffer.add_string b (string_of_int (Orientation.head o e) ^ ",")
      done
  | Registry.Pseudo_out ->
      let a, k = EStore.assignment store "assignment" in
      Buffer.add_string b (string_of_int k ^ ":");
      Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) a);
  Buffer.contents b

let ledger_string rounds =
  String.concat ";"
    (List.map (fun (l, r) -> l ^ "=" ^ string_of_int r) (Rounds.ledger rounds))

let counters_string trace =
  String.concat ";"
    (List.map
       (fun (k, v) -> k ^ "=" ^ string_of_int v)
       (List.sort compare (Obs.counters trace)))

(* one engine run, rendered as
   "<output md5> rounds=<total> ledger=<md5> obs=<md5>" *)
let render output rounds trace =
  Printf.sprintf "%s rounds=%d ledger=%s obs=%s" (md5 output)
    (Rounds.total rounds)
    (md5 (ledger_string rounds))
    (md5 (counters_string trace))

let fingerprint (entry : Registry.entry) g =
  let rounds = Rounds.create () in
  let rng = Random.State.make [| 7 |] in
  let alpha = fst (Nw_baseline.Gabow_westermann.arboricity g) in
  let pipeline =
    entry.Registry.build { Registry.graph = g; epsilon = 0.5; alpha }
  in
  let ctx = Engine.ctx ~rng ~rounds in
  let init = EStore.put EStore.empty "graph" (Artifact.Graph g) in
  let store, trace = Obs.collect (fun () -> Engine.run ctx pipeline ~init) in
  render (output_string_of store entry g) rounds trace

let rejected = "rejects multigraphs"

let run_case entry g =
  match fingerprint entry g with
  | s -> s
  | exception Invalid_argument _ when not (G.is_simple g) -> rejected

let expected =
  [
    (("simple", "exact"), "a4769dacaf41439a821e1e02f94a1233 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=9b76c5dfe311cc83de61037ade2f456d");
    (("simple", "greedy"), "a4769dacaf41439a821e1e02f94a1233 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=d41d8cd98f00b204e9800998ecf8427e");
    (("simple", "be"), "d5aba7b2334133c4ea9756b76651f5cf rounds=2 ledger=369b82cb46f9c474e4a487f86b6568d5 obs=36ed64d3f3a5460665b92722da8ce920");
    (("simple", "augment"), "a4769dacaf41439a821e1e02f94a1233 rounds=9602 ledger=9fb9325a3566f5daefac97a2493b325b obs=8de3d6b5780bfb39173f22a6e752be1a");
    (("simple", "star"), "060fa8aa249c71c3c246341a82938095 rounds=27 ledger=63fcd16d9e316f904d1f6e987b4ff396 obs=f349655a8feaed3bbe2a621299cab222");
    (("simple", "amr-star"), "5a86cc64e806140f1e629f496e59869d rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=4ef56a48cec8b165ae02ff5afc1214c6");
    (("simple", "lsfd"), "1474bd96b83bd164a1843e220a1a7e71 rounds=62 ledger=527c4e13c879a3e2eb9be39a15432442 obs=36ed64d3f3a5460665b92722da8ce920");
    (("simple", "orientation"), "13da812a005b843db8b720afb25571d7 rounds=9615 ledger=fe15e21ecb3e51a98a67e847f28f992f obs=8de3d6b5780bfb39173f22a6e752be1a");
    (("simple", "pseudo"), "c093d4fb554c78d2091a05ef818791aa rounds=9615 ledger=fe15e21ecb3e51a98a67e847f28f992f obs=8de3d6b5780bfb39173f22a6e752be1a");
    (("multi", "exact"), "5d978e8fbb1dc50d0bcf7df7b417ab03 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=3b5992fe6f1f8b9a12ca65ca760e6d95");
    (("multi", "greedy"), "5d978e8fbb1dc50d0bcf7df7b417ab03 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=d41d8cd98f00b204e9800998ecf8427e");
    (("multi", "be"), "1c6944c2012f5eaf1754a331f19b35cc rounds=2 ledger=369b82cb46f9c474e4a487f86b6568d5 obs=a92503010fe561ef1a0de154e4765a74");
    (("multi", "augment"), "5d978e8fbb1dc50d0bcf7df7b417ab03 rounds=9602 ledger=9fb9325a3566f5daefac97a2493b325b obs=42141cfe42de6f46ebc47955f2cba2e9");
    (("multi", "star"), "rejects multigraphs");
    (("multi", "amr-star"), "f4e33a949a0412116d2b772cb5f43780 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=21dcb74989ec87b0d376a50a71473c01");
    (("multi", "lsfd"), "417354dc8171a80bb62a83887efc948f rounds=62 ledger=527c4e13c879a3e2eb9be39a15432442 obs=1f3f402833cbca3dba14d48cedf7c32e");
    (("multi", "orientation"), "81c5344e692ee7b7eaee4c22e22f9938 rounds=9618 ledger=405956aaf55b68eb04bd44030fc5a2f9 obs=42141cfe42de6f46ebc47955f2cba2e9");
    (("multi", "pseudo"), "8d682331e0db93650f42d3229ffb9270 rounds=9618 ledger=405956aaf55b68eb04bd44030fc5a2f9 obs=42141cfe42de6f46ebc47955f2cba2e9");
  ]

let graphs = [ ("simple", simple); ("multi", multi) ]

let print_actual () =
  Obs.set_enabled true;
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (entry : Registry.entry) ->
          Printf.printf "    ((%S, %S), %S);\n" gname entry.Registry.name
            (run_case entry g))
        Registry.all)
    graphs

(* The pipelines no registry entry builds, each run through its [Run]
   wrapper under Obs and rendered like [fingerprint]: Theorem 4.5's
   partial LFD, Theorem 4.10's LFD and Theorem 5.4(2)'s list SFD. *)
let fd_graph = Gen.forest_union (Random.State.make [| 31 |]) 90 3

let star_list =
  let g = Gen.forest_union_simple (Random.State.make [| 33 |]) 100 16 in
  let _, fd = Nw_baseline.Gabow_westermann.arboricity g in
  let orientation =
    Nw_core.Orient.of_forest_decomposition fd ~rounds:(Rounds.create ())
  in
  let colors = 56 in
  let lists =
    Gen.list_palettes (Random.State.make [| 55 |]) g ~colors ~size:48
  in
  (g, orientation, Nw_decomp.Palette.of_lists ~colors lists)

let runs =
  let module Run = Nw_engine.Run in
  let module Palette = Nw_decomp.Palette in
  [
    ( "partial",
      fun ~rng ~rounds ->
        let c, _, _ =
          Run.decompose_with_leftover fd_graph (Palette.full fd_graph 5)
            ~epsilon:0.5 ~alpha:3 ~cut:Nw_core.Cut.Depth_mod ~radii:(6, 3)
            ~rng ~rounds
        in
        c );
    ( "lfd",
      fun ~rng ~rounds ->
        fst
          (Run.list_forest_decomposition fd_graph (Palette.full fd_graph 8)
             ~epsilon:1.0 ~alpha:3 ~rng ~rounds ()) );
    ( "star-lsfd",
      fun ~rng ~rounds ->
        let g, orientation, palette = star_list in
        fst (Run.star_lsfd g palette ~epsilon:0.5 ~orientation ~rng ~rounds)
    );
  ]

let run_fingerprint run =
  let rounds = Rounds.create () in
  let rng = Random.State.make [| 97 |] in
  let coloring, trace = Obs.collect (fun () -> run ~rng ~rounds) in
  let b = Buffer.create 256 in
  add_coloring b coloring;
  render (Buffer.contents b) rounds trace

let expected_run =
  [
    ("partial", "8eb24958a3dcef9107fd350c4f5e51d3 rounds=200 ledger=f424ac345b567832937a018df0a53eed obs=4c45432f14b1b0c66a95d5a86fb52158");
    ("lfd", "6258d29a494af1a5c852cb178babf91c rounds=1529137 ledger=01ab13d86a404a96242cf400346fffe6 obs=99099999bd77735dcd08031f708e2c59");
    ("star-lsfd", "907ce5f15f8d21c0fc78d854415bba75 rounds=5 ledger=5abc51a44175c4a0ee7886113352da05 obs=45b76ae348b3bdfb23a96838feafbd4b");
  ]

(* fault-timeline digest of one fixed plan over the lsfd pipeline *)
let chaos_fingerprint () =
  let plan =
    match Nw_chaos.Plan.of_string "drop=0.05,dup=0.05,delay=0.05:2,reorder" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let faults =
    match Nw_chaos.Inject.compile plan ~seed:3 () with
    | Some f -> f
    | None -> assert false
  in
  let entry =
    match Registry.find "lsfd" with Some e -> e | None -> assert false
  in
  let outcome, stats =
    Net.with_faults faults (fun () ->
        match fingerprint entry simple with
        | s -> s
        | exception Failure msg -> "failure: " ^ msg)
  in
  Printf.sprintf "digest=%Lx drops=%d dups=%d delays=%d reorders=%d %s"
    stats.Net.digest stats.Net.drops stats.Net.dups stats.Net.delays
    stats.Net.reorders outcome

let expected_chaos =
  "digest=fcd043481214ff7c drops=13 dups=14 delays=9 reorders=75 1474bd96b83bd164a1843e220a1a7e71 rounds=62 ledger=527c4e13c879a3e2eb9be39a15432442 obs=df09afb5f367ba2d35ad954ba26b6b6a"

(* Algorithm 1's statistics, which E5 publishes: every [augment_edge]
   stats record over both graphs, augmenting edge by edge in id order
   with palettes of exactly alpha colors (long sequences, so the
   short-circuit runs), of alpha-1 colors (stalls) and of alpha+1
   colors inside radius-2 balls, each followed by the coloring it
   leaves. *)
let search_stats_string () =
  let module Aug = Nw_core.Augmenting in
  let module Palette = Nw_decomp.Palette in
  let b = Buffer.create 4096 in
  List.iter
    (fun (_, g) ->
      let alpha = fst (Nw_baseline.Gabow_westermann.arboricity g) in
      List.iter
        (fun (k, radius) ->
          let palette = Palette.full g k in
          let coloring = Coloring.create g ~colors:k in
          let scratch = Aug.scratch coloring in
          for e = 0 to G.m g - 1 do
            let within =
              Option.map
                (fun r -> G.ball_of_set g [ G.src g e; G.dst g e ] r)
                radius
            in
            match Aug.augment_edge coloring palette ~edge:e ?within ~scratch () with
            | Ok st ->
                Printf.bprintf b "%d:%d:" st.Aug.iterations st.Aug.explored;
                List.iter (fun (i, x) -> Printf.bprintf b "%d/%d," i x) st.Aug.growth;
                Buffer.add_char b ';'
            | Error _ -> Buffer.add_string b "stall;"
          done;
          Array.iter
            (fun c ->
              Buffer.add_string b
                (match c with Some c -> string_of_int c ^ "," | None -> "-,"))
            (Coloring.to_array coloring))
        [ (alpha, None); (alpha - 1, None); (alpha + 1, Some 2) ])
    graphs;
  Buffer.contents b

let expected_search_stats = "20836a458265bff8b7e881af911c4d3a"

(* Forest paths read right after deletions, which none of the runs
   above make: seeded set/unset/recolor scripts, then edge-by-edge
   augmentation with exactly alpha colors (where [Augmenting.apply]
   recolors), over forest_union multigraphs. After every colored edge
   leaves a color, the [iter_path] order of a few random probe edges in
   that color is recorded; each run ends with its coloring. Returns the
   rendering and the number of colored edges unset. *)
let recolor_string () =
  let module Aug = Nw_core.Augmenting in
  let module Palette = Nw_decomp.Palette in
  let b = Buffer.create 4096 in
  let unsets = ref 0 in
  let after_unset coloring c rng =
    incr unsets;
    let m = G.m (Coloring.graph coloring) in
    for _ = 1 to 6 do
      let e = Random.State.int rng m in
      if Coloring.path_exists coloring e c then begin
        Coloring.iter_path coloring e c (fun x -> Printf.bprintf b "%d," x);
        Buffer.add_char b ';'
      end
    done
  in
  let render coloring =
    Array.iter
      (fun c ->
        Buffer.add_string b
          (match c with Some c -> string_of_int c ^ "," | None -> "-,"))
      (Coloring.to_array coloring);
    Buffer.add_char b '|'
  in
  List.iter
    (fun (seed, n, a) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.forest_union rng n a in
      let k = a + 1 in
      let coloring = Coloring.create g ~colors:k in
      for _ = 1 to 30 * n do
        let e = Random.State.int rng (G.m g) in
        let c = Random.State.int rng k in
        match Coloring.color coloring e with
        | Some c0 when Random.State.int rng 3 = 0 ->
            Coloring.unset coloring e;
            after_unset coloring c0 rng
        | prev ->
            if not (Coloring.would_close_cycle coloring e c) then begin
              Coloring.set coloring e c;
              match prev with
              | Some c0 when c0 <> c -> after_unset coloring c0 rng
              | _ -> ()
            end
      done;
      render coloring)
    [ (11, 40, 2); (12, 60, 3); (13, 90, 4) ];
  List.iter
    (fun (seed, n, a) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.forest_union rng n a in
      let alpha = fst (Nw_baseline.Gabow_westermann.arboricity g) in
      let palette = Palette.full g alpha in
      let coloring = Coloring.create g ~colors:alpha in
      let scratch = Aug.scratch coloring in
      let order = Array.init (G.m g) Fun.id in
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      Array.iter
        (fun e ->
        let before = Coloring.to_array coloring in
        (match Aug.augment_edge coloring palette ~edge:e ~scratch () with
        | Ok _ -> ()
        | Error _ -> Buffer.add_string b "stall;");
        Array.iteri
          (fun e' old ->
            match (old, Coloring.color coloring e') with
            | Some c0, Some c1 when c0 <> c1 -> after_unset coloring c0 rng
            | _ -> ())
          before)
        order;
      render coloring)
    [ (21, 40, 3); (22, 80, 4); (23, 120, 5) ];
  (Buffer.contents b, !unsets)

let expected_recolor = "33d5e658cbb99d55e0c02214869e119f"

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then begin
    print_actual ();
    Printf.printf "chaos: %S\n" (chaos_fingerprint ());
    Printf.printf "search stats: %S\n" (md5 (search_stats_string ()));
    Printf.printf "recolor: %S\n" (md5 (fst (recolor_string ())));
    List.iter
      (fun (name, run) ->
        Printf.printf "    (%S, %S);\n" name (run_fingerprint run))
      runs;
    exit 0
  end

let test_entry gname g (entry : Registry.entry) () =
  let want =
    match List.assoc_opt (gname, entry.Registry.name) expected with
    | Some w -> w
    | None -> Alcotest.failf "no pinned value for %s/%s" gname entry.name
  in
  Alcotest.(check string)
    (Printf.sprintf "%s on %s" entry.Registry.name gname)
    want (run_case entry g)

let test_search_stats () =
  Alcotest.(check string) "augment_edge stats" expected_search_stats
    (md5 (search_stats_string ()))

let test_recolor () =
  let s, unsets = recolor_string () in
  Alcotest.(check bool) "colored edges unset" true (unsets > 0);
  Alcotest.(check string) "paths after unsets" expected_recolor (md5 s)

let test_run name run () =
  Alcotest.(check string) name (List.assoc name expected_run)
    (run_fingerprint run)

let test_chaos () =
  Alcotest.(check string) "lsfd under chaos" expected_chaos
    (chaos_fingerprint ())

let () =
  Obs.set_enabled true;
  Alcotest.run "golden"
    (List.map
       (fun (gname, g) ->
         ( "pinned-" ^ gname,
           List.map
             (fun (entry : Registry.entry) ->
               Alcotest.test_case entry.Registry.name `Quick
                 (test_entry gname g entry))
             Registry.all ))
       graphs
    @ [
        ("pinned-chaos", [ Alcotest.test_case "fault digest" `Quick test_chaos ]);
        ( "pinned-search",
          [ Alcotest.test_case "augment stats" `Quick test_search_stats ] );
        ( "pinned-recolor",
          [ Alcotest.test_case "paths after unsets" `Quick test_recolor ] );
        ( "pinned-run",
          List.map
            (fun (name, run) ->
              Alcotest.test_case name `Quick (test_run name run))
            runs );
      ])
