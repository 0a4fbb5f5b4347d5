(* Pinned spec: literal outputs of every registry entry.

   Each registry entry runs through the engine on one simple graph and
   one multigraph (entries that reject multigraphs are pinned to do so).
   For every run the test pins three digests computed once and written
   here as literals:

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

let output_string_of store (entry : Registry.entry) g =
  let b = Buffer.create 256 in
  (match entry.Registry.yields with
  | Registry.Coloring_out ->
      let c = EStore.coloring store "coloring" in
      for e = 0 to G.m g - 1 do
        Buffer.add_string b
          (match Coloring.color c e with
          | Some k -> string_of_int k ^ ","
          | None -> "-,")
      done
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
  Printf.sprintf "%s rounds=%d ledger=%s obs=%s"
    (md5 (output_string_of store entry g))
    (Rounds.total rounds)
    (md5 (ledger_string rounds))
    (md5 (counters_string trace))

let rejected = "rejects multigraphs"

let run_case entry g =
  match fingerprint entry g with
  | s -> s
  | exception Invalid_argument _ when not (G.is_simple g) -> rejected

let expected =
  [
    (("simple", "exact"), "a4769dacaf41439a821e1e02f94a1233 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=9b76c5dfe311cc83de61037ade2f456d");
    (("simple", "greedy"), "a4769dacaf41439a821e1e02f94a1233 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=daa4bae2bd76440d8442ea312ebbad8d");
    (("simple", "be"), "d5aba7b2334133c4ea9756b76651f5cf rounds=2 ledger=369b82cb46f9c474e4a487f86b6568d5 obs=36ed64d3f3a5460665b92722da8ce920");
    (("simple", "augment"), "a4769dacaf41439a821e1e02f94a1233 rounds=9602 ledger=9fb9325a3566f5daefac97a2493b325b obs=8de3d6b5780bfb39173f22a6e752be1a");
    (("simple", "star"), "060fa8aa249c71c3c246341a82938095 rounds=27 ledger=63fcd16d9e316f904d1f6e987b4ff396 obs=2bc0bf634d2b87db275f4fc962571015");
    (("simple", "amr-star"), "5a86cc64e806140f1e629f496e59869d rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=4ef56a48cec8b165ae02ff5afc1214c6");
    (("simple", "lsfd"), "2cf578599038f35310cfbe250291c34e rounds=62 ledger=527c4e13c879a3e2eb9be39a15432442 obs=82ffb2749421506864276edef14086bc");
    (("simple", "orientation"), "13da812a005b843db8b720afb25571d7 rounds=9615 ledger=fe15e21ecb3e51a98a67e847f28f992f obs=8de3d6b5780bfb39173f22a6e752be1a");
    (("simple", "pseudo"), "c093d4fb554c78d2091a05ef818791aa rounds=9615 ledger=fe15e21ecb3e51a98a67e847f28f992f obs=8de3d6b5780bfb39173f22a6e752be1a");
    (("multi", "exact"), "5d978e8fbb1dc50d0bcf7df7b417ab03 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=3b5992fe6f1f8b9a12ca65ca760e6d95");
    (("multi", "greedy"), "5d978e8fbb1dc50d0bcf7df7b417ab03 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=f2e27cbd573be18e55429abd6717c35e");
    (("multi", "be"), "1c6944c2012f5eaf1754a331f19b35cc rounds=2 ledger=369b82cb46f9c474e4a487f86b6568d5 obs=a92503010fe561ef1a0de154e4765a74");
    (("multi", "augment"), "5d978e8fbb1dc50d0bcf7df7b417ab03 rounds=9602 ledger=9fb9325a3566f5daefac97a2493b325b obs=42141cfe42de6f46ebc47955f2cba2e9");
    (("multi", "star"), "rejects multigraphs");
    (("multi", "amr-star"), "f4e33a949a0412116d2b772cb5f43780 rounds=0 ledger=d41d8cd98f00b204e9800998ecf8427e obs=21dcb74989ec87b0d376a50a71473c01");
    (("multi", "lsfd"), "8cf03da959cc986291ac32d21fbc7b7a rounds=62 ledger=527c4e13c879a3e2eb9be39a15432442 obs=2679e1a3ebac5d0734f8f7faa910f689");
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
  "digest=fcd043481214ff7c drops=13 dups=14 delays=9 reorders=75 2cf578599038f35310cfbe250291c34e rounds=62 ledger=527c4e13c879a3e2eb9be39a15432442 obs=b13f7bc72e21bfba1e0e88ffba27b946"

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then begin
    print_actual ();
    Printf.printf "chaos: %S\n" (chaos_fingerprint ());
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
    @ [ ("pinned-chaos", [ Alcotest.test_case "fault digest" `Quick test_chaos ]) ])
