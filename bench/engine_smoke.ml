(* Engine smoke gate (`dune build @engine-smoke`, wired into @ci):
   registry sanity, static kind-flow validation of every pipeline, a
   seeded run of every registry entry with its output verified, a
   determinism replay, and a checkpoint/resume round trip asserting the
   resumed run recharges strictly fewer rounds than a from-scratch run
   while producing the identical coloring. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Coloring = Nw_decomp.Coloring
module Rounds = Nw_localsim.Rounds
module Engine = Nw_engine.Engine
module Store = Nw_engine.Store
module Artifact = Nw_engine.Artifact
module Registry = Nw_engine.Registry

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "engine_smoke: FAIL %s\n%!" name
  end

let check_report name = function
  | Ok () -> ()
  | Error reason ->
      incr failures;
      Printf.eprintf "engine_smoke: FAIL %s: %s\n%!" name reason

(* run one registry entry end to end; returns the final store *)
let run_entry entry spec ~seed =
  let rng = Random.State.make [| seed |] in
  let rounds = Rounds.create () in
  let ctx = Engine.ctx ~rng ~rounds in
  let pipeline = entry.Registry.build spec in
  let init =
    Store.put Store.empty "graph" (Artifact.Graph spec.Registry.graph)
  in
  Engine.run ctx pipeline ~init

let coloring_of store = Coloring.to_array (Store.coloring store "coloring")

let smoke_entry g ~alpha entry =
  let spec = { Registry.graph = g; epsilon = 0.5; alpha } in
  let name tag = Printf.sprintf "%s/%s" entry.Registry.name tag in
  (* static kind-flow check before anything runs *)
  (match
     Engine.validate
       ~initial:[ ("graph", Artifact.kind_of (Artifact.Graph g)) ]
       (entry.Registry.build spec)
   with
  | Ok () -> ()
  | Error e -> check_report (name "validate") (Error e));
  (* pipeline shape must be deterministic across builds *)
  check (name "digest-stable")
    (String.equal
       (Engine.digest (entry.Registry.build spec))
       (Engine.digest (entry.Registry.build spec)));
  let store = run_entry entry spec ~seed:42 in
  check_report (name "verify") (Registry.verify entry spec store);
  if entry.Registry.yields = Registry.Coloring_out then begin
    (* same seed, same pipeline => byte-identical coloring *)
    let store' = run_entry entry spec ~seed:42 in
    check (name "replay") (coloring_of store = coloring_of store')
  end

(* checkpoint/resume: a crash after pass [i] must resume to the same
   coloring while recharging only the rounds of the remaining passes *)
let smoke_resume g ~alpha =
  let entry =
    match Registry.find "augment" with Some e -> e | None -> assert false
  in
  let spec = { Registry.graph = g; epsilon = 0.5; alpha } in
  let pipeline = entry.Registry.build spec in
  let init = Store.put Store.empty "graph" (Artifact.Graph g) in
  let checkpoints = ref [] in
  let rounds_full = Rounds.create () in
  let ctx =
    Engine.ctx ~rng:(Random.State.make [| 7 |]) ~rounds:rounds_full
  in
  let store_full =
    Engine.run ~checkpoint:(fun ck -> checkpoints := ck :: !checkpoints) ctx
      pipeline ~init
  in
  check "resume/checkpoint-count"
    (List.length !checkpoints = List.length pipeline.Engine.passes);
  (* pick a checkpoint strictly inside the pipeline: some rounds already
     charged, some still to come *)
  let mid =
    List.find
      (fun ck -> ck.Engine.ck_completed = 2)
      !checkpoints
  in
  let rounds_resumed = Rounds.create () in
  let ctx' =
    Engine.ctx ~rng:(Random.State.make [| 999 |]) ~rounds:rounds_resumed
  in
  let store_resumed =
    Engine.run ~resume:mid ctx' pipeline ~init:Store.empty
  in
  check "resume/coloring-identical"
    (coloring_of store_full = coloring_of store_resumed);
  check "resume/fewer-rounds"
    (Rounds.total rounds_resumed < Rounds.total rounds_full);
  check "resume/rounds-charged" (Rounds.total rounds_resumed > 0)

let () =
  (* registry sanity *)
  let names = Registry.names () in
  check "registry/unique-names"
    (List.length (List.sort_uniq String.compare names) = List.length names);
  check "registry/find-all"
    (List.for_all (fun n -> Registry.find n <> None) names);
  check "registry/find-unknown" (Registry.find "no-such-algorithm" = None);
  let (reg1, hash1) = Registry.stamp () in
  let (reg2, hash2) = Registry.stamp () in
  check "registry/stamp-stable"
    (String.equal reg1 reg2 && String.equal hash1 hash2);
  check "registry/hash-shape"
    (String.length hash1 = 16
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
         hash1);
  (* every entry runs and verifies on a small simple graph *)
  let g = Gen.grid 6 6 in
  let alpha, _ = Nw_baseline.Gabow_westermann.arboricity g in
  List.iter (smoke_entry g ~alpha) Registry.all;
  (* multigraph coverage for the non-star pipelines *)
  let gm = Gen.forest_union (Random.State.make [| 11 |]) 80 3 in
  let alpha_m, _ = Nw_baseline.Gabow_westermann.arboricity gm in
  List.iter
    (fun entry ->
      if not entry.Registry.star then smoke_entry gm ~alpha:alpha_m entry)
    Registry.all;
  smoke_resume gm ~alpha:alpha_m;
  if !failures > 0 then begin
    Printf.eprintf "engine_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  Printf.printf "engine_smoke: registry %s %s, %d entries ok\n%!"
    (fst (Registry.stamp ()))
    (snd (Registry.stamp ()))
    (List.length Registry.all)
