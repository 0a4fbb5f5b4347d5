(* Data-plane suite: the one adjacency layout of Multigraph and the
   streaming rounds of the message kernel that scan it
   (docs/data-plane.md).

   Part 1 — qcheck differential: on random multigraphs (parallel edges
   included), every Multigraph query agrees with a naive model written
   here — incident lists by scanning edge ids, balls by list BFS —
   iteration order included, since the determinism contract of the whole
   repo is phrased over adjacency order.

   Part 2 — streaming rounds: [round_count] gives the same states and
   delivered-message counts as [round] driven with the equivalent
   per-message send/recv, and Cole–Vishkin's fault-free rounds on parent
   planes match its rounds on a net.

   Part 3 — pipeline determinism: one engine-registry pipeline run
   twice in one process, with an unrelated run in between, yields the
   same coloring and round ledger; no state leaks between runs. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Net = Nw_localsim.Msg_net
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Registry = Nw_engine.Registry
module Engine = Nw_engine.Engine
module EStore = Nw_engine.Store
module Artifact = Nw_engine.Artifact
module CV = Nw_core.Cole_vishkin
module Obs = Nw_obs.Obs

let rng seed = Random.State.make [| seed; 0xc5a |]

(* random multigraph as an explicit edge list: duplicates (parallel
   edges) are likely at these densities, which is the point *)
let random_edges st n m =
  List.init m (fun _ ->
      let u = Random.State.int st n in
      let v = Random.State.int st (n - 1) in
      let v = if v >= u then v + 1 else v in
      (u, v))

(* ------------------------------------------------------------------ *)
(* the naive model                                                     *)
(* ------------------------------------------------------------------ *)

(* a graph is its vertex count and edge array; edge id = array index *)
type model = { mn : int; medges : (int * int) array }

let model_of n edges = { mn = n; medges = Array.of_list edges }

(* incident pairs of [v] by scanning every edge id in ascending order *)
let model_incident md v =
  let acc = ref [] in
  Array.iteri
    (fun e (a, b) ->
      if a = v then acc := (b, e) :: !acc
      else if b = v then acc := (a, e) :: !acc)
    md.medges;
  List.rev !acc

(* BFS over list queues; vertices come out in reversed visit order *)
let model_ball md v r =
  let dist = Array.make md.mn (-1) in
  dist.(v) <- 0;
  let rec go queue visited =
    match queue with
    | [] -> visited
    | u :: rest ->
        let next =
          if dist.(u) >= r then []
          else
            List.filter_map
              (fun (w, _) ->
                if dist.(w) < 0 then begin
                  dist.(w) <- dist.(u) + 1;
                  Some w
                end
                else None)
              (model_incident md u)
        in
        go (rest @ next) (u :: visited)
  in
  go [ v ] []

let model_ball_of_set md vs r =
  let member = Array.make md.mn false in
  List.iter
    (fun v -> List.iter (fun u -> member.(u) <- true) (model_ball md v r))
    vs;
  member

let model_is_simple md =
  let keys =
    Array.to_list
      (Array.map (fun (a, b) -> if a < b then (a, b) else (b, a)) md.medges)
  in
  List.length (List.sort_uniq compare keys) = List.length keys

(* every query, compared for one (multigraph, model) pair; raises on the
   first mismatch so qcheck reports the seed *)
let check_model g md =
  let fail fmt = Printf.ksprintf failwith fmt in
  let m = Array.length md.medges in
  if G.n g <> md.mn then fail "n: %d vs %d" (G.n g) md.mn;
  if G.m g <> m then fail "m: %d vs %d" (G.m g) m;
  Array.iteri
    (fun e (a, b) ->
      if G.endpoints g e <> (a, b) then fail "endpoints %d" e;
      if G.src g e <> a || G.dst g e <> b then fail "src/dst %d" e;
      if G.other_endpoint g e a <> b || G.other_endpoint g e b <> a then
        fail "other_endpoint %d" e)
    md.medges;
  let max_deg = ref 0 in
  for v = 0 to md.mn - 1 do
    let want = model_incident md v in
    max_deg := max !max_deg (List.length want);
    if G.degree g v <> List.length want then fail "degree %d" v;
    if Array.to_list (G.incident g v) <> want then fail "incident %d" v;
    let iterated = ref [] in
    G.iter_incident g v (fun w e -> iterated := (w, e) :: !iterated);
    if List.rev !iterated <> want then fail "iter_incident order %d" v;
    if
      List.rev (G.fold_incident g v ~init:[] (fun acc w e -> (w, e) :: acc))
      <> want
    then fail "fold_incident order %d" v
  done;
  if G.max_degree g <> !max_deg then fail "max_degree";
  if G.edges g <> md.medges then fail "edges";
  if
    List.rev (G.fold_edges (fun e u v acc -> (e, u, v) :: acc) g [])
    <> List.mapi (fun e (u, v) -> (e, u, v)) (Array.to_list md.medges)
  then fail "fold_edges order";
  if G.is_simple g <> model_is_simple md then fail "is_simple";
  for v = 0 to min (md.mn - 1) 7 do
    for r = 0 to 3 do
      if G.ball g v r <> model_ball md v r then fail "ball %d r=%d" v r
    done
  done;
  let set = List.filteri (fun i _ -> i mod 3 = 0) (List.init md.mn Fun.id) in
  for r = 0 to 3 do
    if G.ball_of_set g set r <> model_ball_of_set md set r then
      fail "ball_of_set r=%d" r
  done

let model_of_graph g = { mn = G.n g; medges = G.edges g }

let prop_of_edges =
  QCheck.Test.make ~name:"Multigraph.of_edges == naive model on every op"
    ~count:200 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 30 in
      let m = Random.State.int st 80 in
      let edges = random_edges st n m in
      check_model (G.of_edges n edges) (model_of n edges);
      true)

(* two builders fed the same edges alternately get the model's
   sequential ids, and a graph frozen mid-way is unaffected by the
   edges added after it *)
let prop_builder =
  QCheck.Test.make ~name:"interleaved builders assign identical edge ids"
    ~count:100 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 20 in
      let steps = Random.State.int st 60 in
      let cut = Random.State.int st (steps + 1) in
      let a = G.create_builder n and b = G.create_builder n in
      let added = ref [] and snapshot = ref None in
      for i = 0 to steps - 1 do
        if i = cut then snapshot := Some (G.build a, List.rev !added);
        let u = Random.State.int st n in
        let v = Random.State.int st (n - 1) in
        let v = if v >= u then v + 1 else v in
        let id = G.add_edge a u v and id' = G.add_edge b u v in
        if id <> i || id' <> i then failwith "edge id mismatch";
        added := (u, v) :: !added
      done;
      let edges = List.rev !added in
      check_model (G.build a) (model_of n edges);
      check_model (G.build b) (model_of n edges);
      (match !snapshot with
      | Some (g, prefix) -> check_model g (model_of n prefix)
      | None -> ());
      true)

(* the derived graphs the decomposition core builds per color: kept
   edges renumbered in ascending original id, vertex ids preserved *)
let prop_subgraph =
  QCheck.Test.make ~name:"subgraph_of_edges / induced match the model"
    ~count:100 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 30 in
      let edges = random_edges st n (Random.State.int st 80) in
      let g = G.of_edges n edges in
      let keep = Array.init (G.m g) (fun _ -> Random.State.bool st) in
      let sub, emap = G.subgraph_of_edges g keep in
      let kept = List.filteri (fun e _ -> keep.(e)) edges in
      check_model sub (model_of n kept);
      if
        Array.to_list emap
        <> List.filter (fun e -> keep.(e)) (List.init (G.m g) Fun.id)
      then failwith "subgraph emap";
      let members = Array.init n (fun _ -> Random.State.bool st) in
      let ind, vmap, emap = G.induced g members in
      let vs = List.filter (fun v -> members.(v)) (List.init n Fun.id) in
      let new_id = Array.make n (-1) in
      List.iteri (fun i v -> new_id.(v) <- i) vs;
      let inside =
        List.filter
          (fun e ->
            let u, v = G.endpoints g e in
            members.(u) && members.(v))
          (List.init (G.m g) Fun.id)
      in
      check_model ind
        (model_of (List.length vs)
           (List.map
              (fun e ->
                let u, v = G.endpoints g e in
                (new_id.(u), new_id.(v)))
              inside));
      Array.to_list vmap = vs && Array.to_list emap = inside)

let prop_generated_families =
  QCheck.Test.make ~name:"model differential over generator families"
    ~count:40 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 10 + Random.State.int st 40 in
      let g =
        match Random.State.int st 3 with
        | 0 -> Gen.forest_union st n 3
        | 1 -> Gen.line_multigraph (max 2 (n / 4)) 5
        | _ -> Gen.erdos_renyi st n 0.2
      in
      check_model g (model_of_graph g);
      true)

(* ------------------------------------------------------------------ *)
(* streaming rounds == the per-message round                           *)
(* ------------------------------------------------------------------ *)

(* Each streaming round is run against [round] with the equivalent
   per-message send/recv on the same graph and initial states. The
   receive functions are order-insensitive beyond edge identity, as the
   primitives require. *)

let stream_graph seed =
  let st = rng seed in
  let n = 2 + Random.State.int st 40 in
  (G.of_edges n (random_edges st n (Random.State.int st 120)), st)

let incident_msgs g v x =
  List.rev (G.fold_incident g v ~init:[] (fun acc _ e -> (e, x e) :: acc))

let run_both g ~init ~stream ~reference =
  let go step =
    let net = Net.create g ~rounds:(Rounds.create ()) ~init in
    for r = 1 to 3 do
      step net r
    done;
    (Array.to_list (Net.states net), Net.messages_delivered net)
  in
  (go stream, go reference)

let same_outcome (a, b) = a = b

let prop_stream_count =
  QCheck.Test.make ~name:"round_count == per-message round" ~count:60
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g, st = stream_graph seed in
      let salt = Random.State.int st 1000 in
      let decide v s = (v + s + salt) mod 3 <> 0 in
      let recv v s k = (s * 7) + k + v in
      same_outcome
        (run_both g
           ~init:(fun v -> v land 7)
           ~stream:(fun net _ -> Net.round_count net ~label:"t" ~decide ~recv)
           ~reference:(fun net _ ->
             Net.round net ~label:"t"
               ~send:(fun v s ->
                 if decide v s then incident_msgs g v (fun _ -> ()) else [])
               ~recv:(fun v s msgs -> recv v s (List.length msgs)))))

(* Cole–Vishkin computes its fault-free rounds on parent planes and
   runs them on a net only under an armed fault context; arming the
   never-firing [no_faults] policy forces the net. Both must give the
   same colors, round ledger and msg_net.* counters on t random rooted
   forests over one vertex set. Each forest is random (a vertex hangs
   off an earlier one in a random order, or is a root), roots only, or
   a path; edge ids interleave the forests; ids are distinct and up to
   2^40. *)
let random_forests st =
  let n =
    if Random.State.int st 8 = 0 then 1 else 1 + Random.State.int st 300
  in
  let t = 1 + Random.State.int st 6 in
  let parents =
    Array.init t (fun _ ->
        let order = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let k = Random.State.int st (i + 1) in
          let x = order.(i) in
          order.(i) <- order.(k);
          order.(k) <- x
        done;
        let parent = Array.make n (-1) in
        (match Random.State.int st 4 with
        | 0 -> ()
        | 1 -> for i = 1 to n - 1 do parent.(order.(i)) <- order.(i - 1) done
        | _ ->
            for i = 1 to n - 1 do
              if Random.State.int st 5 > 0 then
                parent.(order.(i)) <- order.(Random.State.int st i)
            done);
        parent)
  in
  let edges =
    Array.of_list
      (List.concat
         (List.init t (fun j ->
              List.filter_map
                (fun v ->
                  let p = parents.(j).(v) in
                  if p < 0 then None else Some (j, v, p))
                (List.init n Fun.id))))
  in
  for i = Array.length edges - 1 downto 1 do
    let k = Random.State.int st (i + 1) in
    let x = edges.(i) in
    edges.(i) <- edges.(k);
    edges.(k) <- x
  done;
  let g =
    G.of_edges n (Array.to_list (Array.map (fun (_, v, p) -> (v, p)) edges))
  in
  let edge_forest = Array.map (fun (j, _, _) -> j) edges in
  let parent_edge = Array.make (n * t) (-1) in
  Array.iteri (fun e (j, v, _) -> parent_edge.((v * t) + j) <- e) edges;
  let ids = Hashtbl.create n in
  while Hashtbl.length ids < n do
    Hashtbl.replace ids (Random.State.full_int st (1 lsl 40)) ()
  done;
  let ids = Array.of_seq (Hashtbl.to_seq_keys ids) in
  (g, edge_forest, parent_edge, t, ids)

let run_cv (g, edge_forest, parent_edge, t, ids) =
  let rounds = Rounds.create () in
  Obs.set_enabled true;
  let colors, trace =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        Obs.collect (fun () ->
            CV.three_color_forests g ~edge_forest ~parent_edge ~t ~ids ~rounds))
  in
  let kernel =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"msg_net." name)
      (Obs.counters trace)
  in
  (Array.to_list colors, Rounds.ledger rounds, List.sort compare kernel)

let prop_cv_flat_equals_net =
  QCheck.Test.make ~name:"flat Cole-Vishkin == net" ~count:80
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let input = random_forests (rng seed) in
      let flat = run_cv input in
      let net, _ = Net.with_faults Net.no_faults (fun () -> run_cv input) in
      let _, ledger, kernel = flat in
      ledger <> [] && kernel <> [] && flat = net)

(* ------------------------------------------------------------------ *)
(* pipeline determinism: repeat runs in one process                    *)
(* ------------------------------------------------------------------ *)

(* colorings compared edge-by-edge through accessors (the repo's DET002
   discipline: no polymorphic compare on graph-like values) *)
let coloring_fingerprint g c =
  List.init (G.m g) (fun e -> Coloring.color c e)

let run_pipeline g =
  let entry =
    match Registry.find "lsfd" with Some e -> e | None -> assert false
  in
  let rounds = Rounds.create () in
  let rng = Random.State.make [| 7; 0x601d |] in
  let pipeline =
    entry.Registry.build { Registry.graph = g; epsilon = 0.5; alpha = 3 }
  in
  let ctx = Engine.ctx ~rng ~rounds in
  let init = EStore.put EStore.empty "graph" (Artifact.Graph g) in
  let store = Engine.run ctx pipeline ~init in
  let coloring = EStore.coloring store "coloring" in
  (coloring_fingerprint g coloring, Rounds.ledger rounds)

let repeat_pipeline () =
  let g = Gen.forest_union (rng 91) 120 3 in
  let reference = run_pipeline g in
  ignore (run_pipeline (Gen.forest_union (rng 57) 80 3));
  Alcotest.(check (pair (list (option int)) (list (pair string int))))
    "lsfd pipeline identical on a repeat run" reference (run_pipeline g)

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "dataplane"
    [
      qsuite "differential"
        [ prop_of_edges; prop_builder; prop_subgraph; prop_generated_families ];
      qsuite "streaming" [ prop_stream_count; prop_cv_flat_equals_net ];
      ( "pipeline-determinism",
        [
          Alcotest.test_case "lsfd repeat run identical" `Quick
            repeat_pipeline;
        ] );
    ]
