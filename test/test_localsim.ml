(* Tests for the LOCAL-model simulator: round ledger and message kernel. *)

module Rounds = Nw_localsim.Rounds
module Net = Nw_localsim.Msg_net
module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators

let test_rounds_basic () =
  let r = Rounds.create () in
  Alcotest.(check int) "empty" 0 (Rounds.total r);
  Rounds.charge r ~label:"a" 3;
  Rounds.charge r ~label:"b" 2;
  Rounds.charge r ~label:"a" 1;
  Alcotest.(check int) "total" 6 (Rounds.total r);
  Alcotest.(check (list (pair string int)))
    "ledger order and sums"
    [ ("a", 4); ("b", 2) ]
    (Rounds.ledger r)

let test_rounds_negative_rejected () =
  let r = Rounds.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Rounds.charge: negative rounds")
    (fun () -> Rounds.charge r ~label:"x" (-1))

let test_rounds_merge () =
  let a = Rounds.create () and b = Rounds.create () in
  Rounds.charge a ~label:"x" 5;
  Rounds.charge b ~label:"x" 3;
  Rounds.charge b ~label:"y" 2;
  Rounds.merge_into ~into:a b;
  Alcotest.(check int) "merged total" 10 (Rounds.total a);
  Alcotest.(check (list (pair string int)))
    "merged ledger"
    [ ("x", 8); ("y", 2) ]
    (Rounds.ledger a)

let test_rounds_charge_max () =
  let main = Rounds.create () in
  let mk charges =
    let r = Rounds.create () in
    List.iter (fun (l, c) -> Rounds.charge r ~label:l c) charges;
    r
  in
  Rounds.charge_max main
    [ mk [ ("p", 4); ("q", 1) ]; mk [ ("p", 2); ("q", 7) ] ];
  Alcotest.(check int) "max per label" 11 (Rounds.total main)

(* labels keep their first-seen order across the parallel sub-ledgers,
   and the per-label maxima land under the right labels *)
let test_rounds_charge_max_label_order () =
  let main = Rounds.create () in
  let mk charges =
    let r = Rounds.create () in
    List.iter (fun (l, c) -> Rounds.charge r ~label:l c) charges;
    r
  in
  Rounds.charge_max main
    [ mk [ ("b", 2); ("a", 5) ]; mk [ ("a", 9); ("c", 1) ] ];
  Alcotest.(check (list (pair string int)))
    "first-seen order, max per label"
    [ ("b", 2); ("a", 9); ("c", 1) ]
    (Rounds.ledger main)

(* grand_total counts every charge to every ledger once: the bench
   harness attributes an experiment the delta of this counter around it,
   so the delta must equal the charges made in between, including the
   re-charges of a merge_into and a charge_max *)
let test_rounds_grand_total () =
  let before = Rounds.grand_total () in
  let a = Rounds.create () and b = Rounds.create () in
  Rounds.charge a ~label:"x" 3;
  Rounds.charge b ~label:"y" 11;
  Rounds.charge b ~label:"x" 4;
  Rounds.merge_into ~into:a b;
  let c = Rounds.create () in
  Rounds.charge c ~label:"y" 2;
  Rounds.charge_max a [ b; c ];
  Alcotest.(check int) "delta = sum of the charges" (3 + 11 + 4 + 15 + 2 + 15)
    (Rounds.grand_total () - before)

(* one round of neighbor color exchange on a path *)
let test_msg_net_exchange () =
  let g = Gen.path 4 in
  let rounds = Rounds.create () in
  let net = Net.create g ~rounds ~init:(fun v -> (v, [])) in
  Net.round net ~label:"exchange"
    ~send:(fun v (my, _) ->
      ignore my;
      Array.to_list (Array.map (fun (_, e) -> (e, v)) (G.incident g v)))
    ~recv:(fun _ (my, _) msgs -> (my, List.map snd msgs));
  let _, nbrs1 = Net.state net 1 in
  Alcotest.(check (list int)) "middle vertex hears both" [ 0; 2 ]
    (List.sort compare nbrs1);
  Alcotest.(check int) "one round charged" 1 (Rounds.total rounds);
  Alcotest.(check int) "messages: 2 per edge" 6 (Net.messages_delivered net)

let test_msg_net_bad_edge_rejected () =
  let g = Gen.path 3 in
  let rounds = Rounds.create () in
  let net = Net.create g ~rounds ~init:(fun v -> v) in
  (* vertex 0 tries to send on edge 1 (between vertices 1 and 2) *)
  Alcotest.check_raises "non-incident edge"
    (Invalid_argument "Multigraph.other_endpoint: vertex not on edge")
    (fun () ->
      Net.round net ~label:"bad"
        ~send:(fun v st -> if v = 0 then [ (1, st) ] else [])
        ~recv:(fun _ st _ -> st))


(* ------------------------------------------------------------------ *)
(* Ball view                                                           *)
(* ------------------------------------------------------------------ *)

module BV = Nw_localsim.Ball_view

let ball_equal (a : BV.ball) (b : BV.ball) =
  a.BV.center = b.BV.center && a.BV.vertices = b.BV.vertices
  && a.BV.edges = b.BV.edges

let test_ball_view_path () =
  let g = Gen.path 7 in
  let rounds = Rounds.create () in
  let balls = BV.collect g ~radius:2 ~rounds in
  Alcotest.(check int) "charged exactly r rounds" 2 (Rounds.total rounds);
  for v = 0 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "ball of %d matches BFS" v)
      true
      (ball_equal balls.(v) (BV.reference g ~radius:2 v))
  done

let test_ball_view_radius_zero () =
  let g = Gen.cycle 5 in
  let rounds = Rounds.create () in
  let balls = BV.collect g ~radius:0 ~rounds in
  Alcotest.(check (list int)) "knows only itself" [ 3 ]
    balls.(3).BV.vertices

let prop_ball_view_matches_bfs =
  QCheck.Test.make ~name:"distributed ball = central BFS ball" ~count:30
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed; 3 |] in
      let n = 5 + Random.State.int st 25 in
      let g = Gen.erdos_renyi st n 0.15 in
      let radius = 1 + Random.State.int st 3 in
      let rounds = Rounds.create () in
      let balls = BV.collect g ~radius ~rounds in
      let ok = ref true in
      for v = 0 to n - 1 do
        if not (ball_equal balls.(v) (BV.reference g ~radius v)) then
          ok := false
      done;
      !ok)

let () =
  Alcotest.run "nw_localsim"
    [
      ( "rounds",
        [
          Alcotest.test_case "basic" `Quick test_rounds_basic;
          Alcotest.test_case "negative" `Quick test_rounds_negative_rejected;
          Alcotest.test_case "merge" `Quick test_rounds_merge;
          Alcotest.test_case "charge_max" `Quick test_rounds_charge_max;
          Alcotest.test_case "charge_max label order" `Quick
            test_rounds_charge_max_label_order;
          Alcotest.test_case "grand total" `Quick test_rounds_grand_total;
        ] );
      ( "ball_view",
        [
          Alcotest.test_case "path radius 2" `Quick test_ball_view_path;
          Alcotest.test_case "radius 0" `Quick test_ball_view_radius_zero;
          QCheck_alcotest.to_alcotest prop_ball_view_matches_bfs;
        ] );
      ( "msg_net",
        [
          Alcotest.test_case "exchange" `Quick test_msg_net_exchange;
          Alcotest.test_case "bad edge" `Quick test_msg_net_bad_edge_rejected;
        ] );
    ]
