(* nw-wire/1 + daemon-core tests (lib/service).

   Four contracts are pinned here without opening a socket:

   - framing: length-prefixed frames round-trip byte-exactly, including
     payloads carrying hostile strings (quotes, control bytes, raw
     newlines inside the frame body), and every desynchronized prefix is
     a Wire.Protocol_error, never a crash or a silent resync;
   - the request handler: malformed payloads are answered with
     ok:false error frames and the server state stays fully usable
     afterwards (the daemon never dies with a connection);
   - the session model: epochs grow strictly monotonically across every
     mutating request, and churn answers are incremental exactly when a
     palette color admits the edge, with a correct fallback otherwise;
   - golden equivalence: a served decompose is byte-identical to the
     one-shot engine sequence forestd runs for the same graph and seed,
     Coloring.add_edge/connected agree with a from-scratch oracle, and
     seeded churn scripts answer exactly as a session that rebuilds its
     graph and coloring after every operation. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Coloring = Nw_decomp.Coloring
module Verify = Nw_decomp.Verify
module Rounds = Nw_localsim.Rounds
module Engine = Nw_engine.Engine
module Store = Nw_engine.Store
module Artifact = Nw_engine.Artifact
module Registry = Nw_engine.Registry
module Wire = Nw_service.Wire
module Session = Nw_service.Session
module Server = Nw_service.Server
module J = Nw_obs.Json_lite
module Obs = Nw_obs.Obs

let rng seed = Random.State.make [| seed |]

(* Obs recording is process-wide: restore the default-off switch *)
let with_obs f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let counter t name =
  Option.value ~default:0 (List.assoc_opt name (Obs.counters t))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* push a string through a real channel pair so read_frame sees exactly
   what write_frame produced *)
let channel_round_trip payloads =
  let fname = Filename.temp_file "nw_wire_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove fname with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin fname in
      List.iter (Wire.write_frame oc) payloads;
      close_out oc;
      let ic = open_in_bin fname in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec drain acc =
            match Wire.read_frame ic with
            | Some p -> drain (p :: acc)
            | None -> List.rev acc
          in
          drain []))

let read_raw bytes =
  let fname = Filename.temp_file "nw_wire_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove fname with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin fname in
      output_string oc bytes;
      close_out oc;
      let ic = open_in_bin fname in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Wire.read_frame ic))

(* --- framing ------------------------------------------------------- *)

let hostile_strings =
  [
    "plain";
    "with \"quotes\" and \\ backslashes";
    "control \001 \t bytes";
    "newline\nin the middle";
    "unicode \xc3\xa9\xe2\x88\x80 bytes";
    String.make 300 '{';
  ]

let frame_round_trip () =
  let payloads =
    ""
    :: "{\"id\":1}"
    :: List.map (fun s -> "{\"s\":" ^ J.Emit.string_value s ^ "}")
         hostile_strings
  in
  Alcotest.(check (list string))
    "frames round-trip byte-exactly" payloads
    (channel_round_trip payloads)

let frame_hostile_parse () =
  List.iter
    (fun s ->
      let payload =
        Printf.sprintf "{\"id\":7,\"op\":\"load-graph\",\"session\":%s,\
                        \"n\":2,\"edges\":[[0,1]]}"
          (J.Emit.string_value s)
      in
      match channel_round_trip [ payload ] with
      | [ back ] -> (
          match Wire.parse_request back with
          | Ok { Wire.id = 7; request = Wire.Load_graph { session; _ } } ->
              Alcotest.(check string) "hostile session survives" s session
          | Ok _ -> Alcotest.fail "wrong request parsed"
          | Error e -> Alcotest.fail ("hostile string broke parse: " ^ e))
      | _ -> Alcotest.fail "frame did not round-trip")
    hostile_strings

let frame_malformed () =
  let rejected bytes =
    match read_raw bytes with
    | exception Wire.Protocol_error _ -> ()
    | Some _ -> Alcotest.fail ("accepted malformed frame: " ^ String.escaped bytes)
    | None -> Alcotest.fail ("EOF instead of error: " ^ String.escaped bytes)
  in
  rejected "xyz\n{}\n";              (* unparsable length prefix *)
  rejected "-4\n{}\n";               (* negative length *)
  rejected "999999999999\n{}\n";     (* over max_frame_bytes *)
  rejected "10\n{}\n";               (* truncated payload *)
  rejected "2\n{}X";                 (* missing newline terminator *)
  rejected "2\n{}";                  (* truncated terminator *)
  Alcotest.(check (option string)) "clean EOF is None" None (read_raw "")

let response_builders () =
  let r = Wire.response_ok ~id:3 [ Wire.str "x" "a\"b"; Wire.int "k" 9 ] in
  let json = J.parse r in
  Alcotest.(check (option int)) "id" (Some 3)
    (Option.bind (J.member "id" json) J.to_int);
  Alcotest.(check (option string)) "escaped field" (Some "a\"b")
    (Option.bind (J.member "x" json) J.to_string);
  let e = Wire.response_error ~id:None ~code:"bad-request" ~detail:"d" in
  let json = J.parse e in
  Alcotest.(check bool) "null id" true (J.member "id" json = Some J.Null);
  Alcotest.(check (option string)) "code" (Some "bad-request")
    (Option.bind (J.member "error" json) J.to_string);
  Alcotest.(check string) "int_array renders -1 as null" "[0,null,2]"
    (Wire.int_array [| 0; -1; 2 |])

(* --- the request handler ------------------------------------------- *)

let state () = Server.create_state ()

let send st payload =
  let resp, verdict = Server.handle st payload in
  (match verdict with
  | `Shutdown -> Alcotest.fail "unexpected shutdown verdict"
  | `Continue -> ());
  J.parse resp

let ok_resp json =
  match J.member "ok" json with Some (J.Bool b) -> b | _ -> false

let req ?(extra = "") ~id op =
  Printf.sprintf "{\"id\":%d,\"op\":\"%s\"%s}" id op extra

let handler_survives_malformed () =
  let st = state () in
  let garbage =
    [
      "not json at all";
      "{\"op\":\"hello\"}";                 (* missing id *)
      "{\"id\":1,\"op\":\"warp\"}";         (* unknown op *)
      "{\"id\":2,\"op\":\"decompose\"}";    (* missing fields *)
      "{\"id\":\"x\",\"op\":\"stats\"}";    (* non-integer id *)
    ]
  in
  List.iter
    (fun p ->
      let json = send st p in
      Alcotest.(check bool)
        (Printf.sprintf "rejected: %s" p)
        false (ok_resp json))
    garbage;
  (* the state survives: a well-formed request still succeeds and the
     error tally reflects every rejection *)
  let json =
    send st (req ~id:9 "hello" ~extra:(",\"proto\":\"" ^ Wire.proto ^ "\""))
  in
  Alcotest.(check bool) "hello works after garbage" true (ok_resp json);
  Alcotest.(check int) "errors counted" (List.length garbage)
    (Server.errors st)

(* a long-lived collection keeps per-name totals, not request trees:
   every request is folded once its serve span closes *)
let handler_folds_requests () =
  with_obs @@ fun () ->
  let st = state () in
  let hello = req ~id:1 "hello" ~extra:(",\"proto\":\"" ^ Wire.proto ^ "\"") in
  let (), t =
    Obs.collect (fun () ->
        for _ = 1 to 5 do
          ignore (send st hello)
        done)
  in
  let b = Buffer.create 64 in
  Obs.Export.jsonl b [ t ];
  Alcotest.(check bool) "no span tree kept" false
    (List.exists
       (String.starts_with ~prefix:"{\"type\":\"span\"")
       (String.split_on_char '\n' (Buffer.contents b)));
  Alcotest.(check (list (pair string int)))
    "per-name totals kept" [ ("serve:hello", 5) ]
    (List.map (fun (p : Obs.phase) -> (p.Obs.name, p.Obs.calls)) (Obs.phases t));
  Alcotest.(check int) "requests counted" 5 (counter t "service.requests")

let load_extra n edges =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf ",\"session\":\"s\",\"n\":%d,\"edges\":[" n);
  List.iteri
    (fun i (u, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d]" u v))
    edges;
  Buffer.add_string b "]";
  Buffer.contents b

let epoch_of json =
  match Option.bind (J.member "epoch" json) J.to_int with
  | Some e -> e
  | None -> Alcotest.fail "response without epoch"

let handler_epoch_monotone () =
  let st = state () in
  let json = send st (req ~id:1 "load-graph" ~extra:(load_extra 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ])) in
  Alcotest.(check bool) "load ok" true (ok_resp json);
  let e1 = epoch_of json in
  let batch =
    ",\"session\":\"s\",\"algorithm\":\"augment\",\"seed\":5,\"alpha\":1"
  in
  let epochs =
    List.map
      (fun (id, op, extra) ->
        let json = send st (req ~id op ~extra) in
        Alcotest.(check bool) (op ^ " ok") true (ok_resp json);
        epoch_of json)
      [
        (2, "decompose", batch);
        (3, "insert-edge", ",\"session\":\"s\",\"u\":0,\"v\":2");
        (4, "delete-edge", ",\"session\":\"s\",\"edge\":0");
        (5, "decompose", batch);
      ]
  in
  let all = e1 :: epochs in
  List.iteri
    (fun i e ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "epoch strictly grows at step %d" i)
          true
          (e > List.nth all (i - 1)))
    all

let handler_error_codes () =
  let st = state () in
  let code json =
    Option.value ~default:"?"
      (Option.bind (J.member "error" json) J.to_string)
  in
  let json = send st (req ~id:1 "stats" ~extra:",\"session\":\"ghost\"") in
  Alcotest.(check string) "unknown session" "unknown-session" (code json);
  let json = send st (req ~id:2 "load-graph" ~extra:(load_extra 3 [ (0, 1) ])) in
  Alcotest.(check bool) "load ok" true (ok_resp json);
  let json =
    send st
      (req ~id:3 "decompose" ~extra:",\"session\":\"s\",\"algorithm\":\"nope\"")
  in
  Alcotest.(check string) "unknown algorithm" "unknown-algorithm" (code json);
  let json =
    send st
      (req ~id:4 "decompose"
         ~extra:",\"session\":\"s\",\"algorithm\":\"orientation\"")
  in
  Alcotest.(check string) "orientation via decompose" "wrong-op" (code json);
  let json =
    send st (req ~id:5 "insert-edge" ~extra:",\"session\":\"s\",\"u\":0,\"v\":9")
  in
  Alcotest.(check string) "endpoint range" "bad-edge" (code json)

(* --- golden equivalence with the one-shot engine sequence ----------- *)

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.fail ("registry lost entry " ^ name)

(* the one-shot sequence of `forestd decompose`, run directly *)
let one_shot g ~name ~epsilon ~seed ~alpha =
  let e = entry name in
  let pipeline = e.Registry.build { Registry.graph = g; epsilon; alpha } in
  let ctx = Engine.ctx ~rng:(rng seed) ~rounds:(Rounds.create ()) in
  let init = Store.put Store.empty "graph" (Artifact.Graph g) in
  let store = Engine.run ctx pipeline ~init in
  Store.coloring store "coloring"

let served_equals_one_shot () =
  let g = Gen.forest_union (rng 41) 80 3 in
  let edges = Array.to_list (G.edges g) in
  let s = Session.create ~name:"golden" ~n:(G.n g) ~edges in
  let epsilon = 0.5 and seed = 2021 and alpha = 3 in
  match
    Session.decompose s ~entry:(entry "augment") ~epsilon ~seed
      ~alpha:(Some alpha)
  with
  | Error e -> Alcotest.fail ("served decompose failed: " ^ e)
  | Ok d -> (
      (match d.Session.d_verified with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("served output unverified: " ^ e));
      match d.Session.d_output with
      | Session.Colored { slot_colors; colors_used } ->
          let expected = one_shot g ~name:"augment" ~epsilon ~seed ~alpha in
          Alcotest.(check int) "colors_used matches one-shot"
            (Verify.colors_used expected) colors_used;
          Array.iteri
            (fun e c ->
              Alcotest.(check (option int))
                (Printf.sprintf "edge %d color" e)
                (Coloring.color expected e)
                (if c < 0 then None else Some c))
            slot_colors
      | _ -> Alcotest.fail "augment must yield a coloring")

let served_deterministic () =
  let mk () =
    let g = Gen.forest_union (rng 43) 60 2 in
    let s =
      Session.create ~name:"d" ~n:(G.n g)
        ~edges:(Array.to_list (G.edges g))
    in
    match
      Session.decompose s ~entry:(entry "augment") ~epsilon:0.5 ~seed:7
        ~alpha:(Some 2)
    with
    | Ok { Session.d_output = Session.Colored { slot_colors; _ }; _ } ->
        slot_colors
    | Ok _ -> Alcotest.fail "expected a coloring"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (array int)) "same seed, same served bytes" (mk ()) (mk ())

(* a fault-free served decompose runs once, with no checkpoints: the
   star pipeline rejects a parallel edge in its sfd.select pass, and a
   retry resumed from a checkpoint would only reject it again *)
let served_failure_runs_once () =
  with_obs @@ fun () ->
  let s =
    Session.create ~name:"par" ~n:3 ~edges:[ (0, 1); (0, 1); (1, 2) ]
  in
  let result, t =
    Obs.collect (fun () ->
        Session.decompose s ~entry:(entry "star") ~epsilon:0.5 ~seed:1
          ~alpha:None)
  in
  (match result with
  | Error e ->
      Alcotest.(check bool) "answers decomposition failed" true
        (String.starts_with ~prefix:"decomposition failed: " e)
  | Ok _ -> Alcotest.fail "a parallel edge must fail the star pipeline");
  Alcotest.(check int) "pass:sfd.select runs once" 1
    (List.fold_left
       (fun acc (p : Obs.phase) ->
         if String.equal p.Obs.name "pass:sfd.select" then acc + p.Obs.calls
         else acc)
       0 (Obs.phases t))

(* --- churn: incremental vs fallback -------------------------------- *)

let churn_incremental_then_fallback () =
  (* line multigraph on 2 vertices with 3 parallel edges: α = 3 exactly
     and every forest holds exactly one of the parallel edges, so the
     palette has no room for a fourth — the next insert must fall back
     (and the fallback re-resolves α = 4 on the grown graph) *)
  let s =
    Session.create ~name:"c" ~n:2 ~edges:[ (0, 1); (0, 1); (0, 1) ]
  in
  (match
     Session.decompose s ~entry:(entry "exact") ~epsilon:0.5 ~seed:3
       ~alpha:None
   with
  | Ok d -> Alcotest.(check int) "alpha resolved" 3 d.Session.d_alpha
  | Error e -> Alcotest.fail e);
  (match Session.insert_edge s ~u:0 ~v:1 with
  | Ok c ->
      Alcotest.(check string) "parallel insert falls back" "fallback"
        (Session.mode_label c.Session.ch_mode)
  | Error e -> Alcotest.fail ("fallback insert failed: " ^ e));
  Alcotest.(check int) "fallback counted" 1 (Session.fallbacks s);
  Alcotest.(check int) "all four edges live" 4 (Session.live_edges s);
  (* a tree edge on a fresh vertexless spot: trivially incremental *)
  let s2 =
    Session.create ~name:"c2" ~n:4 ~edges:[ (0, 1); (1, 2) ]
  in
  (match
     Session.decompose s2 ~entry:(entry "augment") ~epsilon:0.5 ~seed:3
       ~alpha:(Some 1)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Session.insert_edge s2 ~u:2 ~v:3 with
  | Ok c ->
      Alcotest.(check string) "tree insert is incremental" "incremental"
        (Session.mode_label c.Session.ch_mode)
  | Error e -> Alcotest.fail e);
  (match Session.delete_edge s2 ~edge:0 with
  | Ok c ->
      Alcotest.(check string) "delete is incremental" "incremental"
        (Session.mode_label c.Session.ch_mode)
  | Error e -> Alcotest.fail e);
  match Session.delete_edge s2 ~edge:0 with
  | Ok _ -> Alcotest.fail "double delete must be rejected"
  | Error _ -> ()

(* a star entry keeps no live coloring, so every insert falls back to a
   verified star-forest decomposition; an insert whose fallback fails
   (the simple-only star pipeline handed a parallel edge) answers an
   error and keeps no slot *)
let churn_star_fallback () =
  let s = Session.create ~name:"st" ~n:5 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  (match
     Session.decompose s ~entry:(entry "star") ~epsilon:0.5 ~seed:1
       ~alpha:None
   with
  | Ok d ->
      Alcotest.(check bool) "star batch verified" true
        (Result.is_ok d.Session.d_verified)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no live coloring" true
    (Option.is_none (Session.slot_colors s));
  (match Session.insert_edge s ~u:0 ~v:1 with
  | Ok _ -> Alcotest.fail "a parallel edge must fail the star fallback"
  | Error _ -> ());
  Alcotest.(check int) "failed insert keeps no live edge" 3
    (Session.live_edges s);
  Alcotest.(check int) "failed insert keeps no slot" 3 (Session.total_slots s);
  match Session.insert_edge s ~u:3 ~v:4 with
  | Ok c ->
      Alcotest.(check string) "star insert falls back" "fallback"
        (Session.mode_label c.Session.ch_mode);
      Alcotest.(check int) "slot id reused" 3 c.Session.ch_edge;
      Alcotest.(check bool) "fallback answers a color" true
        (Option.is_some c.Session.ch_color)
  | Error e -> Alcotest.fail e

(* every fallback is counted once in total and once by its cause *)
let churn_fallback_causes () =
  with_obs @@ fun () ->
  let (), t =
    Obs.collect (fun () ->
        (* a star session keeps no live coloring: both inserts fall back,
           and the parallel edge fails the simple-only re-decomposition *)
        let s =
          Session.create ~name:"st" ~n:5 ~edges:[ (0, 1); (1, 2); (2, 3) ]
        in
        ignore
          (Session.decompose s ~entry:(entry "star") ~epsilon:0.5 ~seed:1
             ~alpha:None);
        Alcotest.(check bool) "parallel star insert fails" true
          (Result.is_error (Session.insert_edge s ~u:0 ~v:1));
        Alcotest.(check bool) "star insert answers" true
          (Result.is_ok (Session.insert_edge s ~u:3 ~v:4));
        (* three parallel edges take one forest each: a fourth fills the
           augment palette *)
        let s =
          Session.create ~name:"aug" ~n:2 ~edges:[ (0, 1); (0, 1); (0, 1) ]
        in
        (match
           Session.decompose s ~entry:(entry "augment") ~epsilon:0.5 ~seed:3
             ~alpha:None
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        match Session.insert_edge s ~u:0 ~v:1 with
        | Ok c ->
            Alcotest.(check string) "full palette falls back" "fallback"
              (Session.mode_label c.Session.ch_mode)
        | Error e -> Alcotest.fail e)
  in
  List.iter
    (fun (name, want) -> Alcotest.(check int) name want (counter t name))
    [
      ("service.fallbacks", 3);
      ("service.fallbacks.no_live_coloring", 2);
      ("service.fallbacks.palette_full", 1);
      ("service.fallbacks.redecompose_failed", 1);
    ]

(* --- Coloring.add_edge / connected differential --------------------- *)

(* naive oracle: u and v are connected in color c iff a DFS over the
   edges of color c reaches v from u *)
let oracle_connected g col c u v =
  let n = G.n g in
  let adj = Array.make n [] in
  for e = 0 to G.m g - 1 do
    if Coloring.color col e = Some c then begin
      let a, b = G.endpoints g e in
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b)
    end
  done;
  let seen = Array.make n false in
  let rec dfs x =
    if not seen.(x) then begin
      seen.(x) <- true;
      List.iter dfs adj.(x)
    end
  in
  dfs u;
  seen.(v)

let extend_connected_differential () =
  let st = rng 51 in
  let g = Gen.forest_union st 40 2 in
  let colors = 3 in
  let col = Coloring.create g ~colors in
  (* a valid-by-construction partial coloring: greedily place each edge
     in the first color whose forest it does not close a cycle in *)
  for e = 0 to G.m g - 1 do
    let u, v = G.endpoints g e in
    let rec place c =
      if c < colors then
        if not (Coloring.connected col c u v) then Coloring.set col e c
        else place (c + 1)
    in
    place 0
  done;
  let before = Coloring.to_array col in
  (* grow the cache in place by fresh random edges *)
  for i = 1 to 15 do
    let u = Random.State.int st (G.n g) in
    let v = (u + 1 + Random.State.int st (G.n g - 1)) mod G.n g in
    Alcotest.(check int) "next edge id" (G.m g + i - 1)
      (Coloring.add_edge col u v)
  done;
  let g' = Coloring.graph col in
  Alcotest.(check int) "grown graph" (G.m g + 15) (G.m g');
  (* old assignments survive verbatim; the new edges start uncolored *)
  let after = Coloring.to_array col in
  for e = 0 to G.m g' - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "edge %d color preserved" e)
      (if e < G.m g then before.(e) else None)
      after.(e)
  done;
  (* connectivity answers match the DFS oracle on the grown graph, for
     every color, across a seeded sample of vertex pairs *)
  for _ = 1 to 200 do
    let u = Random.State.int st (G.n g') in
    let v = Random.State.int st (G.n g') in
    for c = 0 to colors - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "connected(%d) %d-%d matches oracle" c u v)
        (oracle_connected g' col c u v)
        (Coloring.connected col c u v)
    done
  done

(* --- churn differential: in-place session vs rebuild-everything ------ *)

(* The oracle is the session as it behaved when every operation rebuilt
   the slot graph and the coloring from scratch: a plain slot table, a
   DFS over each color for the palette probe, and a one-shot engine run
   on the compacted live graph for the fallback. *)
type oracle = {
  o_n : int;
  mutable o_slots : (int * int) list;  (* reversed *)
  mutable o_live : bool array;
  mutable o_colors : int array;  (* slot -> color, -1 dead or uncolored *)
  mutable o_palette : int;
  mutable o_epoch : int;
}

let oracle_slot o s = List.nth o.o_slots (List.length o.o_slots - 1 - s)

let oracle_color_connected o c u v =
  let adj = Array.make o.o_n [] in
  List.iteri
    (fun i (a, b) ->
      let s = List.length o.o_slots - 1 - i in
      if o.o_colors.(s) = c then begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    o.o_slots;
  let seen = Array.make o.o_n false in
  let rec dfs x =
    if not seen.(x) then begin
      seen.(x) <- true;
      List.iter dfs adj.(x)
    end
  in
  dfs u;
  seen.(v)

let oracle_decompose o ~name ~seed =
  let slots = List.length o.o_slots in
  let b = G.create_builder o.o_n and slotmap = ref [] in
  for s = 0 to slots - 1 do
    if o.o_live.(s) then begin
      let u, v = oracle_slot o s in
      ignore (G.add_edge b u v);
      slotmap := s :: !slotmap
    end
  done;
  let gl = G.build b and slotmap = Array.of_list (List.rev !slotmap) in
  let alpha = fst (Nw_baseline.Gabow_westermann.arboricity gl) in
  let col = one_shot gl ~name ~epsilon:0.5 ~seed ~alpha in
  o.o_colors <- Array.make slots (-1);
  Array.iteri
    (fun e s -> o.o_colors.(s) <- Option.value ~default:(-1) (Coloring.color col e))
    slotmap;
  o.o_palette <- 1 + Array.fold_left max 0 o.o_colors;
  o.o_epoch <- o.o_epoch + 1

(* (mode, color, epoch) of one oracle churn answer *)
let oracle_insert o ~name ~seed u v =
  let slot = List.length o.o_slots in
  o.o_slots <- (u, v) :: o.o_slots;
  o.o_live <- Array.append o.o_live [| true |];
  o.o_colors <- Array.append o.o_colors [| -1 |];
  o.o_epoch <- o.o_epoch + 1;
  let rec probe c =
    if c >= o.o_palette then None
    else if not (oracle_color_connected o c u v) then Some c
    else probe (c + 1)
  in
  match probe 0 with
  | Some c ->
      o.o_colors.(slot) <- c;
      ("incremental", Some c, o.o_epoch)
  | None ->
      oracle_decompose o ~name ~seed;
      ("fallback", Some o.o_colors.(slot), o.o_epoch)

let oracle_delete o slot =
  o.o_live.(slot) <- false;
  o.o_epoch <- o.o_epoch + 1;
  let released = o.o_colors.(slot) in
  o.o_colors.(slot) <- -1;
  ("incremental", (if released >= 0 then Some released else None), o.o_epoch)

let churn_matches_rebuild_oracle name =
  QCheck.Test.make ~count:25
    ~name:(name ^ " churn = rebuild oracle")
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 5 + Random.State.int st 8 in
      let g = Gen.forest_union st n (1 + Random.State.int st 2) in
      let edges = Array.to_list (G.edges g) in
      let s = Session.create ~name:"q" ~n ~edges in
      let o =
        { o_n = n; o_slots = List.rev edges;
          o_live = Array.make (List.length edges) true; o_colors = [||];
          o_palette = 0; o_epoch = 1 }
      in
      (match
         Session.decompose s ~entry:(entry name) ~epsilon:0.5 ~seed
           ~alpha:None
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      oracle_decompose o ~name ~seed;
      let check_live step =
        let cols =
          match Session.slot_colors s with
          | Some c -> c
          | None -> Alcotest.failf "step %d: no live coloring" step
        in
        if cols <> o.o_colors then
          Alcotest.failf "step %d: slot colors differ from the oracle" step;
        let b = G.create_builder n and assigned = ref [] in
        Array.iteri
          (fun slot c ->
            if o.o_live.(slot) then begin
              let u, v = oracle_slot o slot in
              assigned := (G.add_edge b u v, c) :: !assigned
            end)
          cols;
        let col = Coloring.create (G.build b) ~colors:(max 1 o.o_palette) in
        List.iter
          (fun (e, c) ->
            if c < 0 then Alcotest.failf "step %d: a live slot is uncolored" step;
            Coloring.set col e c)
          !assigned;
        match Verify.forest_decomposition col with
        | Ok () -> ()
        | Error e -> Alcotest.failf "step %d: %s" step e
      in
      check_live 0;
      for step = 1 to 40 do
        let live = Session.live_edges s in
        let expected, got =
          if live <= 1 || Random.State.int st 5 < 3 then begin
            let u = Random.State.int st n in
            let v = (u + 1 + Random.State.int st (n - 1)) mod n in
            (oracle_insert o ~name ~seed u v, Session.insert_edge s ~u ~v)
          end
          else begin
            let rec pick () =
              let slot = Random.State.int st (Session.total_slots s) in
              if o.o_live.(slot) then slot else pick ()
            in
            let slot = pick () in
            (oracle_delete o slot, Session.delete_edge s ~edge:slot)
          end
        in
        (match got with
        | Ok c ->
            let answer =
              (Session.mode_label c.Session.ch_mode, c.Session.ch_color,
               c.Session.ch_epoch)
            in
            if answer <> expected then
              Alcotest.failf "step %d: answer differs from the oracle" step
        | Error e -> Alcotest.failf "step %d: %s" step e);
        check_live step
      done;
      true)

(* --- the incremental decoder --------------------------------------- *)

(* every frame and every Protocol_error message read_frame gives a byte
   stream, the decoder gives too, however read(2) splits the stream *)
let decode_chunked chunk bytes =
  let d = Wire.decoder () in
  let buf = Bytes.of_string bytes in
  let n = Bytes.length buf in
  let rec go off acc =
    if off >= n then (
      Wire.finish d;
      List.rev acc)
    else
      let len = min chunk (n - off) in
      let rec eat o acc =
        if o >= off + len then acc
        else
          let k = Wire.feed d buf o (off + len - o) in
          match Wire.take d with
          | Some p -> eat (o + k) (p :: acc)
          | None -> eat (o + k) acc
      in
      go (off + len) (eat off acc)
  in
  match go 0 [] with
  | frames -> Ok frames
  | exception Wire.Protocol_error m -> Error m

let read_all bytes =
  let fname = Filename.temp_file "nw_wire_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove fname with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin fname (fun oc -> output_string oc bytes);
      In_channel.with_open_bin fname (fun ic ->
          let rec drain acc =
            match Wire.read_frame ic with
            | Some p -> drain (p :: acc)
            | None -> Ok (List.rev acc)
            | exception Wire.Protocol_error m -> Error m
          in
          drain []))

let decoder_matches_read_frame () =
  let streams =
    [
      "";
      Wire.encode "" ^ Wire.encode "{\"id\":1}" ^ Wire.encode "a\nb";
      "xyz\n{}\n"; "-4\n{}\n"; "999999999999\n{}\n"; "10\n{}\n"; "2\n{}X";
      "2\n{}"; "0\n"; "12"; "garbage"; String.make 100 '7';
      Wire.encode "{}" ^ "3\n{}";
    ]
  in
  List.iter
    (fun bytes ->
      let expected = read_all bytes in
      List.iter
        (fun chunk ->
          let show = function
            | Ok l -> "frames " ^ String.concat "|" l
            | Error m -> "error " ^ m
          in
          Alcotest.(check string)
            (Printf.sprintf "%S in %d-byte reads" bytes chunk)
            (show expected)
            (show (decode_chunked chunk bytes)))
        [ 1; 2; 3; 7; 4096 ])
    streams

(* --- the daemon over real sockets ---------------------------------- *)

let now = Unix.gettimeofday

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nw_svc_%d_%s.sock" (Unix.getpid ()) tag)

(* connect, retrying while the daemon has not bound the path yet; reads
   time out after 5 s so a daemon that never answers fails the test
   instead of hanging it *)
let dial path =
  let deadline = now () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

type client = { fd : Unix.file_descr; ic : in_channel }

let connect path =
  let fd = dial path in
  { fd; ic = Unix.in_channel_of_descr fd }

let send c s = ignore (Unix.write_substring c.fd s 0 (String.length s))

let call c payload =
  send c (Wire.encode payload);
  Wire.read_frame c.ic

let hello id =
  Printf.sprintf "{\"id\":%d,\"op\":\"hello\",\"proto\":%S}" id Wire.proto

let answered id = function
  | Some reply ->
      contains reply (Printf.sprintf "\"id\":%d,\"ok\":true" id)
  | None -> false

(* the daemon has closed this connection: EOF, not a reply or a
   receive timeout *)
let closed_by_daemon c =
  match Wire.read_frame c.ic with
  | None -> true
  | Some _ -> false
  | exception Sys_error _ -> false

let http_get path =
  let fd = dial path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let req = "GET / HTTP/1.0\r\nHost: localhost\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let b = Buffer.create 512 and bytes = Bytes.create 1024 in
  let rec drain () =
    match Unix.read fd bytes 0 (Bytes.length bytes) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes b bytes 0 k;
        drain ()
  in
  drain ();
  Buffer.contents b

let await_exit pid ~within =
  let deadline = now () +. within in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ -> false
    | _, status -> status = Unix.WEXITED 0
  in
  go ()

(* [Server.serve] in a forked child (this test process runs one domain,
   so it may fork); the child is killed if the test leaves it running *)
let with_daemon ?(metrics = true) tag f =
  let sock = sock_path tag in
  let msock = if metrics then Some (sock_path (tag ^ "_m")) else None in
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  match Unix.fork () with
  | 0 ->
      Unix._exit
        (match
           Server.serve { Server.socket_path = sock; metrics_socket = msock }
         with
        | () -> 0
        | exception _ -> 1)
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid)
          | _ -> ()
          | exception Unix.Unix_error _ -> ());
          List.iter
            (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
            (sock :: Option.to_list msock))
        (fun () -> f ~pid ~sock ~msock:(Option.value msock ~default:""))

(* half a frame: the length line promises more than ever comes *)
let stall path =
  let c = connect path in
  send c "60\n{\"id\":1,\"op\":";
  c

let counter_line name v =
  Printf.sprintf "nw_counter_total{name=\"%s\"} %d\n" name v

let stalled_client_blocks_nobody () =
  with_daemon "stall" @@ fun ~pid:_ ~sock ~msock:_ ->
  let a = stall sock in
  let b = connect sock in
  let t0 = now () in
  let reply = call b (hello 2) in
  Alcotest.(check bool) "second client answered" true (answered 2 reply);
  Alcotest.(check bool) "within 1 s" true (now () -. t0 < 1.0);
  Alcotest.(check bool) "the stalled client is still open" true
    (Unix.select [ a.fd ] [] [] 0.0 = ([], [], []))

let stalled_client_closed_at_deadline () =
  with_daemon "deadline" @@ fun ~pid:_ ~sock ~msock ->
  let a = stall sock in
  let t0 = now () in
  Alcotest.(check bool) "closed by the daemon" true (closed_by_daemon a);
  let dt = now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "closed at the 2 s frame deadline (after %.2f s)" dt)
    true
    (dt > 1.5 && dt < 4.0);
  Alcotest.(check bool) "deadline counter reads 1" true
    (contains (http_get msock)
       (counter_line "service.connections_closed.deadline" 1))

let scrape_while_stalled () =
  with_daemon "scrape" @@ fun ~pid:_ ~sock ~msock ->
  let _a = stall sock in
  let b = connect sock in
  Alcotest.(check bool) "hello answered" true (answered 1 (call b (hello 1)));
  let resp = http_get msock in
  Alcotest.(check bool) "HTTP 200" true (contains resp "200 OK");
  Alcotest.(check bool) "live counters" true
    (contains resp (counter_line "service.requests" 1))

let shutdown_with_open_connection () =
  with_daemon "shutdown" @@ fun ~pid ~sock ~msock:_ ->
  let a = connect sock in
  Alcotest.(check bool) "hello answered" true (answered 1 (call a (hello 1)));
  let b = connect sock in
  let reply = call b "{\"id\":2,\"op\":\"shutdown\"}" in
  Alcotest.(check bool) "shutdown answered" true (answered 2 reply);
  Alcotest.(check bool) "daemon exits while a is open" true
    (await_exit pid ~within:3.0);
  Alcotest.(check bool) "a sees EOF" true (closed_by_daemon a);
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists sock)

let evicts_longest_idle () =
  with_daemon ~metrics:false "cap" @@ fun ~pid:_ ~sock ~msock:_ ->
  let clients =
    List.init Server.max_connections (fun i ->
        let c = connect sock in
        Alcotest.(check bool) "hello answered" true
          (answered i (call c (hello i)));
        c)
  in
  let extra = connect sock in
  Alcotest.(check bool) "one past the cap is served" true
    (answered 99 (call extra (hello 99)));
  (match clients with
  | first :: second :: _ ->
      Alcotest.(check bool) "the longest-idle connection is evicted" true
        (closed_by_daemon first);
      Alcotest.(check bool) "the next one is kept" true
        (answered 7 (call second (hello 7)))
  | _ -> Alcotest.fail "cap below two");
  List.iter (fun c -> close_in_noerr c.ic) (extra :: clients)

(* a session with isolated vertices: forest_union_simple n=2000 alpha=3
   plus 200 vertices no edge touches, which defeat the network
   decomposition's single-cluster shortcut. Its augment batch (alpha
   omitted) is decomposed and verified, and a second client is answered
   after it within the 5 s read timeout. The case takes 0.4 s; with one
   BFS of G^distance per vertex it took 2.1 s. *)
let isolated_vertices_served () =
  with_daemon ~metrics:false "isolated" @@ fun ~pid:_ ~sock ~msock:_ ->
  let g = Gen.forest_union_simple (rng 1) 2000 3 in
  let a = connect sock in
  let load = load_extra 2200 (Array.to_list (G.edges g)) in
  Alcotest.(check bool) "session loaded" true
    (answered 1 (call a (req ~id:1 "load-graph" ~extra:load)));
  let reply =
    call a
      (req ~id:2 "decompose"
         ~extra:",\"session\":\"s\",\"algorithm\":\"augment\"")
  in
  Alcotest.(check bool) "decomposed" true (answered 2 reply);
  Alcotest.(check bool) "verified" true
    (contains (Option.get reply) "\"verified\":true");
  let b = connect sock in
  Alcotest.(check bool) "second client answered" true
    (answered 3 (call b (hello 3)))

(* --- the metrics socket --------------------------------------------- *)

let scrape_and_stop () =
  with_daemon "mscrape" @@ fun ~pid ~sock ~msock ->
  (* two scrapes: the loop must survive a served scrape *)
  List.iter
    (fun _ ->
      let resp = http_get msock in
      Alcotest.(check bool) "HTTP 200" true (contains resp "200 OK");
      Alcotest.(check bool) "prometheus content type" true
        (contains resp "text/plain; version=0.0.4"))
    [ 1; 2 ];
  let c = connect sock in
  ignore (call c "{\"id\":1,\"op\":\"shutdown\"}");
  Alcotest.(check bool) "daemon exits" true (await_exit pid ~within:3.0);
  Alcotest.(check bool) "metrics socket file unlinked" false
    (Sys.file_exists msock)

(* a second daemon on the same paths never sees EADDRINUSE *)
let restart_same_path () =
  let run () =
    with_daemon "restart" @@ fun ~pid ~sock ~msock ->
    Alcotest.(check bool) "serves scrapes" true
      (contains (http_get msock) "200 OK");
    let c = connect sock in
    ignore (call c "{\"id\":1,\"op\":\"shutdown\"}");
    Alcotest.(check bool) "daemon exits" true (await_exit pid ~within:3.0)
  in
  run ();
  run ()

(* a crashed daemon's socket files, bound and never unlinked, are
   reclaimed at both paths *)
let stale_sockets_reclaimed () =
  List.iter
    (fun p ->
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_UNIX p);
      Unix.close dead)
    [ sock_path "stale"; sock_path "stale_m" ];
  with_daemon "stale" @@ fun ~pid:_ ~sock ~msock ->
  let c = connect sock in
  Alcotest.(check bool) "request socket reclaimed" true
    (answered 1 (call c (hello 1)));
  Alcotest.(check bool) "metrics socket reclaimed" true
    (contains (http_get msock) "200 OK")

(* anything else at either path is someone else's file: refused before
   either socket is bound, and left in place *)
let non_socket_refused () =
  let file = Filename.temp_file "nw_svc" ".not_a_sock" in
  let sock = sock_path "refused" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (socket_path, metrics_socket) ->
      (match Server.serve { Server.socket_path; metrics_socket } with
      | () -> Alcotest.fail "serve must refuse a non-socket path"
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "the existing file was not unlinked" true
        (Sys.file_exists file);
      Alcotest.(check bool) "nothing was bound" false (Sys.file_exists sock))
    [ (file, None); (sock, Some file) ]

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "service"
    [
      ( "wire",
        List.map tc
          [
            ("frame round-trip", frame_round_trip);
            ("hostile strings", frame_hostile_parse);
            ("malformed frames", frame_malformed);
            ("response builders", response_builders);
            ("decoder = read_frame", decoder_matches_read_frame);
          ] );
      ( "daemon",
        List.map tc
          [
            ("stalled client blocks nobody", stalled_client_blocks_nobody);
            ("stalled client closed at deadline",
             stalled_client_closed_at_deadline);
            ("scrape while stalled", scrape_while_stalled);
            ("shutdown with another open", shutdown_with_open_connection);
            ("evicts longest-idle past the cap", evicts_longest_idle);
            ("isolated vertices served", isolated_vertices_served);
          ] );
      ( "metrics-server",
        List.map tc
          [
            ("scrape and stop", scrape_and_stop);
            ("restart on same path", restart_same_path);
            ("stale socket reclaimed", stale_sockets_reclaimed);
            ("non-socket path refused", non_socket_refused);
          ] );
      ( "handler",
        List.map tc
          [
            ("survives malformed payloads", handler_survives_malformed);
            ("epoch monotonicity", handler_epoch_monotone);
            ("error codes", handler_error_codes);
            ("folds each request", handler_folds_requests);
          ] );
      ( "golden",
        List.map tc
          [
            ("served = one-shot", served_equals_one_shot);
            ("served deterministic", served_deterministic);
            ("failed decompose runs once", served_failure_runs_once);
          ] );
      ( "churn",
        List.map tc
          [
            ("incremental vs fallback", churn_incremental_then_fallback);
            ("extend/connected differential", extend_connected_differential);
            ("star inserts fall back", churn_star_fallback);
            ("fallbacks counted by cause", churn_fallback_causes);
          ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              churn_matches_rebuild_oracle "augment";
              churn_matches_rebuild_oracle "exact";
            ] );
    ]
