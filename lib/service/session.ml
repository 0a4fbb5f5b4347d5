module G = Nw_graphs.Multigraph
module Vecbuf = Nw_graphs.Vecbuf
module Orientation = Nw_graphs.Orientation
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Verify = Nw_decomp.Verify
module Obs = Nw_obs.Obs
module Plan = Nw_chaos.Plan
module Harness = Nw_chaos.Harness
module Registry = Nw_engine.Registry
module Engine = Nw_engine.Engine
module EStore = Nw_engine.Store
module Artifact = Nw_engine.Artifact

(* the batch parameters behind the live coloring, remembered so the
   churn fallback can re-run the same decomposition on the mutated
   graph. [b_alpha] keeps the caller's option: when it was omitted the
   fallback re-resolves the exact arboricity of the *new* graph (by the
   Nash-Williams sandwich, a partition only when the density bound and
   the degeneracy disagree) rather than reusing a bound the mutations
   may have invalidated. *)
type batch = {
  b_entry : Registry.entry;
  b_epsilon : float;
  b_seed : int;
  b_alpha : int option;
}

type t = {
  s_name : string;
  s_n : int;
  mutable s_epoch : int;
  (* the slot table, append-only: slot -> endpoints, dead slots
     included *)
  s_src : Vecbuf.t;
  s_dst : Vecbuf.t;
  mutable s_live : bool array;  (* slot -> not tombstoned *)
  mutable s_slots : int;
  mutable s_live_count : int;
  mutable s_col : Coloring.t option;
      (* live incremental coloring over every slot; its edge ids are
         the slot ids *)
  mutable s_palette : int;  (* color budget of [s_col] *)
  mutable s_batch : batch option;
  mutable s_chaos : (Plan.t * int) option;
  mutable s_incremental : int;
  mutable s_fallbacks : int;
}

let name t = t.s_name
let epoch t = t.s_epoch
let vertex_count t = t.s_n
let live_edges t = t.s_live_count
let total_slots t = t.s_slots
let incremental_updates t = t.s_incremental
let fallbacks t = t.s_fallbacks

let slot_colors t =
  Option.map
    (fun col ->
      Array.init t.s_slots (Coloring.get col))
    t.s_col

let last_algorithm t =
  Option.map (fun b -> b.b_entry.Registry.name) t.s_batch

let valid_edge ~n u v =
  if u < 0 || u >= n || v < 0 || v >= n then
    Error (Printf.sprintf "endpoint out of range (n = %d)" n)
  else if Int.equal u v then Error "self-loops are not allowed"
  else Ok ()

let create ~name ~n ~edges =
  if n < 0 then invalid_arg "Session.create: negative vertex count";
  let src = Vecbuf.create () and dst = Vecbuf.create () in
  List.iter
    (fun (u, v) ->
      match valid_edge ~n u v with
      | Ok () ->
          Vecbuf.push src u;
          Vecbuf.push dst v
      | Error e -> invalid_arg ("Session.create: " ^ e))
    edges;
  let slots = Vecbuf.length src in
  let live = Array.make (max 16 slots) false in
  for s = 0 to slots - 1 do
    live.(s) <- true
  done;
  {
    s_name = name;
    s_n = n;
    s_epoch = 1;
    s_src = src;
    s_dst = dst;
    s_live = live;
    s_slots = slots;
    s_live_count = slots;
    s_col = None;
    s_palette = 0;
    s_batch = None;
    s_chaos = None;
    s_incremental = 0;
    s_fallbacks = 0;
  }

let arm_chaos t ~plan ~chaos_seed = t.s_chaos <- Some (plan, chaos_seed)
let chaos_armed t = Option.is_some t.s_chaos

(* recoverable daemon-side failures; resource-exhaustion panics are not
   something a retry or an error frame can answer honestly *)
let survivable = function Out_of_memory | Stack_overflow -> false | _ -> true

let ensure_live_capacity t k =
  let cap = Array.length t.s_live in
  if k > cap then begin
    let fresh = Array.make (max k (2 * cap)) false in
    Array.blit t.s_live 0 fresh 0 cap;
    t.s_live <- fresh
  end

let add_slot_edge t b s =
  ignore (G.add_edge b (Vecbuf.get t.s_src s) (Vecbuf.get t.s_dst s))

(* compact the live slots into a standalone graph; [slotmap] sends each
   compact edge id back to its slot *)
let live_graph t =
  let b = G.create_builder t.s_n in
  let slotmap = Array.make (max 1 t.s_live_count) (-1) in
  let j = ref 0 in
  for s = 0 to t.s_slots - 1 do
    if t.s_live.(s) then begin
      add_slot_edge t b s;
      slotmap.(!j) <- s;
      incr j
    end
  done;
  (G.build b, slotmap)

(* every slot, dead ones included, so edge id = slot id *)
let slot_graph t =
  let b = G.create_builder t.s_n in
  for s = 0 to t.s_slots - 1 do
    add_slot_edge t b s
  done;
  G.build b

(* ------------------------------------------------------------------ *)
(* batch work                                                          *)
(* ------------------------------------------------------------------ *)

type output =
  | Colored of { slot_colors : int array; colors_used : int }
  | Oriented of { heads : int array; max_out_degree : int }
  | Pseudo of { slot_colors : int array; k : int }

type chaos_summary = {
  cs_valid : int;
  cs_detected : int;
  cs_corrupt : int;
  cs_recoveries : int;
}

type decomposed = {
  d_output : output;
  d_epoch : int;
  d_alpha : int option;
  d_verified : (unit, string) result;
  d_chaos : chaos_summary option;
}

let extract_output ~entry ~slots ~slotmap store =
  match entry.Registry.yields with
  | Registry.Coloring_out ->
      let c = EStore.coloring store "coloring" in
      let slot_colors = Array.make slots (-1) in
      Array.iteri
        (fun e s ->
          match Coloring.color c e with
          | Some col -> slot_colors.(s) <- col
          | None -> ())
        slotmap;
      Colored { slot_colors; colors_used = Verify.colors_used c }
  | Registry.Orientation_out ->
      let o = EStore.orientation store "orientation" in
      let heads = Array.make slots (-1) in
      Array.iteri (fun e s -> heads.(s) <- Orientation.head o e) slotmap;
      Oriented { heads; max_out_degree = Orientation.max_out_degree o }
  | Registry.Pseudo_out ->
      let a, _k = EStore.assignment store "assignment" in
      let slot_colors = Array.make slots (-1) in
      Array.iteri (fun e s -> slot_colors.(s) <- a.(e)) slotmap;
      Pseudo { slot_colors; k = _k }

(* install a verified forest decomposition as the live incremental
   coloring over the slot graph. The palette is the color ids the batch
   run named (max id + 1, which unlike the count of distinct colors
   holds for sparse ids): churn must stay inside the advertised budget,
   and when it cannot, the session *falls back* instead of silently
   widening the decomposition. Only plain forest
   entries get a live coloring: the insert probe admits a color exactly
   when the edge closes no cycle in it, which is the whole predicate of
   a forest decomposition but not of a star forest (every component a
   star) or a list decomposition (the color must lie in the edge's
   list). *)
let install t ~entry output verified =
  match (output, verified) with
  | Colored { slot_colors; _ }, Ok () when not entry.Registry.star ->
      (* dead slots are already -1, so the assignment is the coloring *)
      let palette = 1 + Array.fold_left max 0 slot_colors in
      t.s_col <-
        Some
          (Coloring.of_assignment (slot_graph t) ~colors:palette slot_colors);
      t.s_palette <- palette
  | _ ->
      t.s_col <- None;
      t.s_palette <- 0

let decompose t ~entry ~epsilon ~seed ~alpha =
  if Int.equal t.s_live_count 0 then Error "session has no live edges"
  else begin
    let gl, slotmap = live_graph t in
    let spec, alpha_v = Registry.resolve entry gl ~epsilon ~alpha in
    let pipeline = entry.Registry.build spec in
    (* the exact one-shot sequence of [forestd decompose]: a fresh seeded
       RNG, a fresh rounds ledger, the graph under "graph" — so the
       served output is byte-identical to the CLI on the same graph *)
    let run_attempt ?resume ?save () =
      let rng = Random.State.make [| seed |] in
      let rounds = Rounds.create () in
      let ctx = Engine.ctx ~rng ~rounds in
      let init = EStore.put EStore.empty "graph" (Artifact.Graph gl) in
      Engine.run ?resume ?checkpoint:save ctx pipeline ~init
    in
    let verify = Registry.verify entry spec in
    let finish store chaos_summary =
      let output = extract_output ~entry ~slots:t.s_slots ~slotmap store in
      let verified = verify store in
      t.s_epoch <- t.s_epoch + 1;
      t.s_batch <-
        Some { b_entry = entry; b_epsilon = epsilon; b_seed = seed;
               b_alpha = alpha };
      install t ~entry output verified;
      Ok
        {
          d_output = output;
          d_epoch = t.s_epoch;
          d_alpha = alpha_v;
          d_verified = verified;
          d_chaos = chaos_summary;
        }
    in
    match t.s_chaos with
    | Some (plan, chaos_seed) ->
        (* the PR4 harness runs the attempt(s): fault compilation, the
           retry policy, resumable engine checkpoints, and the
           valid/detected/corrupt classification the response carries *)
        let last_store = ref None in
        let report =
          Harness.run_epochs_resumable ~plan ~seed:chaos_seed ~epochs:1
            ~verify
            ~run:(fun ~resume ~save ->
              let store = run_attempt ?resume ~save () in
              last_store := Some store;
              store)
            ()
        in
        let summary =
          {
            cs_valid = report.Harness.valid;
            cs_detected = report.Harness.detected;
            cs_corrupt = report.Harness.corrupt;
            cs_recoveries = report.Harness.recoveries;
          }
        in
        (match !last_store with
        | Some store -> finish store (Some summary)
        | None ->
            Error
              (Printf.sprintf
                 "chaos: decomposition killed before any pass completed \
                  (valid=%d detected=%d corrupt=%d)"
                 summary.cs_valid summary.cs_detected summary.cs_corrupt))
    | None -> (
        (* fault-free path: one run, no checkpoints. Every pass is
           deterministic in the store and RNG a checkpoint restores, so a
           resumed retry would only raise the same exception again *)
        match run_attempt () with
        | store -> finish store None
        | exception exn when survivable exn ->
            Error ("decomposition failed: " ^ Printexc.to_string exn))
  end

(* ------------------------------------------------------------------ *)
(* edge churn                                                          *)
(* ------------------------------------------------------------------ *)

type mode = Incremental | Fallback

let mode_label = function
  | Incremental -> "incremental"
  | Fallback -> "fallback"

type churn = {
  ch_edge : int;
  ch_color : int option;
  ch_mode : mode;
  ch_epoch : int;
}

(* full re-decomposition with the remembered batch parameters for the
   insert of [slot]: no palette color admits the edge, or the entry has
   no live coloring to probe. The answer carries the slot's color in the
   verified re-decomposition. When the re-decomposition fails the
   insert answers an error, so it must leave no edge behind: the slot,
   which no client has seen, is removed again. [cause] names the
   per-cause fallback counter, [no_live_coloring] or [palette_full]; a
   failed re-decomposition also counts [redecompose_failed]. *)
let fallback_insert t ~slot ~cause =
  t.s_fallbacks <- t.s_fallbacks + 1;
  Obs.count "service.fallbacks";
  Obs.count ("service.fallbacks." ^ cause);
  let redecomposed =
    match t.s_batch with
    | None -> Error "no batch parameters to fall back to"
    | Some b ->
        decompose t ~entry:b.b_entry ~epsilon:b.b_epsilon ~seed:b.b_seed
          ~alpha:b.b_alpha
  in
  match redecomposed with
  | Error e ->
      Obs.count "service.fallbacks.redecompose_failed";
      t.s_col <- None;
      t.s_slots <- slot;
      t.s_live.(slot) <- false;
      t.s_live_count <- t.s_live_count - 1;
      Vecbuf.truncate t.s_src slot;
      Vecbuf.truncate t.s_dst slot;
      Error ("fallback re-decomposition failed: " ^ e)
  | Ok d ->
      let color =
        match (d.d_output, d.d_verified) with
        | Colored { slot_colors; _ }, Ok () when slot_colors.(slot) >= 0 ->
            Some slot_colors.(slot)
        | _ -> None
      in
      Ok
        { ch_edge = slot; ch_color = color; ch_mode = Fallback;
          ch_epoch = t.s_epoch }

let incremental_obs = Obs.counter "service.incremental_updates"

let incremental_ok t ~slot ~color =
  t.s_incremental <- t.s_incremental + 1;
  Obs.incr incremental_obs;
  Ok { ch_edge = slot; ch_color = color; ch_mode = Incremental;
       ch_epoch = t.s_epoch }

(* the last batch promised a coloring: every insert must answer with a
   color, so without a live coloring to probe it re-decomposes *)
let promised_coloring t =
  match t.s_batch with
  | Some { b_entry = { Registry.yields = Registry.Coloring_out; _ }; _ } ->
      true
  | Some _ | None -> false

let insert_edge t ~u ~v =
  match valid_edge ~n:t.s_n u v with
  | Error e -> Error e
  | Ok () -> (
      let slot = t.s_slots in
      Vecbuf.push t.s_src u;
      Vecbuf.push t.s_dst v;
      ensure_live_capacity t (slot + 1);
      t.s_live.(slot) <- true;
      t.s_slots <- slot + 1;
      t.s_live_count <- t.s_live_count + 1;
      t.s_epoch <- t.s_epoch + 1;
      match t.s_col with
      | None when promised_coloring t ->
          fallback_insert t ~slot ~cause:"no_live_coloring"
      | None ->
          (* no decomposition yet: the append is structural only *)
          incremental_ok t ~slot ~color:None
      | Some col -> (
          (* append the edge to the cache in place, then probe the
             palette: color c admits the edge iff u and v are not
             already connected in forest c — one root-label compare per
             color, then [set] re-hangs the smaller of the two trees it
             joins; no BFS, no pipeline *)
          ignore (Coloring.add_edge col u v);
          let rec probe c =
            if c >= t.s_palette then None
            else if not (Coloring.connected col c u v) then Some c
            else probe (c + 1)
          in
          match probe 0 with
          | Some c ->
              Coloring.set col slot c;
              incremental_ok t ~slot ~color:(Some c)
          | None -> fallback_insert t ~slot ~cause:"palette_full"))

let delete_edge t ~edge =
  if edge < 0 || edge >= t.s_slots then
    Error (Printf.sprintf "unknown edge %d" edge)
  else if not t.s_live.(edge) then
    Error (Printf.sprintf "edge %d already deleted" edge)
  else begin
    t.s_live.(edge) <- false;
    t.s_live_count <- t.s_live_count - 1;
    t.s_epoch <- t.s_epoch + 1;
    (* deletion only shrinks a forest: unset re-roots the subtree that
       loses the edge, in O(size of that subtree) *)
    let color =
      match t.s_col with
      | None -> None
      | Some col ->
          let c = Coloring.color col edge in
          Coloring.unset col edge;
          c
    in
    incremental_ok t ~slot:edge ~color
  end
