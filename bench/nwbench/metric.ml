(* The metric table and the per-workload result it is filled into.

   Every name here appears in BENCHMARK.json: the [E2e] rows as its
   end_to_end list (measured with tracing off, on every workload), the
   [Layer] rows as its per_layer list (filled by the traced run; a layer
   a workload never reaches reads 0). [bound] is the share of the base
   value by which a metric may get worse before [nwbench compare] calls
   it a regression; [floor] is an absolute allowance in the metric's
   own unit for metrics so small that a share of them is below timer
   resolution. Layer rows without a bound are never gated. *)

type kind = E2e | Layer
type better = Lower | Higher

type def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
  floor : float;
  kind : kind;
}

let e2e name unit_ better bound =
  { name; unit_; better; bound = Some bound; floor = 0.0; kind = E2e }

let layer ?bound ?(floor = 0.0) ?(better = Lower) name unit_ =
  { name; unit_; better; bound; floor; kind = Layer }

let pass_metrics passes =
  List.concat_map
    (fun p ->
      [
        layer ("engine.pass." ^ p ^ "_s") "s";
        layer ("engine.pass." ^ p ^ "_minor_words") "words";
      ])
    passes

(* pass names of the two engine pipelines the batch workloads run: the
   registry's augment entry and the benchmark's own hp-star chain *)
let augment_passes = [ "fd.plan"; "fd.net_decomp"; "fd.partial_color"; "fd.recolor" ]
let hp_star_passes = [ "hp.peel"; "hp.orient"; "hp.star" ]

let classes = [ "insert"; "delete"; "point"; "batch" ]

let table =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "decompose_s" "s" Lower 0.25;
    e2e "requests_per_s" "1/s" Higher 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.20;
    e2e "colors_used" "count" Lower 0.10;
    layer "service.insert_p50_ms" "ms" ~bound:0.10;
    layer "service.insert_tail_ms" "ms" ~bound:0.15;
    layer "service.delete_p50_ms" "ms" ~bound:0.10;
    layer "service.point_p50_ms" "ms" ~bound:0.10 ~floor:0.005;
    layer "service.batch_p50_ms" "ms" ~bound:0.10;
    layer "service.batch_tail_ms" "ms" ~bound:0.15;
    layer "localsim.charged_rounds" "count" ~bound:0.0;
    layer "graphs.generate_s" "s";
    layer "graphs.read_edge_list_s" "s";
  ]
  @ pass_metrics augment_passes
  @ pass_metrics hp_star_passes
  @ [
      layer "engine.unattributed_s" "s";
      layer "cli.remainder_s" "s";
      layer "core.augment_search_s" "s";
      layer "core.augment_calls" "count";
      layer "core.augment_explored_mean" "count";
      layer "core.h_partition_s" "s";
      layer "core.cole_vishkin_s" "s";
      layer "core.star_forests_self_s" "s";
      layer "localsim.messages" "count";
      layer "localsim.rounds" "count";
      layer "decomp.verify_s" "s";
      layer "decomp.max_forest_diameter_s" "s";
      layer "decomp.uf_queries" "count";
      layer "decomp.uf_rebuilds" "count";
      layer "decomp.bfs_runs" "count";
    ]
  @ List.map (fun c -> layer ("service.server." ^ c ^ "_ms") "ms") classes
  @ List.map (fun c -> layer ("service.transport." ^ c ^ "_ms") "ms") classes
  @ [
      layer "baseline.gabow_westermann_s" "s";
      layer "service.encode_batch_ms" "ms";
      layer "service.response_bytes.batch" "bytes";
      layer "service.parse_us" "us";
      layer "service.incremental_ratio" "ratio" ~better:Higher;
      layer "service.fallbacks" "count";
      layer "obs.tracing_overhead" "ratio";
    ]

let find name = List.find_opt (fun d -> String.equal d.name name) table

(* ------------------------------------------------------------------ *)
(* one workload's result                                               *)
(* ------------------------------------------------------------------ *)

type result = {
  workload : string;
  values : (string, float * float * int) Hashtbl.t;
      (** name -> value, spread, sample count *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let create workload =
  { workload; values = Hashtbl.create 64; attempted = 0; failed = 0;
    problems = [] }

let set ?(spread = 0.0) ?(samples = 1) r name v =
  if find name = None then invalid_arg ("nwbench: unknown metric " ^ name);
  Hashtbl.replace r.values name (v, spread, samples)

(* a median with its spread and sample count *)
let set_median r name xs =
  set r name (Stats.median xs) ~spread:(Stats.spread xs)
    ~samples:(List.length xs)

(* The fastest of repeated timings, with the spread of all of them.
   On a shared host CPU availability swings by more than half within
   seconds and only ever slows a rep down; the fastest rep is the
   stable estimate of what the code costs, where a median lands on
   whichever contention level held most of the run. *)
let set_fastest r name xs =
  set r name (List.fold_left Float.min infinity xs) ~spread:(Stats.spread xs)
    ~samples:(List.length xs)

let value r name =
  match Hashtbl.find_opt r.values name with Some (v, _, _) -> v | None -> 0.0

(* one attempted operation (a rep or a request); [Error] counts it
   failed *)
let attempt r = function
  | Ok () -> r.attempted <- r.attempted + 1
  | Error msg ->
      r.attempted <- r.attempted + 1;
      r.failed <- r.failed + 1;
      r.problems <- msg :: r.problems;
      prerr_endline ("nwbench: " ^ r.workload ^ ": FAILED: " ^ msg)

(* an invariant across operations (same digest in every rep, ...); a
   violation counts as one more failed operation *)
let check r ok fmt =
  Printf.ksprintf (fun msg -> if not ok then attempt r (Error msg)) fmt

let correct r = r.failed = 0

let error_rate r =
  if r.attempted = 0 then 1.0
  else float_of_int r.failed /. float_of_int r.attempted

let metrics_of_kind kind = List.filter (fun d -> d.kind = kind) table

(* ------------------------------------------------------------------ *)
(* output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string = Nw_obs.Json_lite.Emit.string_value

(* every digit of the measured value, and still valid JSON *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let better_name = function Lower -> "lower" | Higher -> "higher"

let pp_human oc r =
  List.iter
    (fun d ->
      match Hashtbl.find_opt r.values d.name with
      | None -> ()
      | Some (v, spread, samples) ->
          Printf.fprintf oc "  %-16s %-40s %14.6g %-6s spread %.4f  n=%d\n"
            r.workload d.name v d.unit_ spread samples)
    table;
  Printf.fprintf oc "  %-16s %-40s %14.6g %-6s (%d failed of %d attempted)\n"
    r.workload "error_rate" (error_rate r) "share" r.failed r.attempted

(* The benchmark contract's last stdout line: the end-to-end metrics
   (tracing off) or the per-layer metrics (tracing on). *)
let contract_line r kind =
  let ms =
    List.map
      (fun d ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string d.name)
          (json_number (value r d.name))
          (json_string d.unit_))
      (metrics_of_kind kind)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) (max 1 r.attempted) r.failed (String.concat ", " ms)

(* One workload inside an nwbench record ([nwbench run --out]). *)
let record_json r =
  let ms =
    List.filter_map
      (fun d ->
        Option.map
          (fun (v, spread, samples) ->
            Printf.sprintf
              "%s: {\"value\": %s, \"unit\": %s, \"better\": %s, \"bound\": \
               %s, \"floor\": %s, \"spread\": %s, \"samples\": %d}"
              (json_string d.name) (json_number v) (json_string d.unit_)
              (json_string (better_name d.better))
              (match d.bound with Some b -> json_number b | None -> "null")
              (json_number d.floor) (json_number spread) samples)
          (Hashtbl.find_opt r.values d.name))
      table
  in
  Printf.sprintf
    "{\"name\": %s, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"problems\": [%s], \"metrics\": {%s}}"
    (json_string r.workload) (correct r) r.attempted r.failed
    (String.concat ", " (List.rev_map json_string r.problems))
    (String.concat ",\n    " ms)
