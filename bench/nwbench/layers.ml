(* Per-layer numbers from the program's existing spans and counters.

   A profile is read either from an in-process [Obs] trace (batch
   workloads) or from the daemon's Prometheus exposition (served
   workloads), and both feed the same mapping onto per-layer metric
   names, so a layer reads the same way whichever process ran it. *)

module Obs = Nw_obs.Obs

type profile = {
  phases : (string * (int * float * float)) list;
      (** span name -> calls, inclusive seconds, self seconds *)
  counters : (string * int) list;
  hists : (string * (int * float)) list;  (** sanitized name -> count, sum *)
  rounds : int;  (** LOCAL rounds charged while recording *)
}

let of_trace t =
  {
    phases =
      List.map
        (fun (p : Obs.phase) ->
          ( p.name,
            ( p.calls,
              Int64.to_float p.total_ns /. 1e9,
              Int64.to_float p.self_ns /. 1e9 ) ))
        (Obs.phases t);
    counters = Obs.counters t;
    hists =
      List.map
        (fun (name, (h : Obs.histogram)) ->
          (Nw_obs.Prometheus.sanitize name, (h.count, h.sum)))
        (Obs.histograms t);
    rounds = Obs.total_rounds t;
  }

(* the text between [name{key="] and ["}] *)
let label line =
  match (String.index_opt line '"', String.rindex_opt line '"') with
  | Some i, Some j when j > i -> Some (String.sub line (i + 1) (j - i - 1))
  | _ -> None

(* Parse the exposition written by Nw_obs.Prometheus. *)
let of_prometheus text =
  let phases = Hashtbl.create 32 in
  let phase name = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt phases name) in
  let counters = ref [] and sums = Hashtbl.create 16 and counts = Hashtbl.create 16 in
  let rounds = ref 0 in
  let suffix s suf =
    let n = String.length s and k = String.length suf in
    if n > k && String.sub s (n - k) k = suf then Some (String.sub s 0 (n - k))
    else None
  in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> ()
      | Some sp when String.length line > 0 && line.[0] <> '#' -> (
          let key = String.sub line 0 sp in
          let v = float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) in
          let metric =
            match String.index_opt key '{' with
            | Some i -> String.sub key 0 i
            | None -> key
          in
          match (v, metric, label key) with
          | None, _, _ -> ()
          | Some v, "nw_counter_total", Some name ->
              counters := (name, int_of_float v) :: !counters
          | Some v, "nw_phase_calls_total", Some name ->
              let _, t, s = phase name in
              Hashtbl.replace phases name (int_of_float v, t, s)
          | Some v, "nw_phase_seconds_total", Some name ->
              let c, _, s = phase name in
              Hashtbl.replace phases name (c, v, s)
          | Some v, "nw_phase_self_seconds_total", Some name ->
              let c, t, _ = phase name in
              Hashtbl.replace phases name (c, t, v)
          | Some v, "nw_rounds_total", None -> rounds := int_of_float v
          | Some v, m, None -> (
              match (suffix m "_sum", suffix m "_count") with
              | Some h, _ -> Hashtbl.replace sums h v
              | _, Some h -> Hashtbl.replace counts h (int_of_float v)
              | None, None -> ())
          | _ -> ())
      | Some _ -> ())
    (String.split_on_char '\n' text);
  {
    phases = Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases [];
    counters = !counters;
    hists =
      Hashtbl.fold
        (fun h c acc ->
          match (String.length h > 3, Hashtbl.find_opt sums h) with
          | true, Some s when String.sub h 0 3 = "nw_" ->
              (String.sub h 3 (String.length h - 3), (c, s)) :: acc
          | _ -> acc)
        counts [];
    rounds = !rounds;
  }

let phase p name =
  Option.value ~default:(0, 0.0, 0.0) (List.assoc_opt name p.phases)

let total_s p name = let _, t, _ = phase p name in t
let self_s p name = let _, _, s = phase p name in s
let calls p name = let c, _, _ = phase p name in c

let counter p name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name p.counters))

let hist_mean p name =
  match List.assoc_opt (Nw_obs.Prometheus.sanitize name) p.hists with
  | Some (c, s) when c > 0 -> s /. float_of_int c
  | _ -> 0.0

(* The span- and counter-derived per-layer metrics every workload
   reports from its profile. *)
let apply r p =
  let set = Metric.set r in
  set "core.augment_search_s" (total_s p "augment.search");
  set "core.augment_calls" (counter p "augment.calls");
  set "core.augment_explored_mean" (hist_mean p "augment.explored");
  set "core.h_partition_s" (total_s p "h_partition");
  set "core.cole_vishkin_s" (total_s p "cole_vishkin.three_color_forests");
  set "core.star_forests_self_s" (self_s p "h_partition.star_forests");
  set "localsim.messages" (counter p "msg_net.messages");
  set "localsim.rounds" (counter p "msg_net.rounds");
  set "baseline.gabow_westermann_s" (total_s p "baseline.gabow_westermann")
