(* The two batch workloads.

   fd-augment times the CLI path users run: `forestd decompose FILE
   --algorithm augment --alpha A` as a child process, spawn to exit.
   hp-star times the Theorem 2.1 chain (H-partition peel -> acyclic
   orientation -> 3t-star-forest decomposition) through Engine.run, rep
   after rep in one fresh worker process. The traced rep of either runs
   in a worker that splits the pipeline into one-pass Engine.run calls
   on the same context, so every pass gets its own timer and GC delta. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Io = Nw_graphs.Graph_io
module Verify = Nw_decomp.Verify
module Counters = Nw_decomp.Coloring.Counters
module Engine = Nw_engine.Engine
module Store = Nw_engine.Store
module Artifact = Nw_engine.Artifact
module J = Nw_obs.Json_lite

(* the CLI's default --seed; the worker's in-process runs use it too so
   their colorings are byte-identical to the CLI's *)
let algorithm_seed = 2021
let epsilon = 0.5

let input_rng ?(instance = 0) ~seed salt = Random.State.make [| seed; salt; instance |]

(* ------------------------------------------------------------------ *)
(* the hp-star pipeline                                                *)
(* ------------------------------------------------------------------ *)

let hp_star_pipeline ~alpha =
  let ids g = Array.init (G.n g) (fun v -> v) in
  {
    Engine.pl_name = "hp-star";
    passes =
      [
        {
          Engine.name = "hp.peel";
          reads = [ ("graph", `Graph) ];
          writes = [ ("hp", `Partition) ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              Store.put store "hp"
                (Artifact.Partition
                   (Nw_core.H_partition.compute g ~epsilon:1.0
                      ~alpha_star:alpha ~rounds:ctx.Engine.rounds)));
        };
        {
          Engine.name = "hp.orient";
          reads = [ ("graph", `Graph); ("hp", `Partition) ];
          writes = [ ("orientation", `Orientation) ];
          run =
            (fun _ctx store ->
              let g = Store.graph store "graph" in
              Store.put store "orientation"
                (Artifact.Orientation
                   (Nw_core.H_partition.orientation g
                      (Store.partition store "hp")
                      ~ids:(ids g))));
        };
        {
          Engine.name = "hp.star";
          reads = [ ("graph", `Graph); ("orientation", `Orientation) ];
          writes = [ ("coloring", `Coloring) ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              Store.put store "coloring"
                (Artifact.Coloring
                   (Nw_core.H_partition.star_forest_decomposition g
                      (Store.orientation store "orientation")
                      ~ids:(ids g) ~rounds:ctx.Engine.rounds)));
        };
      ];
  }

let augment_pipeline g ~alpha =
  match Nw_engine.Registry.find "augment" with
  | Some e -> e.Nw_engine.Registry.build { graph = g; epsilon; alpha }
  | None -> failwith "registry has no augment entry"

(* ------------------------------------------------------------------ *)
(* worker: reps in their own process, one JSON line each               *)
(* ------------------------------------------------------------------ *)

type job = {
  kind : string;  (** "fd-augment" | "hp-star" *)
  seed : int;
  n : int;
  alpha : int;
  graph_file : string;  (** fd-augment reads the CLI's input file *)
  traced : bool;  (** one traced rep *)
  seconds : float;  (** untraced: reps until this much time has passed *)
}

let fresh_ctx () =
  Engine.ctx
    ~rng:(Random.State.make [| algorithm_seed |])
    ~rounds:(Nw_localsim.Rounds.create ())

let init g = Store.put Store.empty "graph" (Artifact.Graph g)

(* one-pass Engine.run per pass on one context: the coloring, and
   (name, seconds, minor words) per pass *)
let run_by_pass pipeline g =
  let ctx = fresh_ctx () in
  let store, passes =
    List.fold_left
      (fun (store, acc) (pass : Engine.pass) ->
        let one = { Engine.pl_name = pipeline.Engine.pl_name; passes = [ pass ] } in
        let w0 = Gc.minor_words () in
        let store, dt = Proc.time (fun () -> Engine.run ctx one ~init:store) in
        (store, (pass.name, dt, Gc.minor_words () -. w0) :: acc))
      (init g, []) pipeline.passes
  in
  (Store.coloring store "coloring", List.rev passes)

let checker job =
  if job.kind = "hp-star" then Verify.star_forest_decomposition
  else Verify.forest_decomposition

(* the CLI's extra report after verification: the largest forest
   diameter (hp-star has no such step) *)
let report job c =
  if job.kind <> "hp-star" then ignore (Verify.max_forest_diameter c)

let digest c = Digest.to_hex (Digest.string (Nw_decomp.Coloring_io.to_string c))

let one_rep job =
  let fields = ref [] in
  let put k v = fields := (k, Metric.json_number v) :: !fields in
  let layers = ref [] in
  let layer k v = layers := (k, v) :: !layers in
  let g, load_s =
    Proc.time (fun () ->
        if job.kind = "hp-star" then
          Gen.forest_union (input_rng ~seed:job.seed 2) job.n job.alpha
        else Io.read_edge_list job.graph_file)
  in
  put "load_s" load_s;
  layer
    (if job.kind = "hp-star" then "graphs.generate_s"
     else "graphs.read_edge_list_s")
    load_s;
  let pipeline =
    if job.kind = "hp-star" then hp_star_pipeline ~alpha:job.alpha
    else augment_pipeline g ~alpha:job.alpha
  in
  (* the timed whole-pipeline run *)
  let ctx = fresh_ctx () in
  let store, engine_s = Proc.time (fun () -> Engine.run ctx pipeline ~init:(init g)) in
  put "engine_s" engine_s;
  let c = Store.coloring store "coloring" in
  let verdict = checker job c in
  put "colors" (float_of_int (Verify.colors_used c));
  put "rounds" (float_of_int (Nw_localsim.Rounds.total ctx.Engine.rounds));
  let error = ref (match verdict with Ok () -> None | Error m -> Some m) in
  let dig = digest c in
  if job.traced then begin
    (* Untraced, after the run above warmed the heap, three rounds of:
       the pipeline one pass at a time, the verifier (and for the CLI's
       workload its diameter report), the whole pipeline again. The
       fastest of each is kept, as for the reps. *)
    let rounds =
      List.init 3 (fun _ ->
          let k0 = Counters.snapshot () in
          let c', passes = run_by_pass pipeline g in
          let k1 = Counters.snapshot () in
          let (), check_s = Proc.time (fun () -> ignore (checker job c')) in
          let (), diameter_s = Proc.time (fun () -> report job c') in
          let _, whole_s =
            Proc.time (fun () -> Engine.run (fresh_ctx ()) pipeline ~init:(init g))
          in
          if digest c' <> dig then
            error := Some "pass-by-pass run colors differently from Engine.run";
          (passes, check_s, diameter_s, whole_s, (k0, k1)))
    in
    let fastest f = List.fold_left (fun a x -> Float.min a (f x)) infinity rounds in
    let first_passes, _, _, _, (k0, k1) = List.hd rounds in
    let pass_s =
      List.map
        (fun (name, _, words) ->
          let dt =
            fastest (fun (ps, _, _, _, _) ->
                List.fold_left (fun a (n, t, _) -> if n = name then t else a) infinity ps)
          in
          layer ("engine.pass." ^ name ^ "_s") dt;
          layer ("engine.pass." ^ name ^ "_minor_words") words;
          dt)
        first_passes
    in
    let pass_sum = List.fold_left ( +. ) 0.0 pass_s in
    let check_s = fastest (fun (_, c, _, _, _) -> c) in
    let diameter_s = fastest (fun (_, _, d, _, _) -> d) in
    layer "engine.unattributed_s" (fastest (fun (_, _, _, w, _) -> w) -. pass_sum);
    layer "decomp.uf_queries" (float_of_int (k1.Counters.uf_queries - k0.Counters.uf_queries));
    layer "decomp.uf_rebuilds" (float_of_int (k1.uf_rebuilds - k0.uf_rebuilds));
    layer "decomp.bfs_runs" (float_of_int (k1.bfs_runs - k0.bfs_runs));
    layer "decomp.verify_s" check_s;
    layer "decomp.max_forest_diameter_s" diameter_s;
    let untraced_s = pass_sum +. check_s +. diameter_s in
    put "untraced_s" (load_s +. untraced_s);
    (* the same steps once more with Obs recording *)
    Nw_obs.Obs.set_enabled true;
    let ((), trace), traced_s =
      Proc.time (fun () ->
          Nw_obs.Obs.collect (fun () ->
              let c', _ = run_by_pass pipeline g in
              ignore (checker job c');
              report job c'))
    in
    Nw_obs.Obs.set_enabled false;
    layer "obs.tracing_overhead" ((traced_s /. untraced_s) -. 1.0);
    let p = Layers.of_trace trace in
    layer "localsim.charged_rounds" (float_of_int p.rounds);
    let r = Metric.create job.kind in
    Layers.apply r p;
    Hashtbl.iter (fun k (v, _, _) -> layer k v) r.values
  end;
  put "rss_mb" (Option.value ~default:nan (Proc.vmhwm_mb 0));
  let obj kvs =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Metric.json_string k ^ ": " ^ v) kvs)
    ^ "}"
  in
  print_endline
    (obj
       (("digest", Metric.json_string dig)
       :: ("error",
           match !error with Some m -> Metric.json_string m | None -> "null")
       :: ( "layers",
            obj (List.map (fun (k, v) -> (k, Metric.json_number v)) !layers) )
       :: !fields))

let worker job =
  let t0 = Proc.now () in
  one_rep job;
  while (not job.traced) && Proc.now () -. t0 < job.seconds do
    one_rep job
  done

(* ------------------------------------------------------------------ *)
(* the parent side                                                     *)
(* ------------------------------------------------------------------ *)

type cfg = {
  forestd : string;
  seed : int;
  seconds : float;
  trace : bool;
  n : int;
  alpha : int;
}

let job_args j =
  [
    "worker"; "--kind"; j.kind; "--seed"; string_of_int j.seed; "--n";
    string_of_int j.n; "--alpha"; string_of_int j.alpha; "--graph";
    j.graph_file; "--seconds"; Printf.sprintf "%g" j.seconds;
  ]
  @ if j.traced then [ "--traced" ] else []

type reply = {
  digest : string;
  num : string -> float;
  layers : (string * float) list;
}

(* spawn a worker and parse its replies, one JSON line per rep *)
let call_worker r job =
  let out = Proc.path (job.kind ^ ".worker.out") in
  let status, _, _ = Proc.run_polled ~out Sys.executable_name (job_args job) in
  if not (Proc.exited_ok status) then begin
    Metric.attempt r (Error ("worker " ^ Proc.describe status));
    []
  end
  else
    Proc.lines out
    |> List.filter (fun l -> String.trim l <> "")
    |> List.filter_map (fun line ->
           match J.parse line with
           | exception J.Parse_error m ->
               Metric.attempt r (Error ("worker reply: " ^ m));
               None
           | json -> (
               let num k =
                 Option.value ~default:nan (Option.bind (J.member k json) J.to_float)
               in
               let layers =
                 match J.member "layers" json with
                 | Some (J.Obj kvs) ->
                     List.filter_map
                       (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v))
                       kvs
                 | _ -> []
               in
               let digest =
                 Option.value ~default:""
                   (Option.bind (J.member "digest" json) J.to_string)
               in
               match Option.bind (J.member "error" json) J.to_string with
               | Some m ->
                   Metric.attempt r (Error ("worker: " ^ m));
                   None
               | None ->
                   Metric.attempt r (Ok ());
                   Some { digest; num; layers }))

(* the values every rep must reproduce exactly *)
let check_same r what = function
  | [] -> ()
  | x :: rest ->
      Metric.check r
        (List.for_all (( = ) x) rest)
        "%s differs across reps" what

(* One rep is one request: the fastest rep's time and rate. *)
let set_reps r walls =
  Metric.set_fastest r "decompose_s" walls;
  let rates = List.map (fun w -> 1.0 /. w) walls in
  Metric.set r "requests_per_s" (List.fold_left Float.max 0.0 rates)
    ~spread:(Stats.spread rates) ~samples:(List.length walls)

(* run reps until [seconds] have passed (at least one) *)
let reps_for seconds f =
  let t0 = Proc.now () in
  let rec go acc =
    let acc = f () :: acc in
    if Proc.now () -. t0 < seconds then go acc else List.rev acc
  in
  go []

let fd_augment cfg =
  let r = Metric.create "fd-augment" in
  let file = Proc.path "fd-augment.graph" in
  let save = Proc.path "fd-augment.coloring" in
  let out = Proc.path "fd-augment.out" in
  let args =
    [ "decompose"; file; "--algorithm"; "augment"; "--alpha";
      string_of_int cfg.alpha; "--save"; save ]
  in
  (* each rep sets up afresh (generate the input, write it), so the
     set-up samples spread over the run like the reps do *)
  let rep () =
    let g, gen_s =
      Proc.time (fun () ->
          Gen.forest_union (input_rng ~seed:cfg.seed 1) cfg.n cfg.alpha)
    in
    let (), write_s = Proc.time (fun () -> Io.write_edge_list file g) in
    let status, wall, rss = Proc.run_polled ~out cfg.forestd args in
    let stdout = Option.value ~default:"" (Proc.read_file out) in
    let grab prefix =
      List.find_map
        (fun l ->
          let k = String.length prefix in
          if String.length l > k && String.sub l 0 k = prefix then
            int_of_string_opt (String.trim (String.sub l k (String.length l - k)))
          else None)
        (String.split_on_char '\n' stdout)
    in
    let verdict =
      if not (Proc.exited_ok status) then Error ("forestd " ^ Proc.describe status)
      else
        match Verify.forest_decomposition (Nw_decomp.Coloring_io.read save g) with
        | Ok () -> Ok ()
        | Error m -> Error ("saved coloring: " ^ m)
        | exception (Failure m | Invalid_argument m) -> Error ("saved coloring: " ^ m)
    in
    Metric.attempt r verdict;
    let dig = try Digest.to_hex (Digest.file save) with Sys_error _ -> "" in
    (gen_s, gen_s +. write_s, (wall, rss, grab "colors used:", grab "total rounds:", dig))
  in
  let runs = reps_for cfg.seconds rep in
  Metric.set_fastest r "setup_s" (List.map (fun (_, s, _) -> s) runs);
  let reps = List.map (fun (_, _, x) -> x) runs in
  let walls = List.map (fun (w, _, _, _, _) -> w) reps in
  set_reps r walls;
  Metric.set_median r "peak_rss_mb" (List.map (fun (_, m, _, _, _) -> m) reps);
  let colors = List.map (fun (_, _, c, _, _) -> c) reps in
  let rounds = List.map (fun (_, _, _, k, _) -> k) reps in
  let digests = List.map (fun (_, _, _, _, d) -> d) reps in
  check_same r "colors used" colors;
  check_same r "charged rounds" rounds;
  check_same r "coloring digest" digests;
  (match (colors, rounds) with
  | Some c :: _, Some k :: _ ->
      Metric.set r "colors_used" (float_of_int c);
      Metric.set r "localsim.charged_rounds" (float_of_int k)
  | _ -> Metric.attempt r (Error "forestd output lacks colors used / total rounds"));
  if cfg.trace then begin
    let job =
      { kind = "fd-augment"; seed = cfg.seed; n = cfg.n; alpha = cfg.alpha;
        graph_file = file; traced = true; seconds = 0.0 }
    in
    Metric.set r "graphs.generate_s" (Stats.median (List.map (fun (g, _, _) -> g) runs));
    match call_worker r job with
    | [] -> ()
    | w :: _ ->
        List.iter (fun (k, v) -> Metric.set r k v) w.layers;
        Metric.check r
          (digests = [] || w.digest = List.hd digests)
          "in-process coloring differs from the CLI's";
        Metric.set r "cli.remainder_s"
          (List.fold_left Float.min infinity walls -. w.num "untraced_s")
  end;
  r

let hp_star cfg =
  let r = Metric.create "hp-star" in
  let job =
    { kind = "hp-star"; seed = cfg.seed; n = cfg.n; alpha = cfg.alpha;
      graph_file = ""; traced = false; seconds = cfg.seconds }
  in
  let reps = call_worker r job in
  let nums k = List.map (fun w -> w.num k) reps in
  Metric.set_fastest r "setup_s" (nums "load_s");
  set_reps r (nums "engine_s");
  (* VmHWM only grows: the last rep's reading is the worker's peak *)
  Metric.set r "peak_rss_mb" (List.fold_left Float.max 0.0 (nums "rss_mb"));
  check_same r "colors used" (nums "colors");
  check_same r "charged rounds" (nums "rounds");
  check_same r "coloring digest" (List.map (fun w -> w.digest) reps);
  (match reps with
  | w :: _ ->
      Metric.set r "colors_used" (w.num "colors");
      Metric.set r "localsim.charged_rounds" (w.num "rounds")
  | [] -> ());
  if cfg.trace then begin
    match call_worker r { job with traced = true } with
    | [] -> ()
    | w :: _ ->
        List.iter (fun (k, v) -> Metric.set r k v) w.layers;
        Metric.check r
          (reps = [] || w.digest = (List.hd reps).digest)
          "traced coloring differs from the untraced reps"
  end;
  r
