(* Benchmark harness: regenerates every table/figure-like artifact of the
   paper (experiments T1, E2-E12 as indexed in DESIGN.md) and then runs one
   Bechamel micro-benchmark per experiment's core kernel.

   Run everything:        dune exec bench/main.exe
   Run a subset:          dune exec bench/main.exe -- e5 e7 t1
                          (or: --exp e5, repeatable)
   Skip micro-benchmarks: dune exec bench/main.exe -- --no-micro
   Also write CSV tables: dune exec bench/main.exe -- --csv results/
   Perf trajectory:       dune exec bench/main.exe -- --json
                          (one BENCH_<exp>.json per experiment: wall clock,
                           charged rounds, per-phase breakdown,
                           connectivity-query counts)
   Chrome trace:          dune exec bench/main.exe -- --exp e5 --trace e5.json
                          (phase spans of every selected experiment, one
                           trace per experiment; open in
                           chrome://tracing or ui.perfetto.dev; a .jsonl
                           suffix selects the JSONL event stream instead)
   Phase summaries:       dune exec bench/main.exe -- --metrics
                          (per-experiment span tree + counters on stdout)
   Regression gate:       dune exec bench/main.exe -- --json --quick
                          (skips the slowest experiments and the micro
                           pass; completes in well under a minute)
   Fault injection:       dune exec bench/main.exe -- --chaos drop=0.1 \
                            --chaos-seed 7 --exp e2
                          (runs the selected experiments under the seeded
                           fault plan — docs/fault-model.md — and stamps
                           env.fault_plan into the BENCH records; an empty
                           plan is byte-identical to no chaos flags at all)

   Schema of the JSON records: docs/benchmarking.md. *)

module Obs = Nw_obs.Obs
module Plan = Nw_chaos.Plan

(* ambient fault context for --chaos PLAN: every experiment run is
   wrapped in Msg_net.with_faults, so the message-passing kernels inside
   pick the faults up; None (no flag, or an empty plan) leaves every
   code path byte-identical to a chaos-free invocation *)
let chaos_ctx : (Plan.t * Nw_localsim.Msg_net.faults) option ref = ref None

let experiments =
  [
    ("t1", "Table 1 trade-off matrix", Exp_table1.run);
    ("e2", "Theorem 2.1 H-partition", Exp_thm21.run);
    ("e3", "Theorem 2.3 LSFD", Exp_thm23.run);
    ("e4", "Prop 2.4 diameter reduction", Exp_diam.run);
    ("e5", "Theorem 3.2 augmenting sequences", Exp_augmenting.run);
    ("e6", "Theorem 4.2 CUT rules", Exp_cut.run);
    ("e7", "Theorem 4.6 FD vs baselines", Exp_fd_main.run);
    ("e8", "Theorems 4.9/4.10 LFD", Exp_lfd.run);
    ("e9", "Theorem 5.4 star forests", Exp_sfd.run);
    ("e10", "Corollary 1.1 orientations", Exp_orientation.run);
    ("e11", "Proposition C.1 lower bound", Exp_lower_bound.run);
    ("e12", "Corollary 1.2 star arboricity", Exp_star_arboricity.run);
    ("e13", "ablations", Exp_ablation.run);
    ("e14", "Lemma 4.4 load balancing", Exp_load.run);
    ("e15", "round scaling vs n", Exp_scaling.run);
    ("e16", "message-kernel fidelity", Exp_kernel.run);
    ("chaos", "fault injection & recovery (lib/chaos)", Exp_chaos.run);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per experiment table                  *)
(* ------------------------------------------------------------------ *)

module Micro = struct
  open Bechamel
  open Toolkit
  module Gen = Nw_graphs.Generators
  module G = Nw_graphs.Multigraph
  module Palette = Nw_decomp.Palette
  module Coloring = Nw_decomp.Coloring

  let rng () = Random.State.make [| 0xfeed |]
  let fresh_rounds () = Nw_localsim.Rounds.create ()

  (* small fixed instances so each kernel runs in well under a second *)
  let g_small = Gen.forest_union (rng ()) 60 4
  let g_simple = Gen.forest_union_simple (rng ()) 60 4
  let ids = Array.init 60 (fun v -> v)

  let t1_full_fd () =
    let st = rng () in
    ignore
      (Nw_engine.Run.forest_decomposition g_small ~epsilon:1.0 ~alpha:4
         ~rng:st ~rounds:(fresh_rounds ()) ())

  let e2_h_partition () =
    ignore
      (Nw_core.H_partition.compute g_small ~epsilon:0.5 ~alpha_star:4
         ~rounds:(fresh_rounds ()))

  let e3_lsfd () =
    let palette = Palette.full g_small 17 in
    ignore
      (Nw_engine.Run.lsfd_distributed g_small palette ~epsilon:0.5
         ~alpha_star:4 ~rng:(rng ()) ~rounds:(fresh_rounds ()))

  let exact_fd =
    match Nw_baseline.Gabow_westermann.forest_partition g_small 4 with
    | Ok c -> c
    | Error _ -> assert false

  let e4_diam_reduce () =
    ignore
      (Nw_core.Diameter_reduction.reduce exact_fd ~target:`Inv_eps
         ~epsilon:1.0 ~alpha:4 ~ids ~rng:(rng ()) ~rounds:(fresh_rounds ()))

  let e5_augment () =
    let palette = Palette.full g_small 5 in
    let coloring = Coloring.create g_small ~colors:5 in
    Array.iter
      (fun e ->
        ignore (Nw_core.Augmenting.augment_edge coloring palette ~edge:e ()))
      (Coloring.uncolored coloring)

  let e6_cut () =
    let coloring = Coloring.copy exact_fd in
    let cut =
      Nw_core.Cut.create g_small Nw_core.Cut.Depth_mod ~epsilon:1.0 ~alpha:4
        ~radius:8 ~num_classes:4 ~rng:(rng ()) ~rounds:(fresh_rounds ())
    in
    let core = G.ball_of_set g_small [ 0 ] 2 in
    let region = G.ball_of_set g_small [ 0 ] 10 in
    let removed = Array.make (G.m g_small) false in
    Nw_core.Cut.execute cut coloring ~core ~region ~removed

  let e7_gw_exact () =
    ignore (Nw_baseline.Gabow_westermann.forest_partition g_small 4)

  let e8_split () =
    ignore
      (Nw_core.Color_split.mpx_split g_small ~colors:12 ~epsilon:1.0
         ~rng:(rng ()) ~rounds:(fresh_rounds ()))

  let simple_orientation =
    let _, fd = Nw_baseline.Gabow_westermann.arboricity g_simple in
    Nw_core.Orient.of_forest_decomposition fd ~rounds:(fresh_rounds ())

  let e9_sfd () =
    ignore
      (Nw_engine.Run.sfd g_simple ~epsilon:0.5 ~alpha:4
         ~orientation:simple_orientation ~ids ~rng:(rng ())
         ~rounds:(fresh_rounds ()))

  let e10_orient () =
    ignore
      (Nw_core.Orient.of_forest_decomposition exact_fd
         ~rounds:(fresh_rounds ()))

  let g_line = Gen.line_multigraph 40 4
  let e11_line_fd () =
    ignore (Nw_baseline.Gabow_westermann.forest_partition g_line 5)

  let e12_amr () =
    ignore (Nw_baseline.Amr_star.of_forest_decomposition exact_fd)

  let e13_short_circuit () =
    let palette = Palette.full g_small 4 in
    let coloring = Coloring.copy exact_fd in
    (* un-color one edge and re-augment it, with the short-circuit pass *)
    Coloring.unset coloring 0;
    ignore (Nw_core.Augmenting.augment_edge coloring palette ~edge:0 ())

  let e14_sampled_cut () =
    let coloring = Coloring.copy exact_fd in
    let cut =
      Nw_core.Cut.create g_small (Nw_core.Cut.Sampled 0.5) ~epsilon:1.0
        ~alpha:4 ~radius:16 ~num_classes:4 ~rng:(rng ())
        ~rounds:(fresh_rounds ())
    in
    let core = G.ball_of_set g_small [ 0 ] 2 in
    let region = G.ball_of_set g_small [ 0 ] 18 in
    let removed = Array.make (G.m g_small) false in
    Nw_core.Cut.execute cut coloring ~core ~region ~removed

  let e15_h_peel_big =
    let g_big = Gen.forest_union (rng ()) 400 4 in
    fun () ->
      ignore
        (Nw_core.H_partition.compute g_big ~epsilon:0.5 ~alpha_star:4
           ~rounds:(fresh_rounds ()))

  let tests =
    [
      Test.make ~name:"t1:forest_decomposition" (Staged.stage t1_full_fd);
      Test.make ~name:"e2:h_partition" (Staged.stage e2_h_partition);
      Test.make ~name:"e3:lsfd_distributed" (Staged.stage e3_lsfd);
      Test.make ~name:"e4:diameter_reduce" (Staged.stage e4_diam_reduce);
      Test.make ~name:"e5:augment_all" (Staged.stage e5_augment);
      Test.make ~name:"e6:cut_depth_mod" (Staged.stage e6_cut);
      Test.make ~name:"e7:gw_exact" (Staged.stage e7_gw_exact);
      Test.make ~name:"e8:mpx_split" (Staged.stage e8_split);
      Test.make ~name:"e9:sfd_matchings" (Staged.stage e9_sfd);
      Test.make ~name:"e10:orient_fd" (Staged.stage e10_orient);
      Test.make ~name:"e11:line_multigraph_fd" (Staged.stage e11_line_fd);
      Test.make ~name:"e12:amr_parity_split" (Staged.stage e12_amr);
      Test.make ~name:"e13:augment_short_circuit" (Staged.stage e13_short_circuit);
      Test.make ~name:"e14:sampled_cut" (Staged.stage e14_sampled_cut);
      Test.make ~name:"e15:h_partition_n400" (Staged.stage e15_h_peel_big);
    ]

  let run () =
    Exp_common.section "Bechamel micro-benchmarks (one kernel per table)";
    let test = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" tests in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols_result ->
        let nanos =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> Printf.sprintf "%.0f" t
          | _ -> "-"
        in
        rows := [ name; nanos ] :: !rows)
      results;
    let rows = List.sort compare !rows in
    Exp_common.table ~title:"kernel cost (monotonic clock)"
      ~header:[ "kernel"; "ns/run" ] ~rows
end

(* ------------------------------------------------------------------ *)
(* perf-trajectory records                                             *)
(* ------------------------------------------------------------------ *)

(* experiments skipped under --quick: the two that dominate a full run *)
let slow_experiments = [ "e9"; "e15" ]

(* per-experiment resource attribution: Gc.quick_stat deltas around the
   experiment. top_heap is the process high-water mark at the end of
   the experiment, not a delta. *)
type resources = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

type record = {
  name : string;
  desc : string;
  wall_s : float;
  charged_rounds : int;
  uf_queries : int;
  bfs_runs : int;
  uf_rebuilds : int;
  resources : resources;
  failed : string option;
  trace : Obs.trace; (* empty unless --trace/--metrics enabled recording *)
}

(* Run one experiment inside its own Obs collection and a root span, with
   the round delta taken from the process-wide round counter. Exceptions
   are captured so one broken experiment cannot take down the sweep. *)
let run_one (name, desc, run) =
  let module C = Nw_decomp.Coloring.Counters in
  let c0 = C.snapshot () in
  let r0 = Nw_localsim.Rounds.grand_total () in
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let run_guarded () =
    try
      run ();
      None
    with exn -> Some (Printexc.to_string exn)
  in
  let failed, trace =
    Obs.collect (fun () ->
        Obs.span ("exp:" ^ name) (fun () ->
            match !chaos_ctx with
            | None -> run_guarded ()
            | Some (_, faults) ->
                let failed, stats =
                  Nw_localsim.Msg_net.with_faults faults run_guarded
                in
                Exp_common.out
                  "chaos[%s]: drops=%d dups=%d delays=%d crashes=%d \
                   restarts=%d reorders=%d digest=%Lx\n"
                  name stats.Nw_localsim.Msg_net.drops
                  stats.Nw_localsim.Msg_net.dups
                  stats.Nw_localsim.Msg_net.delays
                  stats.Nw_localsim.Msg_net.crashes
                  stats.Nw_localsim.Msg_net.restarts
                  stats.Nw_localsim.Msg_net.reorders
                  stats.Nw_localsim.Msg_net.digest;
                failed))
  in
  let t1 = Unix.gettimeofday () in
  let c1 = C.snapshot () in
  let s1 = Gc.quick_stat () in
  {
    name;
    desc;
    wall_s = t1 -. t0;
    charged_rounds = Nw_localsim.Rounds.grand_total () - r0;
    uf_queries = c1.C.uf_queries - c0.C.uf_queries;
    bfs_runs = c1.C.bfs_runs - c0.C.bfs_runs;
    uf_rebuilds = c1.C.uf_rebuilds - c0.C.uf_rebuilds;
    resources =
      {
        minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
        major_words = s1.Gc.major_words -. s0.Gc.major_words;
        promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
        minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
        major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
        top_heap_words = s1.Gc.top_heap_words;
      };
    failed;
    trace;
  }

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* self-description stamped into every record by the harness *)
type env_stamp = {
  git_commit : string option;
  hostname : string;
  ocaml_version : string;
  stamped_at : float; (* unix epoch seconds *)
  fault_plan : (string * string) option;
      (* (digest, summary) of the active --chaos plan; absent otherwise,
         so chaos-free records stay byte-identical *)
  pipeline : string * string;
      (* (registry name, pass-list hash) of the engine's algorithm
         registry, so trajectory diffs can detect pipeline drift *)
  cores : string; (* rendered "nproc"/"recommended_domain_count" pair *)
}

let capture_env () =
  let git_commit =
    try
      let ic =
        Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
      in
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> (match line with Some "" -> None | l -> l)
      | _ -> None
    with _ -> None
  in
  {
    git_commit;
    hostname = (try Unix.gethostname () with _ -> "unknown");
    ocaml_version = Sys.ocaml_version;
    stamped_at = Unix.time ();
    fault_plan =
      (match !chaos_ctx with
      | None -> None
      | Some (plan, _) -> Some (Plan.digest plan, Plan.summary plan));
    pipeline = Nw_engine.Registry.stamp ();
    cores = Exp_common.core_counts_json ();
  }

let ns_to_s ns = Int64.to_float ns /. 1e9

(* per-phase breakdown: self-times and self-rounds sum to the trace totals
   (no double counting along nesting chains); rounds charged outside any
   span land in the trailing "(unattributed)" entry *)
let phases_json trace =
  if Obs.is_empty trace then "null"
  else begin
    let b = Buffer.create 512 in
    Buffer.add_string b "[";
    let first = ref true in
    let entry name calls wall_s self_s rounds =
      Buffer.add_string b (if !first then "\n" else ",\n");
      first := false;
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": \"%s\", \"calls\": %d, \"wall_s\": %.6f, \
            \"self_s\": %.6f, \"rounds\": %d }"
           (json_escape name) calls wall_s self_s rounds)
    in
    List.iter
      (fun (p : Obs.phase) ->
        entry p.Obs.name p.Obs.calls (ns_to_s p.Obs.total_ns)
          (ns_to_s p.Obs.self_ns) p.Obs.rounds)
      (Obs.phases trace);
    let orphan = Obs.unattributed_rounds trace in
    if orphan > 0 then entry "(unattributed)" 0 0.0 0.0 orphan;
    Buffer.add_string b "\n  ]";
    Buffer.contents b
  end

(* one BENCH_<exp>.json per experiment — the persistent perf trajectory;
   schema documented in docs/benchmarking.md. "domains",
   "rounds_attribution" and "counter_attribution" are historical
   constants: the harness runs its experiments one after another in one
   process *)
let write_json ~quick ~env r =
  let oc = open_out (Printf.sprintf "BENCH_%s.json" r.name) in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"nw-bench/2\",\n\
    \  \"exp\": \"%s\",\n\
    \  \"desc\": \"%s\",\n\
    \  \"quick\": %b,\n\
    \  \"domains\": 1,\n\
    \  \"env\": {\n\
     %s\
    \    %s,\n\
    \    \"git_commit\": %s,\n\
    \    \"hostname\": \"%s\",\n\
    \    \"ocaml_version\": \"%s\",\n\
    \    \"stamped_at\": %.0f\n\
    \  },\n\
    \  \"rounds_attribution\": \"per-domain\",\n\
    \  \"counter_attribution\": \"exact\",\n\
    \  \"wall_s\": %.6f,\n\
    \  \"charged_rounds\": %d,\n\
    \  \"connectivity\": {\n\
    \    \"uf_queries\": %d,\n\
    \    \"bfs_runs\": %d,\n\
    \    \"uf_rebuilds\": %d\n\
    \  },\n\
    \  \"resources\": {\n\
    \    \"minor_words\": %.0f,\n\
    \    \"major_words\": %.0f,\n\
    \    \"promoted_words\": %.0f,\n\
    \    \"minor_collections\": %d,\n\
    \    \"major_collections\": %d,\n\
    \    \"top_heap_words\": %d\n\
    \  },\n\
    \  \"phases\": %s,\n\
    \  \"failed\": %s\n\
     }\n"
    (json_escape r.name) (json_escape r.desc) quick
    ((match env.fault_plan with
     | None -> ""
     | Some (hash, summary) ->
         Printf.sprintf
           "    \"fault_plan\": { \"hash\": \"%s\", \"summary\": \"%s\" },\n"
           (json_escape hash) (json_escape summary))
    ^
    let registry, hash = env.pipeline in
    Printf.sprintf
      "    \"pipeline\": { \"registry\": \"%s\", \"hash\": \"%s\" },\n"
      (json_escape registry) (json_escape hash))
    env.cores
    (match env.git_commit with
    | None -> "null"
    | Some c -> Printf.sprintf "\"%s\"" (json_escape c))
    (json_escape env.hostname)
    (json_escape env.ocaml_version)
    env.stamped_at
    r.wall_s r.charged_rounds r.uf_queries r.bfs_runs r.uf_rebuilds
    r.resources.minor_words r.resources.major_words
    r.resources.promoted_words r.resources.minor_collections
    r.resources.major_collections r.resources.top_heap_words
    (phases_json r.trace)
    (match r.failed with
    | None -> "null"
    | Some msg -> Printf.sprintf "\"%s\"" (json_escape msg));
  close_out oc

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_micro = List.mem "--no-micro" args in
  let json = List.mem "--json" args in
  let quick = List.mem "--quick" args in
  let metrics = List.mem "--metrics" args in
  (* --csv DIR / --trace FILE / --exp NAME consume their argument *)
  let trace_file = ref None in
  let chaos_plan = ref None in
  let chaos_seed = ref 1 in
  let rec strip acc = function
    | "--csv" :: dir :: rest ->
        Exp_common.csv_dir := Some dir;
        strip acc rest
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        strip acc rest
    | "--chaos" :: plan :: rest ->
        (match Plan.of_string plan with
        | Ok p -> chaos_plan := Some p
        | Error msg ->
            Printf.eprintf "bench: --chaos: %s\n" msg;
            exit 2);
        strip acc rest
    | "--chaos-seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n -> chaos_seed := n
        | None -> failwith "bench: --chaos-seed expects an integer");
        strip acc rest
    | [ (("--csv" | "--trace" | "--exp" | "--chaos" | "--chaos-seed") as flag)
      ] ->
        Printf.eprintf "bench: %s expects an argument\n" flag;
        exit 2
    | "--exp" :: name :: rest -> strip (name :: acc) rest
    | x :: rest -> strip (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip [] args in
  (match !chaos_plan with
  | None -> ()
  | Some plan -> (
      match Nw_chaos.Inject.compile plan ~seed:!chaos_seed () with
      | None -> () (* empty plan: byte-identical to no --chaos at all *)
      | Some faults -> chaos_ctx := Some (plan, faults)));
  if !trace_file <> None || metrics then Obs.set_enabled true;
  Exp_common.json_enabled := json;
  let flags = [ "--no-micro"; "--json"; "--quick"; "--metrics" ] in
  let selected = List.filter (fun a -> not (List.mem a flags)) args in
  (match
     List.filter
       (fun s -> not (List.exists (fun (name, _, _) -> name = s) experiments))
       selected
   with
  | [] -> ()
  | bad ->
      Printf.eprintf "bench: unknown experiment%s %s (known: %s)\n"
        (if List.length bad = 1 then "" else "s")
        (String.concat ", " bad)
        (String.concat ", " (List.map (fun (name, _, _) -> name) experiments));
      exit 2);
  let wanted name =
    if selected <> [] then List.mem name selected
    else not (quick && List.mem name slow_experiments)
  in
  Printf.printf
    "Nash-Williams forest decomposition: experiment harness\n(paper artifact index in DESIGN.md; paper-vs-measured in EXPERIMENTS.md)\n";
  if quick && selected = [] then
    Printf.printf "(--quick: skipping %s)\n"
      (String.concat ", " slow_experiments);
  let jobs =
    List.filter (fun (name, _, _) -> wanted name) experiments
  in
  let results = List.map run_one jobs in
  List.iter
    (fun r ->
      match r.failed with
      | None -> ()
      | Some msg -> Printf.printf "\n!! %s FAILED: %s\n" r.name msg)
    results;
  if metrics then
    List.iter
      (fun r ->
        if not (Obs.is_empty r.trace) then begin
          Printf.printf "\n-- metrics: %s (%s) --\n" r.name r.desc;
          Format.printf "%a@?" Obs.pp_summary r.trace
        end)
      results;
  (match !trace_file with
  | None -> ()
  | Some file ->
      let traces =
        List.filter_map
          (fun r -> if Obs.is_empty r.trace then None else Some r.trace)
          results
      in
      let oc = open_out file in
      if Filename.check_suffix file ".jsonl" then
        Obs.Export.jsonl_to_channel oc traces
      else Obs.Export.chrome_to_channel oc traces;
      close_out oc;
      Printf.printf "\nwrote trace (%d experiment%s) to %s\n"
        (List.length traces)
        (if List.length traces = 1 then "" else "s")
        file);
  if json then begin
    let env = capture_env () in
    List.iter (fun r -> write_json ~quick ~env r) results;
    Printf.printf "\nwrote %s\n"
      (String.concat ", "
         (List.map (fun r -> Printf.sprintf "BENCH_%s.json" r.name) results))
  end;
  if (not no_micro) && (not quick) && selected = [] then Micro.run ();
  (match List.find_opt (fun r -> r.failed <> None) results with
  | Some r ->
      Printf.printf "\nexperiment %s failed; exiting nonzero.\n" r.name;
      exit 1
  | None -> ());
  Printf.printf "\nall selected experiments completed.\n"
