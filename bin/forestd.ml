(* forestd: command-line front end for the Nash-Williams LOCAL
   decomposition library.

     forestd generate --family forest-union --n 200 --alpha 5 -o g.txt
     forestd info g.txt
     forestd decompose g.txt --algorithm augment --epsilon 0.5
     forestd decompose g.txt --algorithm star --epsilon 0.25 --dot out.dot
*)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Io = Nw_graphs.Graph_io
module Arb = Nw_graphs.Arboricity
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Verify = Nw_decomp.Verify
module Obs = Nw_obs.Obs
module Flight = Nw_obs.Flight
module Prometheus = Nw_obs.Prometheus
module Jmit = Nw_obs.Json_lite.Emit
module Plan = Nw_chaos.Plan
module Registry = Nw_engine.Registry
module Engine = Nw_engine.Engine
module EStore = Nw_engine.Store
module Artifact = Nw_engine.Artifact

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 2021 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let epsilon_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Slack parameter eps > 0.")

let graph_pos =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"GRAPH" ~doc:"Edge-list file (see graph_io format).")

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let family_conv =
  Arg.enum
    [
      ("forest-union", `Forest_union);
      ("forest-union-simple", `Forest_union_simple);
      ("erdos-renyi", `Erdos_renyi);
      ("complete", `Complete);
      ("grid", `Grid);
      ("line-multigraph", `Line_multigraph);
      ("random-regular", `Random_regular);
      ("planted", `Planted);
      ("k-tree", `K_tree);
      ("preferential", `Preferential);
      ("hypercube", `Hypercube);
      ("caterpillar", `Caterpillar);
    ]

let generate seed family n alpha p degree extra output =
  let rng = Random.State.make [| seed |] in
  let g =
    match family with
    | `Forest_union -> Gen.forest_union rng n alpha
    | `Forest_union_simple -> Gen.forest_union_simple rng n alpha
    | `Erdos_renyi -> Gen.erdos_renyi rng n p
    | `Complete -> Gen.complete n
    | `Grid ->
        let side = int_of_float (sqrt (float_of_int n)) in
        Gen.grid side side
    | `Line_multigraph -> Gen.line_multigraph n alpha
    | `Random_regular -> Gen.random_regular rng n degree
    | `Planted -> Gen.planted_alpha rng n alpha extra
    | `K_tree -> Gen.random_k_tree rng n alpha
    | `Preferential -> Gen.preferential_attachment rng n alpha
    | `Hypercube ->
        let d = max 1 (int_of_float (log (float_of_int (max 2 n)) /. log 2.)) in
        Gen.hypercube d
    | `Caterpillar -> Gen.caterpillar (max 1 (n / (1 + degree))) degree
  in
  (match output with
  | None -> print_string (Io.to_edge_list g)
  | Some path -> Io.write_edge_list path g);
  Format.eprintf "generated %a@." G.pp g

let generate_cmd =
  let family =
    Arg.(
      value
      & opt family_conv `Forest_union
      & info [ "family" ] ~docv:"FAMILY" ~doc:"Graph family.")
  in
  let n =
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc:"Vertex count.")
  in
  let alpha =
    Arg.(
      value & opt int 4
      & info [ "alpha" ] ~docv:"A" ~doc:"Target arboricity (where used).")
  in
  let p =
    Arg.(
      value & opt float 0.1
      & info [ "p" ] ~docv:"P" ~doc:"Edge probability (erdos-renyi).")
  in
  let degree =
    Arg.(
      value & opt int 4
      & info [ "degree" ] ~docv:"D" ~doc:"Degree (random-regular).")
  in
  let extra =
    Arg.(
      value & opt int 0
      & info [ "extra" ] ~docv:"X" ~doc:"Extra noise edges (planted).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a benchmark graph.")
    Term.(
      const generate $ seed_arg $ family $ n $ alpha $ p $ degree $ extra
      $ output)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

(* a bad edge list is an input error: one line on stderr and exit 2,
   never an uncaught exception *)
let read_graph path =
  try Io.read_edge_list path
  with Failure msg | Sys_error msg ->
    prerr_endline ("forestd: " ^ msg);
    exit 2

let info_run path exact =
  let g = read_graph path in
  Format.printf "%a@." G.pp g;
  Format.printf "simple: %b@." (G.is_simple g);
  Format.printf "degeneracy: %d@." (Nw_graphs.Degeneracy.degeneracy g);
  Format.printf "density lower bound: %d@." (Arb.density_lower_bound g);
  let alpha_star, _ = Arb.pseudo_arboricity g in
  Format.printf "pseudo-arboricity: %d@." alpha_star;
  if exact then begin
    Format.printf "arboricity (exact): %d@."
      (Nw_baseline.Gabow_westermann.arboricity_value g)
  end

let info_cmd =
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Also compute the exact arboricity (the density bound when it \
             meets the degeneracy, else by matroid partition).")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print graph statistics.")
    Term.(const info_run $ graph_pos $ exact)

(* ------------------------------------------------------------------ *)
(* decompose                                                           *)
(* ------------------------------------------------------------------ *)

(* every algorithm the CLI knows comes from the engine registry — adding
   an entry there is all it takes to appear here and in `forestd list` *)
let algorithm_conv =
  Arg.enum (List.map (fun e -> (e.Registry.name, e)) Registry.all)

(* set when an entry's own checker rejects its output; under --chaos
   this becomes a machine-readable diagnostic and a distinct exit code *)
let verify_failure : string option ref = ref None

let report_verified = function
  | Ok () -> Format.printf "verified: valid decomposition@."
  | Error msg ->
      verify_failure := Some msg;
      Format.printf "INVALID: %s@." msg

(* a pipeline that cannot meet its theorem on this input raises; like a
   served decompose-failed answer, that is one line on stderr and a
   documented exit code (4), never an uncaught exception (exit 125) *)
let survivable = function Out_of_memory | Stack_overflow -> false | _ -> true

let run_or_fail f =
  try f ()
  with exn when survivable exn ->
    prerr_endline ("forestd: decomposition failed: " ^ Printexc.to_string exn);
    exit 4

let failed_exit =
  Cmd.Exit.info 4
    ~doc:
      "when the algorithm's pipeline raises on this input (one line on \
       stderr), as a served decompose answers decompose-failed."

(* an algorithm that needs a simple graph, handed a multigraph, is an
   input error: one line on stderr and exit 2, never an uncaught
   exception *)
let check_input path g (algorithm : Registry.entry) =
  if algorithm.Registry.simple_only && not (G.is_simple g) then begin
    Printf.eprintf
      "forestd: algorithm %s requires a simple graph, but %s has parallel \
       edges\n"
      algorithm.Registry.name path;
    exit 2
  end

(* the exact arboricity when --alpha is omitted, under its own span: a
   trace attributes the time spent on a value the caller did not pass *)
let resolve_alpha g = function
  | Some a -> a
  | None ->
      Obs.span "arboricity.exact" (fun () ->
          Nw_baseline.Gabow_westermann.arboricity_value g)

let decompose path algorithm epsilon seed alpha_opt dot save trace metrics
    chaos chaos_seed flight =
  let g = read_graph path in
  check_input path g algorithm;
  let rng = Random.State.make [| seed |] in
  (* the flight recorder piggybacks on the Obs stream; it changes nothing
     that goes to stdout, so fault-free output stays byte-identical to a
     plain invocation *)
  if trace <> None || metrics || flight <> None then Obs.set_enabled true;
  (* an empty --chaos plan compiles to None: no hooks, output identical
     to a chaos-free invocation *)
  let faults =
    match chaos with
    | None -> None
    | Some plan ->
        Option.map
          (fun f -> (plan, f))
          (Nw_chaos.Inject.compile plan ~seed:chaos_seed ())
  in
  let algo_name = algorithm.Registry.name in
  (* the recorder is on before the trace opens, so it sees the whole
     decompose span; the sink's env names the pipeline, which is built
     inside the trace. The stamp is taken first: its builds would
     otherwise land in the recorder's ring *)
  let arm_flight =
    match flight with
    | None -> fun _ -> ()
    | Some file ->
        let registry, registry_hash = Registry.stamp () in
        Flight.set_enabled true;
        fun pipeline ->
          let env =
            [
              ("graph", path);
              ("algorithm", algo_name);
              ("epsilon", string_of_float epsilon);
              ("seed", string_of_int seed);
              ("registry", registry);
              ("registry_hash", registry_hash);
              ("pipeline", pipeline.Engine.pl_name);
              ("pipeline_hash", Engine.digest pipeline);
            ]
            @
            match faults with
            | Some (plan, _) ->
                [
                  ("fault_plan", Plan.digest plan);
                  ("fault_summary", Plan.summary plan);
                  ("chaos_seed", string_of_int chaos_seed);
                ]
            | None -> []
          in
          Flight.set_sink ~env file
  in
  (* under fault injection a failing run is an expected, machine-consumable
     outcome: one JSON line on stderr, exit code 3 (distinct from
     cmdliner's 1/2/124/125 and from the fault-free paths). NB %S is
     OCaml escaping, not JSON — strings go through Json_lite.Emit. *)
  let chaos_diagnostic ~error ~detail plan =
    Printf.eprintf
      "{\"error\":%s,\"algorithm\":%s,\"chaos\":%s,\"chaos_seed\":%d,\"detail\":%s}\n"
      (Jmit.string_value error) (Jmit.string_value algo_name)
      (Jmit.string_value (Plan.to_string plan))
      chaos_seed (Jmit.string_value detail);
    Flight.mark "forestd.exit"
      [ ("error", error); ("detail", detail); ("code", "3") ];
    Flight.trigger ~reason:error ();
    exit 3
  in
  (* the registry entry's pipeline does the algorithmic work; what remains
     here is reporting, keyed on what the pipeline left in the store *)
  let run_collected () =
    Obs.collect @@ fun () ->
    Obs.span "decompose" @@ fun () ->
    let alpha = resolve_alpha g alpha_opt in
    Format.printf "graph: %a, alpha = %d, eps = %g@." G.pp g alpha epsilon;
    let spec = { Registry.graph = g; epsilon; alpha } in
    (* building can be real work: lsfd sizes its palette from the exact
       pseudo-arboricity, so it runs inside the trace *)
    let pipeline = algorithm.Registry.build spec in
    arm_flight pipeline;
    let rounds = Rounds.create () in
    let ctx = Engine.ctx ~rng ~rounds in
    let init = EStore.put EStore.empty "graph" (Artifact.Graph g) in
    (* pass-boundary checkpoints feed the flight recorder's
       "last checkpoint" mark; without it the engine takes no snapshots
       at all *)
    let checkpoint =
      if flight <> None then Some (fun (_ : Engine.checkpoint) -> ())
      else None
    in
    let store = Engine.run ?checkpoint ctx pipeline ~init in
    let verified () = report_verified (Registry.verify algorithm spec store) in
    match algorithm.Registry.yields with
    | Registry.Coloring_out ->
        let c = EStore.coloring store "coloring" in
        if EStore.mem store "fd_stats" then begin
          let stats = EStore.fd_stats store "fd_stats" in
          Format.printf "leftover: %d, stalls: %d, longest sequence: %d@."
            stats.Nw_core.Forest_algo.leftover_edges
            stats.Nw_core.Forest_algo.stalls
            stats.Nw_core.Forest_algo.max_sequence_length
        end;
        if EStore.mem store "sfd_stats" then begin
          let stats = EStore.sfd_stats store "sfd_stats" in
          Format.printf "deficiency: %d, leftover: %d@."
            stats.Nw_core.Star_forest.max_deficiency
            stats.Nw_core.Star_forest.leftover_edges
        end;
        verified ();
        Format.printf "colors used: %d@." (Verify.colors_used c);
        Format.printf "max forest diameter: %d@."
          (Verify.max_forest_diameter c);
        if algorithm.Registry.reports_rounds then
          Format.printf "%a@." Rounds.pp rounds;
        Some c
    | Registry.Orientation_out ->
        let o = EStore.orientation store "orientation" in
        verified ();
        Format.printf "max out-degree: %d (alpha = %d)@."
          (Nw_graphs.Orientation.max_out_degree o)
          alpha;
        Format.printf "%a@." Rounds.pp rounds;
        None
    | Registry.Pseudo_out ->
        let _assignment, k = EStore.assignment store "assignment" in
        verified ();
        Format.printf "pseudo-forests: %d (alpha = %d)@." k alpha;
        Format.printf "%a@." Rounds.pp rounds;
        None
  in
  let coloring, obs_trace =
    match faults with
    | None -> run_or_fail run_collected
    | Some (plan, f) ->
        let r, stats =
          (* a fault-killed run becomes the documented JSON diagnostic *)
          try Nw_localsim.Msg_net.with_faults f run_collected
          with exn ->
            chaos_diagnostic ~error:"algorithm-raised"
              ~detail:(Printexc.to_string exn) plan
        in
        Format.printf
          "chaos: drops=%d dups=%d delays=%d crashes=%d restarts=%d \
           reorders=%d digest=%Lx@."
          stats.Nw_localsim.Msg_net.drops stats.Nw_localsim.Msg_net.dups
          stats.Nw_localsim.Msg_net.delays stats.Nw_localsim.Msg_net.crashes
          stats.Nw_localsim.Msg_net.restarts
          stats.Nw_localsim.Msg_net.reorders stats.Nw_localsim.Msg_net.digest;
        r
  in
  if metrics && not (Obs.is_empty obs_trace) then
    Format.printf "%a@?" Obs.pp_summary obs_trace;
  (match trace with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      if Filename.check_suffix file ".jsonl" then
        Obs.Export.jsonl_to_channel oc [ obs_trace ]
      else Obs.Export.chrome_to_channel oc [ obs_trace ];
      close_out oc;
      Format.printf "wrote trace to %s@." file);
  (match (dot, coloring) with
  | Some dot_path, Some c ->
      let oc = open_out dot_path in
      output_string oc (Io.to_dot g ~edge_color:(fun e -> Coloring.color c e));
      close_out oc;
      Format.printf "wrote %s@." dot_path
  | _ -> ());
  (match (save, coloring) with
  | Some save_path, Some c ->
      Nw_decomp.Coloring_io.write save_path c;
      Format.printf "saved decomposition to %s@." save_path
  | Some _, None ->
      Format.printf "note: this algorithm produces no coloring to save@."
  | None, _ -> ());
  match (faults, !verify_failure) with
  | Some (plan, _), Some detail ->
      chaos_diagnostic ~error:"invalid-decomposition" ~detail plan
  | _ -> ()

let decompose_cmd =
  let algorithm =
    let default =
      match Registry.find "augment" with Some e -> e | None -> assert false
    in
    Arg.(
      value
      & opt algorithm_conv default
      & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"Algorithm to run.")
  in
  let alpha =
    Arg.(
      value
      & opt (some int) None
      & info [ "alpha" ] ~docv:"A"
          ~doc:"Arboricity bound (computed exactly when omitted).")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write a colored DOT rendering.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Save the decomposition (coloring_io format).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON of the phase spans (open in \
             chrome://tracing or ui.perfetto.dev); a .jsonl suffix selects \
             the JSONL event stream.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the phase-span tree, counters, and histograms.")
  in
  let plan_conv =
    let parse s =
      match Plan.of_string s with Ok p -> Ok p | Error m -> Error (`Msg m)
    in
    let print ppf p = Format.pp_print_string ppf (Plan.to_string p) in
    Arg.conv (parse, print)
  in
  let chaos =
    Arg.(
      value
      & opt (some plan_conv) None
      & info [ "chaos" ] ~docv:"PLAN"
          ~doc:
            "Run under a deterministic fault-injection plan (see \
             docs/fault-model.md), e.g. drop=0.1,delay=0.2:2,reorder. An \
             empty plan is byte-identical to omitting the flag. If the \
             faults make the result fail verification, forestd prints a \
             one-line JSON diagnostic on stderr and exits 3.")
  in
  let chaos_seed =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:
            "Seed for the fault plan; the same (plan, seed) pair replays \
             the identical fault timeline.")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"FILE"
          ~doc:
            "Arm the bounded flight recorder: on a pass failure, a \
             chaos-invalid outcome, or any exit-3 diagnostic, dump a \
             self-contained nw-flight/2 JSON post-mortem (recent span/\
             counter/charge events, env stamp, pipeline hash, \
             fault-plan digest, last checkpoint) to FILE. Fault-free \
             stdout is byte-identical to running without the flag.")
  in
  let exits =
    Cmd.Exit.info 2
      ~doc:
        "on an input error: the algorithm requires a simple graph and the \
         input has parallel edges (one line on stderr)."
    :: failed_exit :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "decompose" ~exits
       ~doc:"Run a decomposition algorithm on a graph.")
    Term.(
      const decompose $ graph_pos $ algorithm $ epsilon_arg $ seed_arg $ alpha
      $ dot $ save $ trace $ metrics $ chaos $ chaos_seed $ flight)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

(* run a decomposition with Obs on and print the Prometheus text
   exposition of the finished trace — the one-shot, pipeable face of the
   same rendering a `forestd serve --serve-metrics` scrape answers *)
let stats_run path algorithm epsilon seed alpha_opt =
  let g = read_graph path in
  check_input path g algorithm;
  let rng = Random.State.make [| seed |] in
  Obs.set_enabled true;
  let (), t =
    run_or_fail @@ fun () ->
    Obs.collect @@ fun () ->
    Obs.span "decompose" @@ fun () ->
    let alpha = resolve_alpha g alpha_opt in
    let rounds = Rounds.create () in
    let pipeline =
      algorithm.Registry.build { Registry.graph = g; epsilon; alpha }
    in
    let ctx = Engine.ctx ~rng ~rounds in
    let init = EStore.put EStore.empty "graph" (Artifact.Graph g) in
    ignore (Engine.run ctx pipeline ~init)
  in
  print_string (Prometheus.to_string [ t ])

let stats_cmd =
  let algorithm =
    let default =
      match Registry.find "augment" with Some e -> e | None -> assert false
    in
    Arg.(
      value
      & opt algorithm_conv default
      & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"Algorithm to run.")
  in
  let alpha =
    Arg.(
      value
      & opt (some int) None
      & info [ "alpha" ] ~docv:"A"
          ~doc:"Arboricity bound (computed exactly when omitted).")
  in
  Cmd.v
    (Cmd.info "stats" ~exits:(failed_exit :: Cmd.Exit.defaults)
       ~doc:
         "Run a decomposition and print its Obs registry (counters, \
          histograms, per-pass aggregates) in Prometheus text format.")
    Term.(
      const stats_run $ graph_pos $ algorithm $ epsilon_arg $ seed_arg $ alpha)

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_run verbose =
  List.iter
    (fun e ->
      Format.printf "%-12s %s@." e.Registry.name e.Registry.description;
      if verbose then begin
        let pipeline =
          e.Registry.build
            {
              Registry.graph = Nw_graphs.Generators.complete 2;
              epsilon = 0.5;
              alpha = 1;
            }
        in
        List.iter
          (fun p -> Format.printf "             - %s@." p.Engine.name)
          pipeline.Engine.passes
      end)
    Registry.all;
  let registry, hash = Registry.stamp () in
  Format.printf "registry: %s %s@." registry hash

let list_cmd =
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print each algorithm's pipeline passes.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the registered decomposition algorithms.")
    Term.(const list_run $ verbose)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

(* a malformed coloring file is an input error (one stderr line, exit 2);
   a class with a cycle cannot be loaded, so it fails the forest check *)
let verify_run graph_path coloring_path star lists =
  let g = read_graph graph_path in
  let report name = function
    | Ok () -> Format.printf "%-24s ok@." name
    | Error msg -> Format.printf "%-24s FAILED: %s@." name msg
  in
  let coloring =
    match Nw_decomp.Coloring_io.read coloring_path g with
    | c -> c
    | exception Failure msg ->
        prerr_endline ("forestd: " ^ msg);
        exit 2
    | exception Invalid_argument msg ->
        report "forest decomposition" (Error msg);
        exit 1
  in
  let checks =
    [
      ( "forest decomposition",
        if star then Verify.star_forest_decomposition coloring
        else Verify.forest_decomposition coloring );
    ]
    @
    match lists with
    | None -> []
    | Some k ->
        [ ("palette (full 0..k-1)",
           Verify.respects_palette coloring (Nw_decomp.Palette.full g k)) ]
  in
  List.iter (fun (name, r) -> report name r) checks;
  let failed = List.exists (fun (_, r) -> Result.is_error r) checks in
  Format.printf "colors used: %d, max diameter: %d@."
    (Verify.colors_used coloring)
    (Verify.max_forest_diameter coloring);
  if failed then exit 1

let verify_cmd =
  let coloring_pos =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"COLORING" ~doc:"Saved decomposition file.")
  in
  let star =
    Arg.(
      value & flag
      & info [ "star" ] ~doc:"Require every class to be a star forest.")
  in
  let lists =
    Arg.(
      value
      & opt (some int) None
      & info [ "palette" ] ~docv:"K"
          ~doc:"Also check colors lie in 0..K-1.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Re-verify a saved decomposition against a graph.")
    Term.(const verify_run $ graph_pos $ coloring_pos $ star $ lists)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_run socket serve_metrics =
  (* daemon-side failures use the same one-line JSON stderr diagnostic
     shape as the chaos path: machine-consumable, Json_lite-escaped,
     paired with a distinctive exit code (2 = CLI misuse, 3 = runtime
     failure, matching decompose) *)
  let diagnostic ~error ~detail code =
    Printf.eprintf "{\"error\":%s,\"socket\":%s,\"detail\":%s}\n"
      (Jmit.string_value error) (Jmit.string_value socket)
      (Jmit.string_value detail);
    exit code
  in
  match
    Nw_service.Server.serve
      {
        Nw_service.Server.socket_path = socket;
        metrics_socket = serve_metrics;
      }
  with
  | () -> ()
  | exception Invalid_argument detail ->
      (* --socket (or --serve-metrics) refused: the path exists and is
         not a socket, so it is not ours to unlink *)
      diagnostic ~error:"bad-socket-path" ~detail 2
  | exception Nw_service.Server.Server_error detail ->
      diagnostic ~error:"server-failed" ~detail 3
  | exception Unix.Unix_error (e, fn, _) ->
      diagnostic ~error:"server-failed"
        ~detail:(fn ^ ": " ^ Unix.error_message e)
        3

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix socket to listen on (nw-wire/1 frames; see \
             docs/service.md). A stale socket file left by a dead daemon \
             is reclaimed; any other existing file is refused with a \
             JSON diagnostic and exit 2.")
  in
  let serve_metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "serve-metrics" ] ~docv:"SOCK"
          ~doc:
            "Also serve the live request-latency histograms and counters \
             in Prometheus text format over a second Unix socket at SOCK \
             (scrape with curl --unix-socket SOCK http://localhost/).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the decomposition daemon: named dynamic-graph sessions, \
          incremental edge churn, batch decompose/orient via the \
          registry, over a Unix socket.")
    Term.(const serve_run $ socket $ serve_metrics)

let () =
  let doc = "Nash-Williams forest decomposition in the LOCAL model" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "forestd" ~doc)
          [
            generate_cmd;
            info_cmd;
            decompose_cmd;
            stats_cmd;
            verify_cmd;
            list_cmd;
            serve_cmd;
          ]))
