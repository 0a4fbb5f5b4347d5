(* Rule catalogue and tunable denylists/allowlists. Every list here is
   extendable from the command line (see nwlint.ml) so new graph-like
   types or sanctioned scratch modules never require an engine change. *)

type t = {
  det2_modules : string list;
      (* module names whose values are graph-like: applying polymorphic
         [=]/[compare]/[Hashtbl.hash] to them is DET002 *)
  det2_scalar_allow : string list;
      (* accessors of the above modules that return scalars (safe to
         compare structurally): [G.n g = 0] is fine *)
  det2_value_deny : string list;
      (* bare value/field names assumed graph-like (type-name
         heuristic): [adj = adj'] is DET002 even unqualified *)
  scratch_modules : string list;
      (* module names sanctioned to hold top-level mutable state *)
  det1_rng_allow : string list;
      (* dotted module prefixes sanctioned as randomness sources: paths
         through a module named [Rng] in lib/ are DET001 (hand-rolled
         generator) unless their alias-expanded form starts with one of
         these. The splittable, seed-threaded [Nw_chaos.Rng] is the
         blessed source (every draw a pure function of seed +
         coordinates, so fault timelines replay). *)
  det1_clock_allow : string list;
      (* dotted paths (equal-or-prefix on the alias-expanded form)
         sanctioned as monotonic-clock sources: raw reads of
         Monotonic_clock/Mtime_clock in lib/ outside lib/obs are DET001
         unless they resolve here. [Nw_obs.Obs.now_ns] is the blessed
         route — it sits behind the Obs enable switch, so disabled runs
         stay clock-free and deterministic; the flight recorder's
         timestamps flow through the same source inside lib/obs. *)
  eng1_composites : (string * string list) list;
      (* composite-phase functions of lib/core, as
         (module, functions): outside lib/core and lib/engine these are
         ENG001 — callers go through the engine (Nw_engine.Run or a
         Pipelines builder) so every run gets per-pass spans, rounds
         attribution, and checkpoints. Leaf primitives (Cut, Color_split,
         Diameter_reduction, H_partition.compute, ...) stay callable. *)
  eng1_allow : string list;
      (* dotted [Module.func] names exempted from ENG001 *)
}

let default =
  {
    det2_modules =
      [ "Multigraph"; "Graphs"; "Coloring"; "Palette"; "Orientation" ];
    det2_scalar_allow =
      [
        "n";
        "m";
        "degree";
        "color";
        "colors";
        "mem";
        "find";
        "length";
        "count";
        "arboricity";
        "max_color";
        "other_endpoint";
      ];
    det2_value_deny = [ "adj"; "adjacency" ];
    (* Scratch: per-call workspaces threaded explicitly; Counters:
       process-wide instrumentation that is only ever snapshotted and
       deltaed, so sessions and repeated runs in one process read it
       without depending on it *)
    scratch_modules = [ "Scratch"; "Counters" ];
    det1_rng_allow = [ "Nw_chaos.Rng"; "Chaos.Rng" ];
    det1_clock_allow = [ "Nw_obs.Obs.now_ns" ];
    eng1_composites =
      [
        ("Forest_algo", [ "partial_color"; "lfd_leftover" ]);
        ("Lsfd", [ "distributed"; "layered_color" ]);
        ( "Star_forest",
          [
            "sfd_select";
            "sfd_realize";
            "sfd_finish";
            "lsfd_select";
            "lsfd_realize";
          ] );
      ];
    eng1_allow = [];
  }

(* (id, default severity, one-line summary) — the source of truth for
   --list-rules, suppression validation, and docs/static-analysis.md *)
let rules =
  [
    ( "DET001",
      Diagnostic.Error,
      "no wall-clock, raw monotonic-clock, unseeded Random, or ad-hoc Rng \
       modules in lib/ (lib/obs, Nw_obs.Obs.now_ns, and the seed-threaded \
       Nw_chaos.Rng allowlisted)" );
    ( "DET002",
      Diagnostic.Error,
      "no polymorphic =/compare/Hashtbl.hash on graph, adjacency, or \
       coloring values" );
    ( "LEDGER001",
      Diagnostic.Error,
      "Rounds.charge/charge_max/merge_into must run lexically inside an \
       Obs span or an [@obs.in_span] function" );
    ( "IO001",
      Diagnostic.Error,
      "no stdout printing in lib/ (use nw_obs or return values)" );
    ( "EXN001",
      Diagnostic.Error,
      "catch-all exception handler without re-raise (span exception-safety)"
    );
    ( "OBS001",
      Diagnostic.Error,
      "no Gc.stat in lib/ (O(heap) walk) where Gc.quick_stat suffices for \
       resource attribution" );
    ( "PURE001",
      Diagnostic.Error,
      "no top-level mutable state in lib/core or lib/decomp outside \
       sanctioned scratch modules" );
    ( "ENG001",
      Diagnostic.Error,
      "composite-phase functions of lib/core (Forest_algo, Lsfd, \
       Star_forest phases) are only invokable via the engine \
       (Nw_engine.Run / Pipelines) outside lib/core and lib/engine" );
    ( "SVC001",
      Diagnostic.Error,
      "lib/service request handlers never touch Nw_engine.Store directly \
       — session state is reached only through the Session API \
       (lib/service/session.ml), which scopes every Store key to its \
       owning session" );
    ( "PERF001",
      Diagnostic.Error,
      "no O(n) Array.fill-style scratch resets in lib/ hot paths (use \
       generation-stamped Nw_graphs.Scratch; cold rebuild paths suppress \
       with justification)" );
    ( "PERF002",
      Diagnostic.Error,
      "no new boxed-tuple adjacency planes ((int * int) rows nested in \
       any two array/list containers) in lib/ — adjacency lives in \
       Multigraph's flat int rows" );
    ( "DOM001",
      Diagnostic.Error,
      "no Domain.spawn, Domain.DLS or Atomic in lib/: the library and the \
       daemon run on one domain, so shared state needs no atomics and no \
       race rules" );
    ( "CONTRACT001",
      Diagnostic.Error,
      "every registered pass touches exactly the Store keys its \
       reads/writes contract declares — no undeclared accesses, no dead \
       entries [--flow]" );
    ( "EFF001",
      Diagnostic.Error,
      "no IO, wall-clock, or unseeded randomness reachable from pass \
       bodies or proved-pure functions [--flow]" );
    ("PARSE001", Diagnostic.Error, "source file failed to parse");
    ( "SUPP001",
      Diagnostic.Error,
      "nwlint:disable without a `-- justification`" );
    ("SUPP002", Diagnostic.Warning, "unused nwlint:disable suppression");
    ( "SUPP003",
      Diagnostic.Error,
      "nwlint:disable names an unknown rule id" );
  ]

let known_rule id = List.exists (fun (r, _, _) -> String.equal r id) rules

(* interprocedural rules run by the --flow layer (tools/nwlint/flow);
   the per-file engine must not flag their suppressions as unused *)
let flow_rules = [ "CONTRACT001"; "EFF001" ]
let flow_rule id = List.mem id flow_rules

(* rule ids a file-level suppression may target (the analysis rules;
   suppression hygiene itself cannot be suppressed) *)
let suppressible id =
  known_rule id && not (String.length id >= 4 && String.sub id 0 4 = "SUPP")
