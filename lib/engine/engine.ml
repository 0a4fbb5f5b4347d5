module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs
module Flight = Nw_obs.Flight

exception Engine_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Engine_error s)) fmt

type ctx = { mutable rng : Random.State.t; rounds : Rounds.t }

let ctx ~rng ~rounds = { rng; rounds }

type pass = {
  name : string;
  reads : (string * Artifact.kind) list;
  writes : (string * Artifact.kind) list;
  run : ctx -> Store.t -> Store.t;
}

type pipeline = { pl_name : string; passes : pass list }

type checkpoint = {
  ck_pipeline : string;
  ck_completed : int;
  ck_store : Store.t;
  ck_rng : Random.State.t;
}

let check_bindings ~pipeline ~pass ~what store bindings =
  List.iter
    (fun (key, kind) ->
      match Store.find store key with
      | None ->
          error "pipeline %s, pass %s: missing %s artifact \"%s\"" pipeline
            pass what key
      | Some a ->
          let got = Artifact.kind_of a in
          if not (Artifact.kind_equal got kind) then
            error
              "pipeline %s, pass %s: %s artifact \"%s\" has kind %s, \
               declared %s"
              pipeline pass what key (Artifact.kind_name got)
              (Artifact.kind_name kind))
    bindings

let run ?resume ?checkpoint ctx pipeline ~init =
  let num_passes = List.length pipeline.passes in
  let start, store0 =
    match resume with
    | None -> (0, init)
    | Some ck ->
        if not (String.equal ck.ck_pipeline pipeline.pl_name) then
          error "resume: checkpoint is for pipeline %s, not %s"
            ck.ck_pipeline pipeline.pl_name;
        if ck.ck_completed < 0 || ck.ck_completed > num_passes then
          error "resume: checkpoint pass index %d out of range (0..%d)"
            ck.ck_completed num_passes;
        ctx.rng <- Random.State.copy ck.ck_rng;
        (ck.ck_completed, Store.snapshot ck.ck_store)
  in
  let store = ref store0 in
  List.iteri
    (fun i p ->
      if i >= start then begin
        Obs.span
          ("pass:" ^ p.name)
          ~attrs:
            [ ("pipeline", Obs.Str pipeline.pl_name); ("index", Obs.Int i) ]
        @@ fun () ->
        (* resource attribution: quick_stat deltas on this domain.
           Guarded by the Obs switch so disabled runs stay zero-cost, and
           carried as span attrs so BENCH phase records are unchanged. *)
        let res0 = if Obs.enabled () then Some (Gc.quick_stat ()) else None in
        let before = Rounds.total ctx.rounds in
        let out =
          try
            check_bindings ~pipeline:pipeline.pl_name ~pass:p.name
              ~what:"input" !store p.reads;
            let out = p.run ctx !store in
            check_bindings ~pipeline:pipeline.pl_name ~pass:p.name
              ~what:"output" out p.writes;
            out
          with e ->
            (* post-mortem before the span unwinds: name the failing
               pass, then flush the flight recorder if a sink is armed *)
            Flight.mark "engine.pass_failed"
              [
                ("pipeline", pipeline.pl_name);
                ("pass", p.name);
                ("index", string_of_int i);
                ("error", Printexc.to_string e);
              ];
            Flight.trigger ~reason:"pass-failed" ();
            raise e
        in
        Obs.set_attr "pass_rounds"
          (Obs.Int (Rounds.total ctx.rounds - before));
        (match res0 with
        | None -> ()
        | Some s0 ->
            let s1 = Gc.quick_stat () in
            Obs.set_attr "pass_minor_words"
              (Obs.Float (s1.Gc.minor_words -. s0.Gc.minor_words));
            Obs.set_attr "pass_major_words"
              (Obs.Float (s1.Gc.major_words -. s0.Gc.major_words));
            Obs.set_attr "pass_promoted_words"
              (Obs.Float (s1.Gc.promoted_words -. s0.Gc.promoted_words));
            Obs.set_attr "pass_minor_collections"
              (Obs.Int (s1.Gc.minor_collections - s0.Gc.minor_collections));
            Obs.set_attr "pass_major_collections"
              (Obs.Int (s1.Gc.major_collections - s0.Gc.major_collections));
            Obs.set_attr "top_heap_words" (Obs.Int s1.Gc.top_heap_words));
        store := out;
        match checkpoint with
        | None -> ()
        | Some save ->
            Flight.mark "engine.checkpoint"
              [
                ("pipeline", pipeline.pl_name);
                ("pass", p.name);
                ("id", Printf.sprintf "%s#%d" pipeline.pl_name (i + 1));
              ];
            save
              {
                ck_pipeline = pipeline.pl_name;
                ck_completed = i + 1;
                ck_store = Store.snapshot out;
                ck_rng = Random.State.copy ctx.rng;
              }
      end)
    pipeline.passes;
  !store

module Smap = Map.Make (String)

let validate ?(initial = []) pipeline =
  let add map (key, kind) = Smap.add key kind map in
  let check map pass_name bindings =
    List.fold_left
      (fun acc (key, kind) ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match Smap.find_opt key map with
            | None ->
                Error
                  (Printf.sprintf
                     "pipeline %s, pass %s: no prior pass writes \"%s\""
                     pipeline.pl_name pass_name key)
            | Some k when not (Artifact.kind_equal k kind) ->
                Error
                  (Printf.sprintf
                     "pipeline %s, pass %s: \"%s\" flows as %s but is read \
                      as %s"
                     pipeline.pl_name pass_name key (Artifact.kind_name k)
                     (Artifact.kind_name kind))
            | Some _ -> acc))
      (Ok ()) bindings
  in
  let rec go map = function
    | [] -> Ok ()
    | p :: rest -> (
        match check map p.name p.reads with
        | Error _ as e -> e
        | Ok () -> go (List.fold_left add map p.writes) rest)
  in
  go (List.fold_left add Smap.empty initial) pipeline.passes

(* FNV-1a, 64-bit: stable across runs and platforms, cheap, and good
   enough to detect any registry or pass-list drift in bench records *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let digest_int64 pipeline =
  let h = ref (fnv_string fnv_offset pipeline.pl_name) in
  List.iter
    (fun p ->
      h := fnv_string !h ("|" ^ p.name);
      List.iter
        (fun (key, kind) ->
          h := fnv_string !h ("<" ^ key ^ ":" ^ Artifact.kind_name kind))
        p.reads;
      List.iter
        (fun (key, kind) ->
          h := fnv_string !h (">" ^ key ^ ":" ^ Artifact.kind_name kind))
        p.writes)
    pipeline.passes;
  !h

let digest pipeline = Printf.sprintf "%016Lx" (digest_int64 pipeline)
