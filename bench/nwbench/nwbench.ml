(* nwbench: end-to-end benchmark of `forestd decompose` and `forestd
   serve`, with a per-layer traced run. See README.md next to this file
   for the workloads, metrics and bounds.

     nwbench run [--workload W]... [--seed S] [--seconds T] [--trace 0|1]
                 [--quick] [--out FILE] [--forestd PATH]
     nwbench trace ...                 (run --trace 1)
     nwbench compare BASE.json NEW.json

   With exactly one --workload, the last line of stdout is the
   benchmark's JSON result: the end-to-end metrics, or with --trace 1
   the per-layer ones. Exit 1 when any output failed its check. *)

type workload = {
  name : string;
  full : int * int;  (** n, alpha *)
  tiny : int * int;  (** n, alpha under --quick *)
  run : forestd:string -> seed:int -> seconds:float -> trace:bool -> n:int -> alpha:int -> Metric.result;
}

let batch f ~forestd ~seed ~seconds ~trace ~n ~alpha =
  f { Batch.forestd; seed; seconds; trace; n; alpha }

(* [rate]: requests per second of --seconds, about what the loop
   sustains on a 2-vCPU Xeon VM at the commit that set it *)
let served name mix rate ~forestd ~seed ~seconds ~trace ~n ~alpha =
  let requests = max 20 (int_of_float (rate *. seconds)) in
  Serve.run { Serve.forestd; name; seed; seconds; requests; trace; n; alpha; mix }

(* Sizes: forest unions of exactly known arboricity. The batch inputs
   keep one rep near a second, so a run holds enough reps for its
   fastest one to land where the host did not slow it (README.md). *)
let workloads =
  [
    { name = "fd-augment"; full = (5_000, 8); tiny = (300, 4); run = batch Batch.fd_augment };
    { name = "hp-star"; full = (15_626, 8); tiny = (2_001, 4); run = batch Batch.hp_star };
    { name = "serve-churn"; full = (20_000, 3); tiny = (400, 3);
      run = served "serve-churn" (0, 1, 9) 100.0 };
    { name = "serve-mixed"; full = (2_000, 3); tiny = (200, 3);
      run = served "serve-mixed" (1, 6, 13) 350.0 };
  ]

let usage () =
  prerr_string
    "usage: nwbench run [--workload W]... [--seed S] [--seconds T] [--trace 0|1]\n\
    \                   [--quick] [--out FILE] [--forestd PATH]\n\
    \       nwbench trace ...\n\
    \       nwbench compare BASE.json NEW.json\n\
     workloads: fd-augment hp-star serve-churn serve-mixed\n";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("nwbench: " ^ s); exit 2) fmt

let int_arg k v = match int_of_string_opt v with Some i -> i | None -> die "%s wants an integer" k

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable quick : bool;
  mutable out : string option;
  mutable forestd : string;
}

let parse_run trace args =
  let o =
    { names = []; seed = 1; seconds = 15.0; trace; quick = false; out = None;
      forestd = "_build/default/bin/forestd.exe" }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        if not (List.exists (fun w -> w.name = v) workloads) then die "unknown workload %S" v;
        o.names <- o.names @ [ v ];
        go rest
    | "--seed" :: v :: rest -> o.seed <- int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> o.seconds <- s
        | _ -> die "--seconds wants a positive number");
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> o.trace <- false | "1" -> o.trace <- true | _ -> die "--trace wants 0 or 1");
        go rest
    | "--quick" :: rest -> o.quick <- true; go rest
    | "--out" :: v :: rest -> o.out <- Some v; go rest
    | "--forestd" :: v :: rest -> o.forestd <- v; go rest
    | a :: _ -> die "unknown argument %S" a
  in
  go args;
  if not (Sys.file_exists o.forestd) then die "no forestd executable at %s" o.forestd;
  o

(* Metrics a run must produce on every workload: each end-to-end one,
   finite and non-zero. *)
let check_complete (r : Metric.result) =
  List.iter
    (fun (d : Metric.def) ->
      match Hashtbl.find_opt r.values d.name with
      | Some (v, _, _) when Float.is_finite v && v <> 0.0 -> ()
      | _ -> Metric.check r false "no measurement of %s" d.name)
    (Metric.metrics_of_kind E2e)

let run_cmd trace args =
  let o = parse_run trace args in
  Proc.ensure_workdir ();
  let env = Envstamp.capture () in
  Envstamp.warn_if_loaded env;
  let chosen =
    match o.names with
    | [] -> workloads
    | names -> List.filter (fun w -> List.mem w.name names) workloads
  in
  let seconds = if o.quick then Float.min o.seconds 0.5 else o.seconds in
  let results =
    List.map
      (fun w ->
        let n, alpha = if o.quick then w.tiny else w.full in
        Printf.printf "%s: n=%d alpha=%d seed=%d seconds=%g trace=%b\n%!" w.name n
          alpha o.seed seconds o.trace;
        let r = w.run ~forestd:o.forestd ~seed:o.seed ~seconds ~trace:o.trace ~n ~alpha in
        check_complete r;
        Metric.pp_human stdout r;
        flush stdout;
        r)
      chosen
  in
  Envstamp.finish env;
  Envstamp.pp stdout env;
  (match o.out with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Printf.fprintf oc
            "{\"schema\": %s, \"seed\": %d, \"seconds\": %s, \"quick\": %b, \
             \"trace\": %b,\n \"env\": %s,\n \"workloads\": [\n  %s\n ]}\n"
            (Metric.json_string Compare.schema) o.seed (Metric.json_number seconds)
            o.quick o.trace (Envstamp.to_json env)
            (String.concat ",\n  " (List.map Metric.record_json results)));
      Printf.printf "wrote %s\n" file);
  (match results with
  | [ r ] -> print_endline (Metric.contract_line r (if o.trace then Layer else E2e))
  | _ -> ());
  if List.for_all Metric.correct results then 0 else 1

let worker_cmd args =
  let job =
    ref
      { Batch.kind = ""; seed = 1; n = 0; alpha = 0; graph_file = "";
        traced = false; seconds = 0.0 }
  in
  let rec go = function
    | [] -> ()
    | "--kind" :: v :: rest -> job := { !job with kind = v }; go rest
    | "--seed" :: v :: rest -> job := { !job with seed = int_arg "--seed" v }; go rest
    | "--n" :: v :: rest -> job := { !job with n = int_arg "--n" v }; go rest
    | "--alpha" :: v :: rest -> job := { !job with alpha = int_arg "--alpha" v }; go rest
    | "--graph" :: v :: rest -> job := { !job with graph_file = v }; go rest
    | "--traced" :: rest -> job := { !job with traced = true }; go rest
    | "--seconds" :: v :: rest ->
        job := { !job with seconds = Option.value ~default:0.0 (float_of_string_opt v) };
        go rest
    | a :: _ -> die "worker: unknown argument %S" a
  in
  go args;
  Batch.worker !job;
  0

let () =
  let code =
    match Array.to_list Sys.argv with
    | _ :: "run" :: args -> run_cmd false args
    | _ :: "trace" :: args -> run_cmd true args
    | _ :: [ "compare"; a; b ] -> Compare.run a b
    | _ :: "worker" :: args -> worker_cmd args
    | _ -> usage ()
  in
  exit code
