(* nwbench compare BASE.json NEW.json: every (workload, metric) of two
   records side by side with its delta and bound. A metric is worse
   past its bound when it moved the wrong way by more than bound x base
   (or its absolute floor, if larger); it is "unresolved" when either
   record's own spread for it exceeds the bound, since the run-to-run
   noise is then too wide to tell. Exit 1 when a resolved metric is
   past its bound, a workload's error rate rose, or a workload is
   missing or incorrect in NEW; exit 2 on unreadable input. *)

module J = Nw_obs.Json_lite

let schema = "nwbench/1"

type m = { value : float; better : string; bound : float option; floor : float; spread : float }

let load path =
  let text =
    match Proc.read_file path with
    | Some t -> t
    | None -> failwith (path ^ ": cannot read")
  in
  let json =
    try J.parse text with J.Parse_error e -> failwith (path ^ ": " ^ e)
  in
  if Option.bind (J.member "schema" json) J.to_string <> Some schema then
    failwith (path ^ ": not an " ^ schema ^ " record");
  let num j k = Option.bind (J.member k j) J.to_float in
  match J.member "workloads" json with
  | Some (J.List ws) ->
      List.filter_map
        (fun w ->
          match (Option.bind (J.member "name" w) J.to_string, J.member "metrics" w) with
          | Some name, Some (J.Obj ms) ->
              let metrics =
                List.filter_map
                  (fun (k, v) ->
                    match num v "value" with
                    | None -> None
                    | Some value ->
                        Some
                          ( k,
                            {
                              value;
                              better =
                                Option.value ~default:"lower"
                                  (Option.bind (J.member "better" v) J.to_string);
                              bound = num v "bound";
                              floor = Option.value ~default:0.0 (num v "floor");
                              spread = Option.value ~default:0.0 (num v "spread");
                            } ))
                  ms
              in
              let correct = Option.bind (J.member "correct" w) J.to_bool = Some true in
              let rate =
                match (num w "failed", num w "attempted") with
                | Some f, Some a when a > 0.0 -> f /. a
                | _ -> 1.0
              in
              Some (name, (correct, rate, metrics))
          | _ -> None)
        ws
  | _ -> failwith (path ^ ": no workloads")

let run base_path new_path =
  match (load base_path, load new_path) with
  | exception Failure msg ->
      prerr_endline ("nwbench compare: " ^ msg);
      2
  | base, fresh ->
      let bad = ref 0 in
      Printf.printf "%-12s %-40s %14s %14s %9s %7s  %s\n" "workload" "metric"
        "base" "new" "delta" "bound" "verdict";
      List.iter
        (fun (name, (_, base_rate, base_ms)) ->
          match List.assoc_opt name fresh with
          | None ->
              incr bad;
              Printf.printf "%-12s missing from %s\n" name new_path
          | Some (correct, rate, ms) ->
              if not correct then begin
                incr bad;
                Printf.printf "%-12s %-40s incorrect in %s\n" name "-" new_path
              end;
              let rate_verdict = if rate > base_rate then (incr bad; "WORSE") else "ok" in
              Printf.printf "%-12s %-40s %14.6g %14.6g %9s %7s  %s\n" name
                "error_rate" base_rate rate "" "0" rate_verdict;
              List.iter
                (fun (k, a) ->
                  match List.assoc_opt k ms with
                  | None ->
                      incr bad;
                      Printf.printf "%-12s %-40s missing from %s\n" name k new_path
                  | Some b ->
                      let delta =
                        if a.value = 0.0 then 0.0 else (b.value -. a.value) /. Float.abs a.value
                      in
                      let worse =
                        if a.better = "higher" then a.value -. b.value
                        else b.value -. a.value
                      in
                      let verdict, bound =
                        match a.bound with
                        | None -> ("-", "-")
                        | Some bound ->
                            let allowed = Float.max (bound *. Float.abs a.value) a.floor in
                            ( (if Float.max a.spread b.spread > bound then "unresolved"
                               else if worse > allowed then (incr bad; "WORSE")
                               else "ok"),
                              Printf.sprintf "%.0f%%" (bound *. 100.0) )
                      in
                      Printf.printf "%-12s %-40s %14.6g %14.6g %+8.2f%% %7s  %s\n" name
                        k a.value b.value (delta *. 100.0) bound verdict)
                base_ms)
        base;
      if !bad > 0 then begin
        Printf.printf "%d check(s) past their bound\n" !bad;
        1
      end
      else 0
