module Obs = Nw_obs.Obs

type t = {
  tbl : (string, int) Hashtbl.t;
  mutable order : string list; (* reversed first-charge order *)
  mutable total : int;
}

let create () = { tbl = Hashtbl.create 16; order = []; total = 0 }

(* process-wide sum over every ledger ever charged: the bench harness
   reads its delta around each experiment *)
let grand = ref 0

let grand_total () = !grand

let charge t ~label r =
  if r < 0 then invalid_arg "Rounds.charge: negative rounds";
  if not (Hashtbl.mem t.tbl label) then t.order <- label :: t.order;
  Hashtbl.replace t.tbl label (r + Option.value ~default:0 (Hashtbl.find_opt t.tbl label));
  t.total <- t.total + r;
  grand := !grand + r;
  (* attribute the charge to the active tracing span, if any *)
  Obs.record_rounds ~label r

let total t = t.total

let ledger t =
  List.rev_map (fun l -> (l, Hashtbl.find t.tbl l)) t.order

let merge_into ~into t =
  List.iter (fun (label, r) -> charge into ~label r) (ledger t)

let charge_max t ts =
  let best = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sub ->
      List.iter
        (fun (label, r) ->
          match Hashtbl.find_opt best label with
          | None ->
              order := label :: !order;
              Hashtbl.replace best label r
          | Some r0 -> if r > r0 then Hashtbl.replace best label r)
        (ledger sub))
    ts;
  List.iter
    (fun label -> charge t ~label (Hashtbl.find best label))
    (List.rev !order)

let pp ppf t =
  Format.fprintf ppf "@[<v>total rounds: %d" t.total;
  List.iter (fun (l, r) -> Format.fprintf ppf "@,  %-32s %d" l r) (ledger t);
  Format.fprintf ppf "@]"
