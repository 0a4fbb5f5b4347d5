(* RACE001 fixture: the exchange rounds shard like [round].

   [round_exchange] and [round_exchange_edges] split their vertices
   across domains exactly as [round] does, so a global-ref write inside
   their ~recv (or ~value) callback races at --domains K>1. Both writes
   below must be flagged. *)

module Net = Nw_localsim.Msg_net

let heard = ref 0
let last_value = ref 0

let exchange_edges net =
  Net.round_exchange_edges net ~label:"fixture"
    ~value:(fun v _st _e -> v)
    ~recv:(fun _v st iter ->
      iter (fun _e x -> heard := !heard + x);
      st)

let exchange net =
  Net.round_exchange net ~label:"fixture"
    ~value:(fun v _st ->
      last_value := v;
      v)
    ~recv:(fun _v st _iter -> st)
