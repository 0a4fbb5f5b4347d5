(* RACE001 fixture: shard callbacks mutating shared global state.

   [shard_sum] reaches a global-ref write three calls deep under
   Dpool.run; [round_once] writes a global from a sharded ~recv
   callback. Both must be flagged: at --domains K>1 the write order
   depends on the scheduler, so outputs stop being byte-identical. *)

let total = ref 0
let bump n = total := !total + n
let work xs = List.iter (fun x -> bump x) xs

let shard_sum parts =
  Nw_localsim.Dpool.run ~domains:4 (fun i -> work (List.nth parts i))

module Net = Nw_localsim.Msg_net

let seen = ref []

let round_once net state =
  Net.round net state
    ~send:(fun v st -> [ (v, st) ])
    ~recv:(fun v st msgs ->
      seen := v :: !seen;
      ignore msgs;
      st)
    ~decide:(fun _v st -> st)
