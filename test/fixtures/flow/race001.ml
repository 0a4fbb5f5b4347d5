(* RACE001 fixture: spawned thunks mutating shared global state.

   [spawn_sum] reaches a global-ref write three calls deep under
   Domain.spawn; [spawn_seen] writes a global directly inside its
   thunk. Both must be flagged: the spawning domain can read or write
   the same ref concurrently. *)

let total = ref 0
let bump n = total := !total + n
let work xs = List.iter (fun x -> bump x) xs
let spawn_sum xs = Domain.join (Domain.spawn (fun () -> work xs))

let seen = ref []

let spawn_seen v =
  Domain.join (Domain.spawn (fun () -> seen := v :: !seen))
