(* ------------------------------------------------------------------ *)
(* fault-injection hook surface (policy lives in lib/chaos)            *)
(* ------------------------------------------------------------------ *)

type delivery = Deliver | Drop | Duplicate of int | Delay of int

type faults = {
  node_up : round:int -> int -> bool;
  state_reset : round:int -> int -> bool;
  deliver : round:int -> edge:int -> src:int -> dst:int -> delivery;
  reorder : round:int -> dst:int -> int -> int array option;
}

let no_faults =
  {
    node_up = (fun ~round:_ _ -> true);
    state_reset = (fun ~round:_ _ -> false);
    deliver = (fun ~round:_ ~edge:_ ~src:_ ~dst:_ -> Deliver);
    reorder = (fun ~round:_ ~dst:_ _ -> None);
  }

type fault_stats = {
  mutable drops : int;
  mutable dups : int;
  mutable delays : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable reorders : int;
  mutable digest : int64;
}

let fresh_stats () =
  {
    drops = 0;
    dups = 0;
    delays = 0;
    crashes = 0;
    restarts = 0;
    reorders = 0;
    digest = 0L;
  }

(* SplitMix64 finalizer: the timeline digest folds every fault event
   through it, so two runs agree on the digest iff they agree on the
   full ordered event sequence *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let note st ~code ~round ~who =
  let ev = Int64.of_int ((code * 0x1000003) + (round * 8191) + who) in
  st.digest <- mix64 (Int64.logxor st.digest (mix64 ev))

(* The ambient fault context: nets created while [with_faults] is active
   pick it up, so the genuine message-passing algorithms run under
   injected faults without their signatures changing. Empty by default:
   a net created outside [with_faults] takes the exact fault-free code
   path. *)
let ambient : (faults * fault_stats) option ref = ref None

let faults_armed () = Option.is_some !ambient

let with_faults f thunk =
  let saved = !ambient in
  let stats = fresh_stats () in
  ambient := Some (f, stats);
  let x = Fun.protect ~finally:(fun () -> ambient := saved) thunk in
  (x, stats)

(* ------------------------------------------------------------------ *)
(* the kernel                                                          *)
(* ------------------------------------------------------------------ *)

module G = Nw_graphs.Multigraph
module Obs = Nw_obs.Obs

(* Obs handles of the per-round and per-message counters *)
let rounds_obs = Obs.counter "msg_net.rounds"
let messages_obs = Obs.counter "msg_net.messages"
let crashes_obs = Obs.counter "chaos.crashes"
let restarts_obs = Obs.counter "chaos.restarts"
let drops_obs = Obs.counter "chaos.drops"
let dups_obs = Obs.counter "chaos.dups"
let delays_obs = Obs.counter "chaos.delays"

type ('state, 'msg) t = {
  g : G.t;
  rounds : Rounds.t;
  states : 'state array;
  init : int -> 'state;
  chaos : (faults * fault_stats) option;
  delayed : (int, (int * int * 'msg) list) Hashtbl.t;
      (* arrival round -> (dst, edge, msg), reversed arrival order *)
  mutable round_num : int;
  mutable delivered : int;
}

let create g ~rounds ~init =
  {
    g;
    rounds;
    states = Array.init (G.n g) init;
    init;
    chaos = !ambient;
    delayed = Hashtbl.create 4;
    round_num = 0;
    delivered = 0;
  }

let graph t = t.g
let state t v = t.states.(v)
let set_state t v s = t.states.(v) <- s
let states t = Array.copy t.states
let fault_stats t = Option.map snd t.chaos

(* the fault-free path: byte-identical behavior to the kernel before
   the chaos subsystem existed (the golden differential depends on it) *)
let plain_step t ~send ~recv =
  let n = G.n t.g in
  let inbox : (int * 'msg) list array = Array.make n [] in
  for v = 0 to n - 1 do
    List.iter
      (fun (e, msg) ->
        let w = G.other_endpoint t.g e v in
        (* other_endpoint raises if e is not incident to v *)
        inbox.(w) <- (e, msg) :: inbox.(w);
        t.delivered <- t.delivered + 1)
      (send v t.states.(v))
  done;
  for v = 0 to n - 1 do
    t.states.(v) <- recv v t.states.(v) inbox.(v)
  done

(* Counting round (messages carry no payload): the all-incident
   broadcast is a per-destination message count, so the kernel streams
   the adjacency rows directly — no per-message list or tuple cells.
   Message accounting matches plain_step exactly: one delivery per
   incident edge of each deciding vertex. *)
let count_step t ~decide ~recv =
  let n = G.n t.g in
  let cnt = Array.make n 0 in
  let sent = ref 0 in
  for v = 0 to n - 1 do
    if decide v t.states.(v) then
      G.iter_incident t.g v (fun w _ ->
          cnt.(w) <- cnt.(w) + 1;
          incr sent)
  done;
  t.delivered <- t.delivered + !sent;
  for v = 0 to n - 1 do
    t.states.(v) <- recv v t.states.(v) cnt.(v)
  done

(* the faulty path: crashed nodes neither send, receive, nor update
   state; a restart resets the node to its initial state (state loss);
   per-message delivery decisions come from the installed fault policy.
   With a policy that never fires (all Deliver, everyone up, no
   reorder), inboxes are built in exactly the plain_step order, so the
   outcome is still byte-identical. *)
let faulty_step t (f, st) ~send ~recv =
  let n = G.n t.g in
  let r = t.round_num in
  let up = Array.init n (fun v -> f.node_up ~round:r v) in
  for v = 0 to n - 1 do
    let up_before = r = 0 || f.node_up ~round:(r - 1) v in
    if up_before && not up.(v) then begin
      st.crashes <- st.crashes + 1;
      note st ~code:1 ~round:r ~who:v;
      Obs.incr crashes_obs
    end;
    if up.(v) && f.state_reset ~round:r v then begin
      t.states.(v) <- t.init v;
      st.restarts <- st.restarts + 1;
      note st ~code:2 ~round:r ~who:v;
      Obs.incr restarts_obs
    end
  done;
  let inbox : (int * 'msg) list array = Array.make n [] in
  let deliver_to w e msg =
    if up.(w) then begin
      inbox.(w) <- (e, msg) :: inbox.(w);
      t.delivered <- t.delivered + 1
    end
    else begin
      (* messages to a down node are lost *)
      st.drops <- st.drops + 1;
      note st ~code:3 ~round:r ~who:e;
      Obs.incr drops_obs
    end
  in
  (* delayed messages scheduled for this round arrive first, in the
     order they were delayed *)
  (match Hashtbl.find_opt t.delayed r with
  | None -> ()
  | Some l ->
      Hashtbl.remove t.delayed r;
      List.iter (fun (w, e, msg) -> deliver_to w e msg) (List.rev l));
  for v = 0 to n - 1 do
    if up.(v) then
      List.iter
        (fun (e, msg) ->
          let w = G.other_endpoint t.g e v in
          match f.deliver ~round:r ~edge:e ~src:v ~dst:w with
          | Deliver -> deliver_to w e msg
          | Drop ->
              st.drops <- st.drops + 1;
              note st ~code:3 ~round:r ~who:e;
              Obs.incr drops_obs
          | Duplicate k ->
              let k = max 0 k in
              for _ = 0 to k do
                deliver_to w e msg
              done;
              if k > 0 then begin
                st.dups <- st.dups + k;
                note st ~code:4 ~round:r ~who:e;
                Obs.add dups_obs k
              end
          | Delay d ->
              if d <= 0 then deliver_to w e msg
              else begin
                let arrival = r + d in
                let cur =
                  Option.value ~default:[]
                    (Hashtbl.find_opt t.delayed arrival)
                in
                Hashtbl.replace t.delayed arrival ((w, e, msg) :: cur);
                st.delays <- st.delays + 1;
                note st ~code:5 ~round:r ~who:e;
                Obs.incr delays_obs
              end)
        (send v t.states.(v))
  done;
  for v = 0 to n - 1 do
    if up.(v) then begin
      let msgs = inbox.(v) in
      let msgs =
        match f.reorder ~round:r ~dst:v (List.length msgs) with
        | None -> msgs
        | Some perm ->
            let arr = Array.of_list msgs in
            if Array.length perm <> Array.length arr then msgs
            else begin
              st.reorders <- st.reorders + 1;
              note st ~code:6 ~round:r ~who:v;
              Array.to_list (Array.map (fun i -> arr.(i)) perm)
            end
      in
      t.states.(v) <- recv v t.states.(v) msgs
    end
  done

(* the all-incident broadcast of a deciding vertex, as explicit
   messages in the incident (ascending edge-id) order — the faulty
   path needs real per-message verdicts *)
let synth_send t ~decide v st =
  if decide v st then
    List.rev
      (G.fold_incident t.g v ~init:[] (fun acc _ e -> (e, ()) :: acc))
  else []

(* one round charged on behalf of whatever phase span is open in the
   caller (or the trace's unattributed bucket): the ledger entry and the
   two kernel counters, for a net's round and for a round computed
   outside a net alike *)
let[@obs.in_span] charge_round ~rounds ~label ~messages =
  Rounds.charge rounds ~label 1;
  Obs.incr rounds_obs;
  if messages > 0 then Obs.add messages_obs messages

let end_round t ~label ~before =
  t.round_num <- t.round_num + 1;
  charge_round ~rounds:t.rounds ~label ~messages:(t.delivered - before)

let[@obs.in_span] round t ~label ~send ~recv =
  let before = t.delivered in
  (match t.chaos with
  | None -> plain_step t ~send ~recv
  | Some c -> faulty_step t c ~send ~recv);
  end_round t ~label ~before

let[@obs.in_span] round_count t ~label ~decide ~recv =
  let before = t.delivered in
  (match t.chaos with
  | None -> count_step t ~decide ~recv
  | Some c ->
      (* under faults every message needs its own verdict: fall back
         to the canonical per-message path *)
      let send v st = synth_send t ~decide v st in
      let recv v st msgs = recv v st (List.length msgs) in
      faulty_step t c ~send ~recv);
  end_round t ~label ~before

let messages_delivered t = t.delivered
let rounds_executed t = t.round_num
