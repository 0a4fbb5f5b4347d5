(* Bottom-up effect summaries over the call-graph condensation.

   Nodes come from Effects; edges are call edges. Tarjan emits SCCs in
   reverse topological order — every SCC only after all SCCs it
   reaches — so one linear fold computes each summary as the union of
   its members' intrinsic events and the already-final summaries of
   callees.

   Rules use [witness]: a BFS from a root to the nearest node whose
   *intrinsic* events satisfy a predicate, returning the call chain
   for the diagnostic message. *)

module E = Effects

module Key = struct
  type t = E.event

  (* events are pure string/option trees; structural compare is stable *)
  let compare = Stdlib.compare
end

module ESet = Set.Make (Key)

type t = {
  nodes : (string, E.node) Hashtbl.t;
  summaries : (string, ESet.t) Hashtbl.t;
  sccs : string list list;  (* reverse topological order *)
}

let successors g (n : E.node) =
  List.filter_map
    (fun (callee, _) -> if Hashtbl.mem g callee then Some callee else None)
    n.E.n_calls

(* iterative Tarjan (explicit stack so deep call chains cannot blow the
   OCaml stack) *)
let tarjan nodes =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let visit start =
    if not (Hashtbl.mem index start) then begin
      (* frames: (name, remaining successors) *)
      let frames = ref [] in
      let push v =
        Hashtbl.replace index v !counter;
        Hashtbl.replace lowlink v !counter;
        incr counter;
        stack := v :: !stack;
        Hashtbl.replace on_stack v ();
        let succs =
          match Hashtbl.find_opt nodes v with
          | Some n -> successors nodes n
          | None -> []
        in
        frames := (v, ref succs) :: !frames
      in
      push start;
      while !frames <> [] do
        let v, succs = List.hd !frames in
        match !succs with
        | w :: rest ->
            succs := rest;
            if not (Hashtbl.mem index w) then push w
            else if Hashtbl.mem on_stack w then
              Hashtbl.replace lowlink v
                (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
        | [] ->
            frames := List.tl !frames;
            (match !frames with
            | (parent, _) :: _ ->
                Hashtbl.replace lowlink parent
                  (min (Hashtbl.find lowlink parent) (Hashtbl.find lowlink v))
            | [] -> ());
            if Hashtbl.find lowlink v = Hashtbl.find index v then begin
              let scc = ref [] in
              let fin = ref false in
              while not !fin do
                match !stack with
                | [] -> fin := true
                | w :: rest ->
                    stack := rest;
                    Hashtbl.remove on_stack w;
                    scc := w :: !scc;
                    if String.equal w v then fin := true
              done;
              sccs := !scc :: !sccs
            end
      done
    end
  in
  Hashtbl.iter (fun name _ -> visit name) nodes;
  List.rev !sccs

let compute nodes_list =
  let nodes = Hashtbl.create 256 in
  List.iter
    (fun (n : E.node) ->
      if not (Hashtbl.mem nodes n.E.n_name) then
        Hashtbl.replace nodes n.E.n_name n)
    nodes_list;
  let sccs = tarjan nodes in
  let summaries = Hashtbl.create 256 in
  List.iter
    (fun scc ->
      let base =
        List.fold_left
          (fun acc name ->
            match Hashtbl.find_opt nodes name with
            | None -> acc
            | Some n ->
                let acc =
                  List.fold_left
                    (fun acc (ev, _) -> ESet.add ev acc)
                    acc n.E.n_events
                in
                List.fold_left
                  (fun acc callee ->
                    match Hashtbl.find_opt summaries callee with
                    | Some s -> ESet.union acc s
                    | None -> acc)
                  acc (successors nodes n))
          ESet.empty scc
      in
      List.iter (fun name -> Hashtbl.replace summaries name base) scc)
    sccs;
  { nodes; summaries; sccs }

let summary t name =
  Option.value (Hashtbl.find_opt t.summaries name) ~default:ESet.empty

(* BFS from [root]; [pred] examines a node's intrinsic events. Returns
   the call chain root..owner and the first matching (event, loc). *)
let witness t ~root ~pred =
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  Queue.add (root, [ root ]) q;
  Hashtbl.replace seen root ();
  let result = ref None in
  while !result = None && not (Queue.is_empty q) do
    let name, chain = Queue.pop q in
    match Hashtbl.find_opt t.nodes name with
    | None -> ()
    | Some n -> (
        match
          List.find_opt (fun (ev, _) -> pred n ev) (List.rev n.E.n_events)
        with
        | Some (ev, loc) -> result := Some (List.rev chain, ev, loc)
        | None ->
            List.iter
              (fun succ ->
                if not (Hashtbl.mem seen succ) then begin
                  Hashtbl.replace seen succ ();
                  Queue.add (succ, succ :: chain) q
                end)
              (successors t.nodes n))
  done;
  !result

(* human-readable effect signature for --flow-summaries and the cache *)
let signature t name =
  let s = summary t name in
  let tags = ref [] in
  let add tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  ESet.iter
    (fun ev ->
      match ev with
      | E.Write_global (_, r) -> add ("writes(" ^ E.region_name r ^ ")")
      | E.Store_write _ -> add "writes(Store)"
      | E.Read_mutable _ -> add "reads-mutable"
      | E.Store_read _ -> add "reads(Store)"
      | E.Io _ -> add "io"
      | E.Wall_clock _ -> add "wall-clock"
      | E.Rng_unseeded _ -> add "rng-unseeded")
    s;
  match List.sort String.compare !tags with
  | [] -> "pure"
  | tags -> String.concat " " tags
