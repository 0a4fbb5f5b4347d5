type value = Bool of bool | Int of int | Float of float | Str of string

let now () = Monotonic_clock.now ()

(* the sanctioned monotonic timestamp source outside lib/obs (nwlint
   DET001 allowlists it; raw Monotonic_clock reads in lib/ are flagged) *)
let now_ns = now

(* ------------------------------------------------------------------ *)
(* global switch                                                       *)
(* ------------------------------------------------------------------ *)

(* a single load guards every entry point; the disabled path allocates
   nothing (spans tail-call their thunk) *)
let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* spans and the process's trace context                               *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  start_ns : int64;
  tid : int;
  mutable dur_ns : int64;
  mutable attrs : (string * value) list; (* reversed insertion order *)
  mutable children : span list; (* reversed completion order *)
  mutable self_rounds : int;
  mutable rounds_by_label : (string * int) list; (* reversed first-charge *)
}

type hist_acc = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* power-of-two buckets, see bucket_of *)
}

(* the per-name totals of every span of one name, see [fold_roots];
   nanoseconds summed as native ints (63 bits hold 146 years), so an
   update allocates no boxed int64 *)
type phase_acc = {
  mutable a_calls : int;
  mutable a_total_ns : int;
  mutable a_self_ns : int;
  mutable a_rounds : int;
  mutable a_rounds_by_label : (string * int) list; (* reversed first-charge *)
}

type totals = {
  by_name : (string, phase_acc) Hashtbl.t;
  mutable order : string list; (* reversed first-seen pre-order *)
  mutable wall_ns : int64; (* summed over the roots added *)
}

(* Everything recorded between the start and end of a [collect]. One
   context is live per process at a time; [collect] swaps in a fresh one
   and restores the previous one when it returns. *)
type ctx = {
  ctx_tid : int;
  mutable stack : span list; (* innermost first *)
  mutable roots : span list; (* completed roots, reversed *)
  folded : totals; (* roots completed before the last [fold_roots] *)
  mutable orphan_rounds : (string * int) list; (* charged outside spans *)
  ctx_counters : (string, int ref) Hashtbl.t;
  ctx_hists : (string, hist_acc) Hashtbl.t;
}

type trace = ctx

let fresh_totals () =
  { by_name = Hashtbl.create 16; order = []; wall_ns = 0L }

let fresh_ctx () =
  {
    ctx_tid = (Domain.self () :> int);
    stack = [];
    roots = [];
    folded = fresh_totals ();
    orphan_rounds = [];
    ctx_counters = Hashtbl.create 16;
    ctx_hists = Hashtbl.create 16;
  }

let current = ref (fresh_ctx ())
let ctx () = !current

let assoc_add alist label r =
  let rec bump = function
    | [] -> None
    | (l, v) :: rest when l = label -> Some ((l, v + r) :: rest)
    | kv :: rest -> Option.map (fun t -> kv :: t) (bump rest)
  in
  match bump alist with Some l -> l | None -> (label, r) :: alist

let close_span c sp =
  sp.dur_ns <- Int64.sub (now ()) sp.start_ns;
  if Flight.enabled () then
    Flight.on_span_close
      ~t_ns:(Int64.add sp.start_ns sp.dur_ns)
      ~dur_ns:sp.dur_ns ~rounds:sp.self_rounds sp.name;
  (* defensive resync: exceptions flow through Fun.protect in LIFO
     order, so sp is the head unless recording was toggled mid-span *)
  (match c.stack with
  | s :: rest when s == sp -> c.stack <- rest
  | _ -> c.stack <- (match List.memq sp c.stack with
      | true ->
          let rec drop = function
            | s :: rest when s == sp -> rest
            | _ :: rest -> drop rest
            | [] -> []
          in
          drop c.stack
      | false -> c.stack));
  match c.stack with
  | parent :: _ -> parent.children <- sp :: parent.children
  | [] -> c.roots <- sp :: c.roots

let span ?attrs name f =
  if not (!enabled_flag) then f ()
  else begin
    let c = ctx () in
    let sp =
      {
        name;
        start_ns = now ();
        tid = c.ctx_tid;
        dur_ns = 0L;
        attrs = (match attrs with None -> [] | Some l -> List.rev l);
        children = [];
        self_rounds = 0;
        rounds_by_label = [];
      }
    in
    c.stack <- sp :: c.stack;
    if Flight.enabled () then Flight.on_span_open ~t_ns:sp.start_ns name;
    Fun.protect ~finally:(fun () -> close_span c sp) f
  end

let set_attr k v =
  if !enabled_flag then
    match (ctx ()).stack with
    | sp :: _ -> sp.attrs <- (k, v) :: sp.attrs
    | [] -> ()

let record_rounds ~label r =
  if r > 0 && !enabled_flag then begin
    if Flight.enabled () then Flight.on_charge ~label ~rounds:r;
    let c = ctx () in
    match c.stack with
    | sp :: _ ->
        sp.self_rounds <- sp.self_rounds + r;
        sp.rounds_by_label <- assoc_add sp.rounds_by_label label r
    | [] -> c.orphan_rounds <- assoc_add c.orphan_rounds label r
  end

let count ?(by = 1) name =
  if !enabled_flag then begin
    if Flight.enabled () then Flight.on_counter ~name ~delta:by;
    let c = ctx () in
    match Hashtbl.find_opt c.ctx_counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add c.ctx_counters name (ref by)
  end

(* power-of-two histogram bucket: index 0 holds v <= 0, index i >= 1
   holds 2^(i-65) < v <= 2^(i-64) clamped to the array *)
let nbuckets = 128

let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    (* v in (2^(e-1), 2^e] up to boundary fuzz *)
    max 1 (min (nbuckets - 1) (e + 64))

let bucket_upper i = Float.ldexp 1.0 (i - 64)

let observe name v =
  if !enabled_flag then begin
    let c = ctx () in
    let h =
      match Hashtbl.find_opt c.ctx_hists name with
      | Some h -> h
      | None ->
          let h =
            {
              h_count = 0;
              h_sum = 0.0;
              h_min = infinity;
              h_max = neg_infinity;
              h_buckets = Array.make nbuckets 0;
            }
          in
          Hashtbl.add c.ctx_hists name h;
          h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1
  end

let collect f =
  let c = !current in
  let fresh = fresh_ctx () in
  current := fresh;
  let x = Fun.protect ~finally:(fun () -> current := c) f in
  (x, fresh)

let is_empty t =
  t.roots = [] && t.folded.order = [] && t.orphan_rounds = []
  && Hashtbl.length t.ctx_counters = 0
  && Hashtbl.length t.ctx_hists = 0

(* ------------------------------------------------------------------ *)
(* summaries                                                           *)
(* ------------------------------------------------------------------ *)

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

type phase = {
  name : string;
  calls : int;
  total_ns : int64;
  self_ns : int64;
  rounds : int;
  rounds_by_label : (string * int) list;
}

let children_ns sp =
  List.fold_left (fun acc ch -> Int64.add acc ch.dur_ns) 0L sp.children

let self_ns sp =
  let s = Int64.sub sp.dur_ns (children_ns sp) in
  if Int64.compare s 0L < 0 then 0L else s

(* depth-first pre-order over completed spans (children were collected
   in reverse) *)
let iter_spans t f =
  let rec walk depth sp =
    f depth sp;
    List.iter (walk (depth + 1)) (List.rev sp.children)
  in
  List.iter (walk 0) (List.rev t.roots)

(* add every span under [roots] (reversed, as kept in a ctx) to [tot],
   in pre-order: O(spans) hashtable updates. Runs of spans mostly share
   a literal name (one augment.search per augmented edge), so a
   physically equal name reuses the last accumulator without hashing. *)
let add_roots tot roots =
  let last = ref None in
  let acc_of (sp : span) =
    match !last with
    | Some (name, a) when name == sp.name -> a
    | _ ->
        let a =
          match Hashtbl.find_opt tot.by_name sp.name with
          | Some a -> a
          | None ->
              let a =
                {
                  a_calls = 0;
                  a_total_ns = 0;
                  a_self_ns = 0;
                  a_rounds = 0;
                  a_rounds_by_label = [];
                }
              in
              Hashtbl.add tot.by_name sp.name a;
              tot.order <- sp.name :: tot.order;
              a
        in
        last := Some (sp.name, a);
        a
  in
  let add (sp : span) =
    let a = acc_of sp in
    a.a_calls <- a.a_calls + 1;
    a.a_total_ns <- a.a_total_ns + Int64.to_int sp.dur_ns;
    a.a_self_ns <- a.a_self_ns + Int64.to_int (self_ns sp);
    a.a_rounds <- a.a_rounds + sp.self_rounds;
    a.a_rounds_by_label <-
      List.fold_left
        (fun acc (l, r) -> assoc_add acc l r)
        a.a_rounds_by_label
        (List.rev sp.rounds_by_label)
  in
  let rec walk sp =
    add sp;
    List.iter walk (List.rev sp.children)
  in
  List.iter
    (fun root ->
      tot.wall_ns <- Int64.add tot.wall_ns root.dur_ns;
      walk root)
    (List.rev roots)

(* fresh accumulators: a copy never aliases the live ones *)
let copy_totals tot =
  let by_name = Hashtbl.copy tot.by_name in
  Hashtbl.filter_map_inplace
    (fun _ a -> Some { a with a_calls = a.a_calls })
    by_name;
  { tot with by_name }

let fold_roots () =
  let c = ctx () in
  add_roots c.folded c.roots;
  c.roots <- []

(* the folded totals first, then the unfolded roots: folded roots
   completed earlier, so first-seen order matches a walk over all *)
let phases t =
  let tot = copy_totals t.folded in
  add_roots tot t.roots;
  List.rev_map
    (fun name ->
      let a = Hashtbl.find tot.by_name name in
      {
        name;
        calls = a.a_calls;
        total_ns = Int64.of_int a.a_total_ns;
        self_ns = Int64.of_int a.a_self_ns;
        rounds = a.a_rounds;
        rounds_by_label = List.rev a.a_rounds_by_label;
      })
    tot.order

let unattributed_rounds t =
  List.fold_left (fun acc (_, r) -> acc + r) 0 t.orphan_rounds

let total_rounds t =
  let acc = ref (unattributed_rounds t) in
  Hashtbl.iter (fun _ a -> acc := !acc + a.a_rounds) t.folded.by_name;
  iter_spans t (fun _ sp -> acc := !acc + sp.self_rounds);
  !acc

let root_wall_ns t =
  List.fold_left
    (fun acc sp -> Int64.add acc sp.dur_ns)
    t.folded.wall_ns t.roots

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.ctx_counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold
    (fun name h acc ->
      let buckets = ref [] in
      for i = nbuckets - 1 downto 0 do
        if h.h_buckets.(i) > 0 then
          buckets := (bucket_upper i, h.h_buckets.(i)) :: !buckets
      done;
      ( name,
        {
          count = h.h_count;
          sum = h.h_sum;
          min = h.h_min;
          max = h.h_max;
          buckets = !buckets;
        } )
      :: acc)
    t.ctx_hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* nearest-rank percentile over the power-of-two buckets: the answer is
   the upper bound of the bucket holding the rank-th observation,
   clamped into [min, max] (so constant and single-sample distributions
   come back exact). Worst-case relative error is the bucket width: a
   factor of 2. *)
let percentile (h : histogram) q =
  if h.count <= 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 100.0 q) in
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (q /. 100.0 *. float_of_int h.count)))
    in
    let rec go cum = function
      | [] -> h.max
      | (ub, c) :: rest ->
          let cum = cum + c in
          if cum >= rank then Float.min h.max (Float.max h.min ub)
          else go cum rest
    in
    Some (go 0 h.buckets)
  end

(* a read-only copy of the in-flight trace: completed root spans are
   immutable once closed, so sharing them is safe; folded totals,
   counters and histogram accumulators are still live and get copied.
   Open spans are not included. The metrics exposition path renders
   this between passes without waiting for [collect]. *)
let live_snapshot () =
  let c = ctx () in
  let snap = { (fresh_ctx ()) with folded = copy_totals c.folded } in
  snap.roots <- c.roots;
  snap.orphan_rounds <- c.orphan_rounds;
  Hashtbl.iter
    (fun k r -> Hashtbl.replace snap.ctx_counters k (ref !r))
    c.ctx_counters;
  Hashtbl.iter
    (fun k h ->
      Hashtbl.replace snap.ctx_hists k
        { h with h_buckets = Array.copy h.h_buckets })
    c.ctx_hists;
  snap

let ms ns = Int64.to_float ns /. 1e6

let pp_value ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.pp_print_string ppf s

(* latest binding of a key wins; restore insertion order *)
let dedup_attrs attrs =
  let seen = Hashtbl.create 8 in
  let kept =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      attrs
  in
  List.rev kept

(* siblings sharing a name beyond this many render as one aggregate line
   (hot loops produce thousands of identical spans; the trace exporters
   keep every one, the text tree stays readable) *)
let pp_group_threshold = 4

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>";
  let pp_span depth (sp : span) =
    Format.fprintf ppf "%s%-*s %8.3f ms" (String.make (2 * depth) ' ')
      (max 1 (32 - (2 * depth)))
      sp.name (ms sp.dur_ns);
    if sp.self_rounds > 0 then
      Format.fprintf ppf "  rounds=%d" sp.self_rounds;
    List.iter
      (fun (k, v) -> Format.fprintf ppf "  %s=%a" k pp_value v)
      (dedup_attrs sp.attrs);
    Format.fprintf ppf "@,"
  in
  let rec pp_forest depth spans =
    (* group siblings by name, preserving first-seen order *)
    let order = ref [] in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (sp : span) ->
        match Hashtbl.find_opt tbl sp.name with
        | Some l -> l := sp :: !l
        | None ->
            order := sp.name :: !order;
            Hashtbl.add tbl sp.name (ref [ sp ]))
      spans;
    List.iter
      (fun name ->
        let group = List.rev !(Hashtbl.find tbl name) in
        if List.length group <= pp_group_threshold then
          List.iter
            (fun sp ->
              pp_span depth sp;
              pp_forest (depth + 1) (List.rev sp.children))
            group
        else begin
          let calls = List.length group in
          let total =
            List.fold_left (fun a sp -> Int64.add a sp.dur_ns) 0L group
          in
          let rounds =
            List.fold_left (fun a sp -> a + sp.self_rounds) 0 group
          in
          let kids =
            List.fold_left (fun a sp -> a + List.length sp.children) 0 group
          in
          Format.fprintf ppf "%s%-*s %8.3f ms  x%d"
            (String.make (2 * depth) ' ')
            (max 1 (32 - (2 * depth)))
            name (ms total) calls;
          if rounds > 0 then Format.fprintf ppf "  rounds=%d" rounds;
          if kids > 0 then Format.fprintf ppf "  (%d child spans)" kids;
          Format.fprintf ppf "@,"
        end)
      (List.rev !order)
  in
  Format.fprintf ppf "span tree (wall %.3f ms, %d rounds):@,"
    (ms (root_wall_ns t)) (total_rounds t);
  pp_forest 0 (List.rev t.roots);
  if t.orphan_rounds <> [] then begin
    Format.fprintf ppf "unattributed rounds:@,";
    List.iter
      (fun (l, r) -> Format.fprintf ppf "  %-32s %d@," l r)
      (List.rev t.orphan_rounds)
  end;
  (match counters t with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "counters:@,";
      List.iter
        (fun (name, v) -> Format.fprintf ppf "  %-32s %d@," name v)
        cs);
  (match histograms t with
  | [] -> ()
  | hs ->
      Format.fprintf ppf "histograms:@,";
      List.iter
        (fun (name, h) ->
          Format.fprintf ppf
            "  %-32s count=%d sum=%g min=%g max=%g mean=%.2f@," name h.count
            h.sum h.min h.max
            (h.sum /. float_of_int (Stdlib.max 1 h.count)))
        hs);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* exporters                                                           *)
(* ------------------------------------------------------------------ *)

module Export = struct
  (* one escaper for every JSON writer in the tree, shared with the
     flight recorder and CLI diagnostics *)
  let add_str = Json_lite.Emit.string

  let add_value b = function
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int x -> Buffer.add_string b (string_of_int x)
    | Float x ->
        if Float.is_finite x then Buffer.add_string b (Printf.sprintf "%.17g" x)
        else add_str b (string_of_float x)
    | Str s -> add_str b s

  (* span args: attributes, then self-rounds and its per-label split *)
  let add_args b (sp : span) =
    Buffer.add_char b '{';
    let first = ref true in
    let field k v =
      if not !first then Buffer.add_char b ',';
      first := false;
      add_str b k;
      Buffer.add_char b ':';
      add_value b v
    in
    List.iter (fun (k, v) -> field k v) (dedup_attrs sp.attrs);
    if sp.self_rounds > 0 then begin
      field "rounds_self" (Int sp.self_rounds);
      List.iter
        (fun (l, r) -> field ("rounds/" ^ l) (Int r))
        (List.rev sp.rounds_by_label)
    end;
    Buffer.add_char b '}'

  let epoch_ns traces =
    List.fold_left
      (fun acc t ->
        List.fold_left
          (fun acc sp ->
            if Int64.compare sp.start_ns acc < 0 then sp.start_ns else acc)
          acc t.roots)
      Int64.max_int traces

  let us ~epoch ns = Int64.to_float (Int64.sub ns epoch) /. 1e3

  let chrome b traces =
    let epoch = epoch_ns traces in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    let emit_event t depth (sp : span) =
      ignore t;
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b "{\"name\":";
      add_str b sp.name;
      Buffer.add_string b ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
      Buffer.add_string b (Printf.sprintf "%.3f" (us ~epoch sp.start_ns));
      Buffer.add_string b ",\"dur\":";
      Buffer.add_string b
        (Printf.sprintf "%.3f" (Int64.to_float sp.dur_ns /. 1e3));
      Buffer.add_string b
        (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"args\":" sp.tid);
      add_args b sp;
      Buffer.add_char b '}';
      ignore depth
    in
    List.iter (fun t -> iter_spans t (emit_event t)) traces;
    Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n"

  let jsonl b traces =
    let epoch = epoch_ns traces in
    List.iter
      (fun t ->
        iter_spans t (fun depth (sp : span) ->
            Buffer.add_string b "{\"type\":\"span\",\"name\":";
            add_str b sp.name;
            Buffer.add_string b
              (Printf.sprintf
                 ",\"tid\":%d,\"depth\":%d,\"ts_us\":%.3f,\"dur_us\":%.3f"
                 sp.tid depth (us ~epoch sp.start_ns)
                 (Int64.to_float sp.dur_ns /. 1e3));
            if sp.self_rounds > 0 then begin
              Buffer.add_string b
                (Printf.sprintf ",\"rounds_self\":%d,\"rounds\":{"
                   sp.self_rounds);
              let first = ref true in
              List.iter
                (fun (l, r) ->
                  if not !first then Buffer.add_char b ',';
                  first := false;
                  add_str b l;
                  Buffer.add_string b (Printf.sprintf ":%d" r))
                (List.rev sp.rounds_by_label);
              Buffer.add_char b '}'
            end;
            (match dedup_attrs sp.attrs with
            | [] -> ()
            | attrs ->
                Buffer.add_string b ",\"attrs\":{";
                let first = ref true in
                List.iter
                  (fun (k, v) ->
                    if not !first then Buffer.add_char b ',';
                    first := false;
                    add_str b k;
                    Buffer.add_char b ':';
                    add_value b v)
                  attrs;
                Buffer.add_char b '}');
            Buffer.add_string b "}\n");
        List.iter
          (fun (name, v) ->
            Buffer.add_string b "{\"type\":\"counter\",\"name\":";
            add_str b name;
            Buffer.add_string b (Printf.sprintf ",\"value\":%d}\n" v))
          (counters t);
        List.iter
          (fun (name, h) ->
            Buffer.add_string b "{\"type\":\"histogram\",\"name\":";
            add_str b name;
            Buffer.add_string b
              (Printf.sprintf
                 ",\"count\":%d,\"sum\":%.17g,\"min\":%.17g,\"max\":%.17g,\"buckets\":["
                 h.count h.sum h.min h.max);
            let first = ref true in
            List.iter
              (fun (ub, c) ->
                if not !first then Buffer.add_char b ',';
                first := false;
                Buffer.add_string b (Printf.sprintf "[%.17g,%d]" ub c))
              h.buckets;
            Buffer.add_string b "]}\n")
          (histograms t);
        List.iter
          (fun (l, r) ->
            Buffer.add_string b
              "{\"type\":\"unattributed_rounds\",\"label\":";
            add_str b l;
            Buffer.add_string b (Printf.sprintf ",\"rounds\":%d}\n" r))
          (List.rev t.orphan_rounds))
      traces

  let chrome_to_channel oc traces =
    let b = Buffer.create 65536 in
    chrome b traces;
    Buffer.output_buffer oc b

  let jsonl_to_channel oc traces =
    let b = Buffer.create 65536 in
    jsonl b traces;
    Buffer.output_buffer oc b
end
