type value = Bool of bool | Int of int | Float of float | Str of string

let now () = Monotonic_clock.now ()

(* the sanctioned monotonic timestamp source outside lib/obs (nwlint
   DET001 allowlists it; raw Monotonic_clock reads in lib/ are flagged) *)
let now_ns = now

(* the clock as a native int (63 bits of nanoseconds hold 146 years):
   the read is unboxed, so a timestamp allocates nothing *)
let now_int () = Int64.to_int (now ())

(* ------------------------------------------------------------------ *)
(* global switch                                                       *)
(* ------------------------------------------------------------------ *)

(* a single load guards every entry point; the disabled path allocates
   nothing (spans tail-call their thunk) *)
let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* names resolved to slots                                             *)
(* ------------------------------------------------------------------ *)

(* Every counter, histogram and timer name is resolved once to a dense
   id, process-wide; a trace keeps one slot per id. A handle is that id,
   resolved at module initialisation, so a hot path indexes an array;
   the string API resolves the name on every call. Ids are never
   reused, so the registries grow only with the distinct names the
   process has seen. *)
type registry = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array; (* id -> name, the first [size] used *)
  mutable size : int;
}

let registry () = { ids = Hashtbl.create 32; names = [||]; size = 0 }

let resolve r name =
  match Hashtbl.find_opt r.ids name with
  | Some id -> id
  | None ->
      let id = r.size in
      if id = Array.length r.names then begin
        let names = Array.make (max 16 (2 * id)) "" in
        Array.blit r.names 0 names 0 id;
        r.names <- names
      end;
      r.names.(id) <- name;
      r.size <- id + 1;
      Hashtbl.add r.ids name id;
      id

let counter_names = registry ()
let hist_names = registry ()
let timer_names = registry ()

(* [a] grown to hold every id of [r], the new slots filled with [fill] *)
let grow r a fill =
  let b = Array.make (max r.size (Array.length a + 1)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ------------------------------------------------------------------ *)
(* spans and the process's trace context                               *)
(* ------------------------------------------------------------------ *)

(* Times are native-int nanoseconds. A timed leaf (see [time]) is one
   span per parent that sums the durations of [calls] calls; any other
   span has [calls] = 1. *)
type span = {
  name : string;
  start_ns : int;
  tid : int;
  mutable dur_ns : int;
  mutable calls : int;
  mutable attrs : (string * value) list; (* reversed insertion order *)
  mutable children : span list; (* reversed completion order *)
  mutable self_rounds : int;
  mutable rounds_by_label : (string * int) list; (* reversed first-charge *)
}

let make_span ~tid ~calls name start_ns attrs =
  {
    name;
    start_ns;
    tid;
    dur_ns = 0;
    calls;
    attrs;
    children = [];
    self_rounds = 0;
    rounds_by_label = [];
  }

(* sum, min and max live in a [float array], whose slots hold unboxed
   floats: an update allocates nothing *)
type hist_acc = {
  mutable h_count : int;
  h_stats : float array; (* sum, min, max *)
  h_buckets : int array; (* power-of-two buckets, see bucket_of *)
}

(* the per-name totals of every span of one name, see [fold_roots];
   nanoseconds summed as native ints, so an update allocates nothing *)
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
  mutable wall_ns : int; (* summed over the roots added *)
}

(* Everything recorded between the start and end of a [collect]. One
   context is live per process at a time; [collect] swaps in a fresh one
   and restores the previous one when it returns. Counters, histograms
   and timed leaves live in slots indexed by their names' ids. *)
type ctx = {
  ctx_tid : int;
  mutable stack : span list; (* innermost first *)
  mutable roots : span list; (* completed roots and root leaves, reversed *)
  folded : totals; (* roots completed before the last [fold_roots] *)
  mutable orphan_rounds : (string * int) list; (* charged outside spans *)
  mutable counts : int array; (* counter id -> value *)
  mutable counted : bool array; (* counter id -> bumped in this trace *)
  mutable hists : hist_acc array; (* histogram id -> [no_hist] or its acc *)
  mutable leaf_parent : span array; (* timer id -> parent of [leaf_span] *)
  mutable leaf_span : span array; (* timer id -> its leaf under that parent *)
}

type trace = ctx

(* sentinels: a histogram slot nothing was recorded into, a leaf slot
   with no leaf, and the parent of a leaf timed outside every span *)
let no_hist = { h_count = 0; h_stats = [||]; h_buckets = [||] }

let no_span = make_span ~tid:0 ~calls:0 "" 0 []
let root_parent = make_span ~tid:0 ~calls:0 "" 0 []

let fresh_totals () = { by_name = Hashtbl.create 16; order = []; wall_ns = 0 }

let fresh_ctx () =
  {
    ctx_tid = (Domain.self () :> int);
    stack = [];
    roots = [];
    folded = fresh_totals ();
    orphan_rounds = [];
    counts = Array.make counter_names.size 0;
    counted = Array.make counter_names.size false;
    hists = Array.make hist_names.size no_hist;
    leaf_parent = Array.make timer_names.size no_span;
    leaf_span = Array.make timer_names.size no_span;
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
  sp.dur_ns <- now_int () - sp.start_ns;
  if Flight.enabled () then
    Flight.on_span_close
      ~t_ns:(Int64.of_int (sp.start_ns + sp.dur_ns))
      ~dur_ns:(Int64.of_int sp.dur_ns) ~rounds:sp.self_rounds sp.name;
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
      make_span ~tid:c.ctx_tid ~calls:1 name (now_int ())
        (match attrs with None -> [] | Some l -> List.rev l)
    in
    c.stack <- sp :: c.stack;
    if Flight.enabled () then
      Flight.on_span_open ~t_ns:(Int64.of_int sp.start_ns) name;
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

(* ------------------------------------------------------------------ *)
(* counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = int

let counter name = resolve counter_names name

let add (h : counter) by =
  if !enabled_flag then begin
    if Flight.enabled () then
      Flight.on_counter ~name:counter_names.names.(h) ~delta:by;
    let c = ctx () in
    if h >= Array.length c.counts then begin
      c.counts <- grow counter_names c.counts 0;
      c.counted <- grow counter_names c.counted false
    end;
    c.counts.(h) <- c.counts.(h) + by;
    c.counted.(h) <- true
  end

let incr h = add h 1
let count ?(by = 1) name = if !enabled_flag then add (counter name) by

(* ------------------------------------------------------------------ *)
(* histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* power-of-two histogram bucket: index 0 holds v <= 0, index i >= 1
   holds 2^(i-65) <= v < 2^(i-64) clamped to the array *)
let nbuckets = 128

let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    (* v in [2^(e-1), 2^e) *)
    max 1 (min (nbuckets - 1) (e + 64))

(* [bucket_of (float_of_int v)] without a float: e above is the number
   of significant bits of v *)
let int_bucket v =
  if v <= 0 then 0
  else begin
    let e = ref 0 and x = ref v in
    while !x > 0 do
      Stdlib.incr e;
      x := !x lsr 1
    done;
    min (nbuckets - 1) (!e + 64)
  end

let bucket_upper i = Float.ldexp 1.0 (i - 64)

type hist = int

let hist name = resolve hist_names name

let hist_acc (h : hist) =
  let c = ctx () in
  if h >= Array.length c.hists then c.hists <- grow hist_names c.hists no_hist;
  let a = c.hists.(h) in
  if a != no_hist then a
  else begin
    let a =
      {
        h_count = 0;
        h_stats = [| 0.0; infinity; neg_infinity |];
        h_buckets = Array.make nbuckets 0;
      }
    in
    c.hists.(h) <- a;
    a
  end

let record h (v : int) =
  if !enabled_flag then begin
    let a = hist_acc h in
    let x = float_of_int v and f = a.h_stats in
    a.h_count <- a.h_count + 1;
    f.(0) <- f.(0) +. x;
    if x < f.(1) then f.(1) <- x;
    if x > f.(2) then f.(2) <- x;
    let b = int_bucket v in
    a.h_buckets.(b) <- a.h_buckets.(b) + 1
  end

let record_float h (v : float) =
  if !enabled_flag then begin
    let a = hist_acc h in
    let f = a.h_stats in
    a.h_count <- a.h_count + 1;
    f.(0) <- f.(0) +. v;
    if v < f.(1) then f.(1) <- v;
    if v > f.(2) then f.(2) <- v;
    let b = bucket_of v in
    a.h_buckets.(b) <- a.h_buckets.(b) + 1
  end

let observe name v = if !enabled_flag then record_float (hist name) v

(* ------------------------------------------------------------------ *)
(* timed leaves                                                        *)
(* ------------------------------------------------------------------ *)

type timer = int

let timer name = resolve timer_names name

(* The leaf span of timer [h] under the innermost open span (or among
   the roots), made at the first call there and reused until that
   parent changes. A new leaf goes where a span closing now would, so
   first-seen order is that of the first call. *)
let leaf_of c (h : timer) =
  if h >= Array.length c.leaf_parent then begin
    c.leaf_parent <- grow timer_names c.leaf_parent no_span;
    c.leaf_span <- grow timer_names c.leaf_span no_span
  end;
  let parent = match c.stack with p :: _ -> p | [] -> root_parent in
  if c.leaf_parent.(h) == parent then c.leaf_span.(h)
  else begin
    let leaf =
      make_span ~tid:c.ctx_tid ~calls:0 timer_names.names.(h) (now_int ()) []
    in
    if parent == root_parent then c.roots <- leaf :: c.roots
    else parent.children <- leaf :: parent.children;
    c.leaf_parent.(h) <- parent;
    c.leaf_span.(h) <- leaf;
    leaf
  end

(* a leaf that is shared (by a snapshot) or folded must not move again:
   the next call makes a fresh one *)
let forget_leaves c =
  c.leaf_parent <- Array.make (Array.length c.leaf_parent) no_span

let close_leaf leaf t0 =
  let t1 = now_int () in
  leaf.calls <- leaf.calls + 1;
  leaf.dur_ns <- leaf.dur_ns + (t1 - t0);
  if Flight.enabled () then
    Flight.on_span_close ~t_ns:(Int64.of_int t1)
      ~dur_ns:(Int64.of_int (t1 - t0)) ~rounds:0 leaf.name

let time h f =
  if not !enabled_flag then f ()
  else begin
    let leaf = leaf_of (ctx ()) h in
    let t0 = now_int () in
    if Flight.enabled () then
      Flight.on_span_open ~t_ns:(Int64.of_int t0) leaf.name;
    match f () with
    | v ->
        close_leaf leaf t0;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close_leaf leaf t0;
        Printexc.raise_with_backtrace e bt
  end

(* ------------------------------------------------------------------ *)
(* collection                                                          *)
(* ------------------------------------------------------------------ *)

let collect f =
  let c = !current in
  let fresh = fresh_ctx () in
  current := fresh;
  let x = Fun.protect ~finally:(fun () -> current := c) f in
  (x, fresh)

let is_empty t =
  t.roots = [] && t.folded.order = [] && t.orphan_rounds = []
  && (not (Array.mem true t.counted))
  && Array.for_all (fun a -> a == no_hist) t.hists

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

let children_ns sp = List.fold_left (fun acc ch -> acc + ch.dur_ns) 0 sp.children
let self_ns sp = max 0 (sp.dur_ns - children_ns sp)

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
   a literal name, so a physically equal name reuses the last
   accumulator without hashing. *)
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
    a.a_calls <- a.a_calls + sp.calls;
    a.a_total_ns <- a.a_total_ns + sp.dur_ns;
    a.a_self_ns <- a.a_self_ns + self_ns sp;
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
      tot.wall_ns <- tot.wall_ns + root.dur_ns;
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
  c.roots <- [];
  forget_leaves c

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

let wall_ns t =
  List.fold_left (fun acc sp -> acc + sp.dur_ns) t.folded.wall_ns t.roots

let root_wall_ns t = Int64.of_int (wall_ns t)

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters t =
  let acc = ref [] in
  Array.iteri
    (fun id seen ->
      if seen then acc := (counter_names.names.(id), t.counts.(id)) :: !acc)
    t.counted;
  by_name !acc

let histogram_of a =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if a.h_buckets.(i) > 0 then
      buckets := (bucket_upper i, a.h_buckets.(i)) :: !buckets
  done;
  let f = a.h_stats in
  { count = a.h_count; sum = f.(0); min = f.(1); max = f.(2); buckets = !buckets }

let histograms t =
  let acc = ref [] in
  Array.iteri
    (fun id a ->
      if a != no_hist then
        acc := (hist_names.names.(id), histogram_of a) :: !acc)
    t.hists;
  by_name !acc

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
   immutable once closed, so sharing them is safe; the leaves among
   them are forgotten so they stay closed too. Folded totals, counter
   slots and histogram accumulators are still live and get copied. Open
   spans are not included. The metrics exposition path renders this
   between passes without waiting for [collect]. *)
let live_snapshot () =
  let c = ctx () in
  forget_leaves c;
  {
    (fresh_ctx ()) with
    roots = c.roots;
    folded = copy_totals c.folded;
    orphan_rounds = c.orphan_rounds;
    counts = Array.copy c.counts;
    counted = Array.copy c.counted;
    hists =
      Array.map
        (fun a ->
          if a == no_hist then a
          else
            {
              a with
              h_stats = Array.copy a.h_stats;
              h_buckets = Array.copy a.h_buckets;
            })
        c.hists;
  }

let ms ns = float_of_int ns /. 1e6

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
   (loops of spans produce thousands of identical siblings; the trace
   exporters keep every one, the text tree stays readable). A timed
   leaf is already one line per parent, its calls shown as [xN]. *)
let pp_group_threshold = 4

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>";
  let pp_span depth (sp : span) =
    Format.fprintf ppf "%s%-*s %8.3f ms" (String.make (2 * depth) ' ')
      (max 1 (32 - (2 * depth)))
      sp.name (ms sp.dur_ns);
    if sp.calls > 1 then Format.fprintf ppf "  x%d" sp.calls;
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
          let calls = List.fold_left (fun a (sp : span) -> a + sp.calls) 0 group in
          let total = List.fold_left (fun a sp -> a + sp.dur_ns) 0 group in
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
    (ms (wall_ns t)) (total_rounds t);
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
    if sp.calls > 1 then field "calls" (Int sp.calls);
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
            if sp.start_ns < acc then sp.start_ns else acc)
          acc t.roots)
      max_int traces

  let us ~epoch ns = float_of_int (ns - epoch) /. 1e3

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
        (Printf.sprintf "%.3f" (float_of_int sp.dur_ns /. 1e3));
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
                 (float_of_int sp.dur_ns /. 1e3));
            if sp.calls > 1 then
              Buffer.add_string b (Printf.sprintf ",\"calls\":%d" sp.calls);
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
