module G = Multigraph

(* largest ⌈m_C / (n_C − slack)⌉ over connected components C with
   n_C > slack; 0 when there is none *)
let component_density g ~slack =
  let label, c = Traversal.components g in
  let nv = Array.make c 0 and ne = Array.make c 0 in
  Array.iter (fun l -> nv.(l) <- nv.(l) + 1) label;
  G.fold_edges (fun _ u _ () -> ne.(label.(u)) <- ne.(label.(u)) + 1) g ();
  let best = ref 0 in
  for i = 0 to c - 1 do
    let d = nv.(i) - slack in
    if d >= 1 then best := max !best ((ne.(i) + d - 1) / d)
  done;
  !best

let density_lower_bound g = component_density g ~slack:1

(* Sandwich, then out-degree lowering by path reversal. α* is at least
   lo = max ⌈m_C/n_C⌉ and at most the degeneracy orientation's max
   out-degree k. While k > lo, bring every out-degree below k: from a
   vertex at k, BFS along out-edges to a vertex below k − 1 and reverse
   the path, which moves one unit of out-degree from the start to the
   end. When no such vertex is reachable, the closed set S the BFS
   reached has every out-degree at least k − 1 and one at k, so
   m_S > (k − 1)|S| and α* = k. *)
let pseudo_arboricity g =
  let n = G.n g in
  let head = Array.init (G.m g) (Orientation.head (Degeneracy.orientation g)) in
  let out = Array.make n 0 in
  Array.iteri
    (fun e h ->
      let t = G.other_endpoint g e h in
      out.(t) <- out.(t) + 1)
    head;
  let lo = component_density g ~slack:0 in
  let seen = Array.make n 0 and stamp = ref 0 in
  let parent = Array.make n (-1) and queue = Array.make n 0 in
  (* BFS from [v] along out-edges; the first vertex reached with
     out-degree below [k − 1], or -1 *)
  let find v k =
    incr stamp;
    seen.(v) <- !stamp;
    queue.(0) <- v;
    let qh = ref 0 and qt = ref 1 and found = ref (-1) in
    while !found < 0 && !qh < !qt do
      let x = queue.(!qh) in
      incr qh;
      G.iter_incident g x (fun y e ->
          if !found < 0 && head.(e) = y && seen.(y) <> !stamp then begin
            seen.(y) <- !stamp;
            parent.(y) <- e;
            if out.(y) < k - 1 then found := y
            else begin
              queue.(!qt) <- y;
              incr qt
            end
          end)
    done;
    !found
  in
  let rec reverse v y =
    if y <> v then begin
      let e = parent.(y) in
      let x = G.other_endpoint g e y in
      head.(e) <- x;
      reverse v x
    end
  in
  (* bring every out-degree of [v..n-1] below [k]; false on a stall *)
  let rec level k v =
    if v = n then true
    else if out.(v) < k then level k (v + 1)
    else
      let w = find v k in
      if w < 0 then false
      else begin
        reverse v w;
        out.(v) <- out.(v) - 1;
        out.(w) <- out.(w) + 1;
        level k (v + 1)
      end
  in
  let rec lower k = if k > lo && level k 0 then lower (k - 1) else k in
  let k = lower (Array.fold_left max 0 out) in
  (k, Orientation.make g head)
