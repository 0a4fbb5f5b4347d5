module G = Nw_graphs.Multigraph

type report = (unit, string) result

let all reports =
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> r)
    (Ok ()) reports

let exn = function Ok () -> () | Error msg -> failwith msg

(* The first error in edge order wins (Color_classes.forests); on
   success, returns the groups of all edges. [code e] is e's color, -1
   when uncolored, and any other value outside [0..k-1] out of range;
   [shown e] is the color an out-of-range report names. *)
let check_forests g ~k ~allow_uncolored ~shown code =
  match Color_classes.forests g ~k ~allow_uncolored code with
  | Ok classes -> Ok classes
  | Error (Color_classes.Uncolored e) ->
      Error (Printf.sprintf "edge %d is uncolored" e)
  | Error (Color_classes.Out_of_range e) ->
      Error (Printf.sprintf "edge %d has out-of-range color %d" e (shown e))
  | Error (Color_classes.Cycle { color = c; edge = e }) ->
      Error (Printf.sprintf "color %d contains a cycle through edge %d" c e)

(* every colored component must be a star: no edge may join two
   vertices that both have degree >= 2 in its color. One degree array
   serves every color: a color's degrees are added, checked and then
   subtracted again. *)
let check_stars g ~k { Color_classes.start; edges } =
  let deg = Array.make (G.n g) 0 in
  let first = ref (G.m g) and first_color = ref (-1) in
  let add c d =
    for i = start.(c) to start.(c + 1) - 1 do
      let u, v = G.endpoints g edges.(i) in
      deg.(u) <- deg.(u) + d;
      deg.(v) <- deg.(v) + d
    done
  in
  for c = 0 to k - 1 do
    add c 1;
    let i = ref start.(c) in
    while !i < start.(c + 1) && edges.(!i) < !first do
      let e = edges.(!i) in
      let u, v = G.endpoints g e in
      if deg.(u) >= 2 && deg.(v) >= 2 then begin
        first := e;
        first_color := c
      end;
      incr i
    done;
    add c (-1)
  done;
  if !first_color >= 0 then
    Error
      (Printf.sprintf "color %d has a path of length 3 through edge %d"
         !first_color !first)
  else Ok ()

let forests g ~k ~allow_uncolored ~shown code =
  Result.map ignore (check_forests g ~k ~allow_uncolored ~shown code)

let stars g ~k ~shown code =
  Result.bind
    (check_forests g ~k ~allow_uncolored:false ~shown code)
    (check_stars g ~k)

(* a coloring's colors are in range by construction, so its code is
   also what an out-of-range report would show *)
let of_coloring check t =
  let code = Coloring.get t in
  check (Coloring.graph t) ~k:(Coloring.colors t) ~shown:code code

let forest_decomposition = of_coloring (forests ~allow_uncolored:false)
let partial_forest_decomposition = of_coloring (forests ~allow_uncolored:true)
let star_forest_decomposition = of_coloring stars

(* a raw assignment may hold any int: a negative color is out of range
   like any other outside [0..k-1], and is reported as written *)
let of_assignment check g colors ~k =
  if Array.length colors <> G.m g then
    Error "assignment length does not match edge count"
  else
    check g ~k
      ~shown:(fun e -> Option.get colors.(e))
      (fun e ->
        match colors.(e) with None -> -1 | Some c -> if c < 0 then k else c)

let forest_assignment g colors ~k ~allow_uncolored =
  of_assignment (forests ~allow_uncolored) g colors ~k

let star_forest_assignment = of_assignment stars

let pseudo_forest_assignment g colors ~k =
  if Array.length colors <> G.m g then
    Error "assignment length does not match edge count"
  else begin
    let bad =
      G.fold_edges
        (fun e _ _ acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if colors.(e) < 0 || colors.(e) >= k then Some e else None)
        g None
    in
    match bad with
    | Some e -> Error (Printf.sprintf "edge %d has out-of-range color" e)
    | None ->
        (* per class: components satisfy edges <= vertices; count with a
           union-find per class tracking component edge counts *)
        let result = ref (Ok ()) in
        for c = 0 to k - 1 do
          if !result = Ok () then begin
            let keep = Array.map (fun c' -> c' = c) colors in
            let sub, _ = G.subgraph_of_edges g keep in
            let label, comps = Nw_graphs.Traversal.components sub in
            let nv = Array.make comps 0 and ne = Array.make comps 0 in
            Array.iter (fun l -> nv.(l) <- nv.(l) + 1) label;
            G.fold_edges
              (fun _ u _ () -> ne.(label.(u)) <- ne.(label.(u)) + 1)
              sub ();
            for i = 0 to comps - 1 do
              if ne.(i) > nv.(i) then
                result :=
                  Error
                    (Printf.sprintf
                       "color %d has a component with %d edges on %d vertices"
                       c ne.(i) nv.(i))
            done
          end
        done;
        !result
  end

let respects_palette t palette =
  let g = Coloring.graph t in
  G.fold_edges
    (fun e _ _ acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let c = Coloring.get t e in
          if c < 0 || Palette.mem palette e c then Ok ()
          else
            Error (Printf.sprintf "edge %d colored %d outside its palette" e c))
    g (Ok ())

let uses_at_most t k =
  let g = Coloring.graph t in
  G.fold_edges
    (fun e _ _ acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let c = Coloring.get t e in
          if c >= 0 && c >= k then
            Error (Printf.sprintf "edge %d uses color %d >= %d" e c k)
          else Ok ())
    g (Ok ())

(* The forests are read from the assignment's color groups (a
   coloring's classes are forests), not from its adjacency lists, so
   measuring a coloring links no list and builds no rooted forest. *)
let max_forest_diameter t =
  let g = Coloring.graph t and k = Coloring.colors t in
  let src, dst = G.endpoint_rows g in
  let classes = Color_classes.forests g ~k ~allow_uncolored:true in
  let { Color_classes.start; edges } = Result.get_ok (classes (Coloring.get t)) in
  Nw_graphs.Traversal.max_tree_diameter ~n:(G.n g) ~src ~dst ~start ~edges

let colors_used t =
  let k = Coloring.colors t in
  let used = Array.make (max k 1) false in
  let g = Coloring.graph t in
  G.fold_edges
    (fun e _ _ () ->
      let c = Coloring.get t e in
      if c >= 0 then used.(c) <- true)
    g ();
  Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used

let orientation_out_degree o k =
  let d = Nw_graphs.Orientation.max_out_degree o in
  if d <= k then Ok ()
  else Error (Printf.sprintf "max out-degree %d exceeds bound %d" d k)

let acyclic_orientation o =
  if Nw_graphs.Orientation.is_acyclic o then Ok ()
  else Error "orientation contains a directed cycle"
