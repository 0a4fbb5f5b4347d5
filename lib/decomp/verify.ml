module G = Nw_graphs.Multigraph

type report = (unit, string) result

let all reports =
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> r)
    (Ok ()) reports

let exn = function Ok () -> () | Error msg -> failwith msg

(* The first error in edge order wins (Color_classes.forests); on
   success, returns the groups of all edges. A negative color is out of
   range, like any other outside [0..k-1]. *)
let check_forests g ~k ~allow_uncolored color =
  let code e =
    match color e with None -> -1 | Some c -> if c < 0 then k else c
  in
  match Color_classes.forests g ~k ~allow_uncolored code with
  | Ok classes -> Ok classes
  | Error (Color_classes.Uncolored e) ->
      Error (Printf.sprintf "edge %d is uncolored" e)
  | Error (Color_classes.Out_of_range e) ->
      Error
        (Printf.sprintf "edge %d has out-of-range color %d" e
           (Option.get (color e)))
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

let forests g ~k ~allow_uncolored color =
  Result.map ignore (check_forests g ~k ~allow_uncolored color)

let stars g ~k color =
  Result.bind
    (check_forests g ~k ~allow_uncolored:false color)
    (check_stars g ~k)

let of_coloring check t =
  check (Coloring.graph t) ~k:(Coloring.colors t) (Coloring.color t)

let forest_decomposition = of_coloring (forests ~allow_uncolored:false)
let partial_forest_decomposition = of_coloring (forests ~allow_uncolored:true)
let star_forest_decomposition = of_coloring stars

let of_assignment check g colors ~k =
  if Array.length colors <> G.m g then
    Error "assignment length does not match edge count"
  else check g ~k (Array.get colors)

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
      | Ok () -> (
          match Coloring.color t e with
          | None -> Ok ()
          | Some c ->
              if Palette.mem palette e c then Ok ()
              else
                Error
                  (Printf.sprintf "edge %d colored %d outside its palette" e c)))
    g (Ok ())

let uses_at_most t k =
  let g = Coloring.graph t in
  G.fold_edges
    (fun e _ _ acc ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match Coloring.color t e with
          | Some c when c >= k ->
              Error (Printf.sprintf "edge %d uses color %d >= %d" e c k)
          | _ -> Ok ()))
    g (Ok ())

let max_forest_diameter t =
  Nw_graphs.Traversal.max_tree_diameter
    ~n:(G.n (Coloring.graph t))
    ~forests:(Coloring.colors t)
    (fun c v visit -> Coloring.iter_colored_incident t v c visit)

let colors_used t =
  let k = Coloring.colors t in
  let used = Array.make (max k 1) false in
  let g = Coloring.graph t in
  G.fold_edges
    (fun e _ _ () ->
      match Coloring.color t e with
      | None -> ()
      | Some c -> used.(c) <- true)
    g ();
  Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used

let orientation_out_degree o k =
  let d = Nw_graphs.Orientation.max_out_degree o in
  if d <= k then Ok ()
  else Error (Printf.sprintf "max out-degree %d exceeds bound %d" d k)

let acyclic_orientation o =
  if Nw_graphs.Orientation.is_acyclic o then Ok ()
  else Error "orientation contains a directed cycle"
