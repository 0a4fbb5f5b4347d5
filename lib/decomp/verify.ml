module G = Nw_graphs.Multigraph
module UF = Nw_graphs.Union_find

type report = (unit, string) result

let all reports =
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> r)
    (Ok ()) reports

let exn = function Ok () -> () | Error msg -> failwith msg

let classes_are_forests t ~allow_uncolored =
  let g = Coloring.graph t in
  let k = Coloring.colors t in
  let ufs = Array.init k (fun _ -> UF.create (G.n g)) in
  G.fold_edges
    (fun e u v acc ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match Coloring.color t e with
          | None ->
              if allow_uncolored then Ok ()
              else Error (Printf.sprintf "edge %d is uncolored" e)
          | Some c ->
              if c < 0 || c >= k then
                Error (Printf.sprintf "edge %d has out-of-range color %d" e c)
              else if UF.union ufs.(c) u v then Ok ()
              else
                Error
                  (Printf.sprintf "color %d contains a cycle through edge %d"
                     c e)))
    g (Ok ())

let forest_decomposition t = classes_are_forests t ~allow_uncolored:false
let partial_forest_decomposition t = classes_are_forests t ~allow_uncolored:true

let star_forest_decomposition t =
  match forest_decomposition t with
  | Error _ as e -> e
  | Ok () ->
      (* every colored component must be a star: for each vertex v and color
         c, if v has >= 2 incident c-edges then every c-neighbor of v must
         have exactly 1 incident c-edge; and no edge may join two vertices
         that both have degree >= 2 in color c. *)
      let g = Coloring.graph t in
      let k = Coloring.colors t in
      let deg = Array.make_matrix k (G.n g) 0 in
      G.fold_edges
        (fun e u v () ->
          ignore e;
          match Coloring.color t e with
          | None -> ()
          | Some c ->
              deg.(c).(u) <- deg.(c).(u) + 1;
              deg.(c).(v) <- deg.(c).(v) + 1)
        g ();
      G.fold_edges
        (fun e u v acc ->
          match acc with
          | Error _ -> acc
          | Ok () -> (
              match Coloring.color t e with
              | None -> Ok ()
              | Some c ->
                  if deg.(c).(u) >= 2 && deg.(c).(v) >= 2 then
                    Error
                      (Printf.sprintf
                         "color %d has a path of length 3 through edge %d" c e)
                  else Ok ()))
        g (Ok ())

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
