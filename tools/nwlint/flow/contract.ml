(* CONTRACT001 extraction: find every engine pass record

     { name; reads; writes; run }

   and every pipeline record { pl_name; passes } in the project, and
   resolve their name / key-list / run-body values to literals.

   Builders parameterize passes (const_pass, single, partial_passes'
   ~prefix/~palette_key), so a record whose fields mention the
   enclosing function's parameters is instantiated once per call site
   with the formal->actual substitution — that is how "fd.plan" writes
   "palette" becomes checkable even though both are parameters at the
   definition. Instances that stay unresolvable after substitution are
   reported as warnings rather than silently skipped: an unresolvable
   contract is itself a finding. *)

open Ppxlib
module P = Project
module E = Effects

(* an expression together with the resolution context it came from (a
   call-site argument lives in the caller's file, not the record's) *)
type cexpr = { ce : expression; cfile : P.file; cmod : string list }

type pass_inst = {
  pi_name : string;
  pi_reads : string option list;
  pi_writes : string option list;
  pi_node : string;  (* name of the run body's effect node *)
  pi_loc : Location.t;
}

type t = {
  passes : pass_inst list;
  pipelines : string list;
  extra_nodes : E.node list;
  unresolved : (string * Location.t) list;
}

(* ------------------------------------------------------------------ *)
(* literal evaluation under a formal->actual environment               *)

let rec eval_string proj env c =
  match c.ce.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | Pexp_constraint (e, _) -> eval_string proj env { c with ce = e }
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "^"; _ }; _ },
        [ (_, a); (_, b) ] ) -> (
      match
        (eval_string proj env { c with ce = a },
         eval_string proj env { c with ce = b })
      with
      | Some x, Some y -> Some (x ^ y)
      | _ -> None)
  | Pexp_ident { txt; _ } -> (
      let segs = P.flatten_lid txt in
      match segs with
      | [ v ] when List.mem_assoc v env -> eval_string proj [] (List.assoc v env)
      | _ -> (
          match P.resolve_def proj c.cfile ~modpath:c.cmod segs with
          | Some d -> (
              match P.file_by_path proj d.P.d_file with
              | Some f ->
                  eval_string proj []
                    { ce = d.P.d_expr; cfile = f; cmod = d.P.d_modpath }
              | None -> None)
          | None -> None))
  | _ -> None

let rec eval_key proj env c =
  match c.ce.pexp_desc with
  | Pexp_tuple (k :: _) -> eval_string proj env { c with ce = k }
  | Pexp_constraint (e, _) -> eval_key proj env { c with ce = e }
  | Pexp_constant (Pconst_string _) -> eval_string proj env c
  | Pexp_ident { txt; _ } -> (
      let segs = P.flatten_lid txt in
      match segs with
      | [ v ] when List.mem_assoc v env -> eval_key proj [] (List.assoc v env)
      | _ -> (
          match P.resolve_def proj c.cfile ~modpath:c.cmod segs with
          | Some d -> (
              match P.file_by_path proj d.P.d_file with
              | Some f ->
                  eval_key proj []
                    { ce = d.P.d_expr; cfile = f; cmod = d.P.d_modpath }
              | None -> None)
          | None -> None))
  | _ -> None

(* flatten a literal list expression; chase idents through env/defs *)
let rec eval_list proj env c =
  match c.ce.pexp_desc with
  | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> Some []
  | Pexp_construct
      ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
    ->
      Option.map
        (fun rest -> { c with ce = hd } :: rest)
        (eval_list proj env { c with ce = tl })
  | Pexp_constraint (e, _) -> eval_list proj env { c with ce = e }
  | Pexp_ident { txt; _ } -> (
      let segs = P.flatten_lid txt in
      match segs with
      | [ v ] when List.mem_assoc v env -> eval_list proj [] (List.assoc v env)
      | _ -> (
          match P.resolve_def proj c.cfile ~modpath:c.cmod segs with
          | Some d -> (
              match P.file_by_path proj d.P.d_file with
              | Some f ->
                  eval_list proj []
                    { ce = d.P.d_expr; cfile = f; cmod = d.P.d_modpath }
              | None -> None)
          | None -> None))
  | _ -> None

let rec eval_fn proj env c =
  match c.ce.pexp_desc with
  | Pexp_function _ -> Some c
  | Pexp_constraint (e, _) -> eval_fn proj env { c with ce = e }
  | Pexp_ident { txt; _ } -> (
      let segs = P.flatten_lid txt in
      match segs with
      | [ v ] when List.mem_assoc v env -> eval_fn proj [] (List.assoc v env)
      | _ -> (
          match P.resolve_def proj c.cfile ~modpath:c.cmod segs with
          | Some d -> (
              match P.file_by_path proj d.P.d_file with
              | Some f ->
                  eval_fn proj []
                    { ce = d.P.d_expr; cfile = f; cmod = d.P.d_modpath }
              | None -> None)
          | None -> None))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* formal parameters and call sites                                    *)

let rec params_of e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> params_of e
  | Pexp_function (ps, _, body) ->
      let here =
        List.filter_map
          (fun p ->
            match p.pparam_desc with
            | Pparam_val (lbl, _, pat) -> (
                let rec var p =
                  match p.ppat_desc with
                  | Ppat_var { txt; _ } -> Some txt
                  | Ppat_constraint (p, _) -> var p
                  | _ -> None
                in
                match var pat with Some v -> Some (lbl, v) | None -> None)
            | Pparam_newtype _ -> None)
          ps
      in
      (match body with
      | Pfunction_body ({ pexp_desc = Pexp_function _; _ } as b) ->
          here @ params_of b
      | _ -> here)
  | _ -> []

let label_name = function
  | Labelled l | Optional l -> Some l
  | Nolabel -> None

(* formal->actual substitution for one application *)
let build_env params (args : (arg_label * cexpr) list) =
  let positional_params =
    List.filter_map
      (fun (l, n) -> if l = Nolabel then Some n else None)
      params
  in
  let positional_args =
    List.filter_map (fun (l, a) -> if l = Nolabel then Some a else None) args
  in
  let rec zip ps es =
    match (ps, es) with
    | p :: ps, e :: es -> (p, e) :: zip ps es
    | _ -> []
  in
  let pos = zip positional_params positional_args in
  let labelled =
    List.filter_map
      (fun (l, a) ->
        match label_name l with
        | None -> None
        | Some name ->
            if
              List.exists
                (fun (pl, _) ->
                  match label_name pl with
                  | Some pn -> String.equal pn name
                  | None -> false)
                params
            then Some (name, a)
            else None)
      args
  in
  pos @ labelled

(* every application of [target] anywhere in the project, as contextual
   argument lists *)
let call_sites proj target =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ (d : P.def) ->
      match P.file_by_path proj d.P.d_file with
      | None -> ()
      | Some file ->
          let it =
            object
              inherit Ast_traverse.iter as super

              method! expression e =
                (match e.pexp_desc with
                | Pexp_apply (f, args) -> (
                    let rec head f args =
                      match f.pexp_desc with
                      | Pexp_apply (g, args0) -> head g (args0 @ args)
                      | _ -> (f, args)
                    in
                    let f, args = head f args in
                    match f.pexp_desc with
                    | Pexp_ident { txt; _ } -> (
                        match
                          P.resolve_def proj file ~modpath:d.P.d_modpath
                            (P.flatten_lid txt)
                        with
                        | Some dd when String.equal dd.P.d_name target ->
                            acc :=
                              List.map
                                (fun (l, a) ->
                                  (l,
                                   { ce = a; cfile = file;
                                     cmod = d.P.d_modpath }))
                                args
                              :: !acc
                        | _ -> ())
                    | _ -> ())
                | _ -> ());
                super#expression e
            end
          in
          it#expression d.P.d_expr)
    proj.P.defs;
  !acc

(* ------------------------------------------------------------------ *)
(* extraction                                                          *)

type raw_record =
  | Pass of (Longident.t loc * expression) list * Location.t
  | Pipeline of (Longident.t loc * expression) list * Location.t

let records_in (d : P.def) =
  let acc = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_record (fields, None) ->
            let labels =
              List.filter_map
                (fun ((l : Longident.t loc), _) ->
                  match l.txt with Lident n -> Some n | _ -> None)
                fields
            in
            let has n = List.mem n labels in
            if has "name" && has "reads" && has "writes" && has "run" then
              acc := Pass (fields, e.pexp_loc) :: !acc
            else if has "pl_name" && has "passes" then
              acc := Pipeline (fields, e.pexp_loc) :: !acc
        | _ -> ());
        super#expression e
    end
  in
  it#expression d.P.d_expr;
  List.rev !acc

let field fields n =
  List.find_map
    (fun ((l : Longident.t loc), e) ->
      match l.txt with
      | Lident name when String.equal name n -> Some e
      | _ -> None)
    fields

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum

let extract cfg proj =
  let passes = ref [] in
  let pipelines = ref [] in
  let extra_nodes = ref [] in
  let unresolved = ref [] in
  let seen_pass = Hashtbl.create 64 in
  let defs = Hashtbl.fold (fun _ d acc -> d :: acc) proj.P.defs [] in
  let defs =
    List.sort (fun (a : P.def) b -> String.compare a.d_name b.d_name) defs
  in
  List.iter
    (fun (d : P.def) ->
      match P.file_by_path proj d.P.d_file with
      | None -> ()
      | Some file ->
          let records = records_in d in
          if records <> [] then begin
            let base = { ce = d.P.d_expr; cfile = file; cmod = d.P.d_modpath } in
            let envs =
              (* the empty env first: records whose fields are literal
                 resolve without call sites *)
              [] ::
              (match params_of d.P.d_expr with
              | [] -> []
              | params ->
                  List.map (build_env params) (call_sites proj d.P.d_name))
            in
            List.iter
              (function
                | Pass (fields, loc) ->
                    let resolved = ref false in
                    List.iter
                      (fun env ->
                        let get n =
                          Option.map
                            (fun e -> { base with ce = e })
                            (field fields n)
                        in
                        let name =
                          Option.bind (get "name") (eval_string proj env)
                        in
                        let keys field_name =
                          match
                            Option.bind (get field_name) (eval_list proj env)
                          with
                          | None -> None
                          | Some elems ->
                              Some (List.map (eval_key proj env) elems)
                        in
                        let reads = keys "reads" in
                        let writes = keys "writes" in
                        let run =
                          Option.bind (get "run") (eval_fn proj env)
                        in
                        match (name, reads, writes, run) with
                        | Some name, Some reads, Some writes, Some run ->
                            let id =
                              Printf.sprintf "%s@%s:%d" name
                                loc.loc_start.pos_fname (loc_line loc)
                            in
                            if not (Hashtbl.mem seen_pass id) then begin
                              Hashtbl.replace seen_pass id ();
                              resolved := true;
                              let key_env =
                                List.filter_map
                                  (fun (v, c) ->
                                    Option.map
                                      (fun s -> (v, s))
                                      (eval_string proj [] c))
                                  env
                              in
                              let node_name = "pass:" ^ id in
                              extra_nodes :=
                                E.analyze_expr ~key_env cfg proj run.cfile
                                  ~modpath:run.cmod ~name:node_name run.ce
                                :: !extra_nodes;
                              passes :=
                                {
                                  pi_name = name;
                                  pi_reads = reads;
                                  pi_writes = writes;
                                  pi_node = node_name;
                                  pi_loc = loc;
                                }
                                :: !passes
                            end
                            else resolved := true
                        | _ -> ())
                      envs;
                    if not !resolved then
                      unresolved :=
                        ( "pass contract is not statically resolvable \
                           (name/reads/writes/run did not reduce to \
                           literals at any call site)",
                          loc )
                        :: !unresolved
                | Pipeline (fields, loc) ->
                    let resolved = ref false in
                    List.iter
                      (fun env ->
                        match
                          Option.bind
                            (Option.map
                               (fun e -> { base with ce = e })
                               (field fields "pl_name"))
                            (eval_string proj env)
                        with
                        | Some name ->
                            resolved := true;
                            if not (List.mem name !pipelines) then
                              pipelines := name :: !pipelines
                        | None -> ())
                      envs;
                    if not !resolved then
                      unresolved :=
                        ("pipeline pl_name is not statically resolvable", loc)
                        :: !unresolved)
              records
          end)
    defs;
  {
    passes = List.rev !passes;
    pipelines = List.sort String.compare !pipelines;
    extra_nodes = !extra_nodes;
    unresolved = !unresolved;
  }
