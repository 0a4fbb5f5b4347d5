(* Whole-project source model for the interprocedural flow analysis.

   The per-file engine (nwlint_core) resolves module aliases inside a
   single compilation unit; the flow layer extends that prepass across
   files. A project knows, for every .ml under the analyzed roots:

   - its dune namespace: lib/<dir>/foo.ml lives in the wrapped library
     Nw_<dir>, so the canonical name of [let bar] in it is
     "Nw_<dir>.Foo.bar" (files outside lib/ get bare "Foo.bar");
   - every top-level value definition (including ones nested in
     [module M = struct .. end] and functor bodies, whose canonical
     names carry the module path, e.g. "Nw_x.Foo.Make.bar");
   - project-wide module aliases, including functor instantiations:
     [module Inst = Make (G)] maps the canonical module path
     Nw_x.Foo.Inst to Nw_x.Foo.Make, so a cross-file [M.bar] (with
     [module M = Nw_x.Foo.Inst]) resolves to the functor body's
     definition.

   Resolution is name-based and deliberately conservative: a reference
   that does not resolve to a known project definition is treated as
   external (stdlib or opaque), never as a mutable global. *)

open Ppxlib

let flatten_lid lid =
  match Longident.flatten_exn lid with segs -> segs | exception _ -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | segs -> segs
let dotted segs = String.concat "." segs

type file = {
  path : string;
  content : string;
  lib : string option;  (* wrapped-library namespace, e.g. "Nw_core" *)
  modname : string;  (* "Forest_algo" *)
  str : structure option;  (* None when the file fails to parse *)
  aliases : (string, string list) Hashtbl.t;  (* local module aliases *)
  opens : string list list;  (* structure-level [open M] paths *)
  top_modules : string list;  (* module names bound at any struct level *)
}

type def = {
  d_name : string;  (* canonical dotted name *)
  d_file : string;  (* path of the defining file *)
  d_modpath : string list;  (* module path inside the file *)
  d_expr : expression;
  d_loc : Location.t;
  d_mutable : bool;  (* rhs is a mutable-container constructor *)
}

type t = {
  files : file list;
  libs : (string, unit) Hashtbl.t;  (* known wrapper names *)
  lib_of_mod : (string, string) Hashtbl.t;  (* "Dpool" -> "Nw_localsim" *)
  defs : (string, def) Hashtbl.t;
  mod_aliases : (string, string list) Hashtbl.t;
      (* canonical module path -> canonical target segments *)
  digest : string;
}

(* ------------------------------------------------------------------ *)
(* namespacing                                                         *)

let path_segments path =
  String.split_on_char '/' path
  |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")

(* anchor on the last "lib" segment, like the per-file engine's scope
   classifier, so relative prefixes classify identically *)
let lib_of_path path =
  let rec tail_from = function
    | [] -> []
    | "lib" :: rest -> rest
    | _ :: rest -> tail_from rest
  in
  match tail_from (path_segments path) with
  | dir :: _ :: _ -> Some ("Nw_" ^ dir)
  | _ -> None

let modname_of_path path =
  Filename.basename path |> Filename.remove_extension
  |> String.capitalize_ascii

let file_mod_segs file =
  match file.lib with
  | Some l -> [ l; file.modname ]
  | None -> [ file.modname ]

(* ------------------------------------------------------------------ *)
(* per-file collection                                                 *)

let unwrap_module_expr me =
  let rec go me =
    match me.pmod_desc with Pmod_constraint (me, _) -> go me | _ -> me
  in
  go me

(* the leftmost module identifier of an alias/instantiation rhs:
   [Make (G)] -> Make, [Nw_x.F (A) (B)] -> Nw_x.F *)
let rec module_expr_head me =
  match (unwrap_module_expr me).pmod_desc with
  | Pmod_ident { txt; _ } -> Some (flatten_lid txt)
  | Pmod_apply (f, _) -> module_expr_head f
  | _ -> None

let mutable_ctors =
  [
    [ "ref" ];
    [ "Atomic"; "make" ];
    [ "Hashtbl"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Array"; "make_matrix" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Buffer"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Weak"; "create" ];
  ]

let rec is_mutable_rhs e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> is_mutable_rhs e
  | Pexp_array _ -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let segs = strip_stdlib (flatten_lid txt) in
      List.mem segs mutable_ctors
  | _ -> false

(* collect structure-level info: local aliases (any depth, matching the
   per-file engine), opens, nested-module names, and raw defs *)
let scan_structure file str ~on_def ~on_alias =
  let rec item modpath it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> on_def modpath txt vb
            | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
                on_def modpath txt vb
            | _ -> ())
          vbs
    | Pstr_module mb -> module_binding modpath mb
    | Pstr_recmodule mbs -> List.iter (module_binding modpath) mbs
    | Pstr_include { pincl_mod = me; _ } -> module_body modpath me
    | _ -> ()
  and module_binding modpath mb =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name -> (
        let me = unwrap_module_expr mb.pmb_expr in
        match me.pmod_desc with
        | Pmod_structure s -> List.iter (item (modpath @ [ name ])) s
        | Pmod_functor (_, body) ->
            (* defs in a functor body are canonical under the functor's
               own name; instantiations alias to it *)
            module_body (modpath @ [ name ]) body
        | Pmod_ident _ | Pmod_apply _ -> (
            match module_expr_head me with
            | Some segs -> on_alias modpath name segs
            | None -> ())
        | _ -> ())
  and module_body modpath me =
    match (unwrap_module_expr me).pmod_desc with
    | Pmod_structure s -> List.iter (item modpath) s
    | Pmod_functor (_, body) -> module_body modpath body
    | _ -> ()
  in
  match file.str with Some s -> List.iter (item []) s | None -> ignore str

let collect_file_tables str =
  let aliases = Hashtbl.create 8 in
  let opens = ref [] in
  let tops = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! module_binding mb =
        (match mb.pmb_name.txt with
        | Some name -> (
            tops := name :: !tops;
            match module_expr_head mb.pmb_expr with
            | Some segs when segs <> [] -> Hashtbl.replace aliases name segs
            | _ -> ())
        | None -> ());
        super#module_binding mb

      method! open_declaration od =
        (match (unwrap_module_expr od.popen_expr).pmod_desc with
        | Pmod_ident { txt; _ } -> opens := flatten_lid txt :: !opens
        | _ -> ());
        super#open_declaration od
    end
  in
  it#structure str;
  (aliases, List.rev !opens, !tops)

let load_file ~path ~content =
  let str =
    let lexbuf = Lexing.from_string content in
    Lexing.set_filename lexbuf path;
    match Parse.implementation lexbuf with
    | s -> Some s
    | exception _ -> None
  in
  let aliases, opens, top_modules =
    match str with
    | Some s -> collect_file_tables s
    | None -> (Hashtbl.create 1, [], [])
  in
  {
    path;
    content;
    lib = lib_of_path path;
    modname = modname_of_path path;
    str;
    aliases;
    opens;
    top_modules;
  }

(* ------------------------------------------------------------------ *)
(* project assembly                                                    *)

let expand_alias (aliases : (string, string list) Hashtbl.t) segs =
  let rec go fuel segs =
    if fuel = 0 then segs
    else
      match segs with
      | head :: rest -> (
          match Hashtbl.find_opt aliases head with
          | Some target when target <> [ head ] -> go (fuel - 1) (target @ rest)
          | _ -> segs)
      | [] -> segs
  in
  go 8 segs

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let rec drop k = function
  | _ :: rest when k > 0 -> drop (k - 1) rest
  | l -> l

let apply_mod_aliases t segs =
  let rec go fuel segs =
    if fuel = 0 then segs
    else
      let n = List.length segs in
      let rec try_len k =
        if k < 1 then None
        else
          let prefix = take k segs in
          match Hashtbl.find_opt t.mod_aliases (dotted prefix) with
          | Some target when target <> prefix -> Some (target @ drop k segs)
          | _ -> try_len (k - 1)
      in
      match try_len (min n 6) with
      | Some segs' -> go (fuel - 1) segs'
      | None -> segs
  in
  go 8 segs

(* canonicalize a module-qualified path in [file]'s context: expand
   local aliases, strip Stdlib, prefix the owning library for sibling
   or nested modules, then chase project-level module aliases *)
let canon t file segs =
  let segs = strip_stdlib (expand_alias file.aliases segs) in
  match segs with
  | [] -> []
  | head :: _ when Hashtbl.mem t.libs head -> apply_mod_aliases t segs
  | head :: _ when List.mem head file.top_modules ->
      apply_mod_aliases t (file_mod_segs file @ segs)
  | head :: _ -> (
      match Hashtbl.find_opt t.lib_of_mod head with
      | Some lib -> apply_mod_aliases t (lib :: segs)
      | None -> apply_mod_aliases t segs)

let rec drop_last = function
  | [] | [ _ ] -> []
  | x :: rest -> x :: drop_last rest

(* resolve a value reference to a known project definition. [modpath]
   is the module path of the reference site inside its file (innermost
   enclosing modules are searched outward for unqualified names). *)
let resolve_def t file ~modpath segs =
  match segs with
  | [] -> None
  | [ v ] ->
      let rec try_path mp =
        let cand = dotted (file_mod_segs file @ mp @ [ v ]) in
        match Hashtbl.find_opt t.defs cand with
        | Some d -> Some d
        | None -> if mp = [] then None else try_path (drop_last mp)
      in
      let rec try_opens = function
        | [] -> None
        | o :: rest -> (
            let cand = dotted (canon t file o @ [ v ]) in
            match Hashtbl.find_opt t.defs cand with
            | Some d -> Some d
            | None -> try_opens rest)
      in
      (match try_path modpath with
      | Some d -> Some d
      | None -> try_opens file.opens)
  | _ -> Hashtbl.find_opt t.defs (dotted (canon t file segs))

let file_by_path t path = List.find_opt (fun f -> f.path = path) t.files

let of_sources sources =
  let files =
    List.map (fun (path, content) -> load_file ~path ~content) sources
  in
  let libs = Hashtbl.create 8 in
  let lib_of_mod = Hashtbl.create 64 in
  List.iter
    (fun f ->
      match f.lib with
      | Some l ->
          Hashtbl.replace libs l ();
          if not (Hashtbl.mem lib_of_mod f.modname) then
            Hashtbl.replace lib_of_mod f.modname l
      | None -> ())
    files;
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\x01"
            (List.map (fun f -> f.path ^ "\x00" ^ f.content) files)))
  in
  let t =
    {
      files;
      libs;
      lib_of_mod;
      defs = Hashtbl.create 256;
      mod_aliases = Hashtbl.create 16;
      digest;
    }
  in
  (* pass 1: definitions *)
  List.iter
    (fun f ->
      scan_structure f f.str
        ~on_def:(fun modpath name vb ->
          let d_name = dotted (file_mod_segs f @ modpath @ [ name ]) in
          if not (Hashtbl.mem t.defs d_name) then
            Hashtbl.replace t.defs d_name
              {
                d_name;
                d_file = f.path;
                d_modpath = modpath;
                d_expr = vb.pvb_expr;
                d_loc = vb.pvb_loc;
                d_mutable = is_mutable_rhs vb.pvb_expr;
              })
        ~on_alias:(fun _ _ _ -> ()))
    files;
  (* pass 2: project-level module aliases (canonical lhs -> canonical
     rhs); rhs canonicalization uses pass-1 tables only, chains resolve
     iteratively at query time *)
  List.iter
    (fun f ->
      scan_structure f f.str
        ~on_def:(fun _ _ _ -> ())
        ~on_alias:(fun modpath name rhs ->
          let lhs = dotted (file_mod_segs f @ modpath @ [ name ]) in
          let target = canon t f rhs in
          if target <> [] && dotted target <> lhs then
            Hashtbl.replace t.mod_aliases lhs target))
    files;
  t

let load paths =
  let files =
    Nwlint_core.Engine.collect_files paths
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
  in
  of_sources
    (List.map
       (fun p ->
         let ic = open_in_bin p in
         let content =
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         in
         (p, content))
       files)
