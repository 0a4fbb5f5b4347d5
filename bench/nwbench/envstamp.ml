(* The environment a result was measured in: core counts, CPU model,
   source commit, OCaml version and the load average at start and end,
   so a number can be read against the machine that produced it. *)

(* "key : value" lines of /proc/cpuinfo *)
let cpuinfo key =
  List.filter_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (Proc.lines "/proc/cpuinfo")

let nproc () = max 1 (List.length (cpuinfo "processor"))

let cpu_model () =
  match cpuinfo "model name" with m :: _ -> m | [] -> "unknown"

let loadavg () =
  match Proc.lines "/proc/loadavg" with
  | l :: _ -> (
      match String.split_on_char ' ' l with
      | one :: _ -> Option.value ~default:nan (float_of_string_opt one)
      | [] -> nan)
  | [] -> nan

(* The commit of the checkout, read from .git in the working directory
   only (a source export without .git reads "unknown"). *)
let git_commit () =
  let trim = String.trim in
  match Proc.read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      let prefix = "ref: " in
      let plen = String.length prefix in
      if String.length head <= plen || String.sub head 0 plen <> prefix then
        head
      else
        let ref_name = String.sub head plen (String.length head - plen) in
        match Proc.read_file (".git/" ^ ref_name) with
        | Some sha -> trim sha
        | None -> (
            let packed =
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' (trim l) with
                  | [ sha; r ] when r = ref_name -> Some sha
                  | _ -> None)
                (Proc.lines ".git/packed-refs")
            in
            match packed with Some sha -> sha | None -> "unknown"))

type t = {
  nproc : int;
  domains : int;
  cpu : string;
  commit : string;
  ocaml : string;
  load_start : float;
  mutable load_end : float;
}

let capture () =
  {
    nproc = nproc ();
    domains = Domain.recommended_domain_count ();
    cpu = cpu_model ();
    commit = git_commit ();
    ocaml = Sys.ocaml_version;
    load_start = loadavg ();
    load_end = nan;
  }

(* a start load above half the cores means another process is likely
   competing for the CPU the measurement runs on *)
let warn_if_loaded e =
  if e.load_start > float_of_int e.nproc /. 2.0 then
    Printf.eprintf
      "nwbench: WARNING: load average %.2f at start exceeds nproc/2 = %.1f; \
       timings may be disturbed\n%!"
      e.load_start
      (float_of_int e.nproc /. 2.0)

let finish e = e.load_end <- loadavg ()

let pp oc e =
  Printf.fprintf oc
    "env: nproc=%d recommended_domains=%d cpu=%S commit=%s ocaml=%s \
     loadavg_start=%.2f loadavg_end=%.2f\n"
    e.nproc e.domains e.cpu e.commit e.ocaml e.load_start e.load_end

let to_json e =
  let s = Metric.json_string and f = Metric.json_number in
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domain_count\": %d, \"cpu_model\": %s, \
     \"git_commit\": %s, \"ocaml_version\": %s, \"loadavg_start\": %s, \
     \"loadavg_end\": %s}"
    e.nproc e.domains (s e.cpu) (s e.commit) (s e.ocaml) (f e.load_start)
    (f e.load_end)
