(* Files, clock, child processes and peak memory.

   Every file the benchmark writes lives under [workdir], relative to
   the directory it runs in; Unix socket paths are relative too, so
   they stay short however deep that directory is. *)

let workdir = ".nwbench"

let path name = Filename.concat workdir name

let ensure_workdir () =
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let lines path =
  match read_file path with
  | None -> []
  | Some s -> String.split_on_char '\n' s

let now () = Int64.to_float (Nw_obs.Obs.now_ns ()) /. 1e9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* VmHWM (peak resident set) of a process in MB, from /proc; [None]
   once the process has exited *)
let vmhwm_mb pid =
  let file =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ ->
              Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb)
          | [] -> None)
      | _ -> None)
    (lines file)

let spawn ?(stdout = Unix.stdout) prog args =
  Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
    Unix.stderr

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Run a child with stdout to [out], timing spawn to exit while a
   second domain samples its VmHWM every 10 ms. Returns the exit
   status, the wall seconds and the last VmHWM sample in MB. *)
let run_polled ~out prog args =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> spawn ~stdout:fd prog args)
  in
  let stop = Atomic.make false in
  let poller =
    Domain.spawn (fun () ->
        let peak = ref 0.0 in
        while not (Atomic.get stop) do
          Option.iter (fun mb -> peak := Float.max !peak mb) (vmhwm_mb pid);
          Unix.sleepf 0.01
        done;
        !peak)
  in
  let status = wait pid in
  let wall = now () -. t0 in
  Atomic.set stop true;
  let peak = Domain.join poller in
  (status, wall, peak)
