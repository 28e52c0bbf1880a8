(** Per-run scratch space and child processes.

    Every run holds [.perfbench-tmp/lock] and works under
    [.perfbench-tmp/run-<pid>/] in the checkout: fresh cache directories
    and a fresh socket path per use, all removed on exit — not before,
    because deleting thousands of cache entries mid-run slows the file
    writes measured after it.  A socket left there by an earlier run
    fails the run instead of being measured next to it.  Daemons
    started here are registered so an early exit still stops and reaps
    them. *)

let root = ".perfbench-tmp"

let rec rm_rf (path : string) : unit =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec find_sockets (path : string) : string list =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> [ path ]
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Sys.readdir path |> Array.to_list
      |> List.concat_map (fun f -> find_sockets (Filename.concat path f))
  | _ -> []
  | exception Unix.Unix_error _ -> []

let run_dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ()))
let counter = ref 0

(** A fresh, empty directory under this run's scratch space. *)
let fresh (prefix : string) : string =
  incr counter;
  let d = Filename.concat run_dir (Printf.sprintf "%s-%d" prefix !counter) in
  Unix.mkdir d 0o755;
  d

let children : int list ref = ref []

let reap (pid : int) : unit =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

(** Commit the removals to disk before exiting, so that the next run
    does not pay for this one's deletes. *)
let fsync_dir (dir : string) : unit =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let cleanup () : unit =
  List.iter reap !children;
  try
    rm_rf run_dir;
    fsync_dir "."
  with Unix.Unix_error _ | Sys_error _ -> ()

(** The lock that marks a run as active: held (an fcntl lock, released
    by the kernel however the process ends) for the whole run. *)
let lock_file = Filename.concat root "lock"

(** Claim this run's scratch space.  Fails when another run holds the
    lock in this checkout, or when an earlier run left a socket behind
    (its daemon may still be running); removes what a killed run left
    otherwise. *)
let init () : unit =
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let fd = Unix.openfile lock_file [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  (try Unix.lockf fd Unix.F_TLOCK 0
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
     failwith "another perfbench run is active in this checkout");
  (* with the lock held, every run directory is a dead run's *)
  Array.iter
    (fun d ->
      let path = Filename.concat root d in
      if path <> lock_file then
        match find_sockets path with
        | [] -> rm_rf path
        | socks ->
            failwith
              (Printf.sprintf
                 "leftover daemon socket(s) from an earlier run: %s (stop \
                  that daemon and remove %s)"
                 (String.concat ", " socks) root))
    (Sys.readdir root);
  Unix.mkdir run_dir 0o755;
  at_exit (fun () ->
      cleanup ();
      (try Sys.remove lock_file with Sys_error _ -> ());
      (try Unix.rmdir root with Unix.Unix_error _ -> ());
      Unix.close fd)
