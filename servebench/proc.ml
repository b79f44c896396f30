(* The server as a child process, and the one client connection the
   timed window runs over.  Every path is relative to the run's working
   directory, which keeps the unix socket path short. *)

let now = Unix.gettimeofday

let rm_rf path =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists path then go path

(* --- the client connection ---------------------------------------------------- *)

exception Deadline

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect dir =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "serve.sock")) with
  | () -> Some { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Blocks until bytes arrive or [deadline] (absolute) passes. *)
let rec fill c deadline =
  let left = deadline -. now () in
  if left <= 0.0 then raise Deadline;
  match Unix.select [ c.fd ] [] [] left with
  | [], _, _ -> raise Deadline
  | _ -> (
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | 0 -> raise End_of_file
    | n ->
      c.pos <- 0;
      c.len <- n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill c deadline)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill c deadline

let read_line c deadline =
  let acc = Buffer.create 32 in
  let rec go () =
    if c.pos >= c.len then fill c deadline;
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
      Buffer.add_subbytes acc c.buf c.pos (i - c.pos);
      c.pos <- i + 1;
      Buffer.contents acc
    | _ ->
      Buffer.add_subbytes acc c.buf c.pos (c.len - c.pos);
      c.pos <- c.len;
      go ()
  in
  go ()

let read_exact c n deadline =
  let out = Bytes.create n in
  let rec go off =
    if off < n then begin
      if c.pos >= c.len then fill c deadline;
      let k = min (n - off) (c.len - c.pos) in
      Bytes.blit c.buf c.pos out off k;
      c.pos <- c.pos + k;
      go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string out

let rec write_all fd s off =
  if off < String.length s then
    match Unix.single_write_substring fd s off (String.length s - off) with
    | k -> write_all fd s (off + k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

type answer = { ok : bool; body : string; frame_bytes : int }

(* One text-framed request: [ok N] / [error N] then N bytes.  Raises
   [Deadline] when the answer is not complete [timeout] seconds after
   the send, [End_of_file] when the server hangs up. *)
let call c ~timeout line =
  let deadline = now () +. timeout in
  write_all c.fd (line ^ "\n") 0;
  let header = read_line c deadline in
  match String.split_on_char ' ' header with
  | [ status; n ] when (status = "ok" || status = "error") && int_of_string_opt n <> None ->
    let n = int_of_string n in
    let body = read_exact c n deadline in
    { ok = status = "ok"; body; frame_bytes = String.length header + 1 + n }
  | _ -> failwith (Printf.sprintf "malformed response header %S" header)

(* --- the server process ---------------------------------------------------------- *)

type server = { pid : int; dir : string; mutable alive : bool }

let live : server list ref = ref []

let spawn ~prefdb ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process prefdb (Array.of_list (prefdb :: args)) Unix.stdin out out)
  in
  pid

let wait pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* [prefdb init FILE --dir DIR], to completion. *)
let init ~prefdb ~file ~dir =
  match wait (spawn ~prefdb ~log:"init.log" [ "init"; file; "--dir"; dir ]) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "prefdb init %s failed (see init.log)" dir)

(* Start [prefdb serve] on [dir] and return once every request of
   [ready] is answered without error, in order, over one connection:
   the store is open, its log replayed, the engine built and the caches
   those requests need filled. *)
let start ~ready ~prefdb ~jobs ~dir ~timeout =
  let pid =
    spawn ~prefdb ~log:(dir ^ ".log")
      [ "serve"; "--dir"; dir; "--request-timeout"; "60"; "-j"; string_of_int jobs ]
  in
  let s = { pid; dir; alive = true } in
  live := s :: !live;
  let deadline = now () +. timeout in
  let rec poll () =
    if now () > deadline then failwith (dir ^ ": server did not answer in time");
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      s.alive <- false;
      failwith (Printf.sprintf "%s: server exited (see %s.log)" dir dir));
    match connect dir with
    | None ->
      Unix.sleepf 0.00025;
      poll ()
    | Some c ->
      let answered =
        List.for_all
          (fun line ->
            match call c ~timeout:(deadline -. now ()) line with
            | { ok; _ } -> ok
            | exception (End_of_file | Unix.Unix_error _) -> false)
          ready
      in
      close c;
      if not answered then (
        Unix.sleepf 0.00025;
        poll ())
  in
  poll ();
  s

let kill9 s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait s.pid);
    s.alive <- false
  end

(* Graceful stop over the socket; falls back to kill -9. *)
let shutdown s =
  if s.alive then begin
    (match connect s.dir with
    | Some c ->
      (try ignore (call c ~timeout:30.0 "shutdown")
       with Deadline | End_of_file | Failure _ | Unix.Unix_error _ -> ());
      close c
    | None -> ());
    let deadline = now () +. 30.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
      | 0, _ -> kill9 s
      | _ -> s.alive <- false
    in
    reap ()
  end

let stop_all () = List.iter kill9 !live

(* The server's peak resident set, in MB. *)
let vm_hwm_mb s =
  let path = Printf.sprintf "/proc/%d/status" s.pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith (path ^ ": no VmHWM line")
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())
