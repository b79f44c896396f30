type record = {
  ts : float;
  cmd : string;
  query : string;
  verdict : string;
  wall_ms : float;
  phases : (string * float * int) list;
  explain : (string * Obs.Json.t) option;
}

let to_json r =
  let open Obs.Json in
  Obj
    ([
       ("ts", Float r.ts);
       ("cmd", Str r.cmd);
       ("query", Str r.query);
       ("verdict", Str r.verdict);
       ("wall_ms", Float r.wall_ms);
       ( "phases",
         List
           (Stdlib.List.map
              (fun (name, seconds, count) ->
                Obj
                  [
                    ("name", Str name);
                    ("seconds", Float seconds);
                    ("count", Int count);
                  ])
              r.phases) );
     ]
    @
    match r.explain with
    | None -> []
    | Some (text, json) -> [ ("explain", json); ("explain_text", Str text) ])

let append ~path r =
  match
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let line = Obs.Json.to_string (to_json r) ^ "\n" in
        let n = String.length line in
        let written = ref 0 in
        while !written < n do
          written :=
            !written + Unix.single_write_substring fd line !written (n - !written)
        done)
  with
  | () -> Ok ()
  | exception Unix.Unix_error (err, fn, _) ->
    Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message err))

(* --- capture ------------------------------------------------------------ *)

(* Run [f] with a memory sink teed onto whatever sink is live, so the
   capture works whether or not a trace is being recorded. *)
let capture f =
  let buf = Obs.Sink.Memory.create () in
  let prev = Obs.Span.sink () in
  let sink =
    match prev with
    | None -> Obs.Sink.Memory.sink buf
    | Some s -> Obs.Sink.tee s (Obs.Sink.Memory.sink buf)
  in
  Obs.Span.set_sink (Some sink);
  let r = Fun.protect ~finally:(fun () -> Obs.Span.set_sink prev) f in
  (r, Obs.Sink.Memory.events buf)

let crosses ~threshold_ms wall = (wall *. 1000.0) +. 1e-9 >= threshold_ms

let first_line s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

let record session ~cmd ~query ~wall ~events output =
  {
    ts = Unix.gettimeofday ();
    cmd;
    query;
    verdict = first_line output;
    wall_ms = wall *. 1000.0;
    phases = Obs.Profile.flat (Obs.Profile.tree events);
    (* one extra planner run, executed over the dirty relation — cheap
       next to the repair-space work that made the query slow, and it
       carries the est/actual cardinalities the post-mortem needs *)
    explain = Result.to_option (Session.explain_report session query);
  }

(* --- validation --------------------------------------------------------- *)

let num_field name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.Float f) ->
    if Float.is_finite f then Ok f else Error (name ^ " is not finite")
  | Some (Obs.Json.Int i) -> Ok (Float.of_int i)
  | Some _ -> Error (name ^ " is not a number")
  | None -> Error ("missing field " ^ name)

let str_field name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.Str s) -> Ok s
  | Some _ -> Error (name ^ " is not a string")
  | None -> Error ("missing field " ^ name)

let ( let* ) = Result.bind

let validate_line line =
  let* j = Obs.Json.of_string line in
  let* _ = num_field "ts" j in
  let* _ = str_field "cmd" j in
  let* _ = str_field "query" j in
  let* _ = str_field "verdict" j in
  let* wall = num_field "wall_ms" j in
  let* () = if wall >= 0.0 then Ok () else Error "negative wall_ms" in
  let* () =
    match Obs.Json.member "phases" j with
    | None -> Error "missing field phases"
    | Some (Obs.Json.List phases) ->
      List.fold_left
        (fun acc p ->
          let* () = acc in
          let* _ = str_field "name" p in
          let* _ = num_field "seconds" p in
          let* _ = num_field "count" p in
          Ok ())
        (Ok ()) phases
    | Some _ -> Error "phases is not a list"
  in
  (* the explain pair is optional, but must come whole *)
  match (Obs.Json.member "explain" j, Obs.Json.member "explain_text" j) with
  | None, None -> Ok ()
  | Some (Obs.Json.Obj _), Some (Obs.Json.Str _) -> Ok ()
  | _ -> Error "explain/explain_text must be an object/string pair"

let validate_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | data ->
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' data)
    in
    let rec check n = function
      | [] -> Ok n
      | line :: rest -> (
        match validate_line line with
        | Ok () -> check (n + 1) rest
        | Error e -> Error (Printf.sprintf "record %d: %s" (n + 1) e))
    in
    check 0 lines
