(* The serve-level benchmark: one workload, one seed, one fresh store
   and server.

     servebench --workload NAME --seed N --seconds S --trace 0|1 [--small]

   Run from the root of a built checkout (see run.sh).  The run
   generates the workload's instance and request stream from the seed,
   sets up a store repeatedly with [prefdb init] + [prefdb serve]
   (setup_s is the median), sends the untimed warm-up and then the
   fixed-count timed stream over one persistent connection, kills the
   server with SIGKILL and restarts it repeatedly (recovery_s is the
   mean of the middle half), and checks every answer against an
   in-process replay.  With [--trace 1]
   a traced in-process replay follows and the per-layer metrics are
   printed instead of the end-to-end ones.  The last stdout line is the
   JSON result. *)

(* Monotonic, with nanosecond resolution: read latencies are tens of
   microseconds, where [Unix.gettimeofday]'s microsecond steps are 5%. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0
let trace = ref (-1)
let small = ref false

let spec_args =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed of the generated instance and stream");
    ("--seconds", Arg.Set_int seconds, "S timed requests = S x the workload's nominal rate");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ("--small", Arg.Set small, " small stores and streams (self-test)");
  ]

let deadline_s = 5.0

(* The server's and the replays' domain-pool width, pinned so a run
   measures the same schedule on every host. *)
let jobs = 1

let phase name t0 = Printf.printf "phase %s %.3f s\n%!" name (now () -. t0)

(* [f k] for k = 0, 1, ...: at least 3 times, then again while the
   samples so far took less than [budget] seconds (at most 121 in all):
   short set-ups get enough samples, spread over enough time, that one
   slow spell of the host does not set the figure; long ones stay at
   3. *)
let repeat ~budget f =
  let t0 = now () in
  let rec go k acc =
    if k >= 121 || (k >= 3 && now () -. t0 >= budget) then Array.of_list (List.rev acc)
    else go (k + 1) (f k :: acc)
  in
  go 0 []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The checkout's commit, when it is a git work tree. *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let r, w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] Unix.stdin w null
    in
    Unix.close w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    close_in ic;
    match Proc.wait pid with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"

(* Served answers and their accounting. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let run (shape : Workloads.shape) =
  let root = Sys.getcwd () in
  let prefdb = Filename.concat root "_build/default/bin/prefdb.exe" in
  if not (Sys.file_exists prefdb) then failwith (prefdb ^ ": not built");
  Core.Pool.set_jobs jobs;
  let count = shape.rate * !seconds / if !small then 20 else 1 in
  let t0 = now () in
  let w = shape.generate ~small:!small (Workload.Prng.create !seed) ~count in
  let work =
    Filename.concat root
      (Printf.sprintf ".servebench/%s-%d-%d" shape.name !seed (Unix.getpid ()))
  in
  Proc.rm_rf work;
  mkdir_p work;
  Sys.chdir work;
  (match Dbio.Instance_format.save "instance.pdb" w.spec with
  | Ok () -> ()
  | Error e -> failwith e);
  phase "generate" t0;
  (* set-up, repeated: s1 and s2 stay pristine for the replays, the last
     set-up of s3 is the one served *)
  let setup k =
    let dir = if k < 2 then Printf.sprintf "s%d" (k + 1) else "s3" in
    Proc.rm_rf dir;
    let t0 = now () in
    Proc.init ~prefdb ~file:"instance.pdb" ~dir;
    let s = Proc.start ~ready:w.ready ~prefdb ~jobs ~dir ~timeout:120.0 in
    let dt = now () -. t0 in
    Proc.shutdown s;
    dt
  in
  let t0 = now () in
  let setup_samples = repeat ~budget:4.0 setup in
  let setup_s = Stats.median setup_samples in
  let s = Proc.start ~ready:[ "ping" ] ~prefdb ~jobs ~dir:"s3" ~timeout:120.0 in
  phase "setup" t0;
  let c = match Proc.connect s.Proc.dir with Some c -> c | None -> failwith "cannot connect" in
  let by_kind = [ (Workloads.Query, tally ()); (Workloads.Write, tally ()) ] in
  let other = tally () in
  let fail_count () = other.failed + List.fold_left (fun a (_, t) -> a + t.failed) 0 by_kind in
  let alive = ref true in
  (* one request; [None] on a missed deadline or a lost connection,
     which ends the run *)
  let send t line =
    t.attempted <- t.attempted + 1;
    match Proc.call c ~timeout:deadline_s line with
    | a ->
      if not a.Proc.ok then t.failed <- t.failed + 1;
      Some a
    | exception (Proc.Deadline | End_of_file | Unix.Unix_error _ | Failure _) ->
      t.failed <- t.failed + 1;
      alive := false;
      None
  in
  let t0 = now () in
  let untimed = List.map (fun l -> if !alive then send other l else None) w.untimed in
  phase "warm-up" t0;
  let n = Array.length w.timed in
  let lat = Array.make n 0.0 and stamp = Array.make n 0.0 and answers = Array.make n None in
  let t_start = now () in
  let sent = ref 0 in
  while !alive && !sent < n do
    let i = !sent in
    let r = w.timed.(i) in
    let t0 = now () in
    answers.(i) <- send (List.assoc r.kind by_kind) r.line;
    stamp.(i) <- now ();
    lat.(i) <- stamp.(i) -. t0;
    incr sent
  done;
  let window = now () -. t_start in
  let rss_mb = Proc.vm_hwm_mb s in
  let pool_width =
    match send (tally ()) "jobs" with Some a -> a.Proc.body | None -> "?"
  in
  Proc.close c;
  (* crash and recover, repeated: a restart has recovered when it has
     answered the warm-up pass again, every distinct query of the stream
     once — hundreds of milliseconds of query work even on the read
     workloads, whose restarts replay no journal, rather than the tens of
     process start-up that eight queries measured; the first restart
     answers the probe *)
  Proc.kill9 s;
  let probe = ref [] in
  let recover k =
    let t0 = now () in
    let s = Proc.start ~ready:w.untimed ~prefdb ~jobs ~dir:"s3" ~timeout:120.0 in
    let dt = now () -. t0 in
    (if k = 0 && w.probe <> [] then
       match Proc.connect "s3" with
       | None -> () (* counted below: no probe answers *)
       | Some pc ->
         probe :=
           List.map
             (fun l ->
               other.attempted <- other.attempted + 1;
               match Proc.call pc ~timeout:60.0 l with
               | a -> Some a
               | exception (Proc.Deadline | End_of_file | Unix.Unix_error _ | Failure _) -> None)
             w.probe;
         Proc.close pc);
    Proc.kill9 s;
    dt
  in
  let t0 = now () in
  let recovery_samples = repeat ~budget:10.0 recover in
  (* the mean of the middle half: smooth in the share of slow spells
     (see the window's figures below), deaf to a stray slow restart *)
  let recovery_s = Stats.mid_mean recovery_samples in
  phase "recovery" t0;
  (* the answer key, and the check of every served answer against it *)
  let t0 = now () in
  let key = Replay.untraced ~full:(!trace = 1) "s1" w in
  phase "answer-key" t0;
  (* error frames and lost answers were counted when received *)
  let check t served expected =
    match served with
    | Some (a : Proc.answer) when a.ok && a.body <> expected -> t.failed <- t.failed + 1
    | _ -> ()
  in
  List.iter2 (check other) untimed key.untimed;
  for i = 0 to !sent - 1 do
    check (List.assoc w.timed.(i).kind by_kind) answers.(i) key.timed.(i)
  done;
  (match (w.probe, !probe) with
  | [], _ -> ()
  | _, got when List.length got = List.length key.probe ->
    List.iter2
      (fun g e ->
        match g with
        | Some (a : Proc.answer) when a.ok && a.body = e -> ()
        | _ -> other.failed <- other.failed + 1)
      got key.probe
  | _ -> other.failed <- other.failed + 1);
  let completed = Array.sub lat 0 !sent in
  (* The timed window's latency percentiles are taken over consecutive
     slices of 100 queries.  The p50 is the mean of the slices' p50s.
     The 2-vCPU VMs this was built on alternate between two memory
     speeds about 1.6x apart, in spells of one to several seconds (a
     fixed memory-bound loop reads ~10 ms in one spell and ~16 ms in the
     next).  A percentile of a whole window flips between the two speeds
     as the share of slow spells crosses its rank; the slices, shorter
     than a spell, each read one speed, and the mean of their p50s moves
     smoothly with that share, as the throughput (requests over time)
     does.  The p99 is the median of the slices' p99s (each a slice's
     second-slowest query): a mean, or a p99 of the whole window, is set
     by the few slices a burst of host interference hit, and those
     bursts differ from run to run far more than the program does. *)
  let query_lat =
    Array.of_list
      (List.filter_map
         (fun i -> if w.timed.(i).kind = Workloads.Query then Some lat.(i) else None)
         (List.init !sent Fun.id))
  in
  let queries = Array.length query_lat in
  let sliced_percentile ~over p =
    let k = max 1 (queries / 100) in
    if queries = 0 then 0.0
    else
      over
        (Array.init k (fun j ->
             let lo = j * queries / k and hi = (j + 1) * queries / k in
             Stats.percentile p (Array.sub query_lat lo (hi - lo))))
  in
  let traced =
    if !trace = 1 then begin
      let frame_bytes =
        Array.map (function Some (a : Proc.answer) -> float_of_int a.frame_bytes | None -> 0.0) answers
      in
      let t0 = now () in
      let t = Replay.traced ~dir:"s2" ~instance:"instance.pdb" w key ~served_s:completed ~frame_bytes in
      phase "traced" t0;
      other.failed <- other.failed + t.mismatches;
      Some t
    end
    else None
  in
  Sys.chdir root;
  Proc.rm_rf work;
  (* --- report --- *)
  Printf.printf "run workload=%s seed=%d nproc=%d ocaml=%s pool_width=%S commit=%s\n"
    shape.name !seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version pool_width (commit ());
  Printf.printf "timed requests=%d queries=%d window_s=%.3f\n" n queries window;
  List.iter
    (fun (name, xs) ->
      Printf.printf "%s samples=%d min=%.6f median=%.6f max=%.6f\n" name (Array.length xs)
        (Stats.percentile 0.0 xs) (Stats.median xs) (Stats.percentile 1.0 xs))
    [ ("setup", setup_samples); ("recovery", recovery_samples) ];
  List.iter
    (fun (k, t) ->
      Printf.printf "ops %s attempted=%d failed=%d\n"
        (match k with Workloads.Query -> "query" | Workloads.Write -> "write")
        t.attempted t.failed)
    by_kind;
  Printf.printf "ops untimed+probe attempted=%d failed=%d\n" other.attempted other.failed;
  let metrics =
    match traced with
    | Some t -> t.metrics
    | None ->
      [
        ("throughput_rps", Stats.ratio (float_of_int !sent) window, "req/s");
        ("query_p50_ms", sliced_percentile ~over:Stats.mean 0.5 *. 1000.0, "ms");
        ("query_p99_ms", sliced_percentile ~over:Stats.median 0.99 *. 1000.0, "ms");
        ("setup_s", setup_s, "s");
        ("recovery_s", recovery_s, "s");
        ("rss_mb", rss_mb, "MB");
      ]
  in
  let attempted =
    other.attempted + List.fold_left (fun a (_, t) -> a + t.attempted) 0 by_kind
  in
  let failed = fail_count () in
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (failed = 0 && !sent = n));
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str unit) ]))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json)

let () =
  Arg.parse spec_args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "servebench --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a stopped benchmark stops the servers it started *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> Proc.stop_all (); exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let shape =
    match Workloads.find !workload with
    | Some s -> s
    | None ->
      prerr_endline
        ("unknown --workload; one of: "
        ^ String.concat ", " (List.map (fun (s : Workloads.shape) -> s.name) Workloads.all));
      exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed N (N >= 0), --seconds S (S >= 1) and --trace 0|1";
    exit 2
  end;
  match run shape with
  | () -> Proc.stop_all ()
  | exception e ->
    Proc.stop_all ();
    prerr_endline ("servebench: " ^ Printexc.to_string e);
    exit 1
