(* The metrics subsystem: histogram bucket/quantile pins, the
   shard-merge property under the domain pool, registry rendering and
   linting, and a serve end-to-end scrape after a scripted request mix
   (including the slow-query log and the configurable request
   timeout). *)

module Metric = Obs.Metric
module Registry = Obs.Registry
module IF = Dbio.Instance_format

let check = Alcotest.check

(* --- bucket boundaries --------------------------------------------------- *)

let test_bucket_index () =
  let lat = Metric.latency_buckets in
  (* Prometheus le semantics: v lands in the first bucket with
     v <= bound *)
  check Alcotest.int "1us on the first bound" 0 (Metric.bucket_index lat 1e-6);
  check Alcotest.int "1.5us spills to the second bucket" 1
    (Metric.bucket_index lat 1.5e-6);
  check Alcotest.int "2us on the second bound" 1 (Metric.bucket_index lat 2e-6);
  check Alcotest.int "0 in the first bucket" 0 (Metric.bucket_index lat 0.0);
  check Alcotest.int "beyond the last bound overflows" (Array.length lat)
    (Metric.bucket_index lat 1e9);
  let size = Metric.size_buckets in
  check Alcotest.int "1 on the first size bound" 0 (Metric.bucket_index size 1.0);
  check Alcotest.int "4 on the second size bound" 1
    (Metric.bucket_index size 4.0);
  check Alcotest.int "5 in the third size bucket" 2
    (Metric.bucket_index size 5.0);
  let qe = Metric.qerror_buckets in
  check Alcotest.int "q-error 0 in the first bucket" 0
    (Metric.bucket_index qe 0.0);
  check Alcotest.int "q-error 0.3 in the second bucket" 1
    (Metric.bucket_index qe 0.3);
  check Alcotest.int "q-error 20 overflows" (Array.length qe)
    (Metric.bucket_index qe 20.0);
  (* the bounds arrays themselves must be strictly increasing, or le
     semantics silently misroute *)
  List.iter
    (fun (name, bounds) ->
      Array.iteri
        (fun i b ->
          if i > 0 then
            check Alcotest.bool
              (Printf.sprintf "%s strictly increasing at %d" name i)
              true
              (b > bounds.(i - 1)))
        bounds)
    [ ("latency", lat); ("size", size); ("qerror", qe) ]

(* --- quantile estimates -------------------------------------------------- *)

let test_quantile_pins () =
  let h = Metric.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] () in
  check Alcotest.bool "empty snapshot has nan quantile" true
    (Float.is_nan (Metric.quantile (Metric.snapshot h) 0.5));
  (* one observation per bucket: ranks are unambiguous *)
  List.iter (Metric.observe h) [ 0.5; 1.5; 3.0; 6.0 ];
  let snap = Metric.snapshot h in
  check Alcotest.int "count" 4 snap.Metric.count;
  check (Alcotest.float 1e-9) "sum" 11.0 snap.Metric.sum;
  check (Alcotest.float 1e-9) "max" 6.0 snap.Metric.max;
  (* rank 2 of 4 falls on the second bucket's upper bound *)
  check (Alcotest.float 1e-9) "median interpolates to the bucket bound" 2.0
    (Metric.quantile snap 0.5);
  (* the top quantile interpolates inside the last occupied bucket but
     never beyond the recorded maximum *)
  let q99 = Metric.quantile snap 0.99 in
  check Alcotest.bool "p99 within (4, max]" true (q99 > 4.0 && q99 <= 6.0);
  check (Alcotest.float 1e-9) "p100 is the recorded max" 6.0
    (Metric.quantile snap 1.0);
  (* a histogram holding a single repeated value must report that value
     for every quantile, not invent mass inside the bucket *)
  let h1 = Metric.histogram ~buckets:[| 1.0; 2.0 |] () in
  for _ = 1 to 10 do
    Metric.observe h1 0.0
  done;
  let s1 = Metric.snapshot h1 in
  check (Alcotest.float 1e-9) "all-zero median clamps to max" 0.0
    (Metric.quantile s1 0.5);
  (* overflow observations interpolate toward the recorded max *)
  let h2 = Metric.histogram ~buckets:[| 1.0 |] () in
  List.iter (Metric.observe h2) [ 5.0; 5.0 ];
  let s2 = Metric.snapshot h2 in
  check Alcotest.int "overflow bucket holds both" 2 s2.Metric.counts.(1);
  check (Alcotest.float 1e-9) "overflow p100 is the max" 5.0
    (Metric.quantile s2 1.0);
  (* NaN observations are dropped, not recorded *)
  Metric.observe h2 Float.nan;
  check Alcotest.int "nan dropped" 2 (Metric.snapshot h2).Metric.count

(* --- counters, gauges, the global switch --------------------------------- *)

let test_counter_gauge_switch () =
  let c = Metric.counter () in
  Metric.incr c;
  Metric.incr ~by:41 c;
  check Alcotest.int "counter accumulates" 42 (Metric.counter_value c);
  (match Metric.incr ~by:(-1) c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment accepted");
  let g = Metric.gauge () in
  Metric.set_gauge g 7.5;
  Metric.add_gauge g (-2.5);
  check (Alcotest.float 1e-9) "gauge set+add" 5.0 (Metric.gauge_value g);
  let h = Metric.histogram () in
  Metric.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metric.set_enabled true)
    (fun () ->
      Metric.incr c;
      Metric.set_gauge g 100.0;
      Metric.observe h 1.0;
      check Alcotest.int "disabled counter frozen" 42 (Metric.counter_value c);
      check (Alcotest.float 1e-9) "disabled gauge frozen" 5.0
        (Metric.gauge_value g);
      check Alcotest.int "disabled histogram frozen" 0
        (Metric.snapshot h).Metric.count);
  Metric.incr c;
  check Alcotest.int "re-enabled counter records" 43 (Metric.counter_value c)

(* --- registry rendering and linting -------------------------------------- *)

let test_registry_render () =
  let r = Registry.create () in
  let c = Registry.counter ~registry:r ~help:"Requests served" "t_requests" in
  Metric.incr ~by:3 c;
  let cl =
    Registry.counter ~registry:r
      ~labels:[ ("cmd", "query"); ("ok", "true") ]
      ~help:"Requests served" "t_requests"
  in
  Metric.incr cl;
  let g = Registry.gauge ~registry:r ~help:"In flight" "t_in_flight" in
  Metric.set_gauge g 2.0;
  Registry.gauge_fn ~registry:r ~help:"Computed" "t_uptime" (fun () -> 1.5);
  let h =
    Registry.histogram ~registry:r ~buckets:[| 0.1; 1.0 |]
      ~help:"Latency" "t_seconds"
  in
  List.iter (Metric.observe h) [ 0.05; 0.5; 5.0 ];
  let text = Registry.render ~registry:r () in
  let has needle =
    let lines = String.split_on_char '\n' text in
    List.exists (fun l -> l = needle) lines
  in
  List.iter
    (fun line -> check Alcotest.bool line true (has line))
    [
      "# TYPE t_requests counter";
      "# HELP t_requests Requests served";
      "t_requests 3";
      "t_requests{cmd=\"query\",ok=\"true\"} 1";
      "# TYPE t_in_flight gauge";
      "t_in_flight 2";
      "t_uptime 1.5";
      "# TYPE t_seconds histogram";
      "t_seconds_bucket{le=\"0.1\"} 1";
      "t_seconds_bucket{le=\"1\"} 2";
      "t_seconds_bucket{le=\"+Inf\"} 3";
      "t_seconds_count 3";
    ];
  (* the renderer's output must pass its own lint *)
  (match Registry.lint text with
  | Ok n -> check Alcotest.bool "lint counts samples" true (n >= 8)
  | Error e -> Alcotest.failf "self-lint failed: %s" e);
  (* label values are escaped, get-or-create returns the same cell *)
  let c2 =
    Registry.counter ~registry:r
      ~labels:[ ("ok", "true"); ("cmd", "query") ]
      ~help:"Requests served" "t_requests"
  in
  Metric.incr c2;
  check Alcotest.int "label order canonicalized" 2 (Metric.counter_value cl);
  (match
     Registry.gauge ~registry:r ~help:"clash" "t_requests"
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash accepted");
  (* the linter rejects what the renderer never emits *)
  let bad_lint text =
    match Registry.lint text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "lint accepted: %s" text
  in
  bad_lint "untyped_sample 1\n";
  bad_lint "# TYPE x counter\nx NaN\n";
  bad_lint "# TYPE x counter\nx 1\nx 2\n";
  bad_lint
    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
     h_sum 1\nh_count 3\n"

(* --- shard merge = single-threaded recording (qcheck) --------------------- *)

(* Recording the same multiset of observations from many domains and
   merging must equal recording them in one: the merge only ever sums
   shard-local state. Exercised across pool widths by the CI matrix
   (PREFDB_JOBS=1/2/4/8). *)
let prop_shard_merge =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sharded recording merges to sequential"
       ~count:30
       ~print:QCheck2.Print.(list int)
       QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 40))
       (fun values ->
         let buckets = [| 1.0; 4.0; 16.0 |] in
         let seq = Metric.histogram ~buckets () in
         List.iter (fun v -> Metric.observe seq (Float.of_int v)) values;
         let par = Metric.histogram ~buckets () in
         let arr = Array.of_list values in
         Core.Pool.parallel_for ~n:(Array.length arr) (fun ~worker:_ i ->
             Metric.observe par (Float.of_int arr.(i)));
         let a = Metric.snapshot seq and b = Metric.snapshot par in
         a.Metric.count = b.Metric.count
         && a.Metric.counts = b.Metric.counts
         && Float.equal a.Metric.sum b.Metric.sum
         && Float.equal a.Metric.max b.Metric.max))

let prop_counter_merge =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sharded counter merges to the exact total"
       ~count:30
       ~print:QCheck2.Print.(list int)
       QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 5))
       (fun incrs ->
         let c = Metric.counter () in
         let arr = Array.of_list incrs in
         Core.Pool.parallel_for ~n:(Array.length arr) (fun ~worker:_ i ->
             Metric.incr ~by:arr.(i) c);
         Metric.counter_value c = List.fold_left ( + ) 0 incrs))

(* --- serve end-to-end: scrape after a scripted mix ------------------------ *)

let mgr_text =
  {|relation Mgr(Name:name, Dept:name, Salary:int)
fd Dept -> Name Salary
tuple 'Mary' 'R&D' 40000  source=s1
tuple 'John' 'R&D' 10000  source=s2
tuple 'Mary' 'IT' 20000  source=s3
prefer source s1 > s3
|}

let temp_dir () =
  let path = Filename.temp_file "prefdb_metrics" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let counter_total ?labels name =
  match Registry.find_counter ?labels name with
  | Some c -> Metric.counter_value c
  | None -> 0

let hist_count ?labels name =
  match Registry.find_histogram ?labels name with
  | Some h -> (Metric.snapshot h).Metric.count
  | None -> 0

let test_serve_metrics_e2e () =
  let dir = temp_dir () in
  Result.get_ok (Dbio.Store.init dir (Result.get_ok (IF.parse mgr_text)));
  let config =
    {
      Shell.Server.request_timeout = 0.5;
      slow_query_ms = Some 0.0;
      slow_log = None;
    }
  in
  let server = Domain.spawn (fun () -> Shell.Server.serve ~config dir) in
  let rec await n =
    if n = 0 then Alcotest.fail "server did not come up"
    else if not (Shell.Server.ping dir) then begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  (* the registry is process-global and the server runs in-process, so
     totals are asserted as before/after differences *)
  let queries0 = counter_total ~labels:[ ("cmd", "query") ]
      "prefdb_serve_requests_total"
  and appends0 = counter_total "prefdb_wal_appends_total"
  and lat0 =
    hist_count ~labels:[ ("cmd", "query") ] "prefdb_serve_request_seconds"
  and timeouts0 = counter_total "prefdb_serve_connection_timeouts_total" in
  let request cmd =
    match Shell.Server.request dir cmd with
    | Ok out -> out
    | Error e -> Alcotest.failf "%s failed: %s" cmd e
  in
  ignore (request "query Mgr('Mary', d, s)");
  ignore (request "query Mgr('Mary', d, s)");
  ignore (request "plan Mgr(n, d, s)");
  ignore (request "insert 'Zed' 'PR' 7");
  (* the scrape itself: valid Prometheus exposition v0 *)
  let text = request "metrics" in
  (match Registry.lint text with
  | Ok n -> check Alcotest.bool "scrape lints" true (n > 50)
  | Error e -> Alcotest.failf "scrape failed lint: %s" e);
  List.iter
    (fun family ->
      check Alcotest.bool (family ^ " present in the exposition") true
        (let mem sub s =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         mem ("# TYPE " ^ family) text))
    [
      "prefdb_serve_requests_total";
      "prefdb_serve_request_seconds";
      "prefdb_serve_connections_total";
      "prefdb_wal_appends_total";
      "prefdb_wal_append_seconds";
      "prefdb_snapshot_save_seconds";
      "prefdb_store_generation";
      "prefdb_planner_plan_seconds";
      "prefdb_planner_qerror_log2";
      "prefdb_planner_fallback_total";
      "prefdb_pool_tasks_total";
      "prefdb_pool_domains";
      "prefdb_delta_batch_ops";
    ];
  check Alcotest.int "two query requests counted" (queries0 + 2)
    (counter_total ~labels:[ ("cmd", "query") ] "prefdb_serve_requests_total");
  check Alcotest.bool "insert journaled one WAL append" true
    (counter_total "prefdb_wal_appends_total" = appends0 + 1);
  check Alcotest.bool "request latency observed" true
    (hist_count ~labels:[ ("cmd", "query") ] "prefdb_serve_request_seconds"
     >= lat0 + 2);
  check Alcotest.bool "planner histograms fed" true
    (hist_count "prefdb_planner_plan_seconds" > 0);
  (* json framing carries the structured form *)
  (match Shell.Server.request_json dir "metrics" with
  | Ok resp -> (
    match Obs.Json.member "metrics" resp with
    | Some (Obs.Json.Obj _) -> ()
    | _ -> Alcotest.fail "json metrics field missing")
  | Error e -> Alcotest.failf "json metrics failed: %s" e);
  (* the slow-query log captured the over-threshold (0ms) queries,
     with the planner report embedded *)
  let slow = Shell.Server.slow_log_path dir in
  (match Shell.Slowlog.validate_file slow with
  | Ok n -> check Alcotest.bool "slow log has records" true (n >= 3)
  | Error e -> Alcotest.failf "slow log invalid: %s" e);
  let first_record =
    let data = In_channel.with_open_text slow In_channel.input_all in
    match String.split_on_char '\n' data with
    | line :: _ -> Result.get_ok (Obs.Json.of_string line)
    | [] -> Alcotest.fail "slow log empty"
  in
  (match Obs.Json.member "explain" first_record with
  | Some (Obs.Json.Obj _) -> ()
  | _ -> Alcotest.fail "slow record carries no explain report");
  (match Obs.Json.member "wall_ms" first_record with
  | Some _ -> ()
  | None -> Alcotest.fail "slow record carries no wall_ms");
  (* an abrupt disconnect mid-conversation must not kill the server *)
  let rude = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect rude (Unix.ADDR_UNIX (Shell.Server.socket_path dir));
  let line = "query Mgr('Mary', d, s)\n" in
  ignore (Unix.write_substring rude line 0 (String.length line));
  Unix.close rude;
  check Alcotest.bool "server survives a rude client" true
    (Shell.Server.ping dir);
  (* a silent connection is dropped at the configured timeout and
     counted, without blocking later clients *)
  let quiet = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect quiet (Unix.ADDR_UNIX (Shell.Server.socket_path dir));
  Unix.sleepf (config.Shell.Server.request_timeout +. 0.4);
  check Alcotest.bool "server answers after a quiet client" true
    (Shell.Server.ping dir);
  Unix.close quiet;
  check Alcotest.bool "quiet connection counted as timeout" true
    (counter_total "prefdb_serve_connection_timeouts_total" > timeouts0);
  (* a client trickling one byte every 0.2 s is never silent for the
     0.5 s socket timeout; the whole-line deadline must drop it *)
  let timeouts1 = counter_total "prefdb_serve_connection_timeouts_total" in
  let trickler = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect trickler (Unix.ADDR_UNIX (Shell.Server.socket_path dir));
  (* true once a write finds the connection closed; false when all
     [n] bytes (2 s, four deadlines) were accepted *)
  let rec trickle n =
    n > 0
    &&
    match Unix.write_substring trickler "q" 0 1 with
    | _ ->
      Unix.sleepf 0.2;
      trickle (n - 1)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> true
  in
  let dropped = trickle 10 in
  Unix.close trickler;
  check Alcotest.bool "trickling connection dropped" true dropped;
  check Alcotest.bool "trickling connection counted as timeout" true
    (counter_total "prefdb_serve_connection_timeouts_total" > timeouts1);
  check Alcotest.bool "next client's query answered after a trickler" true
    (String.length (request "query Mgr('Mary', d, s)") > 0);
  (* a client streaming past the request-size cap without a newline gets
     an error frame and a closed connection, and is counted *)
  let oversized0 = counter_total "prefdb_serve_oversized_requests_total" in
  let big = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect big (Unix.ADDR_UNIX (Shell.Server.socket_path dir));
  let chunk = String.make 65536 'x' in
  let rec stream sent =
    if sent <= Shell.Server.max_request_bytes + (4 * String.length chunk) then
      match Unix.write_substring big chunk 0 (String.length chunk) with
      | n -> stream (sent + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  stream 0;
  let reply =
    let buf = Buffer.create 64 and bytes = Bytes.create 4096 in
    let rec drain () =
      match Unix.read big bytes 0 (Bytes.length bytes) with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf bytes 0 n;
        drain ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Buffer.contents buf
    in
    drain ()
  in
  Unix.close big;
  check Alcotest.bool "oversized request answered with an error frame" true
    (String.length reply > 6 && String.sub reply 0 6 = "error ");
  check Alcotest.int "oversized request counted" (oversized0 + 1)
    (counter_total "prefdb_serve_oversized_requests_total");
  check Alcotest.bool "next client's query still answered" true
    (String.length (request "query Mgr('Mary', d, s)") > 0);
  (* enriched status: uptime, generation and request totals *)
  let status = request "status" in
  List.iter
    (fun needle ->
      let mem sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check Alcotest.bool ("status mentions " ^ needle) true (mem needle status))
    [ "up "; "generation"; "requests" ];
  ignore (request "shutdown");
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serve loop failed: %s" e);
  rm_rf dir

(* --- PREFDB_REQUEST_TIMEOUT validation ----------------------------------- *)

let test_env_request_timeout_validation () =
  let original = Sys.getenv_opt "PREFDB_REQUEST_TIMEOUT" in
  let set v = Unix.putenv "PREFDB_REQUEST_TIMEOUT" v in
  Fun.protect
    ~finally:(fun () -> set (Option.value original ~default:""))
    (fun () ->
      set "2.5";
      check Alcotest.bool "positive accepted" true
        (Shell.Server.env_request_timeout_error () = None);
      check Alcotest.bool "positive parsed" true
        (Shell.Server.env_request_timeout () = Some 2.5);
      set "0";
      check Alcotest.bool "zero rejected" true
        (Shell.Server.env_request_timeout_error () <> None);
      set "-1";
      check Alcotest.bool "negative rejected" true
        (Shell.Server.env_request_timeout_error () <> None);
      set "inf";
      check Alcotest.bool "infinite rejected" true
        (Shell.Server.env_request_timeout_error () <> None);
      set "soon";
      check Alcotest.bool "non-numeric rejected" true
        (Shell.Server.env_request_timeout_error () <> None);
      set "";
      check Alcotest.bool "unset/empty accepted" true
        (Shell.Server.env_request_timeout_error () = None))

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_index;
    Alcotest.test_case "histogram quantile pins" `Quick test_quantile_pins;
    Alcotest.test_case "counters, gauges, global switch" `Quick
      test_counter_gauge_switch;
    Alcotest.test_case "registry render + lint" `Quick test_registry_render;
    prop_shard_merge;
    prop_counter_merge;
    Alcotest.test_case "serve scrape end-to-end" `Quick test_serve_metrics_e2e;
    Alcotest.test_case "PREFDB_REQUEST_TIMEOUT validation" `Quick
      test_env_request_timeout_validation;
  ]
