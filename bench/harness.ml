(* Timing and reporting utilities for the experiment harness.

   The paper has no empirical section; what we regenerate is the
   complexity landscape of Figure 5 plus the combinatorial facts behind
   Figures 1-4, so the harness reports (a) series of measured runtimes
   against instance size and (b) empirical growth diagnostics: a log-log
   slope for polynomial algorithms and a size-doubling ratio for
   exponential ones. *)

let now () = Unix.gettimeofday ()

(* Smoke mode (--quick): tiny calibration budget and fewer samples, so a
   full harness pass fits inside `dune runtest`. *)
let quick = ref false

(* The samples behind every median a measurement returned, keyed by the
   median's bits: [record] looks a row's median up here to write its
   spread (min, relative MAD, sample count) next to it, so a row says how
   far apart its own samples were without every section threading a
   sample list to [record]. *)
let spreads : (int64, float list) Hashtbl.t = Hashtbl.create 64

(* The upper median of an even count. *)
let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

(* The median of [xs], remembered with its samples for [record]. *)
let median_of xs =
  let m = median xs in
  Hashtbl.replace spreads (Int64.bits_of_float m) xs;
  m

(* Median seconds per run; each sample runs [f] enough times to dominate
   timer noise. *)
let measure ?samples f =
  let min_time = if !quick then 0.0005 else 0.02 in
  let samples =
    match samples with Some s -> s | None -> if !quick then 3 else 5
  in
  ignore (f ());
  (* warm-up *)
  let timed_batch () =
    let reps = ref 1 in
    let rec calibrate () =
      let t0 = now () in
      for _ = 1 to !reps do
        ignore (f ())
      done;
      let dt = now () -. t0 in
      if dt < min_time && !reps < 1_000_000 then begin
        reps := !reps * 4;
        calibrate ()
      end
      else dt /. float_of_int !reps
    in
    calibrate ()
  in
  median_of (List.init samples (fun _ -> timed_batch ()))

(* Cold-start median: one run per sample, each from a compacted heap.
   [measure] reports steady-state throughput — right for operations
   that repeat in a loop — but a bulk load happens once, at process
   start, on a quiet heap; measured back-to-back each run also pays
   the collection of its predecessor's hundred-megabyte result, which
   no real load ever does. Compaction runs between the samples,
   outside the timed window. The warm-up run plus one discarded
   compacted run drain allocation debt predating the first sample. *)
let measure_cold ?samples f =
  let samples =
    match samples with Some s -> s | None -> if !quick then 3 else 5
  in
  ignore (f ());
  Gc.compact ();
  ignore (f ());
  let sample () =
    Gc.compact ();
    let t0 = now () in
    ignore (f ());
    now () -. t0
  in
  median_of (List.init samples (fun _ -> sample ()))

(* Least-squares slope of log t against log n: the empirical polynomial
   degree. *)
let loglog_slope points =
  let logs =
    List.filter_map
      (fun (n, t) ->
        if n > 0 && t > 0. then Some (log (float_of_int n), log t) else None)
      points
  in
  let k = float_of_int (List.length logs) in
  if List.length logs < 2 then nan
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. logs in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. logs in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. logs in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. logs in
    ((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx))
  end

(* Geometric-mean ratio t(n_{i+1}) / t(n_i): ~2 per unit step signals 2^n
   growth when sizes step by 1. *)
let step_ratio points =
  let rec ratios = function
    | (_, t1) :: ((_, t2) :: _ as rest) when t1 > 0. ->
      (t2 /. t1) :: ratios rest
    | _ :: rest -> ratios rest
    | [] -> []
  in
  match ratios points with
  | [] -> nan
  | rs ->
    exp (List.fold_left (fun a r -> a +. log r) 0. rs /. float_of_int (List.length rs))

let pp_time ppf seconds =
  if seconds < 1e-6 then Format.fprintf ppf "%8.1f ns" (seconds *. 1e9)
  else if seconds < 1e-3 then Format.fprintf ppf "%8.2f us" (seconds *. 1e6)
  else if seconds < 1. then Format.fprintf ppf "%8.2f ms" (seconds *. 1e3)
  else Format.fprintf ppf "%8.3f s " seconds

let section id title =
  Format.printf "@.============================================================@.";
  Format.printf "[%s] %s@." id title;
  Format.printf "============================================================@."

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* A simple aligned table printer. *)
let table ~header rows =
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w cell -> max w (String.length cell)) ws row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    Format.printf "  ";
    List.iter2 (fun w cell -> Format.printf "%-*s  " w cell) widths row;
    Format.printf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let time_cell t = Format.asprintf "%a" pp_time t

(* --- telemetry integration ----------------------------------------------- *)

(* Per-span wall-clock breakdown of ONE run of [f] under a private
   in-memory sink: (span name, inclusive seconds, outermost occurrence
   count), decreasing time. The previous sink (if any) is restored
   afterwards, also when [f] raises. Runs outside the timing loops —
   the breakdown annotates a bench row, it never contaminates the
   measured medians. *)
let phase_breakdown f =
  let buf = Obs.Sink.Memory.create () in
  let prev = Obs.Span.sink () in
  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
  (match f () with
  | _ -> Obs.Span.set_sink prev
  | exception e ->
    Obs.Span.set_sink prev;
    raise e);
  Obs.Profile.flat (Obs.Profile.tree (Obs.Sink.Memory.events buf))

(* --- machine-readable output -------------------------------------------- *)

(* One row of a BENCH_*.json file, whatever the section. [median] is the
   live side; a [baseline] (label, median) — the seed kernel, the
   evaluator, the full rebuild, the 1-domain run — adds a
   "<label>_median_s" column and the derived "speedup" = baseline /
   median. [phases] is the per-span breakdown of one run (from
   {!phase_breakdown}); [fields] are further typed columns (sizes, sink
   medians, overhead ratios). [domains] is the pool width the row was
   measured at. *)
type row = {
  name : string;
  median : float;
  samples : float list;
  baseline : (string * float) option;
  phases : (string * float * int) list;
  note : string;
  fields : (string * Obs.Json.t) list;
  domains : int;
}

type file = { path : string; experiment : string; mutable rows : row list }

let files : file list ref = ref []

(* A BENCH file that sections record rows against; [write_all] writes
   every declared file that received rows, i.e. whose section ran. *)
let file ~experiment path =
  let f = { path; experiment; rows = [] } in
  files := f :: !files;
  f

(* [domains] defaults to the pool width active when the row is recorded;
   the PAR section sweeps the width and passes it explicitly. [samples]
   defaults to the ones {!median_of} remembered for [median]; a figure no
   measurement returned stands alone, as one sample. *)
let record file ~name ?baseline ?(phases = []) ?(fields = []) ?domains
    ?samples ~note median =
  let domains = match domains with Some d -> d | None -> Core.Pool.jobs () in
  let samples =
    match samples with
    | Some xs -> xs
    | None ->
      Option.value ~default:[ median ]
        (Hashtbl.find_opt spreads (Int64.bits_of_float median))
  in
  file.rows <-
    { name; median; samples; baseline; phases; note; fields; domains }
    :: file.rows

(* Seconds to the nanosecond and ratios to three places, so the
   committed files diff readably; a non-finite value is JSON null. *)
let seconds s = Obs.Json.Float (Float.round (s *. 1e9) /. 1e9)
let ratio x = Obs.Json.Float (Float.round (x *. 1000.) /. 1000.)

(* Medians recorded in the committed copy of [path] before this run
   overwrites it, keyed by row name — so every row carries its own
   before/after pair and a regression is visible in the diff of a single
   file. Missing/unparseable files (first run, format changes) degrade
   to no [previous_median_s] fields, not an error. *)
let previous_medians path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
    match Obs.Json.of_string text with
    | Error _ -> []
    | Ok json -> (
      match Obs.Json.member "benchmarks" json with
      | Some (Obs.Json.List rows) ->
        List.filter_map
          (fun row ->
            match
              ( Obs.Json.member "name" row,
                Option.bind (Obs.Json.member "median_s" row)
                  Obs.Json.to_float_opt )
            with
            | Some (Obs.Json.Str n), Some v -> Some (n, v)
            | _ -> None)
          rows
      | _ -> []))

(* Host/runtime provenance appended to EVERY benchmark row: a scaling or
   speedup claim is meaningless without the core count and domain count
   it was measured under, and a single-core CI box must be legible as
   such in the committed JSON. Estimate quality rides along too: the
   planner's q-error histogram summarizes |log2(est/actual)| over every
   plan operator executed so far in this process, so BENCH_plan.json
   (and any other section that ran planned queries) tracks misestimates
   over time, not just wall time. Empty until a planned query ran. *)
let env_fields ~domains =
  let qerror =
    match Planner.Metrics.qerror_summary () with
    | None -> []
    | Some (median, max, count) ->
      [
        ("qerror_median_log2", ratio median);
        ("qerror_max_log2", ratio max);
        ("qerror_operators", Obs.Json.Int count);
      ]
  in
  [
    ("host_cores", Obs.Json.Int (Domain.recommended_domain_count ()));
    ("domains", Obs.Json.Int domains);
    ("ocaml", Obs.Json.Str Sys.ocaml_version);
  ]
  @ qerror

let row_json ~previous r =
  let baseline =
    match r.baseline with
    | Some (label, b) ->
      [ (label ^ "_median_s", seconds b); ("speedup", ratio (b /. r.median)) ]
    | None -> []
  in
  let previous =
    match List.assoc_opt r.name previous with
    | Some v -> [ ("previous_median_s", seconds v) ]
    | None -> []
  in
  let phases =
    let one (name, s, count) =
      Obs.Json.Obj
        [ ("name", Obs.Json.Str name); ("seconds", seconds s);
          ("count", Obs.Json.Int count) ]
    in
    if r.phases = [] then []
    else [ ("phases", Obs.Json.List (List.map one r.phases)) ]
  in
  (* the spread of the row's own samples: the fastest one, and the median
     absolute deviation from the median relative to the median *)
  let spread =
    let mad = median (List.map (fun x -> Float.abs (x -. r.median)) r.samples) in
    [
      ("min_s", seconds (List.fold_left Float.min infinity r.samples));
      ("mad_rel", ratio (if r.median > 0. then mad /. r.median else 0.));
      ("samples", Obs.Json.Int (List.length r.samples));
    ]
  in
  Obs.Json.Obj
    ([ ("name", Obs.Json.Str r.name); ("median_s", seconds r.median) ]
    @ spread @ baseline @ r.fields
    @ [ ("note", Obs.Json.Str r.note) ]
    @ previous @ phases
    @ env_fields ~domains:r.domains)

(* The harness's own check on what it wrote: the file parses, and every
   row has a string name and a finite median. *)
let validate path =
  let ok_row row =
    match
      ( Obs.Json.member "name" row,
        Option.bind (Obs.Json.member "median_s" row) Obs.Json.to_float_opt )
    with
    | Some (Obs.Json.Str _), Some m -> Float.is_finite m
    | _ -> false
  in
  match
    Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all)
  with
  | Error e -> Error ("does not parse: " ^ e)
  | Ok json -> (
    match Obs.Json.member "benchmarks" json with
    | Some (Obs.Json.List rows) -> (
      match List.find_opt (fun row -> not (ok_row row)) rows with
      | None -> Ok ()
      | Some row ->
        Error
          ("row without a string name or a finite median_s: "
          ^ Obs.Json.to_string row))
    | _ -> Error "no \"benchmarks\" list")

(* One row per line, so the committed files diff row by row. Exits 1
   when a written file fails {!validate}. *)
let write_all () =
  List.iter
    (fun f ->
      if f.rows <> [] then begin
        let previous = previous_medians f.path in
        let rows =
          List.rev_map
            (fun r -> "    " ^ Obs.Json.to_string (row_json ~previous r))
            f.rows
        in
        Out_channel.with_open_text f.path (fun oc ->
            Printf.fprintf oc
              "{\n\
              \  \"experiment\": %s,\n\
              \  \"quick\": %b,\n\
              \  \"benchmarks\": [\n%s\n  ]\n}\n"
              (Obs.Json.to_string (Obs.Json.Str f.experiment))
              !quick (String.concat ",\n" rows));
        match validate f.path with
        | Ok () -> Format.printf "  %s written.@." f.path
        | Error e ->
          Format.eprintf "%s: %s@." f.path e;
          exit 1
      end)
    (List.rev !files)
