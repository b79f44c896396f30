open Relational
open Query

(* The planning query engine: cost-based compiler with evaluator
   fallback; [Query.Eval] is both the fallback and the equivalence
   oracle the tests check it against. The [holds]/[answers] pair wraps planning and execution in spans for
   per-phase breakdowns; the [_relation] pair is the per-repair hot
   path and stays span-free. *)

let run_plan = function
  | Phys.Bool b -> ([], if Phys.run_bool b then [ [] ] else [])
  | Phys.Rows { free; root } ->
    ( free,
      List.map Tuple.values (Relation.tuples (Phys.exec root)) )

let holds ?stats db q =
  match Compile.compile ?stats db q with
  | Error reason ->
    Metrics.count_fallback reason;
    Eval.holds db q
  | Ok (Phys.Bool b) -> Phys.run_bool b
  | Ok (Phys.Rows _) ->
    (* open query: raise exactly as the evaluator does *)
    Eval.holds db q

let answers ?stats db q =
  match Compile.compile ?stats db q with
  | Error reason ->
    Metrics.count_fallback reason;
    Eval.answers db q
  | Ok plan -> run_plan plan

(* The spanned entry points also feed the metrics histograms: phase
   latencies around the same boundaries as the spans, and the q-error
   walk over whatever actual cardinalities the execution recorded. *)
let timed hist f =
  let t0 = Obs.Span.now () in
  let r = f () in
  Obs.Metric.observe hist (Obs.Span.now () -. t0);
  r

let holds_spanned ?stats db q =
  match
    timed Metrics.plan_seconds @@ fun () ->
    Obs.Span.with_span "planner.plan" (fun () -> Compile.compile ?stats db q)
  with
  | Error reason ->
    Metrics.count_fallback reason;
    Eval.holds db q
  | Ok (Phys.Bool b as plan) ->
    let r =
      timed Metrics.execute_seconds @@ fun () ->
      Obs.Span.with_span "planner.execute" (fun () -> Phys.run_bool b)
    in
    Metrics.record_qerrors plan;
    r
  | Ok (Phys.Rows _) -> Eval.holds db q

let answers_spanned ?stats db q =
  match
    timed Metrics.plan_seconds @@ fun () ->
    Obs.Span.with_span "planner.plan" (fun () -> Compile.compile ?stats db q)
  with
  | Error reason ->
    Metrics.count_fallback reason;
    Eval.answers db q
  | Ok plan ->
    let r =
      timed Metrics.execute_seconds @@ fun () ->
      Obs.Span.with_span "planner.execute" (fun () -> run_plan plan)
    in
    Metrics.record_qerrors plan;
    r

let as_db r = Database.of_relations [ r ]
let holds_relation ?stats r q = holds ?stats (as_db r) q
let answers_relation ?stats r q = answers ?stats (as_db r) q
let planned ?stats db q = Compile.supported ?stats db q
