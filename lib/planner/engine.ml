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
      List.map Tuple.values (Phys.rows root) )

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

(* The columns a plan can read postings of (see [prepare] in the mli):
   a variable compared only with another variable is filtered after the
   scan, and one the query only binds is scanned, so neither column is
   ever probed. *)
let probed_columns r q =
  let schema = Relation.schema r in
  let name = Schema.name schema and arity = Schema.arity schema in
  let atoms = ref [] and compared = Hashtbl.create 8 in
  let rec walk = function
    | Ast.True | Ast.False -> ()
    | Ast.Atom (n, ts) ->
      if n = name && List.length ts = arity then atoms := ts :: !atoms
    | Ast.Cmp (Ast.Neq, _, _) -> ()
    | Ast.Cmp (_, Ast.Var x, Ast.Const _) | Ast.Cmp (_, Ast.Const _, Ast.Var x) ->
      Hashtbl.replace compared x ()
    | Ast.Cmp _ -> ()
    | Ast.Not f | Ast.Exists (_, f) | Ast.Forall (_, f) -> walk f
    | Ast.And (f, g) | Ast.Or (f, g) | Ast.Implies (f, g) ->
      walk f;
      walk g
  in
  walk q;
  (* per variable, the number of atoms it occurs in *)
  let atoms_of = Hashtbl.create 8 in
  List.iter
    (fun ts ->
      List.filter_map (function Ast.Var x -> Some x | Ast.Const _ -> None) ts
      |> List.sort_uniq String.compare
      |> List.iter (fun x ->
             Hashtbl.replace atoms_of x
               (1 + Option.value (Hashtbl.find_opt atoms_of x) ~default:0)))
    !atoms;
  let cols = ref [] in
  List.iter
    (List.iteri (fun i t ->
         match t with
         | Ast.Const _ -> cols := i :: !cols
         | Ast.Var x ->
           if Hashtbl.mem compared x || Hashtbl.find atoms_of x > 1 then
             cols := i :: !cols))
    !atoms;
  List.sort_uniq compare !cols

let prepare r q =
  Relation.prepare_lookup r;
  List.iter (Relation.prepare_column r) (probed_columns r q)

let as_db r = Database.of_relations [ r ]
let holds_relation ?stats r q = holds ?stats (as_db r) q
let answers_relation ?stats r q = answers ?stats (as_db r) q
let planned ?stats db q = Compile.supported ?stats db q
