open Relational
open Query

(* EXPLAIN: compile, execute, and render the physical plan with
   estimated vs. actual cardinalities. One report type feeds all three
   surfaces — the shell's [plan]/[explain] commands, [prefdb explain]
   and the serve protocol's text and JSON forms. *)

type outcome =
  | Holds of bool
  | Answers of string list * Value.t list list

type t = {
  mode : [ `Planned of Phys.plan | `Fallback of string ];
  outcome : outcome;
}

let run ?stats db q =
  let t0 = Obs.Span.now () in
  match Compile.compile ?stats db q with
  | Error reason ->
    Metrics.count_fallback reason;
    let outcome =
      if Ast.is_closed q then Holds (Eval.holds db q)
      else
        let free, rows = Eval.answers db q in
        Answers (free, rows)
    in
    { mode = `Fallback reason; outcome }
  | Ok plan ->
    Obs.Metric.observe Metrics.plan_seconds (Obs.Span.now () -. t0);
    let t1 = Obs.Span.now () in
    let outcome =
      match plan with
      | Phys.Bool b -> Holds (Phys.run_bool b)
      | Phys.Rows { free; root } ->
        let rows = List.map Tuple.values (Phys.rows root) in
        Answers (free, rows)
    in
    Obs.Metric.observe Metrics.execute_seconds (Obs.Span.now () -. t1);
    Metrics.record_qerrors plan;
    { mode = `Planned plan; outcome }

let pp_outcome ppf = function
  | Holds b -> Format.fprintf ppf "result: %s" (if b then "holds" else "fails")
  | Answers (free, rows) ->
    Format.fprintf ppf "result: %d answer row(s) over (%s)" (List.length rows)
      (String.concat ", " free)

let pp_plan_only ppf t =
  match t.mode with
  | `Planned plan ->
    Format.fprintf ppf "@[<v>plan:@,  @[<v>%a@]@]" Phys.pp_plan plan
  | `Fallback reason ->
    Format.fprintf ppf "plan: active-domain evaluation (fallback: %s)" reason

let pp ppf t =
  Format.fprintf ppf "%a@," pp_plan_only t;
  pp_outcome ppf t.outcome

let to_json t =
  let open Obs.Json in
  let mode, detail =
    match t.mode with
    | `Planned plan -> (Str "planned", [ ("plan", Phys.plan_to_json plan) ])
    | `Fallback reason -> (Str "fallback", [ ("reason", Str reason) ])
  in
  let outcome =
    match t.outcome with
    | Holds b -> [ ("holds", Bool b) ]
    | Answers (free, rows) ->
      [
        ("free", List (Stdlib.List.map (fun x -> Str x) free));
        ( "rows",
          List
            (Stdlib.List.map
               (fun row ->
                 List
                   (Stdlib.List.map
                      (fun v -> Str (Format.asprintf "%a" Value.pp v))
                      row))
               rows) );
      ]
  in
  Obj ((("mode", mode) :: detail) @ outcome)
