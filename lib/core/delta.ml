include Journal.Make (struct
  type substrate = Conflict.t
  type priority = Priority.t
  type decompose = Decompose.t
  type delta = Conflict.delta
  type config = Pref_rules.rule

  let span = "delta.apply"
  let edge_noun = "conflict edge(s)"

  let batch_ops =
    Obs.Registry.histogram ~buckets:Obs.Metric.size_buckets
      ~help:"Operations per accepted Delta batch" "prefdb_delta_batch_ops"

  let evictions =
    Some
      (Obs.Registry.counter
         ~help:"Decompose component caches evicted by Delta batches"
         "prefdb_decompose_cache_evictions_total")

  let apply_delta = Conflict.apply_delta

  (* re-orient only the new edges; arcs of tombstoned tuples drop out *)
  let update_priority rule conflict p (delta : delta) =
    let oriented = Pref_rules.orient conflict rule delta.edges_added in
    let dropped = Graphs.Vset.of_list delta.deleted in
    Result.map_error Priority.error_to_string
      (Priority.update conflict p ~dropped ~oriented)

  let make = Decompose.make
  let apply_decompose = Decompose.apply_delta
  let counters = Decompose.counters
  let relation = Conflict.relation
end)

let create ?(rule = fun _ _ -> false) ?history fds relation =
  match Conflict.build fds relation with
  | exception Invalid_argument e -> Error e
  | conflict -> (
    match Pref_rules.apply conflict rule with
    | Error e -> Error e
    | Ok priority -> Ok (make ?history rule conflict priority))

let conflict = substrate
let inverse = Journal.inverse
let split = Journal.split
