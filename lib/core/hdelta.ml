include Journal.Make (struct
  type substrate = Hyper.t
  type priority = Hpriority.t
  type decompose = Hdecompose.t
  type delta = Hyper.delta
  type config = unit

  let span = "hdelta.apply"
  let edge_noun = "hyperedge(s)"

  let batch_ops =
    Obs.Registry.histogram ~buckets:Obs.Metric.size_buckets
      ~help:"Operations per accepted hyper Delta batch"
      "prefdb_hyper_delta_batch_ops"

  let evictions = None
  let apply_delta = Hyper.apply_delta

  (* no rule to re-orient by: arcs only drop out, through a deleted
     endpoint or a hyperedge that died *)
  let update_priority () hyper p (delta : delta) =
    let dropped = Graphs.Vset.of_list delta.deleted in
    Result.map_error Hpriority.error_to_string
      (Hpriority.update hyper p ~dropped ~oriented:[])

  let make = Hdecompose.make
  let apply_decompose = Hdecompose.apply_delta
  let counters = Hdecompose.counters
  let relation = Hyper.relation
end)

let create ?(arcs = []) denials relation =
  match Hyper.build denials relation with
  | exception Invalid_argument e -> Error e
  | hyper -> (
    match Hpriority.of_arcs hyper arcs with
    | Error e -> Error (Hpriority.error_to_string e)
    | Ok priority -> Ok (make () hyper priority))

let hyper = substrate
