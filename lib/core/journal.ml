(* The update handle shared by [Delta] and [Hdelta]: a batch of inserts
   and deletes flows through the substrate's [apply_delta], the
   priority update and the sharded engine's [apply_delta]; every
   accepted batch pushes its inverse, so [undo] is an ordinary batch
   replayed backwards. [Make] is applied once per conflict substrate. *)

open Relational

type op = Insert of Tuple.t | Delete of Tuple.t

type report = {
  inserted : int;
  deleted : int;
  edges_added : int;
  edges_removed : int;
  components_dirtied : int;
  cache_evicted : int;
  cache_retained : int;
}

let split ops =
  let ins, del =
    List.fold_left
      (fun (ins, del) -> function
        | Insert x -> (x :: ins, del)
        | Delete x -> (ins, x :: del))
      ([], []) ops
  in
  (List.rev ins, List.rev del)

(* What undoes an accepted batch: its inserts deleted, its deletes
   re-inserted (under fresh ids, as any insertion). *)
let inverse ops =
  let insert, delete = split ops in
  List.map (fun x -> Delete x) insert @ List.map (fun x -> Insert x) delete

module Make (L : sig
  type substrate
  type priority
  type decompose
  type delta

  type config
  (** what the priority update needs besides the delta *)

  val span : string
  val edge_noun : string
  val batch_ops : Obs.Metric.histogram
  val evictions : Obs.Metric.counter option

  val apply_delta :
    substrate ->
    insert:Tuple.t list ->
    delete:Tuple.t list ->
    (substrate * delta, string) result

  val update_priority :
    config -> substrate -> priority -> delta -> (priority, string) result
  (** [substrate] is the updated structure *)

  val make : substrate -> priority -> decompose
  val apply_decompose : decompose -> substrate -> priority -> delta -> decompose
  val counters : decompose -> Sharded.counters
  val relation : substrate -> Relation.t
end) =
struct
  type nonrec op = op = Insert of Tuple.t | Delete of Tuple.t

  type nonrec report = report = {
    inserted : int;
    deleted : int;
    edges_added : int;
    edges_removed : int;
    components_dirtied : int;
    cache_evicted : int;
    cache_retained : int;
  }

  type t = {
    config : L.config;
    mutable substrate : L.substrate;
    mutable priority : L.priority;
    mutable decompose : L.decompose;
    mutable history : op list list;  (* inverse batches, most recent first *)
    mutable colstats : Planner.Stats.t option;
        (* exact column statistics, built on first demand and patched in
           place by every subsequent batch (undo included) *)
  }

  (* [history] hands over inverse batches reconstructed elsewhere (a
     store's journal replay); the caller vouches that each re-applies
     in turn. *)
  let make ?(history = []) config substrate priority =
    {
      config;
      substrate;
      priority;
      decompose = L.make substrate priority;
      history;
      colstats = None;
    }

  (* One batch through every layer; caller handles history. All layers
     validate before mutating anything, so an [Error] leaves [t] as it
     was. *)
  let apply_batch t ops =
    Obs.Span.with_span L.span
      ~args:[ ("ops", Obs.Event.Int (List.length ops)) ]
    @@ fun () ->
    let insert, delete = split ops in
    match L.apply_delta t.substrate ~insert ~delete with
    | Error e -> Error e
    | Ok (substrate, delta) -> (
      match L.update_priority t.config substrate t.priority delta with
      | Error e -> Error e
      | Ok priority ->
        let before = L.counters t.decompose in
        let decompose = L.apply_decompose t.decompose substrate priority delta in
        let after = L.counters decompose in
        t.substrate <- substrate;
        t.priority <- priority;
        t.decompose <- decompose;
        (* the batch was accepted in full, so the statistics patch sees
           exactly the tuples the relation applied *)
        Option.iter
          (fun s -> Planner.Stats.patch s ~delete ~insert)
          t.colstats;
        let evicted = after.cache_evicted - before.cache_evicted in
        Obs.Metric.observe L.batch_ops (Float.of_int (List.length ops));
        Option.iter (Obs.Metric.incr ~by:evicted) L.evictions;
        Ok
          {
            (* an accepted batch applied every listed tuple *)
            inserted = List.length insert;
            deleted = List.length delete;
            edges_added = after.edges_added - before.edges_added;
            edges_removed = after.edges_removed - before.edges_removed;
            components_dirtied =
              after.components_dirtied - before.components_dirtied;
            cache_evicted = evicted;
            cache_retained = after.cache_retained - before.cache_retained;
          })

  let apply t ops =
    match apply_batch t ops with
    | Error e -> Error e
    | Ok report ->
      t.history <- inverse ops :: t.history;
      Ok report

  let undo t =
    match t.history with
    | [] -> Error "nothing to undo"
    | inverse :: rest -> (
      match apply_batch t inverse with
      | Error e -> Error e (* unreachable for inverses of accepted batches *)
      | Ok report ->
        t.history <- rest;
        Ok report)

  let history_depth t = List.length t.history
  let drop_history t = t.history <- []
  let substrate t = t.substrate
  let priority t = t.priority
  let decompose t = t.decompose
  let relation t = L.relation t.substrate

  let column_stats t =
    match t.colstats with
    | Some s -> s
    | None ->
      let s = Planner.Stats.scan (relation t) in
      t.colstats <- Some s;
      s

  let stats_lookup t =
    let name = Schema.name (Relation.schema (relation t)) in
    fun r -> if String.equal r name then Some (column_stats t) else None

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<v>applied:                +%d tuple(s), -%d tuple(s) (%d %s \
       added, %d removed)@,\
       invalidation:           %d component(s) dirtied; cache %d evicted, %d \
       retained@]"
      r.inserted r.deleted r.edges_added L.edge_noun r.edges_removed
      r.components_dirtied r.cache_evicted r.cache_retained
end
