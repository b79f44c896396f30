(* The component-sharded CQA engine, written once over a conflict
   substrate.

   Conflicts never leave a connected component of the conflict
   structure, and every preferred-repair family factorizes over
   components, so the engine below — component discovery, the
   free-vertex set, the slot-stable component array, the
   [(family, slot)] repair cache, the Pool-parallel warm, the ground
   clause engine, the deviation scan and full-product pass, and
   slot-stable [apply_delta] — needs only a handful of per-vertex and
   per-component operations from the structure underneath. [SUBSTRATE]
   names them. [Decompose] applies [Make] to the binary conflict graph
   ([Conflict]/[Priority]/[Family]) and [Hdecompose] to the conflict
   hypergraph of denial constraints ([Hyper]/[Hpriority]/[Hfamily]).

   A functor rather than a first-class module: both compile substrate
   calls to indirect calls without flambda, and the functor keeps each
   instance's own [t], family type and empty-family exception. *)

open Relational
open Graphs

(* The observability counters every instance shares, in a submodule so
   that [Make] can re-export the record with its fields. *)
module Counters = struct
  type counters = {
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable component_repairs : int;
    mutable combos_streamed : int;
    mutable components_examined : int;
    mutable early_exits : int;
    mutable deltas_applied : int;
    mutable edges_added : int;
    mutable edges_removed : int;
    mutable components_dirtied : int;
    mutable cache_evicted : int;
    mutable cache_retained : int;
  }

  let fresh_counters () =
    {
      cache_hits = 0;
      cache_misses = 0;
      component_repairs = 0;
      combos_streamed = 0;
      components_examined = 0;
      early_exits = 0;
      deltas_applied = 0;
      edges_added = 0;
      edges_removed = 0;
      components_dirtied = 0;
      cache_evicted = 0;
      cache_retained = 0;
    }

  (* Parallel jobs shard their counting into per-lane records and the
     submitting domain folds the shards back in after the join, so the
     shared record is only ever mutated by one domain. Integer addition
     commutes, so the merged totals are independent of scheduling. *)
  let merge_counters dst z =
    dst.cache_hits <- dst.cache_hits + z.cache_hits;
    dst.cache_misses <- dst.cache_misses + z.cache_misses;
    dst.component_repairs <- dst.component_repairs + z.component_repairs;
    dst.combos_streamed <- dst.combos_streamed + z.combos_streamed;
    dst.components_examined <- dst.components_examined + z.components_examined;
    dst.early_exits <- dst.early_exits + z.early_exits;
    dst.deltas_applied <- dst.deltas_applied + z.deltas_applied;
    dst.edges_added <- dst.edges_added + z.edges_added;
    dst.edges_removed <- dst.edges_removed + z.edges_removed;
    dst.components_dirtied <- dst.components_dirtied + z.components_dirtied;
    dst.cache_evicted <- dst.cache_evicted + z.cache_evicted;
    dst.cache_retained <- dst.cache_retained + z.cache_retained

  (* [a - b], field by field: what was spent between two snapshots *)
  let diff_counters a b =
    {
      cache_hits = a.cache_hits - b.cache_hits;
      cache_misses = a.cache_misses - b.cache_misses;
      component_repairs = a.component_repairs - b.component_repairs;
      combos_streamed = a.combos_streamed - b.combos_streamed;
      components_examined = a.components_examined - b.components_examined;
      early_exits = a.early_exits - b.early_exits;
      deltas_applied = a.deltas_applied - b.deltas_applied;
      edges_added = a.edges_added - b.edges_added;
      edges_removed = a.edges_removed - b.edges_removed;
      components_dirtied = a.components_dirtied - b.components_dirtied;
      cache_evicted = a.cache_evicted - b.cache_evicted;
      cache_retained = a.cache_retained - b.cache_retained;
    }

  let pp_counters ppf z =
    Format.fprintf ppf
      "@[<v>component cache:        %d hit(s), %d miss(es), %d repair(s) \
       materialized@,\
       streamed:               %d repair combination(s)@,\
       components examined:    %d (%d early exit(s))"
      z.cache_hits z.cache_misses z.component_repairs z.combos_streamed
      z.components_examined z.early_exits;
    (* the delta lines appear only once updates have actually flowed, so
       output for the static pipeline is unchanged *)
    if z.deltas_applied > 0 then
      Format.fprintf ppf
        "@,\
         deltas applied:         %d (%d edge(s) added, %d removed)@,\
         delta invalidation:     %d component(s) dirtied, %d cache \
         entr(ies) evicted, %d retained"
        z.deltas_applied z.edges_added z.edges_removed z.components_dirtied
        z.cache_evicted z.cache_retained;
    Format.fprintf ppf "@]"
end

include Counters

(* What [explain] and [tuple_status] return, declared outside [Make] as
   [Counters] is, so that both instances share one record type. *)
module Explanations = struct
  type verdict = {
    certainty : Cqa.certainty;
    supporting : Vset.t option;  (** a preferred repair satisfying the query *)
    refuting : Vset.t option;  (** a preferred repair falsifying it *)
  }

  type tuple_status = {
    tuple : Tuple.t;
    conflicts_with : Tuple.t list;  (** its conflict neighbourhood *)
    dominated_by : Tuple.t list;  (** tuples preferred over it *)
    dominates : Tuple.t list;  (** tuples it is preferred over *)
    in_all : bool;  (** member of every preferred repair *)
    in_some : bool;  (** member of at least one preferred repair *)
  }
end

include Explanations

(* What [summary] and [qtrace] return, shared by both instances for the
   same reason. *)
module Reports = struct
  type summary = {
    tuples : int;  (** live tuples *)
    conflicting_tuples : int;  (** tuples in some conflict *)
    components : int;  (** conflict components, a free tuple counting as one *)
    nontrivial_components : int;  (** components with ≥ 2 tuples *)
    largest_component : int;
    conflict_edges : int;  (** conflict edges, or hyperedges *)
    oriented_arcs : int;  (** priority arcs *)
    unoriented_pairs : int;  (** conflicting pairs the priority leaves open *)
    repair_count : int;  (** |Rep|, saturating at [max_int] *)
    preferred_count : int;  (** the family's count, saturating *)
    certain : int;  (** tuples in every preferred repair *)
    disputed : int;  (** tuples in some but not all *)
    excluded : int;  (** tuples in no preferred repair *)
    fate_counters : counters;  (** spent deciding the tuple fates *)
    lifetime : counters;
        (** lifetime snapshot; its delta fields describe every update
            folded into the engine so far *)
  }

  type qtrace = {
    verdict : Cqa.certainty;
    query_counters : counters;  (** spent on this query alone *)
    maintenance : counters;  (** lifetime snapshot, taken after the query *)
    slot_repairs : int list;
        (** the family's repair count of each covered component, in slot
            order; their product is the family's size *)
    free_tuples : int;
        (** conflict-free tuples: one component and one repair each *)
    largest : int;  (** the largest component's size *)
  }
end

include Reports

(* repair counts multiply across components and overflow [int] long before
   they overflow anyone's patience: saturate instead of wrapping. Both
   arguments are >= 0, 0 annihilates and saturation triggers exactly when
   the true product exceeds [max_int], so the fold is order-independent —
   safe to combine in any schedule. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

(* What the engine needs from a conflict structure. Vertex ids are the
   relation's fact ids; tombstoned ids stay allocated ([size]) but leave
   [live]. *)
module type SUBSTRATE = sig
  type t
  type delta

  val kind : string
  (** the [substrate] argument of the engine's spans *)

  val size : t -> int
  val live : t -> Vset.t
  val is_live : t -> int -> bool

  val neighbors : t -> int -> Vset.t
  (** vertices sharing a conflict with the given one *)

  val edge_count : t -> int
  (** conflict edges, or hyperedges *)

  val is_covered : t -> int -> bool
  (** Is the vertex in some conflict? A vertex in none is {e free}: it
      belongs to every repair. A hyperedge [{v}] covers [v] without
      giving it a neighbour, so this is not [neighbors <> ∅]. [make]
      applies it to the structure once and the result to every vertex,
      so an instance may hoist its lookups out of the per-vertex
      test. *)

  val sub_instance : t -> Vset.t -> t
  (** The structure rebuilt over one component's tuples; vertex [i] of
      the result is the component's [i]-th smallest id. *)

  val to_relation : t -> Vset.t -> Relation.t
  val schema : t -> Schema.t
  val index : t -> Tuple.t -> int option
  val index_exn : t -> Tuple.t -> int
  val tuple : t -> int -> Tuple.t

  val inserted : delta -> int list
  val deleted : delta -> int list
  val edges_added : delta -> int
  val edges_removed : delta -> int

  val iter_edge_vertices : delta -> (int -> unit) -> unit
  (** every vertex of every added or removed edge *)

  type substrate := t

  module Priority : sig
    type t

    val dominated : t -> int -> Vset.t
    val dominators : t -> int -> Vset.t
    val of_arcs_exn : substrate -> (int * int) list -> t
    val arc_count : t -> int

    val unoriented : substrate -> t -> (int * int) list
    (** the conflicting pairs no arc orients *)
  end

  module Family : sig
    type name

    val rep : name
    (** all repairs, unfiltered by the priority *)

    val name_to_string : name -> string
    val repairs : name -> substrate -> Priority.t -> Vset.t list
    val iter : name -> substrate -> Priority.t -> (Vset.t -> unit) -> unit
  end

  exception Empty_family of Family.name
end

module Make (S : SUBSTRATE) = struct
  include Counters
  include Explanations
  include Reports

  type t = {
    substrate : S.t;
    priority : S.Priority.t;
    components : Vset.t array;
        (* covered components only, indexed by component SLOT, so
           [component_of] is O(1). Slots are stable across [apply_delta]:
           an untouched component keeps its slot (and so its [comp_index]
           entries and cache keys), a dirtied one frees it for reuse.
           [Vset.empty] marks a free slot — every consumer iterating this
           array skips empties. *)
    free : Vset.t;
        (* live uncovered vertices, aggregated into ONE set instead of
           one singleton component each. A dense [Vset.singleton v] costs
           O(v) words, so materializing a million singleton components
           would be quadratic in the instance; the free set makes clean
           tuples O(1) amortized everywhere. A free vertex belongs to
           every repair, so it contributes factor 1 to every product and a
           fixed summand to every aggregate. *)
    comp_index : int array;
        (* slot of the vertex's component; -1 = free or tombstoned *)
    cache : (S.Family.name * int, Vset.t list) Hashtbl.t;
        (* (family, component slot) -> preferred repairs in original ids *)
    counters : counters;
  }

  let substrate_arg = ("substrate", Obs.Event.Str S.kind)

  let family_arg family = ("family", Obs.Event.Str (S.Family.name_to_string family))

  let component_args family comp =
    [ family_arg family; ("size", Obs.Event.Int (Vset.cardinal comp)); substrate_arg ]

  (* The connected component of [v], by frontier expansion. *)
  let grow_from sub v =
    let rec grow frontier comp =
      if Vset.is_empty frontier then comp
      else begin
        let comp = Vset.union comp frontier in
        let next =
          Vset.fold
            (fun u acc -> Vset.union acc (S.neighbors sub u))
            frontier Vset.empty
        in
        grow (Vset.diff next comp) comp
      end
    in
    grow (Vset.singleton v) Vset.empty

  let make sub priority =
    Obs.Span.with_span "decompose.make" ~args:[ substrate_arg ] @@ fun () ->
    let live = S.live sub in
    let covered = S.is_covered sub in
    let n = S.size sub in
    let comp_index = Array.make (max 1 n) (-1) in
    let in_comp = Array.make ((n / Vset.word_size) + 1) 0 in
    let comps = ref [] in
    let nslots = ref 0 in
    (* discover the covered components only: tombstoned vertices of an
       incrementally updated structure and conflict-free live tuples never
       allocate a component *)
    for v = 0 to n - 1 do
      if comp_index.(v) < 0 && Vset.mem v live && covered v then begin
        let comp = grow_from sub v in
        Vset.iter
          (fun u ->
            comp_index.(u) <- !nslots;
            let w = u / Vset.word_size in
            in_comp.(w) <- in_comp.(w) lor (1 lsl (u mod Vset.word_size)))
          comp;
        incr nslots;
        comps := comp :: !comps
      end
    done;
    let components = Array.of_list (List.rev !comps) in
    (* every live vertex outside a component is free; marking the
       component vertices touches only covered ones, and the difference
       is word-parallel *)
    let free = Vset.diff live (Vset.of_words in_comp) in
    if Obs.Span.enabled () then
      Obs.Span.annotate
        [
          ( "components",
            Obs.Event.Int (Array.length components + Vset.cardinal free) );
        ];
    {
      substrate = sub;
      priority;
      components;
      free;
      comp_index;
      cache = Hashtbl.create 16;
      counters = fresh_counters ();
    }

  let substrate d = d.substrate
  let priority d = d.priority

  (* logical components, in the canonical order (increasing smallest
     vertex); free vertices are synthesized back into singleton sets here,
     so the list is O(free · V/word) — fine for reporting, avoided by the
     evaluation paths below *)
  let components d =
    let multi =
      List.filter
        (fun comp -> not (Vset.is_empty comp))
        (Array.to_list d.components)
    in
    let singles = List.rev_map Vset.singleton (Vset.elements d.free) in
    List.sort
      (fun a b -> compare (Vset.min_elt a) (Vset.min_elt b))
      (List.rev_append singles multi)

  (* live slots of the stored components, ascending *)
  let live_slots d =
    let acc = ref [] in
    for ci = Array.length d.components - 1 downto 0 do
      if not (Vset.is_empty d.components.(ci)) then acc := ci :: !acc
    done;
    !acc

  let fold_components f acc d =
    Array.fold_left
      (fun acc comp -> if Vset.is_empty comp then acc else f acc comp)
      acc d.components

  (* [List.length (components d)] without materializing: the synthesized
     free singletons would each be a dense [Vset] sized by the fact id,
     which on a million-fact instance is gigabytes of reporting garbage. *)
  let component_count d =
    Array.fold_left
      (fun acc comp -> if Vset.is_empty comp then acc else acc + 1)
      (Vset.cardinal d.free) d.components

  let max_component d =
    Array.fold_left
      (fun acc comp -> max acc (Vset.cardinal comp))
      (if Vset.is_empty d.free then 0 else 1)
      d.components

  (* an immutable snapshot (a fresh copy), so callers can diff across a
     run *)
  let counters d = { d.counters with cache_hits = d.counters.cache_hits }

  (* [f ()] with the counters it spent *)
  let spent d f =
    let before = counters d in
    let x = f () in
    (x, diff_counters d.counters before)

  let reset_counters d =
    let z = d.counters in
    z.cache_hits <- 0;
    z.cache_misses <- 0;
    z.component_repairs <- 0;
    z.combos_streamed <- 0;
    z.components_examined <- 0;
    z.early_exits <- 0;
    z.deltas_applied <- 0;
    z.edges_added <- 0;
    z.edges_removed <- 0;
    z.components_dirtied <- 0;
    z.cache_evicted <- 0;
    z.cache_retained <- 0

  let reset_cache d = Hashtbl.reset d.cache

  let component_of d v =
    if v < 0 || v >= S.size d.substrate || not (S.is_live d.substrate v) then
      invalid_arg "Decompose.component_of";
    let ci = d.comp_index.(v) in
    if ci < 0 then Vset.singleton v else d.components.(ci)

  (* --- incremental maintenance ------------------------------------------ *)

  (* Components and cache after the substrate's [apply_delta]: only
     components actually reached by the delta are recomputed, and only
     their cache entries die. By the delta invariants (added edges touch
     an inserted vertex, removed edges a deleted one), a component none
     of whose vertices was deleted or gained an edge is bit-for-bit
     unchanged in the new structure — its repair lists, computed from the
     induced sub-instance, stay valid and are rekeyed to the component's
     new position. Free vertices reached by the delta re-enter the
     recomputation scope; any recomputed component that comes out
     uncovered lands back in the free set rather than a slot. *)
  let apply_delta d sub priority delta =
    Obs.Span.with_span "decompose.apply_delta" ~args:[ substrate_arg ]
    @@ fun () ->
    let old_size = Array.length d.comp_index in
    let live' = S.live sub in
    (* old component slots (and free vertices) reached by the delta *)
    let touched = Hashtbl.create 8 in
    let touched_free = ref Vset.empty in
    let touch v =
      (* only vertices of the old instance carry a current slot: inserted
         ids lie past [old_size], and a tombstone's entry is stale *)
      if v < old_size && S.is_live d.substrate v then begin
        let ci = d.comp_index.(v) in
        if ci >= 0 then Hashtbl.replace touched ci ()
        else touched_free := Vset.add v !touched_free
      end
    in
    List.iter touch (S.deleted delta);
    S.iter_edge_vertices delta touch;
    (* survivors of the touched components, touched free vertices and
       every inserted vertex — closed under adjacency in the new structure
       by the delta invariants *)
    let scope =
      Hashtbl.fold
        (fun ci () acc -> Vset.union acc (Vset.inter d.components.(ci) live'))
        touched
        (Vset.union
           (Vset.inter !touched_free live')
           (Vset.of_list (S.inserted delta)))
    in
    let recomputed =
      let seen = ref Vset.empty in
      Vset.fold
        (fun v acc ->
          if Vset.mem v !seen then acc
          else begin
            let comp = grow_from sub v in
            seen := Vset.union !seen comp;
            comp :: acc
          end)
        scope []
    in
    (* a recomputed vertex goes back to the free set only when no conflict
       covers it *)
    let covered = S.is_covered sub in
    let singles, multi =
      List.partition
        (fun comp -> Vset.cardinal comp = 1 && not (covered (Vset.min_elt comp)))
        recomputed
    in
    (* slots of untouched components (and their comp_index entries and
       cache keys) carry over verbatim; dirtied slots are freed and reused
       for the recomputed components, growing the array only when a split
       produces more components than were dirtied *)
    let size' = max 1 (S.size sub) in
    let old_index_len = Array.length d.comp_index in
    let comp_index =
      if size' = old_index_len then Array.copy d.comp_index
      else begin
        let a = Array.make size' (-1) in
        Array.blit d.comp_index 0 a 0 old_index_len;
        a
      end
    in
    let freed = Hashtbl.fold (fun ci () acc -> ci :: acc) touched [] in
    let nslots = Array.length d.components in
    let extra = max 0 (List.length multi - List.length freed) in
    let components = Array.make (nslots + extra) Vset.empty in
    Array.blit d.components 0 components 0 nslots;
    List.iter (fun ci -> components.(ci) <- Vset.empty) freed;
    let free_slots = ref freed and fresh = ref nslots in
    List.iter
      (fun comp ->
        let slot =
          match !free_slots with
          | ci :: rest ->
            free_slots := rest;
            ci
          | [] ->
            let ci = !fresh in
            incr fresh;
            ci
        in
        components.(slot) <- comp;
        Vset.iter (fun v -> comp_index.(v) <- slot) comp)
      multi;
    List.iter
      (fun comp -> Vset.iter (fun v -> comp_index.(v) <- -1) comp)
      singles;
    let free =
      List.fold_left
        (fun acc s -> Vset.union acc s)
        (Vset.diff (Vset.inter d.free live') !touched_free)
        singles
    in
    (* evict the dirtied slots' cache entries; every other entry stays put *)
    let z = d.counters in
    let cache = Hashtbl.copy d.cache in
    Hashtbl.iter
      (fun (family, ci) _ ->
        if Hashtbl.mem touched ci then begin
          Hashtbl.remove cache (family, ci);
          z.cache_evicted <- z.cache_evicted + 1
        end)
      d.cache;
    z.cache_retained <- z.cache_retained + Hashtbl.length cache;
    z.deltas_applied <- z.deltas_applied + 1;
    z.edges_added <- z.edges_added + S.edges_added delta;
    z.edges_removed <- z.edges_removed + S.edges_removed delta;
    z.components_dirtied <- z.components_dirtied + Hashtbl.length touched;
    if Obs.Span.enabled () then
      Obs.Span.annotate
        [
          ("dirtied", Obs.Event.Int (Hashtbl.length touched));
          ("recomputed", Obs.Event.Int (List.length recomputed));
        ];
    (* the same mutable record carries over: telemetry accumulates across
       the whole update history of the decomposition *)
    { substrate = sub; priority; components; free; comp_index; cache; counters = z }

  (* The sub-instance of one component, with the priority restricted to
     it. Priority arcs connect conflicting tuples, and every conflict
     through a component vertex lies inside the component, so probing the
     successor sets of the component's vertices finds every arc in
     O(comp + arcs), where walking all arcs would cost O(V) per
     component. *)
  let sub_context d comp =
    let sub = S.sub_instance d.substrate comp in
    let mapping = Array.of_list (Vset.elements comp) in
    let back = Hashtbl.create (Array.length mapping) in
    Array.iteri (fun i v -> Hashtbl.replace back v i) mapping;
    let arcs =
      Vset.fold
        (fun u acc ->
          let u' = Hashtbl.find back u in
          Vset.fold
            (fun v acc ->
              match Hashtbl.find_opt back v with
              | Some v' -> (u', v') :: acc
              | None -> acc)
            (S.Priority.dominated d.priority u)
            acc)
        comp []
    in
    (sub, S.Priority.of_arcs_exn sub arcs, mapping)

  (* Solve one component: everything here is pure with respect to [d] —
     [sub_context] rebuilds a compact task-local instance — except the
     counter bumps, which go to the caller-chosen shard [z]. That is what
     lets [warm_slots] run this on worker domains. *)
  let solve_component z d family comp =
    Obs.Span.with_span "decompose.component"
      ~args:(component_args family comp)
    @@ fun () ->
    z.cache_misses <- z.cache_misses + 1;
    let sub, p, mapping = sub_context d comp in
    let repairs =
      List.map
        (fun s -> Vset.map (fun v -> mapping.(v)) s)
        (S.Family.repairs family sub p)
    in
    z.component_repairs <- z.component_repairs + List.length repairs;
    if Obs.Span.enabled () then
      Obs.Span.annotate [ ("repairs", Obs.Event.Int (List.length repairs)) ];
    repairs

  (* Is this one of the synthesized singleton components of a free vertex?
     Free vertices are in no conflict, so their only preferred repair (for
     every family) is the tuple itself; serving it from the free set keeps
     clean tuples out of the cache. *)
  let free_singleton d comp =
    Vset.cardinal comp = 1 && d.comp_index.(Vset.min_elt comp) < 0

  let preferred_within family d comp =
    if free_singleton d comp then begin
      d.counters.cache_hits <- d.counters.cache_hits + 1;
      [ comp ]
    end
    else begin
      let key = (family, d.comp_index.(Vset.min_elt comp)) in
      match Hashtbl.find_opt d.cache key with
      | Some repairs ->
        d.counters.cache_hits <- d.counters.cache_hits + 1;
        repairs
      | None ->
        let repairs = solve_component d.counters d family comp in
        Hashtbl.replace d.cache key repairs;
        repairs
    end

  (* --- the pool passes ---------------------------------------------------- *)

  (* Every pass below runs its body through [Pool.parallel_for], which
     runs it inline on the caller when the pool has one lane or the call
     comes from inside a job. Counters shard per lane: lane 0 is the
     calling domain and bumps [d.counters] itself, the other lanes' shards
     are folded in after the join, so the shared record is only ever
     mutated by one domain and a one-lane pass allocates no shard. *)
  let lane_shards d =
    Array.init (Pool.jobs ()) (fun lane ->
        if lane = 0 then d.counters else fresh_counters ())

  let merge_shards d shards =
    for lane = 1 to Array.length shards - 1 do
      merge_counters d.counters shards.(lane)
    done

  let warm_slots family d slots =
    (* equivalent to a sequential [preferred_within] sweep over the slots:
       one cache hit per already-cached component, one miss (plus a
       "decompose.component" span and the repairs count) per filled one.
       Each fill is an independent component solve; the caller publishes
       the results in slot order after the join, so workers never touch
       [d.cache]. *)
    let todo =
      List.filter_map
        (fun ci ->
          if Hashtbl.mem d.cache (family, ci) then begin
            d.counters.cache_hits <- d.counters.cache_hits + 1;
            None
          end
          else Some (ci, d.components.(ci)))
        slots
    in
    if todo <> [] then begin
      let todo = Array.of_list todo in
      let results = Array.make (Array.length todo) [] in
      let shards = lane_shards d in
      Pool.parallel_for ~n:(Array.length todo) (fun ~worker i ->
          results.(i) <- solve_component shards.(worker) d family (snd todo.(i)));
      Array.iteri
        (fun i (ci, _) -> Hashtbl.replace d.cache (family, ci) results.(i))
        todo;
      merge_shards d shards
    end

  let warm family d = warm_slots family d (live_slots d)

  let count_within family d comp =
    if free_singleton d comp then begin
      d.counters.cache_hits <- d.counters.cache_hits + 1;
      1
    end
    else begin
      let key = (family, d.comp_index.(Vset.min_elt comp)) in
      match Hashtbl.find_opt d.cache key with
      | Some repairs ->
        d.counters.cache_hits <- d.counters.cache_hits + 1;
        List.length repairs
      | None ->
        (* counting path: stream the family over the sub-instance without
           materializing the repair lists (and without populating the
           cache — a later [preferred_within] still owns that) *)
        Obs.Span.with_span "decompose.count"
          ~args:(component_args family comp)
        @@ fun () ->
        d.counters.cache_misses <- d.counters.cache_misses + 1;
        let sub, p, _mapping = sub_context d comp in
        let n = ref 0 in
        S.Family.iter family sub p (fun _ -> incr n);
        !n
    end

  let count family d =
    (* warm the cache (in parallel when the pool has domains), then fold
       the per-slot list lengths; free vertices contribute factor 1 *)
    warm family d;
    List.fold_left
      (fun acc ci ->
        sat_mul acc (List.length (Hashtbl.find d.cache (family, ci))))
      1 (live_slots d)

  (* --- ground certainty ------------------------------------------------- *)

  let demand_of_clause d clause =
    Ground.of_clause
      ~rel_name:(Schema.name (S.schema d.substrate))
      ~index:(S.index d.substrate) clause

  (* A witness as a route holds it when it decides: the ground route knows
     only the local repairs it chose for the slots the query touches, a
     streaming pass a whole repair. [complete] turns either into a
     preferred repair; only [explain] pays for that. *)
  type witness = Locals of (int * Vset.t) list | Whole of Vset.t

  (* A clause is satisfiable by a preferred repair iff each touched
     component has a preferred repair meeting the clause's demands there
     (P1 supplies arbitrary preferred repairs for untouched components, and
     the family factorizes). The chosen local repairs, by slot, witness
     it. *)
  exception Stop

  let clause_witness family d { Ground.required; forbidden } =
    (* a free vertex belongs to every preferred repair: forbidding one
       kills the clause outright, requiring one costs nothing *)
    if not (Vset.is_empty (Vset.inter forbidden d.free)) then None
    else begin
      let touched =
        Vset.fold
          (fun v acc ->
            let ci = d.comp_index.(v) in
            if ci >= 0 then Vset.add ci acc else acc)
          (Vset.union required forbidden)
          Vset.empty
      in
      (* with pool domains available, fill the touched components' repair
         lists in parallel first; the per-component demand checks below are
         then cache hits. (jobs = 1 keeps the lazy sequential sweep with its
         mid-loop early exit.) *)
      if
        Pool.jobs () > 1
        && (not (Pool.in_parallel_region ()))
        && Vset.cardinal touched > 1
      then warm_slots family d (Vset.elements touched);
      let remaining = ref (Vset.cardinal touched) in
      let chosen = ref [] in
      try
        Vset.iter
          (fun ci ->
            d.counters.components_examined <- d.counters.components_examined + 1;
            decr remaining;
            let comp = d.components.(ci) in
            let req = Vset.inter required comp
            and forb = Vset.inter forbidden comp in
            match
              List.find_opt
                (fun r -> Vset.subset req r && Vset.is_empty (Vset.inter forb r))
                (preferred_within family d comp)
            with
            | Some r -> chosen := (ci, r) :: !chosen
            | None ->
              if !remaining > 0 then
                d.counters.early_exits <- d.counters.early_exits + 1;
              raise Stop)
          touched;
        Some !chosen
      with Stop -> None
    end

  let some_preferred_satisfying family d q =
    match Query.Transform.ground_dnf q with
    | Error e -> Error e
    | Ok clauses ->
      List.fold_left
        (fun acc clause ->
          match acc with
          | Error _ | Ok (Some _) -> acc
          | Ok None -> (
            match demand_of_clause d clause with
            | Error e -> Error e
            | Ok None -> Ok None
            | Ok (Some demand) -> Ok (clause_witness family d demand)))
        (Ok None) clauses

  (* The verdict with its (supporting, refuting) witnesses. When no
     preferred repair satisfies not-Q, every one supports Q: the empty
     choice, completed, is a witness. *)
  let ground_route family d q =
    match some_preferred_satisfying family d (Query.Ast.Not q) with
    | Error e -> Error e
    | Ok None -> Ok (Cqa.Certainly_true, Some (Locals []), None)
    | Ok (Some refuting) -> (
      let refuting = Some (Locals refuting) in
      match some_preferred_satisfying family d q with
      | Error e -> Error e
      | Ok None -> Ok (Cqa.Certainly_false, None, refuting)
      | Ok (Some supporting) -> Ok (Cqa.Ambiguous, Some (Locals supporting), refuting))

  let certainty_ground family d q =
    if not (Query.Ast.is_ground q) then
      Error "certainty_ground: query is not ground"
    else Result.map (fun (verdict, _, _) -> verdict) (ground_route family d q)

  (* --- streaming over the cross product --------------------------------- *)

  (* The per-component preferred repairs, as arrays for cheap indexing.
     Raises [S.Empty_family] if any component contributes nothing: the
     cross product would be empty, which P1 rules out (see [Cqa]). Free
     vertices do not appear here — they belong to every combination and
     are seeded into the accumulators by the consumers below. *)
  let repair_matrix family d =
    warm family d;
    let lists =
      Array.of_list
        (List.map
           (fun ci -> Array.of_list (Hashtbl.find d.cache (family, ci)))
           (live_slots d))
    in
    Array.iter
      (fun l -> if Array.length l = 0 then raise (S.Empty_family family))
      lists;
    lists

  let iter family d f =
    let lists = repair_matrix family d in
    let k = Array.length lists in
    if k = 0 then begin
      (* no conflicting components: the single repair keeps exactly the
         conflict-free tuples — mirrors [Mis.iter] on the edgeless graph *)
      d.counters.combos_streamed <- d.counters.combos_streamed + 1;
      f d.free
    end
    else begin
      let rec go i acc =
        if i = k then begin
          d.counters.combos_streamed <- d.counters.combos_streamed + 1;
          f acc
        end
        else Array.iter (fun s -> go (i + 1) (Vset.union acc s)) lists.(i)
      in
      go 0 d.free
    end

  (* never vacuous: [iter] raises [S.Empty_family] rather than yield
     nothing *)
  let for_all family d pred =
    try
      iter family d (fun r -> if not (pred r) then raise Stop);
      true
    with Stop -> false

  let member family d r =
    Vset.subset r (S.live d.substrate)
    && Vset.subset d.free r
    && Array.for_all
         (fun comp ->
           Vset.is_empty comp
           ||
           let local = Vset.inter r comp in
           List.exists (Vset.equal local) (preferred_within family d comp))
         d.components

  (* A witness as a preferred repair: the free set, the chosen local
     repairs, and the first cached repair of every other slot. Built from
     one element list — a union per slot would copy the dense set once
     per component. *)
  let complete family d = function
    | Whole r -> r
    | Locals chosen ->
      warm family d;
      let local ci =
        match List.assoc_opt ci chosen with
        | Some r -> r
        | None -> (
          match Hashtbl.find d.cache (family, ci) with
          | r :: _ -> r
          | [] -> raise (S.Empty_family family))
      in
      let ids = List.concat_map (fun ci -> Vset.elements (local ci)) (live_slots d) in
      Vset.union d.free (Vset.of_list ids)

  let one family d =
    match complete family d (Locals []) with
    | exception S.Empty_family _ -> None
    | r -> Some r

  (* The family's size and its first [limit] repairs: the size comes from
     [count] and the listing from [iter] cut after [limit] repairs, so
     neither materializes the family. Repairs are listed in slot order. *)
  let pp_repairs ?(hint = "") family d ~limit ppf =
    let total = count family d in
    Format.fprintf ppf "%s: %d preferred repair(s)@."
      (S.Family.name_to_string family)
      total;
    if limit > 0 && total > 0 then begin
      let listed = ref 0 in
      try
        iter family d (fun r ->
            incr listed;
            Format.fprintf ppf "--- repair %d ---@." !listed;
            Relation.iter
              (fun t -> Format.fprintf ppf "  %a@." Tuple.pp t)
              (S.to_relation d.substrate r);
            if !listed >= limit then raise Stop)
      with Stop -> ()
    end;
    if total > limit then
      Format.fprintf ppf "... (%d more%s)@." (total - limit) hint

  let evaluate_in_repair d r q =
    Planner.Engine.holds_relation (S.to_relation d.substrate r) q

  (* The verdict of a streaming pass with its (supporting, refuting)
     witnesses: the baseline repair on the side it evaluated to, the
     first disagreeing repair found, if any, on the other. *)
  let decided v0 base disagreeing =
    let base = Some (Whole base)
    and other = Option.map (fun r -> Whole r) disagreeing in
    let verdict =
      if Option.is_some disagreeing then Cqa.Ambiguous
      else if v0 then Cqa.Certainly_true
      else Cqa.Certainly_false
    in
    if v0 then (verdict, base, other) else (verdict, other, base)

  (* Certainty of a quantified query by deviation scan + product fallback.

     General (non-ground) queries do not reduce to per-component verdicts:
     certainty is about the *combinations*, and a query can hold in every
     single-deviation neighbour of a baseline repair yet fail in a repair
     differing in two components at once. So:
     - pass 1 scans all repairs at Hamming component-distance <= 1 from a
       baseline; any disagreement settles [Ambiguous] early, after
       enumerating only sum-per-component many repairs (exp in the largest
       component, not the total);
     - pass 2, needed only for a certain verdict when >= 2 components have
       more than one preferred repair, walks the full cross product.

     Both passes parallelize over independent slices of their search
     space: pass 1 over components (each lane scans one component's
     deviations), pass 2 over the first component's repair choices (each
     lane owns a sub-product). A shared stop flag cancels the remaining
     work the moment any lane finds a disagreement — the verdict is
     scheduling-independent because every lane looks for the same
     predicate, only how much counting happens before the exit varies. *)
  let certainty_streaming family d q =
    let eval r = evaluate_in_repair d r q in
    let lists = repair_matrix family d in
    let k = Array.length lists in
    if Obs.Span.enabled () then
      Obs.Span.annotate [ ("route", Obs.Event.Str "deviation-scan") ];
    if k = 0 then begin
      d.counters.combos_streamed <- d.counters.combos_streamed + 1;
      decided (eval d.free) d.free None
    end
    else begin
      let base = Array.map (fun l -> l.(0)) lists in
      (* pre.(i) = free + union of base.(0..i-1); suf.(i) = union of
         base.(i..k-1) — so pre.(k) is the full baseline repair *)
      let pre = Array.make (k + 1) d.free in
      for i = 0 to k - 1 do
        pre.(i + 1) <- Vset.union pre.(i) base.(i)
      done;
      let suf = Array.make (k + 1) Vset.empty in
      for i = k - 1 downto 0 do
        suf.(i) <- Vset.union suf.(i + 1) base.(i)
      done;
      d.counters.combos_streamed <- d.counters.combos_streamed + 1;
      let v0 = eval pre.(k) in
      let shards = lane_shards d in
      let stop = Atomic.make false in
      let found = Atomic.make None in
      let disagree z r =
        z.early_exits <- z.early_exits + 1;
        Atomic.set found (Some r);
        Atomic.set stop true
      in
      (* pass 1: single-component deviations from the baseline *)
      Pool.parallel_for ~stop ~n:k (fun ~worker i ->
          let z = shards.(worker) in
          z.components_examined <- z.components_examined + 1;
          let len = Array.length lists.(i) in
          let j = ref 1 in
          while !j < len && not (Atomic.get stop) do
            z.combos_streamed <- z.combos_streamed + 1;
            let r = Vset.union (Vset.union pre.(i) lists.(i).(!j)) suf.(i + 1) in
            if eval r <> v0 then disagree z r;
            incr j
          done);
      (* pass 2: a certain verdict needs the full product whenever two or
         more components can deviate simultaneously *)
      let multi =
        Array.fold_left
          (fun acc l -> if Array.length l > 1 then acc + 1 else acc)
          0 lists
      in
      if Option.is_none (Atomic.get found) && multi >= 2 then begin
        if Obs.Span.enabled () then
          Obs.Span.annotate [ ("route", Obs.Event.Str "full-product") ];
        Pool.parallel_for ~stop ~n:(Array.length lists.(0)) (fun ~worker i0 ->
            let z = shards.(worker) in
            let rec go i acc =
              if Atomic.get stop then ()
              else if i = k then begin
                z.combos_streamed <- z.combos_streamed + 1;
                if eval acc <> v0 then disagree z acc
              end
              else Array.iter (fun s -> go (i + 1) (Vset.union acc s)) lists.(i)
            in
            go 1 (Vset.union d.free lists.(0).(i0)))
      end;
      merge_shards d shards;
      decided v0 pre.(k) (Atomic.get found)
    end

  (* Every closed query's verdict with the witnesses its route held. *)
  let decide family d q =
    if not (Query.Ast.is_closed q) then
      invalid_arg "Decompose.certainty: open query";
    Obs.Span.with_span "cqa.certainty" ~args:[ family_arg family; substrate_arg ] @@ fun () ->
    let route () =
      if Query.Ast.is_ground q then
        match ground_route family d q with
        | Ok decision ->
          Obs.Span.annotate [ ("route", Obs.Event.Str "ground") ];
          decision
        | Error _ ->
          (* unknown relation, arity mismatch, ...: fall back to the generic
             evaluator so the verdict matches the whole-graph path *)
          certainty_streaming family d q
      else certainty_streaming family d q
    in
    if not (Obs.Span.enabled ()) then route ()
    else begin
      let ((verdict, _, _) as decision), z = spent d route in
      Obs.Span.annotate
        [
          ("verdict", Obs.Event.Str (Cqa.certainty_to_string verdict));
          ("cache_hits", Obs.Event.Int z.cache_hits);
          ("cache_misses", Obs.Event.Int z.cache_misses);
          ("combos_streamed", Obs.Event.Int z.combos_streamed);
          ("components_examined", Obs.Event.Int z.components_examined);
          ("early_exits", Obs.Event.Int z.early_exits);
        ];
      decision
    end

  let certainty family d q =
    let verdict, _, _ = decide family d q in
    verdict

  let explain family d q =
    let certainty, supporting, refuting = decide family d q in
    let complete = Option.map (complete family d) in
    { certainty; supporting = complete supporting; refuting = complete refuting }

  let consistent_answer family d q =
    if Query.Ast.is_ground q then
      match some_preferred_satisfying family d (Query.Ast.Not q) with
      | Ok refuting -> Option.is_none refuting
      | Error _ -> for_all family d (fun r -> evaluate_in_repair d r q)
    else begin
      if not (Query.Ast.is_closed q) then
        invalid_arg "Decompose.consistent_answer: open query";
      for_all family d (fun r -> evaluate_in_repair d r q)
    end

  let consistent_answers_open family d q =
    Obs.Span.with_span "cqa.open" ~args:[ family_arg family; substrate_arg ] @@ fun () ->
    let result = ref None in
    (try
       iter family d (fun r ->
           let free, rows =
             Planner.Engine.answers_relation (S.to_relation d.substrate r) q
           in
           match !result with
           | None -> result := Some (free, rows)
           | Some (free0, rows0) ->
             let present = Hashtbl.create (List.length rows) in
             List.iter (fun row -> Hashtbl.replace present row ()) rows;
             let rows0 = List.filter (fun row -> Hashtbl.mem present row) rows0 in
             result := Some (free0, rows0);
             if rows0 = [] then begin
               d.counters.early_exits <- d.counters.early_exits + 1;
               raise Stop
             end)
     with Stop -> ());
    match !result with
    | Some answer -> answer
    | None -> assert false (* iter raises Empty_family before this *)

  let certain_tuples family d =
    (* conflict-free tuples are in every preferred repair *)
    fold_components
      (fun acc comp ->
        match preferred_within family d comp with
        | [] -> acc
        | first :: rest ->
          Vset.union acc (List.fold_left Vset.inter first rest))
      d.free d

  let possible_tuples family d =
    fold_components
      (fun acc comp ->
        List.fold_left Vset.union acc (preferred_within family d comp))
      d.free d

  (* A tuple's conflicts and dominance, read off the live structures, and
     its fate, decided inside its component (the families factorize). *)
  let tuple_status family d t =
    let v = S.index_exn d.substrate t in
    let tuples s = List.map (S.tuple d.substrate) (Vset.elements s) in
    let repairs = preferred_within family d (component_of d v) in
    if repairs = [] then raise (S.Empty_family family);
    {
      tuple = t;
      conflicts_with = tuples (S.neighbors d.substrate v);
      dominated_by = tuples (S.Priority.dominators d.priority v);
      dominates = tuples (S.Priority.dominated d.priority v);
      in_all = List.for_all (Vset.mem v) repairs;
      in_some = List.exists (Vset.mem v) repairs;
    }

  (* --- reports ------------------------------------------------------------ *)

  (* Read off the slot array and the free set: no singleton component is
     synthesized for a free tuple, so the summary costs the covered
     components, not the instance. The fate counters cover one warm and
     one cached read per slot — what [certain_tuples] then
     [possible_tuples] would spend. *)
  let summary family d =
    let fates () =
      warm family d;
      fold_components
        (fun (certain, possible) comp ->
          match preferred_within family d comp with
          | [] -> (certain, possible)
          | first :: rest ->
            ( certain + Vset.cardinal (List.fold_left Vset.inter first rest),
              possible + Vset.cardinal (List.fold_left Vset.union first rest) ))
        (0, 0) d
    in
    let (certain, possible), fate_counters = spent d fates in
    let free = Vset.cardinal d.free in
    let conflicting = fold_components (fun acc comp -> acc + Vset.cardinal comp) 0 d in
    let repair_count = count S.Family.rep d in
    let preferred_count = count family d in
    {
      tuples = free + conflicting;
      conflicting_tuples = conflicting;
      components = component_count d;
      nontrivial_components =
        fold_components
          (fun acc comp -> if Vset.cardinal comp > 1 then acc + 1 else acc)
          0 d;
      largest_component = max_component d;
      conflict_edges = S.edge_count d.substrate;
      oriented_arcs = S.Priority.arc_count d.priority;
      unoriented_pairs = List.length (S.Priority.unoriented d.substrate d.priority);
      repair_count;
      preferred_count;
      certain = free + certain;
      disputed = possible - certain;
      excluded = conflicting - possible;
      fate_counters;
      lifetime = counters d;
    }

  (* A closed query's verdict with the counters it spent, and the
     family's repair count per covered component: read from the cache
     where the query warmed it, counted by streaming elsewhere. *)
  let qtrace family d q =
    let (verdict, _, _), query_counters = spent d (fun () -> decide family d q) in
    let maintenance = counters d in
    {
      verdict;
      query_counters;
      maintenance;
      slot_repairs =
        List.map (fun ci -> count_within family d d.components.(ci)) (live_slots d);
      free_tuples = Vset.cardinal d.free;
      largest = max_component d;
    }

  (* --- aggregates --------------------------------------------------------- *)

  let attr_position d attr =
    let schema = S.schema d.substrate in
    match Schema.position schema attr with
    | None ->
      Error
        (Printf.sprintf "schema %s has no attribute %S" (Schema.name schema) attr)
    | Some i ->
      if Schema.ty_at schema i <> Schema.TInt then
        Error (Printf.sprintf "attribute %S is not numeric" attr)
      else Ok i

  let aggregate_range family d agg =
    let pos =
      match agg with
      | Aggregate.Count_all -> Ok (-1)
      | Aggregate.Sum a | Aggregate.Min a | Aggregate.Max a -> attr_position d a
    in
    match pos with
    | Error e -> Error e
    | Ok pos ->
      let value_of v =
        match Value.as_int (Tuple.get (S.tuple d.substrate v) pos) with
        | Some n -> n
        | None -> assert false
      in
      (* the aggregate's value inside one component repair *)
      let local s =
        match agg with
        | Aggregate.Count_all -> Some (Vset.cardinal s)
        | Aggregate.Sum _ ->
          Some (Vset.fold (fun v acc -> acc + value_of v) s 0)
        | Aggregate.Min _ ->
          Vset.fold
            (fun v acc ->
              Some (match acc with None -> value_of v | Some m -> min m (value_of v)))
            s None
        | Aggregate.Max _ ->
          Vset.fold
            (fun v acc ->
              Some (match acc with None -> value_of v | Some m -> max m (value_of v)))
            s None
      in
      (* per-component extremes of the local value *)
      let extremes comp =
        let values =
          List.filter_map local (preferred_within family d comp)
        in
        match values with
        | [] -> None
        | v :: vs -> Some (List.fold_left min v vs, List.fold_left max v vs)
      in
      (* a free vertex is in every repair, so it contributes one fixed
         value — no singleton component is ever materialized for it *)
      let per_component =
        Vset.fold
          (fun v acc ->
            let e =
              match agg with
              | Aggregate.Count_all -> (1, 1)
              | _ ->
                let x = value_of v in
                (x, x)
            in
            e :: acc)
          d.free
          (List.rev
             (fold_components
                (fun acc comp ->
                  match extremes comp with None -> acc | Some e -> e :: acc)
                [] d))
      in
      let range =
        match agg with
        | Aggregate.Count_all | Aggregate.Sum _ ->
          (* additive across components *)
          let glb = List.fold_left (fun a (lo, _) -> a + lo) 0 per_component in
          let lub = List.fold_left (fun a (_, hi) -> a + hi) 0 per_component in
          Aggregate.{ glb = Some glb; lub = Some lub }
        | Aggregate.Min _ ->
          (* global MIN = min over components of the chosen local MIN *)
          let fold f init = List.fold_left f init per_component in
          let glb = fold (fun a (lo, _) -> min a lo) max_int in
          let lub = fold (fun a (_, hi) -> min a hi) max_int in
          if per_component = [] then Aggregate.{ glb = None; lub = None }
          else Aggregate.{ glb = Some glb; lub = Some lub }
        | Aggregate.Max _ ->
          let fold f init = List.fold_left f init per_component in
          let glb = fold (fun a (lo, _) -> max a lo) min_int in
          let lub = fold (fun a (_, hi) -> max a hi) min_int in
          if per_component = [] then Aggregate.{ glb = None; lub = None }
          else Aggregate.{ glb = Some glb; lub = Some lub }
      in
      Ok range
end
