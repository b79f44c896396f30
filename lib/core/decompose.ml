(* The sharded engine over the binary conflict graph: FD conflicts are
   pairs, so a vertex is in some conflict exactly when it has a
   neighbour. *)

module Substrate = struct
  include Conflict

  let kind = "conflict"
  let edge_count c = Graphs.Undirected.edge_count (graph c)

  let is_covered c =
    let g = graph c in
    fun v -> not (Graphs.Vset.is_empty (Graphs.Undirected.neighbors g v))

  (* tuples keep their relative order under restriction, so new vertex i
     is the i-th smallest original id *)
  let sub_instance c comp = build (fds c) (relation_of_vset c comp)
  let to_relation = relation_of_vset
  let inserted (delta : delta) = delta.inserted
  let deleted (delta : delta) = delta.deleted
  let edges_added (delta : delta) = List.length delta.edges_added
  let edges_removed (delta : delta) = List.length delta.edges_removed

  let iter_edge_vertices (delta : delta) f =
    let endpoints (u, v) = f u; f v in
    List.iter endpoints delta.edges_added;
    List.iter endpoints delta.edges_removed

  module Priority = Priority

  module Family = struct
    include Family

    let rep = Rep
  end

  exception Empty_family = Cqa.Empty_family
end

include Sharded.Make (Substrate)

let conflict = substrate
