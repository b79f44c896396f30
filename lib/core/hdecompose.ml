(* The sharded engine over the conflict hypergraph. A vertex in a
   singleton edge {v} has no neighbours yet is inconsistent alone, so
   "covered by some edge" is the free-vertex test; such a vertex forms
   its own one-vertex component whose only repair is the empty set. *)

module Substrate = struct
  include Hyper

  let kind = "hyper"
  let edge_count h = Graphs.Hypergraph.edge_count (hypergraph h)

  let is_covered h =
    let covered = Graphs.Hypergraph.covered (hypergraph h) in
    fun v -> Graphs.Vset.mem v covered

  (* [build] re-detects the violations of the induced tuples, which are
     exactly the component's edges: a witness among component tuples is
     a witness of the full instance contained in the component, and
     minimality is hereditary (any smaller witness is a subset, hence
     also inside the component) *)
  let sub_instance h comp = build (denials h) (to_relation h comp)
  let inserted (delta : delta) = delta.inserted
  let deleted (delta : delta) = delta.deleted
  let edges_added (delta : delta) = List.length delta.edges_added
  let edges_removed (delta : delta) = List.length delta.edges_removed

  let iter_edge_vertices (delta : delta) f =
    List.iter (Graphs.Vset.iter f) delta.edges_added;
    List.iter (Graphs.Vset.iter f) delta.edges_removed

  module Priority = Hpriority

  module Family = struct
    include Hfamily

    let rep = Rep
  end

  exception Empty_family of Hfamily.name
end

include Sharded.Make (Substrate)

exception Empty_family = Substrate.Empty_family

let hyper = substrate
