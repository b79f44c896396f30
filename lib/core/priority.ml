open Graphs

include Priority_core.Make (struct
  type t = Conflict.t

  let size = Conflict.size
  let conflicting c u v = Undirected.mem_edge (Conflict.graph c) u v
  let pairs c = Undirected.edges (Conflict.graph c)
  let index_exn = Conflict.index_exn
end)

let is_extension_of p q =
  let arcs_p = Digraph.arcs p in
  List.for_all (fun a -> List.mem a arcs_p) (Digraph.arcs q)

let one_step_extensions c p =
  List.concat_map
    (fun (u, v) ->
      List.filter_map
        (fun arc -> match extend c p [ arc ] with Ok p' -> Some p' | Error _ -> None)
        [ (u, v); (v, u) ])
    (unoriented c p)

let update c p ~dropped ~oriented =
  Obs.Span.with_span "priority.update"
    ~args:
      [
        ("dropped", Obs.Event.Int (Vset.cardinal dropped));
        ("oriented", Obs.Event.Int (List.length oriented));
      ]
  @@ fun () ->
  match oriented with
  | [] ->
    (* a subgraph of an acyclic graph is acyclic, and every kept arc's
       conflict edge survives the delta (removed edges always touch a
       deleted vertex) — no revalidation needed, and [Digraph.patch]
       shares every untouched vertex's arc sets *)
    Ok (Digraph.patch p ~n:(Conflict.size c) ~drop:dropped)
  | _ :: _ ->
    let kept =
      List.filter
        (fun (u, v) -> not (Vset.mem u dropped || Vset.mem v dropped))
        (Digraph.arcs p)
    in
    of_arcs c (oriented @ kept)
