open Graphs

(* Conflicting pairs = unordered pairs inside a hyperedge; edges are
   small (bounded by the widest constraint), so this is linear in the
   edge store. *)
let conflicting_pairs h =
  List.sort_uniq compare
    (List.concat_map
       (fun e ->
         let vs = Vset.elements e in
         List.concat_map
           (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) vs)
           vs)
       (Hypergraph.edges (Hyper.hypergraph h)))

include Priority_core.Make (struct
  type t = Hyper.t

  let size = Hyper.size
  let conflicting = Hyper.conflicting
  let pairs = conflicting_pairs
  let index_exn = Hyper.index_exn
end)

(* Orient the conflicting pairs by a tuple-level rule, exactly as
   {!Pref_rules.orient} does on the binary graph: an arc only where the
   rule holds one way and not the other. *)
let of_rule h rule =
  let arcs =
    List.concat_map
      (fun (u, v) ->
        let x = Hyper.tuple h u and y = Hyper.tuple h v in
        let xy = rule x y and yx = rule y x in
        if xy && not yx then [ (u, v) ]
        else if yx && not xy then [ (v, u) ]
        else [])
      (conflicting_pairs h)
  in
  match of_arcs h arcs with
  | Ok p -> Ok p
  | Error e -> Error (error_to_string e)

let update h p ~dropped ~oriented =
  Obs.Span.with_span "hpriority.update"
    ~args:
      [
        ("dropped", Obs.Event.Int (Vset.cardinal dropped));
        ("oriented", Obs.Event.Int (List.length oriented));
      ]
  @@ fun () ->
  (* Unlike the binary case, a kept arc can lose its footing without
     losing an endpoint: the hyperedge it lives on dies through a THIRD
     vertex. So surviving arcs are re-checked against the updated
     hypergraph, not just filtered by endpoint. *)
  let kept =
    List.filter
      (fun (u, v) ->
        (not (Vset.mem u dropped || Vset.mem v dropped))
        && Hyper.conflicting h u v)
      (Digraph.arcs p)
  in
  match oriented with
  | [] ->
    (* a subgraph of an acyclic graph is acyclic, and [kept] was just
       revalidated against the updated hypergraph *)
    Ok (Digraph.create (Hyper.size h) kept)
  | _ :: _ -> of_arcs h (oriented @ kept)
