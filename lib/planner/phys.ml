open Relational

(* Physical plans: the executable operator trees the compiler emits.

   A node carries its estimated cardinality (set at plan time), its
   actual cardinality (set on execution, -1 before), and a result cache.
   The cache makes shared subtrees — the compiler reuses a node when two
   disjuncts mention the same access path — execute once, and is what
   EXPLAIN reads its actual counts from. *)

type range = { rlo : (int * bool) option; rhi : (int * bool) option }
(* packed bound + inclusive flag; [None] = unbounded on that side *)

type access = {
  probes : (int * Value.t) list;  (* column = constant, a postings probe *)
  range : (int * range) option;  (* one range-scanned int column *)
  residual : Algebra.selection list;  (* checked per surviving tuple *)
}

type node = {
  nid : int;
  tys : Schema.ty array;  (* output column types *)
  mutable est : float;
  mutable dist : float array;  (* estimated distinct values per column *)
  mutable actual : int;  (* -1 = not executed *)
  mutable cached : Relation.t option;
  shape : shape;
}

and shape =
  | Scan of { sname : string; aidx : int; srel : Relation.t; access : access }
      (* [aidx] = position of the source atom in the query, for EXPLAIN *)
  | Hash_join of {
      pairs : (int * int) list;
      left : node;
      right : node;
      build_left : bool;
    }  (* output = left columns then right columns, irrespective of build side *)
  | Merge_join of { lcol : int; rcol : int; left : node; right : node }
      (* lockstep walk of the two sides' sorted postings on the join column *)
  | Filter of Algebra.selection * node
  | Project of int list * node
  | Diff of node * node  (* anti-join: left rows absent from right *)
  | Union of node list
  | Empty

type bnode = { mutable bval : bool option; bshape : bshape }

and bshape =
  | B_const of bool
  | B_not of bnode
  | B_and of bnode list
  | B_or of bnode list
  | B_block of node  (* true iff the block produces at least one row *)

type plan = Rows of { free : string list; root : node } | Bool of bnode

let fresh_schema tys =
  Schema.make "q"
    (List.mapi (fun i ty -> (Printf.sprintf "c%d" i, ty)) (Array.to_list tys))

let node =
  let counter = ref 0 in
  fun tys shape ->
    incr counter;
    {
      nid = !counter;
      tys;
      est = 0.0;
      dist = Array.map (fun _ -> -1.0) tys;
      actual = -1;
      cached = None;
      shape;
    }

(* --- execution ---------------------------------------------------------- *)

let scan_exec srel access =
  (* postings are built from the live set and maintained in lockstep
     with it, so every probe/range result is already live-only — seed
     the intersection from the first index result instead of paying an
     O(universe) pass over [live_ids] *)
  let seeded =
    List.fold_left
      (fun acc (col, v) ->
        let m = Relation.matching srel col (Value.pack v) in
        match acc with
        | None -> Some m
        | Some ids -> Some (Graphs.Vset.inter ids m))
      None access.probes
  in
  let seeded =
    match access.range with
    | None -> seeded
    | Some (col, { rlo; rhi }) ->
      let m = Relation.matching_range srel col ~lo:rlo ~hi:rhi in
      Some
        (match seeded with
        | None -> m
        | Some ids -> Graphs.Vset.inter ids m)
  in
  let ids =
    match seeded with Some ids -> ids | None -> Relation.live_ids srel
  in
  let out =
    if
      access.probes = [] && access.range = None
    then srel
    else Relation.restrict_ids srel ids
  in
  match access.residual with
  | [] -> out
  | sels -> Relation.filter (Algebra.selection_holds (Algebra.Conj sels)) out

let hash_join_exec ~pairs ~build_left left right out_schema =
  let lkeys = List.map fst pairs and rkeys = List.map snd pairs in
  let build, probe, build_keys, probe_keys =
    if build_left then (left, right, lkeys, rkeys)
    else (right, left, rkeys, lkeys)
  in
  let index = Hashtbl.create (max 16 (Relation.cardinality build)) in
  Relation.iter
    (fun t ->
      let key = Tuple.project_packed t build_keys in
      let existing = Option.value (Hashtbl.find_opt index key) ~default:[] in
      Hashtbl.replace index key (t :: existing))
    build;
  let out =
    Relation.Builder.create ~size_hint:(Relation.cardinality probe) out_schema
  in
  Relation.iter
    (fun t ->
      List.iter
        (fun bt ->
          Relation.Builder.add out
            (if build_left then Tuple.concat bt t else Tuple.concat t bt))
        (Option.value
           (Hashtbl.find_opt index (Tuple.project_packed t probe_keys))
           ~default:[]))
    probe;
  Relation.Builder.finish out

(* Walk both sides' postings on the join column in increasing packed
   order — on int columns packing is strictly monotone, so this is the
   numeric order. Building the postings on the (already restricted)
   inputs is the merge join's sort phase. *)
let merge_join_exec ~lcol ~rcol left right out_schema =
  let out =
    Relation.Builder.create
      ~size_hint:(max (Relation.cardinality left) (Relation.cardinality right))
      out_schema
  in
  let lseq = Relation.groups left lcol and rseq = Relation.groups right rcol in
  let rec walk lseq rseq =
    match (lseq (), rseq ()) with
    | Seq.Nil, _ | _, Seq.Nil -> ()
    | Seq.Cons ((lk, lids), ltl), Seq.Cons ((rk, rids), rtl) ->
      if lk < rk then walk ltl (fun () -> Seq.Cons ((rk, rids), rtl))
      else if rk < lk then walk (fun () -> Seq.Cons ((lk, lids), ltl)) rtl
      else begin
        Graphs.Vset.iter
          (fun lid ->
            let lt = Relation.fact left lid in
            Graphs.Vset.iter
              (fun rid ->
                Relation.Builder.add out (Tuple.concat lt (Relation.fact right rid)))
              rids)
          lids;
        walk ltl rtl
      end
  in
  walk lseq rseq;
  Relation.Builder.finish out

let rec exec n =
  match n.cached with
  | Some r -> r
  | None ->
    let r =
      match n.shape with
      | Scan { srel; access; _ } -> scan_exec srel access
      | Hash_join { pairs; left; right; build_left } ->
        hash_join_exec ~pairs ~build_left (exec left) (exec right)
          (fresh_schema n.tys)
      | Merge_join { lcol; rcol; left; right } ->
        merge_join_exec ~lcol ~rcol (exec left) (exec right)
          (fresh_schema n.tys)
      | Filter (sel, inner) ->
        Relation.filter (Algebra.selection_holds sel) (exec inner)
      | Project (cols, inner) ->
        let input = exec inner in
        let b =
          Relation.Builder.create
            ~size_hint:(Relation.cardinality input)
            (fresh_schema n.tys)
        in
        Relation.iter (fun t -> Relation.Builder.add b (Tuple.sub t cols)) input;
        Relation.Builder.finish b
      | Diff (l, r) ->
        let left = exec l and right = exec r in
        let b =
          Relation.Builder.create ~size_hint:(Relation.cardinality left)
            (fresh_schema n.tys)
        in
        Relation.iter
          (fun t -> if not (Relation.mem right t) then Relation.Builder.add b t)
          left;
        Relation.Builder.finish b
      | Union parts ->
        let b = Relation.Builder.create (fresh_schema n.tys) in
        List.iter (fun p -> Relation.iter (Relation.Builder.add b) (exec p)) parts;
        Relation.Builder.finish b
      | Empty -> Relation.empty (fresh_schema n.tys)
    in
    n.cached <- Some r;
    n.actual <- Relation.cardinality r;
    r

(* A projection at the root of an open query is never probed or joined
   again, so its rows are projected, sorted and deduplicated straight
   from the input: building a relation first would copy every row of the
   input (the whole repair, for a projection that only reorders columns)
   into a hash-indexed store that is read once. *)
let rows n =
  match (n.shape, n.cached) with
  | Project (cols, inner), None ->
    let rows =
      List.sort_uniq Tuple.compare
        (Relation.fold (fun t acc -> Tuple.sub t cols :: acc) (exec inner) [])
    in
    n.actual <- List.length rows;
    rows
  | _ -> Relation.tuples (exec n)

(* Short-circuit boolean evaluation: cheap-looking blocks first would be
   nicer still, but the compiler already orders disjuncts/conjuncts by
   estimate, so evaluation order is plan order. *)
let rec run_bool bn =
  match bn.bval with
  | Some v -> v
  | None ->
    let v =
      match bn.bshape with
      | B_const b -> b
      | B_not b -> not (run_bool b)
      | B_and bs -> List.for_all run_bool bs
      | B_or bs -> List.exists run_bool bs
      | B_block n -> not (Relation.is_empty (exec n))
    in
    bn.bval <- Some v;
    v

(* --- printing ----------------------------------------------------------- *)

let pp_card ppf n =
  if n.actual < 0 then Format.fprintf ppf "(est %.1f, not run)" n.est
  else Format.fprintf ppf "(est %.1f, actual %d)" n.est n.actual

let pp_access ppf a =
  List.iter
    (fun (col, v) -> Format.fprintf ppf " #%d=%a" col Value.pp v)
    a.probes;
  (match a.range with
  | None -> ()
  | Some (col, { rlo; rhi }) ->
    let bound ppf = function
      | None -> Format.pp_print_string ppf "_"
      | Some (v, incl) ->
        Format.fprintf ppf "%a%s" Value.pp (Value.unpack v)
          (if incl then "" else "!")
    in
    Format.fprintf ppf " #%d in [%a .. %a]" col bound rlo bound rhi);
  match a.residual with
  | [] -> ()
  | sels ->
    Format.fprintf ppf " where %a" Algebra.pp_selection (Algebra.Conj sels)

let rec pp ppf n =
  match n.shape with
  | Scan { sname; aidx; access; _ } ->
    let kind =
      if access.probes <> [] then "index scan"
      else if access.range <> None then "range scan"
      else "scan"
    in
    Format.fprintf ppf "%s %s atom:%d%a %a" kind sname aidx pp_access access
      pp_card n
  | Hash_join { pairs; left; right; build_left } ->
    Format.fprintf ppf "@[<v 2>hash join {%s} build:%s %a@,%a@,%a@]"
      (String.concat "; "
         (List.map (fun (i, j) -> Printf.sprintf "%d=%d" i j) pairs))
      (if build_left then "left" else "right")
      pp_card n pp left pp right
  | Merge_join { lcol; rcol; left; right } ->
    Format.fprintf ppf "@[<v 2>merge join {%d=%d} %a@,%a@,%a@]" lcol rcol
      pp_card n pp left pp right
  | Filter (sel, inner) ->
    Format.fprintf ppf "@[<v 2>filter %a %a@,%a@]" Algebra.pp_selection sel
      pp_card n pp inner
  | Project (cols, inner) ->
    Format.fprintf ppf "@[<v 2>project [%s] %a@,%a@]"
      (String.concat "; " (List.map string_of_int cols))
      pp_card n pp inner
  | Diff (l, r) ->
    Format.fprintf ppf "@[<v 2>anti join %a@,%a@,%a@]" pp_card n pp l pp r
  | Union parts ->
    Format.fprintf ppf "@[<v 2>union (%d branch(es)) %a" (List.length parts)
      pp_card n;
    List.iter (fun p -> Format.fprintf ppf "@,%a" pp p) parts;
    Format.fprintf ppf "@]"
  | Empty -> Format.fprintf ppf "empty %a" pp_card n

let rec pp_bool ppf bn =
  let truth ppf bn =
    match bn.bval with
    | None -> ()
    | Some v -> Format.fprintf ppf " = %b" v
  in
  match bn.bshape with
  | B_const b -> Format.fprintf ppf "const %b" b
  | B_not b -> Format.fprintf ppf "@[<v 2>not%a@,%a@]" truth bn pp_bool b
  | B_and bs ->
    Format.fprintf ppf "@[<v 2>and%a" truth bn;
    List.iter (fun b -> Format.fprintf ppf "@,%a" pp_bool b) bs;
    Format.fprintf ppf "@]"
  | B_or bs ->
    Format.fprintf ppf "@[<v 2>or%a" truth bn;
    List.iter (fun b -> Format.fprintf ppf "@,%a" pp_bool b) bs;
    Format.fprintf ppf "@]"
  | B_block n -> Format.fprintf ppf "@[<v 2>nonempty%a@,%a@]" truth bn pp n

let pp_plan ppf = function
  | Rows { free; root } ->
    Format.fprintf ppf "@[<v 2>answers (%s)@,%a@]" (String.concat ", " free) pp
      root
  | Bool bn -> pp_bool ppf bn

(* --- JSON --------------------------------------------------------------- *)

let json_str s = Obs.Json.Str s

let rec to_json n =
  let open Obs.Json in
  let base op extra children =
    Obj
      (("op", json_str op)
      :: ("est", Float n.est)
      :: ("actual", Int n.actual)
      :: extra
      @ (if children = [] then []
         else [ ("children", List (List.map to_json children)) ]))
  in
  match n.shape with
  | Scan { sname; aidx; access; _ } ->
    let kind =
      if access.probes <> [] then "index-scan"
      else if access.range <> None then "range-scan"
      else "scan"
    in
    base kind
      [
        ("relation", json_str sname);
        ("atom", Obs.Json.Int aidx);
        ("access", json_str (Format.asprintf "%a" pp_access access));
      ]
      []
  | Hash_join { pairs; left; right; build_left } ->
    base "hash-join"
      [
        ( "pairs",
          json_str
            (String.concat ";"
               (List.map (fun (i, j) -> Printf.sprintf "%d=%d" i j) pairs)) );
        ("build", json_str (if build_left then "left" else "right"));
      ]
      [ left; right ]
  | Merge_join { lcol; rcol; left; right } ->
    base "merge-join"
      [ ("pairs", json_str (Printf.sprintf "%d=%d" lcol rcol)) ]
      [ left; right ]
  | Filter (sel, inner) ->
    base "filter"
      [ ("predicate", json_str (Format.asprintf "%a" Algebra.pp_selection sel)) ]
      [ inner ]
  | Project (cols, inner) ->
    base "project"
      [ ("columns", json_str (String.concat ";" (List.map string_of_int cols))) ]
      [ inner ]
  | Diff (l, r) -> base "anti-join" [] [ l; r ]
  | Union parts -> base "union" [] parts
  | Empty -> base "empty" [] []

let rec bool_to_json bn =
  let open Obs.Json in
  let value =
    match bn.bval with None -> Null | Some v -> Bool v
  in
  match bn.bshape with
  | B_const b -> Obj [ ("op", json_str "const"); ("value", Bool b) ]
  | B_not b ->
    Obj
      [
        ("op", json_str "not"); ("value", value);
        ("children", List [ bool_to_json b ]);
      ]
  | B_and bs ->
    Obj
      [
        ("op", json_str "and"); ("value", value);
        ("children", List (List.map bool_to_json bs));
      ]
  | B_or bs ->
    Obj
      [
        ("op", json_str "or"); ("value", value);
        ("children", List (List.map bool_to_json bs));
      ]
  | B_block n ->
    Obj
      [
        ("op", json_str "nonempty"); ("value", value);
        ("children", List [ to_json n ]);
      ]

let plan_to_json = function
  | Rows { free; root } ->
    Obs.Json.Obj
      [
        ("kind", json_str "rows");
        ("free", Obs.Json.List (List.map json_str free));
        ("root", to_json root);
      ]
  | Bool bn ->
    Obs.Json.Obj [ ("kind", json_str "bool"); ("root", bool_to_json bn) ]
