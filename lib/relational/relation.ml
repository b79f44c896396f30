(* Id-addressed tuple store.

   An instance is a set of tuples, but the representation is an
   insertion-ordered fact array: the index of a tuple in [facts] is its
   {e fact id}, the identity every downstream layer speaks — in
   particular, conflict-graph vertex ids ARE fact ids, with no second
   index in between. Deletion tombstones a slot (the id stays allocated,
   the slot leaves [live]) so ids survive incremental updates; insertion
   appends fresh slots. Membership goes through a hash index over the
   tuples' cached hashes, and per-column postings (packed value -> live
   fact ids) serve FD grouping and algebra selections. The value is
   persistent: every operation returns a new record, sharing the fact
   array and index wherever slots did not change.

   The hash index is one append-only hashtable SHARED by every relation
   derived from the same root (patch/add/remove/filter all inherit it):
   appending a slot adds its (hash, id) entry in place, nothing is ever
   removed. That makes [find] O(1) and [patch] O(batch) with no copying,
   and it is safe because a bucket hit only counts after three
   per-relation filters — the id must be within this relation's fact
   array, live in it, and hold a tuple equal to the probe. Entries
   appended by a sibling branch of the history (or after this snapshot
   was taken) fail the bounds or equality check and are ignored.

   A {e view} ([restrict_view]) is a subset of a base relation's live
   facts under the base's own ids: it shares the fact array, the hash
   index and the postings memo of the base, and every postings reader
   masks the base's groups by the view's live set. A view never builds a
   base column itself — [prepare_column] does that, on the caller's
   domain — so a view handed to a parallel job never mutates shared
   state; a column the base has not built is built over the view alone,
   in the view's own memo, as for any relation. *)

module Imap = Map.Make (Int)
module Vset = Graphs.Vset

type postings = Vset.t Imap.t option array
(* one lazily materialized map per column: [None] = never probed.
   Columns are independent — an FD stack only ever groups by its lhs
   columns, and a posting map over a unique-valued column (think a
   million distinct C values, each a singleton id set) costs far more
   than every map that is actually used, so forcing all columns eagerly
   is the wrong default at scale. *)

type t = {
  schema : Schema.t;
  facts : Tuple.t array; (* slot = fact id; tombstoned slots keep their tuple *)
  live : Vset.t;
  lookup : (int, int list) Hashtbl.t Lazy.t;
      (* Tuple.hash -> candidate slots, shared across derived relations.
         Lazy so that a bulk load ([of_slots]) pays for the table on the
         first [find], not on construction — a loaded instance that is
         only ever scanned never hashes a tuple at all. *)
  mutable postings : postings option; (* lazy memo, maintained by [patch] *)
  base : t option;
      (* [Some b] = a view of [b]: [live] ⊆ [b.live], [facts] and
         [lookup] are [b]'s, and a column [b] has built is read from [b]
         and masked by [live]. [b] is never itself a view. *)
}

let empty schema =
  {
    schema;
    facts = [||];
    live = Vset.empty;
    lookup = Lazy.from_val (Hashtbl.create 16);
    postings = None;
    base = None;
  }

let schema r = r.schema
let slot_count r = Array.length r.facts
let live_ids r = r.live
let cardinality r = Vset.cardinal r.live
let is_empty r = Vset.is_empty r.live
let is_dense r = cardinality r = slot_count r

let fact r i =
  if i < 0 || i >= Array.length r.facts then
    invalid_arg "Relation.fact: no such fact id";
  r.facts.(i)

let check_tuple schema t =
  if not (Tuple.conforms schema t) then
    invalid_arg
      (Printf.sprintf "tuple %s does not conform to schema %s"
         (Tuple.to_string t) (Schema.name schema))

let find r t =
  match Hashtbl.find_opt (Lazy.force r.lookup) (Tuple.hash t) with
  | None -> None
  | Some bucket ->
    let len = Array.length r.facts in
    List.find_opt
      (fun i -> i < len && Vset.mem i r.live && Tuple.equal r.facts.(i) t)
      bucket

let find_exn r t =
  match find r t with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "tuple %s is not part of the instance" (Tuple.to_string t))

let mem r t = find r t <> None

let lookup_add lookup t i =
  Hashtbl.replace lookup (Tuple.hash t)
    (i :: Option.value (Hashtbl.find_opt lookup (Tuple.hash t)) ~default:[])

(* --- per-column postings -------------------------------------------------- *)

let build_column r col =
  Obs.Span.with_span "relation.index"
    ~args:
      [
        ("relation", Obs.Event.Str (Schema.name r.schema));
        ("column", Obs.Event.Int col);
        ("tuples", Obs.Event.Int (cardinality r));
      ]
  @@ fun () ->
  let acc = Hashtbl.create 64 in
  Vset.iter
    (fun i ->
      let key = Tuple.packed_get r.facts.(i) col in
      Hashtbl.replace acc key
        (i :: Option.value (Hashtbl.find_opt acc key) ~default:[]))
    r.live;
  Hashtbl.fold (fun key ids m -> Imap.add key (Vset.of_list ids) m) acc
    Imap.empty

(* The lazy memo mutates in place, so forcing a column must happen on
   the submitting domain, before any parallel job reads the relation.
   Compact per-component relations built inside a job are task-local
   and may force freely. *)
let column r col =
  let p =
    match r.postings with
    | Some p -> p
    | None ->
      let p = Array.make (Schema.arity r.schema) None in
      r.postings <- Some p;
      p
  in
  match p.(col) with
  | Some m -> m
  | None ->
    let m = build_column r col in
    p.(col) <- Some m;
    m

let posting_add p t i =
  Array.mapi
    (fun col m ->
      Option.map
        (Imap.update (Tuple.packed_get t col) (fun s ->
             Some (Vset.add i (Option.value s ~default:Vset.empty))))
        m)
    p

let posting_remove p t i =
  Array.mapi
    (fun col m ->
      Option.map
        (Imap.update (Tuple.packed_get t col) (function
          | None -> None
          | Some s ->
            let s = Vset.remove i s in
            if Vset.is_empty s then None else Some s))
        m)
    p

let check_col fn r col =
  if col < 0 || col >= Schema.arity r.schema then
    invalid_arg ("Relation." ^ fn ^ ": column out of range")

let base r = match r.base with Some b -> b | None -> r

let own_ready r col =
  match r.postings with None -> false | Some p -> p.(col) <> None

let prepare_column r col =
  check_col "prepare_column" r col;
  ignore (column (base r) col)

let prepare_index r =
  for col = 0 to Schema.arity r.schema - 1 do
    ignore (column (base r) col)
  done

let prepare_lookup r = ignore (Lazy.force r.lookup)

let postings_ready r col =
  col >= 0
  && col < Schema.arity r.schema
  && (own_ready (base r) col || own_ready r col)

(* The memo a reader walks, and whether its groups need the view's mask:
   a view reads the base's column once the base has built it, and its
   own memo otherwise. *)
let source r col =
  match r.base with
  | Some b when own_ready b col -> (column b col, true)
  | _ -> (column r col, false)

let matching r col packed_value =
  check_col "matching" r col;
  let m, masked = source r col in
  match Imap.find_opt packed_value m with
  | None -> Vset.empty
  | Some s -> if masked then Vset.inter s r.live else s

(* A view's groups are masked one at a time as the consumer pulls them,
   so a merge join that stops early pays only for the groups it read. *)
let groups r col =
  check_col "groups" r col;
  let m, masked = source r col in
  if masked then
    Seq.filter_map
      (fun (k, s) ->
        if Vset.disjoint s r.live then None else Some (k, Vset.inter s r.live))
      (Imap.to_seq m)
  else Imap.to_seq m

let iter_groups r col f =
  check_col "iter_groups" r col;
  match source r col with
  | m, false -> Imap.iter f m
  | _, true -> Seq.iter (fun (k, s) -> f k s) (groups r col)

let group_count r col =
  check_col "group_count" r col;
  let m, masked = source r col in
  if masked then
    Imap.fold (fun _ s n -> if Vset.disjoint s r.live then n else n + 1) m 0
  else Imap.cardinal m

let group_bounds r col =
  check_col "group_bounds" r col;
  let m, masked = source r col in
  let first seq =
    Option.map fst
      (Seq.find (fun (_, s) -> not (masked && Vset.disjoint s r.live)) seq)
  in
  match (first (Imap.to_seq m), first (Imap.to_rev_seq m)) with
  | Some lo, Some hi -> Some (lo, hi)
  | _, _ -> None

(* Range probe: walk the ordered postings between the packed bounds.
   Packing is strictly monotone on ints ([2n+1]), so the map's
   [Int.compare] key order IS the numeric order on an int-typed column,
   and [to_seq_from] starts at the first group >= the lower bound.
   Groups are disjoint id sets, so collecting their elements into one
   list and rebuilding a Vset is O(selected), never O(universe) per
   group the way repeated set unions would be; a view keeps the ids in
   its live set as it collects them. *)
let matching_range r col ~lo ~hi =
  check_col "matching_range" r col;
  let m, masked = source r col in
  let seq =
    match lo with
    | None -> Imap.to_seq m
    | Some (v, incl) ->
      let s = Imap.to_seq_from v m in
      if incl then s
      else Seq.drop_while (fun (k, _) -> k = v) s
  in
  let below k =
    match hi with
    | None -> true
    | Some (v, incl) -> if incl then k <= v else k < v
  in
  let ids = ref [] in
  let keep i = ids := i :: !ids in
  let keep = if masked then (fun i -> if Vset.mem i r.live then keep i) else keep in
  Seq.iter
    (fun (_, s) -> Vset.iter keep s)
    (Seq.take_while (fun (k, _) -> below k) seq);
  Vset.of_list !ids

(* --- pointwise updates ---------------------------------------------------- *)

let append_slot r t =
  let n = Array.length r.facts in
  let facts = Array.make (n + 1) t in
  Array.blit r.facts 0 facts 0 n;
  lookup_add (Lazy.force r.lookup) t n;
  {
    r with
    facts;
    live = Vset.add n r.live;
    postings = Option.map (fun p -> posting_add p t n) r.postings;
    base = None;
  }

let add r t =
  check_tuple r.schema t;
  if mem r t then r else append_slot r t

let remove r t =
  match find r t with
  | None -> r
  | Some i ->
    {
      r with
      live = Vset.remove i r.live;
      postings = Option.map (fun p -> posting_remove p t i) r.postings;
    }

let filter p r =
  { r with live = Vset.filter (fun i -> p r.facts.(i)) r.live; postings = None }

let restrict_ids r ids =
  if not (Vset.subset ids r.live) then
    invalid_arg "Relation.restrict_ids: not a subset of the live fact ids";
  { r with live = ids; postings = None }

let restrict_view r ids =
  if not (Vset.subset ids r.live) then
    invalid_arg "Relation.restrict_view: not a subset of the live fact ids";
  { r with live = ids; postings = None; base = Some (base r) }

(* --- bulk construction ---------------------------------------------------- *)

module Builder = struct
  type relation = t

  type t = {
    b_schema : Schema.t;
    mutable items : Tuple.t array;
    mutable len : int;
    seen : (int, int list) Hashtbl.t; (* hash -> slots *)
  }

  let create ?(size_hint = 16) schema =
    {
      b_schema = schema;
      items = [||];
      len = 0;
      seen = Hashtbl.create (max 16 size_hint);
    }

  let mem b t =
    match Hashtbl.find_opt b.seen (Tuple.hash t) with
    | None -> false
    | Some slots -> List.exists (fun i -> Tuple.equal b.items.(i) t) slots

  let add b t =
    check_tuple b.b_schema t;
    if not (mem b t) then begin
      let cap = Array.length b.items in
      if b.len = cap then begin
        let grown = Array.make (max 16 (2 * cap)) t in
        Array.blit b.items 0 grown 0 cap;
        b.items <- grown
      end;
      b.items.(b.len) <- t;
      Hashtbl.replace b.seen (Tuple.hash t)
        (b.len :: Option.value (Hashtbl.find_opt b.seen (Tuple.hash t)) ~default:[]);
      b.len <- b.len + 1
    end

  let add_row b row = add b (Tuple.make row)
  let size b = b.len

  let finish b : relation =
    let facts = Array.sub b.items 0 b.len in
    (* [seen] has exactly the lookup-table shape; copy it so later use
       of the builder cannot reach into the relation's index *)
    {
      schema = b.b_schema;
      facts;
      live = Vset.of_range b.len;
      lookup = Lazy.from_val (Hashtbl.copy b.seen);
      postings = None;
      base = None;
    }
end

let of_tuples schema ts =
  let b = Builder.create ~size_hint:(List.length ts) schema in
  List.iter (Builder.add b) ts;
  Builder.finish b

let of_rows schema rows = of_tuples schema (List.map Tuple.make rows)

(* --- traversal ------------------------------------------------------------ *)

let iter f r = Vset.iter (fun i -> f r.facts.(i)) r.live
let fold f r acc = Vset.fold (fun i acc -> f r.facts.(i) acc) r.live acc
let for_all p r = Vset.for_all (fun i -> p r.facts.(i)) r.live
let exists p r = Vset.exists (fun i -> p r.facts.(i)) r.live

let tuples r =
  List.sort Tuple.compare (fold (fun t acc -> t :: acc) r [])

let tuple_array r =
  if is_dense r then r.facts
  else begin
    let out = Array.make (cardinality r) (Tuple.make []) in
    let j = ref 0 in
    Vset.iter
      (fun i ->
        out.(!j) <- r.facts.(i);
        incr j)
      r.live;
    out
  end

(* --- serialization view ----------------------------------------------------- *)

let slots r =
  Array.mapi (fun i t -> (t, Vset.mem i r.live)) r.facts

let of_facts ?(checked = true) schema facts live =
  let n = Array.length facts in
  (match Vset.max_elt_opt live with
  | Some m when m >= n ->
    invalid_arg "Relation.of_facts: live fact id beyond the slot array"
  | _ -> ());
  if checked then begin
    Array.iter (check_tuple schema) facts;
    (* the duplicate-live check probes an open-addressed table of slot
       indices keyed by the tuples' cached hashes — no per-slot heap
       allocation; the shared lookup table itself is deferred to the
       first [find] *)
    let cap =
      let rec pow2 c = if c >= 2 * (n + 1) then c else pow2 (2 * c) in
      pow2 16
    in
    let mask = cap - 1 in
    let table = Array.make cap (-1) in
    Vset.iter
      (fun i ->
        let t = facts.(i) in
        let j = ref (Tuple.hash t land mask) in
        while
          match table.(!j) with
          | -1 -> false
          | k ->
            if Tuple.equal facts.(k) t then
              invalid_arg
                (Printf.sprintf "Relation.of_facts: duplicate live tuple %s"
                   (Tuple.to_string t));
            true
        do
          j := (!j + 1) land mask
        done;
        table.(!j) <- i)
      live
  end;
  let lookup =
    lazy
      (let lookup = Hashtbl.create (max 16 n) in
       Array.iteri (fun i t -> lookup_add lookup t i) facts;
       lookup)
  in
  { schema; facts; live; lookup; postings = None; base = None }

let of_slots ?checked schema entries =
  let n = Array.length entries in
  let facts = Array.map fst entries in
  (* the live set is assembled word-at-a-time: a persistent [Vset.add]
     per slot copies the whole bitset each iteration — quadratic in the
     slot count, which is exactly what a bulk load must not be *)
  let ws = Vset.word_size in
  let words = Array.make (if n = 0 then 0 else ((n - 1) / ws) + 1) 0 in
  for i = 0 to n - 1 do
    if snd entries.(i) then
      words.(i / ws) <- words.(i / ws) lor (1 lsl (i mod ws))
  done;
  of_facts ?checked schema facts (Vset.of_words words)

(* --- set operations -------------------------------------------------------- *)

let check_same_schema r1 r2 =
  if not (Schema.equal r1.schema r2.schema) then
    invalid_arg "Relation: schema mismatch"

let union r1 r2 =
  check_same_schema r1 r2;
  if is_empty r2 then r1
  else begin
    let b = Builder.create ~size_hint:(cardinality r1 + cardinality r2) r1.schema in
    iter (Builder.add b) r1;
    iter (Builder.add b) r2;
    Builder.finish b
  end

let inter r1 r2 =
  check_same_schema r1 r2;
  filter (mem r2) r1

let diff r1 r2 =
  check_same_schema r1 r2;
  filter (fun t -> not (mem r2 t)) r1

let subset r1 r2 =
  check_same_schema r1 r2;
  for_all (mem r2) r1

let equal r1 r2 =
  Schema.equal r1.schema r2.schema
  && cardinality r1 = cardinality r2
  && for_all (mem r2) r1

let compare r1 r2 = List.compare Tuple.compare (tuples r1) (tuples r2)

let restrict r ts = of_tuples r.schema ts

let active_domain r =
  let values = fold (fun t acc -> List.rev_append (Tuple.values t) acc) r [] in
  List.sort_uniq Value.compare values

(* --- the batched delta path ------------------------------------------------ *)

let patch r ~delete ~insert =
  (* resolve deletions against the pre-patch instance *)
  let deleted = List.map (find_exn r) delete in
  let deleted_set = Vset.of_list deleted in
  if Vset.cardinal deleted_set <> List.length delete then
    invalid_arg "Relation.patch: a tuple is deleted twice";
  let live_after_del = Vset.diff r.live deleted_set in
  let shadow = { r with live = live_after_del; postings = None } in
  List.iter
    (fun t ->
      check_tuple r.schema t;
      if mem shadow t then
        invalid_arg
          (Printf.sprintf "Relation.patch: tuple %s is already in the instance"
             (Tuple.to_string t)))
    insert;
  let rec check_dups = function
    | [] -> ()
    | t :: rest ->
      if List.exists (Tuple.equal t) rest then
        invalid_arg "Relation.patch: a tuple is inserted twice";
      check_dups rest
  in
  check_dups insert;
  (* tombstone, then append under fresh ids *)
  let n = Array.length r.facts in
  let facts = Array.append r.facts (Array.of_list insert) in
  let inserted = List.mapi (fun k _ -> n + k) insert in
  let live =
    List.fold_left (fun s i -> Vset.add i s) live_after_del inserted
  in
  List.iter2 (fun i t -> lookup_add (Lazy.force r.lookup) t i) inserted insert;
  let postings =
    match r.postings with
    | None -> None
    | Some p ->
      let p =
        List.fold_left2
          (fun p i t -> posting_remove p t i)
          p deleted delete
      in
      Some
        (List.fold_left2 (fun p i t -> posting_add p t i) p inserted insert)
  in
  ({ r with facts; live; postings; base = None }, deleted, inserted)

let pp ppf r =
  Format.fprintf ppf "@[<v>%a = {@," Schema.pp r.schema;
  iter (fun t -> Format.fprintf ppf "  %a@," Tuple.pp t) r;
  Format.fprintf ppf "}@]"
