open Relational

(* Per-column statistics, the cost model's input. Two grades:

   - [quick] is what the hot CQA loop can afford: O(1) live cardinality
     plus whatever the relation's lazily built postings already know
     (never forcing a build). Per-repair relations are freshly
     materialized, so in the hot path this usually means row counts
     only and the cost model falls back to textbook default
     selectivities.

   - [scan] is exact: one pass over the live tuples builds per-column
     value-count tables, from which distinct counts and int min/max
     follow. The count tables are kept, which is what makes [patch]
     possible — folding a Delta batch in place without rescanning. *)

type col = {
  cty : [ `Name | `Int ];
  mutable distinct : int; (* -1 = unknown *)
  mutable lo : int; (* packed bounds; meaningful when [bounded] *)
  mutable hi : int;
  mutable bounded : bool;
  counts : (int, int) Hashtbl.t option; (* packed value -> multiplicity *)
}

type t = {
  relation : string;
  mutable rows : int;
  cols : col array;
  exact : bool;
  mutable patched : int; (* batches folded in by [patch] *)
  mutable rebuilt : int; (* full scans, the invalidation counter's dual *)
}

let relation_name s = s.relation
let rows s = s.rows
let arity s = Array.length s.cols
let exact s = s.exact
let patched s = s.patched
let rebuilt s = s.rebuilt

let distinct s i =
  let c = s.cols.(i) in
  if c.distinct < 0 then None else Some c.distinct

let bounds s i =
  let c = s.cols.(i) in
  if c.bounded then Some (c.lo, c.hi) else None

let column_ty s i = s.cols.(i).cty

let fresh_col ?(counted = false) cty =
  {
    cty;
    distinct = -1;
    lo = 0;
    hi = 0;
    bounded = false;
    counts = (if counted then Some (Hashtbl.create 64) else None);
  }

let make ~exact r =
  let schema = Relation.schema r in
  {
    relation = Schema.name schema;
    rows = Relation.cardinality r;
    cols =
      Array.init (Schema.arity schema) (fun i ->
          fresh_col ~counted:exact (Schema.ty_to_poly (Schema.ty_at schema i)));
    exact;
    patched = 0;
    rebuilt = 0;
  }

let quick r =
  let s = make ~exact:false r in
  (* a view reads its base's counts and bounds, with no mask test per
     group: upper bounds on the view's own *)
  let b = Relation.base r in
  Array.iteri
    (fun i c ->
      (* consult only postings that already exist: quick stats must never
         trigger an O(n) index build from inside the planning path *)
      if Relation.postings_ready b i then begin
        c.distinct <- Relation.group_count b i;
        if c.cty = `Int then
          match Relation.group_bounds b i with
          | Some (lo, hi) ->
            c.lo <- lo;
            c.hi <- hi;
            c.bounded <- true
          | None -> ()
      end)
    s.cols;
  s

let scan_into s r =
  s.rows <- Relation.cardinality r;
  Array.iter
    (fun c ->
      c.distinct <- 0;
      c.bounded <- false;
      Option.iter Hashtbl.reset c.counts)
    s.cols;
  Relation.iter
    (fun t ->
      Array.iteri
        (fun i c ->
          let v = Tuple.packed_get t i in
          let counts = Option.get c.counts in
          let n = Option.value (Hashtbl.find_opt counts v) ~default:0 in
          Hashtbl.replace counts v (n + 1);
          if n = 0 then begin
            c.distinct <- c.distinct + 1;
            if c.cty = `Int then
              if not c.bounded then begin
                c.lo <- v;
                c.hi <- v;
                c.bounded <- true
              end
              else begin
                if v < c.lo then c.lo <- v;
                if v > c.hi then c.hi <- v
              end
          end)
        s.cols)
    r;
  s.rebuilt <- s.rebuilt + 1

let scan r =
  Obs.Span.with_span "planner.stats"
    ~args:
      [
        ("relation", Obs.Event.Str (Schema.name (Relation.schema r)));
        ("tuples", Obs.Event.Int (Relation.cardinality r));
      ]
  @@ fun () ->
  let s = make ~exact:true r in
  scan_into s r;
  s

let rebuild s r =
  if not s.exact then
    invalid_arg "Stats.rebuild: only exact (scanned) statistics can be rebuilt";
  scan_into s r

(* Recompute one vanished bound from the count table: O(distinct), paid
   only when a delete removes the current extreme value entirely. *)
let refresh_bounds c =
  let counts = Option.get c.counts in
  if c.distinct = 0 then c.bounded <- false
  else begin
    let lo = ref max_int and hi = ref min_int in
    Hashtbl.iter
      (fun v _ ->
        if v < !lo then lo := v;
        if v > !hi then hi := v)
      counts;
    c.lo <- !lo;
    c.hi <- !hi;
    c.bounded <- true
  end

let patch s ~delete ~insert =
  if not s.exact then
    invalid_arg "Stats.patch: only exact (scanned) statistics are patchable";
  (* deletions first, mirroring the relation's batch convention (a batch
     may delete and re-insert the same tuple) *)
  List.iter
    (fun t ->
      s.rows <- s.rows - 1;
      Array.iteri
        (fun i c ->
          let v = Tuple.packed_get t i in
          let counts = Option.get c.counts in
          match Hashtbl.find_opt counts v with
          | None | Some 0 -> invalid_arg "Stats.patch: deleting an uncounted value"
          | Some 1 ->
            Hashtbl.remove counts v;
            c.distinct <- c.distinct - 1;
            if c.cty = `Int && c.bounded && (v = c.lo || v = c.hi) then
              refresh_bounds c
          | Some n -> Hashtbl.replace counts v (n - 1))
        s.cols)
    delete;
  List.iter
    (fun t ->
      s.rows <- s.rows + 1;
      Array.iteri
        (fun i c ->
          let v = Tuple.packed_get t i in
          let counts = Option.get c.counts in
          let n = Option.value (Hashtbl.find_opt counts v) ~default:0 in
          Hashtbl.replace counts v (n + 1);
          if n = 0 then begin
            c.distinct <- c.distinct + 1;
            if c.cty = `Int then
              if not c.bounded then begin
                c.lo <- v;
                c.hi <- v;
                c.bounded <- true
              end
              else begin
                if v < c.lo then c.lo <- v;
                if v > c.hi then c.hi <- v
              end
          end)
        s.cols)
    insert;
  s.patched <- s.patched + 1

let pp ppf s =
  Format.fprintf ppf "@[<v>%s: %d row(s), %s statistics (%d scan(s), %d patch(es))"
    s.relation s.rows
    (if s.exact then "exact" else "quick")
    s.rebuilt s.patched;
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "@,  #%d: " i;
      (match distinct s i with
      | None -> Format.fprintf ppf "distinct ?"
      | Some d -> Format.fprintf ppf "distinct %d" d);
      if c.bounded && c.cty = `Int then
        Format.fprintf ppf ", range [%a .. %a]" Value.pp (Value.unpack c.lo)
          Value.pp (Value.unpack c.hi))
    s.cols;
  Format.fprintf ppf "@]"
