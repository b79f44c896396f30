(* Shared helpers for the test suites. *)

open Graphs

let vset = Alcotest.testable Vset.pp Vset.equal

let vset_list =
  Alcotest.testable
    (Fmt.Dump.list Vset.pp)
    (fun l1 l2 -> List.equal Vset.equal l1 l2)

let vs = Vset.of_list

(* Substring search, for checking error and command output. *)
let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* Vertex-set lists in canonical order for equality checks. *)
let sorted sets = List.sort Vset.compare sets

let value = Alcotest.testable Relational.Value.pp Relational.Value.equal
let tuple = Alcotest.testable Relational.Tuple.pp Relational.Tuple.equal

let relation =
  Alcotest.testable Relational.Relation.pp Relational.Relation.equal

let check_vsets msg expected actual =
  Alcotest.check vset_list msg (sorted expected) (sorted actual)

(* Paper instances used across suites. *)

let mgr () = Workload.Generator.mgr_example ()

(* Paper example builders are shared with examples/ and bench/ via
   Workload.Paper; re-exported here for the test suites. *)
let example7 = Workload.Paper.example7
let example8 = Workload.Paper.example8
let example9 = Workload.Paper.example9
let example9_partial = Workload.Paper.example9_partial
let chain_order = Workload.Paper.chain_order
let chain_total_priority = Workload.Paper.chain_total_priority
