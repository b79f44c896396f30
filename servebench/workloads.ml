(* Seeded workload generation: one instance and one request stream per
   (workload, seed).  The server only ever sees what is generated here —
   the instance as a [.pdb] file given to [prefdb init], and the request
   lines sent over the socket. *)

open Relational
module IF = Dbio.Instance_format
module Prng = Workload.Prng

type kind =
  | Query  (** a non-mutating [query] / [hyper query] request *)
  | Write  (** an [insert] / [delete] / [undo] request *)

type request = { line : string; kind : kind }

type t = {
  spec : IF.spec;
  untimed : string list;
      (** session set-up and the warm-up pass: every distinct query of
          the timed stream once, so the lazily filled component caches
          are full before timing starts *)
  timed : request array;  (** the fixed-count timed window *)
  probe : string list;
      (** sent after the kill-9 restart (write-mix only): their answers
          cover the whole recovered state *)
  ready : string list;
      (** the queries whose answers mark a started or restarted server as
          serving: the first [ready_count] distinct queries of the
          warm-up, of the same kinds for every seed *)
}

let ready_count = 8

type shape = {
  name : string;
  rate : int;
      (** timed requests per second of [--seconds] — the count is fixed
          by the command line, never by measured throughput *)
  generate : small:bool -> Prng.t -> count:int -> t;
}

(* --- shared helpers ------------------------------------------------------ *)

let lit = function
  | Value.Name s -> Printf.sprintf "'%s'" s
  | Value.Int n -> string_of_int n

let atom rel t =
  Printf.sprintf "%s(%s)" rel (String.concat ", " (List.map lit (Tuple.values t)))

let values t = String.concat " " (List.map lit (Tuple.values t))

(* [count] requests taking the pool in rounds, each round in a fresh
   seeded order: every pool entry is sent equally often, so the stream's
   mix is the pool's mix whatever the seed. *)
let rounds rng pool count =
  let p = Array.length pool in
  let order = Array.init p Fun.id in
  Array.init count (fun i ->
      if i mod p = 0 then Prng.shuffle rng order;
      pool.(order.(i mod p)))

let dedup lines =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun l ->
      if Hashtbl.mem seen l then false
      else (
        Hashtbl.add seen l ();
        true))
    lines

let reads lines = Array.of_list (List.map (fun line -> { line; kind = Query }) lines)

(* The data-integration scenario as a spec: tiered sources, preferences
   from source reliability. [ties] adds that many extra employees, each
   reported differently by two sources no reliability pair orders. *)
let integration_spec rng ~employees ~tiers ~overlap ~ties =
  let s =
    Workload.Scenario.integration rng ~employees ~sources_per_tier:tiers ~overlap
  in
  let schema = Relation.schema s.Workload.Scenario.relation in
  let tie_tuples =
    List.concat
      (List.init ties (fun i ->
           let name = Value.Name (Printf.sprintf "tie%02d" i) in
           [
             ( Tuple.make [ name; Value.Name "R&D"; Value.Int (40_000 + (1000 * i)) ],
               "tie_a" );
             ( Tuple.make [ name; Value.Name "IT"; Value.Int (60_000 + (1000 * i)) ],
               "tie_b" );
           ]))
  in
  let relation =
    Relation.of_tuples schema
      (Relation.tuples s.Workload.Scenario.relation @ List.map fst tie_tuples)
  in
  let provenance =
    List.fold_left
      (fun p (t, src) -> Provenance.set p t (Provenance.info ~source:src ()))
      s.Workload.Scenario.provenance tie_tuples
  in
  let spec =
    {
      IF.relation;
      fds = s.Workload.Scenario.fds;
      denials = [];
      provenance;
      prefs =
        List.map (fun (hi, lo) -> IF.Source_pair (hi, lo)) s.Workload.Scenario.reliability;
    }
  in
  (spec, Relation.tuples s.Workload.Scenario.relation)

(* Each employee's tuples, in relation order. *)
let by_employee tuples =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun t ->
      let k = Tuple.get t 0 in
      Hashtbl.replace tbl k (t :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    tuples;
  let names =
    List.sort_uniq Value.compare (List.map (fun t -> Tuple.get t 0) tuples)
  in
  Array.of_list (List.map (fun n -> (n, List.rev (Hashtbl.find tbl n))) names)

let nth_tuple rng ts = List.nth ts (Prng.int rng (List.length ts))

(* --- pref-analytic ----------------------------------------------------------- *)

(* Closed join-with-comparison queries (Example 3's shape), three in
   four, and open certain-answer queries under G.  The open ones are the
   cheaper kind, so the median latency falls inside the closed queries'
   distribution rather than on the boundary between two kinds.  Sources form one total reliability
   chain, so every employee's component has a single G-repair, except
   for [ties] employees reported by two unordered sources: the global
   family is exactly 2^ties repairs.  That bounds the deviation scan's
   full-product pass — a certain verdict over many two-repair components
   is exponential (see README) — and every closed query names two
   single-repair employees, so its verdict is certain and neither pass
   stops early: the work counters do not depend on which pool lane
   finishes first.  One entry in 32 is [heavy], the whole relation's
   certain answers: about twice a closed join's time, whatever the seed,
   since every seed has the same number of employees.  It is 3.1% of the
   stream, so the p99 falls inside that one query's distribution rather
   than on the scheduling tail of the closed joins. *)
let heavy = "query Emp(n, d, s)"

let pref_analytic ~small rng ~count =
  let ties = 3 in
  let spec, tuples =
    integration_spec rng
      ~employees:(if small then 150 else 500)
      ~tiers:[ 1; 1; 1 ] ~overlap:0.5 ~ties
  in
  let emps = by_employee tuples in
  let emp () = lit (fst emps.(Prng.int rng (Array.length emps))) in
  let depts = [| "R&D"; "IT"; "PR"; "Sales"; "HR"; "Legal" |] in
  let pool_size = if small then 32 else 128 in
  let pool =
    Array.init pool_size (fun i ->
        if i mod 4 < 3 then
          Printf.sprintf
            "query exists d1,s1,d2,s2. Emp(%s,d1,s1) and Emp(%s,d2,s2) and s1 > s2"
            (emp ()) (emp ())
        else if i mod 32 = 31 then heavy
        else
          Printf.sprintf "query exists s. Emp(n, '%s', s) and s > %d"
            depts.(Prng.int rng (Array.length depts))
            (90_000 + (1000 * Prng.int rng 8)))
  in
  {
    spec;
    untimed = "family g" :: dedup (Array.to_list pool);
    timed = reads (Array.to_list (rounds rng pool count));
    probe = [];
    ready = Array.to_list (Array.sub pool 0 ready_count);
  }

(* --- write-mix ------------------------------------------------------------------ *)

(* Cycles of four writes — insert x, delete y, undo (y is back), delete
   x — each followed by [reads_per_write] ground reads alternating
   between x and y, two tuples of one employee that share a component.
   The first read after a write refills the component cache the write
   evicted, the others hit it: the median read is a cache hit, and with
   one refill in 36 reads the p99 falls inside the refills rather than
   on the scheduling tail of the hits.  A cycle leaves the store as it found it, so every
   cycle costs the same and the window's figures do not drift with the
   run's length: a stream of insert / delete / undo that kept its
   inserts grew the store by one fact per cycle, and its writes slowed
   down by a third over a window.  The timed stream is a whole number
   of cycles, so the journal the kill-9 restart replays holds exactly 4
   records per cycle. *)
let reads_per_write = 36

let write_mix ~small rng ~count =
  let spec, tuples =
    integration_spec rng
      ~employees:(if small then 300 else 2000)
      ~tiers:[ 2; 1 ] ~overlap:0.6 ~ties:0
  in
  let emps = by_employee tuples in
  let cycles = max 1 (count / (4 * (1 + reads_per_write))) in
  let warm = ref [] and timed = ref [] in
  let q t = "query " ^ atom "Emp" t in
  for c = 0 to cycles - 1 do
    let name, ts = emps.(Prng.int rng (Array.length emps)) in
    let y = nth_tuple rng ts in
    let x = Tuple.make [ name; Value.Name "Legal"; Value.Int (500_000 + c) ] in
    warm := q y :: !warm;
    let r l = { line = l; kind = Query } and w l = { line = l; kind = Write } in
    let write l = w l :: List.init reads_per_write (fun i -> r (q (if i mod 2 = 0 then x else y))) in
    timed :=
      List.rev_append
        (write ("insert " ^ values x)
        @ write ("delete " ^ values y)
        @ write "undo"
        @ write ("delete " ^ values x))
        !timed
  done;
  {
    spec;
    untimed = dedup (List.rev !warm);
    timed = Array.of_list (List.rev !timed);
    probe = [ "facts"; "count" ];
    ready = List.filteri (fun i _ -> i < ready_count) (dedup (List.rev !warm));
  }

(* --- denial-read ------------------------------------------------------------------ *)

(* Closed hyper queries under Pareto and Global over the clustered
   denial store (mixed-arity denials, a preference on C).  Five in eight
   are ground lookups of cluster facts, one in eight each ground lookups
   of tail facts and of absent facts (slightly cheaper) and quantified
   lookups of one cluster's B value (the costly kind): the median falls
   inside the cluster lookups, the p99 inside the quantified ones.  The
   quantified ones are ambiguous, settled by the deviation scan once it
   reaches their cluster — one with a certain verdict would walk the
   product of every cluster's repairs. *)
let denial_read ~small rng ~count =
  let groups = if small then 20 else 60 and width = 6 in
  let facts = if small then 200 else 600 in
  let relation, denials = Workload.Generator.denial_clusters ~facts ~groups ~width in
  let spec =
    {
      IF.relation;
      fds = [];
      denials;
      provenance = Provenance.empty;
      prefs = [ IF.Attribute ("C", `Larger) ];
    }
  in
  let pool_size = if small then 32 else 128 in
  let pool =
    Array.init pool_size (fun i ->
        let fam = if i mod 2 = 0 then "pareto" else "global" in
        let g = Prng.int rng groups and w = Prng.int rng width in
        let q =
          match i / 2 mod 8 with
          | 0 | 1 | 2 | 3 | 4 ->
            (* a fact of cluster g, as the generator lays it out *)
            let b, c =
              match g mod 3 with
              | 0 -> (w, 0)
              | 1 -> (0, w)
              | _ -> (Workload.Generator.denial_cap + 1, w)
            in
            Printf.sprintf "R(%d, %d, %d, 1)" g b c
          | 5 ->
            Printf.sprintf "R(%d, 0, %d, 0)" groups
              ((groups * width) + Prng.int rng (facts - (groups * width)))
          | 6 -> Printf.sprintf "R(%d, %d, %d, 1)" g (width + 1 + w) (width + 1)
          | _ ->
            (* clusters g = 0 mod 3 hold one fact per B value and no
               preference orders them; the last such cluster, so every
               quantified query scans the same components before the
               deviation that settles it *)
            Printf.sprintf "exists c. R(%d, %d, c, 1)" ((groups - 1) / 3 * 3) w
        in
        Printf.sprintf "hyper query %s %s" fam q)
  in
  {
    spec;
    untimed = dedup (Array.to_list pool);
    timed = reads (Array.to_list (rounds rng pool count));
    probe = [];
    ready = Array.to_list (Array.sub pool 0 ready_count);
  }

(* The rates make a window last about [--seconds] on a 2-vCPU VM. *)
let all =
  [
    {
      name = "pref-analytic";
      rate = 220;
      generate = pref_analytic;
    };
    {
      name = "write-mix";
      rate = 20_000;
      generate = write_mix;
    };
    {
      name = "denial-read";
      rate = 105;
      generate = denial_read;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
