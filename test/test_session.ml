(* Tests for the interactive session interpreter. *)

module Session = Shell.Session
module Family = Core.Family

let check = Alcotest.check

let contains = Testlib.contains

let mgr_file () =
  let path = Filename.temp_file "prefdb" ".pdb" in
  let spec =
    let rel, fds, prov = Testlib.mgr () in
    {
      Dbio.Instance_format.relation = rel;
      fds;
      denials = [];
      provenance = prov;
      prefs =
        [
          Dbio.Instance_format.Source_pair ("s1", "s3");
          Dbio.Instance_format.Source_pair ("s2", "s3");
        ];
    }
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Dbio.Instance_format.print spec));
  path

let load () =
  let st, msg = Session.exec Session.initial ("load " ^ mgr_file ()) in
  Alcotest.(check bool) "load succeeded" true (contains ~needle:"4 tuples" msg);
  st

let test_initial_state () =
  Alcotest.(check bool) "starts with C-Rep" true
    (Session.family Session.initial = Family.C);
  Alcotest.(check bool) "nothing loaded" true (Session.loaded Session.initial = None);
  let _, msg = Session.exec Session.initial "info" in
  Alcotest.(check bool) "needs a load" true (contains ~needle:"no instance" msg)

let test_load_and_info () =
  let st = load () in
  let _, info = Session.exec st "info" in
  Alcotest.(check bool) "mentions conflicts" true (contains ~needle:"conflicts: 3" info);
  Alcotest.(check bool) "mentions schema" true (contains ~needle:"Mgr" info);
  Alcotest.(check bool) "reports the intern dictionary" true
    (contains ~needle:"interned: " info)

let test_family_switch () =
  let st = load () in
  let st, msg = Session.exec st "family g" in
  Alcotest.(check bool) "switched" true (contains ~needle:"G-Rep" msg);
  Alcotest.(check bool) "state updated" true (Session.family st = Family.G);
  let _, err = Session.exec st "family bogus" in
  Alcotest.(check bool) "bad family" true (contains ~needle:"unknown family" err)

let test_repairs_and_count () =
  let st = load () in
  let _, out = Session.exec st "repairs" in
  Alcotest.(check bool) "two C-repairs" true
    (contains ~needle:"2 preferred repair(s)" out);
  let _, out = Session.exec st "count" in
  Alcotest.(check bool) "count agrees" true
    (contains ~needle:"2 preferred repair(s)" out)

(* [repairs N] streams N repairs of the engine's decomposition and takes
   the total from the product count: 2^40 repairs never materialize. *)
let test_repairs_limit_streams () =
  let rel, fds = Workload.Generator.ladder 40 in
  let spec =
    {
      Dbio.Instance_format.relation = rel;
      fds;
      denials = [];
      provenance = Relational.Provenance.empty;
      prefs = [];
    }
  in
  let engine = Result.get_ok (Core.Delta.create fds rel) in
  let st = Session.of_spec ~engine spec in
  let streamed () =
    (Core.Decompose.counters (Core.Delta.decompose engine)).combos_streamed
  in
  let before = streamed () in
  let _, out = Session.exec st "repairs 3" in
  let lines = String.split_on_char '\n' out in
  let headers =
    List.filter (fun l -> contains ~needle:"--- repair " l) lines
  in
  check Alcotest.int "three repairs listed" 3 (List.length headers);
  check Alcotest.string "total line" "C-Rep: 1099511627776 preferred repair(s)"
    (List.hd lines);
  check Alcotest.string "remainder line" "... (1099511627773 more)"
    (List.nth lines (List.length lines - 1));
  Alcotest.(check bool) "at most 3 combinations streamed" true
    (streamed () - before <= 3)

let test_query_commands () =
  let st = load () in
  let _, out =
    Session.exec st
      "query Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Alcotest.(check bool) "certain disjunction" true
    (contains ~needle:"certainly true" out);
  let _, out = Session.exec st "query exists d, s, r. Mgr('Mary', d, s, r)" in
  Alcotest.(check bool) "quantified query" true
    (contains ~needle:"certainly true" out);
  let _, out = Session.exec st "query Mgr(n, 'R&D', s, r)" in
  Alcotest.(check bool) "open query" true (contains ~needle:"certain answer" out);
  let _, out = Session.exec st "query Mgr(" in
  Alcotest.(check bool) "parse error surfaces" true (contains ~needle:"error" out)

let test_qtrace () =
  let st = load () in
  let _, out =
    Session.exec st
      "qtrace Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Alcotest.(check bool) "verdict reported" true
    (contains ~needle:"certainly true" out);
  Alcotest.(check bool) "component breakdown" true
    (contains ~needle:"components:" out);
  Alcotest.(check bool) "cache counters" true
    (contains ~needle:"component cache" out);
  let _, err = Session.exec st "qtrace Mgr(n, 'R&D', s, r)" in
  Alcotest.(check bool) "open query rejected" true
    (contains ~needle:"closed query" err);
  let _, usage = Session.exec st "qtrace" in
  Alcotest.(check bool) "bare qtrace prints usage" true
    (contains ~needle:"usage" usage)

let test_explain_and_status () =
  let st = load () in
  let _, out = Session.exec st "explain Mgr('Mary', 'IT', 20000, 1)" in
  Alcotest.(check bool) "ambiguous with witnesses" true
    (contains ~needle:"holds in" out && contains ~needle:"fails in" out);
  let _, out = Session.exec st "status 'Mary' 'R&D' 40000 3" in
  Alcotest.(check bool) "status renders" true (contains ~needle:"conflicts with" out);
  let _, out = Session.exec st "status 'Ghost' 'X' 1 1" in
  Alcotest.(check bool) "unknown tuple" true (contains ~needle:"error" out)

let test_facts_and_aggregate () =
  let st = load () in
  let _, out = Session.exec st "facts" in
  Alcotest.(check bool) "all disputed" true (contains ~needle:"disputed (4)" out);
  let _, out = Session.exec st "aggregate sum:Salary" in
  Alcotest.(check bool) "range" true (contains ~needle:"SUM(Salary)" out);
  let _, out = Session.exec st "aggregate bogus" in
  Alcotest.(check bool) "bad aggregate" true (contains ~needle:"error" out)

let test_clean () =
  let st = load () in
  let _, out = Session.exec st "clean" in
  Alcotest.(check bool) "reports kept tuples" true
    (contains ~needle:"keeps 2 tuples" out);
  let _, out = Session.exec st "trace" in
  Alcotest.(check bool) "trace shows steps" true (contains ~needle:"step 1" out);
  let _, out = Session.exec st "stats" in
  Alcotest.(check bool) "stats summarize" true
    (contains ~needle:"preferred repairs:      2" out)

let test_prefer_and_save () =
  let st = load () in
  (* before: the s1-vs-s2 conflict is unresolved; Q2 disjunction already
     certain, but the single fact Mary-R&D is ambiguous *)
  let _, before = Session.exec st "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "ambiguous before" true (contains ~needle:"ambiguous" before);
  (* adding s1 > s2 orients the remaining conflict *)
  let st, msg = Session.exec st "prefer source s1 > s2" in
  Alcotest.(check bool) "3 oriented now" true (contains ~needle:"3 conflict" msg);
  let _, after = Session.exec st "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "certain after" true (contains ~needle:"certainly true" after);
  (* bad preferences are rejected and do not corrupt the state *)
  let st, err = Session.exec st "prefer source s2 > s1" in
  Alcotest.(check bool) "cyclic source order rejected" true
    (contains ~needle:"error" err);
  let _, still = Session.exec st "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "state intact" true (contains ~needle:"certainly true" still);
  (* save and reload *)
  let path = Filename.temp_file "prefdb" ".pdb" in
  let st, msg = Session.exec st ("save " ^ path) in
  Alcotest.(check bool) "saved" true (contains ~needle:"saved" msg);
  let st2, _ = Session.exec st ("load " ^ path) in
  let _, reloaded = Session.exec st2 "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "preferences survive the round-trip" true
    (contains ~needle:"certainly true" reloaded)

let test_insert_delete_undo () =
  let st = load () in
  let _, count0 = Session.exec st "count" in
  (* a fifth Mary violates the key FD against both existing Mary tuples *)
  let st, out = Session.exec st "insert 'Mary' 'HR' 1 1" in
  Alcotest.(check bool) "insert reports the batch" true
    (contains ~needle:"+1 tuple(s)" out);
  Alcotest.(check bool) "insert creates conflict edges" true
    (not (contains ~needle:"(0 conflict edge(s) added" out));
  let _, info = Session.exec st "info" in
  Alcotest.(check bool) "info sees 5 tuples" true (contains ~needle:"tuples:   5" info);
  (* inserting the same tuple again is rejected, state intact *)
  let st, err = Session.exec st "insert 'Mary' 'HR' 1 1" in
  Alcotest.(check bool) "duplicate insert rejected" true
    (Session.is_error_output err);
  (* deleting an absent tuple is rejected too *)
  let st, err = Session.exec st "delete 'Ghost' 'X' 1 1" in
  Alcotest.(check bool) "absent delete rejected" true (Session.is_error_output err);
  (* delete the insertion, then undo both batches: back to the start *)
  let st, out = Session.exec st "delete 'Mary' 'HR' 1 1" in
  Alcotest.(check bool) "delete reports the batch" true
    (contains ~needle:"-1 tuple(s)" out);
  let st, _ = Session.exec st "undo" in
  let _, info = Session.exec st "info" in
  Alcotest.(check bool) "undo restores the insertion" true
    (contains ~needle:"tuples:   5" info);
  let st, _ = Session.exec st "undo" in
  let _, count1 = Session.exec st "count" in
  check Alcotest.string "counts restored after full rewind" count0 count1;
  let _, err = Session.exec st "undo" in
  Alcotest.(check bool) "undo past the beginning errors" true
    (Session.is_error_output err)

let test_save_load_round_trip () =
  (* property: save → load → save is a fixed point of the instance
     format, and the reloaded session answers exactly like the session
     that saved — including after incremental updates *)
  let st = load () in
  let st, _ = Session.exec st "insert 'Zoe' 'HR' 1 1" in
  let st, _ = Session.exec st "delete 'John' 'PR' 30000 4" in
  let p1 = Filename.temp_file "prefdb" ".pdb" in
  let st, msg = Session.exec st ("save " ^ p1) in
  Alcotest.(check bool) "saved" true (contains ~needle:"saved" msg);
  let st2, msg = Session.exec Session.initial ("load " ^ p1) in
  Alcotest.(check bool) "reloaded" true (contains ~needle:"4 tuples" msg);
  let p2 = Filename.temp_file "prefdb" ".pdb" in
  let _, _ = Session.exec st2 ("save " ^ p2) in
  let slurp p = In_channel.with_open_text p In_channel.input_all in
  check Alcotest.string "save -> load -> save is a fixed point" (slurp p1)
    (slurp p2);
  List.iter
    (fun cmd ->
      let _, a = Session.exec st cmd in
      let _, b = Session.exec st2 cmd in
      check Alcotest.string ("round-trip preserves '" ^ cmd ^ "'") a b)
    [
      "info"; "count"; "facts"; "repairs";
      "query Mgr('Zoe', 'HR', 1, 1)";
      "query exists d, s, r. Mgr('Mary', d, s, r)";
    ]

let test_unknown_and_help () =
  let st = load () in
  let _, out = Session.exec st "frobnicate" in
  Alcotest.(check bool) "unknown command" true (contains ~needle:"unknown command" out);
  let _, out = Session.exec st "help" in
  Alcotest.(check bool) "help lists commands" true (contains ~needle:"aggregate" out);
  let _, out = Session.exec st "" in
  Alcotest.(check bool) "empty line" true (out = "")

let test_profile_and_telemetry () =
  let st = load () in
  (* profile: verdict plus a span tree, no session sink required *)
  let _, out =
    Session.exec st
      "profile Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Alcotest.(check bool) "verdict reported" true
    (contains ~needle:"certainly true" out);
  Alcotest.(check bool) "profile tree rendered" true
    (contains ~needle:"cqa.certainty" out);
  Alcotest.(check bool) "route recorded" true
    (contains ~needle:"route=" out);
  let _, err = Session.exec st "profile Mgr(n, 'R&D', s, r)" in
  Alcotest.(check bool) "open query rejected" true
    (contains ~needle:"closed query" err);
  let _, usage = Session.exec st "profile" in
  Alcotest.(check bool) "bare profile prints usage" true
    (contains ~needle:"usage" usage);
  (* with a session-wide sink installed (the shell's --trace-out path),
     every command runs inside a shell.<cmd> span and the commands that
     build their own local trees tee rather than steal the stream *)
  let buf = Obs.Sink.Memory.create () in
  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
  let st, _ = Session.exec st "stats" in
  let st, _ =
    Session.exec st "qtrace Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  let _, out =
    Session.exec st
      "profile Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Obs.Span.set_sink None;
  Alcotest.(check bool) "profile output intact under tee" true
    (contains ~needle:"cqa.certainty" out);
  let names =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.phase with Obs.Event.Begin -> Some e.name | _ -> None)
      (Obs.Sink.Memory.events buf)
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " captured") true
        (List.mem needle names))
    [ "shell.stats"; "shell.qtrace"; "shell.profile"; "cqa.certainty" ];
  match Obs.Export.validate_jsonl (Obs.Export.jsonl_string (Obs.Sink.Memory.events buf)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("session trace invalid: " ^ e)

(* A spec text loaded into a fresh session. *)
let load_text text =
  let path = Filename.temp_file "prefdb" ".pdb" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
  let st, msg = Session.exec Session.initial ("load " ^ path) in
  Alcotest.(check bool) "load succeeded" false (Session.is_error_output msg);
  st

let emp_denials =
  "relation Emp(Name:name, Dept:name, Cap:int)\n\
   denial 'no-dup' forall 2 : t1.Name = t2.Name and t1.Dept != t2.Dept\n\
   denial 'cap' forall 1 : t1.Cap > 100\n\
   tuple 'Mary' 'R&D' 10\n\
   tuple 'Mary' 'IT' 20\n\
   tuple 'John' 'PR' 30\n\
   tuple 'Ann' 'HQ' 500\n"

(* clean and trace run Algorithm 1, which is defined on the binary
   conflict graph of the FDs: on a spec that declares denials they refuse
   rather than answer as if the denials did not exist (Ann violates
   [cap], so she is in no repair), and name the commands that do answer
   there. *)
let test_denial_spec_refuses_fd_answers () =
  let st = load_text emp_denials in
  List.iter
    (fun cmd ->
      let _, out = Session.exec st cmd in
      Alcotest.(check bool) (cmd ^ " is an error") true
        (Session.is_error_output out);
      Alcotest.(check bool) (cmd ^ " names the answering commands") true
        (contains
           ~needle:
             "repairs, count, facts, query, profile, aggregate, explain, status, \
              stats, qtrace"
           out))
    [ "clean"; "trace" ];
  (* stats and qtrace answer on the hypergraph: the 1-ary cap edge is a
     component of its own whose one repair excludes Ann *)
  let _, out = Session.exec st "stats" in
  Alcotest.(check bool) "stats answers with the hyperedge components" true
    (contains ~needle:"components:             3 (1 non-trivial, largest 2)" out
    && contains ~needle:"1 certain, 2 disputed, 1 excluded" out);
  let _, out = Session.exec st "qtrace Emp('Ann', 'HQ', 500)" in
  Alcotest.(check bool) "qtrace answers" true
    (contains ~needle:"verdict:                certainly false (Rep)" out);
  let _, out = Session.exec st "hyper query Emp('Ann', 'HQ', 500)" in
  check Alcotest.string "hyper query" "Rep: certainly false" out;
  (* explain and status answer on the hypergraph: the 1-ary cap edge
     removes Ann from every repair *)
  let _, out = Session.exec st "explain Emp('Ann', 'HQ', 500)" in
  Alcotest.(check bool) "explain answers" true
    (contains ~needle:"certainly false\n  fails in:  {" out);
  let _, out = Session.exec st "status 'Ann' 'HQ' 500" in
  Alcotest.(check bool) "status answers" true
    (contains ~needle:"status: removed from every preferred repair" out);
  let _, out = Session.exec st "hyper count" in
  check Alcotest.string "hyper count"
    "Rep: 2 preferred repair(s) across 3 component(s)" out;
  (* the commands that describe the instance keep working *)
  List.iter
    (fun cmd ->
      let _, out = Session.exec st cmd in
      Alcotest.(check bool) (cmd ^ " still answers") false
        (Session.is_error_output out))
    [ "info"; "plan Emp('Ann', 'HQ', 500)"; "denials" ];
  let st, out = Session.exec st "insert 'Zed' 'OPS' 7" in
  Alcotest.(check bool) "insert still applies" false (Session.is_error_output out);
  let st, out = Session.exec st "delete 'Zed' 'OPS' 7" in
  Alcotest.(check bool) "delete still applies" false (Session.is_error_output out);
  let _, out = Session.exec st "undo" in
  Alcotest.(check bool) "undo still applies" false (Session.is_error_output out)

(* The repair commands answer a denial spec on its conflict hypergraph,
   under Rep by default and under Pareto/Global for s/g; the hyperedge
   context is built once per change of the spec, not per command. *)
let test_denial_spec_answers () =
  let st = load_text emp_denials in
  let buf = Obs.Sink.Memory.create () in
  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
  let run st cmd = snd (Session.exec st cmd) in
  let query = run st "query Emp('Ann', 'HQ', 500)" in
  let count = run st "count" in
  let facts = run st "facts" in
  let st, _ = Session.exec st "insert 'Zed' 'OPS' 7" in
  let count' = run st "count" in
  let facts' = run st "facts" in
  Obs.Span.set_sink None;
  check Alcotest.string "query" "Rep: certainly false" query;
  check Alcotest.string "count" "Rep: 2 preferred repair(s) across 3 component(s)"
    count;
  Alcotest.(check bool) "Ann is excluded" true
    (contains ~needle:"excluded (1):\n  ('Ann', 'HQ', 500)" facts);
  Alcotest.(check bool) "the insertion is seen" true
    (contains ~needle:"2 preferred repair(s)" count'
    && contains ~needle:"('Zed', 'OPS', 7)" facts');
  let whole_builds n =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) ->
           e.phase = Obs.Event.Begin && e.name = "hyper.build"
           && List.assoc_opt "tuples" e.args = Some (Obs.Event.Int n))
         (Obs.Sink.Memory.events buf))
  in
  check Alcotest.int "one build for three commands" 1 (whole_builds 4);
  check Alcotest.int "one build after the insertion" 1 (whole_builds 5);
  (* the families: s/g are Pareto/Global, L and C have no counterpart *)
  let st, msg = Session.exec st "family pareto" in
  check Alcotest.string "pareto label" "family: Pareto" msg;
  Alcotest.(check bool) "pareto query" true
    (contains ~needle:"Pareto: " (run st "query Emp('John', 'PR', 30)"));
  let st, _ = Session.exec st "family c" in
  let out = run st "query Emp('Ann', 'HQ', 500)" in
  Alcotest.(check bool) "C-Rep is an error" true (Session.is_error_output out);
  Alcotest.(check bool) "the error names the families" true
    (contains ~needle:"rep|pareto|global" out);
  (* one name space: pareto/global are s/g on an FD spec *)
  let mgr = load () in
  let count_under fam = run (fst (Session.exec mgr ("family " ^ fam))) "count" in
  check Alcotest.string "pareto = s" (count_under "s") (count_under "pareto");
  check Alcotest.string "global = g" (count_under "g") (count_under "global")

(* Declared denials add to the FDs rather than replace them: the Mary
   pair conflicts through [fd Name -> Dept], Ann through [cap]. *)
let test_denials_keep_the_fds () =
  let st =
    load_text
      "relation Emp(Name:name, Dept:name, Cap:int)\n\
       fd Name -> Dept\n\
       denial 'cap' forall 1 : t1.Cap > 100\n\
       tuple 'Mary' 'R&D' 10\n\
       tuple 'Mary' 'IT' 20\n\
       tuple 'John' 'PR' 30\n\
       tuple 'Ann' 'HQ' 500\n"
  in
  let _, out = Session.exec st "hyper count" in
  Alcotest.(check bool) "two repairs, one per Mary" true
    (contains ~needle:"Rep: 2 preferred repair(s)" out);
  let _, out =
    Session.exec st "hyper query Emp('Mary', 'R&D', 10) and Emp('Mary', 'IT', 20)"
  in
  check Alcotest.string "the conflicting Marys are never together"
    "Rep: certainly false" out;
  let _, out = Session.exec st "denials" in
  Alcotest.(check bool) "denials lists both" true
    (contains ~needle:"2 denial constraint(s) (1 compiled from the fds)" out
    && contains ~needle:"'cap'" out
    && contains ~needle:"t1.Name = t2.Name and t1.Dept != t2.Dept" out)

(* explain on an instance with 2^62 Rep repairs: the ground route and
   the deviation scan decide with their own witnesses, streaming no more
   combinations than the baseline plus one per component repair. *)
let test_explain_bounded_work () =
  let path = "../examples/chains_32x8.pref" in
  let st, msg = Session.exec Session.initial ("load " ^ path) in
  Alcotest.(check bool) "chains loaded" false (Session.is_error_output msg);
  let spec = Result.get_ok (Dbio.Instance_format.parse_file path) in
  let rule = Result.get_ok (Dbio.Instance_format.to_rule spec) in
  let eng = Result.get_ok (Core.Delta.create ~rule spec.fds spec.relation) in
  let d = Core.Delta.decompose eng in
  let bound fam =
    List.fold_left
      (fun acc comp -> acc + Core.Decompose.count_within fam d comp)
      1 (Core.Decompose.components d)
  in
  let streamed st cmd =
    let buf = Obs.Sink.Memory.create () in
    Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
    let _, out =
      Fun.protect
        ~finally:(fun () -> Obs.Span.set_sink None)
        (fun () -> Session.exec st cmd)
    in
    let combos =
      List.fold_left
        (fun acc (e : Obs.Event.t) ->
          match (e.phase, List.assoc_opt "combos_streamed" e.args) with
          | Obs.Event.End, Some (Obs.Event.Int n) when e.name = "cqa.certainty" ->
            acc + n
          | _ -> acc)
        0 (Obs.Sink.Memory.events buf)
    in
    (out, combos)
  in
  let rep, msg = Session.exec st "family rep" in
  check Alcotest.string "family" "family: Rep" msg;
  let out, combos = streamed rep "explain R(1, 1, 0, 2)" in
  Alcotest.(check bool) "ground: ambiguous with both witnesses" true
    (contains ~needle:"ambiguous\n  holds in:  {" out && contains ~needle:"fails in:  {" out);
  Alcotest.(check bool) "ground: bounded work" true (combos <= bound Family.Rep);
  let out, combos = streamed st "explain exists a,c. R(a, 1, c, 2)" in
  Alcotest.(check bool) "quantified: certainly false under C" true
    (contains ~needle:"certainly false\n  fails in:  {" out
    && not (contains ~needle:"holds in" out));
  Alcotest.(check bool) "quantified: baseline streamed, bounded work" true
    (combos >= 1 && combos <= bound Family.C)

(* status reads the live engine: no request rebuilds the decomposition. *)
let test_status_builds_nothing () =
  let st = load () in
  let buf = Obs.Sink.Memory.create () in
  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
  Fun.protect ~finally:(fun () -> Obs.Span.set_sink None) (fun () ->
      List.iter
        (fun t -> ignore (Session.exec st ("status " ^ t)))
        [ "'Mary' 'R&D' 40000 3"; "'Mary' 'IT' 20000 1"; "'John' 'PR' 30000 4" ]);
  let makes =
    List.filter
      (fun (e : Obs.Event.t) -> e.phase = Obs.Event.Begin && e.name = "decompose.make")
      (Obs.Sink.Memory.events buf)
  in
  check Alcotest.int "no decompose.make" 0 (List.length makes)

(* stats and qtrace read the engine's slot array and free set: a store
   of 50k facts with 10 conflicting groups costs them the 10 groups, not
   one dense singleton component per clean fact. Measured in allocated
   bytes, not wall time. *)
let test_reports_allocate_per_component () =
  let rel, fds =
    Workload.Generator.clustered_conflicts ~facts:50_000 ~groups:10 ~width:4
  in
  let spec =
    {
      Dbio.Instance_format.relation = rel;
      fds;
      denials = [];
      provenance = Relational.Provenance.empty;
      prefs = [];
    }
  in
  let st = Session.of_spec spec in
  let allocated cmd =
    let before = Gc.allocated_bytes () in
    let _, out = Session.exec st cmd in
    Alcotest.(check bool) (cmd ^ " answers") false (Session.is_error_output out);
    Gc.allocated_bytes () -. before
  in
  List.iter
    (fun cmd ->
      let mb = allocated cmd /. 1048576. in
      if mb >= 32. then Alcotest.failf "%s allocated %.0f MB (bound 32 MB)" cmd mb)
    [ "stats"; "qtrace R(0, 0, 0)" ]

let suite =
  [
    ("initial state", `Quick, test_initial_state);
    ("load and info", `Quick, test_load_and_info);
    ("family switching", `Quick, test_family_switch);
    ("repairs and count", `Quick, test_repairs_and_count);
    ("repairs N streams N of 2^40", `Quick, test_repairs_limit_streams);
    ("query command", `Quick, test_query_commands);
    ("qtrace command", `Quick, test_qtrace);
    ("explain and status", `Quick, test_explain_and_status);
    ("facts and aggregate", `Quick, test_facts_and_aggregate);
    ("clean", `Quick, test_clean);
    ("prefer and save", `Quick, test_prefer_and_save);
    ("insert, delete, undo", `Quick, test_insert_delete_undo);
    ("save/load round-trip", `Quick, test_save_load_round_trip);
    ("unknown commands and help", `Quick, test_unknown_and_help);
    ("profile command and session telemetry", `Quick, test_profile_and_telemetry);
    ("denial specs refuse FD-graph answers", `Quick,
     test_denial_spec_refuses_fd_answers);
    ("denial specs answer on the hypergraph", `Quick, test_denial_spec_answers);
    ("declared denials keep the FDs", `Quick, test_denials_keep_the_fds);
    ("explain on 2^62 repairs does bounded work", `Quick, test_explain_bounded_work);
    ("status rebuilds no decomposition", `Quick, test_status_builds_nothing);
    ("stats and qtrace allocate per component", `Quick,
     test_reports_allocate_per_component);
  ]
