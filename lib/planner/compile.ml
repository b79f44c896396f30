open Relational
open Query

(* The cost-based compiler: first-order queries to physical plans.

   The compilable fragment is the safe-range one: after standardizing
   binders apart and normalizing to NNF, each existential block splits
   into disjuncts of positive atoms, comparisons, negated atoms and
   bounded universals; a block compiles when every variable — free,
   quantified, or used in a comparison or negation — is bound by a
   positive atom in scope. On that fragment the compiled plan agrees
   with the active-domain evaluator (cross-checked by the test suite);
   anything outside it is rejected with [Unsupported] and the engine
   falls back to {!Query.Eval}, so widening never changes semantics.

   Beyond the safe existential-conjunctive core, the fragment covers
   disjunction (union / boolean or), negation and bounded universal
   quantification (anti-join); plans use range scans for order
   comparisons on int columns, merge joins over sorted postings, and
   statistics-driven join ordering. *)

exception Unsupported of string

(* One disjunct is statically unsatisfiable (wrong-typed constant, false
   ground comparison, [<] between names). With unions in the language a
   false block is dropped, not propagated: the exception never escapes a
   per-disjunct build. *)
exception Block_false

let max_disjuncts = 64

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

let cmp_to_algebra = function
  | Ast.Eq -> Algebra.Eq
  | Ast.Neq -> Algebra.Neq
  | Ast.Lt -> Algebra.Lt
  | Ast.Gt -> Algebra.Gt
  | Ast.Leq -> Algebra.Leq
  | Ast.Geq -> Algebra.Geq

let val_ty = function Value.Name _ -> `Name | Value.Int _ -> `Int
let poly_at node i = Schema.ty_to_poly node.Phys.tys.(i)

(* ---- normalized conjuncts ------------------------------------------------ *)

type conjunct =
  | C_atom of string * Ast.term list
  | C_cmp of Ast.cmp * Ast.term * Ast.term
  | C_not_atom of string * Ast.term list
  | C_forall of string list * Ast.t  (* body in NNF *)

let positively_bound x d =
  List.exists
    (function
      | C_atom (_, ts) ->
        List.exists (function Ast.Var y -> y = x | Ast.Const _ -> false) ts
      | _ -> false)
    d

(* DNF split of an NNF, standardized-apart formula. Existential binders
   are dropped — sound because binder names are globally unique — but
   each must be bound by a positive atom in every disjunct of its scope:
   that is what makes the block's value independent of the active
   domain (the evaluator's [exists] over an empty domain is false even
   for a true body, so an unbound binder cannot be compiled away). *)
let split f =
  let rec go = function
    | Ast.True -> [ [] ]
    | Ast.False -> []
    | Ast.Atom (r, ts) -> [ [ C_atom (r, ts) ] ]
    | Ast.Cmp (op, a, b) -> [ [ C_cmp (op, a, b) ] ]
    | Ast.Not (Ast.Atom (r, ts)) -> [ [ C_not_atom (r, ts) ] ]
    | Ast.Forall (xs, g) -> [ [ C_forall (xs, g) ] ]
    | Ast.Or (g, h) ->
      let ds = go g @ go h in
      if List.length ds > max_disjuncts then
        unsupported "disjunctive normal form exceeds %d disjuncts" max_disjuncts
      else ds
    | Ast.And (g, h) ->
      let l = go g and r = go h in
      if List.length l * List.length r > max_disjuncts then
        unsupported "disjunctive normal form exceeds %d disjuncts" max_disjuncts
      else List.concat_map (fun d1 -> List.map (fun d2 -> d1 @ d2) r) l
    | Ast.Exists (xs, g) ->
      let ds = go g in
      List.iter
        (fun d ->
          List.iter
            (fun x ->
              if not (positively_bound x d) then
                unsupported
                  "quantified variable %S is not bound by a positive atom" x)
            xs)
        ds;
      ds
    | Ast.Not _ | Ast.Implies _ ->
      (* nnf leaves Not only over atoms and no Implies *)
      unsupported "formula not in negation normal form"
  in
  go f

(* ---- compilation context ------------------------------------------------- *)

type ctx = {
  db : Database.t;
  stats : string -> Stats.t option;
  qcache : (string, Stats.t) Hashtbl.t;  (* fallback quick stats, per compile *)
}

let make_ctx ?(stats = fun _ -> None) db =
  { db; stats; qcache = Hashtbl.create 4 }

let stats_for ctx name rel =
  match ctx.stats name with
  | Some s -> s
  | None -> (
    match Hashtbl.find_opt ctx.qcache name with
    | Some s -> s
    | None ->
      let s = Stats.quick rel in
      Hashtbl.add ctx.qcache name s;
      s)

(* ---- leaf compilation ---------------------------------------------------- *)

type leaf = {
  lnode : Phys.node;
  lvars : (string, int) Hashtbl.t;  (* variable -> first column *)
}

let sel_default = function
  | Ast.Eq -> Cost.sel_eq_default
  | Ast.Neq -> Cost.sel_neq
  | Ast.Lt | Ast.Gt | Ast.Leq | Ast.Geq -> Cost.sel_range_default

(* Tightest bounds from a list of order comparisons on one int column:
   [(op, v)] with op ∈ {Lt, Gt, Leq, Geq}, packed; at equal packed
   values the exclusive bound is tighter. *)
let bounds_of_cmps cmps =
  let tighten_lo acc (v, incl) =
    match acc with
    | None -> Some (v, incl)
    | Some (v', incl') ->
      if v > v' then Some (v, incl)
      else if v < v' then Some (v', incl')
      else Some (v, incl && incl')
  in
  let tighten_hi acc (v, incl) =
    match acc with
    | None -> Some (v, incl)
    | Some (v', incl') ->
      if v < v' then Some (v, incl)
      else if v > v' then Some (v', incl')
      else Some (v, incl && incl')
  in
  List.fold_left
    (fun (lo, hi) (op, v) ->
      let p = Value.pack v in
      match op with
      | Ast.Lt -> (lo, tighten_hi hi (p, false))
      | Ast.Leq -> (lo, tighten_hi hi (p, true))
      | Ast.Gt -> (tighten_lo lo (p, false), hi)
      | Ast.Geq -> (tighten_lo lo (p, true), hi)
      | Ast.Eq | Ast.Neq -> (lo, hi))
    (None, None) cmps

(* Compile one positive atom into a scan leaf. [pushed] maps a variable
   to the constant comparisons this disjunct asserts about it; they are
   folded into the access path of every leaf binding the variable
   (conjunctive, so duplication only tightens intermediate results). *)
let compile_leaf ctx aidx (r, ts) pushed =
  let rel =
    match Database.find ctx.db r with
    | Some rel -> rel
    | None -> unsupported "unknown relation %S" r
  in
  let schema = Relation.schema rel in
  let arity = Schema.arity schema in
  if List.length ts <> arity then
    unsupported "atom %s has arity %d, expected %d" r (List.length ts) arity;
  let probes = ref [] in
  let residual = ref [] in
  let ranged : (int, (Ast.cmp * Value.t) list) Hashtbl.t = Hashtbl.create 2 in
  let lvars = Hashtbl.create 8 in
  let push_cmp col op v =
    let ty = Schema.ty_to_poly (Schema.ty_at schema col) in
    let tv = val_ty v in
    if ty <> tv then (
      (* cross-domain: != is vacuous, everything else unsatisfiable *)
      match op with Ast.Neq -> () | _ -> raise Block_false)
    else
      match (ty, op) with
      | `Name, (Ast.Lt | Ast.Gt) -> raise Block_false
      | `Name, (Ast.Leq | Ast.Geq) | _, Ast.Eq ->
        (* <=/>= between names collapse to = *)
        probes := (col, v) :: !probes
      | _, Ast.Neq ->
        residual := Algebra.Const_cmp (Algebra.Neq, col, v) :: !residual
      | `Int, ((Ast.Lt | Ast.Gt | Ast.Leq | Ast.Geq) as op) ->
        let existing = Option.value (Hashtbl.find_opt ranged col) ~default:[] in
        Hashtbl.replace ranged col ((op, v) :: existing)
  in
  List.iteri
    (fun i t ->
      match t with
      | Ast.Const v ->
        if Schema.ty_to_poly (Schema.ty_at schema i) <> val_ty v then
          raise Block_false
        else probes := (i, v) :: !probes
      | Ast.Var x -> (
        match Hashtbl.find_opt lvars x with
        | Some j -> residual := Algebra.Attr_cmp (Algebra.Eq, i, j) :: !residual
        | None ->
          Hashtbl.replace lvars x i;
          List.iter (fun (op, v) -> push_cmp i op v) (pushed x)))
    ts;
  (* one column gets the range scan; order comparisons on any other int
     column stay residual *)
  let range_cols =
    Hashtbl.fold (fun col cmps acc -> (col, cmps) :: acc) ranged []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let range =
    match range_cols with
    | [] -> None
    | (col, cmps) :: rest ->
      List.iter
        (fun (col, cmps) ->
          List.iter
            (fun (op, v) ->
              residual :=
                Algebra.Const_cmp (cmp_to_algebra op, col, v) :: !residual)
            cmps)
        rest;
      let lo, hi = bounds_of_cmps cmps in
      Some (col, { Phys.rlo = lo; rhi = hi })
  in
  let access = { Phys.probes = !probes; range; residual = !residual } in
  let tys = Array.init arity (Schema.ty_at schema) in
  let node =
    Phys.node tys
      (Phys.Scan { sname = Schema.name schema; aidx; srel = rel; access })
  in
  (* estimate from statistics *)
  let s = stats_for ctx (Schema.name schema) rel in
  let col_bounds i =
    if Stats.column_ty s i = `Int then Stats.bounds s i else None
  in
  let sel = ref 1.0 in
  List.iter
    (fun (i, v) ->
      sel :=
        !sel
        *. Cost.sel_eq_const ~distinct:(Stats.distinct s i)
             ~bounds:(col_bounds i) ~value:(Value.pack v))
    access.probes;
  (match range with
  | None -> ()
  | Some (col, { Phys.rlo; rhi }) ->
    sel :=
      !sel
      *. Cost.sel_range ~bounds:(col_bounds col) ~lo:(Option.map fst rlo)
           ~hi:(Option.map fst rhi));
  List.iter
    (fun r ->
      let s =
        match r with
        | Algebra.Attr_cmp (op, _, _) | Algebra.Const_cmp (op, _, _) -> (
          match op with
          | Algebra.Eq -> Cost.sel_eq_default
          | Algebra.Neq -> Cost.sel_neq
          | _ -> Cost.sel_range_default)
        | Algebra.Conj _ -> 1.0
      in
      sel := !sel *. s)
    access.residual;
  let est = Float.max 0.0 (float_of_int (Stats.rows s) *. !sel) in
  node.Phys.est <- est;
  let probed = List.map fst access.probes in
  node.Phys.dist <-
    Array.init arity (fun i ->
        if List.mem i probed then 1.0
        else
          match Stats.distinct s i with
          | Some d -> Float.min (float_of_int d) (Float.max 1.0 est)
          | None -> -1.0);
  { lnode = node; lvars }

(* ---- accumulator --------------------------------------------------------- *)

type acc = {
  mutable anode : Phys.node;
  acols : (string, int) Hashtbl.t;  (* variable -> column in [anode] *)
}

(* Comparison lowering, in lockstep with [Query.Eval]: static rewrites
   for name-ordering and cross-domain cases, [Block_false] for the
   statically unsatisfiable ones, [None] for vacuous ones. *)
let lower_cmp acc (op, a, b) =
  let name_order = function
    | Ast.Lt | Ast.Gt -> raise Block_false
    | Ast.Leq | Ast.Geq -> Ast.Eq
    | (Ast.Eq | Ast.Neq) as op -> op
  in
  let cross_domain = function
    | Ast.Neq -> `Vacuous
    | Ast.Eq | Ast.Lt | Ast.Gt | Ast.Leq | Ast.Geq -> raise Block_false
  in
  let operand = function
    | Ast.Const v -> Some (`Const (v, val_ty v))
    | Ast.Var x -> (
      match Hashtbl.find_opt acc.acols x with
      | Some i -> Some (`Col (i, poly_at acc.anode i))
      | None -> None)
  in
  match (operand a, operand b) with
  | None, _ | _, None -> `Defer
  | Some (`Const (l, _)), Some (`Const (r, _)) ->
    if Algebra.eval_cmp (cmp_to_algebra op) l r then `Vacuous
    else raise Block_false
  | Some (`Col (i, ti)), Some (`Col (j, tj)) ->
    if ti <> tj then cross_domain op
    else
      let op = if ti = `Name then name_order op else op in
      `Sel (Algebra.Attr_cmp (cmp_to_algebra op, i, j), op)
  | Some (`Col (i, ti)), Some (`Const (v, tv))
  | Some (`Const (v, tv)), Some (`Col (i, ti)) -> (
    let flipped =
      match a with Ast.Const _ -> true | Ast.Var _ -> false
    in
    if ti <> tv then cross_domain op
    else
      let op =
        if flipped then
          match op with
          | Ast.Lt -> Ast.Gt
          | Ast.Gt -> Ast.Lt
          | Ast.Leq -> Ast.Geq
          | Ast.Geq -> Ast.Leq
          | (Ast.Eq | Ast.Neq) as o -> o
        else op
      in
      let op = if ti = `Name then name_order op else op in
      `Sel (Algebra.Const_cmp (cmp_to_algebra op, i, v), op))

let apply_filter acc sel op =
  let n =
    Phys.node acc.anode.Phys.tys (Phys.Filter (sel, acc.anode))
  in
  n.Phys.est <- acc.anode.Phys.est *. sel_default op;
  n.Phys.dist <- Array.copy acc.anode.Phys.dist;
  acc.anode <- n

(* Try every pending comparison against the current columns; keep the
   ones whose variables are still unbound. *)
let drain_pending acc pending =
  List.filter
    (fun cmp ->
      match lower_cmp acc cmp with
      | `Defer -> true
      | `Vacuous -> false
      | `Sel (sel, op) ->
        apply_filter acc sel op;
        false)
    pending

(* ---- join ordering ------------------------------------------------------- *)

let shared_pairs acc leaf =
  Hashtbl.fold
    (fun x j pairs ->
      match Hashtbl.find_opt acc.acols x with
      | Some i -> (i, j) :: pairs
      | None -> pairs)
    leaf.lvars []

let join_est acc leaf pairs =
  Cost.join ~left_est:acc.anode.Phys.est ~right_est:leaf.lnode.Phys.est
    (List.map
       (fun (i, j) -> (acc.anode.Phys.dist.(i), leaf.lnode.Phys.dist.(j)))
       pairs)

let plain_scan n =
  match n.Phys.shape with
  | Phys.Scan { access = { probes = []; range = None; residual = [] }; _ } ->
    true
  | _ -> false

let join_step acc leaf =
  let pairs = shared_pairs acc leaf in
  let est = join_est acc leaf pairs in
  let left = acc.anode and right = leaf.lnode in
  let shape =
    match pairs with
    | [ (i, j) ] when plain_scan left && plain_scan right ->
      (* both sides are whole-relation scans: walk their sorted postings
         in lockstep instead of building a hash table — the postings are
         owned by the base relations and shared across executions *)
      Phys.Merge_join { lcol = i; rcol = j; left; right }
    | _ ->
      Phys.Hash_join
        { pairs; left; right; build_left = left.Phys.est <= right.Phys.est }
  in
  let n = Phys.node (Array.append left.Phys.tys right.Phys.tys) shape in
  n.Phys.est <- est;
  n.Phys.dist <- Array.append left.Phys.dist right.Phys.dist;
  let offset = Array.length left.Phys.tys in
  Hashtbl.iter
    (fun x j ->
      if not (Hashtbl.mem acc.acols x) then
        Hashtbl.replace acc.acols x (offset + j))
    leaf.lvars;
  acc.anode <- n

(* ---- disjunct compilation ------------------------------------------------ *)

(* Greedy cost-based enumeration: start from the cheapest leaf (or the
   inherited accumulator when extending under a negation), then
   repeatedly add the connected leaf with the smallest estimated join
   result; a cartesian product only when no remaining leaf connects. *)

let rec build_disjunct ctx ?start d =
  (* split the disjunct into kinds, deciding ground comparisons now *)
  let atoms = ref [] and cmps = ref [] and negs = ref [] in
  List.iter
    (function
      | C_atom (r, ts) -> atoms := (r, ts) :: !atoms
      | C_cmp (op, a, b) -> (
        match (a, b) with
        | Ast.Const l, Ast.Const r ->
          if not (Algebra.eval_cmp (cmp_to_algebra op) l r) then
            raise Block_false
        | _ -> cmps := (op, a, b) :: !cmps)
      | C_not_atom (r, ts) -> negs := `Atom (r, ts) :: !negs
      | C_forall (xs, f) -> negs := `Forall (xs, f) :: !negs)
    d;
  let atoms = List.rev !atoms
  and cmps = List.rev !cmps
  and negs = List.rev !negs in
  (* constant comparisons on variables, for pushdown into leaves *)
  let const_cmps : (string, (Ast.cmp * Value.t) list) Hashtbl.t =
    Hashtbl.create 4
  in
  List.iter
    (fun (op, a, b) ->
      let record x op v =
        let existing =
          Option.value (Hashtbl.find_opt const_cmps x) ~default:[]
        in
        Hashtbl.replace const_cmps x ((op, v) :: existing)
      in
      match (a, b) with
      | Ast.Var x, Ast.Const v -> record x op v
      | Ast.Const v, Ast.Var x ->
        let flip = function
          | Ast.Lt -> Ast.Gt
          | Ast.Gt -> Ast.Lt
          | Ast.Leq -> Ast.Geq
          | Ast.Geq -> Ast.Leq
          | (Ast.Eq | Ast.Neq) as o -> o
        in
        record x (flip op) v
      | _ -> ())
    cmps;
  let pushed x =
    Option.value (Hashtbl.find_opt const_cmps x) ~default:[]
  in
  let leaves =
    List.mapi (fun i (r, ts) -> compile_leaf ctx i (r, ts) pushed) atoms
  in
  (* Constant comparisons already folded into every leaf binding their
     variable are dropped from the pending list; the rest (variable ×
     variable, or variables bound only upstream) apply as filters. *)
  let leaf_binds x = List.exists (fun l -> Hashtbl.mem l.lvars x) leaves in
  let pending =
    ref
      (List.filter
         (fun (_, a, b) ->
           match (a, b) with
           | Ast.Var x, Ast.Const _ | Ast.Const _, Ast.Var x ->
             not (leaf_binds x)
           | _ -> true)
         cmps)
  in
  let acc =
    match start with
    | Some acc -> acc
    | None -> (
      match leaves with
      | [] -> unsupported "no relational atoms"
      | _ ->
        (* cheapest leaf first *)
        let first =
          List.fold_left
            (fun best l ->
              if l.lnode.Phys.est < best.lnode.Phys.est then l else best)
            (List.hd leaves) (List.tl leaves)
        in
        { anode = first.lnode; acols = Hashtbl.copy first.lvars })
  in
  let remaining =
    ref
      (match start with
      | Some _ -> leaves
      | None -> List.filter (fun l -> not (l.lnode == acc.anode)) leaves)
  in
  pending := drain_pending acc !pending;
  while !remaining <> [] do
    let connected, rest =
      List.partition (fun l -> shared_pairs acc l <> []) !remaining
    in
    let pick, others =
      match connected with
      | [] ->
        (* disconnected: cartesian with the cheapest remaining leaf *)
        let cheapest =
          List.fold_left
            (fun best l ->
              if l.lnode.Phys.est < best.lnode.Phys.est then l else best)
            (List.hd rest) (List.tl rest)
        in
        (cheapest, List.filter (fun l -> not (l == cheapest)) rest)
      | _ ->
        let best =
          List.fold_left
            (fun best l ->
              let e = join_est acc l (shared_pairs acc l) in
              match best with
              | Some (_, be) when be <= e -> best
              | _ -> Some (l, e))
            None connected
        in
        let l = fst (Option.get best) in
        (l, List.filter (fun c -> not (c == l)) connected @ rest)
    in
    join_step acc pick;
    remaining := others;
    pending := drain_pending acc !pending
  done;
  (match !pending with
  | [] -> ()
  | (_, a, b) :: _ ->
    let name =
      match (a, b) with
      | Ast.Var x, _ | _, Ast.Var x -> x
      | _ -> "?"
    in
    unsupported "variable %S occurs only in comparisons (unsafe)" name);
  (* negations: generalized difference, one anti-join per negated
     disjunct, each built by extending the current accumulator *)
  List.iter (apply_negation ctx acc) negs;
  acc

and apply_negation ctx acc neg =
  let neg_disjuncts =
    match neg with
    | `Atom (r, ts) ->
      List.iter
        (function
          | Ast.Var x when not (Hashtbl.mem acc.acols x) ->
            unsupported
              "variable %S in a negated atom is not bound by a positive atom"
              x
          | _ -> ())
        ts;
      [ [ C_atom (r, ts) ] ]
    | `Forall (xs, f) ->
      let ds = split (Transform.nnf (Ast.Not f)) in
      List.iter
        (fun d ->
          List.iter
            (fun x ->
              if not (positively_bound x d) then
                unsupported
                  "universal variable %S is not bound by a positive atom in \
                   the negated body"
                  x)
            xs)
        ds;
      ds
  in
  let width = Array.length acc.anode.Phys.tys in
  List.iter
    (fun d ->
      match
        build_disjunct ctx
          ~start:{ anode = acc.anode; acols = Hashtbl.copy acc.acols }
          d
      with
      | exception Block_false -> ()  (* this negated disjunct can't fire *)
      | ext ->
        let keep = List.init width Fun.id in
        let proj =
          Phys.node acc.anode.Phys.tys (Phys.Project (keep, ext.anode))
        in
        proj.Phys.est <- Float.min ext.anode.Phys.est acc.anode.Phys.est;
        proj.Phys.dist <- Array.copy acc.anode.Phys.dist;
        let diff =
          Phys.node acc.anode.Phys.tys (Phys.Diff (acc.anode, proj))
        in
        diff.Phys.est <- acc.anode.Phys.est *. Cost.sel_anti;
        diff.Phys.dist <- Array.copy acc.anode.Phys.dist;
        acc.anode <- diff)
    neg_disjuncts

(* ---- blocks and the boolean layer ---------------------------------------- *)

(* Compile an existential block (or a bare atom) into one node per
   satisfiable disjunct. *)
let compile_block ctx f =
  let ds = split (Transform.nnf f) in
  List.filter_map
    (fun d ->
      match build_disjunct ctx d with
      | exception Block_false -> None
      | acc -> Some acc)
    ds

let bmake bshape = { Phys.bval = None; bshape }
let bconst b = bmake (Phys.B_const b)

let block_bool ctx f =
  match compile_block ctx f with
  | [] -> bconst false
  | accs ->
    let blocks =
      List.map (fun acc -> bmake (Phys.B_block acc.anode)) accs
      |> List.stable_sort (fun a b ->
             match (a.Phys.bshape, b.Phys.bshape) with
             | Phys.B_block x, Phys.B_block y -> compare x.Phys.est y.Phys.est
             | _ -> 0)
    in
    (match blocks with [ b ] -> b | bs -> bmake (Phys.B_or bs))

let rec compile_bool ctx = function
  | Ast.True -> bconst true
  | Ast.False -> bconst false
  | Ast.Cmp (op, a, b) -> (
    match (a, b) with
    | Ast.Const l, Ast.Const r ->
      bconst (Algebra.eval_cmp (cmp_to_algebra op) l r)
    | _ -> unsupported "comparison over unbound variables")
  | Ast.And (f, g) -> bmake (Phys.B_and [ compile_bool ctx f; compile_bool ctx g ])
  | Ast.Or (f, g) -> bmake (Phys.B_or [ compile_bool ctx f; compile_bool ctx g ])
  | Ast.Implies (f, g) ->
    bmake
      (Phys.B_or [ bmake (Phys.B_not (compile_bool ctx f)); compile_bool ctx g ])
  | Ast.Not f -> bmake (Phys.B_not (compile_bool ctx f))
  | Ast.Forall (xs, f) ->
    (* ∀x̄.φ ≡ ¬∃x̄.¬φ, with the existential compiled as a block *)
    bmake
      (Phys.B_not (block_bool ctx (Ast.Exists (xs, Transform.nnf (Ast.Not f)))))
  | (Ast.Atom _ | Ast.Exists _) as f -> block_bool ctx f

(* ---- open queries -------------------------------------------------------- *)

let compile_rows ctx free q =
  let accs = compile_block ctx q in
  let project acc =
    let cols =
      List.map
        (fun x ->
          match Hashtbl.find_opt acc.acols x with
          | Some i -> i
          | None -> unsupported "free variable %S not bound by an atom" x)
        free
    in
    let tys =
      Array.of_list (List.map (fun i -> acc.anode.Phys.tys.(i)) cols)
    in
    let n = Phys.node tys (Phys.Project (cols, acc.anode)) in
    n.Phys.est <- acc.anode.Phys.est;
    n.Phys.dist <- Array.of_list (List.map (fun i -> acc.anode.Phys.dist.(i)) cols);
    n
  in
  match List.map project accs with
  | [] ->
    Phys.node (Array.make (List.length free) Schema.TName) Phys.Empty
  | [ n ] -> n
  | n :: rest as nodes ->
    if List.exists (fun m -> m.Phys.tys <> n.Phys.tys) rest then
      unsupported "disjuncts disagree on answer column types";
    let u = Phys.node n.Phys.tys (Phys.Union nodes) in
    u.Phys.est <- List.fold_left (fun a m -> a +. m.Phys.est) 0.0 nodes;
    u.Phys.dist <- Array.copy n.Phys.dist;
    u

(* ---- entry --------------------------------------------------------------- *)

let compile ?stats db q =
  try
    (* static validation first, mirroring Eval.check: a query Eval would
       reject must fall back so both paths raise identically *)
    (match Eval.check db q with
    | Ok () -> ()
    | Error m -> raise (Unsupported m));
    let q' = Transform.standardize_apart q in
    let ctx = make_ctx ?stats db in
    match Ast.free_vars q' with
    | [] -> Ok (Phys.Bool (compile_bool ctx q'))
    | free -> Ok (Phys.Rows { free; root = compile_rows ctx free q' })
  with Unsupported m -> Error m

let supported ?stats db q = Result.is_ok (compile ?stats db q)
