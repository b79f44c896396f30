open Graphs

type step = { picked : int; winnow : Vset.t; removed : Vset.t }

type t = { steps : step list; result : Vset.t }

let clean ?(choose = Vset.min_elt) c p =
  let rec loop remaining steps acc =
    if Vset.is_empty remaining then
      { steps = List.rev steps; result = acc }
    else begin
      let w = Priority.winnow p remaining in
      let x = choose w in
      let removed =
        Vset.inter (Conflict.neighbors c x) remaining
      in
      loop
        (Vset.diff remaining (Conflict.vicinity c x))
        ({ picked = x; winnow = w; removed } :: steps)
        (Vset.add x acc)
    end
  in
  loop (Conflict.live c) [] Vset.empty

let pp c ppf t =
  let pp_tuple ppf v = Relational.Tuple.pp ppf (Conflict.tuple c v) in
  let pp_set ppf s =
    if Vset.is_empty s then Format.pp_print_string ppf "(none)"
    else
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        pp_tuple ppf (Vset.elements s)
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i step ->
      Format.fprintf ppf "step %d: keep %a@," (i + 1) pp_tuple step.picked;
      if Vset.cardinal step.winnow > 1 then
        Format.fprintf ppf "        (also undominated: %a)@," pp_set
          (Vset.remove step.picked step.winnow);
      if not (Vset.is_empty step.removed) then
        Format.fprintf ppf "        discards %a@," pp_set step.removed)
    t.steps;
  Format.fprintf ppf "kept %d tuple(s)@]" (Vset.cardinal t.result)
