(** Step-by-step traces of Algorithm 1.

    For auditing a cleaning decision: which tuple was kept at each step,
    what the winnow set offered at that moment (every other choice would
    have been legitimate — the other common repairs), and which
    conflicting tuples the choice discarded. Traces exist for human
    consumption; the plain {!Winnow.clean} is the fast path. *)

open Graphs

type step = {
  picked : int;  (** the tuple kept at this step *)
  winnow : Vset.t;  (** the undominated choices available (ω≻) *)
  removed : Vset.t;  (** conflict neighbours discarded with the pick *)
}

type t = { steps : step list; result : Vset.t }

val clean : ?choose:(Vset.t -> int) -> Conflict.t -> Priority.t -> t
(** Same semantics as {!Winnow.clean} (and the same default tie-break);
    the [result] equals [Winnow.clean ~choose c p]. *)

val pp : Conflict.t -> Format.formatter -> t -> unit
(** Renders each step with actual tuples. *)
