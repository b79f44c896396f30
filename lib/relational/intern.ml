(* Process-wide string dictionary.

   Interning maps every distinct name constant to a small dense integer
   once, at construction time; everything downstream (tuples, relations,
   conflict graphs, query plans) then compares identities with one
   integer comparison instead of re-walking string contents. The
   dictionary only ever grows — ids stay valid for the lifetime of the
   process — and is deliberately global: two equal strings interned from
   different call sites must receive the same id, or packed equality
   would be unsound.

   The dictionary is shared by every domain (packed equality must hold
   across domains too). Interning goes through one mutex. Reading a
   string back does not: [string_of_id] runs on every name decode
   ([Value.unpack]) and every name-vs-name comparison
   ([Value.compare_packed], so every sort of name-keyed tuples), where a
   lock per call cost more than the comparison. Readers rely on the
   publication order of [id_of_string]: the string is stored in the
   array, and a grown array is published, before [next] counts the id,
   so a reader that sees [id < next] through the atomic read of [next]
   also sees the array holding the string. *)

let lock = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 1024
let strings = Atomic.make (Array.make 1024 "")
let next = Atomic.make 0

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let id_of_string s =
  with_lock (fun () ->
      match Hashtbl.find_opt table s with
      | Some id -> id
      | None ->
        let id = Atomic.get next in
        let cap = Array.length (Atomic.get strings) in
        if id = cap then begin
          let grown = Array.make (2 * cap) "" in
          Array.blit (Atomic.get strings) 0 grown 0 cap;
          Atomic.set strings grown
        end;
        (Atomic.get strings).(id) <- s;
        Hashtbl.add table s id;
        Atomic.set next (id + 1);
        id)

let string_of_id id =
  if id < 0 || id >= Atomic.get next then
    invalid_arg (Printf.sprintf "Intern.string_of_id: unknown id %d" id)
  else (Atomic.get strings).(id)

let mem s = with_lock (fun () -> Hashtbl.mem table s)
let count () = Atomic.get next
