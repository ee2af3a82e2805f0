(* The solve cache (constraint caching, DART §2.6's "most of
   the time is spent solving path constraints"; cf. the caching layers
   of industrial concolic engines).

   Keyed on the *canonical form* of a constraint set. Canonicalization
   works in three solution-set-preserving steps:

   1. each atom is normalized — strict [e < 0] becomes [e + 1 <= 0],
      atoms are divided by the gcd of their coefficients exactly like
      [Problem.tighten], equalities and disequalities get a positive
      leading coefficient, constant atoms collapse to a shared
      truth/falsity atom and vacuously true atoms are dropped — so
      commuted, scaled and sign-flipped spellings of one constraint
      share a key;
   2. the atom list is sorted with duplicates removed, so arrival
      order does not matter;
   3. variables are renamed to dense indices in order of first
      occurrence, so structurally identical queries over different
      input generations (the directed search re-issues the same
      filter shapes against fresh input ids every run) share an
      entry. Stored models live in the renamed space; [find] maps
      them back through the query's own variable map.

   Both Sat models and Unsat verdicts are memoised; Unknown is never
   cached (it reflects resource limits, not a semantic verdict, and
   retrying may succeed).

   One table serves both shapes of search. A solo search (or a
   campaign slice) owns a private one. A parallel search creates one
   and hands every worker a handle on it ([share]), so a verdict any
   worker publishes answers every worker's queries. Each entry records
   its publisher, which is how [Solver.shared_hits] tells a peer's
   entry from the worker's own. One mutex guards the table: the
   critical sections are a hash lookup or insert, and a solo search
   never contends for it. The first publisher of a key wins; a later
   verdict for the same key is equivalent (models may differ, both are
   verified). At one worker the find/add sequence, and so every
   hit/miss count, depends only on the search's own queries. *)

open Zarith_lite
open Symbolic

type verdict =
  | Sat of (Linexpr.var * Zint.t) list
  | Unsat

module Key = struct
  type t = Constr.t list (* canonical: normalized, sorted, deduped, renamed *)

  let equal = List.equal Constr.equal
  let hash k = List.fold_left (fun acc c -> (acc * 31) + Constr.hash c) 17 k
end

module Tbl = Hashtbl.Make (Key)

(* The table maps a canonical key to its verdict (in canonical space)
   and the id of the worker that published it; [worker] is this
   handle's own id. *)
type t = { tbl : (verdict * int) Tbl.t; lock : Mutex.t; worker : int }

let create () = { tbl = Tbl.create 256; lock = Mutex.create (); worker = 0 }
let share t ~worker = { t with worker }
let worker t = t.worker

type keyed = {
  key : Key.t;
  back : Linexpr.var array; (* canonical index -> original variable *)
  fwd : (Linexpr.var, int) Hashtbl.t; (* original variable -> canonical index *)
}

(* A canonically false atom: [1 = 0]. Unsatisfiable constant atoms all
   collapse to it, so every directly-contradictory conjunction shares
   one Unsat entry. *)
let false_atom = Constr.make (Linexpr.of_int 1) Constr.Eq0

(* Sign normalization for equalities and disequalities: [e = 0] and
   [-e = 0] denote the same set, so force the leading coefficient
   positive. *)
let positive_leading e =
  match Linexpr.terms e with
  | (_, a) :: _ when Zint.sign a < 0 -> Linexpr.neg e
  | _ -> e

(* Normalize one atom; [None] means vacuously true (dropped from the
   key). Every rewrite preserves the integer solution set, so a model
   stored for the canonical form is a model of any spelling of it. *)
let norm_atom (c : Constr.t) : Constr.t option =
  let le lhs =
    match Linexpr.terms lhs with
    | [] ->
      if Zint.sign (Linexpr.constant_part lhs) <= 0 then None else Some false_atom
    | _ -> Some (Constr.make (Problem.tighten_le_atom lhs) Constr.Le0)
  in
  match c.Constr.rel with
  | Constr.Le0 -> le c.Constr.lhs
  | Constr.Lt0 -> le (Linexpr.add_const Zint.one c.Constr.lhs)
  | Constr.Eq0 -> (
    match Linexpr.terms c.Constr.lhs with
    | [] ->
      if Zint.is_zero (Linexpr.constant_part c.Constr.lhs) then None else Some false_atom
    | _ -> (
      match Problem.tighten_eq_atom c.Constr.lhs with
      | None -> Some false_atom (* g*t + c = 0 with g not dividing c *)
      | Some e -> Some (Constr.make (positive_leading e) Constr.Eq0)))
  | Constr.Ne0 -> (
    match Linexpr.terms c.Constr.lhs with
    | [] ->
      if Zint.is_zero (Linexpr.constant_part c.Constr.lhs) then Some false_atom else None
    | _ -> (
      match Problem.tighten_eq_atom c.Constr.lhs with
      | None -> None (* g*t + c = 0 impossible, so <> 0 always holds *)
      | Some e -> Some (Constr.make (positive_leading e) Constr.Ne0)))

let rename_atom fwd (c : Constr.t) =
  let lhs =
    List.fold_left
      (fun acc (v, a) ->
        Linexpr.add acc (Linexpr.scale a (Linexpr.var (Hashtbl.find fwd v))))
      (Linexpr.const (Linexpr.constant_part c.Constr.lhs))
      (Linexpr.terms c.Constr.lhs)
  in
  Constr.make lhs c.Constr.rel

(** Canonical cache key of a conjunction: normalization-, order-,
    duplicate- and variable-naming-insensitive, so [a && b], [b && a]
    and the same filter re-issued over the next run's input ids all
    share an entry. *)
let canonical (cs : Constr.t list) : keyed =
  let atoms = List.sort_uniq Constr.compare (List.filter_map norm_atom cs) in
  let fwd = Hashtbl.create 16 in
  let back = ref [] in
  let n = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem fwd v) then begin
            Hashtbl.replace fwd v !n;
            back := v :: !back;
            incr n
          end)
        (Constr.vars c))
    atoms;
  let key = List.sort Constr.compare (List.map (rename_atom fwd) atoms) in
  { key; back = Array.of_list (List.rev !back); fwd }

(* Map a verdict between the original and canonical variable spaces.
   Model variables with no canonical index come from vacuously-true
   atoms the key dropped; they are unconstrained, so omitting them is
   sound (the caller's preferred value stands). *)
let to_canonical keyed = function
  | Unsat -> Unsat
  | Sat model ->
    Sat
      (List.filter_map
         (fun (v, z) ->
           match Hashtbl.find_opt keyed.fwd v with
           | Some i -> Some (i, z)
           | None -> None)
         model)

let of_canonical keyed = function
  | Unsat -> Unsat
  | Sat model -> Sat (List.map (fun (i, z) -> (keyed.back.(i), z)) model)

let find t keyed =
  Mutex.protect t.lock (fun () -> Tbl.find_opt t.tbl keyed.key)
  |> Option.map (fun (v, publisher) -> (of_canonical keyed v, publisher))

let add t keyed verdict =
  let v = to_canonical keyed verdict in
  Mutex.protect t.lock (fun () ->
      if not (Tbl.mem t.tbl keyed.key) then Tbl.add t.tbl keyed.key (v, t.worker))

let length t = Mutex.protect t.lock (fun () -> Tbl.length t.tbl)
