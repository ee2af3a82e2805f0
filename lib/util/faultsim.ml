(* Deterministic fault injection. See faultsim.mli for the contract;
   the implementation is a tiny rule table behind a mutex. The disabled
   plan is the [Off] constructor, so the production probe
   ([fire _ Off = false]) is one branch and no allocation.

   Every rule names a point, an optional probe key and a trigger: the
   nth matching occurrence (fires once), or a rate that draws once per
   matching probe from the rule's own splitmix stream, so a schedule is
   a pure function of the spec and the seed. *)

type point =
  | Solver_deadline
  | Worker_crash
  | Machine_step_limit
  | Io_error

let names =
  [ (Solver_deadline, "solver_deadline"); (Worker_crash, "worker_crash");
    (Machine_step_limit, "machine_step_limit"); (Io_error, "io_error") ]

let point_to_string p = List.assoc p names
let point_of_string s = List.find_map (fun (p, n) -> if n = s then Some p else None) names
let points_help = "(" ^ String.concat "|" (List.map snd names) ^ ")"

type trigger =
  | Nth of int
  | Rate of int

type state =
  | Once of { nth : int; mutable seen : int } (* fires when [seen] reaches [nth] *)
  | Draw of { bp : int; rng : Prng.t }

type rule = {
  r_point : point;
  r_key : int option; (* None matches any probe key *)
  r_state : state;
}

type t =
  | Off
  | On of {
      rules : rule list;
      lock : Mutex.t; (* probes may come from several domains *)
    }

let off = Off

let is_on = function
  | Off -> false
  | On _ -> true

let arms t point =
  match t with
  | Off -> false
  | On { rules; _ } -> List.exists (fun r -> r.r_point = point) rules

let make ?(seed = 0) rules =
  (* Each rate rule gets its own stream, seeded left to right from a
     master stream over [seed], so adding a rule never perturbs the
     draws of the others. *)
  let master = Prng.create seed in
  let rules =
    List.map
      (fun (p, key, trigger) ->
        let r_state =
          match trigger with
          | Nth nth ->
            if nth < 1 then invalid_arg "Faultsim.make: occurrence must be >= 1";
            Once { nth; seen = 0 }
          | Rate bp ->
            if bp < 1 || bp > 10000 then
              invalid_arg "Faultsim.make: rate must be in 1..10000 basis points";
            Draw { bp; rng = Prng.create (Prng.int_below master max_int) }
        in
        { r_point = p; r_key = key; r_state })
      rules
  in
  On { rules; lock = Mutex.create () }

let fire ?key t point =
  match t with
  | Off -> false
  | On { rules; lock } ->
    Mutex.lock lock;
    (* Every matching rule counts the occurrence or draws (no
       short-circuit), so several rules on one point each see the full
       probe stream. *)
    let hit =
      List.fold_left
        (fun hit r ->
          if r.r_point = point && (r.r_key = None || r.r_key = key) then
            match r.r_state with
            | Once o ->
              o.seen <- o.seen + 1;
              o.seen = o.nth || hit
            | Draw d -> Prng.int_range d.rng 1 10000 <= d.bp || hit
          else hit)
        false rules
    in
    Mutex.unlock lock;
    hit

(* ---- spec parsing ----------------------------------------------------------- *)

let sub_from s i = String.sub s i (String.length s - i)

(* [:?] occurrences come from a splitmix64 stream over the seed, kept
   apart from [make]'s master stream for rates, so a spec + seed pair
   names one deterministic injection schedule, and mixing one-shot and
   rate entries in one spec moves neither the [:?] draws nor the rate
   streams. *)
let of_spec ?(seed = 0) spec =
  let rng = Prng.create seed in
  let parse_nth s =
    if s = "?" then Ok (Prng.int_range rng 1 8)
    else
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (Printf.sprintf "bad occurrence %S (positive integer or ?)" s)
  in
  let parse_rate s =
    match float_of_string_opt s with
    | Some rate when rate > 0. && rate <= 1. ->
      let bp = int_of_float (Float.round (rate *. 10000.)) in
      if bp < 1 then Error (Printf.sprintf "rate %s is below 0.0001 (one basis point)" s)
      else Ok (Rate bp)
    | Some _ -> Error (Printf.sprintf "rate %s out of range (0, 1]" s)
    | None -> Error (Printf.sprintf "bad rate %S (decimal probability)" s)
  in
  let parse_entry entry =
    let entry = String.trim entry in
    (* [point=RATE], else [point[@key][:nth]]. *)
    let name, key, trigger =
      match String.index_opt entry '=' with
      | Some i -> (String.sub entry 0 i, None, `Rate (sub_from entry (i + 1)))
      | None ->
        let head, nth =
          match String.index_opt entry ':' with
          | Some i -> (String.sub entry 0 i, `Nth (sub_from entry (i + 1)))
          | None -> (entry, `First)
        in
        (match String.index_opt head '@' with
         | Some i -> (String.sub head 0 i, Some (sub_from head (i + 1)), nth)
         | None -> (head, None, nth))
    in
    match (point_of_string name, key) with
    | None, _ -> Error (Printf.sprintf "unknown injection point %S %s" name points_help)
    | Some _, Some k when int_of_string_opt k = None ->
      Error (Printf.sprintf "bad probe key %S (integer)" k)
    | Some p, key ->
      let trigger =
        match trigger with
        | `First -> Ok (Nth 1)
        | `Nth s -> Result.map (fun n -> Nth n) (parse_nth s)
        | `Rate s -> parse_rate s
      in
      Result.map (fun t -> (p, Option.map int_of_string key, t)) trigger
  in
  if String.trim spec = "" then Error "empty fault spec"
  else begin
    let rec go acc = function
      | [] -> Ok (make ~seed (List.rev acc))
      | e :: rest ->
        (match parse_entry e with
         | Ok r -> go (r :: acc) rest
         | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' spec)
  end

exception Injected of string

let crash_if ?key t point =
  if fire ?key t point then
    raise (Injected (Printf.sprintf "faultsim: injected %s" (point_to_string point)))
