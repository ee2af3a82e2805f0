type table = (string * int, bool * bool) Hashtbl.t

let create () : table = Hashtbl.create 64

let add tbl (fn, pc, dir) =
  let taken, fallthrough =
    Option.value ~default:(false, false) (Hashtbl.find_opt tbl (fn, pc))
  in
  Hashtbl.replace tbl (fn, pc) (if dir then (true, fallthrough) else (taken, true))

let of_list covered =
  let tbl = create () in
  List.iter (add tbl) covered;
  tbl

let directions tbl site =
  match Hashtbl.find_opt tbl site with Some dirs -> dirs | None -> (false, false)

let to_list tbl = List.sort compare (Hashtbl.fold (fun site dirs acc -> (site, dirs) :: acc) tbl [])

let frontier_count covered =
  Hashtbl.fold
    (fun _ (taken, fallthrough) acc -> if taken <> fallthrough then acc + 1 else acc)
    (of_list covered) 0

type entry = {
  cov_fn : string;
  cov_sites : int;
  cov_directions : int;
  cov_full : int;
}

type t = {
  entries : entry list;
  total_sites : int;
  total_directions : int;
}

let is_driver_function = Driver_gen.is_driver_function

let sites (prog : Ram.Instr.program) ~covered =
  let tbl = of_list covered in
  Hashtbl.fold
    (fun name (f : Ram.Instr.func) acc ->
      if is_driver_function name then acc
      else begin
        let acc = ref acc in
        Array.iteri
          (fun pc instr ->
            match instr with
            | Ram.Instr.Iif _ ->
              let loc =
                if pc < Array.length f.Ram.Instr.locs then f.Ram.Instr.locs.(pc)
                else Minic.Loc.dummy
              in
              acc := (name, pc, loc, directions tbl (name, pc)) :: !acc
            | _ -> ())
          f.Ram.Instr.code;
        !acc
      end)
    prog.Ram.Instr.funcs []

let of_sites sites =
  let by_fn : (string, entry) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (fn, (taken, fallthrough)) ->
      let e =
        match Hashtbl.find_opt by_fn fn with
        | Some e -> e
        | None -> { cov_fn = fn; cov_sites = 0; cov_directions = 0; cov_full = 0 }
      in
      Hashtbl.replace by_fn fn
        { e with
          cov_sites = e.cov_sites + 1;
          cov_directions = e.cov_directions + Bool.to_int taken + Bool.to_int fallthrough;
          cov_full = (e.cov_full + if taken && fallthrough then 1 else 0) })
    sites;
  let entries =
    Hashtbl.fold (fun _ e acc -> e :: acc) by_fn []
    |> List.sort (fun a b -> compare a.cov_fn b.cov_fn)
  in
  let total_sites = List.fold_left (fun acc e -> acc + e.cov_sites) 0 entries in
  let total_directions = List.fold_left (fun acc e -> acc + e.cov_directions) 0 entries in
  { entries; total_sites; total_directions }

let compute prog ~covered =
  of_sites (List.map (fun (fn, _, _, dirs) -> (fn, dirs)) (sites prog ~covered))

let percent t =
  if t.total_sites = 0 then 100.0
  else 100.0 *. float_of_int t.total_directions /. float_of_int (2 * t.total_sites)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "branch coverage (directions taken / possible):\n";
  (* Columns sized from the data (functions with hundreds of sites
     overflow fixed widths); the historical minima keep small reports
     byte-stable. *)
  let digits n = String.length (string_of_int n) in
  let name_w =
    List.fold_left (fun acc e -> max acc (String.length e.cov_fn)) 30 t.entries
  in
  let num_w = List.fold_left (fun acc e -> max acc (digits (2 * e.cov_sites))) 3 t.entries in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s %*d/%*d  (%d sites fully covered)\n" name_w e.cov_fn num_w
           e.cov_directions num_w (2 * e.cov_sites) e.cov_full))
    t.entries;
  Buffer.add_string buf (Printf.sprintf "  total: %.1f%%\n" (percent t));
  Buffer.contents buf
