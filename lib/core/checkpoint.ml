(* Checkpoint files: a line-based, versioned text codec for
   Driver.snapshot. See checkpoint.mli for the contract. The format is
   deliberately boring — one space-separated record per line, strings
   percent-escaped — so a checkpoint survives inspection with a pager
   and diffs meaningfully in CI artifacts. *)

let version = 3

type meta = {
  m_seed : int;
  m_depth : int;
  m_max_runs : int;
  m_strategy : Strategy.t;
}

module O = Driver.Options

let meta_of_options (options : Driver.options) =
  { m_seed = options.O.search.O.seed;
    m_depth = options.O.search.O.depth;
    m_max_runs = options.O.budget.O.max_runs;
    m_strategy = options.O.search.O.strategy }

let check_meta ~expected ~found =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if found.m_seed <> expected.m_seed then
    fail "checkpoint was taken with --seed %d, not %d" found.m_seed expected.m_seed
  else if found.m_depth <> expected.m_depth then
    fail "checkpoint was taken with --depth %d, not %d" found.m_depth expected.m_depth
  else if found.m_strategy <> expected.m_strategy then
    fail "checkpoint was taken with --strategy %s, not %s"
      (Strategy.to_string found.m_strategy)
      (Strategy.to_string expected.m_strategy)
  else Ok ()

(* ---- records shared with the campaign codec ------------------------------------ *)

module L = Dart_util.Persist.Lines

let bad = Dart_util.Persist.bad

type format =
  | Search
  | Campaign

let magic_of = function Search -> "dart-checkpoint" | Campaign -> "dart-campaign"

let write_magic buf fmt ~version = L.line buf "%s v%d" (magic_of fmt) version

let read_magic r fmt ~version =
  let other, name, redirect =
    match fmt with
    | Search ->
      (Campaign, "checkpoint", "a campaign checkpoint; resume it with `dartc campaign --resume`")
    | Campaign ->
      ( Search,
        "campaign checkpoint",
        "a single-shot search checkpoint; resume it with plain `dartc --resume`" )
  in
  match String.split_on_char ' ' (L.next_line r "magic") with
  | [ m; v ] when m = magic_of fmt ->
    if v <> Printf.sprintf "v%d" version then
      bad "unsupported %s version %s (this build reads v%d)" name v version
  | m :: _ when m = magic_of other -> bad "this is %s" redirect
  | _ -> bad "not a dart %s file" name

let write_cover ~tag buf (fn, pc, dir) = L.line buf "%s %s %d %s" tag (L.esc fn) pc (L.bool_tag dir)

let read_cover ~tag r =
  match L.fields r tag with
  | [ fn; pc; dir ] -> (L.str_tok tag fn, L.int_tok tag pc, L.bool_tok tag dir)
  | _ -> L.malformed tag

let write_bug buf (b : Driver.bug) =
  let site = b.Driver.bug_site in
  let loc = site.Machine.site_loc in
  L.line buf "bug %s %s %d %s %d %d %d %d%s"
    (Machine.fault_tag b.Driver.bug_fault)
    (L.esc site.Machine.site_fn) site.Machine.site_pc (L.esc loc.Minic.Loc.file)
    loc.Minic.Loc.line loc.Minic.Loc.col b.Driver.bug_run
    (List.length b.Driver.bug_inputs)
    (String.concat "" (List.map (fun (id, v) -> Printf.sprintf " %d:%d" id v) b.Driver.bug_inputs))

let read_bug r =
  let int = L.int_tok "bug" and str = L.str_tok "bug" in
  match L.fields r "bug" with
  | fault :: fn :: pc :: file :: lno :: col :: run :: n_inputs :: inputs ->
    let bug_fault =
      match Machine.fault_of_tag fault with Some f -> f | None -> bad "unknown fault %S" fault
    in
    if List.length inputs <> int n_inputs then bad "bug input count mismatch";
    { Driver.bug_fault;
      bug_site =
        { Machine.site_fn = str fn;
          site_pc = int pc;
          site_loc = { Minic.Loc.file = str file; line = int lno; col = int col } };
      bug_run = int run;
      bug_inputs =
        List.map
          (fun e ->
            let id, v = L.pair_tok "bug" e in
            (int id, int v))
          inputs }
  | _ -> L.malformed "bug"

(* ---- the search checkpoint ----------------------------------------------------- *)

let to_string (meta : meta) (s : Driver.snapshot) =
  let buf = Buffer.create 1024 in
  let line fmt = L.line buf fmt and bit = L.bool_tag in
  write_magic buf Search ~version;
  line "meta seed=%d depth=%d max_runs=%d strategy=%s" meta.m_seed meta.m_depth
    meta.m_max_runs (Strategy.to_string meta.m_strategy);
  line "pending_restart %s" (bit s.Driver.sn_pending_restart);
  line "rng %Ld" s.Driver.sn_rng;
  line "counters runs=%d restarts=%d total_steps=%d paths=%d resource_limited=%d"
    s.Driver.sn_runs s.Driver.sn_restarts s.Driver.sn_total_steps s.Driver.sn_paths
    s.Driver.sn_resource_limited;
  line "flags all_linear=%s all_locs_definite=%s" (bit s.Driver.sn_all_linear)
    (bit s.Driver.sn_all_locs_definite);
  line "stack %d%s" (Array.length s.Driver.sn_stack)
    (String.concat ""
       (Array.to_list
          (Array.map
             (fun (br : Concolic.branch_record) ->
               Printf.sprintf " %s:%s" (bit br.Concolic.br_branch) (bit br.Concolic.br_done))
             s.Driver.sn_stack)));
  L.section buf "im"
    (fun buf (id, value, kind) -> L.line buf "input %d %d %s" id value (Inputs.kind_tag kind))
    s.Driver.sn_im;
  L.section buf "coverage" (write_cover ~tag:"cover") s.Driver.sn_coverage;
  L.section buf "stats" (fun buf (k, v) -> L.line buf "stat %s %d" (L.esc k) v) s.Driver.sn_stats;
  L.section buf "bugs" write_bug s.Driver.sn_bugs;
  line "end";
  Buffer.contents buf

(* The counters [Driver.search] hands to [Solver.of_assoc] on resume,
   which rejects any other name. *)
let stat_names = List.map fst (Solver.to_assoc (Solver.create_stats ()))

let of_string text =
  let r = L.reader text in
  let int = L.int_tok and bool = L.bool_tok in
  (* A record of "k=v" tokens in a fixed order, as written by
     [to_string], decoded eagerly; the result looks a value up by key. *)
  let kv_record tag decode keys =
    let toks = L.fields r tag in
    if List.length toks <> List.length keys then L.malformed tag;
    let kv key t =
      match String.index_opt t '=' with
      | Some i when String.sub t 0 i = key -> String.sub t (i + 1) (String.length t - i - 1)
      | _ -> bad "expected %s=... in %s, got %S" key tag t
    in
    let values = List.map2 (fun key t -> (key, decode tag (kv key t))) keys toks in
    fun key -> List.assoc key values
  in
  try
    read_magic r Search ~version;
    let meta =
      let get = kv_record "meta" (fun _ v -> v) [ "seed"; "depth"; "max_runs"; "strategy" ] in
      let int k = int "meta" (get k) in
      let m_strategy =
        match Strategy.of_string (get "strategy") with
        | Some s -> s
        | None -> bad "unknown strategy %S" (get "strategy")
      in
      { m_seed = int "seed";
        m_depth = int "depth";
        m_max_runs = int "max_runs";
        m_strategy }
    in
    let sn_pending_restart = bool "pending_restart" (L.field r "pending_restart") in
    let sn_rng =
      match Int64.of_string_opt (L.field r "rng") with Some v -> v | None -> bad "bad rng state"
    in
    let counter =
      kv_record "counters" int [ "runs"; "restarts"; "total_steps"; "paths"; "resource_limited" ]
    in
    let flag = kv_record "flags" bool [ "all_linear"; "all_locs_definite" ] in
    let sn_stack =
      match L.fields r "stack" with
      | count :: entries ->
        if List.length entries <> int "stack" count then bad "stack length mismatch";
        Array.of_list
          (List.map
             (fun e ->
               let branch, don = L.pair_tok "stack" e in
               { Concolic.br_branch = bool "stack" branch; br_done = bool "stack" don })
             entries)
      | [] -> L.malformed "stack"
    in
    let sn_im =
      L.read_section r "im" (fun r ->
          match L.fields r "input" with
          | [ id; value; kind ] -> (
            match Inputs.kind_of_tag kind with
            | Some k -> (int "input" id, int "input" value, k)
            | None -> bad "unknown input kind %S" kind)
          | _ -> L.malformed "input")
    in
    let sn_coverage = L.read_section r "coverage" (read_cover ~tag:"cover") in
    let sn_stats =
      L.read_section r "stats" (fun r ->
          match L.fields r "stat" with
          | [ k; v ] -> (L.str_tok "stat" k, int "stat" v)
          | _ -> L.malformed "stat")
    in
    (* Reject here what resuming would trip over later: an unknown name
       makes [Solver.of_assoc] raise, and a repeated one would silently
       win over the first. *)
    ignore
      (List.fold_left
         (fun seen (k, _) ->
           if not (List.mem k stat_names) then bad "unknown stat counter %S" k;
           if List.mem k seen then bad "duplicate stat counter %S" k;
           k :: seen)
         [] sn_stats);
    let sn_bugs = L.read_section r "bugs" read_bug in
    L.expect_end r;
    Ok
      ( meta,
        { Driver.sn_pending_restart;
          sn_stack;
          sn_im;
          sn_rng;
          sn_runs = counter "runs";
          sn_restarts = counter "restarts";
          sn_total_steps = counter "total_steps";
          sn_paths = counter "paths";
          sn_resource_limited = counter "resource_limited";
          sn_all_linear = flag "all_linear";
          sn_all_locs_definite = flag "all_locs_definite";
          sn_coverage;
          sn_stats;
          sn_bugs } )
  with Dart_util.Persist.Bad msg -> Error msg

let save ~path ~meta snapshot = Dart_util.Persist.write_atomic ~path (to_string meta snapshot)

let load ~path =
  match Dart_util.Persist.read_file path with
  | exception Sys_error msg -> Error msg
  | text -> of_string text
