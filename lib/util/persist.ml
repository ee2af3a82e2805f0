(* On-disk spellings and file writes for every persisted artifact. See
   persist.mli for the contract. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ---- files ------------------------------------------------------------------ *)

let write_atomic ?fault ~path text =
  (match fault with
   | Some f when Faultsim.fire f Faultsim.Io_error ->
     raise (Sys_error (path ^ ": injected io_error (faultsim)"))
   | _ -> ());
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      flush oc);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- flat JSON ---------------------------------------------------------------- *)

module Json = struct
  type value =
    | Str of string
    | Int of int64
    | Bool of bool

  let add_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let string s =
    let buf = Buffer.create (String.length s + 2) in
    add_string buf s;
    Buffer.contents buf

  let flat_object fields =
    let buf = Buffer.create 128 in
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        match v with
        | Str s -> add_string buf s
        | Int n -> Buffer.add_string buf (Int64.to_string n)
        | Bool b -> Buffer.add_string buf (if b then "true" else "false"))
      fields;
    Buffer.add_char buf '}';
    Buffer.contents buf

  let parse_flat s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && String.contains " \t\r" s.[!pos] do
        incr pos
      done
    in
    let expect c =
      skip_ws ();
      if peek () = Some c then incr pos else bad "expected %C at offset %d" c !pos
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> bad "unterminated string"
        | Some '"' ->
          incr pos;
          Buffer.contents buf
        | Some '\\' ->
          incr pos;
          let e = match peek () with Some e -> e | None -> bad "unterminated escape" in
          incr pos;
          (match e with
           | '"' | '\\' | '/' -> Buffer.add_char buf e
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'u' ->
             if !pos + 4 > n then bad "truncated \\u escape";
             let code = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
             pos := !pos + 4;
             Buffer.add_char buf
               (match code with
                | Some c when c < 256 -> Char.chr c
                | Some _ -> '?'
                | None -> bad "bad \\u escape")
           | _ -> bad "bad escape \\%c" e);
          go ()
        | Some c ->
          incr pos;
          Buffer.add_char buf c;
          go ()
      in
      go ()
    in
    let literal word v =
      let len = String.length word in
      if !pos + len <= n && String.sub s !pos len = word then begin
        pos := !pos + len;
        v
      end
      else bad "bad literal"
    in
    let parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some ('-' | '0' .. '9') ->
        let start = !pos in
        if peek () = Some '-' then incr pos;
        while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
          incr pos
        done;
        (match Int64.of_string_opt (String.sub s start (!pos - start)) with
         | Some v -> Int v
         | None -> bad "bad integer")
      | _ -> bad "unexpected value at offset %d" !pos
    in
    let rec members acc =
      let k = parse_string () in
      expect ':';
      let acc = (k, parse_value ()) :: acc in
      skip_ws ();
      match peek () with
      | Some ',' ->
        incr pos;
        members acc
      | Some '}' ->
        incr pos;
        List.rev acc
      | _ -> bad "expected ',' or '}'"
    in
    expect '{';
    skip_ws ();
    let fields =
      if peek () = Some '}' then begin
        incr pos;
        []
      end
      else members []
    in
    skip_ws ();
    if !pos <> n then bad "trailing garbage after object";
    fields

  let str fields k =
    match List.assoc_opt k fields with
    | Some (Str s) -> s
    | _ -> bad "missing string field %S" k

  let i64 fields k =
    match List.assoc_opt k fields with
    | Some (Int v) -> v
    | _ -> bad "missing integer field %S" k

  let int fields k = Int64.to_int (i64 fields k)

  let bool fields k =
    match List.assoc_opt k fields with
    | Some (Bool b) -> b
    | _ -> bad "missing boolean field %S" k
end

(* ---- line records ------------------------------------------------------------- *)

module Lines = struct
  let esc s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | ' ' | '%' | '\n' | '\t' | '\r' ->
          Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let hex_digit = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> bad "bad %%-escape"

  let unesc s =
    let n = String.length s in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
       | '%' ->
         if !i + 2 >= n then bad "truncated %%-escape";
         Buffer.add_char buf (Char.chr ((16 * hex_digit s.[!i + 1]) + hex_digit s.[!i + 2]));
         i := !i + 2
       | c -> Buffer.add_char buf c);
      incr i
    done;
    Buffer.contents buf

  let line buf fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt

  let section buf tag write items =
    line buf "%s %d" tag (List.length items);
    List.iter (write buf) items

  let bool_tag b = if b then "1" else "0"

  type reader = {
    mutable lines : string list;
    mutable tap : Buffer.t option;
  }

  let reader text =
    { lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text); tap = None }

  let set_tap r tap = r.tap <- tap

  let next_line r what =
    match r.lines with
    | [] -> bad "unexpected end of file, wanted %s" what
    | l :: rest ->
      r.lines <- rest;
      Option.iter
        (fun b ->
          Buffer.add_string b l;
          Buffer.add_char b '\n')
        r.tap;
      l

  let malformed tag = bad "expected %S record" tag

  let fields r tag =
    match String.split_on_char ' ' (next_line r tag) with
    | t :: rest when t = tag -> rest
    | _ -> malformed tag

  let field r tag = match fields r tag with [ t ] -> t | _ -> malformed tag

  let int_tok what t =
    match int_of_string_opt t with
    | Some v -> v
    | None -> bad "bad integer in %s: %S" what t

  let bool_tok what = function
    | "0" -> false
    | "1" -> true
    | t -> bad "bad boolean in %s: %S" what t

  let str_tok what t = try unesc t with Bad msg -> bad "%s in %s" msg what

  let pair_tok what t =
    match String.split_on_char ':' t with
    | [ a; b ] -> (a, b)
    | _ -> bad "bad %s entry %S" what t

  let read_section r tag read =
    let n = int_tok tag (field r tag) in
    if n < 0 then bad "negative count in %s: %d" tag n;
    List.init n (fun _ -> read r)

  let expect_end r = if fields r "end" <> [] then malformed "end"
end
