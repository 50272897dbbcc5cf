(** Declared schemas for the committed TSV result tables.

    A schema is the one record of a table's layout: its named, typed
    columns plus optional rules over each row and over the whole table.
    The writer derives its header from the schema ({!header}) and renders
    every row through it ({!line}, {!to_string}, {!write});
    [sgxbounds_cli validate-bench] recognises a file by its header line
    ({!find}) and checks it with the one generic {!validate}. So each
    column list is written down once, next to the code that fills it,
    and the writer and the validator cannot drift apart. *)

type kind =
  | Text                  (** non-empty free text *)
  | Nat of int            (** an integer at least the bound *)
  | Num of float * float  (** a decimal number within [lo, hi] *)
  | Ratio                 (** a non-negative number, or ["-"] for a crashed cell *)
  | One_of of string list (** exactly one of the listed words *)
  | Status                (** ["ok"], or ["crashed: <reason>"] *)

(** One data row as (column, cell) pairs, for the rules. A rule runs
    only after every cell has passed its column's kind, so {!int} and
    {!float} cannot fail on a [Nat] or [Num] column. *)
type row = (string * string) list

type t = {
  name : string;  (** the table's name in messages *)
  columns : (string * kind) list;
  row_rules : (string * (row -> bool)) list;
      (** (description, predicate): every row must satisfy each *)
  table_rules : (string * (row list -> bool)) list;
      (** (description, predicate) over all data rows *)
}

let schema ?(row_rules = []) ?(table_rules = []) name columns =
  { name; columns; row_rules; table_rules }

let header s = String.concat "\t" (List.map fst s.columns)

(** One data line (no newline). A cell holding a tab or a newline, or a
    cell count other than the schema's, is a writer bug. *)
let line s cells =
  if List.length cells <> List.length s.columns then
    invalid_arg
      (Printf.sprintf "Tsv.line: %s: %d cells for %d columns" s.name
         (List.length cells) (List.length s.columns));
  List.iter
    (fun c ->
       if String.contains c '\t' || String.contains c '\n' then
         invalid_arg (Printf.sprintf "Tsv.line: %s: cell %S holds a separator" s.name c))
    cells;
  String.concat "\t" cells

(** The whole table: header, then one line per row, each newline-ended. *)
let to_string s rows =
  String.concat "" (List.map (fun l -> l ^ "\n") (header s :: List.map (line s) rows))

(** Write the table to [path], creating its directory if needed. *)
let write s ~path rows =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string s rows))

(* ---------- row access for rules ---------- *)

let get (r : row) name = List.assoc name r
let int r name = int_of_string (get r name)
let float r name = float_of_string (get r name)

(* ---------- validation ---------- *)

type error = {
  row : int option;  (** 1-based data row; [None] = header or whole table *)
  msg : string;
}

let error_to_string e =
  match e.row with Some r -> Printf.sprintf "row %d: %s" r e.msg | None -> e.msg

let check_cell kind v =
  let num lo hi =
    match float_of_string_opt v with Some x -> lo <= x && x <= hi | None -> false
  in
  match kind with
  | Text -> if String.trim v = "" then Some "is empty" else None
  | Nat lo ->
    (match int_of_string_opt v with
     | Some n when n >= lo -> None
     | _ -> Some (Printf.sprintf "%S is not an integer >= %d" v lo))
  | Num (lo, hi) ->
    if num lo hi then None else Some (Printf.sprintf "%S is not a number in [%g, %g]" v lo hi)
  | Ratio ->
    if v = "-" || num 0. infinity then None
    else Some (Printf.sprintf "%S is neither a non-negative number nor -" v)
  | One_of words ->
    if List.mem v words then None
    else Some (Printf.sprintf "%S is not one of %s" v (String.concat "/" words))
  | Status ->
    if v = "ok" || String.starts_with ~prefix:"crashed: " v then None
    else Some (Printf.sprintf "%S is neither ok nor crashed: <reason>" v)

(** The schema among [schemas] whose header is the first line of
    [contents]. *)
let find schemas contents =
  List.find_opt (fun s -> String.starts_with ~prefix:(header s ^ "\n") contents) schemas

(** Check a whole table: the header, then every row's column count,
    cell kinds and row rules in order, then the table rules. Returns the
    number of data rows, or the first problem found. *)
let validate s contents =
  let error ?row msg = Error { row; msg } in
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' contents) with
  | [] -> error "empty file"
  | h :: _ when h <> header s -> error (Printf.sprintf "header is not the %s header" s.name)
  | [ _ ] -> error (Printf.sprintf "%s table has no data rows" s.name)
  | _ :: data ->
    let ncols = List.length s.columns in
    let rec rows i acc = function
      | [] -> Ok (List.rev acc)
      | l :: rest ->
        let cells = String.split_on_char '\t' l in
        let bad msg = error ~row:i msg in
        if List.length cells <> ncols then
          bad (Printf.sprintf "%d columns (expected %d)" (List.length cells) ncols)
        else
          let typed = List.combine s.columns cells in
          match
            List.find_map
              (fun ((name, kind), v) -> Option.map (( ^ ) (name ^ " ")) (check_cell kind v))
              typed
          with
          | Some m -> bad m
          | None ->
            let r = List.map (fun ((name, _), v) -> (name, v)) typed in
            (match List.find_opt (fun (_, ok) -> not (ok r)) s.row_rules with
             | Some (what, _) -> bad ("violates " ^ what)
             | None -> rows (i + 1) (r :: acc) rest)
    in
    Result.bind (rows 1 [] data) (fun rs ->
        match List.find_opt (fun (_, ok) -> not (ok rs)) s.table_rules with
        | Some (what, _) -> error ("table violates " ^ what)
        | None -> Ok (List.length rs))
