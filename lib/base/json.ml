type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the input string.  [exception Fail]
   carries the offset and message; [parse] catches it into a result.  *)
(* ------------------------------------------------------------------ *)

exception Fail of int * string

let max_depth = 256

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        advance ();
        Buffer.contents buf
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        let c = s.[!pos] in
        advance ();
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 () in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: require the low half *)
            if
              !pos + 2 <= n
              && s.[!pos] = '\\'
              && s.[!pos + 1] = 'u'
            then begin
              advance ();
              advance ();
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "invalid surrogate pair";
              add_utf8 buf
                (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else fail "unpaired surrogate"
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired surrogate"
          else add_utf8 buf cp
        | _ -> fail "invalid escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ()
      done;
      if !pos = d0 then fail "invalid number"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = string_body () in
          skip_ws ();
          expect ':';
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (elements [])
      end
    | Some '"' -> String (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing bytes after document";
    v
  with
  | v -> Ok v
  | exception Fail (off, msg) ->
    Error (Printf.sprintf "%s at byte %d" msg off)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* One fixed float format: shortest of %.12g that is still JSON-valid
   (a bare integer mantissa gets a ".0" so it round-trips as a float). *)
let float_text f =
  if not (Float.is_finite f) then "null"
  else begin
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let scalar = function List _ | Obj _ -> false | _ -> true

(* [items] between [openc] and [closec], with [sep] between items,
   [pad] before each and, when there are any, [close] before [closec]. *)
let seq buf openc closec ~sep ?(pad = "") ?(close = "") items print =
  Buffer.add_char buf openc;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      Buffer.add_string buf pad;
      print x)
    items;
  if items <> [] then Buffer.add_string buf close;
  Buffer.add_char buf closec

let member buf ~kv print (k, x) =
  escape_into buf k;
  Buffer.add_string buf kv;
  print x

(* One line: [sep] between items, [kv] between key and value. *)
let rec inline buf ~sep ~kv = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_text f)
  | String s -> escape_into buf s
  | List xs -> seq buf '[' ']' ~sep xs (inline buf ~sep ~kv)
  | Obj members ->
    seq buf '{' '}' ~sep members (member buf ~kv (inline buf ~sep ~kv))

let to_string v =
  let buf = Buffer.create 256 in
  inline buf ~sep:"," ~kv:":" v;
  Buffer.contents buf

let pretty v =
  let buf = Buffer.create 1024 in
  let one_line = inline buf ~sep:", " ~kv:": " in
  let rec go indent v =
    let inner = indent ^ "  " in
    let lines openc closec items print =
      seq buf openc closec ~sep:"," ~pad:("\n" ^ inner) ~close:("\n" ^ indent)
        items print
    in
    match v with
    | Obj (_ :: _ as members) ->
      lines '{' '}' members (member buf ~kv:": " (go inner))
    | List xs when not (List.for_all scalar xs) ->
      lines '[' ']' xs (function
        | Obj row as x when List.for_all (fun (_, m) -> scalar m) row ->
          one_line x
        | x -> go inner x)
    | v -> one_line v
  in
  go "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let rounded digits x = Float (Float.of_string (Printf.sprintf "%.*f" digits x))

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

exception Type_error of string

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let wrong key kind =
  raise (Type_error (Printf.sprintf "%s must be %s" key kind))

let get_int params key ~default =
  match member key params with
  | None -> default
  | Some (Int i) -> i
  | Some (Float f) when Float.is_integer f -> int_of_float f
  | Some _ -> wrong key "an integer"

let get_bool params key ~default =
  match member key params with
  | None -> default
  | Some (Bool b) -> b
  | Some _ -> wrong key "a boolean"

let get_float params key ~default =
  match member key params with
  | None -> default
  | Some (Float f) -> f
  | Some (Int i) -> float_of_int i
  | Some _ -> wrong key "a number"

let get_string params key ~default =
  match member key params with
  | None -> default
  | Some (String s) -> s
  | Some _ -> wrong key "a string"

let get_string_opt params key =
  match member key params with
  | None | Some Null -> None
  | Some (String s) -> Some s
  | Some _ -> wrong key "a string"

let get_int_opt params key =
  match member key params with
  | None | Some Null -> None
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | Some _ -> wrong key "an integer"

let get_list_opt params key =
  match member key params with
  | None | Some Null -> None
  | Some (List xs) -> Some xs
  | Some _ -> wrong key "a list"
