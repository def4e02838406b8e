(** String helpers shared by the lexer, the style checker, and the
    naming-convention checker. *)

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = c >= 'A' && c <= 'Z'
let is_alpha c = is_lower c || is_upper c
let is_alnum c = is_alpha c || is_digit c
let is_ident_start c = is_alpha c || c = '_'
let is_ident_char c = is_alnum c || c = '_'
let is_space c = c = ' ' || c = '\t' || c = '\r'

let for_all p s =
  let rec go i = i >= String.length s || (p s.[i] && go (i + 1)) in
  go 0

let exists p s = not (for_all (fun c -> not (p c)) s)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0

(** Split on a character, keeping empty fields (used to split source text
    into lines: ["a\n\n"] has three fields). *)
let split_char c s = String.split_on_char c s

let lines s = split_char '\n' s

let strip s =
  let n = String.length s in
  let rec first i = if i < n && is_space s.[i] then first (i + 1) else i in
  let rec last i = if i >= 0 && is_space s.[i] then last (i - 1) else i in
  let a = first 0 and b = last (n - 1) in
  if a > b then "" else String.sub s a (b - a + 1)

(** [snake_case s]: lowercase letters, digits and underscores only, and does
    not start with a digit. *)
let is_snake_case s =
  s <> ""
  && is_ident_start s.[0]
  && (not (is_upper s.[0]))
  && for_all (fun c -> is_lower c || is_digit c || c = '_') s

(** [is_camel_case s]: starts with an uppercase letter, contains no
    underscores ([CamelCase] a.k.a. PascalCase, as Google C++ style requires
    for type names). *)
let is_camel_case s =
  s <> "" && is_upper s.[0] && for_all (fun c -> is_alnum c) s

(** Google-style constant name: [kConstantName]. *)
let is_kconstant s =
  String.length s >= 2 && s.[0] = 'k' && is_upper s.[1] && for_all is_alnum s

(** Google-style data-member name: [snake_case_] with a trailing underscore. *)
let is_member_name s = ends_with ~suffix:"_" s && is_snake_case s

let repeat n s =
  let buf = Buffer.create (n * String.length s) in
  for _ = 1 to n do Buffer.add_string buf s done;
  Buffer.contents buf

let indent_width line =
  let rec go i = if i < String.length line && line.[i] = ' ' then go (i + 1) else i in
  go 0

let count_char c s =
  String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 s

(** 64-bit FNV-1a.  [fnv1a64_string h s] continues hash [h] over the
    bytes of [s] (an index loop over an unboxed local: no allocation per
    byte), [fnv1a64_char h c] over one byte; [fnv1a64 s] hashes [s] from
    [fnv_offset]. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64_char h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) fnv_prime

let fnv1a64_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv1a64_char !h (String.unsafe_get s i)
  done;
  !h

let fnv1a64 s = fnv1a64_string fnv_offset s
