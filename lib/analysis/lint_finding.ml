type rule =
  | R0
  | R1
  | R2
  | R3
  | R4
  | R6
  | R7
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14

let all_rules =
  [ R1; R2; R3; R4; R6; R7; R8; R9; R10; R11; R12; R13; R14 ]

let rule_to_string = function
  | R0 -> "R0"
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | R12 -> "R12"
  | R13 -> "R13"
  | R14 -> "R14"

let rule_of_string = function
  | "R0" | "r0" -> Some R0
  | "R1" | "r1" -> Some R1
  | "R2" | "r2" -> Some R2
  | "R3" | "r3" -> Some R3
  | "R4" | "r4" -> Some R4
  | "R6" | "r6" -> Some R6
  | "R7" | "r7" -> Some R7
  | "R8" | "r8" -> Some R8
  | "R9" | "r9" -> Some R9
  | "R10" | "r10" -> Some R10
  | "R11" | "r11" -> Some R11
  | "R12" | "r12" -> Some R12
  | "R13" | "r13" -> Some R13
  | "R14" | "r14" -> Some R14
  | _ -> None

let rule_doc = function
  | R0 -> "well-formed cqlint directives (malformed/unreasoned suppressions)"
  | R1 ->
      "budget discipline (typed): every while/for loop and call-graph \
       cycle in a solver library must reach Budget.tick, through any \
       helpers"
  | R2 ->
      "exception hygiene: only Guard-convertible or local raises; _b entry \
       points must wrap their body in Guard.run"
  | R3 ->
      "comparison safety: no polymorphic =/compare/Hashtbl.hash on domain \
       values (Rat.t, Bigint.t, structural keys)"
  | R4 ->
      "interface hygiene: every library module has an .mli"
  | R6 ->
      "determinism (typed): no PRNG, wall-clock, or order-dependent Hashtbl \
       iteration reachable from a solver's exported surface"
  | R7 ->
      "marshal safety (typed): types crossing Isolate's fork result channel \
       must be transitively closure- and custom-block-free"
  | R8 ->
      "_b drift (typed): budgeted _b entry points must match their \
       unbudgeted twin modulo ?budget and the Guard.failure result wrapper"
  | R9 ->
      "state registration (typed): exported solver entry points must not \
       write top-level mutable state that is not registered with \
       Runtime_state for abort-safety reset/validate"
  | R10 ->
      "fork-time aliasing (typed): locally-created mutable state must not \
       escape across an Isolate.run/spawn or runner boundary"
  | R11 ->
      "report drift: the committed docs/EXACTNESS.md must match what \
       --taint-report regenerates from the current tree"
  | R12 ->
      "float taint (typed): no uncertified float may reach a core/linsep \
       entry point's return value or a serialized payload; \
       Certify.hyperplane/farkas and exact Rat.of_float sanitize"
  | R13 ->
      "journal-before-ack (typed): client-observable service state changes \
       and Ok acks must be dominated by a Wal.append on every path"
  | R14 ->
      "resource release (typed): Unix/channel/Isolate handles acquired in a \
       function must be released (close/await/Fun.protect) on every path"

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  key : string;
  message : string;
}

let v ~rule ~file ~line ~col ~key message =
  { rule; file; line; col; key; message }

let make ~rule ~file ~(loc : Location.t) ~key message =
  let p = loc.loc_start in
  v ~rule ~file ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol) ~key message

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Stdlib.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.key b.key

let to_text f =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" f.file f.line f.col
    (rule_to_string f.rule) f.key f.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  Printf.sprintf
    "{\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"key\":\"%s\",\"message\":\"%s\"}"
    (rule_to_string f.rule) (json_escape f.file) f.line f.col
    (json_escape f.key) (json_escape f.message)

let list_to_json fs =
  match fs with
  | [] -> "[]"
  | fs ->
      let body = String.concat ",\n  " (List.map to_json fs) in
      Printf.sprintf "[\n  %s\n]" body
