type ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature

type t = {
  path : string;
  ast : ast;
  comments : (string * Location.t) list;
}

let parse_lexbuf ~path ~intf lexbuf =
  Location.init lexbuf path;
  Lexer.init ();
  match
    if intf then Intf (Parse.interface lexbuf)
    else Impl (Parse.implementation lexbuf)
  with
  | ast -> Ok { path; ast; comments = Lexer.comments () }
  | exception e -> begin
      (* Render compiler diagnostics (syntax errors, lexer errors)
         through the compiler's own printer when it knows the
         exception; anything else is shown raw. *)
      match Location.error_of_exn e with
      | Some (`Ok err) ->
          Error (Format.asprintf "%a" Location.print_report err)
      | _ -> Error (Printf.sprintf "%s: %s" path (Printexc.to_string e))
    end

let parse_string ~path ~intf source =
  parse_lexbuf ~path ~intf (Lexing.from_string source)

let load ?path file =
  let path = match path with Some p -> p | None -> file in
  let intf = Filename.check_suffix file ".mli" in
  match open_in_bin file with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> parse_lexbuf ~path ~intf (Lexing.from_channel ic))

(* --- suppression directives ------------------------------------------ *)

type suppression = {
  rules : Lint_finding.rule list;
  line : int;
  reason : string;
}

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

(* Find the reason separator: an em dash (U+2014) or a [--] token. *)
let split_reason s =
  let n = String.length s in
  let dash = "\xe2\x80\x94" in
  let rec go i =
    if i >= n then None
    else if i + 2 < n && String.sub s i 3 = dash then
      Some (String.sub s 0 i, String.sub s (i + 3) (n - i - 3))
    else if
      i + 1 < n
      && s.[i] = '-'
      && s.[i + 1] = '-'
      && (i = 0 || is_space s.[i - 1])
      && (i + 2 >= n || is_space s.[i + 2])
    then Some (String.sub s 0 i, String.sub s (i + 2) (n - i - 2))
    else go (i + 1)
  in
  go 0

let directive_prefix = "cqlint:"

(* [parse_directive text] is [None] when [text] is not a cqlint
   directive at all, [Some (Ok (rules, reason))] for a well-formed one
   and [Some (Error msg)] for a malformed one. *)
let parse_directive text =
  let text = String.trim text in
  if not (String.length text >= String.length directive_prefix
          && String.sub text 0 (String.length directive_prefix)
             = directive_prefix)
  then None
  else begin
    let rest =
      String.trim
        (String.sub text
           (String.length directive_prefix)
           (String.length text - String.length directive_prefix))
    in
    match split_words rest with
    | "allow" :: _ -> begin
        let rest = String.trim (String.sub rest 5 (String.length rest - 5)) in
        match split_reason rest with
        | None ->
            Some
              (Error
                 "missing the mandatory reason: write (* cqlint: allow R1 \
                  \xe2\x80\x94 reason *)")
        | Some (rules_part, reason) -> begin
            let reason = String.trim reason in
            let tokens =
              split_words (String.map (function ',' -> ' ' | c -> c) rules_part)
            in
            let rules = List.map Lint_finding.rule_of_string tokens in
            if reason = "" then
              Some (Error "empty reason after the \xe2\x80\x94 separator")
            else if tokens = [] then
              Some (Error "no rule named before the reason")
            else if List.exists (fun r -> r = None) rules then
              let bad =
                List.find
                  (fun t -> Lint_finding.rule_of_string t = None)
                  tokens
              in
              Some
                (Error
                   (Printf.sprintf "unknown rule %S (expected one of %s)" bad
                      (String.concat ", "
                         (List.map Lint_finding.rule_to_string
                            Lint_finding.all_rules))))
            else if List.exists (fun r -> r = Some Lint_finding.R0) rules then
              Some (Error "R0 (directive hygiene) cannot be suppressed")
            else
              Some (Ok (List.filter_map Fun.id rules, reason))
          end
      end
    | _ ->
        Some
          (Error
             "unknown cqlint directive: only (* cqlint: allow R<n> \
              \xe2\x80\x94 reason *) is supported")
  end

let suppressions src =
  List.fold_left
    (fun (sups, bad) (text, (loc : Location.t)) ->
      match parse_directive text with
      | None -> (sups, bad)
      | Some (Ok (rules, reason)) ->
          ({ rules; line = loc.loc_end.pos_lnum; reason } :: sups, bad)
      | Some (Error msg) ->
          ( sups,
            Lint_finding.make ~rule:Lint_finding.R0 ~file:src.path ~loc
              ~key:(Printf.sprintf "directive#%d" loc.loc_start.pos_lnum)
              msg
            :: bad ))
    ([], []) src.comments

let suppressed sups (f : Lint_finding.t) =
  List.exists
    (fun s ->
      List.mem f.Lint_finding.rule s.rules
      && (f.Lint_finding.line = s.line || f.Lint_finding.line = s.line + 1))
    sups

let apply src findings =
  let sups, bad = suppressions src in
  let kept, dropped =
    List.partition (fun f -> not (suppressed sups f)) findings
  in
  (List.sort Lint_finding.compare (bad @ kept), List.length dropped)
