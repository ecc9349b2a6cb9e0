(* cqsep — command-line interface to the separability library.

   Databases are given in the text format of {!Textfmt}:
     R(a, b)      facts
     +a  -b  ?c   positive / negative / unlabeled entities

   Subcommands: info, sep, generate, classify.

   Exit codes: 0 separable, 1 not separable, 2 degraded answer
   (a weaker rung of the fallback ladder answered), 3 budget
   exhausted, 4 input or solver error, 5 internal error (an
   unexpected exception; CQSEP_DEBUG=1 re-raises it with a
   backtrace), 6 an uncertified numeric linear-separation verdict was
   detected under --cert-stats (should be unreachable: the numeric
   tier escalates to the exact solver instead of answering
   uncertified; 6 is the tripwire that keeps it honest). *)

let read_training path =
  Textfmt.training_of_document (Textfmt.parse_file path)

let read_db path = (Textfmt.parse_file path).Textfmt.db

(* Parse and IO errors (malformed databases/models, unreadable files)
   exit 4 with the message on stderr. Nothing broader: catching, say,
   all Invalid_argument here would report internal bugs as user
   errors. Solver-raised Invalid_argument still exits 4, via
   [guarded]'s Guard.run -> Solver_error conversion. *)
let with_input f =
  try f () with
  | Textfmt.Parse_error msg ->
      Printf.eprintf "cqsep: %s\n" msg;
      exit 4
  | Model_io.Parse_error msg ->
      Printf.eprintf "cqsep: %s\n" msg;
      exit 4
  | Sys_error msg ->
      Printf.eprintf "cqsep: %s\n" msg;
      exit 4

let exit_of_failure = function
  | Guard.Timeout | Guard.Fuel_exhausted _ | Guard.Limit_exceeded _ -> 3
  | Guard.Solver_error _ -> 4

let fail_with failure =
  Printf.eprintf "cqsep: %s\n" (Guard.failure_to_string failure);
  exit (exit_of_failure failure)

(* --- argument converters -------------------------------------------- *)

let lang_of_string s =
  match Language.of_string s with Ok l -> Ok l | Error msg -> Error (`Msg msg)

let lang_conv =
  let printer fmt l = Language.pp fmt l in
  Cmdliner.Arg.conv (lang_of_string, printer)

let rat_of_string s =
  try
    match String.split_on_char '/' (String.trim s) with
    | [ n ] -> Ok (Rat.of_int (int_of_string n))
    | [ n; d ] -> Ok (Rat.of_ints (int_of_string n) (int_of_string d))
    | _ -> Error (`Msg "expected a rational like 1/4")
  with _ -> Error (`Msg "expected a rational like 1/4")

let rat_conv = Cmdliner.Arg.conv (rat_of_string, fun fmt r -> Rat.pp fmt r)

(* Durations: "500us", "250ms", "2s", or a plain number of seconds. *)
let duration_of_string s0 =
  let s = String.trim s0 in
  let bad () =
    Error
      (`Msg
        (Printf.sprintf
           "bad duration %S (expected e.g. 500us, 250ms, 2s, or plain \
            seconds)"
           s0))
  in
  let ends_with suffix =
    let ls = String.length s and lx = String.length suffix in
    ls > lx && String.sub s (ls - lx) lx = suffix
  in
  let scaled scale suffix =
    let num = String.sub s 0 (String.length s - String.length suffix) in
    match float_of_string_opt (String.trim num) with
    | Some f when f >= 0.0 -> Ok (f *. scale)
    | _ -> bad ()
  in
  if s = "" then bad ()
  else if ends_with "us" then scaled 1e-6 "us"
  else if ends_with "ms" then scaled 1e-3 "ms"
  else if ends_with "s" then scaled 1.0 "s"
  else
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | _ -> bad ()

let duration_conv =
  Cmdliner.Arg.conv
    (duration_of_string, fun fmt secs -> Format.fprintf fmt "%gs" secs)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Log decisions of the core library.")

let lang_arg =
  Arg.(
    value
    & opt lang_conv (Language.Cq_atoms { m = 2; p = None })
    & info [ "l"; "lang" ] ~docv:"LANG"
        ~doc:
          "Feature language: cq, cq[m], cq[m,p], ghw(k), fo, foK (e.g. \
           fo2) or epfo (default cq[2]).")

let dim_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "d"; "dim" ] ~docv:"N"
        ~doc:"Bound the statistic dimension (L-Sep[N]).")

let eps_arg =
  Arg.(
    value
    & opt (some rat_conv) None
    & info [ "e"; "eps" ] ~docv:"EPS"
        ~doc:"Allowed misclassified fraction, e.g. 1/4 (L-ApxSep).")

let depth_arg =
  Arg.(
    value & opt int 2
    & info [ "ghw-depth" ] ~docv:"N"
        ~doc:"Unraveling depth for GHW feature generation (default 2).")

let timeout_arg =
  Arg.(
    value
    & opt (some duration_conv) None
    & info [ "timeout" ] ~docv:"DURATION"
        ~doc:
          "Wall-clock budget, e.g. 500us, 250ms, 2s, or plain seconds. \
           When exceeded the answer degrades (sep) or the command exits \
           3.")

let fuel_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "fuel must be >= 1 (got %d)" n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let fuel_arg =
  Arg.(
    value
    & opt (some fuel_conv) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Abstract solver-step budget. When exhausted the answer \
           degrades (sep) or the command exits 3.")

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "Disable the graceful-degradation ladder: on budget \
           exhaustion exit 3 instead of retrying with weaker feature \
           languages.")

(* [budget_of] is [None] when no limit was requested ([guarded] then
   runs under [Budget.unlimited], whose ticks stay on the fast path);
   the ladder dispatch below keys on the option. *)
let budget_of ~timeout ~fuel =
  match (timeout, fuel) with
  | None, None -> None
  | _ -> Some (Budget.make ?timeout ?fuel ())

let isolate_arg =
  Arg.(
    value & flag
    & info [ "isolate" ]
        ~doc:
          "Run each solver call in a forked worker process with a hard \
           SIGKILL past the deadline: survives non-cooperative loops, \
           stack overflow and out-of-memory, at a fork+marshal cost per \
           call.")

let grace_arg =
  Arg.(
    value
    & opt duration_conv 1.0
    & info [ "grace" ] ~docv:"DURATION"
        ~doc:
          "With --isolate: extra wall-clock allowance past the deadline \
           before the worker is killed (default 1s).")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Re-run a budget-exhausted solver call up to N more times, \
           escalating fuel and timeout by --retry-factor each attempt. \
           Solver errors are never retried.")

let retry_factor_arg =
  Arg.(
    value & opt float 4.0
    & info [ "retry-factor" ] ~docv:"F"
        ~doc:"Budget escalation factor between retry attempts (default 4).")

(* The execution strategy: in-process Guard.run or a forked worker,
   optionally wrapped in the budget-escalating retry policy. *)
let runner_of ~isolate ~grace ~retry ~retry_factor =
  if retry < 0 then begin
    Printf.eprintf "cqsep: --retry must be >= 0\n";
    exit 4
  end;
  if retry_factor < 1.0 then begin
    Printf.eprintf "cqsep: --retry-factor must be >= 1\n";
    exit 4
  end;
  let base = if isolate then Isolate.runner ~grace () else Guard.runner in
  if retry = 0 then base
  else
    Guard.retrying ~attempts:(retry + 1) ~factor:retry_factor
      ~extend_deadline:true base

(* --- numeric-tier controls ------------------------------------------- *)

let numeric_arg =
  Arg.(
    value & flag
    & info [ "numeric" ]
        ~doc:
          "Decide linear separations with the float-first tier (CG \
           logistic fit, then float simplex), certifying every answer \
           in exact arithmetic and escalating to the exact simplex \
           when certification fails. This is the default; the flag \
           exists to state it explicitly and to conflict with \
           --exact-only.")

let exact_only_arg =
  Arg.(
    value & flag
    & info [ "exact-only" ]
        ~doc:
          "Skip the float tier entirely: every linear separation runs \
           on the exact rational simplex. Slower, bit-for-bit the \
           reference behaviour.")

let cert_stats_arg =
  Arg.(
    value & flag
    & info [ "cert-stats" ]
        ~doc:
          "After answering, report linear-separation certification \
           counters on stderr (certified per solver, escalations, \
           uncertified). Exits 6 if any verdict was left uncertified \
           — which the escalation ladder is designed to make \
           impossible.")

let set_tier ~numeric ~exact_only =
  if numeric && exact_only then begin
    Printf.eprintf "cqsep: --numeric and --exact-only are mutually exclusive\n";
    exit 4
  end;
  Nsep.set_tier (if exact_only then Nsep.Exact_only else Nsep.Numeric)

let report_cert_stats () =
  let s = Nsep.stats () in
  Printf.eprintf
    "cqsep: linsep decisions %d: cg-certified %d, simplex-certified %d, \
     precheck %d, exact %d (escalations %d), uncertified %d\n"
    s.Nsep.decided s.Nsep.certified_cg s.Nsep.certified_simplex
    s.Nsep.certified_precheck s.Nsep.exact_solves s.Nsep.escalations
    s.Nsep.uncertified

(* Exit with [code], first honoring --cert-stats: print the counters
   and turn any uncertified verdict into the dedicated exit 6. *)
let finish ~cert_stats code =
  if cert_stats then begin
    report_cert_stats ();
    if (Nsep.stats ()).Nsep.uncertified > 0 then exit 6
  end;
  exit code

(* Run [f] through the runner under the optional budget, exiting 3/4
   on failure. Even without a budget the run goes through the runner:
   that is what routes solver-raised Invalid_argument to exit 4 and
   honors --isolate for unbudgeted calls. *)
let guarded runner budget f =
  let b = match budget with Some b -> b | None -> Budget.unlimited in
  match runner.Guard.run b f with
  | Ok v -> v
  | Error failure -> fail_with failure

let train_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRAIN" ~doc:"Training database file.")

(* --- subcommands ------------------------------------------------------ *)

let info_cmd =
  let run path =
    with_input @@ fun () ->
    let doc = Textfmt.parse_file path in
    let db = doc.Textfmt.db in
    Printf.printf "facts:     %d\n" (Db.size db);
    Printf.printf "domain:    %d\n" (Db.domain_size db);
    Printf.printf "entities:  %d (%d labeled)\n"
      (List.length (Db.entities db))
      (Labeling.cardinal doc.Textfmt.labeling);
    Printf.printf "max arity: %d\n" (Db.max_arity db);
    print_endline "relations:";
    List.iter
      (fun (r, ar) ->
        Printf.printf "  %s/%d: %d facts\n" r ar
          (List.length (Db.facts_of_rel r db)))
      (List.sort compare (Db.relations db))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a database file.")
    Term.(const run $ train_arg)

let sep_cmd =
  let run path lang dim eps timeout fuel no_degrade isolate grace retry
      retry_factor numeric exact_only cert_stats verbose =
    with_input @@ fun () ->
    setup_logs verbose;
    set_tier ~numeric ~exact_only;
    let t = read_training path in
    let budget = budget_of ~timeout ~fuel in
    let runner = runner_of ~isolate ~grace ~retry ~retry_factor in
    let describe =
      Printf.sprintf "%s%s%s" (Language.to_string lang)
        (match dim with Some d -> Printf.sprintf " dim<=%d" d | None -> "")
        (match eps with
        | Some e -> Printf.sprintf " eps=%s" (Rat.to_string e)
        | None -> "")
    in
    match (budget, dim, eps, (lang : Language.t)) with
    | Some _, None, None, (Language.Cq_all | Language.Epfo) ->
        (* The graceful-degradation ladder: exact CQ-Sep, then CQ[m]
           with decreasing m, then approximate separability with
           reported slack. *)
        let result =
          Cq_sep.decide_with_fallback ?budget ~degrade:(not no_degrade)
            ~runner t
        in
        begin
          match (result.Cq_sep.answer, result.Cq_sep.provenance) with
          | Some answer, Cq_sep.Exact ->
              Printf.printf "%s-separable: %b\n" describe answer;
              finish ~cert_stats (if answer then 0 else 1)
          | Some answer, provenance ->
              Printf.printf "%s-separable: %b (%s)\n" describe answer
                (Format.asprintf "%a" Cq_sep.pp_provenance provenance);
              finish ~cert_stats 2
          | None, Cq_sep.Gave_up failure -> fail_with failure
          | None, _ -> assert false
        end
    | _ ->
        let answer =
          guarded runner budget (fun () ->
              match eps with
              | None -> Cqfeat.separable ?dim lang t
              | Some eps -> Cqfeat.apx_separable ?dim ~eps lang t)
        in
        Printf.printf "%s-separable: %b\n" describe answer;
        finish ~cert_stats (if answer then 0 else 1)
  in
  Cmd.v
    (Cmd.info "sep"
       ~doc:"Decide separability of a labeled training database.")
    Term.(
      const run $ train_arg $ lang_arg $ dim_arg $ eps_arg $ timeout_arg
      $ fuel_arg $ no_degrade_arg $ isolate_arg $ grace_arg $ retry_arg
      $ retry_factor_arg $ numeric_arg $ exact_only_arg
      $ cert_stats_arg $ verbose_arg)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Also save the generated model to FILE (see the apply command).")

let generate_cmd =
  let run path lang depth dim timeout fuel isolate grace retry retry_factor
      numeric exact_only out =
    with_input @@ fun () ->
    set_tier ~numeric ~exact_only;
    let t = read_training path in
    let budget = budget_of ~timeout ~fuel in
    let runner = runner_of ~isolate ~grace ~retry ~retry_factor in
    match
      guarded runner budget (fun () ->
          Cqfeat.generate ~ghw_depth:depth ?dim lang t)
    with
    | None ->
        print_endline "not separable: no statistic exists";
        exit 1
    | Some (stat, classifier) ->
        (match out with
        | Some file -> Model_io.save file (Model_io.make stat classifier)
        | None -> ());
        Printf.printf "# statistic with %d features\n"
          (Statistic.dimension stat);
        List.iteri
          (fun i q -> Printf.printf "q%d: %s\n" (i + 1) (Cq.to_string q))
          stat;
        Printf.printf "# classifier: Lambda(b) = 1 iff sum w_i b_i >= w0\n";
        Printf.printf "w0: %s\n" (Rat.to_string classifier.Linsep.threshold);
        Array.iteri
          (fun i w -> Printf.printf "w%d: %s\n" (i + 1) (Rat.to_string w))
          classifier.Linsep.weights;
        Printf.printf "# training errors: %d\n"
          (Statistic.errors stat classifier t)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a separating statistic and linear classifier.")
    Term.(
      const run $ train_arg $ lang_arg $ depth_arg $ dim_arg $ timeout_arg
      $ fuel_arg $ isolate_arg $ grace_arg $ retry_arg $ retry_factor_arg
      $ numeric_arg $ exact_only_arg $ out_arg)

let apply_cmd =
  let model_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MODEL" ~doc:"Model file saved by generate --out.")
  in
  let db_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"DB" ~doc:"Database whose entities to label.")
  in
  let run model_path db_path =
    with_input @@ fun () ->
    let model = Model_io.load model_path in
    let db = read_db db_path in
    List.iter
      (fun (e, l) ->
        Printf.printf "%s%s\n"
          (match l with Labeling.Pos -> "+" | Labeling.Neg -> "-")
          (Elem.to_string e))
      (Labeling.bindings (Model_io.apply model db))
  in
  Cmd.v
    (Cmd.info "apply"
       ~doc:"Label a database with a previously saved model (no retraining).")
    Term.(const run $ model_arg $ db_arg)

let mindim_cmd =
  let max_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max" ] ~docv:"N" ~doc:"Search dimensions up to N.")
  in
  let run path lang max_dim timeout fuel isolate grace retry retry_factor =
    with_input @@ fun () ->
    let t = read_training path in
    let budget = budget_of ~timeout ~fuel in
    let runner = runner_of ~isolate ~grace ~retry ~retry_factor in
    match
      guarded runner budget (fun () -> Cqfeat.min_dimension ?max_dim lang t)
    with
    | Some d ->
        Printf.printf "minimum %s dimension: %d\n" (Language.to_string lang) d
    | None ->
        print_endline "not separable within the dimension bound";
        exit 1
  in
  Cmd.v
    (Cmd.info "mindim"
       ~doc:"Find the least statistic dimension that separates.")
    Term.(
      const run $ train_arg $ lang_arg $ max_arg $ timeout_arg $ fuel_arg
      $ isolate_arg $ grace_arg $ retry_arg $ retry_factor_arg)

let classify_cmd =
  let eval_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"EVAL" ~doc:"Evaluation database file.")
  in
  let run train_path eval_path lang dim eps timeout fuel isolate grace retry
      retry_factor numeric exact_only cert_stats verbose =
    with_input @@ fun () ->
    setup_logs verbose;
    set_tier ~numeric ~exact_only;
    let t = read_training train_path in
    let eval_db = read_db eval_path in
    let budget = budget_of ~timeout ~fuel in
    let runner = runner_of ~isolate ~grace ~retry ~retry_factor in
    let labeling =
      guarded runner budget (fun () ->
          match eps with
          | None -> Cqfeat.classify ?dim lang t eval_db
          | Some eps -> fst (Cqfeat.apx_classify ~eps lang t eval_db))
    in
    List.iter
      (fun (e, l) ->
        Printf.printf "%s%s\n"
          (match l with Labeling.Pos -> "+" | Labeling.Neg -> "-")
          (Elem.to_string e))
      (Labeling.bindings labeling);
    finish ~cert_stats 0
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Label the entities of an evaluation database consistently with \
          a separating statistic for the training database.")
    Term.(
      const run $ train_arg $ eval_arg $ lang_arg $ dim_arg $ eps_arg
      $ timeout_arg $ fuel_arg $ isolate_arg $ grace_arg $ retry_arg
      $ retry_factor_arg $ numeric_arg $ exact_only_arg $ cert_stats_arg
      $ verbose_arg)

let dot_cmd =
  let k_arg =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~docv:"K" ~doc:"Width bound of the cover game.")
  in
  let run path k =
    with_input @@ fun () ->
    let t = read_training path in
    let ch = Ghw_sep.chain ~k t in
    let labels =
      match Preorder_chain.consistent_labels ch t.Labeling.labeling with
      | Ok labels -> Some labels
      | Error _ -> None
    in
    print_string (Preorder_chain.to_dot ?labels ch)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Render the ->_k equivalence-class DAG of a training database \
          in Graphviz format (the structure behind Lemma 5.4 and \
          Algorithm 1).")
    Term.(const run $ train_arg $ k_arg)

let () =
  let doc =
    "separability, feature generation and classification with regularized \
     conjunctive features (PODS'19)"
  in
  let main =
    Cmd.group
      (Cmd.info "cqsep" ~version:"1.0.0" ~doc)
      [
        info_cmd;
        sep_cmd;
        generate_cmd;
        classify_cmd;
        mindim_cmd;
        apply_cmd;
        dot_cmd;
      ]
  in
  (* Cmdliner reports command-line parse errors as 124; fold them
     into the documented input-error code. Unexpected exceptions are
     internal bugs, not user errors: exit 5 with a pointer to
     CQSEP_DEBUG=1, which re-raises them so the runtime prints a full
     backtrace. *)
  let debug =
    match Sys.getenv_opt "CQSEP_DEBUG" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  let code =
    if debug then begin
      Printexc.record_backtrace true;
      Cmd.eval ~catch:false main
    end
    else
      try Cmd.eval ~catch:false main
      with e ->
        Printf.eprintf
          "cqsep: internal error: %s (set CQSEP_DEBUG=1 for a backtrace)\n"
          (Printexc.to_string e);
        5
  in
  exit (if code = 124 then 4 else code)
