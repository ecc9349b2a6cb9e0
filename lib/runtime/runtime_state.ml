(* The abort-safety registry for top-level mutable solver state.

   Budgeted computations can be aborted at any tick (deadline, fuel,
   chaos injection), so a cache or memo table that lives at module top
   level must be resettable and self-checkable from one choke point —
   otherwise a chaos test has no way to prove an abort left it sound.
   cqlint rule R9 rejects a solver entry point that writes top-level
   mutable state that never registers here.

   Entries carry a [kind]: [`Cache] for state that is semantically
   transparent (resetting it costs recomputation, never correctness)
   and [`Config] for ambient configuration whose value IS the
   semantics (the numeric-tier selector, registered hook lists).
   {!reset_caches} — the fork-child hygiene hook — resets only the
   former: a freshly forked Isolate worker must drop inherited memo
   tables but keep the tier the operator selected. *)

type kind = [ `Cache | `Config ]

type entry = {
  name : string;
  kind : kind;
  reset : unit -> unit;
  validate : unit -> bool;
}

let registry : entry list ref = ref []

let register ~name ?(kind = `Cache) ?(validate = fun () -> true) reset =
  if List.exists (fun e -> String.equal e.name name) !registry then
    invalid_arg
      (Printf.sprintf "Runtime_state.register: duplicate name %S" name);
  registry := { name; kind; reset; validate } :: !registry

let names () =
  List.sort String.compare (List.map (fun e -> e.name) !registry)

let registered name = List.exists (fun e -> String.equal e.name name) !registry
let reset_all () = List.iter (fun e -> e.reset ()) !registry

let reset_caches () =
  List.iter (fun e -> if e.kind = `Cache then e.reset ()) !registry

let validate_all () =
  !registry
  |> List.filter_map (fun e -> if e.validate () then None else Some e.name)
  |> List.sort String.compare
