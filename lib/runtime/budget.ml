(* Resource budgets for the worst-case-intractable solvers.

   A budget combines a wall-clock deadline, a monotone fuel counter and
   optional recursion/size limits. Solvers consume fuel through the
   ambient [tick] installed by {!Guard.run}. The fast path is a single
   decrement-and-branch on a prepaid [credit] counter, so ticks can sit
   inside the hottest loops; fuel accounting and wall-clock reads are
   amortized into a replenish step that runs at most once per
   [clock_period] ticks. *)

type failure =
  | Timeout
  | Fuel_exhausted of string
  | Limit_exceeded of string
  | Solver_error of string

exception Exhausted of failure

(* --- the clock --------------------------------------------------------- *)

module Clock = struct
  let source : (unit -> float) option ref = ref None

  (* Deadlines must not trust the raw wall clock: an NTP step backwards
     would silently extend every installed budget. [now] never goes
     backwards within one source's lifetime. *)
  let last = ref neg_infinity

  let raw () = match !source with None -> Unix.gettimeofday () | Some f -> f ()

  let now () =
    let t = raw () in
    if t > !last then begin
      last := t;
      t
    end
    else !last

  let set_source s =
    source := s;
    (* A fresh source starts its own timeline: without this reset a fake
       clock starting below the real time would be clamped forever. *)
    last := neg_infinity

  (* Delays go through the same seam as time reads: retry backoff and
     breaker cool-downs must be testable without actually sleeping, and
     auditable by the determinism lint the same way [now] is. *)
  let sleeper : (float -> unit) option ref = ref None

  let sleep s =
    if s > 0.0 then
      match !sleeper with None -> Unix.sleepf s | Some f -> f s

  let set_sleeper f = sleeper := f
end

(* --- deterministic fault injection ------------------------------------- *)

(* Probabilities are compared against the low [chaos_bits] bits of a
   xorshift stream, so a run is reproducible from its integer seed
   alone — no [Random] state involved. *)
let chaos_bits = 20
let chaos_mask = (1 lsl chaos_bits) - 1

type chaos = {
  c_seed : int;
  c_threshold : int;  (* abort when (state land chaos_mask) < threshold *)
  mutable c_state : int;
}

let chaos_of ~seed ~rate =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Budget.make: chaos rate must be within [0, 1]";
  let state = (seed + 1) * 0x2545F4914F6CDD1 land max_int in
  {
    c_seed = seed;
    c_threshold = int_of_float (rate *. float_of_int (chaos_mask + 1));
    c_state = (if state = 0 then 0x2545F4914F6CDD1 else state);
  }

let chaos_step c what =
  let s = c.c_state in
  let s = s lxor (s lsl 13) land max_int in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) land max_int in
  let s = if s = 0 then 0x2545F4914F6CDD1 else s in
  c.c_state <- s;
  if s land chaos_mask < c.c_threshold then
    raise (Exhausted (Fuel_exhausted ("chaos injection at " ^ what)))

(* --- budgets ----------------------------------------------------------- *)

type t = {
  timeout : float option;  (* the relative timeout [make] was given *)
  deadline : float option;  (* absolute, Clock seconds *)
  initial_fuel : int;  (* max_int means unlimited *)
  mutable fuel : int;  (* remaining fuel not yet handed out as credit *)
  mutable credit : int;  (* prepaid ticks before the next replenish *)
  chaos : chaos option;
}

let clock_period = 1024

let unlimited =
  {
    timeout = None;
    deadline = None;
    initial_fuel = max_int;
    fuel = max_int;
    credit = clock_period;
    chaos = None;
  }

let make ?timeout ?fuel ?chaos () =
  (match timeout with
  | Some s when s < 0.0 -> invalid_arg "Budget.make: negative timeout"
  | _ -> ());
  (match fuel with
  | Some f when f < 1 -> invalid_arg "Budget.make: fuel must be >= 1"
  | _ -> ());
  let deadline = Option.map (fun s -> Clock.now () +. s) timeout in
  let initial_fuel = match fuel with Some f -> f | None -> max_int in
  {
    timeout;
    deadline;
    initial_fuel;
    fuel = initial_fuel;
    (* The first tick replenishes, which reads the clock, so an
       already-expired deadline is noticed immediately rather than
       [clock_period] ticks later. *)
    credit = 0;
    chaos = Option.map (fun (seed, rate) -> chaos_of ~seed ~rate) chaos;
  }

let refresh b = { b with fuel = b.initial_fuel; credit = 0 }

let escalate ?(factor = 4.0) ?(extend_deadline = false) b =
  if factor < 1.0 then invalid_arg "Budget.escalate: factor must be >= 1";
  let initial_fuel =
    if b.initial_fuel = max_int then max_int
    else
      let f = float_of_int b.initial_fuel *. factor in
      if f >= float_of_int max_int then max_int else int_of_float f
  in
  let timeout, deadline =
    match b.timeout with
    | Some s when extend_deadline ->
        let s = s *. factor in
        (Some s, Some (Clock.now () +. s))
    | _ -> (b.timeout, b.deadline)
  in
  { b with timeout; deadline; initial_fuel; fuel = initial_fuel; credit = 0 }

let is_unlimited b =
  b.deadline = None && b.initial_fuel = max_int && b.chaos == None

let remaining_fuel b =
  if b.initial_fuel = max_int then None else Some (b.fuel + b.credit)

let remaining_time b = Option.map (fun d -> d -. Clock.now ()) b.deadline

(* --- the ambient budget ------------------------------------------------ *)

let current = ref unlimited

let install b =
  let previous = !current in
  current := b;
  previous

let installed () = !current

(* Slow path, at most once per [clock_period] ticks: read the clock if
   there is a deadline, then prepay the next batch of ticks out of the
   remaining fuel. The last fuel unit is never prepaid — spending it
   must raise — so a budget with fuel [f] admits exactly [f - 1] ticks
   and raises on the [f]-th, as if fuel were decremented per tick. *)
let replenish b what =
  (* [>=], not [>]: a deadline of "now" (e.g. [~timeout:0.0]) must trip
     on the very first replenish even when the clock has not advanced
     since [make] read it. *)
  (match b.deadline with
  | Some d when Clock.now () >= d -> raise (Exhausted Timeout)
  | _ -> ());
  if b.fuel = max_int then b.credit <- clock_period - 1
  else if b.fuel <= 1 then begin
    b.fuel <- 0;
    raise (Exhausted (Fuel_exhausted what))
  end
  else begin
    let batch = if b.fuel - 1 < clock_period then b.fuel - 1 else clock_period in
    b.fuel <- b.fuel - batch;
    b.credit <- batch - 1 (* the current tick consumes one *)
  end

let tick ?(what = "solver") () =
  let b = !current in
  (match b.chaos with None -> () | Some c -> chaos_step c what);
  if b.credit > 0 then b.credit <- b.credit - 1 else replenish b what

let pp fmt b =
  if is_unlimited b then Format.pp_print_string fmt "unlimited"
  else begin
    let parts =
      List.filter_map Fun.id
        [
          Option.map (fun d -> Printf.sprintf "deadline in %.3fs"
                         (d -. Clock.now ())) b.deadline;
          (if b.initial_fuel = max_int then None
           else
             Some
               (Printf.sprintf "fuel %d/%d" (b.fuel + b.credit) b.initial_fuel));
          Option.map
            (fun c ->
              Printf.sprintf "chaos seed %d rate %.4f" c.c_seed
                (float_of_int c.c_threshold /. float_of_int (chaos_mask + 1)))
            b.chaos;
        ]
    in
    Format.pp_print_string fmt (String.concat ", " parts)
  end
