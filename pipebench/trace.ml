type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let recorded = ref []
let stack = ref []
let next_id = ref 0
let closed = ref 0
let request = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  closed := 0;
  request := 0;
  Hashtbl.reset counters

let set_request r = request := r

let span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := List.tl !stack;
        closed := id;
        recorded := { id; parent; req = !request; name; start; stop } :: !recorded)
      f
  end

let last_closed () = !closed

let under parent f =
  let saved = !stack in
  stack := [ parent ];
  Fun.protect ~finally:(fun () -> stack := saved) f

let count name n =
  if !enabled then
    Hashtbl.replace counters name
      (n +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)
let spans () = List.rev !recorded

let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      Hashtbl.replace totals s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt totals s.name)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])

let unattributed_share ~wall self =
  (wall -. List.fold_left (fun acc (_, t) -> acc +. t) 0. self) /. wall

let median = function
  | [] -> invalid_arg "Trace.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let tail xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n < 11 then None
  else begin
    Array.sort Float.compare a;
    Some (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)
  end
