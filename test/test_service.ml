(* Service suite: the WAL-journaled job service and its crash-safety
   story.

   - codec/WAL unit tests, including a byte-level truncation sweep
     (every cut of a healthy log replays to the longest valid prefix);
   - admission queue, circuit breaker, and retry-backoff jitter;
   - Isolate reaping regression (100 failing workers, zero zombies)
     and the at-fork child hook;
   - crash-recovery chaos: a child process SIGKILLs *itself* at every
     stage crossing of every WAL append (>= 200 distinct seeded
     interruption points, mid-WAL-write and mid-job) and the parent
     proves recovery: acknowledged jobs survive, journaled results
     replay bit-identically, incomplete jobs re-run, nothing runs
     twice once completed;
   - fd-table discipline under [ulimit -n 40] (the probe re-execs this
     binary with --fd-probe);
   - live-daemon integration: cqserved + cqq protocol round trip,
     SIGKILL, restart, WAL preservation, drain. *)

open Test_util

(* --- fd probe (runs in a re-exec'd copy of this binary) -------------- *)

(* 200 iterations of deliberately failing opens/parses under a 40-fd
   ulimit: any leak on an error path exhausts the table long before
   the loop ends. *)
let fd_probe_main () =
  let write_file path contents =
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    path
  in
  let bad_text = write_file (Filename.temp_file "cqprobe" ".txt") "R(\n" in
  let bad_model = write_file (Filename.temp_file "cqprobe" ".model") "garbage\n" in
  let bad_wal =
    write_file
      (Filename.temp_file "cqprobe" ".wal")
      (Journal_codec.encode "ok" ^ "CQW1torn")
  in
  let ok = ref true in
  (try
     for _ = 1 to 200 do
       (try ignore (Textfmt.parse_file bad_text)
        with Textfmt.Parse_error _ -> ());
       (try ignore (Model_io.load bad_model)
        with Model_io.Parse_error _ -> ());
       let rep = Wal.replay bad_wal in
       if rep.Wal.damage = None then ok := false
     done
   with e ->
     Printf.eprintf "fd-probe: unexpected %s\n" (Printexc.to_string e);
     ok := false);
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ bad_text; bad_model; bad_wal ];
  if !ok then begin
    print_endline "fd-probe ok";
    exit 0
  end
  else exit 1

let () =
  if Array.exists (fun a -> a = "--fd-probe") Sys.argv then fd_probe_main ()

(* --- small helpers --------------------------------------------------- *)

let tmp_path suffix =
  let p = Filename.temp_file "cqservice" suffix in
  Sys.remove p;
  p

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_whole path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let selftest ?timeout ?fuel spin =
  { Job.kind = Job.Selftest { spin }; db_path = ""; timeout; fuel }

let cfg ?(pool = 2) ?(queue = 16) ?(threshold = 5) ?(cooldown = 30.0)
    ?(retries = 0) ?(backoff = 0.001) wal =
  {
    Service.wal_path = wal;
    pool_size = pool;
    queue_capacity = queue;
    default_timeout = None;
    breaker_threshold = threshold;
    breaker_cooldown = cooldown;
    retries;
    retry_backoff = backoff;
    grace = 1.0;
  }

(* Pump the service until idle, select-sleeping on the worker pipes. *)
let run_until_idle ?(timeout = 30.0) svc =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    ignore (Service.step svc);
    if Service.idle svc then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "service did not go idle in time"
    else begin
      (match Unix.select (Service.wait_fds svc) [] [] 0.01 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

let state_str svc id =
  match Service.status svc id with
  | None -> "<unknown>"
  | Some st -> Service.state_to_string st

let is_done svc id =
  match Service.status svc id with Some (Service.Done _) -> true | _ -> false

let submit_ok svc ?deadline spec =
  match Service.submit svc ?deadline spec with
  | Ok id -> id
  | Error r -> Alcotest.failf "unexpected reject: %s" (Jobq.reject_to_string r)

(* --- codec ----------------------------------------------------------- *)

let test_crc_check_value () =
  check int_c "crc32 check value" 0xCBF43926 (Model_io.crc32 "123456789")

let test_codec_roundtrip () =
  List.iter
    (fun payload ->
      let frame = Journal_codec.encode payload in
      match Journal_codec.decode frame ~pos:0 with
      | Ok (p, next) ->
          check string_c "payload" payload p;
          check int_c "next" (String.length frame) next
      | Error e -> Alcotest.failf "decode: %s" (Journal_codec.error_to_string e))
    [ ""; "x"; "hello world"; String.make 10000 '\xAB'; "with\nnewline\x00nul" ]

let test_codec_truncation_sweep () =
  let frame = Journal_codec.encode "truncate me please" in
  for cut = 0 to String.length frame - 1 do
    match Journal_codec.decode (String.sub frame 0 cut) ~pos:0 with
    | Error Journal_codec.Truncated -> ()
    | Error (Journal_codec.Corrupt w) ->
        Alcotest.failf "cut %d: corrupt (%s), wanted truncated" cut w
    | Ok _ -> Alcotest.failf "cut %d: decoded a truncated frame" cut
  done

let test_codec_corruption () =
  let frame = Journal_codec.encode "corrupt me" in
  (* flip one payload byte: checksum must catch it *)
  let b = Bytes.of_string frame in
  let i = Journal_codec.header_len + 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  (match Journal_codec.decode (Bytes.to_string b) ~pos:0 with
  | Error (Journal_codec.Corrupt _) -> ()
  | Error Journal_codec.Truncated -> Alcotest.fail "flip: truncated?"
  | Ok _ -> Alcotest.fail "flip: decoded corrupt payload");
  (* bad magic *)
  match Journal_codec.decode ("XXXX" ^ String.sub frame 4 (String.length frame - 4)) ~pos:0 with
  | Error (Journal_codec.Corrupt _) -> ()
  | _ -> Alcotest.fail "bad magic accepted"

(* --- wal -------------------------------------------------------------- *)

let test_wal_roundtrip () =
  let path = tmp_path ".wal" in
  let w = Wal.open_append path in
  let payloads = List.init 20 (fun i -> Printf.sprintf "payload-%d" i) in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  let rep = Wal.replay path in
  check bool_c "no damage" true (rep.Wal.damage = None);
  check (Alcotest.list string_c) "records" payloads
    (List.map fst rep.Wal.records);
  Sys.remove path

let test_wal_missing_file () =
  let rep = Wal.replay (tmp_path ".absent") in
  check int_c "no records" 0 (List.length rep.Wal.records);
  check bool_c "no damage" true (rep.Wal.damage = None)

let test_wal_torn_tail_repair () =
  let path = tmp_path ".wal" in
  let w = Wal.open_append path in
  Wal.append w "one";
  Wal.append w "two";
  Wal.close w;
  let healthy = read_whole path in
  (* tear: append half of a third frame *)
  let frame = Journal_codec.encode "three" in
  write_whole path (healthy ^ String.sub frame 0 (String.length frame / 2));
  let rep = Wal.replay path in
  check bool_c "damaged" true (rep.Wal.damage <> None);
  check (Alcotest.list string_c) "prefix survives" [ "one"; "two" ]
    (List.map fst rep.Wal.records);
  check bool_c "repair truncates" true (Wal.repair path rep);
  let rep2 = Wal.replay path in
  check bool_c "clean after repair" true (rep2.Wal.damage = None);
  (* appending after repair lands on clean framing *)
  let w2 = Wal.open_append path in
  Wal.append w2 "three";
  Wal.close w2;
  let rep3 = Wal.replay path in
  check (Alcotest.list string_c) "continues" [ "one"; "two"; "three" ]
    (List.map fst rep3.Wal.records);
  Sys.remove path

(* Every byte-level cut of a healthy log replays to the longest valid
   prefix of its records — never a crash, never a bogus record. *)
let test_wal_truncation_sweep () =
  let path = tmp_path ".wal" in
  let payloads = List.init 8 (fun i -> Printf.sprintf "r%d-%s" i (String.make i 'x')) in
  let w = Wal.open_append path in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  let healthy = read_whole path in
  let boundaries =
    let rep = Wal.replay path in
    List.map snd rep.Wal.records
  in
  for cut = 0 to String.length healthy do
    write_whole path (String.sub healthy 0 cut);
    let rep = Wal.replay path in
    let got = List.map fst rep.Wal.records in
    let expected_count =
      List.length (List.filter (fun b -> b <= cut) boundaries)
    in
    check int_c (Printf.sprintf "cut %d: record count" cut) expected_count
      (List.length got);
    List.iteri
      (fun i p ->
        check string_c (Printf.sprintf "cut %d: record %d" cut i)
          (List.nth payloads i) p)
      got;
    check bool_c
      (Printf.sprintf "cut %d: damage iff mid-frame" cut)
      (not (List.mem cut (0 :: boundaries)))
      (rep.Wal.damage <> None)
  done;
  Sys.remove path

(* --- jobq ------------------------------------------------------------- *)

let test_jobq_fifo () =
  let q = Jobq.create ~capacity:8 in
  List.iter
    (fun i ->
      match
        Jobq.admit q ~now:0.0 ~projected_wait:0.0
          ~id:(string_of_int i) ~deadline:None i
      with
      | Ok () -> ()
      | Error r -> Alcotest.failf "admit %d: %s" i (Jobq.reject_to_string r))
    [ 1; 2; 3 ];
  let pop () =
    match Jobq.pop_ready q ~now:0.0 with
    | Jobq.Ready e -> e.Jobq.e_payload
    | _ -> Alcotest.fail "expected a ready entry"
  in
  check int_c "fifo 1" 1 (pop ());
  check int_c "fifo 2" 2 (pop ());
  check int_c "fifo 3" 3 (pop ());
  check bool_c "empty" true (Jobq.pop_ready q ~now:0.0 = Jobq.Empty)

let test_jobq_rejects () =
  let q = Jobq.create ~capacity:2 in
  ignore (Jobq.admit q ~now:0.0 ~projected_wait:0.0 ~id:"a" ~deadline:None 1);
  ignore (Jobq.admit q ~now:0.0 ~projected_wait:0.0 ~id:"b" ~deadline:None 2);
  (match Jobq.admit q ~now:0.0 ~projected_wait:0.0 ~id:"c" ~deadline:None 3 with
  | Error (Jobq.Queue_full 2) -> ()
  | _ -> Alcotest.fail "expected Queue_full");
  (* deadline closer than the projected wait *)
  let q2 = Jobq.create ~capacity:2 in
  (match
     Jobq.admit q2 ~now:100.0 ~projected_wait:5.0 ~id:"d"
       ~deadline:(Some 102.0) 4
   with
  | Error (Jobq.Deadline_unmeetable { wait; slack }) ->
      check bool_c "wait" true (wait = 5.0);
      check bool_c "slack" true (slack = 2.0)
  | _ -> Alcotest.fail "expected Deadline_unmeetable");
  (* recovery enqueue ignores capacity *)
  let q3 = Jobq.create ~capacity:1 in
  Jobq.enqueue q3 ~id:"r1" ~deadline:None ~now:0.0 1;
  Jobq.enqueue q3 ~id:"r2" ~deadline:None ~now:0.0 2;
  check int_c "backlog kept" 2 (Jobq.length q3);
  (* reject codes are stable words *)
  check string_c "busy" "busy" (Jobq.reject_code (Jobq.Queue_full 1));
  check string_c "deadline" "deadline"
    (Jobq.reject_code (Jobq.Deadline_unmeetable { wait = 1.0; slack = 0.0 }));
  check string_c "breaker" "breaker"
    (Jobq.reject_code (Jobq.Breaker_open { job_class = "x"; retry_after = 1.0 }));
  check string_c "draining" "draining" (Jobq.reject_code Jobq.Draining);
  check string_c "invalid" "invalid" (Jobq.reject_code (Jobq.Invalid "x"))

let test_jobq_expired () =
  let q = Jobq.create ~capacity:4 in
  ignore
    (Jobq.admit q ~now:0.0 ~projected_wait:0.0 ~id:"late"
       ~deadline:(Some 1.0) 1);
  match Jobq.pop_ready q ~now:2.0 with
  | Jobq.Expired e -> check string_c "id" "late" e.Jobq.e_id
  | _ -> Alcotest.fail "expected Expired"

(* --- breaker ----------------------------------------------------------- *)

let test_breaker_machine () =
  let b = Breaker.create ~threshold:3 ~cooldown:10.0 () in
  check bool_c "closed allows" true (Breaker.allow b ~now:0.0);
  Breaker.failure b ~now:0.0;
  Breaker.failure b ~now:1.0;
  check bool_c "still closed" true (Breaker.allow b ~now:1.0);
  Breaker.failure b ~now:2.0;
  check bool_c "tripped" false (Breaker.allow b ~now:2.0);
  check bool_c "open state" true (Breaker.state b ~now:2.0 = Breaker.Open);
  check bool_c "retry_after > 0" true (Breaker.retry_after b ~now:2.0 > 0.0);
  (* cool-down elapses: exactly one probe *)
  check bool_c "probe allowed" true (Breaker.allow b ~now:13.0);
  check bool_c "second probe denied" false (Breaker.allow b ~now:13.0);
  (* probe fails: straight back to open *)
  Breaker.failure b ~now:13.5;
  check bool_c "re-opened" false (Breaker.allow b ~now:14.0);
  (* next probe succeeds: closed, counters reset *)
  check bool_c "probe again" true (Breaker.allow b ~now:24.0);
  Breaker.success b;
  check bool_c "closed again" true (Breaker.allow b ~now:24.5);
  Breaker.failure b ~now:25.0;
  Breaker.failure b ~now:25.1;
  check bool_c "fresh count" true (Breaker.allow b ~now:25.2)

(* --- retry backoff jitter ---------------------------------------------- *)

(* Capture the sleeps [Guard.retrying] performs through the Clock
   seam; no real waiting. *)
let with_recorded_sleeps f =
  let slept = ref [] in
  Budget.Clock.set_sleeper (Some (fun s -> slept := s :: !slept));
  Fun.protect
    ~finally:(fun () -> Budget.Clock.set_sleeper None)
    (fun () -> f ());
  List.rev !slept

let always_fuel_failing =
  {
    Guard.run =
      (fun _b _f -> Error (Guard.Fuel_exhausted "synthetic"));
  }

let test_backoff_schedule () =
  let sleeps =
    with_recorded_sleeps (fun () ->
        let r = Guard.retrying ~attempts:4 ~backoff:0.1 always_fuel_failing in
        match r.Guard.run Budget.unlimited (fun () -> ()) with
        | Error (Guard.Fuel_exhausted _) -> ()
        | _ -> Alcotest.fail "expected failure after retries")
  in
  (* unseeded: exact exponential schedule *)
  check int_c "three sleeps" 3 (List.length sleeps);
  List.iter2
    (fun expect got ->
      check bool_c (Printf.sprintf "delay %g" expect) true
        (Float.abs (expect -. got) < 1e-9))
    [ 0.1; 0.2; 0.4 ] sleeps

let test_backoff_jitter_bounded_deterministic () =
  let run seed =
    with_recorded_sleeps (fun () ->
        let r =
          Guard.retrying ~attempts:4 ~backoff:0.1 ~jitter_seed:seed
            always_fuel_failing
        in
        ignore (r.Guard.run Budget.unlimited (fun () -> ())))
  in
  let s1 = run 42 and s2 = run 42 and s3 = run 43 in
  check bool_c "deterministic per seed" true (s1 = s2);
  check bool_c "seeds decorrelate" true (s1 <> s3);
  List.iteri
    (fun i d ->
      let nominal = 0.1 *. (2.0 ** float_of_int i) in
      check bool_c
        (Printf.sprintf "jittered delay %d in [1/2, 1) of nominal" i)
        true
        (d >= (0.5 *. nominal) -. 1e-12 && d < nominal))
    s1

let test_no_retry_on_solver_error () =
  let calls = ref 0 in
  let failing =
    {
      Guard.run =
        (fun _b _f ->
          incr calls;
          Error (Guard.Solver_error "bad input"));
    }
  in
  let sleeps =
    with_recorded_sleeps (fun () ->
        let r = Guard.retrying ~attempts:5 ~backoff:0.1 failing in
        ignore (r.Guard.run Budget.unlimited (fun () -> ())))
  in
  check int_c "one attempt" 1 !calls;
  check int_c "no sleeps" 0 (List.length sleeps)

(* --- isolate: reaping and the fork hook -------------------------------- *)

(* 100 failing workers, then prove the process has no children left:
   waitpid(-1) must say ECHILD, not find a zombie. *)
let test_no_zombies_after_failures () =
  for i = 1 to 100 do
    match i mod 4 with
    | 0 -> begin
        (* worker raises *)
        match Isolate.run (fun () -> failwith "boom") with
        | Error (Guard.Solver_error _) -> ()
        | _ -> Alcotest.fail "expected solver error"
      end
    | 1 -> begin
        (* worker killed by deadline *)
        match
          Isolate.run ~timeout:0.005 ~grace:0.005 (fun () ->
              let rec spin () = spin (ignore (Sys.opaque_identity 1)) in
              spin ())
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "spin returned?"
      end
    | 2 -> begin
        (* worker exits abnormally *)
        match Isolate.run (fun () -> Unix._exit 7) with
        | Error (Guard.Solver_error _) -> ()
        | _ -> Alcotest.fail "expected exit-code error"
      end
    | _ -> begin
        (* normal completion, for contrast *)
        match Isolate.run (fun () -> 21 * 2) with
        | Ok 42 -> ()
        | _ -> Alcotest.fail "expected 42"
      end
  done;
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ ->
      (* a child exists but has not exited: still a leak *)
      Alcotest.fail "unreaped live child remains"
  | pid, _ -> Alcotest.failf "zombie child %d remained" pid

(* Regression: a burst of simultaneous worker finishes — successes
   and failures interleaved — must be fully reaped, and every slot
   reclaimed, by the single [poll] that observes it. A partial sweep
   here used to wedge pool slots until unrelated traffic polled
   again. *)
let test_supervisor_burst_reap () =
  let sup = Supervisor.create ~pool_size:8 () in
  let now = Budget.Clock.now () in
  for i = 1 to 8 do
    (* odd jobs are fuel-starved so the burst mixes outcomes *)
    let spec =
      if i mod 2 = 0 then selftest 10 else selftest ~fuel:5 300_000
    in
    Supervisor.start sup ~now ~id:(Printf.sprintf "burst-%d" i)
      ~deadline:None spec
  done;
  check bool_c "pool saturated" false (Supervisor.has_capacity sup);
  (* wait until every worker's result pipe is readable: all eight are
     finished before the one poll below *)
  let deadline = Budget.Clock.now () +. 10.0 in
  let rec wait () =
    let fds = Supervisor.fds sup in
    let ready, _, _ = Unix.select fds [] [] 0.05 in
    if List.length ready < List.length fds && Budget.Clock.now () < deadline
    then wait ()
  in
  wait ();
  let finished = Supervisor.poll sup ~now:(Budget.Clock.now ()) in
  check int_c "one poll reaps the whole burst" 8 (List.length finished);
  check int_c "all slots reclaimed" 0 (Supervisor.running_count sup);
  check bool_c "capacity restored" true (Supervisor.has_capacity sup);
  List.iter
    (fun f ->
      let starved =
        int_of_string
          (String.sub f.Supervisor.f_id 6 (String.length f.Supervisor.f_id - 6))
        mod 2
        = 1
      in
      match (f.Supervisor.f_outcome, starved) with
      | Ok _, false | Error (Guard.Fuel_exhausted _), true -> ()
      | outcome, _ ->
          Alcotest.failf "%s: unexpected outcome %s" f.Supervisor.f_id
            (match outcome with
            | Ok s -> "Ok " ^ s
            | Error e -> Guard.failure_to_string e))
    finished;
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _ -> Alcotest.fail "burst left a child behind");
  Supervisor.abort_all sup

let test_at_fork_child_hook () =
  let r, w = Unix.pipe () in
  Isolate.at_fork_child (fun () ->
      ignore (Unix.write w (Bytes.of_string "H") 0 1));
  Fun.protect
    ~finally:(fun () ->
      Runtime_state.reset_all ();
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      (match Isolate.run (fun () -> ()) with
      | Ok () -> ()
      | Error f -> Alcotest.failf "worker: %s" (Guard.failure_to_string f));
      match Unix.select [ r ] [] [] 2.0 with
      | [], _, _ -> Alcotest.fail "hook did not run in the child"
      | _ ->
          let b = Bytes.create 1 in
          check int_c "hook byte" 1 (Unix.read r b 0 1);
          check string_c "hook payload" "H" (Bytes.to_string b))

let test_spawn_poll_multiplex () =
  let workers = List.init 5 (fun i -> (i, Isolate.spawn (fun () -> i * i))) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec drain pending =
    if pending = [] then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "workers did not finish"
    else begin
      let fds = List.filter_map (fun (_, w) -> Isolate.poll_fd w) pending in
      (match Unix.select fds [] [] 0.05 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let still =
        List.filter
          (fun (i, w) ->
            match Isolate.poll w with
            | None -> true
            | Some (Ok v) ->
                check int_c (Printf.sprintf "worker %d" i) (i * i) v;
                false
            | Some (Error f) ->
                Alcotest.failf "worker %d: %s" i (Guard.failure_to_string f))
          pending
      in
      drain still
    end
  in
  drain workers;
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _ -> Alcotest.fail "spawn/poll leaked a child"

(* --- wire codec -------------------------------------------------------- *)

let test_wire_roundtrip () =
  let specs =
    [
      selftest 500;
      { Job.kind = Job.Sep { lang = "cq"; dim = Some 2 };
        db_path = "/tmp/with space/db.txt"; timeout = Some 1.5; fuel = Some 100 };
      { Job.kind = Job.Ladder; db_path = "/tmp/db%25.txt"; timeout = None;
        fuel = None };
      { Job.kind = Job.Generate { lang = "cq[2]"; ghw_depth = 3; dim = None };
        db_path = "/x"; timeout = None; fuel = Some 7 };
    ]
  in
  List.iter
    (fun spec ->
      let wire = Job.spec_to_wire spec in
      match Job.spec_of_wire wire with
      | Ok spec' ->
          check bool_c (Printf.sprintf "roundtrip %s" wire) true (spec = spec')
      | Error msg -> Alcotest.failf "decode %s: %s" wire msg)
    specs

let test_wire_rejects () =
  let bad =
    [
      "kind=sep db=/x";  (* missing lang *)
      "kind=sep lang=nosuchlang db=/x";
      "kind=sep lang=cq";  (* missing db *)
      "kind=frobnicate";
      "kind=selftest spin=-1";
      "kind=selftest spin=10 bogus=1";
      "kind=sep lang=cq dim=0 db=/x";
      "kind=selftest spin=10 timeout=-1";
      "notafield";
    ]
  in
  List.iter
    (fun line ->
      match Job.spec_of_wire line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    bad

(* --- service lifecycle ------------------------------------------------- *)

let test_service_lifecycle () =
  let wal = tmp_path ".wal" in
  let svc = Service.start (cfg wal) in
  let ids = List.init 5 (fun _ -> submit_ok svc (selftest 1000)) in
  check int_c "all distinct ids" 5
    (List.length (List.sort_uniq compare ids));
  run_until_idle svc;
  List.iter
    (fun id -> check bool_c (Printf.sprintf "%s done" id) true (is_done svc id))
    ids;
  let s = Service.stats svc in
  check int_c "done count" 5 s.Service.done_;
  check int_c "failed count" 0 s.Service.failed;
  Service.close svc;
  Sys.remove wal

let test_service_rejects () =
  let wal = tmp_path ".wal" in
  let svc = Service.start (cfg ~queue:2 wal) in
  (* invalid spec *)
  (match Service.submit svc { Job.kind = Job.Sep { lang = "zzz"; dim = None };
                              db_path = "/x"; timeout = None; fuel = None } with
  | Error (Jobq.Invalid _) -> ()
  | _ -> Alcotest.fail "expected Invalid");
  (* past deadline, while the queue is still empty *)
  (match
     Service.submit svc ~deadline:(Budget.Clock.now () -. 1.0) (selftest 10)
   with
  | Error (Jobq.Deadline_unmeetable _) -> ()
  | _ -> Alcotest.fail "expected Deadline_unmeetable");
  (* queue full: capacity 2, nothing dispatched before step *)
  ignore (submit_ok svc (selftest 10));
  ignore (submit_ok svc (selftest 10));
  (match Service.submit svc (selftest 10) with
  | Error (Jobq.Queue_full _) -> ()
  | _ -> Alcotest.fail "expected Queue_full");
  run_until_idle svc;
  (* draining *)
  Service.drain svc;
  (match Service.submit svc (selftest 10) with
  | Error Jobq.Draining -> ()
  | _ -> Alcotest.fail "expected Draining");
  Service.close svc;
  Sys.remove wal

let test_service_deadline_shed_at_dispatch () =
  let wal = tmp_path ".wal" in
  let svc = Service.start (cfg ~pool:1 wal) in
  (* a slow job holds the single worker... *)
  let slow = submit_ok svc (selftest 20_000_000) in
  (* ...and a short-deadline job queues behind it *)
  let late =
    submit_ok svc ~deadline:(Budget.Clock.now () +. 0.02) (selftest 10)
  in
  run_until_idle svc;
  check bool_c "slow done" true (is_done svc slow);
  (match Service.status svc late with
  | Some (Service.Shed code) -> check string_c "shed code" "deadline" code
  | other ->
      Alcotest.failf "late job: %s"
        (match other with
        | Some st -> Service.state_to_string st
        | None -> "<unknown>"));
  let s = Service.stats svc in
  check int_c "shed count" 1 s.Service.shed;
  Service.close svc;
  Sys.remove wal

let test_service_failure_and_breaker () =
  let wal = tmp_path ".wal" in
  let svc = Service.start (cfg ~pool:1 ~threshold:2 ~cooldown:60.0 wal) in
  (* two fuel-starved jobs: resource failures that trip the breaker *)
  let f1 = submit_ok svc (selftest ~fuel:10 300_000) in
  run_until_idle svc;
  let f2 = submit_ok svc (selftest ~fuel:10 300_000) in
  run_until_idle svc;
  List.iter
    (fun id ->
      match Service.status svc id with
      | Some (Service.Failed _) -> ()
      | st ->
          Alcotest.failf "expected failure, got %s"
            (match st with
            | Some s -> Service.state_to_string s
            | None -> "<unknown>"))
    [ f1; f2 ];
  (* breaker now open for the selftest class *)
  (match Service.submit svc (selftest 10) with
  | Error (Jobq.Breaker_open { job_class; retry_after }) ->
      check string_c "class" "selftest" job_class;
      check bool_c "retry_after > 0" true (retry_after > 0.0)
  | Ok _ -> Alcotest.fail "breaker did not trip"
  | Error r -> Alcotest.failf "wrong reject: %s" (Jobq.reject_to_string r));
  Service.close svc;
  Sys.remove wal

let test_service_in_worker_retry () =
  let wal = tmp_path ".wal" in
  let svc = Service.start (cfg ~retries:3 ~backoff:0.0005 wal) in
  (* first attempt is fuel-starved; escalation (x4 per retry) clears it *)
  let id = submit_ok svc (selftest ~fuel:40_000 100_000) in
  run_until_idle svc;
  check bool_c "retried to done" true (is_done svc id);
  Service.close svc;
  Sys.remove wal

let test_service_recovery_preserves_results () =
  let wal = tmp_path ".wal" in
  let svc = Service.start (cfg wal) in
  let ids = List.init 3 (fun _ -> submit_ok svc (selftest 1000)) in
  run_until_idle svc;
  let summaries = List.map (fun id -> (id, state_str svc id)) ids in
  Service.close svc;
  (* restart: completed jobs replay, nothing requeued, nothing re-run *)
  let svc2 = Service.start (cfg wal) in
  let r = Service.recovery svc2 in
  check int_c "recovered completed" 3 r.Service.recovered_completed;
  check int_c "requeued" 0 r.Service.requeued;
  check int_c "dropped bytes" 0 r.Service.dropped_bytes;
  List.iter
    (fun (id, summary) ->
      check string_c (Printf.sprintf "%s stable" id) summary
        (state_str svc2 id))
    summaries;
  (* ids keep incrementing past recovered ones *)
  let id4 = submit_ok svc2 (selftest 1000) in
  check bool_c "fresh id" true (not (List.mem id4 ids));
  run_until_idle svc2;
  Service.close svc2;
  let svc3 = Service.start (cfg wal) in
  check int_c "all four" 4 (Service.recovery svc3).Service.recovered_completed;
  Service.close svc3;
  Sys.remove wal

let test_service_recovery_requeues_incomplete () =
  let wal = tmp_path ".wal" in
  let svc = Service.start (cfg ~pool:1 wal) in
  let slow = submit_ok svc (selftest 50_000_000) in
  let q1 = submit_ok svc (selftest 100) in
  let q2 = submit_ok svc (selftest 100) in
  ignore (Service.step svc);
  (* the slow job is running (journaled as started), two queued; close
     kills the worker without completing anything *)
  Service.close svc;
  let svc2 = Service.start (cfg wal) in
  let r = Service.recovery svc2 in
  check int_c "requeued all three" 3 r.Service.requeued;
  check int_c "none completed" 0 r.Service.recovered_completed;
  run_until_idle svc2;
  List.iter
    (fun id -> check bool_c (Printf.sprintf "%s done" id) true (is_done svc2 id))
    [ slow; q1; q2 ];
  Service.close svc2;
  Sys.remove wal

(* --- crash chaos ------------------------------------------------------- *)

(* Read everything from [fd] until EOF. *)
let slurp_fd fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let install_self_kill ~at =
  let crossings = ref 0 in
  Wal.set_crash_hook
    (Some
       (fun _stage ->
         incr crossings;
         if !crossings = at then Unix.kill (Unix.getpid ()) Sys.sigkill))

(* The child workload: start a service on [wal], submit [njobs]
   selftests, pump to idle, reporting acknowledged submissions
   ("S <id>") and journaled terminal states ("T <id> <state>") over
   the pipe. The crash hook SIGKILLs the process at the [kill_at]-th
   WAL stage crossing — mid-frame, pre-frame, or post-fsync, and with
   workers mid-job, depending on where it lands. *)
let chaos_child ~wal ~njobs ~kill_at ~report_fd =
  install_self_kill ~at:kill_at;
  let say line =
    let b = Bytes.of_string (line ^ "\n") in
    ignore (Unix.write report_fd b 0 (Bytes.length b))
  in
  let svc = Service.start (cfg ~pool:4 ~queue:64 wal) in
  let ids = List.init njobs (fun _ -> submit_ok svc (selftest 200)) in
  List.iter (fun id -> say ("S " ^ id)) ids;
  let reported = Hashtbl.create 16 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec pump () =
    ignore (Service.step svc);
    List.iter
      (fun id ->
        if not (Hashtbl.mem reported id) then
          match Service.status svc id with
          | Some (Service.Done _ | Service.Failed _ | Service.Shed _) ->
              Hashtbl.add reported id ();
              say (Printf.sprintf "T %s %s" id (state_str svc id))
          | _ -> ())
      ids;
    if (not (Service.idle svc)) && Unix.gettimeofday () < deadline then begin
      (match Unix.select (Service.wait_fds svc) [] [] 0.005 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      pump ()
    end
  in
  pump ();
  Service.close svc;
  say "CLEAN"

let parse_reports output =
  List.fold_left
    (fun (subs, terms, clean) line ->
      if line = "CLEAN" then (subs, terms, true)
      else if String.length line > 2 && String.sub line 0 2 = "S " then
        (String.sub line 2 (String.length line - 2) :: subs, terms, clean)
      else if String.length line > 2 && String.sub line 0 2 = "T " then begin
        let rest = String.sub line 2 (String.length line - 2) in
        match String.index_opt rest ' ' with
        | Some i ->
            ( subs,
              ( String.sub rest 0 i,
                String.sub rest (i + 1) (String.length rest - i - 1) )
              :: terms,
              clean )
        | None -> (subs, terms, clean)
      end
      else (subs, terms, clean))
    ([], [], false)
    (String.split_on_char '\n' output)

(* One seeded interruption point: run the child, let it die (or
   finish), then prove recovery from whatever the WAL holds. *)
let chaos_iteration ~njobs ~kill_at =
  let wal = tmp_path ".wal" in
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      (match chaos_child ~wal ~njobs ~kill_at ~report_fd:w with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 9);
  | pid ->
      Unix.close w;
      let output = slurp_fd r in
      Unix.close r;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 | Unix.WSIGNALED _ -> ()
      | Unix.WEXITED c ->
          Alcotest.failf "chaos child (kill_at %d) exited %d" kill_at c
      | Unix.WSTOPPED _ -> Alcotest.failf "chaos child stopped");
      let submitted, terminal, clean = parse_reports output in
      (* recover in-process *)
      let svc = Service.start (cfg ~pool:4 ~queue:64 wal) in
      (* 1. every acknowledged submission survived the crash *)
      List.iter
        (fun id ->
          if Service.status svc id = None then
            Alcotest.failf "kill_at %d: acked job %s lost" kill_at id)
        submitted;
      (* 2. journaled terminal states replay bit-identically *)
      List.iter
        (fun (id, st) ->
          let got = state_str svc id in
          if got <> st then
            Alcotest.failf "kill_at %d: %s changed %S -> %S" kill_at id st got)
        terminal;
      (* 3. the backlog finishes: every known job terminal *)
      run_until_idle svc;
      List.iter
        (fun id ->
          match Service.status svc id with
          | Some (Service.Done _ | Service.Failed _ | Service.Shed _) -> ()
          | _ -> Alcotest.failf "kill_at %d: %s not terminal" kill_at id)
        submitted;
      let final =
        List.map (fun id -> (id, state_str svc id)) (Service.job_ids svc)
      in
      Service.close svc;
      (* 4. a second, crash-free replay is a fixpoint: nothing requeued,
         every state identical *)
      let svc2 = Service.start (cfg ~pool:4 ~queue:64 wal) in
      check int_c
        (Printf.sprintf "kill_at %d: fixpoint requeue" kill_at)
        0
        (Service.recovery svc2).Service.requeued;
      List.iter
        (fun (id, st) ->
          check string_c
            (Printf.sprintf "kill_at %d: %s fixpoint" kill_at id)
            st (state_str svc2 id))
        final;
      Service.close svc2;
      Sys.remove wal;
      clean

(* Sweep the WAL-append machinery alone (cheap, no workers): a child
   appends 30 records, dying at the [kill_at]-th stage crossing; the
   prefix property must hold at every point. *)
let wal_chaos_iteration ~kill_at =
  let path = tmp_path ".wal" in
  let payloads = List.init 30 (fun i -> Printf.sprintf "rec-%02d" i) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      install_self_kill ~at:kill_at;
      (match
         let w = Wal.open_append path in
         List.iter (Wal.append w) payloads;
         Wal.close w
       with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 9)
  | pid ->
      let _, status = Unix.waitpid [] pid in
      let survived = status = Unix.WEXITED 0 in
      let rep = Wal.replay path in
      let got = List.map fst rep.Wal.records in
      let n = List.length got in
      if n > List.length payloads then
        Alcotest.failf "kill_at %d: too many records" kill_at;
      List.iteri
        (fun i p ->
          check string_c (Printf.sprintf "kill_at %d: record %d" kill_at i)
            (List.nth payloads i) p)
        got;
      if survived && (n <> List.length payloads || rep.Wal.damage <> None)
      then Alcotest.failf "kill_at %d: clean run lost records" kill_at;
      (* repair + append always possible afterwards *)
      ignore (Wal.repair path rep);
      let w = Wal.open_append path in
      Wal.append w "post-crash";
      Wal.close w;
      let rep2 = Wal.replay path in
      check bool_c
        (Printf.sprintf "kill_at %d: post-repair clean" kill_at)
        true
        (rep2.Wal.damage = None);
      check string_c
        (Printf.sprintf "kill_at %d: post-repair append" kill_at)
        "post-crash"
        (fst (List.nth rep2.Wal.records n));
      Sys.remove path;
      survived

let test_wal_crash_sweep () =
  (* 30 appends x 3 stages = 90 interruption points, then one clean
     run to prove the sweep covered the whole schedule. *)
  let rec sweep kill_at =
    if wal_chaos_iteration ~kill_at then kill_at - 1
    else if kill_at > 500 then Alcotest.fail "wal sweep did not terminate"
    else sweep (kill_at + 1)
  in
  let covered = sweep 1 in
  check bool_c
    (Printf.sprintf "wal sweep covered %d points (>= 90)" covered)
    true (covered >= 90)

let test_service_crash_sweep () =
  (* 13 jobs x 3 events x 3 stages = 117 interruption points; together
     with the 90 WAL-level points this exceeds the 200-point floor. *)
  let njobs = 13 in
  let rec sweep kill_at =
    if chaos_iteration ~njobs ~kill_at then kill_at - 1
    else if kill_at > 1000 then
      Alcotest.fail "service sweep did not terminate"
    else sweep (kill_at + 1)
  in
  let covered = sweep 1 in
  check bool_c
    (Printf.sprintf "service sweep covered %d points (>= 117)" covered)
    true
    (covered >= 117)

(* --- fd exhaustion ------------------------------------------------------ *)

let test_fd_discipline_under_ulimit () =
  let cmd =
    Printf.sprintf "ulimit -n 40; exec %s --fd-probe"
      (Filename.quote Sys.executable_name)
  in
  let ic = Unix.open_process_in (Printf.sprintf "/bin/sh -c %s" (Filename.quote cmd)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      check bool_c "probe reported ok" true
        (String.length out >= 11 && String.sub out 0 11 = "fd-probe ok")
  | Unix.WEXITED c -> Alcotest.failf "fd probe exited %d: %s" c out
  | _ -> Alcotest.fail "fd probe killed"

(* --- live daemon integration ------------------------------------------- *)

(* Unix-socket paths are length-capped, so these live in /tmp, not in
   dune's (deep) sandbox directory. *)
let sock_path tag = Printf.sprintf "/tmp/cqserved-%d-%s.sock" (Unix.getpid ()) tag

let daemon_request sock line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | exception Unix.Unix_error _ -> None
      | () ->
          let payload = Bytes.of_string (line ^ "\n") in
          let rec send off =
            if off < Bytes.length payload then
              match Unix.write fd payload off (Bytes.length payload - off) with
              | n -> send (off + n)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
          in
          (match send 0 with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          let buf = Buffer.create 128 in
          let chunk = Bytes.create 256 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec recv () =
            if Unix.gettimeofday () > deadline then None
            else
              match Unix.select [ fd ] [] [] 0.25 with
              | [], _, _ -> recv ()
              | _ -> begin
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> Some (Buffer.contents buf)
                  | n -> begin
                      match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
                      | Some i ->
                          Buffer.add_subbytes buf chunk 0 i;
                          Some (Buffer.contents buf)
                      | None ->
                          Buffer.add_subbytes buf chunk 0 n;
                          recv ()
                    end
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
                  | exception Unix.Unix_error _ -> None
                end
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
          in
          recv ())

let daemon_exe = "../bin/cqserved.exe"
let cqq_exe = "../bin/cqq.exe"

let start_daemon ~sock ~wal ~pool =
  let pid =
    Unix.create_process daemon_exe
      [| "cqserved"; "-s"; sock; "-w"; wal; "--pool"; string_of_int pool |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* wait until it answers *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_up () =
    match daemon_request sock "PING" with
    | Some "OK pong" -> ()
    | _ when Unix.gettimeofday () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        Alcotest.fail "daemon did not come up"
    | _ ->
        Unix.sleepf 0.05;
        wait_up ()
  in
  wait_up ();
  pid

let wait_pid_exit ?(timeout = 15.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          Alcotest.fail "daemon did not exit in time"
        end
        else begin
          Unix.sleepf 0.05;
          go ()
        end
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let require reply =
  match reply with
  | Some r -> r
  | None -> Alcotest.fail "daemon unreachable"

let poll_status sock id =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let r = require (daemon_request sock ("STATUS " ^ id)) in
    let terminal prefix =
      let p = "OK " ^ prefix in
      String.length r >= String.length p
      && String.sub r 0 (String.length p) = p
    in
    if terminal "done:" || terminal "failed:" || terminal "shed:" then r
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "job %s stuck at %s" id r
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let test_daemon_roundtrip_and_crash_recovery () =
  let sock = sock_path "rt" in
  let wal = tmp_path ".wal" in
  let cleanup pid =
    (match pid with
    | Some p -> ( try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
    | None -> ());
    (try Sys.remove sock with Sys_error _ -> ());
    try Sys.remove wal with Sys_error _ -> ()
  in
  let daemon = ref None in
  Fun.protect
    ~finally:(fun () -> cleanup !daemon)
    (fun () ->
      let pid = start_daemon ~sock ~wal ~pool:1 in
      daemon := Some pid;
      (* protocol round trip *)
      check string_c "ping" "OK pong" (require (daemon_request sock "PING"));
      let reply =
        require (daemon_request sock "SUBMIT kind=selftest spin=500")
      in
      let id =
        match String.index_opt reply ' ' with
        | Some i when String.sub reply 0 i = "OK" ->
            String.sub reply (i + 1) (String.length reply - i - 1)
        | _ -> Alcotest.failf "submit: %s" reply
      in
      let st = poll_status sock id in
      check bool_c "selftest done" true
        (String.length st >= 8 && String.sub st 0 8 = "OK done:");
      (* garbage handled *)
      let err = require (daemon_request sock "FROBNICATE") in
      check bool_c "unknown command" true
        (String.length err >= 3 && String.sub err 0 3 = "ERR");
      (* now park a slow job + a queued one, and SIGKILL the daemon *)
      let slow =
        match
          String.split_on_char ' '
            (require (daemon_request sock "SUBMIT kind=selftest spin=200000000"))
        with
        | [ "OK"; id ] -> id
        | other -> Alcotest.failf "submit slow: %s" (String.concat " " other)
      in
      let queued =
        match
          String.split_on_char ' '
            (require (daemon_request sock "SUBMIT kind=selftest spin=600"))
        with
        | [ "OK"; id ] -> id
        | other -> Alcotest.failf "submit queued: %s" (String.concat " " other)
      in
      Unix.kill pid Sys.sigkill;
      ignore (wait_pid_exit pid);
      daemon := None;
      (* restart on the same WAL and socket: the stale socket (and any
         orphaned worker holding it) must not block the restart *)
      let pid2 = start_daemon ~sock ~wal ~pool:2 in
      daemon := Some pid2;
      (* the completed job survived; the interrupted ones re-run *)
      let st1 = require (daemon_request sock ("STATUS " ^ id)) in
      check bool_c "completed job preserved" true
        (String.length st1 >= 8 && String.sub st1 0 8 = "OK done:");
      ignore (poll_status sock slow);
      ignore (poll_status sock queued);
      (* drain: daemon finishes and exits 0 *)
      check string_c "drain ack" "OK draining"
        (require (daemon_request sock "DRAIN"));
      (match wait_pid_exit pid2 with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "drained daemon exited %d" c
      | _ -> Alcotest.fail "drained daemon killed");
      daemon := None;
      (* the cqq client binary end-to-end *)
      let pid3 = start_daemon ~sock ~wal ~pool:1 in
      daemon := Some pid3;
      let cqq_line =
        Printf.sprintf "%s submit -s %s --kind selftest --spin 400 --wait"
          (Filename.quote cqq_exe) (Filename.quote sock)
      in
      let ic = Unix.open_process_in cqq_line in
      let out = In_channel.input_all ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 ->
          check bool_c "cqq saw completion" true
            (String.length out >= 5 && String.sub out 0 5 = "done:")
      | Unix.WEXITED c -> Alcotest.failf "cqq exited %d: %s" c out
      | _ -> Alcotest.fail "cqq killed");
      ignore (require (daemon_request sock "DRAIN"));
      ignore (wait_pid_exit pid3);
      daemon := None)

(* --- suite ------------------------------------------------------------- *)

let () =
  Alcotest.run "service"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 check value" `Quick test_crc_check_value;
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "truncation sweep" `Quick
            test_codec_truncation_sweep;
          Alcotest.test_case "corruption" `Quick test_codec_corruption;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "missing file" `Quick test_wal_missing_file;
          Alcotest.test_case "torn tail repair" `Quick
            test_wal_torn_tail_repair;
          Alcotest.test_case "byte truncation sweep" `Quick
            test_wal_truncation_sweep;
        ] );
      ( "jobq",
        [
          Alcotest.test_case "fifo" `Quick test_jobq_fifo;
          Alcotest.test_case "rejects" `Quick test_jobq_rejects;
          Alcotest.test_case "expired at dispatch" `Quick test_jobq_expired;
        ] );
      ( "breaker",
        [ Alcotest.test_case "state machine" `Quick test_breaker_machine ] );
      ( "backoff",
        [
          Alcotest.test_case "exponential schedule" `Quick
            test_backoff_schedule;
          Alcotest.test_case "bounded deterministic jitter" `Quick
            test_backoff_jitter_bounded_deterministic;
          Alcotest.test_case "no retry on solver error" `Quick
            test_no_retry_on_solver_error;
        ] );
      ( "isolate",
        [
          Alcotest.test_case "no zombies after 100 failures" `Quick
            test_no_zombies_after_failures;
          Alcotest.test_case "supervisor reaps a death burst in one poll"
            `Quick test_supervisor_burst_reap;
          Alcotest.test_case "at-fork child hook" `Quick
            test_at_fork_child_hook;
          Alcotest.test_case "spawn/poll multiplex" `Quick
            test_spawn_poll_multiplex;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects" `Quick test_wire_rejects;
        ] );
      ( "service",
        [
          Alcotest.test_case "lifecycle" `Quick test_service_lifecycle;
          Alcotest.test_case "structured rejects" `Quick test_service_rejects;
          Alcotest.test_case "deadline shed at dispatch" `Quick
            test_service_deadline_shed_at_dispatch;
          Alcotest.test_case "failures trip the breaker" `Quick
            test_service_failure_and_breaker;
          Alcotest.test_case "in-worker retry" `Quick
            test_service_in_worker_retry;
          Alcotest.test_case "recovery preserves results" `Quick
            test_service_recovery_preserves_results;
          Alcotest.test_case "recovery requeues incomplete" `Quick
            test_service_recovery_requeues_incomplete;
        ] );
      ( "crash",
        [
          Alcotest.test_case "wal sweep (90 kill points)" `Slow
            test_wal_crash_sweep;
          Alcotest.test_case "service sweep (117 kill points)" `Slow
            test_service_crash_sweep;
        ] );
      ( "fds",
        [
          Alcotest.test_case "no leaks under ulimit -n 40" `Quick
            test_fd_discipline_under_ulimit;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "roundtrip, SIGKILL, recovery, drain" `Slow
            test_daemon_roundtrip_and_crash_recovery;
        ] );
    ]
