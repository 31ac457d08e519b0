module Database = Xqdb_core.Database
module Engine_config = Xqdb_core.Engine_config
module Storage = Xqdb_storage
module Metrics = Xqdb_storage.Metrics
module Wal = Xqdb_storage.Wal
module Disk = Xqdb_storage.Disk

(* The chaos harness: {!Traffic} legs re-run under seeded faults, with
   the fault-free leg as their own oracle.

   Both traffic legs replay the *same* seeded per-session schedules — a
   mix of well-formed requests, v1 frames, already-expired deadlines and
   hostile byte strings — through the server's real connection loop.
   The baseline leg runs them fault-free; the chaos leg re-runs them with
   a seeded Fault_disk injector armed.  Deliberate abuse therefore
   produces identical typed outcomes in both legs, which is what lets the
   transient profile assert the strongest property: the chaos leg's
   outcome counts must equal the baseline's — transient faults are
   invisible to clients, absorbed entirely by the storage retry.

   The third leg exercises the WAL path single-threaded: load/drop
   cycles on a scratch file database under injected append/sync faults
   (including one torn sync), asserting the retry absorbed them and a
   fresh [open_file] recovers the file. *)

type profile =
  | Transient
  | Hard

let profile_label = function
  | Transient -> "transient"
  | Hard -> "hard"

type report = {
  chaos_seed : int;
  chaos_sessions : int;
  chaos_requests : int;
  chaos_scale : int;
  profile_label : string;
  faults_injected : int;
  retry_attempts : int;
  retry_giveups : int;
  wal_rounds : int;
  wal_retry_attempts : int;
  baseline : Traffic.leg;
  chaos : Traffic.leg;
  p99_ratio : float;
  violations : string list;
}

(* Deep retries for the chaos database: at the fault rates the harness
   injects, the default 3-attempt policy would give up on back-to-back
   transient faults a few times per million reads — real flakiness for a
   CI gate.  Eight attempts put a giveup past 1e-10 per read while hard
   faults still surface (they defeat any retry depth). *)
let chaos_config =
  { Engine_config.m4 with
    Engine_config.retry_policy = { Storage.Retry.default with Storage.Retry.attempts = 8 } }

let fault_policy = function
  | Transient ->
    (* High enough that a leg's cold reads (a small document is only a
       few dozen pages, even across [waves] cold starts) are all but
       certain to fault at least once — the run asserts the injector
       fired.  Giving up still needs [attempts] consecutive faults on
       one read, i.e. 0.15^8 — negligible. *)
    { Storage.Fault_disk.read_fault_rate = 0.15;
      write_fault_rate = 0.;
      alloc_fault_rate = 0.;
      transient_fraction = 1.0;
      torn_fraction = 0. }
  | Hard ->
    (* A much higher rate than the transient profile: the leg's cold
       reads only touch on the order of a hundred pages, and at least
       one fault must come up hard for the typed-Io_error assertion to
       have teeth. *)
    { Storage.Fault_disk.read_fault_rate = 0.3;
      write_fault_rate = 0.;
      alloc_fault_rate = 0.;
      transient_fraction = 0.5;
      torn_fraction = 0. }

(* --- the WAL-fault leg ----------------------------------------------------- *)

let scratch_doc =
  "<scratch><a>one</a><b>two</b><c>three</c><d><e>deep</e></d></scratch>"

(* Single-threaded load/drop/checkpoint cycles on a scratch file
   database with WAL append/sync faults injected — one deterministic
   torn sync (exercising the write-back re-append), the rest seeded
   transient failures.  Returns (rounds, retry.attempts delta,
   violations). *)
let wal_leg ~seed ~rounds =
  let path = Filename.temp_file "xqdb_chaos" ".db" in
  let wal_path = path ^ ".wal" in
  let cleanup () =
    (try Sys.remove path with Sys_error _ -> ());
    try Sys.remove wal_path with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let before = Metrics.snapshot () in
      let violations = ref [] in
      let db = Database.create ~config:chaos_config ~on_file:path () in
      (match Database.wal db with
       | None ->
         violations := "WAL leg: file database came up without a log" :: !violations;
         Database.close db
       | Some wal ->
         let rng = Random.State.make [| seed; 0x3a1f |] in
         let syncs = ref 0 in
         Wal.set_injector wal
           (Some
              (fun op ->
                match op with
                | Wal.Sync ->
                  incr syncs;
                  (* One deterministic torn sync early on: the pending
                     records are dropped, so the write-back must
                     re-append before its retried sync. *)
                  if !syncs = 2 then Wal.Torn "chaos: torn sync"
                  else if Random.State.float rng 1.0 < 0.1 then
                    Wal.Fail "chaos: transient sync fault"
                  else Wal.No_fault
                | Wal.Append ->
                  if Random.State.float rng 1.0 < 0.05 then
                    Wal.Fail "chaos: transient append fault"
                  else Wal.No_fault))
           ;
         (try
            for round = 1 to rounds do
              let name = Printf.sprintf "scratch%d" round in
              ignore (Database.load_document db ~name scratch_doc);
              Database.checkpoint db;
              Database.drop_document db ~name
            done
          with Disk.Disk_error msg ->
            violations :=
              Printf.sprintf "WAL leg: a fault escaped the retry: %s" msg :: !violations);
         Wal.set_injector wal None;
         Database.close db;
         (* The recovery check: a fresh open must replay to a consistent
            catalog — this is also what CI runs after a SIGTERM drain. *)
         (match Database.open_file path with
          | db2 ->
            ignore (Database.document_names db2);
            Database.close db2
          | exception e ->
            violations :=
              Printf.sprintf "WAL leg: post-fault open_file failed: %s"
                (Printexc.to_string e)
              :: !violations));
      let delta = Metrics.diff (Metrics.snapshot ()) before in
      (rounds, Metrics.get delta "retry.attempts", List.rev !violations))

(* --- the full run ---------------------------------------------------------- *)

let leg_violations (l : Traffic.leg) =
  (if l.untyped > 0 then
     [Printf.sprintf "%s leg: %d failure(s) escaped untyped" l.label l.untyped]
   else [])
  @
  if l.mismatches > 0 then
    [Printf.sprintf "%s leg: %d answer(s) diverged from the fault-free oracle"
       l.label l.mismatches]
  else []

let counts_of (l : Traffic.leg) =
  Printf.sprintf "ok %d budget %d timeout %d error %d io %d bad %d unavailable %d" l.ok
    l.budget_exceeded l.timeouts l.errors l.io_errors l.bad_requests l.unavailable

(* Cold starts per leg.  One cold read sweep over a small document is
   only a few dozen faultable page reads; repeating the schedules from
   a dropped pool multiplies the disk traffic the injector sees, so
   "the injector fired" holds for any seed at realistic rates. *)
let waves = 3

let run ?(profile = Transient) ?(max_p99_ratio = 200.0) ~sessions ~requests ~seed ~scale
    () =
  let scheds = Traffic.schedule ~abuse:true ~seed ~sessions ~requests in
  let target = Traffic.setup ~config:chaos_config ~scale () in
  let leg ~exact label =
    (Traffic.run_leg ~cold_waves:waves ~exact ~label target scheds).Traffic.total
  in
  let baseline = leg ~exact:true "baseline" in
  (* Same schedules again, now with the disk faulting underneath. *)
  let injector =
    Storage.Fault_disk.attach ~policy:(fault_policy profile) ~seed
      (Database.disk (Traffic.database target))
  in
  let before = Metrics.snapshot () in
  let chaos = leg ~exact:false "chaos" in
  let delta = Metrics.diff (Metrics.snapshot ()) before in
  let injected = (Storage.Fault_disk.counts injector).Storage.Fault_disk.injected in
  Storage.Fault_disk.detach injector;
  let retry_attempts = Metrics.get delta "retry.attempts" in
  let retry_giveups = Metrics.get delta "retry.giveups" in
  let wal_rounds, wal_retry_attempts, wal_violations = wal_leg ~seed ~rounds:8 in
  let p99_ratio =
    if baseline.p99_ms > 0. then chaos.p99_ms /. baseline.p99_ms else 1.0
  in
  let violations =
    leg_violations baseline @ leg_violations chaos
    @ (if injected = 0 then ["chaos leg: the fault injector never fired"] else [])
    @ (match profile with
       | Transient ->
         (if not (String.equal (counts_of chaos) (counts_of baseline)) then
            [Printf.sprintf
               "transient faults leaked to clients: chaos outcomes (%s) differ from \
                baseline (%s)"
               (counts_of chaos) (counts_of baseline)]
          else [])
         @
         if retry_attempts = 0 then
           ["transient profile: retry.attempts stayed 0 — the retry never ran"]
         else []
       | Hard ->
         (if chaos.io_errors = 0 then
            ["hard profile: no hard fault surfaced as a typed Io_error"]
          else [])
         @
         if retry_giveups = 0 then
           ["hard profile: retry.giveups stayed 0 — hard faults never defeated the retry"]
         else [])
    @ (if p99_ratio > max_p99_ratio then
         [Printf.sprintf "chaos p99 degraded %.1fx (bound %.1fx)" p99_ratio max_p99_ratio]
       else [])
    @ wal_violations
    @
    if wal_retry_attempts <= 0 then
      ["WAL leg: retry.attempts stayed 0 — the injected log faults were never retried"]
    else []
  in
  { chaos_seed = seed;
    chaos_sessions = sessions;
    chaos_requests = requests;
    chaos_scale = scale;
    profile_label = profile_label profile;
    faults_injected = injected;
    retry_attempts;
    retry_giveups;
    wal_rounds;
    wal_retry_attempts;
    baseline;
    chaos;
    p99_ratio;
    violations }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "chaos: %d session(s) x %d request(s), %s faults, DBLP scale %d, seed %d\n"
       r.chaos_sessions r.chaos_requests r.profile_label r.chaos_scale r.chaos_seed);
  Buffer.add_string buf (Traffic.render_leg r.baseline);
  Buffer.add_string buf (Traffic.render_leg r.chaos);
  Buffer.add_string buf
    (Printf.sprintf
       "  faults injected %d  retry attempts %d  giveups %d  p99 ratio %.1fx\n"
       r.faults_injected r.retry_attempts r.retry_giveups r.p99_ratio);
  Buffer.add_string buf
    (Printf.sprintf "  wal leg: %d round(s), retry attempts %d\n" r.wal_rounds
       r.wal_retry_attempts);
  (match r.violations with
   | [] -> Buffer.add_string buf "  PASS: no violations\n"
   | vs ->
     List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "  VIOLATION: %s\n" v)) vs);
  Buffer.contents buf
