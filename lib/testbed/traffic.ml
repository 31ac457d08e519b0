module Database = Xqdb_core.Database
module Engine = Xqdb_core.Engine
module Session = Xqdb_server.Session
module Server = Xqdb_server.Server
module Wire = Xqdb_server.Wire
module Storage = Xqdb_storage
module Dblp = Xqdb_workload.Dblp_gen

(* The served-traffic harness: [sessions] client sessions over one shared
   database, each replaying a seeded schedule of plans.  Every plan is one
   frame sent through the server's real connection loop
   ([Server.handle_connection] over an in-memory byte channel): decode,
   execute, encode — what a socket client sees, minus the kernel.

   Correctness is checked against a single-session oracle: before any leg
   runs, one session plays every distinct query of the mix and records
   (status, payload); every later answer is compared against it.  After
   each wave of concurrent sessions the shared pool must be quiescent —
   no leaked pins, no held latches.  [run] is one such leg; the chaos
   harness runs the same legs fault-free and under injected faults. *)

type mode =
  | Closed  (* each session fires its next request on completion *)
  | Open_rate of float  (* requests per second per session *)

type plan =
  | Normal of int  (* mix entry *)
  | Expired of int  (* mix entry with an already-dead deadline *)
  | Old_version of int  (* mix entry in a frame claiming the retired v1 *)
  | Hostile of int  (* one of the hostile byte strings *)

type leg = {
  label : string;
  requests : int;
  ok : int;
  budget_exceeded : int;
  timeouts : int;
  errors : int;
  io_errors : int;
  bad_requests : int;
  unavailable : int;
  mismatches : int;
  untyped : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type run = {
  total : leg;
  per_session : leg list;
  wall_seconds : float;
}

type target = {
  db : Database.t;
  mix : (string * string) array;
  caps : int option * float option;
  oracle : (Wire.status_code * string) array;  (* per mix entry *)
}

type report = {
  sessions : int;
  requests_per_session : int;
  seed : int;
  scale : int;
  mode : mode;
  wall_seconds : float;
  throughput : float;  (* completed requests per wall-clock second *)
  total : leg;
  per_session : leg list;
}

let doc_name = "dblp"

(* The query mix: the five efficiency queries plus the Section-2 example
   — all meaningful against DBLP-shaped data, with plan costs spanning
   orders of magnitude, so the mix exercises both fast index probes and
   long scans. *)
let mix () = Array.of_list (Queries.efficiency_queries @ [("example6", Queries.example6)])

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let u32be n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let frame_header ?(magic = "XQDB") ?(version = Wire.version) ?(kind = 1) len =
  magic ^ String.make 1 (Char.chr version) ^ String.make 1 (Char.chr kind) ^ u32be len

(* Every variant must decode to a typed non-[Closed] error, so the
   server loop answers each with exactly one [Bad_request]. *)
let hostile_frames =
  [| frame_header ~magic:"EVIL" 0;  (* garbage magic *)
     "XQ";  (* header truncated mid-magic *)
     frame_header ~kind:9 0;  (* unknown frame kind *)
     frame_header (Wire.max_payload + 1);  (* oversize declaration *)
     frame_header 64 ^ "not sixty-four bytes" (* payload truncated *) |]

(* Session [k]'s schedule under [seed]: deterministic in (seed, k),
   independent of timing.  With [abuse], a seeded sprinkle of hostile
   frames, dead deadlines and v1 frames joins the well-formed requests. *)
let schedule ~abuse ~seed ~sessions ~requests =
  if sessions < 1 then invalid_arg "Traffic.schedule: sessions must be positive";
  if requests < 1 then invalid_arg "Traffic.schedule: requests must be positive";
  let mix_size = Array.length (mix ()) in
  Array.init sessions (fun k ->
      let rng = Random.State.make [| seed; k; 0xc4a05 |] in
      Array.init requests (fun _ ->
          let d = if abuse then Random.State.int rng 100 else 100 in
          if d < 4 then Hostile (Random.State.int rng (Array.length hostile_frames))
          else if d < 8 then Expired (Random.State.int rng mix_size)
          else if d < 16 then Old_version (Random.State.int rng mix_size)
          else Normal (Random.State.int rng mix_size)))

let make_request ~caps:(max_page_ios, max_seconds) ?deadline text =
  { Wire.doc = doc_name; query_text = text; max_page_ios; max_seconds; deadline }

let frame_of t plan =
  let request ?deadline i =
    Wire.encode_request (make_request ~caps:t.caps ?deadline (snd t.mix.(i)))
  in
  match plan with
  | Normal i -> Bytes.to_string (request i)
  | Expired i -> Bytes.to_string (request ~deadline:(-1.0) i)
  | Old_version i ->
    let b = request i in
    Bytes.set_uint8 b 4 1;
    Bytes.to_string b
  | Hostile i -> hostile_frames.(i)

let new_session t =
  let max_page_ios, max_seconds = t.caps in
  Session.create ?max_page_ios ?max_seconds t.db

(* One frame through the server's connection loop (one frame, then EOF),
   returning the decoded responses the client saw. *)
let play session frame =
  let out = Buffer.create 256 in
  Server.handle_connection ~session ~read:(Wire.string_reader frame)
    ~write:(Buffer.add_bytes out) ();
  let read = Wire.string_reader (Buffer.contents out) in
  let rec drain acc =
    match Wire.read_response ~read with
    | Result.Ok r -> drain (r :: acc)
    | Result.Error _ -> List.rev acc
  in
  drain []

(* The oracle: every distinct query answered once, sequentially, before
   any concurrency (or fault) starts. *)
let record_oracle t =
  let session = new_session t in
  Array.mapi
    (fun i (name, _) ->
      match play session (frame_of t (Normal i)) with
      | [resp] -> (resp.Wire.status, resp.Wire.payload)
      | _ -> Storage.Xqdb_error.internal "Traffic: oracle query %s not answered once" name)
    t.mix

let setup ?config ?max_page_ios ?max_seconds ~scale () =
  let db = Database.create ?config () in
  ignore (Database.load_forest db ~name:doc_name [Dblp.generate (Dblp.scaled scale)]);
  let t = { db; mix = mix (); caps = (max_page_ios, max_seconds); oracle = [||] } in
  { t with oracle = record_oracle t }

let database t = t.db

(* Whether [resp] is the answer [plan] must get.  Abuse never reaches the
   disk, so it has one right answer in every leg: a dead deadline censors
   with [Timeout], a v1 or hostile frame gets [Bad_request].  A mix query
   must reproduce the oracle's (status, payload); in a leg that is not
   [exact] (faults are armed) only its [Ok] answers are compared — a
   fault may fail a request, never corrupt an answer. *)
let matches ~exact t plan (resp : Wire.response) =
  match plan with
  | Expired _ -> resp.Wire.status = Wire.Timeout
  | Old_version _ | Hostile _ -> resp.Wire.status = Wire.Bad_request
  | Normal i ->
    let status, payload = t.oracle.(i) in
    ((not exact) && resp.Wire.status <> Wire.Ok)
    || (resp.Wire.status = status && String.equal resp.Wire.payload payload)

(* One session's share of a wave.  Immutable once built — each domain
   fills its own arrays and the spawner only reads the results.
   [answers.(i)] is [None] when plan [i] escaped untyped. *)
type outcome = {
  latencies : float array;  (* seconds, schedule order *)
  answers : Wire.status_code option array;
  mismatched : int;
}

let run_session ?rate ~exact t sched =
  let session = new_session t in
  let n = Array.length sched in
  let latencies = Array.make n 0. and answers = Array.make n None in
  let mismatched = ref 0 in
  let start = Storage.Monotonic.now () in
  Array.iteri
    (fun i plan ->
      (match rate with
       | None -> ()
       | Some rate ->
         (* Fire on the schedule even if the previous request ran long:
            open-loop latencies include the queueing the client sees. *)
         let target = start +. (float_of_int i /. rate) in
         let now = Storage.Monotonic.now () in
         if now < target then Unix.sleepf (target -. now));
      let t0 = Storage.Monotonic.now () in
      (match play session (frame_of t plan) with
       | [resp] ->
         answers.(i) <- Some resp.Wire.status;
         if not (matches ~exact t plan resp) then incr mismatched
       | [] | _ :: _ :: _ ->
         (* The loop must answer every frame exactly once; anything else
            is an untyped escape. *)
         ()
       | exception (Storage.Xqdb_error.Internal _ as e) -> raise e
       | exception _ -> ());
      latencies.(i) <- Storage.Monotonic.elapsed_since t0)
    sched;
  { latencies; answers; mismatched = !mismatched }

let leg_of ~label outcomes =
  let all = Array.concat (List.map (fun o -> o.latencies) outcomes) in
  Array.sort Float.compare all;
  let answers = Array.concat (List.map (fun o -> o.answers) outcomes) in
  let count a = Array.fold_left (fun n a' -> if a' = a then n + 1 else n) 0 answers in
  { label;
    requests = Array.length all;
    ok = count (Some Wire.Ok);
    budget_exceeded = count (Some Wire.Budget_exceeded);
    timeouts = count (Some Wire.Timeout);
    errors = count (Some Wire.Error);
    io_errors = count (Some Wire.Io_error);
    bad_requests = count (Some Wire.Bad_request);
    unavailable = count (Some Wire.Unavailable);
    mismatches = List.fold_left (fun n o -> n + o.mismatched) 0 outcomes;
    untyped = count None;
    p50_ms = 1000. *. percentile all 0.50;
    p95_ms = 1000. *. percentile all 0.95;
    p99_ms = 1000. *. percentile all 0.99 }

let assert_quiescent ~label pool =
  (match Storage.Buffer_pool.pinned_pages pool with
   | [] -> ()
   | leaked ->
     Storage.Xqdb_error.internal "Traffic: %d page(s) still pinned after the %s leg"
       (List.length leaked) label);
  match Storage.Buffer_pool.latched_pages pool with
  | [] -> ()
  | leaked ->
    Storage.Xqdb_error.internal "Traffic: %d frame latch(es) still held after the %s leg"
      (List.length leaked) label

let run_leg ?rate ?cold_waves ~exact ~label t scheds =
  let pool = Engine.pool (Database.engine t.db ~name:doc_name) in
  let sessions = Array.length scheds in
  let start = Storage.Monotonic.now () in
  let by_wave =
    List.init (Option.value cold_waves ~default:1) (fun _ ->
        (* A cold wave starts from disk, so its reads actually traverse
           the (possibly faulting) disk. *)
        if Option.is_some cold_waves then Storage.Buffer_pool.drop_all pool;
        let outcomes =
          if sessions = 1 then [| run_session ?rate ~exact t scheds.(0) |]
          else
            Array.map Domain.join
              (Array.init sessions (fun k ->
                   Domain.spawn (fun () -> run_session ?rate ~exact t scheds.(k))))
        in
        (* Run unconditionally — under the sanitizer a leak inside a run
           would already have raised, but this also covers plain runs. *)
        assert_quiescent ~label pool;
        outcomes)
  in
  let wall_seconds = Storage.Monotonic.elapsed_since start in
  { total = leg_of ~label (List.concat_map Array.to_list by_wave);
    per_session =
      List.init sessions (fun k ->
          leg_of ~label:(Printf.sprintf "session %d" k) (List.map (fun o -> o.(k)) by_wave));
    wall_seconds }

let run ?(mode = Closed) ?max_page_ios ?max_seconds ~sessions ~requests ~seed ~scale () =
  let scheds = schedule ~abuse:false ~seed ~sessions ~requests in
  let t = setup ?max_page_ios ?max_seconds ~scale () in
  let rate = match mode with Closed -> None | Open_rate r -> Some r in
  let r = run_leg ?rate ~exact:true ~label:"traffic" t scheds in
  { sessions;
    requests_per_session = requests;
    seed;
    scale;
    mode;
    wall_seconds = r.wall_seconds;
    throughput =
      (if r.wall_seconds > 0. then float_of_int r.total.requests /. r.wall_seconds else 0.);
    total = r.total;
    per_session = r.per_session }

let mode_label = function
  | Closed -> "closed"
  | Open_rate _ -> "open"

let render_leg l =
  Printf.sprintf
    "  %-9s ok %d  budget %d  timeout %d  error %d  io %d  bad %d  unavail %d  \
     mismatch %d  untyped %d  p95 %.2fms  p99 %.2fms\n"
    l.label l.ok l.budget_exceeded l.timeouts l.errors l.io_errors l.bad_requests
    l.unavailable l.mismatches l.untyped l.p95_ms l.p99_ms

let render (r : report) =
  Printf.sprintf
    "traffic: %d session(s) x %d request(s), %s loop, DBLP scale %d, seed %d\n\
    \  wall %.2fs  throughput %.1f req/s  mismatches %d  untyped %d\n\
    \  latency p50 %.2fms  p95 %.2fms  p99 %.2fms\n"
    r.sessions r.requests_per_session (mode_label r.mode) r.scale r.seed r.wall_seconds
    r.throughput r.total.mismatches r.total.untyped r.total.p50_ms r.total.p95_ms
    r.total.p99_ms
  ^ String.concat "" (List.map render_leg r.per_session)
