(* Workloads [serve-dblp] and [serve-treebank]: the real [Server.serve]
   on loopback TCP with 2 worker sessions, driven by 2 persistent client
   connections in a closed loop (an [xqdb serve] client waits for each
   reply on its connection).  The database is loaded from seeded XML text
   with the default milestone-4 config and logs ahead to a real WAL file;
   its pages live on the in-memory disk, as in every other xqdb bench,
   so page I/O is counted without OS-cache noise.  Every response is
   checked against a single-session oracle recorded before any timed
   phase. *)

module Engine = Xqdb_core.Engine
module Database = Xqdb_core.Database
module Server = Xqdb_server.Server
module Session = Xqdb_server.Session
module Wire = Xqdb_server.Wire
module Pool = Xqdb_storage.Buffer_pool
module Disk = Xqdb_storage.Disk
module Metrics = Xqdb_storage.Metrics

type spec = {
  name : string;
  doc : string;
  document : seed:int -> scale:int -> string;  (** the XML text to load *)
  mix : (string * string) list;  (** the traffic mix: (name, XQ source) *)
  fits_pool : bool;
      (** premise: the store fits the pool (and the timed phase never
          misses), or else it exceeds the pool's frames *)
}

(* The DBLP scale: about 950 pages, so the mix's working set still
   exceeds the 256-frame pool and the timed phase misses (at 1000 it
   fits).  At 2500 (about 1600 pages) a request takes twice as long, and
   a timed phase holds too few requests beyond its p99 to keep that
   steady from run to run. *)
let dblp_scale = 1_500

let dblp =
  { name = "serve-dblp";
    doc = "dblp";
    document = Inputs.dblp;
    mix = Xqdb_testbed.Queries.efficiency_queries @ [("example6", Xqdb_testbed.Queries.example6)];
    fits_pool = false }

(* About 120 pages: small enough to fit the 256-frame pool whatever the
   seed. *)
let treebank_nodes = 2_500

let treebank =
  { name = "serve-treebank";
    doc = "treebank";
    document = Inputs.treebank;
    mix =
      [ ("deep-twig", "for $s in //S return for $np in $s//NP return for $nn in $np//NN return $nn");
        ("deep-pair", "for $np in //NP return for $nn in $np//NN return $nn");
        ( "deep-semi",
          "for $np in //NP return if (some $vb in $np//VB satisfies true()) then <hit/> else ()" );
        ("pp-in", "for $pp in //PP return for $in in $pp/IN return $in");
        ("sbar-vb", "<SBAR>{ for $vp in //VP return for $vb in $vp/VB return $vb }</SBAR>") ];
    fits_pool = true }

let setup_reps = 3
let min_requests = 1000
let work_dir = ".perfbench_work"

let remove path = if Sys.file_exists path then Sys.remove path

(* ---- the client side ---- *)

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

let rec read_exact fd b off len =
  if len > 0 then begin
    let n = Unix.read fd b off len in
    if n = 0 then raise End_of_file;
    read_exact fd b (off + n) (len - n)
  end

(* One whole response frame, as bytes off the socket: the header's last
   four bytes are the big-endian payload length. *)
let read_frame fd =
  let header = Bytes.create Wire.header_size in
  read_exact fd header 0 Wire.header_size;
  let len = Int32.to_int (Bytes.get_int32_be header (Wire.header_size - 4)) in
  let frame = Bytes.create (Wire.header_size + len) in
  Bytes.blit header 0 frame 0 Wire.header_size;
  read_exact fd frame Wire.header_size len;
  Bytes.unsafe_to_string frame

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

type record = {
  kind : int;  (** index into the mix *)
  rtt : float;  (** client-side round trip, seconds *)
  status : Wire.status_code;
  elapsed : float;  (** server-reported execution seconds *)
  page_ios : int;  (** server-reported page I/Os *)
  payload_bytes : int;
  matches : bool;  (** status and payload equal the oracle's *)
  frame_bytes : int;
  encode_s : float;  (** traced phases only *)
  decode_s : float;
}

let request spec text =
  { Wire.doc = spec.doc; query_text = text; max_page_ios = None; max_seconds = None;
    deadline = None }

(* One request over [fd], timed from encode to decoded response.  With
   [trace] the encode and decode steps are also timed on their own. *)
let call ~trace ~oracle spec fd kind text =
  let t0 = Util.now () in
  let frame = Wire.encode_request (request spec text) in
  let t1 = if trace then Util.now () else t0 in
  write_all fd frame 0 (Bytes.length frame);
  let reply = read_frame fd in
  let t2 = if trace then Util.now () else t0 in
  let response =
    match Wire.read_response ~read:(Wire.string_reader reply) with
    | Ok r -> r
    | Error e -> Wire.error_response Wire.Bad_request (Wire.error_to_string e)
  in
  let t3 = Util.now () in
  let status, payload = oracle.(kind) in
  { kind;
    rtt = t3 -. t0;
    status = response.Wire.status;
    elapsed = response.Wire.elapsed;
    page_ios = response.Wire.page_ios;
    payload_bytes = String.length response.Wire.payload;
    matches = response.Wire.status = status && String.equal response.Wire.payload payload;
    frame_bytes = String.length reply;
    encode_s = t1 -. t0;
    decode_s = t3 -. t2 }

(* Connection [k]'s request schedule: blocks that are each a seeded
   permutation of the mix, so every run serves the mix in the same
   proportions and only the order depends on the seed. *)
let schedule ~seed ~tag ~mix_size k =
  let st = Random.State.make [| Util.derive seed tag; k |] in
  let block = Array.init mix_size Fun.id and pos = ref mix_size in
  fun () ->
    if !pos >= mix_size then begin
      for i = mix_size - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = block.(i) in
        block.(i) <- block.(j);
        block.(j) <- x
      done;
      pos := 0
    end;
    let x = block.(!pos) in
    incr pos;
    x

type phase = {
  records : record list;
  wall_s : float;  (** from the release of the clients to the last reply *)
  pool : Pool.stats;  (** deltas over the timed window *)
  disk_ios : int * int;  (** reads, writes *)
  counters : Metrics.snapshot;
}

type ctx = {
  spec : spec;
  port : int;
  seed : int;
  oracle : (Wire.status_code * string) array;
  o : Util.outcome;
  pool : Pool.t;
  disk : Disk.t;
}

let check ctx (r : record) =
  let o = ctx.o in
  o.Util.attempted <- o.Util.attempted + 1;
  if not r.matches then
    Util.failure o
      (Printf.sprintf "%s %s: response differs from the single-session oracle"
         ctx.spec.name (fst (List.nth ctx.spec.mix r.kind)))

let pool_delta (a : Pool.stats) (b : Pool.stats) : Pool.stats =
  { hits = b.hits - a.hits; misses = b.misses - a.misses; evictions = b.evictions - a.evictions;
    retries = b.retries - a.retries }

(* A closed-loop phase: [conns] connections each warm up on one block of
   the mix (untimed, still checked), then are released together and send
   requests back to back until [seconds] have passed and at least
   [min_requests] replies have arrived. *)
let run_phase ctx ~tag ~conns ~seconds ~min_requests ~trace =
  let mix = Array.of_list ctx.spec.mix in
  let m = Mutex.create () and cv = Condition.create () in
  let ready = ref 0 and go = ref None in
  let completed = Atomic.make 0 in
  let warm = Array.make conns [] and results = Array.make conns (Ok []) in
  let client k () =
    let timed = ref [] in
    let release () =
      Mutex.lock m;
      incr ready;
      Condition.broadcast cv;
      while Option.is_none !go do Condition.wait cv m done;
      let t0 = Option.get !go in
      Mutex.unlock m;
      t0
    in
    results.(k) <-
      (match
         let fd = connect ctx.port in
         Fun.protect
           ~finally:(fun () -> Unix.close fd)
           (fun () ->
             let next = schedule ~seed:ctx.seed ~tag ~mix_size:(Array.length mix) k in
             warm.(k) <-
               Array.to_list (Array.mapi (fun kind (_, text) -> call ~trace:false ~oracle:ctx.oracle ctx.spec fd kind text) mix);
             let t0 = release () in
             while Util.now () -. t0 < seconds || Atomic.get completed < min_requests do
               let kind = next () in
               timed := call ~trace ~oracle:ctx.oracle ctx.spec fd kind (snd mix.(kind)) :: !timed;
               Atomic.incr completed
             done)
       with
       | () -> Ok (List.rev !timed)
       | exception e ->
         (* Still release the others if this client never got that far. *)
         Mutex.lock m;
         if Option.is_none !go then incr ready;
         Condition.broadcast cv;
         Mutex.unlock m;
         Error (Printexc.to_string e))
  in
  let threads = List.init conns (fun k -> Thread.create (client k) ()) in
  Mutex.lock m;
  while !ready < conns do Condition.wait cv m done;
  let pool0 = Pool.stats ctx.pool and disk0 = Disk.counters ctx.disk in
  let counters0 = Metrics.snapshot () in
  let t0 = Util.now () in
  go := Some t0;
  Condition.broadcast cv;
  Mutex.unlock m;
  List.iter Thread.join threads;
  let wall_s = Util.now () -. t0 in
  let disk1 = Disk.counters ctx.disk in
  let records =
    List.concat_map
      (function
        | Ok rs -> rs
        | Error msg ->
          Util.problem ctx.o (Printf.sprintf "%s: client connection failed: %s" tag msg);
          [])
      (Array.to_list results)
  in
  List.iter (check ctx) (List.concat (Array.to_list warm));
  List.iter (check ctx) records;
  { records;
    wall_s;
    pool = pool_delta pool0 (Pool.stats ctx.pool);
    disk_ios = (disk1.Disk.reads - disk0.Disk.reads, disk1.Disk.writes - disk0.Disk.writes);
    counters = Metrics.diff (Metrics.snapshot ()) counters0 }

(* Ok responses per second of the phase. *)
let throughput p =
  float_of_int (List.length (List.filter (fun r -> r.status = Wire.Ok) p.records)) /. p.wall_s

(* Σ over the mix of each query's median round trip: the seconds one
   connection takes to get through the whole mix once, under load. *)
let mix_pass_s ~mix_size p =
  Util.sum_floats
    (List.init mix_size (fun kind ->
         Util.median
           (List.filter_map (fun r -> if r.kind = kind then Some r.rtt else None) p.records)))

let ms_percentiles l =
  let a = Util.sorted_floats l in
  (1e3 *. Util.percentile a 0.50, 1e3 *. Util.percentile a 0.99)

(* The traced run's per-layer readings. *)
let trace_layers ctx sheet ~xml ~load_times ~checkpoint_times ~setup_counters
    ~setup_pages_written ~main ~single ~db ~peak =
  let spec = ctx.spec and o = ctx.o in
  let put = Util.put sheet in
  let n = float_of_int (List.length main.records) in
  let per_query x = x /. n in
  (* Load layer: the measured set-ups, split into the parse (timed
     again on its own), the shred that follows it, and the checkpoint. *)
  let _, parse_s = Util.timed (fun () -> Xqdb_xml.Xml_parser.parse_forest xml) in
  put "xml_parser.parse_s" "s" parse_s;
  put "shredder.load_s" "s" (Util.median load_times -. parse_s);
  put "database.checkpoint_s" "s" (Util.median checkpoint_times);
  put "disk.setup_pages_written" "count" (float_of_int setup_pages_written);
  List.iter
    (fun name -> put name "count" (Layers.counter setup_counters name))
    ["wal.appends"; "wal.syncs"; "btree.inserts"; "btree.splits"];
  (* Front end. *)
  let base = Database.engine db ~name:spec.doc in
  let parsed = List.map (fun (_, text) -> Xqdb_xq.Xq_parser.parse text) spec.mix in
  put "xq_parser.parse_us" "us" (Layers.parse_us (List.map snd spec.mix));
  let compile_ms, templates = Layers.cold_compiles (List.map (fun q -> (base, q)) parsed) in
  put "pipeline.compile_cold_ms" "ms" compile_ms;
  put "planner.templates_built" "count" templates;
  put "plan_cache.hit_ratio" "ratio"
    (per_query (Layers.counter main.counters "engine.prepared_cache_hits"));
  (* Operators and engine output: one warm single session per query of
     the mix, the mean of [reps] executions, summed over the mix. *)
  let reps = 5 in
  let ops = Layers.ops () in
  let outside = ref 0. and serialize = ref 0. in
  List.iteri
    (fun kind q ->
      let session = Engine.session base in
      ignore (Engine.run session q);
      for _ = 1 to reps do
        let r = Engine.run session q in
        let what = Printf.sprintf "%s %s" spec.name (fst (List.nth spec.mix kind)) in
        Layers.check_consistency o ~what r;
        if not (String.equal r.Engine.output (snd ctx.oracle.(kind))) then
          Util.failure o (what ^ ": profiled run differs from the oracle");
        Layers.add_profile ~weight:(1. /. float_of_int reps) ops r.Engine.profile;
        outside := !outside +. (Layers.outside_ops_s r /. float_of_int reps)
      done;
      serialize := !serialize +. Layers.serialize_s (Engine.eval session q))
    parsed;
  Layers.put_ops sheet ops;
  (* Budgets are not set in the served mix. *)
  put "budget.io_overshoot" "count" 0.;
  put "budget.deadline_overshoot_s" "s" 0.;
  put "engine.outside_ops_s" "s" !outside;
  put "xml_print.serialize_s" "s" !serialize;
  put "engine.output_bytes_per_query" "bytes"
    (per_query
       (float_of_int
          (List.fold_left (fun acc r -> acc + r.payload_bytes) 0 main.records)));
  let exec50, exec99 = ms_percentiles (List.map (fun r -> r.elapsed) main.records) in
  put "engine.exec_ms_p50" "ms" exec50;
  put "engine.exec_ms_p99" "ms" exec99;
  (* Storage, per request of the timed phase. *)
  let pool = main.pool in
  let accesses = float_of_int (pool.Pool.hits + pool.Pool.misses) in
  put "buffer_pool.hit_ratio" "ratio" (Util.ratio (float_of_int pool.Pool.hits) accesses);
  put "buffer_pool.accesses_per_query" "count" (per_query accesses);
  put "buffer_pool.misses_per_query" "count" (per_query (float_of_int pool.Pool.misses));
  put "buffer_pool.evictions_per_query" "count" (per_query (float_of_int pool.Pool.evictions));
  put "latch.acquisitions_per_query" "count" (per_query (Layers.latch_acquisitions main.counters));
  put "latch.waits_per_query" "count" (per_query (Layers.counter main.counters "latch.waits"));
  put "btree.node_reads_per_query" "count"
    (per_query (Layers.counter main.counters "btree.node_reads"));
  let reads, writes = main.disk_ios in
  put "disk.reads_per_query" "count" (per_query (float_of_int reads));
  put "disk.writes_per_query" "count" (per_query (float_of_int writes));
  let attributed =
    List.fold_left (fun acc r -> acc + r.page_ios) 0 main.records
  in
  (* Exact attribution of no I/O at all reads 1. *)
  put "disk.io_attribution_ratio" "ratio"
    (if reads + writes = 0 && attributed = 0 then 1.
     else float_of_int attributed /. float_of_int (max 1 (reads + writes)));
  (* Server and wire. *)
  let us l = 1e6 *. Util.median l in
  put "wire.encode_us" "us" (us (List.map (fun r -> r.encode_s) main.records));
  put "wire.decode_us" "us" (us (List.map (fun r -> r.decode_s) main.records));
  put "wire.response_bytes" "bytes"
    (per_query (float_of_int (List.fold_left (fun acc r -> acc + r.frame_bytes) 0 main.records)));
  let over50, over99 =
    ms_percentiles (List.map (fun r -> r.rtt -. r.elapsed) main.records)
  in
  put "server.overhead_ms_p50" "ms" over50;
  put "server.overhead_ms_p99" "ms" over99;
  put "server.queue_depth_hw" "count"
    (Layers.counter (Metrics.snapshot ()) "server.queue_depth_hw");
  put "server.sheds" "count" (Layers.counter main.counters "server.sheds");
  put "serve.scaling_2v1" "ratio" (throughput main /. throughput single);
  (* Tracing adds two clock reads to each request of the main phase
     ([call]); nothing else in that phase differs from a plain run. *)
  let clock_reads = 100_000 in
  let (), clock_s =
    Util.timed (fun () ->
        for _ = 1 to clock_reads do ignore (Sys.opaque_identity (Util.now ())) done)
  in
  let mean_rtt = per_query (Util.sum_floats (List.map (fun r -> r.rtt) main.records)) in
  put "trace.overhead_pct" "%" (100. *. 2. *. clock_s /. float_of_int clock_reads /. mean_rtt);
  (* The end-to-end readings that are zero on some workload. *)
  let reads_writes = float_of_int (reads + writes) in
  put "page_ios" "count" reads_writes;
  put "censored_cells" "count"
    (float_of_int
       (List.length
          (List.filter (fun r -> r.status = Wire.Budget_exceeded) main.records)));
  put "ios_per_query" "count" (per_query reads_writes);
  put "fail_ratio" "ratio" (Util.ratio (float_of_int o.Util.failed) (float_of_int o.Util.attempted));
  put "gc.top_heap_mb" "MB" peak

(* ---- the workload ---- *)

let run spec ~seed ~scale ~seconds ~trace =
  let o = Util.outcome () in
  let sheet = Util.sheet () in
  let xml = spec.document ~seed ~scale in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let wal = Filename.concat work_dir (spec.name ^ ".wal") in
  (* Set-up: load from XML text plus checkpoint, repeated on a fresh
     database and log each time; the last database is served. *)
  let load_times = ref [] and checkpoint_times = ref [] in
  let setup_counters = ref [] in
  let load () =
    remove wal;
    Gc.full_major ();
    let db =
      Database.create_on ~wal:(Xqdb_storage.Wal.on_file wal) (Xqdb_storage.Disk.in_memory ())
    in
    let before = Metrics.snapshot () in
    let _, load_s = Util.timed (fun () -> Database.load_document db ~name:spec.doc xml) in
    let (), checkpoint_s = Util.timed (fun () -> Database.checkpoint db) in
    setup_counters := Metrics.diff (Metrics.snapshot ()) before;
    load_times := load_s :: !load_times;
    checkpoint_times := checkpoint_s :: !checkpoint_times;
    db
  in
  let db = ref (load ()) in
  for _ = 2 to setup_reps do
    Database.close !db;
    db := load ()
  done;
  let db = !db in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      remove wal;
      try Sys.rmdir work_dir with Sys_error _ -> ())
    (fun () ->
      let pool = Engine.pool (Database.engine db ~name:spec.doc) and disk = Database.disk db in
      let setup_pages_written = (Disk.counters disk).Disk.writes in
      let store_pages = Disk.page_count disk and frames = Pool.capacity pool in
      if spec.fits_pool && store_pages >= frames then
        Util.problem o
          (Printf.sprintf "premise: the %d-page store must fit the %d-frame pool" store_pages
             frames);
      if (not spec.fits_pool) && store_pages <= frames then
        Util.problem o
          (Printf.sprintf "premise: the %d-page store must exceed the %d-frame pool" store_pages
             frames);
      (* The single-session oracle. *)
      let oracle_session = Session.create db in
      let oracle =
        Array.of_list
          (List.map
             (fun (qname, text) ->
               let r = Session.handle oracle_session (request spec text) in
               if r.Wire.status <> Wire.Ok then
                 Util.problem o (Printf.sprintf "oracle %s: %s" qname r.Wire.payload);
               (r.Wire.status, r.Wire.payload))
             spec.mix)
      in
      let port = Atomic.make 0 in
      let config =
        { Server.default_config with Server.port = 0; max_sessions = 2; queue_capacity = 4 }
      in
      let server =
        Domain.spawn (fun () -> Server.serve ~on_ready:(Atomic.set port) config db)
      in
      let stop_server () =
        let fd = connect (Atomic.get port) in
        let frame = Wire.encode_shutdown () in
        write_all fd frame 0 (Bytes.length frame);
        Unix.close fd;
        Domain.join server
      in
      let deadline = Util.now () +. 30. in
      while Atomic.get port = 0 && Util.now () < deadline do Thread.delay 0.001 done;
      if Atomic.get port = 0 then Xqdb_storage.Xqdb_error.internal "perfbench: the server did not start";
      let ctx = { spec; port = Atomic.get port; seed; oracle; o; pool; disk } in
      let mix_size = List.length spec.mix in
      let main, extra =
        Fun.protect ~finally:stop_server (fun () ->
            let main =
              run_phase ctx ~tag:(spec.name ^ "/main") ~conns:2 ~seconds ~min_requests ~trace
            in
            let extra =
              if trace then
                Some
                  (run_phase ctx ~tag:(spec.name ^ "/single") ~conns:1 ~seconds:(seconds /. 2.)
                     ~min_requests:0 ~trace:false)
              else None
            in
            (main, extra))
      in
      let peak = Util.peak_heap_mb () in
      (* Live data after the server drained, less the client's records. *)
      let live = Util.live_heap_mb () -. Util.size_mb main.records in
      let n = float_of_int (List.length main.records) in
      let reads, writes = main.disk_ios in
      if spec.fits_pool && main.pool.Pool.misses <> 0 then
        Util.problem o
          (Printf.sprintf "premise: %d pool misses in the timed phase of a store that fits"
             main.pool.Pool.misses);
      if (not spec.fits_pool) && main.pool.Pool.misses = 0 then
        Util.problem o "premise: no pool misses in the timed phase of a store that exceeds the pool";
      let rtts = List.map (fun r -> r.rtt) main.records in
      let p50, p99 = ms_percentiles rtts in
      let censored =
        List.length
          (List.filter (fun r -> r.status = Wire.Budget_exceeded) main.records)
      in
      let summary =
        [ Printf.sprintf
            "%s: %d-page store, %d-frame pool, 2 workers, 2 connections, closed loop, %d requests in %.2fs"
            spec.name store_pages frames (List.length main.records) main.wall_s;
          Printf.sprintf "  latency over n=%d round trips: p50 %.3fms  p99 %.3fms" (int_of_float n)
            p50 p99;
          Printf.sprintf "  median round trip per query: %s"
            (String.concat ", "
               (List.mapi
                  (fun kind (qname, _) ->
                    Printf.sprintf "%s %.2fms" qname
                      (1e3
                      *. Util.median
                           (List.filter_map
                              (fun r -> if r.kind = kind then Some r.rtt else None)
                              main.records)))
                  spec.mix));
          Printf.sprintf "  ios_per_query %.3f  censored %d  fail_ratio %.4f"
            (float_of_int (reads + writes) /. n) censored
            (Util.ratio (float_of_int o.Util.failed) (float_of_int o.Util.attempted)) ]
      in
      (match extra with
       | None ->
         Util.put sheet "setup_s" "s"
           (Util.median (List.map2 ( +. ) !load_times !checkpoint_times));
         Util.put sheet "query_s" "s" (mix_pass_s ~mix_size main);
         Util.put sheet "throughput_qps" "1/s" (throughput main);
         Util.put sheet "latency_p50_ms" "ms" p50;
         Util.put sheet "latency_p99_ms" "ms" p99;
         Util.put sheet "live_heap_mb" "MB" live
       | Some single ->
         trace_layers ctx sheet ~xml ~load_times:!load_times ~checkpoint_times:!checkpoint_times
           ~setup_counters:!setup_counters ~setup_pages_written ~main ~single ~db ~peak);
      (summary, o, sheet))
