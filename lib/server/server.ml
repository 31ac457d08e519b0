module Database = Xqdb_core.Database
module Metrics = Xqdb_storage.Metrics
module Monotonic = Xqdb_storage.Monotonic

(* The multi-session server: one acceptor (the calling domain) feeding a
   bounded admission queue, and a fixed pool of [max_sessions] worker
   domains draining it.  Each admitted connection becomes one {!Session}
   (its own engine views, its own prepared-plan cache) over the shared
   database.

   Overload policy: the queue bounds how much work the server will hold.
   A connection arriving at a full queue is shed immediately — an
   [Unavailable] response carrying a retry-after hint, then close — and
   one that waited in the queue longer than [queue_timeout] is shed at
   dequeue for the same reason: serving it late helps nobody and holds
   the worker back from fresher work.

   Drain ([SIGTERM] or a shutdown wire frame): stop accepting, serve
   what was already admitted, finish in-flight requests, then checkpoint
   so the WAL is truncated and the database file is durable.  A
   post-drain [xqdb open] must find a clean state.

   The loop never dies on client behaviour: garbage frames get a typed
   [Bad_request] response and the connection is dropped (a binary stream
   cannot be resynchronized after garbage); socket errors close the one
   connection.  Only engine bugs ([Xqdb_error.Internal]) escape, by
   design. *)

type config = {
  port : int;  (* 0 picks an ephemeral port, reported via [on_ready] *)
  max_sessions : int;
  max_page_ios : int option;  (* server-wide per-request caps; *)
  max_seconds : float option;  (* clients can only tighten them *)
  queue_capacity : int;  (* admitted-but-unserved connection bound *)
  queue_timeout : float;  (* max seconds a connection may sit queued *)
  retry_after : float;  (* the hint shed responses carry *)
}

let default_config =
  { port = 7788;
    max_sessions = 4;
    max_page_ios = None;
    max_seconds = None;
    queue_capacity = 16;
    queue_timeout = 5.0;
    retry_after = 0.1 }

let m_connections = Metrics.counter "server.connections"
let m_wire_errors = Metrics.counter "server.wire_errors"
let m_sheds = Metrics.counter "server.sheds"
let m_queue_depth_hw = Metrics.counter "server.queue_depth_hw"
let m_drains = Metrics.counter "server.drains"

(* --- the admission queue ------------------------------------------------ *)

module Admission = struct
  (* A bounded FIFO shared between the acceptor and the workers.  After
     [drain], pushes are refused and poppers see the remaining items,
     then [None] — admitted work is still served, new work is not. *)
  type 'a t = {
    capacity : int;
    lock : Mutex.t;
    nonempty : Condition.t;
    items : 'a Queue.t;
    mutable draining : bool;
    mutable high_water : int;
  }
  [@@guarded_by lock]

  let create ~capacity =
    if capacity < 1 then invalid_arg "Admission.create: capacity must be positive";
    { capacity;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      items = Queue.create ();
      draining = false;
      high_water = 0 }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let push t x =
    locked t (fun () ->
        if t.draining || Queue.length t.items >= t.capacity then false
        else begin
          Queue.push x t.items;
          let depth = Queue.length t.items in
          if depth > t.high_water then begin
            (* The metrics counter mirrors the high water monotonically:
               its value is the deepest the queue has ever been. *)
            Metrics.add m_queue_depth_hw (depth - t.high_water);
            t.high_water <- depth
          end;
          Condition.signal t.nonempty;
          true
        end)

  let pop t =
    locked t (fun () ->
        let rec wait () =
          match Queue.take_opt t.items with
          | Some x -> Some x
          | None ->
            if t.draining then None
            else begin
              Condition.wait t.nonempty t.lock;
              wait ()
            end
        in
        wait ())

  let drain t =
    locked t (fun () ->
        t.draining <- true;
        Condition.broadcast t.nonempty)

  let high_water t = locked t (fun () -> t.high_water)
  let depth t = locked t (fun () -> Queue.length t.items)
end

(* --- the protocol loop -------------------------------------------------- *)

(* Generic over reader/writer so the protocol loop is testable without
   sockets.  [write] may raise (e.g. [Unix.Unix_error] on a peer that
   went away); the caller owns that.

   [on_shutdown] fires on a shutdown frame, after which the connection
   is done; [draining] is polled between requests so an in-flight
   connection ends at the next request boundary once a drain starts. *)
let handle_connection ?(on_shutdown = fun () -> ()) ?(draining = fun () -> false)
    ~session ~read ~write () =
  let rec loop () =
    match Wire.read_incoming ~read with
    | Result.Error Wire.Closed -> ()
    | Result.Error e ->
      (* Typed error out, then drop the connection: after a framing
         error there is no boundary to resynchronize on. *)
      Metrics.incr m_wire_errors;
      write
        (Wire.encode_response
           (Wire.error_response Wire.Bad_request (Wire.error_to_string e)))
    | Result.Ok Wire.Incoming_shutdown -> on_shutdown ()
    | Result.Ok (Wire.Incoming_request req) ->
      write (Wire.encode_response (Session.handle session req));
      if not (draining ()) then loop ()
  in
  loop ()

let write_all fd b =
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let serve_fd ?on_shutdown ?draining config db fd =
  Metrics.incr m_connections;
  let session =
    Session.create ?max_page_ios:config.max_page_ios ?max_seconds:config.max_seconds db
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        handle_connection ?on_shutdown ?draining ~session
          ~read:(fun b off len -> Unix.read fd b off len)
          ~write:(write_all fd) ()
      with Unix.Unix_error _ ->
        (* The peer vanished mid-frame; the connection is already dead. *)
        ())

(* Shed a connection without serving it: one [Unavailable] response with
   the retry-after hint, then close.  Best-effort — the peer may already
   be gone. *)
let shed config fd =
  Metrics.incr m_sheds;
  (try
     write_all fd
       (Wire.encode_response
          (Wire.error_response ~retry_after:config.retry_after Wire.Unavailable
             "server overloaded"))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_loop config queue sock =
  match Unix.accept sock with
  | fd, _ ->
    if not (Admission.push queue (fd, Monotonic.now ())) then shed config fd;
    accept_loop config queue sock
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
    (* The listening socket was shut down: orderly drain. *)
    ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop config queue sock

let rec worker_loop config db queue ~drain ~draining =
  match Admission.pop queue with
  | None -> ()
  | Some (fd, admitted_at) ->
    (* The queue-time deadline: a connection that waited out its welcome
       is shed at dequeue — serving it now just delays fresher work. *)
    if Monotonic.elapsed_since admitted_at > config.queue_timeout then shed config fd
    else serve_fd ~on_shutdown:drain ~draining config db fd;
    worker_loop config db queue ~drain ~draining

let serve ?(on_ready = fun _ -> ()) ?(handle_sigterm = false) config db =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  on_ready port;
  let queue = Admission.create ~capacity:config.queue_capacity in
  let draining = Atomic.make false in
  (* Initiate a drain exactly once: stop the acceptor by shutting the
     listening socket down ([shutdown], not [close] — on Linux a close
     does not wake a blocked [accept], a shutdown does, surfacing as
     EINVAL).  Callable from a worker (shutdown frame) or a signal
     handler, so nothing here blocks or takes the queue lock. *)
  let drain () =
    if not (Atomic.exchange draining true) then begin
      Metrics.incr m_drains;
      try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
    end
  in
  let is_draining () = Atomic.get draining in
  if handle_sigterm then
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain ()));
  let workers =
    List.init
      (max 1 config.max_sessions)
      (fun _ ->
        Domain.spawn (fun () -> worker_loop config db queue ~drain ~draining:is_draining))
  in
  (* The acceptor runs right here, on the calling domain. *)
  accept_loop config queue sock;
  (* No more admissions; serve out the queue, then wake idle workers. *)
  Admission.drain queue;
  List.iter Domain.join workers;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (* The durable finish: flush the pool, sync the file, truncate the
     WAL.  A post-drain open must replay nothing. *)
  Database.checkpoint db
