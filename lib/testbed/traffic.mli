(** The served-traffic harness: one runner for every load the testbed
    drives through the server.

    {!setup} loads a scaled DBLP document into one shared database and
    records the single-session oracle: one session plays every distinct
    query of the mix (the five efficiency queries plus the Section-2
    example) and keeps its (status, payload).  {!run_leg} then drives
    one client session per schedule (one domain each), sending every
    plan as a single frame through the server's real connection loop
    ({!Xqdb_server.Server.handle_connection} over an in-memory byte
    channel).  Each answer is checked against the oracle, and after
    every wave the shared pool must be quiescent (no pins, no held
    latches); a leak raises {!Xqdb_storage.Xqdb_error.Internal}.

    {!run} is one such leg over well-formed requests, with a
    per-session breakdown; {!Chaos} runs legs fault-free and under
    injected faults. *)

type mode =
  | Closed  (** each session fires its next request on completion *)
  | Open_rate of float
      (** requests per second per session, fired on schedule regardless
          of completion — latencies include client-visible queueing *)

(** What one slot of a session's schedule sends. *)
type plan =
  | Normal of int  (** mix entry *)
  | Expired of int  (** mix entry with an already-dead deadline *)
  | Old_version of int  (** mix entry in a frame claiming the retired v1 *)
  | Hostile of int  (** one of the hostile byte strings *)

(** One leg's outcome: a count per wire status, oracle mismatches,
    untyped escapes and latency percentiles. *)
type leg = {
  label : string;
  requests : int;
  ok : int;
  budget_exceeded : int;
  timeouts : int;  (** requests censored at their deadline *)
  errors : int;
  io_errors : int;
  bad_requests : int;
  unavailable : int;
  mismatches : int;  (** answers that diverged from the oracle *)
  untyped : int;
      (** plans not answered exactly once, or whose exception escaped
          the wire path — must be 0 *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type run = {
  total : leg;  (** every session, every wave *)
  per_session : leg list;  (** labelled ["session k"], all waves *)
  wall_seconds : float;
}

type target
(** A loaded database plus its oracle. *)

val schedule : abuse:bool -> seed:int -> sessions:int -> requests:int -> plan array array
(** One seeded schedule per session, deterministic in [seed].  Without
    [abuse] every plan is [Normal]; with it, about one plan in six is an
    [Expired], [Old_version] or [Hostile] one.
    @raise Invalid_argument unless [sessions] and [requests] are
    positive. *)

val setup :
  ?config:Xqdb_core.Engine_config.t ->
  ?max_page_ios:int ->
  ?max_seconds:float ->
  scale:int ->
  unit ->
  target
(** Load DBLP at [scale] and record the oracle.  The caps become every
    session's admission limits and every request's ask (requests censor
    to [Budget_exceeded] when they trip; sessions live on). *)

val database : target -> Xqdb_core.Database.t

val run_leg :
  ?rate:float ->
  ?cold_waves:int ->
  exact:bool ->
  label:string ->
  target ->
  plan array array ->
  run
(** Replay the schedules once over the pool as it is, or [cold_waves]
    times each from a dropped pool; [rate] requests per second per
    session when given (open loop).  An [Expired] plan must answer
    [Timeout] and an [Old_version] or [Hostile] one [Bad_request].  A
    [Normal] plan must reproduce the oracle's (status, payload); when
    not [exact] — faults are armed — only its [Ok] answers are
    compared. *)

type report = {
  sessions : int;
  requests_per_session : int;
  seed : int;
  scale : int;
  mode : mode;
  wall_seconds : float;
  throughput : float;  (** completed requests per wall-clock second *)
  total : leg;
  per_session : leg list;
}

val doc_name : string
(** The served document's name (["dblp"]). *)

val run :
  ?mode:mode ->
  ?max_page_ios:int ->
  ?max_seconds:float ->
  sessions:int ->
  requests:int ->
  seed:int ->
  scale:int ->
  unit ->
  report
(** One exact leg of well-formed requests. *)

val mode_label : mode -> string
(** ["closed"] or ["open"]. *)

val render_leg : leg -> string
(** One indented summary line. *)

val render : report -> string
(** Human-readable summary, one line per session. *)
