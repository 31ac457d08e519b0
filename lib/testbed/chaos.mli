(** The chaos harness: {!Traffic} legs re-run under seeded fault
    injection, with the fault-free leg as their own oracle.

    A chaos run has three phases over one database:

    + a {e fault-free baseline} leg, exact against the single-session
      oracle;
    + a {e chaos} leg: the same seeded schedules with a
      {!Xqdb_storage.Fault_disk} injector armed.  Both legs' schedules
      mix a seeded sprinkle of hostile frames (garbage bytes through the
      wire decoder), already-expired deadlines and retired-v1 frames
      into the request stream;
    + a single-threaded {e WAL-fault} leg on a scratch file database:
      load/drop/checkpoint cycles with transient [Wal] append/sync
      faults injected, asserting the storage retry absorbed them
      ([retry.attempts] grew) and that a fresh [open_file] recovers the
      file afterwards.

    The run's acceptance checks come back as [violations] (empty =
    pass): every client-visible failure typed (zero [untyped]), zero
    oracle mismatches, transient faults invisible to clients (chaos-leg
    outcome counts equal to the baseline's), hard faults surfaced as
    typed [Io_error]s, retries actually exercised, and chaos-leg p99
    latency within [max_p99_ratio] of the baseline.  Each leg replays
    its schedules in three cold-start waves, and the shared pool must
    be quiescent after each. *)

type profile =
  | Transient  (** every injected fault clears after one failure *)
  | Hard  (** half the faults persist per page, defeating the retry *)

val profile_label : profile -> string
(** ["transient"] or ["hard"]. *)

type report = {
  chaos_seed : int;
  chaos_sessions : int;
  chaos_requests : int;
      (** per session, per cold-start wave (each leg replays its
          schedules from a dropped pool three times, so a leg's total is
          [3 * sessions * requests]) *)
  chaos_scale : int;
  profile_label : string;
  faults_injected : int;  (** disk faults injected during the chaos leg *)
  retry_attempts : int;  (** [retry.attempts] delta across the chaos leg *)
  retry_giveups : int;
  wal_rounds : int;
  wal_retry_attempts : int;  (** [retry.attempts] delta in the WAL leg *)
  baseline : Traffic.leg;  (** labelled ["baseline"] *)
  chaos : Traffic.leg;  (** labelled ["chaos"] *)
  p99_ratio : float;  (** chaos p99 / baseline p99 *)
  violations : string list;  (** empty iff the run passes *)
}

val run :
  ?profile:profile ->
  ?max_p99_ratio:float ->
  sessions:int ->
  requests:int ->
  seed:int ->
  scale:int ->
  unit ->
  report
(** [profile] defaults to [Transient]; [max_p99_ratio] (default 200.0)
    bounds the tolerated chaos-leg p99 degradation. *)

val render : report -> string
(** Human-readable summary, violations last. *)
