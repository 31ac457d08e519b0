(** Machine-readable benchmark reports.

    A minimal JSON value type with a writer and a (strict, recursive
    descent) parser — deliberately hand-rolled so the testbed carries no
    dependency beyond the standard library — plus serializers for the
    engine profiles and efficiency tables the benches emit as
    [BENCH_*.json], and a sanity validator CI runs over those files.

    Schema, at exactly one [schema_version] (7; the validator rejects
    every other version):

    {v
    { "schema_version": 7,
      "kind": "fig7" | "ablations" | "milestones" | "templates",
      "budget": int,              (fig7 only)
      "results": [
        { "engine": str, "test": str, <extra fields, e.g. "scale": int>,
          "page_ios": int, "seconds": float, "censored": bool,
          "templates_built": int, "template_binds": int,
          "prepared_cache_hits": int,
          "wal_appends": int, "wal_checkpoints": int,
          "recovery_replayed": int,
          "profile": {
            "reads": int, "writes": int, "allocs": int,
            "pool": {"hits": int, "misses": int, "evictions": int,
                     "retries": int},
            "counters": {<metric name>: int, ...},
            "operator_ios": int, "other_ios": int,
            "operators": [<op>, ...] } } ] }
    v}

    where each [<op>] is [{ "op": str, "args": str, "rows": int,
    "batches": int, "ios": int, "own_ios": int, "seconds": float,
    "own_seconds": float, "inputs": [<op>, ...] }].

    Crash-sweep reports ([kind = "crash"], {!crash_json}) use the same
    envelope with one flat result object per crash point:
    [{ "trial": int, "query": str, "events_total": int, "point": int,
    "torn": bool, "crashed": bool, "ok": bool, "detail": str }].

    Traffic ([kind = "traffic"], {!traffic_json}) and chaos
    ([kind = "chaos"], {!chaos_json}) reports carry their run
    aggregates at the top level and one {e leg} per result:
    [{ "leg": str, "requests": int, "ok": int, "budget_exceeded": int,
    "timeouts": int, "errors": int, "io_errors": int,
    "bad_requests": int, "unavailable": int, "mismatches": int,
    "untyped": int, "p50_ms": float, "p95_ms": float,
    "p99_ms": float }].  The validator requires the status counts to
    partition [requests], zero [mismatches], zero [untyped], and
    non-negative, ordered percentiles. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact rendering with full string escaping. *)

val parse : string -> (json, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error).  Numbers with [.], [e] or [E] become [Float], others [Int]. *)

val member : string -> json -> json option
(** Field lookup; [None] when absent or not an object. *)

val write_file : string -> json -> unit

(* --- serializers -------------------------------------------------------- *)

val profile_json : Xqdb_core.Engine.profile -> json

val result_json :
  ?extra:(string * json) list ->
  engine:string -> test:string -> Xqdb_core.Engine.result -> json
(** One engine × test measurement with its full profile and the
    template counters pulled out of it; [extra] adds result-level fields
    (e.g. [("scale", Int n)] for scaling sweeps). *)

val cell_json : Efficiency.cell -> json

(** The batch-vs-tuple comparison a fig7 report can carry: the same
    engines and workload measured at the configured batch size and again
    degraded to one-row batches through the identical operator code,
    with each run's engines ranked by total censored-capped page I/O. *)
type batch_comparison = {
  cmp_batch_size : int;  (** the vectorized run's batch size *)
  batch_seconds : float;  (** total seconds across the table, batched *)
  tuple_seconds : float;  (** total seconds at [batch_size = 1] *)
  batch_ranking : string list;
  tuple_ranking : string list;
}

val fig7_json : ?batch:batch_comparison -> Efficiency.table -> json
(** The whole Figure-7 table: [kind = "fig7"], plus the [batch]
    comparison object when provided. *)

val crash_json : Differential.crash_report -> json
(** A crash-point sweep: [kind = "crash"], one result per crash point. *)

val traffic_json : Traffic.report -> json
(** A traffic run: [kind = "traffic"], one leg per session. *)

val chaos_json : Chaos.report -> json
(** A chaos run: [kind = "chaos"], one leg per traffic leg (fault-free
    baseline, then chaos). *)

val schema_version : int
(** The one report version written and accepted (7). *)

val bench_json :
  kind:string ->
  (string * json) list ->
  results:json list ->
  json
(** Generic report envelope: [schema_version], [kind], extra top-level
    fields, and the [results] array. *)

(* --- validation --------------------------------------------------------- *)

val validate_bench : json -> (unit, string) result
(** The sanity check CI applies to every [BENCH_*.json]: the envelope
    fields are present and well-typed, every result carries the
    engine/test/page_ios/seconds/censored quintet, and every embedded
    profile reconciles ([reads + writes = operator_ios + other_ios],
    operator trees internally consistent). *)

val validate_constant_templates : json -> (unit, string) result
(** The compile-once invariant: within one report, every (engine, test)
    pair must show the same [templates_built] across all its results —
    a scaling sweep whose template count grows with data size means
    planning happens per outer tuple again. *)

val validate_structural_gain : json -> (unit, string) result
(** The structural-index payoff gate over a [BENCH_structural.json]
    report: every test named ["deep-*"] must carry measurements for both
    [m4] and [m4-nostruct], and the m4 page I/O must be strictly lower.
    Errors when no deep tests are present at all. *)

val validate_batch_gain : json -> (unit, string) result
(** The vectorization payoff gate over a [BENCH_fig7.json] report: the
    [batch] comparison object must be present, the batched run must be
    strictly faster than the tuple-at-a-time run, and the engine
    rankings of the two runs must agree. *)

val validate_lint : schema_version:int -> json -> (unit, string) result
(** The check [testbed check-lint] applies to an [xqdb-lint] JSON
    report: [schema_version] equal to the given one, [tool] is
    [xqdb-lint], [count] matches the [findings] array, and every
    finding carries [rule]/[file]/[line]/[col]/[message]. *)

val parse_file : string -> (json, string) result

val validate_file : string -> (unit, string) result
(** Read, parse and {!validate_bench} one file. *)
