(** B+-trees over variable-length byte keys and values.

    Keys compare by unsigned lexicographic byte order — use
    {!Bytes_codec}'s order-preserving key encoders to build composite
    keys.  Keys are unique; inserting an existing key replaces its value.
    Leaves are chained left-to-right, so range scans are sequential.

    Milestone 4 builds three of these per document: the clustered primary
    index on [in] (tuples stored in the leaves), the label index on
    [(type, value, in)] and the parent index on [(parent_in, in)].
    Students' "creative workaround" — sorting by inserting into a
    clustered B-tree — is {!of_cursor} plus a full scan.

    Deletion is lazy (no rebalancing): the course kept updates minimal,
    and bulk-load-then-query is the only write pattern the system needs.

    Each tree owns a meta page recording the root and entry count, so a
    tree can be reopened from just that page id (via the {!Catalog}). *)

type t

val create : Buffer_pool.t -> t
val open_existing : Buffer_pool.t -> meta_page:int -> t
val meta_page : t -> int

val entry_count : t -> int
val height : t -> int
(** 1 for a lone leaf. *)

val leaf_pages : t -> int
(** Number of leaf pages, from meta statistics (maintained on split). *)

val insert : t -> key:bytes -> value:bytes -> unit
(** @raise Invalid_argument if the cell exceeds a quarter page. *)

val find : t -> key:bytes -> bytes option

val delete : t -> key:bytes -> bool
(** Lazy delete; [true] if the key was present. *)

val scan_range : ?lo:bytes -> ?hi:bytes -> t -> unit -> (bytes * bytes) option
(** Pull cursor over entries with [lo <= key <= hi] (both inclusive,
    both optional) in key order. *)

val scan_prefix : t -> prefix:bytes -> unit -> (bytes * bytes) option
(** All entries whose key starts with [prefix], in key order. *)

val scan_range_pages :
  ?lo:bytes -> ?hi:bytes -> t -> unit -> (int * (bytes * bytes) array) option
(** Page-at-a-time variant of {!scan_range}: each pull pins one leaf and
    returns its page id with all its qualifying cells (never an empty
    array), decoded inside a single [with_page] window instead of one
    pool round-trip per entry.  The page id lets a consumer that pauses
    partway through a leaf touch it again when it resumes, as the
    row-at-a-time cursor would.  The page touches, in order and up to
    immediate repeats, are those of {!scan_range}.  The batch operators
    are built on this. *)

val scan_prefix_pages :
  t -> prefix:bytes -> unit -> (int * (bytes * bytes) array) option
(** Page-at-a-time variant of {!scan_prefix}. *)

val iter : t -> (bytes -> bytes -> unit) -> unit

val of_cursor : Buffer_pool.t -> (unit -> (bytes * bytes) option) -> t
(** Bulk-load from a cursor yielding entries in strictly increasing key
    order; builds packed leaves bottom-up.
    @raise Invalid_argument if keys are not strictly increasing. *)

val check_invariants : ?min_fill:float -> t -> unit
(** Walk the whole tree verifying key order, separator correctness,
    balance, meta accounting (entry and leaf counts) and leaf chaining;
    raises [Failure] with a diagnostic otherwise.  Used by the property
    tests.

    [min_fill] (a fraction of the usable page, default [0.]) additionally
    requires every non-root node to carry at least that many live bytes —
    a meaningful occupancy floor only for insert-only workloads, since
    lazy deletion may legally empty a leaf. *)
