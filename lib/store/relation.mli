(** A relation instance: a set of same-arity tuples stored columnar
    over an intern pool.

    Every tuple is stored once, as a flat run of interned ids in one
    [int array], so dedup, index keys and bound scans are pure int
    work. The engine's join reads matching rows by slot through
    {!lookup_key} and {!get}; the tuple-level reads ({!iter}, {!fold},
    {!to_list}, {!lookup}) decode a fresh tuple per row and serve the
    boundaries (queries, snapshots, dumps, the [Reference]
    oracle). Decoded values are the pool's representatives: equal
    under {!Wdl_syntax.Value.equal} to what was inserted, not
    necessarily the same boxes.

    One index policy: a probe with bound positions [{i1 < … < ik}]
    builds the index on those positions once the relation holds
    [index_threshold] (16) tuples, and keeps it. Builds are counted by
    [wdl_store_index_builds_total]. [~indexing:false] disables index
    creation (used for one-iteration delta relations). *)

type t

val create : ?pool:Intern.t -> ?indexing:bool -> arity:int -> unit -> t
(** [pool] (default: a private fresh pool) is the intern table backing
    this relation; relations of one database share one pool so joins
    compare ids, not values. *)

val arity : t -> int
val pool : t -> Intern.t
val cardinal : t -> int
val is_empty : t -> bool

val insert : t -> Tuple.t -> bool
(** [true] iff the tuple was not already present. Each value costs
    exactly one pool probe (find-or-add); dedup compares interned
    rows. Raises [Invalid_argument] on arity mismatch. *)

val reserve : t -> int -> unit
(** [reserve r extra] pre-sizes slot storage and the dedup table for
    [extra] further inserts, so a batch load pays one growth instead
    of O(log n) doubling rehashes. *)

val delete : t -> Tuple.t -> bool
(** [true] iff the tuple was present. Never grows the pool. *)

val mem : t -> Tuple.t -> bool
val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list
(** In unspecified order. *)

val to_sorted_list : t -> Tuple.t list

val lookup : t -> (int * Wdl_syntax.Value.t) list -> (Tuple.t -> unit) -> unit
(** [lookup rel bound f] calls [f] on every tuple agreeing with the
    [(position, value)] constraints. [bound] may be empty (full
    scan). Same index policy as {!lookup_key}. *)

val lookup_key :
  t -> int array -> Wdl_syntax.Value.t array -> (int -> unit) -> unit
(** [lookup_key rel positions key f]: the compiled-plan path. Calls
    [f] on the slot of every row agreeing with [key] on [positions];
    read its columns with {!get}. [positions] must be sorted ascending
    and [key] aligned with it; empty [positions] scans every row. A
    key value foreign to the pool answers instantly: nothing can
    match. Slots stay valid while the callback inserts (the fixpoint
    derives into the relation it reads), not across a {!delete} or
    {!clear}. *)

val get : t -> int -> int -> Wdl_syntax.Value.t
(** [get rel slot i]: column [i] of the row at [slot], read from the
    pool with no tuple allocated. *)

val clear : t -> unit
val copy : t -> t
(** Deep copy sharing the pool. Indexes are copied, not dropped — a
    snapshot answers its first lookup at full speed. *)

val index_count : t -> int
(** Number of materialised indexes (observability for tests/bench). *)

val memory_bytes : t -> int
(** Approximate heap footprint of rows, dedup table and index
    structures (pool excluded — it is shared). *)

val builds_total : int ref
(** Process-wide index builds (mirrors [wdl_store_index_builds_total]). *)
