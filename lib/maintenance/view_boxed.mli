(** Boxed reference implementation of {!View_state} (one record per group).

    Kept as the oracle for the columnar storage equivalence tests and as
    the baseline of [bench columnar]; not used by the engine itself.

    Following the paper's convention that view aggregates are replaced by
    their Table 2 distributive components before maintenance (Section 3.1),
    each group stores internal components — a base-row count [cnt0], running
    SUM/COUNT pairs, current extrema and DISTINCT argument multisets — from
    which the visible select-list values are rendered on demand.

    CSMAS components and DISTINCT multisets (value -> base rows carrying
    it) are maintained exactly under both feeds and unfeeds; MIN/MAX under
    deletion mark their group {e dirty} when the current extremum is
    removed, so the engine can recompute them from the auxiliary views,
    exactly as Section 3.2 prescribes. In {e determined} mode (used when the
    root auxiliary view has been eliminated, where every non-CSMAS argument
    is functionally determined by the group key) no group is dirtied. *)

type contrib =
  | C_count of int
  | C_sum of { amount : Relational.Value.t; n : int }
  | C_value of Relational.Value.t

type t

(** [create ?shards view ~determined] prepares empty state for a validated
    view. [shards] (a power of two, default 1) splits groups, the dirty set
    and the undo journal into hash shards so a parallel applier can hand
    disjoint shards to disjoint domains; sharding is invisible to accessors
    and to {!equal}.
    @raise Invalid_argument if [shards] is not a positive power of two. *)
val create : ?shards:int -> Algebra.View.t -> determined:bool -> t

val shard_count : t -> int

(** Shard that owns group key [key]. *)
val shard_of_key : t -> Relational.Tuple.t -> int

(** Deep copy: groups (and their component arrays) and the dirty set are
    duplicated so the copy and the original evolve independently (snapshot
    checkpoints). The copy carries no open transaction. *)
val copy : t -> t

(** Structural equality of the resident state: groups (base count and every
    aggregate component) and the dirty set. Open transactions are ignored. *)
val equal : t -> t -> bool

(** {2 Batch transactions}

    First-touch undo journal over groups plus a saved dirty set; rollback
    restores exactly the groups a batch touched — O(delta), never O(state). *)

(** Whether an undo journal is currently open. *)
val in_txn : t -> bool

(** Opens an undo journal; subsequent {!feed}/{!unfeed}/{!set_value}/
    {!adjust_group} calls are journaled.
    @raise Invalid_argument if a transaction is already open. *)
val begin_txn : t -> unit

(** Discards the journal, keeping all mutations.
    @raise Invalid_argument if no transaction is open. *)
val commit : t -> unit

(** Restores every touched group to its before-image, restores the dirty
    set, and closes the journal.
    @raise Invalid_argument if no transaction is open. *)
val rollback : t -> unit

val view : t -> Algebra.View.t
val group_count : t -> int

(** [feed t ~key ~cnt contribs] adds one (possibly weighted) row's
    contribution; [contribs] has one entry per select item ([None] for
    group-by items). Creates the group when new. *)
val feed : t -> key:Relational.Tuple.t -> cnt:int -> contrib option array -> unit

(** Reverse of {!feed}; removes the group when its base-row count reaches
    zero.
    @raise Invalid_argument on underflow or missing group. *)
val unfeed :
  t -> key:Relational.Tuple.t -> cnt:int -> contrib option array -> unit

(** Groups marked dirty (a MIN/MAX whose extremum was deleted) since the
    last call; clears the set. *)
val take_dirty : t -> Relational.Tuple.t list

val is_dirty_pending : t -> bool

(** [set_value t ~key ~item v] overwrites the recomputed extremum of a
    MIN/MAX item. No-op if the group has disappeared.
    @raise Invalid_argument if [item] is not a non-DISTINCT MIN/MAX. *)
val set_value : t -> key:Relational.Tuple.t -> item:int -> Relational.Value.t -> unit

(** [adjust_group t ~key ~new_key updates] rewrites a group's key and applies
    per-item component updates (used for dimension updates when the root
    auxiliary view is eliminated): [updates] maps item index to the update.
    @raise Invalid_argument if the group is missing or [new_key] collides. *)
type component_update =
  | Shift_sum of Relational.Value.t  (** sum += delta * n *)
  | Set_current of Relational.Value.t
      (** extremum := v; DISTINCT multiset := every base row carries v *)

val adjust_group :
  t ->
  key:Relational.Tuple.t ->
  new_key:Relational.Tuple.t ->
  (int * component_update) list ->
  unit

(** Fold over groups as (key, base-row count). *)
val fold_groups : t -> (Relational.Tuple.t -> int -> 'a -> 'a) -> 'a -> 'a

(** Render the view contents in select-list order. *)
val render : t -> Relational.Relation.t
