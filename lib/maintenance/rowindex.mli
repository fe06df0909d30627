(** Multi-valued hash index from keys stored {e in} columnar rows to the
    set of row ids holding each key.

    One head row per distinct key lives in a {!Rowmap}; the other rows of
    the key are chained through row-parallel 32-bit [next]/[prev] links.
    Adding and removing a row are O(1), a lookup is O(matching rows), and
    the whole index costs 8 bytes per row plus the head table — no
    per-key bucket objects.

    Like {!Rowmap}, the index stores no keys: [hash r] and [same r r'] read
    the owning state's cells, so every operation that needs them must run
    while the rows involved still hold their cells (before the owner's
    column swap-delete). Row ids are dense: row [r] is added when it is
    appended ([r = length t]) and removed by {!swap_delete}, which mirrors
    the owner's swap-with-last deletion. *)

type t

(** [create ~hash ~same ()]: [hash r] is the hash of row [r]'s key cells
    (it must agree with the hash callers pass to {!iter_key}), [same r r']
    whether rows [r] and [r'] carry equal keys. *)
val create : hash:(int -> int) -> same:(int -> int -> bool) -> unit -> t

(** Rows indexed (= the owner's row count). *)
val length : t -> int

(** [append t r] indexes the just-appended row [r].
    @raise Invalid_argument unless [r = length t]. *)
val append : t -> int -> unit

(** [swap_delete t r] unindexes row [r] and renumbers the last row into
    [r], exactly as the owner's swap-with-last deletion will; call it
    before the owner moves its cells. *)
val swap_delete : t -> int -> unit

(** [iter_key t ~hash ~eq f] applies [f] to every row whose key matches:
    [hash] is the probe key's hash, [eq r] decides whether row [r] carries
    the probe key. *)
val iter_key : t -> hash:int -> eq:(int -> bool) -> (int -> unit) -> unit

(** [copy t ~hash ~same] duplicates the index for a copied owner; the
    closures must read the {e new} owner's columns. *)
val copy : t -> hash:(int -> int) -> same:(int -> int -> bool) -> t

val byte_size : t -> int
