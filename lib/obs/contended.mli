(** Instrumented mutex: a [Mutex.t] wrapper that counts acquisitions,
    contended acquisitions (the fast-path [try_lock] failed), and
    total/max wait and hold nanoseconds, so the known hot locks
    (estimator slots, registry exposition) answer
    "where does the time go" with numbers instead of guesses.

    The uncontended fast path adds one atomic increment, a [try_lock]
    and two clock reads over a bare mutex. Counter updates are atomic,
    so [stats] may be read from any domain at any time; values are
    monotonic but mutually unsynchronized (a reader can observe an
    acquisition before its hold time lands).

    Every mutex created here is kept on a global list for
    {!aggregate}, so create them per lock *site* (at module or
    structure init), not per operation. *)

type t

type stats = {
  acquisitions : int;
  contended : int;  (** acquisitions that found the lock held *)
  wait_ns_total : int;
  wait_ns_max : int;
  hold_ns_total : int;
  hold_ns_max : int;
}

val create : string -> t
(** [create name] — [name] keys the aggregate export; reuse the same
    name for locks that should report as one series. *)

val lock : t -> unit
val unlock : t -> unit
val with_lock : t -> (unit -> 'a) -> 'a

val wait : t -> Condition.t -> unit
(** [wait t cond] is [Condition.wait cond (mutex t)] with hold
    accounting split around the wait: the current hold segment ends,
    and the reacquisition on wakeup starts a new one. *)

val mutex : t -> Mutex.t
(** The underlying mutex, for [Condition.signal]-style interop. Do not
    lock it directly — accounting would be skipped. *)

val name : t -> string
val stats : t -> stats

val all : unit -> t list
(** Every instrumented mutex created so far, in creation order. *)

val aggregate : unit -> (string * stats) list
(** Stats summed per name, sorted by name. *)
