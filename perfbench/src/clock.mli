(** Monotonic wall clock. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin. *)

val seconds_between : int64 -> int64 -> float

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with its wall time in
    seconds. *)
