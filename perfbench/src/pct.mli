(** Order statistics for the benchmark's latency samples. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even
    count.  Raises [Invalid_argument] on an empty list. *)

val mean : float list -> float

val beyond : n:int -> int -> int
(** Samples strictly above the nearest-rank position of percentile
    [p10 / 10] in a set of [n]. *)

val tail_percentile : n:int -> int option
(** The highest percentile of the ladder 99.9, 99, 95, 90, 75 (in
    tenths) that leaves at least 10 of [n] samples beyond it; [None]
    when even the 75th leaves fewer. *)

val tail : float list -> float * float
(** [(percentile, value)] of the tail: the {!tail_percentile} of the
    sample count, or the median (reported as percentile 50) when the
    count supports no tail. *)
