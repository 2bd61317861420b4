(** The seeded request script of the [eco_serve] workload.

    Edit sites are the [block * block] gates and nets in the last
    [block] rows and columns of a [Sta.Synth.grid] (nets [w<r>_<c>],
    gates [g<r>_<c>]), where every dirty cone is at most
    [block * block] nets: the script measures the per-retime cost that
    does not depend on the cone, not near-cold retimes.

    One cycle visits every site once, in an order drawn from the seed.
    Each visit is a burst of one, two or three edits of distinct kinds
    ([set_r], [set_c], [set_drive], values scaled by 0.5x to 2x), a
    [timing --top-k 10] read, a [revert all] and a second read, so every
    visit starts from the loaded design.  A visit's edits are a fixed
    function of its site and no edit outlives its visit: the seed orders
    the visits, and every seed re-times the same cones from the same
    state with the same values, so seeds give comparable work.  (Letting
    edits accumulate between visits made the solver work, and the
    allocation per request, move by several percent from seed to
    seed.) *)

type request =
  | Edit of Sta.Session.edit
  | Timing
  | Revert_all

val line : request -> string
(** The protocol line of a request. *)

val block : int

val cycle : seed:int -> rows:int -> cols:int -> Sta.design -> request list
(** One cycle, a pure function of [seed] and the design's values. *)

val first_burst : request list -> request list
(** The cycle's first edit burst and its [timing] read. *)
