(** Incremental ECO timing sessions.

    A session loads a design once — Kahn wave schedule, full initial
    analysis against a private structure cache; connectivity is read
    from the design's own index ({!Timing.sinks_of}) — then accepts a stream of typed {!edit}s and re-times only the
    {e dirty cone}: a net is re-solved exactly when its own content
    changed (wire values or topology, sink pin caps, driver strength)
    or its input slew changed bitwise; everything else is served from
    the per-net memo, and arrival changes propagate forward only while
    a net's timing tuple actually changed (bitwise).  The min-plus
    required-time/slack pass back-propagates over the same frontier.

    {b Bit-identity contract.}  After any sequence of applied edits,
    {!retime}'s report has bit-identical [nets], [critical_arrival],
    [critical_path], [slacks], [worst_slack] and [failures] to a cold
    {!Timing.analyze} of the edited design, for every [jobs] value
    (dirty-cone waves reuse the chunked pool and sharded publication
    of [analyze]); only [stats] differs — it reports the incremental
    work actually done (the [eco_*] counters) instead of the cold
    solve counts.  The session cache's {!Timing.cache_fingerprint} is
    kept equal to what a cold cached analyze of the {e current} design
    would publish, by refcounting each live net's cache keys and
    retiring entries at refcount zero — so edit-then-revert restores
    the original fingerprint exactly.  See THEORY.md, "Incremental
    timing and dirty cones".

    Sessions are strict: a failing net rolls the session back to the
    last successfully-timed state (a {e full fallback}: the design
    edits since then are undone and the analysis rebuilt cold), and
    the failure is reported as an [Error].

    Not thread-safe: drive a session from one domain. *)

type edit =
  | Set_resistance of { net : string; index : int; value : float }
      (** set segment [index] (0-based) of [net]'s wire to [value] Ohms *)
  | Set_capacitance of { net : string; index : int; value : float }
      (** set segment [index]'s grounded capacitance to [value] Farads *)
  | Reroute of { net : string; index : int; seg_from : string; seg_to : string }
      (** re-anchor segment [index] between two net-local nodes,
          keeping its R/C values *)
  | Swap_sink of { inst : string; from_net : string; to_net : string }
      (** re-connect the first [from_net] input pin of gate [inst] to
          [to_net] *)
  | Set_inputs of { inst : string; inputs : string list }
      (** replace gate [inst]'s whole input list (the general form
          {!Swap_sink} is sugar for; also its undo image) *)
  | Set_drive of { inst : string; value : float }  (** drive resistance *)
  | Set_pin_cap of { inst : string; value : float }  (** input pin cap *)
  | Set_intrinsic of { inst : string; value : float }  (** intrinsic delay *)
  | Set_constraint of { net : string; required : float }
      (** add or overwrite a required-time constraint *)
  | Remove_constraint of { net : string }
  | Set_clock of { period : float }  (** set or overwrite the clock *)
  | Remove_clock

type totals = {
  total_edits : int;  (** edits applied (reverts included) *)
  total_retimes : int;  (** successful re-times, initial load included *)
  total_dirty : int;  (** nets re-solved across all re-times *)
  total_reused : int;
      (** nets whose solve was reused: untouched, or re-timed from the
          memo by arrival arithmetic alone *)
  total_fallbacks : int;  (** full fallbacks taken *)
  total_visits : int;
      (** net visits by the re-time passes, forward plus backward: the
          size of the dirty cones the re-times walked (a full re-time
          visits every net twice) *)
}

type t

val create :
  ?model:Timing.delay_model ->
  ?sparse:bool ->
  ?jobs:int ->
  ?reduce:bool ->
  Timing.design ->
  t
(** Load a design: build the wave schedule from the design's index,
    then run the full initial analysis (a cold [analyze] against the
    session's fresh cache).  The session owns the design — callers
    must not mutate it behind the session's back.  Raises what
    [analyze] raises ([Malformed], [Not_a_dag], [Invalid_argument] on
    negative [jobs]); additionally rejects ([Malformed]) designs where
    a net has several drivers or a primary input is also a gate output
    — multi-driver anomalies [analyze] resolves by declaration-order
    accident, which a persistent session refuses to depend on. *)

val design : t -> Timing.design
(** The session's (edited) design — the exact object a scratch
    [analyze] must agree with. *)

val apply : t -> edit -> (unit, string) result
(** Validate and apply one edit.  [Error] leaves the session (and the
    design) untouched; [Ok] records the edit (and its undo image) and
    marks the affected cone dirty.  Re-timing is deferred to
    {!retime}, so an edit burst pays one propagation. *)

val retime : t -> (Timing.report, string) result
(** Re-time the dirty cone (no-op when nothing is pending) and return
    the report.  On a per-net failure (e.g. an edit made a threshold
    unreachable), rolls every edit since the last successful re-time
    back, rebuilds the analysis cold ({!totals}[.total_fallbacks]),
    and returns the failing net's diagnostic as [Error] — the session
    stays usable at its last good state. *)

val report : t -> Timing.report
(** The last successfully computed report (without re-timing; use
    {!retime} after edits). *)

val pending_edits : t -> int
(** Edits applied since the last successful re-time. *)

val revert : t -> (edit, string) result
(** Undo the most recent applied edit (reverts cross re-time
    boundaries: a session remembers its whole edit history since
    load).  Returns the edit that was undone.  [Error] when the
    history is empty. *)

val revert_all : t -> int
(** Undo the entire edit history, newest first; returns how many
    edits were undone.  A subsequent {!retime} restores the original
    report and cache fingerprint exactly. *)

val cache : t -> Timing.cache
(** The session's structure cache, for fingerprinting — equal, as a
    key set, to what a cold cached [analyze] of the current design
    publishes. *)

val totals : t -> totals
(** Cumulative ECO tallies since load. *)
