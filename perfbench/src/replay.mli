(** Replays one cold analysis net by net through public calls, so the
    traced run can split the analysis wall time across layers without
    instrumenting the program.

    Two passes over the Kahn waves of the design, in the order
    [Sta.analyze] solves them at [jobs = 1] ([sparse], [reduce], the
    adaptive model):

    + [Sta.solve_net] for every net, against a fresh cache with the
      analysis's per-wave frozen view and shard: its total is the solve
      share of the analysis, the rest is timing bookkeeping;
    + each layer of the per-net pipeline on its own: stage build
      ([Sta.net_circuit]), reduction ([Circuit.Reduce.reduce]), keying
      ([Circuit.Canon.hashes]) for every net with sinks; MNA build,
      DC factorization, engine + adaptive fit, error estimate at the
      chosen order and the four threshold crossings only for the nets
      whose exact key is new (every other net is a cache hit).

    Both passes check themselves against the report: every net's
    delays must come back bit for bit, and the replayed cache verdicts
    and solver work must equal the report's counters. *)

val vdd : float

val threshold : float
(** The supply and switching threshold of [Sta.Synth] designs. *)

type driver = { driver_res : float; slew : float }

val drivers : Sta.design -> Sta.report -> (string, driver) Hashtbl.t
(** Each net's driver resistance and input slew, as the analysis that
    produced the report derived them. *)

type layers = {
  solve_s : float;  (** sum of [Sta.solve_net] wall times *)
  solved_nets : int;
  stage_s : float;
  reduce_s : float;
  key_s : float;
  mna_s : float;
  factor_s : float;
  auto_s : float;
  errest_s : float;
  crossing_s : float;
  computed_nets : int;  (** nets whose exact key was new *)
  mismatches : string list;  (** empty when the replay reproduced the report *)
}

val run : ?trace:Trace.t -> Sta.design -> Sta.report -> layers
