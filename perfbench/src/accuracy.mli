(** Accuracy of a report against the in-repo transient simulator, on a
    fixed sample of the design's stages.  A pure function of the design
    and the report: the sample does not follow the workload seed, so
    the figure compares across runs; computed outside the timed
    loop. *)

type t = {
  delay_rel_err : float;
      (** worst |AWE - reference| / reference of the 50% rise delay
          over the sampled sinks, AWE being the report's delay
          ([Sta.analyze]'s reduced, cached, adaptive-order result) and
          the reference an adaptive trapezoidal simulation of the
          unreduced stage circuit ([Sta.net_circuit]) *)
  oracle_rel_l2 : float;
      (** worst [Verify.Oracle.check] transient-normalized L2 waveform
          error (the paper's error measure) over the same sinks *)
  sinks : int;  (** sinks checked *)
  oracle_failures : string list;
      (** sinks the oracle flagged, or whose reference never crossed *)
}

val check : count:int -> Sta.design -> Sta.report -> t
(** Check every sink of [count] nets with sinks, drawn by a fixed
    pseudo-random sample. *)
