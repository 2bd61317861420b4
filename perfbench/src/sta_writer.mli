(** A [.sta] writer for in-memory designs, so a generated design can be
    loaded the way a client loads one: through a file and the parser.

    The text format has no card for a design's supply or threshold, so
    the writer assumes the defaults (5 V, 0.5) that [Sta.Synth]
    designs use; the benchmark checks every round trip by comparing
    analyses of the original and the re-parsed design. *)

val to_string : Sta.design -> string
(** Cells, gates in declaration order, nets, inputs, outputs in
    declaration order, constraints and clock.  Raises
    [Invalid_argument] when two gates use different values under one
    cell name. *)

val write_file : string -> Sta.design -> unit
