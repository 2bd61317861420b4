(** Solve keys: name-free circuit serializations for the structure cache.

    Timing designs instantiate the same few interconnect templates
    thousands of times, differing only in node and element names.  The
    STA layer builds every net's stage circuit in a fixed construction
    order, so two instances of one template number their nodes and list
    their elements identically.  This module serializes a frozen
    circuit in that order with all names stripped, and the strings
    themselves are the cache keys:

    - [signature] keys the {e exact} tier: node count, then each
      element's kind, port node ids, resolved references and IEEE-754
      value bits (so [0.1] and a value merely printed the same never
      collide; [-0.0] and [0.0] differ).  Equal signatures mean the
      two circuits stamp element-for-element identical MNA systems —
      same node ids, same value bits — so every downstream result
      (factors, moments, fitted models) is bitwise reusable.
    - [pattern] keys the {e pattern} tier: the same serialization
      without values or waveforms.  Equal patterns mean the same
      elements stamp the same positions, so (values being nonzero) the
      MNA matrices share one sparsity pattern and one symbolic
      factorization ({!Sparse.Slu.symbolic}) serves both.  The pattern
      tier still checks {!Sparse.Slu.pattern_matches} before reusing a
      symbolic; the key is an index, the check is the guarantee.

    Both keys are construction-order: a relabeled or reordered copy of
    a circuit gets different keys and simply misses the cache, never
    hits it wrongly.

    Controlled-source references ([Ccvs]/[Cccs] controlling sources,
    [Mutual] inductor pairs) are resolved through the circuit to the
    referenced element's index, not its name.  STA-built interconnect
    nets contain none of these; the resolution keeps the keys
    well-defined and name-free on full decks. *)

type keys = {
  pattern : string;  (** value-free serialization: the pattern-tier key *)
  signature : string;  (** bit-exact serialization: the exact-tier key *)
}

val hashes : Netlist.circuit -> keys
(** Both solve keys of a circuit, from one shared name index. *)
