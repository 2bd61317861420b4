(** A small static timing analyzer built on AWE net-delay evaluation —
    the application context of the paper's introduction: a design is
    divided into stages, each a gate output driving an interconnect
    path (Fig. 1), and the per-stage delay comes from a reduced-order
    model of the stage's linear circuit.

    Gates use the classical linear model (paper, Section II): an
    output ("drive") resistance, an input capacitance per pin, and an
    intrinsic delay.  Nets are resistive trees (or meshes) with
    distributed capacitance.  Per-net delays are measured at a logic
    threshold on the AWE waveform; arrival times propagate through the
    gate/net DAG in topological order. *)

type cell = {
  cell_name : string;
  drive_res : float;  (** Thevenin output resistance, Ohms *)
  input_cap : float;  (** capacitance of each input pin, Farads *)
  intrinsic : float;  (** gate-internal delay, seconds *)
}

val cell : name:string -> drive_res:float -> input_cap:float -> intrinsic:float -> cell

type segment = {
  seg_from : string;
  seg_to : string;
  res : float;
  cap : float;  (** grounded capacitance at [seg_to] *)
}
(** One RC wire segment of a net; [seg_from]/[seg_to] are net-local
    node names, with ["drv"] the driver pin. *)

type delay_model =
  | Elmore_model  (** first-order: Elmore delay at each sink *)
  | Awe_model of int  (** AWE at a fixed order *)
  | Awe_auto  (** AWE with adaptive order control *)

type design

val create : ?vdd:float -> ?threshold:float -> unit -> design
(** [threshold] is the switching threshold as a fraction of [vdd]
    (default 0.5). *)

val add_gate :
  design -> inst:string -> cell:cell -> inputs:string list -> output:string -> unit
(** Declare a gate instance: [inputs] and [output] are net names.  The
    output net must be driven by exactly one gate or primary input. *)

val add_net : design -> name:string -> segments:segment list -> unit
(** Declare a net's interconnect tree.  Sinks attach (with their input
    capacitance) at the net-local node that carries the sink gate's
    name, i.e. a segment whose [seg_to] equals the sink instance
    name. *)

val add_primary_input : design -> net:string -> ?arrival:float -> ?slew:float -> unit -> unit
(** Drive a net from outside the design ([slew] is the input rise time
    seen by the net, default 0 = ideal step).  Raises [Malformed] on a
    duplicate declaration for the same net, or on a negative [arrival]
    or [slew]. *)

val add_primary_output : design -> net:string -> unit
(** Raises [Malformed] on a duplicate declaration for the same net. *)

val add_constraint : ?line:int -> design -> net:string -> required:float -> unit
(** Require the signal on [net] to settle by [required] seconds: the
    net becomes a timing endpoint, and {!analyze} back-propagates the
    requirement into per-pin slacks.  The requirement binds at the
    net's sink pins (where arrivals are measured), or at the driver
    pin when the net has no sinks (a primary-output stub).  [line]
    records the source line of the card for diagnostics.  Raises
    [Malformed] on a duplicate constraint for the same net or a
    negative/non-finite time. *)

val set_clock : ?line:int -> design -> period:float -> unit
(** Give every {e unconstrained} primary output a default required
    time of one clock period — the usual single-cycle constraint.
    Explicit {!add_constraint} cards win over the clock default.
    [line] records the source line of the card for diagnostics.
    Raises [Malformed] when a clock was already set or the period is
    not positive. *)

val clock_period : design -> float option

val constraints : design -> (string * float) list
(** All explicit constraints, sorted by net name. *)

val constraint_line : design -> string -> int option
(** Source line of the [constraint] card naming the net, when the
    design came from a parsed file (or the card was added with
    [~line]). *)

val clock_line : design -> int option
(** Source line of the [clock] card, when recorded. *)

(** {2 In-place edits}

    The ECO vocabulary ({!Session}): each mutator validates first and
    mutates only on success, so a rejected edit (raised [Malformed])
    leaves the design untouched.  Gate edits preserve declaration
    order — sink order, DAG edge order and worst-input tie-breaks all
    follow it, so an edited design analyzes exactly like a design
    built with the new values from scratch. *)

val replace_net_segments : design -> net:string -> segments:segment list -> unit
(** Replace a declared net's wire model.  Raises [Malformed] on an
    unknown net, an empty segment list, or non-positive resistance /
    negative capacitance values. *)

val set_gate_cell : design -> inst:string -> cell:cell -> unit
(** Replace a gate instance's cell (drive resistance, pin capacitance,
    intrinsic delay).  Raises [Malformed] on an unknown instance. *)

val set_gate_inputs : design -> inst:string -> inputs:string list -> unit
(** Replace a gate instance's input net list (pin order preserved as
    given).  Raises [Malformed] on an unknown instance or an empty
    list; net existence is the caller's contract (as for
    {!add_gate}). *)

val set_required : design -> net:string -> required:float option -> unit
(** Set, update, or ([None]) remove the required-time constraint on a
    net.  Unlike {!add_constraint} this overwrites an existing
    constraint; the source-line attribution is dropped (the card no
    longer matches the value).  Raises [Malformed] on a
    negative/non-finite time. *)

val update_clock : design -> period:float option -> unit
(** Set, update, or ([None]) remove the clock period.  Unlike
    {!set_clock} this overwrites; the source-line attribution is
    dropped.  Raises [Malformed] on a non-positive period. *)

val primary_input : design -> string -> (float * float) option
(** [(arrival, slew)] of a primary-input net, if the net is one. *)

val gate_details : design -> (string * cell * string list * string) list
(** [(instance, cell, input nets, output net)] per gate, in
    declaration order — the full-record counterpart of
    {!gate_views}/{!gate_cells} for layers that need the numeric cell
    values. *)

(** {2 Connectivity index}

    Every design carries one net↔gate index, built by {!add_gate} /
    {!add_primary_output} and kept current by {!set_gate_cell} and
    {!set_gate_inputs} in time proportional to the edited gate's pins.
    [analyze], {!critical_paths}, {!net_circuit} and the {!Session}
    layer answer every connectivity question through it. *)

type gate = private {
  g_inst : string;
  mutable g_cell : cell;
  mutable g_inputs : string list;  (** net names, pin order *)
  g_output : string;
  g_seq : int;  (** declaration rank, 0 for the first gate *)
}
(** A gate as the index holds it.  Read-only outside this module; the
    record is shared with the design, so it reflects later edits. *)

val find_gate : design -> string -> gate option
(** The gate with this instance name. *)

val sinks_of : design -> string -> gate list
(** The gates listing the net among their inputs, newest declared
    first, one entry per gate even when it lists the net on several
    pins.  This order is the stage circuit's sink order. *)

val drivers_of : design -> string -> gate list
(** The gates whose output is the net, newest declared first. *)

val driver_of : design -> string -> gate option
(** The newest driver of the net (the head of {!drivers_of}). *)

val waves : design -> string list list
(** The Kahn wave schedule [analyze] times a strict, failure-free
    design in: wave 0 holds the declared primary-input nets, and a
    gate's output net joins the wave after the one in which the last
    of its inputs retired (a gate with no inputs never fires).  Each
    wave is sorted.  Raises [Not_a_dag] with the sorted nets that were
    never scheduled. *)

val connectivity_work : unit -> int
(** Gate records handed out by index lookups since the last
    {!reset_connectivity_work}, process-wide.  Deterministic (the same
    for any [jobs]), so complexity gates can count it instead of
    timing. *)

val reset_connectivity_work : unit -> unit

(** {2 Structural views}

    Read-only projections of a design's connectivity, for static
    analysis (the lint layer) without running any timing. *)

type gate_view = {
  gv_inst : string;
  gv_cell : string;
  gv_inputs : string list;  (** net names *)
  gv_output : string;  (** net name *)
}

val gate_views : design -> gate_view list
(** All gate instances, in declaration order. *)

val net_names : design -> string list
(** Names of all nets with a declared wire model, sorted (the index
    keeps the sorted order between {!add_net} calls). *)

val net_segments : design -> string -> segment list option
(** The wire segments of a net, if it has a declared wire model. *)

val primary_input_nets : design -> string list
(** Nets driven from outside the design, sorted. *)

val primary_output_nets : design -> string list
(** Declared primary outputs, in declaration order. *)

val gate_cells : design -> (string * cell) list
(** [(instance, cell)] per gate, in declaration order — the bulk
    accessor static analyses use to build their own lookup tables
    without going quadratic. *)

(** The net-level timing DAG {!analyze} orders its Kahn waves over:
    one vertex per referenced net name (declared nets, PI/PO and
    constraint targets, every gate pin), sorted; one edge from each
    distinct input net of a gate to its output net.  Exported so
    fixpoint passes (lint's cycle check and the backward
    constraint-coverage family) can run over the same graph the
    engine schedules on.  Cyclic designs still build a [t] — the
    edges simply close a cycle — so static analyses can diagnose
    them before {!analyze} raises [Not_a_dag]. *)
module Dag : sig
  type t = private {
    nets : string array;  (** sorted, unique *)
    index_tbl : (string, int) Hashtbl.t;
    succs : int array array;
    preds : int array array;
  }

  val of_design : design -> t

  val index : t -> string -> int option
end

exception Not_a_dag of string list
(** Combinational cycle through the named instances. *)

exception Malformed of string

type transition = Rise | Fall
(** Which signal edge a delay or slack refers to.  The stage circuits
    are linear, so a falling waveform is the rising one reflected
    about [vdd/2]: the fall delay is the rising response's crossing of
    the complementary level [(1 - threshold) * vdd].  At threshold 0.5
    the pair coincides; away from it min/max delays are distinct. *)

val transition_string : transition -> string
(** ["rise"] or ["fall"]. *)

type sink_timing = {
  sink_inst : string;
  net_delay : float;  (** rise threshold-crossing delay through the net *)
  net_delay_fall : float;  (** fall delay: the complementary crossing *)
  sink_slew : float;
      (** 10-90 transition time at the sink pin (reflection-invariant:
          one value serves both edges) *)
  arrival : float;  (** absolute rise arrival at the sink input *)
  arrival_fall : float;  (** absolute fall arrival at the sink input *)
}

type net_timing = {
  net_name : string;
  driver_arrival : float;  (** rise arrival at the driver pin *)
  driver_arrival_fall : float;  (** fall arrival at the driver pin *)
  sinks : sink_timing list;
}

type net_failure = {
  failed_net : string;
  reason : string;  (** the net's own diagnostic, or a propagation note *)
}
(** A net that could not be timed (non-strict mode only). *)

type pin_slack = {
  sp_net : string;
  sp_pin : string option;  (** sink instance; [None] = the driver pin *)
  sp_transition : transition;
      (** the {e binding} transition — the edge with less slack (ties
          go to rise) *)
  sp_arrival : float;
  sp_required : float;
  sp_slack : float;  (** [sp_required - sp_arrival]; negative = violated *)
}

type report = {
  nets : net_timing list;
  critical_arrival : float;  (** latest arrival at any primary output *)
  critical_path : string list;  (** nets on the latest path, source first *)
  slacks : pin_slack list;
      (** every pin a finite required time reaches (endpoint pins and
          everything upstream of them), at its binding transition,
          sorted worst slack first (ties by net then pin); empty when
          the design has no constraints and no clock *)
  worst_slack : float;
      (** minimum over [slacks]; [infinity] when unconstrained *)
  failures : net_failure list;
      (** nets skipped in non-strict mode, with their diagnostics;
          always empty when [strict] (the default) *)
  stats : Awe.Stats.snapshot;
      (** engine counters for this analysis: one MNA build and one
          factorization per net, however many sinks it has *)
}

type path_stage = {
  st_net : string;  (** the net this stage traverses *)
  st_pin : string option;
      (** arrival pin on [st_net]: a sink instance, or [None] for the
          driver pin (sinkless endpoint stub) *)
  st_gate_delay : float;
      (** intrinsic delay of the gate driving [st_net] (0 at a
          primary-input stage) *)
  st_net_delay : float;
      (** wire delay from the net's driver pin to [st_pin], at the
          path's transition (0 when [st_pin] is [None]) *)
  st_arrival : float;  (** absolute arrival at [st_pin] *)
}

type path = {
  path_endpoint : string;  (** endpoint net *)
  path_pin : string option;  (** endpoint pin ([None] = driver pin) *)
  path_transition : transition;  (** the endpoint pin's binding edge *)
  path_input_arrival : float;
      (** arrival card of the primary input sourcing the path *)
  path_arrival : float;
  path_required : float;
  path_slack : float;
  path_stages : path_stage list;
      (** source first; [path_input_arrival] plus the sum of every
          stage's gate and net delay reproduces [path_arrival] (up to
          floating-point re-association) *)
}

type cache
(** A structure-sharing cache across nets (and across [analyze]
    calls).  Two tiers, both keyed on the stage circuit's
    construction-order serialization ({!Circuit.Canon}): an {e exact}
    tier keyed on the bit-exact signature (plus model, threshold, vdd,
    input slew and sink set), which serves a whole net's timings from
    the first identical instance; and a {e pattern} tier keyed on the
    value-free signature, which reuses the symbolic sparse
    factorization across structurally identical nets ([sparse] runs
    only).  Hits are bit-identical to recomputation: equal exact keys
    stamp identical systems, and the pattern tier re-checks the matrix
    pattern before reuse. *)

val create_cache : ?patterns:Awe.Cache.patterns -> unit -> cache
(** [patterns] (default: a fresh private store) is the pattern-tier
    store the cache shares — pass one store to several caches to share
    symbolic factorizations across them (see {!analyze_corners}: the
    exact tier is value-keyed and must stay per-corner, but topology
    is corner-invariant). *)

val cache_fingerprint : cache -> string list * string list
(** A payload-free fingerprint of the cache contents: the sorted keys
    of the exact tier and the sorted pattern keys of the symbolic
    tier.  Two caches populated by equivalent
    publication sequences compare equal — used by tests to assert that
    shard-merged contents match sequential publication for every
    [jobs] value. *)

(** {2 Incremental hooks}

    The Session layer re-times dirty cones by running exactly the
    per-net solve [analyze] runs — same frozen-view / private-shard
    cache discipline, same options derivation — through {!solve_net},
    and keeps the cache's key set equal to what a cold analyze of the
    current design would publish by refcounting the {!solve_keys} each
    live net uses and retiring entries at refcount zero. *)

type cache_view
(** An immutable snapshot of a cache's contents ({!Awe.Cache.view}),
    frozen once per wave. *)

type cache_shard
(** A task-private publication overlay ({!Awe.Cache.Shard}). *)

val cache_view : cache -> cache_view

val cache_shard : unit -> cache_shard

val cache_absorb : cache -> cache_shard -> unit
(** Replay a shard's publications into the cache in insertion order
    (first-wins) — absorb shards in chunk order to reproduce
    sequential publication (THEORY.md, "Sharded publication"). *)

val cache_remove_exact : cache -> key:string -> bool
(** Retire one exact-tier entry; [true] when it existed. *)

val cache_remove_pattern : cache -> key:string -> int
(** Retire all symbolic analyses under a pattern key; returns how
    many were dropped. *)

val cache_bytes : cache -> int
(** Approximate heap footprint of the cache ({!Awe.Cache.bytes}). *)

type solve_keys = {
  sk_exact : string option;
      (** key of the exact-tier entry this solve hit or published;
          [None] when no cache view was consulted or the net has no
          sinks *)
  sk_pattern : string option;
      (** pattern key of the symbolic entry ([sparse] runs only) *)
}

val solve_net :
  design ->
  model:delay_model ->
  sparse:bool ->
  reduce:bool ->
  view:cache_view option ->
  shard:cache_shard option ->
  net:string ->
  driver_res:float ->
  slew:float ->
  (string * float * float * float) list * solve_keys
(** Time one net — [(sink_inst, rise delay, fall delay, slew)] per
    sink, in sink order — through the exact per-net pipeline
    [analyze] uses: reduction (when [reduce]), cache lookup against
    the frozen [view] then the private [shard], compute on miss,
    publication into the shard.  Counters (cache verdicts, solver
    work) are recorded into the calling domain's {!Awe.Stats} window
    exactly as during [analyze], so a Session wave that wraps chunks
    in [Awe.Stats.scoped] and absorbs shards in chunk order is
    bit-identical — results, counters, and final cache contents — to
    the corresponding wave of a cold [analyze].  Raises [Malformed]
    as [analyze] does (unknown nets, unattached sinks, thresholds
    never crossed). *)

val solve_wave :
  Parallel.t ->
  design ->
  model:delay_model ->
  options:Awe.options ->
  reduce:bool ->
  cache:cache option ->
  window:(Awe.Stats.snapshot -> unit) ->
  record:
    (int -> ((string * float * float * float) list * solve_keys, string) result ->
     unit) ->
  (string * float * float) array ->
  unit
(** Solve one wave's [(net, driver_res, slew)] entries (sorted by net)
    as [analyze] does, with [options] built once per analysis from
    [sparse] (cached engines keep them): one {!solve_net} task per
    contiguous chunk,
    against a view frozen at wave start and a private shard.  Then, on
    the calling domain, chunk by chunk: [window] gets the chunk's stats
    window, its shard is absorbed into [cache], and [record] gets each
    outcome by wave position ([Error] carries a [Malformed] message). *)

(** The per-net steps of [analyze]'s forward and backward passes,
    shared with the {!Session} layer's worklists. *)

val net_timing_of :
  string -> float * float -> (string * float * float * float) list -> net_timing
(** A net's record from its driver-pin (rise, fall) arrivals and its
    {!solve_net} sink timings. *)

val arrival_through :
  gate ->
  init:string ->
  sink:(string -> sink_timing) ->
  path:(string -> string list) ->
  float * float * float * string list
(** The (rise, fall, slew, path) arrival a gate hands its output net:
    its worst input pin by rise arrival ([sink] of the input net;
    strict [>] in pin order, [init] kept if none beats
    [neg_infinity]) plus the intrinsic delay, that pin's slew, and the
    input's [path] (newest first) extended by the output. *)

val endpoint_requirements : design -> (string, float) Hashtbl.t
(** Explicit constraints, plus the clock period at every unconstrained
    primary output. *)

val net_requirements :
  design ->
  net_timing ->
  endpoint:float option ->
  req_driver:(string -> (float * float) option) ->
  (sink_timing * (float * float)) list * (float * float)
(** A timed net's (rise, fall) requirement per sink pin — its
    [endpoint] requirement min'ed with the sink gate's output
    requirement ([req_driver]) less its intrinsic — and at the driver
    pin: sink requirements less wire delays, min'ed (the endpoint
    requirement when sinkless). *)

val net_slacks :
  net_timing ->
  req_driver:(string -> (float * float) option) ->
  req_sink:(string -> (float * float) option) ->
  pin_slack list
(** A timed net's pin slacks at their binding transitions ([req_sink]
    is keyed by sink instance). *)

val sort_slacks : pin_slack list -> pin_slack list
(** Worst slack first, ties by net then pin. *)

val critical :
  design ->
  timed:(string -> net_timing option) ->
  path:(string -> string list option) ->
  float * string list
(** Critical arrival and path: the latest arrival (strict [>], first
    seen wins) over the primary outputs in newest-first declaration
    order, or over every declared net in the net table's enumeration
    order when none are marked; the path is that net's arrival
    [path], reversed. *)

val check_references : design -> unit
(** [analyze]'s upfront check: raises [Malformed] naming the first
    gate, in declaration order, with a pin on an undeclared net. *)

val analyze :
  ?model:delay_model -> ?sparse:bool -> ?jobs:int -> ?strict:bool ->
  ?reduce:bool ->
  ?cache:cache ->
  design -> report
(** Topological timing propagation.  Raises [Not_a_dag] on cycles and
    [Malformed] on dangling references (undriven nets, unknown sinks).
    Default model is [Awe_auto].

    [reduce] (default [true]) runs {!Circuit.Reduce} on every stage
    circuit before MNA stamping: parallel and unloaded-series merges
    are exact (sink timings bit-identical to within 1e-12 relative);
    RC chain lumping and star-leg merging preserve the low-order
    moments at the driver and every sink pin (which are ports and are
    never eliminated), so AWE delays agree within the verification
    harness tolerance.  Reduction happens {e before} cache keying, so
    stages that become identical after reduction share cache
    entries; the per-net reduction report accumulates into
    [stats] ([reduce_nodes_eliminated] and friends).

    Each net is timed through one shared {!Awe.Engine}: one MNA build,
    one factorization, and one moment-vector sequence evaluated at
    every sink; adaptive order escalation extends the shared sequence
    instead of recomputing it.  [sparse] (default [false]) routes the
    per-net factorization through the sparse LU — worthwhile on large
    nets.

    [jobs] (default 1) fans the solves of each topological wave across
    a {!Parallel} pool, in contiguous chunks of the wave's sorted net
    list (one task per pool slot, not per net, so dispatch overhead
    amortizes over many solves).  Nets of one wave are independent —
    their driver arrivals and slews were fixed by earlier waves — and
    results are recorded in sorted net order, so the report (and its
    merged [stats]) is bit-identical for every [jobs] value.  [jobs]
    follows the tree-wide convention: [0] means the machine's
    recommended domain count, negative raises [Invalid_argument].

    [strict] (default [true]) governs per-net failures: strict raises
    [Malformed] for the first (lowest-sorted) failing net, matching a
    sequential sweep; non-strict records the diagnostic in [failures],
    keeps timing the sibling nets, and lists everything downstream of
    a failed net as "not timed".

    [cache] (default none) threads a structure-sharing cache through
    the analysis.  Tasks of one topological wave read a view frozen at
    wave start and publish into a private per-chunk shard (no
    contention inside a wave; a template stamped several times within
    one chunk is computed once and served from the shard); the
    coordinator absorbs the shards at the wave boundary in chunk
    order, which replays publications in exactly sorted net order,
    first-wins — so the report, every hit/miss counter in [stats], and
    the final cache contents are bit-identical for every [jobs] value
    (hit/miss verdicts come from the frozen view alone; shard hits
    replay the verdict and solve counters of the computation that
    populated the entry), and identical to an uncached run except for
    the cache-counter fields themselves (exact hits replay the solve
    counters of the computation that populated the entry, so the work
    counters match an uncached run; only the phase CPU timers shrink
    with the work actually skipped).  See THEORY.md, "Sharded
    publication".  Passing the same cache to a second [analyze] of the
    same design serves every net from the exact tier.

    When the design carries constraints (or a clock), the forward pass
    is followed by a sequential backward pass on the coordinator:
    required times flow from the endpoints toward the inputs in
    reverse wave-retirement order — through a sink gate, the output
    requirement less the intrinsic; across a net, the sink requirement
    less that sink's per-transition wire delay, min'ed over sinks —
    filling [slacks] and [worst_slack].  The min-plus dual of the
    max-plus arrival pass, so the worst pin slack equals the worst
    endpoint slack up to floating-point re-association. *)

val net_circuit :
  design -> net:string -> driver_res:float -> slew:float ->
  Circuit.Netlist.circuit * (string * Circuit.Element.node) list
(** The stage circuit a net analysis solves (exposed for inspection and
    testing): Thevenin driver, wire segments, sink load capacitances.
    Returns the circuit and the sink-name to node mapping. *)

val critical_paths : design -> report -> k:int -> path list
(** The [k] worst slack paths, worst first — a pure function of an
    existing report (no re-analysis).  One candidate per endpoint pin,
    at its binding transition; candidates are peeled in
    (slack, net, pin) order, so the result is sorted, its endpoints
    are distinct, and ties break deterministically.  Each path is
    traced endpoint-to-source by replaying the arrival pass's
    worst-input selection, so its stages are exactly the nets whose
    arrivals produced the endpoint arrival.  Returns fewer than [k]
    paths when the design has fewer (timed) endpoint pins; the empty
    list when it is unconstrained.  Raises [Invalid_argument] on
    negative [k]. *)

(** {2 Multi-corner analysis} *)

val corner_design : design -> Circuit.Corner.t -> design
(** The design with every element value derated by the corner's
    multipliers: wire segment res/cap, cell drive resistance, pin
    capacitance and intrinsic delay.  Topology, primary inputs
    (arrival and slew cards), outputs, constraints and clock carry
    over unchanged. *)

type corner_run = {
  run_corner : Circuit.Corner.t;
  run_report : report;
  run_cache : cache option;
      (** this corner's private cache (pattern tier shared across the
          run's corners), for fingerprinting in differential tests;
          [None] when caching was disabled *)
}

type corner_summary = {
  cs_name : string;
  cs_critical_arrival : float;
  cs_worst_slack : float;
}

type corners_report = {
  runs : corner_run list;  (** in spec order *)
  summary : corner_summary list;  (** in spec order *)
  worst_corner : string;
      (** name of the corner with the minimum worst slack (ties go to
          spec order) *)
  worst_slack_overall : float;
  critical_arrival_overall : float;  (** max across corners *)
}

val analyze_corners :
  ?model:delay_model -> ?sparse:bool -> ?jobs:int -> ?strict:bool ->
  ?reduce:bool ->
  ?cache:bool ->
  design -> Circuit.Corner.t list -> corners_report
(** One full {!analyze} per corner over {!corner_design}, sequentially
    in spec order (each corner's waves still fan out across the
    [jobs] pool).  With [cache] (default [true]), every corner gets a
    private exact tier but all corners share one pattern-tier store:
    corners derate values, never topology, so each distinct topology
    pays for its symbolic sparse analysis once across all corners
    ([sparse] runs) — corner 2..N pattern-hit every template corner 1
    analyzed.  Reports, stats and cache contents are bit-identical to
    N independent [analyze] calls over [corner_design]s threading
    caches that share a patterns store ({!create_cache}).  Raises
    [Invalid_argument] on an empty corner list or duplicate corner
    names. *)

val pp_report : ?verbose:bool -> Format.formatter -> report -> unit
(** [verbose] (default [false]) appends the {!Awe.Stats} engine
    counters of the analysis.  Prints per-sink rise/fall delays, the
    critical path, and — when the design is constrained — the slack
    table, worst first. *)

val pp_paths : Format.formatter -> path list -> unit
(** Stage-by-stage rendering of {!critical_paths} output. *)

val pp_corners : Format.formatter -> corners_report -> unit
(** Per-corner summary lines plus the merged cross-corner verdict. *)

(** Text format for timing designs; see the format notes inside. *)
module Design_file : sig
  (** Text format for timing designs.

      Line-oriented; [*] starts a comment line, [;] separates wire
      segments, values accept SPICE magnitude suffixes.  Cards:

      {v
      vdd <volts>                      supply (default 5)
      threshold <fraction>             switching threshold (default 0.5)
      cell <name> <drive_res> <input_cap> <intrinsic>
      gate <inst> <cell> <output-net> <input-net> ...
      net <name> <from> <to> <r> <c> [; <from> <to> <r> <c>] ...
      input <net> [arrival=<t>] [slew=<t>]
      output <net>
      constraint <net> <time>          required arrival at an endpoint
      clock <period>                   default requirement for outputs
      v}

      A net's sinks attach at wire nodes named after the sink gate
      instances (see {!Sta.add_net}). *)

  exception Parse_error of int * string

  val parse_string : string -> design

  val parse_file : string -> design

end

(** Synthetic designs at scale, for benchmarks and parallel tests. *)
module Synth : sig
  (** Generators for 10k-100k-net synthetic designs with wide
      topological waves — the workloads on which wave-parallel
      analysis (and the structure cache) must actually pay.  Every
      generator is deterministic: the same parameters (and [seed],
      where one exists) always build the identical design, so reports
      are comparable across runs and across [jobs] values. *)

  val grid : rows:int -> cols:int -> unit -> design
  (** A [rows] x [cols] datapath-style grid: one 2-input gate per
      position, listening to its north and west neighbors (boundary
      positions listen to primary-input nets), driving a short RC
      trunk with arms to its south and east sinks.  Wire values repeat
      along anti-diagonals — i.e. within topological waves — so the
      design has the template regularity the structure cache exploits.
      Nets: [rows * cols + rows + cols] (10,200 at 100 x 100); wave
      width up to [min rows cols]. *)

  val clock_tree : levels:int -> fanout:int -> unit -> design
  (** An H-tree-style clock distribution: a root buffer fans out to
      [fanout] child buffers per level, [levels] levels deep, with
      drive strength and wire width tapering toward the leaves.  One
      cell and one wire template per level, so every net of a
      topological wave is the identical stage circuit — the
      best case for exact-tier sharing.  Nets:
      [(fanout^levels - 1) / (fanout - 1) + 1] (21,846 at
      [levels:8 ~fanout:4]); wave width grows geometrically to
      [fanout^(levels-1)]. *)

  val buffered_mesh : ?seed:int -> rows:int -> cols:int -> unit -> design
  (** The irregular counterpart of {!grid}: seeded random wire values
      (few repeated templates — the cache-hostile case) and random
      extra diagonal edges, so gates have two or three inputs and
      waves are ragged.  Deterministic per [seed]. *)

  val rc_ladder : stages:int -> length:int -> fanout:int -> unit -> design
  (** A chain of [stages] buffers, each driving a long uniform RC
      trunk ([length + stage mod 3] segments — long-chain interconnect
      in the style of arXiv 2508.13159) that ends in a hub carrying
      [fanout - 1] capacitive side stubs plus the arm to the next
      stage.  The workload where {!Circuit.Reduce} dominates: trunk
      interiors are chain-lump material, stubs are star-leg material,
      and the three unreduced trunk-length classes all reduce to one
      T-section template, so reduction also raises the pattern-tier
      hit rate.  Needs [stages >= 1], [length >= 3], [fanout >= 1]. *)

  val net_count : design -> int
  (** Number of nets with a declared wire model. *)
end
