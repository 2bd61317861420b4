type cell = {
  cell_name : string;
  drive_res : float;
  input_cap : float;
  intrinsic : float;
}

let cell ~name ~drive_res ~input_cap ~intrinsic =
  (* negated comparisons so NaN values are rejected too *)
  if
    not
      (Float.is_finite drive_res && drive_res > 0.
      && Float.is_finite input_cap && input_cap >= 0.
      && Float.is_finite intrinsic && intrinsic >= 0.)
  then
    invalid_arg
      "Sta.cell: drive_res must be positive, input_cap and intrinsic \
       non-negative";
  { cell_name = name; drive_res; input_cap; intrinsic }

type segment = { seg_from : string; seg_to : string; res : float; cap : float }

type delay_model = Elmore_model | Awe_model of int | Awe_auto

(* A gate record is shared by the design's gate list and every index
   entry that names it, so the cell and input edits below mutate it in
   place.  [g_seq] is the declaration rank (0 for the first gate): it
   keeps the index's sink lists in declaration order across edits. *)
type gate = {
  g_inst : string;
  mutable g_cell : cell;
  mutable g_inputs : string list; (* net names *)
  g_output : string; (* net name *)
  g_seq : int;
}

type pi = { pi_arrival : float; pi_slew : float }

(* One net's entry in the connectivity index. *)
type conn = {
  mutable c_sinks : gate list;
      (* gates listing the net among their inputs: newest declared
         first, one entry per gate even when it lists the net twice *)
  mutable c_drivers : gate list; (* gates driving the net, newest first *)
  mutable c_po : bool; (* declared primary output *)
}

type design = {
  vdd : float;
  threshold : float;
  mutable gates : gate list; (* newest first *)
  by_inst : (string, gate) Hashtbl.t;
  conns : (string, conn) Hashtbl.t;
      (* every net a gate or output card names, declared or not *)
  mutable sorted_nets : string array option;
      (* declared nets, sorted; dropped by [add_net], rebuilt on demand *)
  nets : (string, segment list) Hashtbl.t;
  pis : (string, pi) Hashtbl.t;
  mutable pos : string list;
  required : (string, float) Hashtbl.t;
      (* net -> required arrival time (a timing constraint endpoint) *)
  required_lines : (string, int) Hashtbl.t;
      (* net -> source line of the constraint card, when parsed *)
  mutable clock : float option;
      (* default required time for unconstrained primary outputs *)
  mutable clock_ln : int option;
      (* source line of the clock card, when parsed *)
}

exception Not_a_dag of string list

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let create ?(vdd = 5.) ?(threshold = 0.5) () =
  if not (Float.is_finite vdd && vdd > 0.) then
    invalid_arg "Sta.create: vdd must be positive";
  if not (threshold > 0. && threshold < 1.) then
    invalid_arg "Sta.create: threshold must be in (0, 1)";
  { vdd;
    threshold;
    gates = [];
    by_inst = Hashtbl.create 16;
    conns = Hashtbl.create 16;
    sorted_nets = None;
    nets = Hashtbl.create 16;
    pis = Hashtbl.create 4;
    pos = [];
    required = Hashtbl.create 4;
    required_lines = Hashtbl.create 4;
    clock = None;
    clock_ln = None }

(* --- the connectivity index ----------------------------------------
   Built as the design is built and kept current by every mutator, in
   time proportional to the edited gate's pins.  Lookups charge the
   gate records they hand out to a process-wide work counter (atomic,
   so the total is the same for any [jobs]); the linearity gates in
   the bench read it. *)

let work = Atomic.make 0

let tick n = if n > 0 then ignore (Atomic.fetch_and_add work n)

let connectivity_work () = Atomic.get work

let reset_connectivity_work () = Atomic.set work 0

let conn (d : design) net =
  match Hashtbl.find_opt d.conns net with
  | Some c -> c
  | None ->
    let c = { c_sinks = []; c_drivers = []; c_po = false } in
    Hashtbl.replace d.conns net c;
    c

let ticked gates =
  tick (List.length gates);
  gates

let sinks_of (d : design) net =
  match Hashtbl.find_opt d.conns net with Some c -> ticked c.c_sinks | None -> []

let drivers_of (d : design) net =
  match Hashtbl.find_opt d.conns net with Some c -> ticked c.c_drivers | None -> []

let driver_of d net = match drivers_of d net with g :: _ -> Some g | [] -> None

let find_gate (d : design) inst =
  Option.map (fun g -> tick 1; g) (Hashtbl.find_opt d.by_inst inst)

let sorted_nets (d : design) =
  match d.sorted_nets with
  | Some a -> a
  | None ->
    let a = Array.of_seq (Hashtbl.to_seq_keys d.nets) in
    Array.sort compare a;
    d.sorted_nets <- Some a;
    a

let add_gate (d : design) ~inst ~cell ~inputs ~output =
  if Hashtbl.mem d.by_inst inst then
    malformed "duplicate gate instance %s" inst;
  let g =
    { g_inst = inst;
      g_cell = cell;
      g_inputs = inputs;
      g_output = output;
      g_seq = Hashtbl.length d.by_inst }
  in
  d.gates <- g :: d.gates;
  Hashtbl.replace d.by_inst inst g;
  (* the newest gate heads every list it joins; a net listed twice is
     already headed by [g] on its second visit *)
  List.iter
    (fun net ->
      let c = conn d net in
      match c.c_sinks with
      | h :: _ when h == g -> ()
      | l -> c.c_sinks <- g :: l)
    inputs;
  let c = conn d output in
  c.c_drivers <- g :: c.c_drivers

let add_net (d : design) ~name ~segments =
  if Hashtbl.mem d.nets name then malformed "duplicate net %s" name;
  Hashtbl.replace d.nets name segments;
  d.sorted_nets <- None

let add_primary_input (d : design) ~net ?(arrival = 0.) ?(slew = 0.) () =
  if Hashtbl.mem d.pis net then malformed "duplicate primary input %s" net;
  if not (Float.is_finite arrival && arrival >= 0.) then
    malformed "primary input %s: arrival must be non-negative" net;
  if not (Float.is_finite slew && slew >= 0.) then
    malformed "primary input %s: slew must be non-negative" net;
  Hashtbl.replace d.pis net { pi_arrival = arrival; pi_slew = slew }

let add_primary_output (d : design) ~net =
  let c = conn d net in
  if c.c_po then malformed "duplicate primary output %s" net;
  c.c_po <- true;
  d.pos <- net :: d.pos

let add_constraint ?line (d : design) ~net ~required =
  if Hashtbl.mem d.required net then
    malformed "duplicate constraint on net %s" net;
  if not (Float.is_finite required && required >= 0.) then
    malformed "constraint on net %s: required time must be non-negative" net;
  Hashtbl.replace d.required net required;
  match line with
  | Some ln -> Hashtbl.replace d.required_lines net ln
  | None -> ()

let set_clock ?line (d : design) ~period =
  (match d.clock with
  | Some _ -> malformed "duplicate clock card"
  | None -> ());
  if not (Float.is_finite period && period > 0.) then
    malformed "clock period must be positive";
  d.clock <- Some period;
  d.clock_ln <- line

let clock_period (d : design) = d.clock

let constraint_line (d : design) net = Hashtbl.find_opt d.required_lines net

let clock_line (d : design) = d.clock_ln

let constraints (d : design) =
  Hashtbl.fold (fun net t acc -> (net, t) :: acc) d.required []
  |> List.sort compare

(* --- in-place edits (the Session layer's vocabulary) ---------------
   Each mutator validates first and only then mutates, so a rejected
   edit leaves the design untouched.  Gate edits mutate the shared
   record in place: gate order is load-bearing (sink order, DAG edge
   order, worst-input tie-breaks all follow declaration order), so
   edits never reorder the gate list, and an input edit re-inserts the
   gate into a sink list at its declaration rank. *)

let validate_segments net segments =
  if segments = [] then malformed "net %s has no segments" net;
  List.iter
    (fun s ->
      if not (Float.is_finite s.res && s.res > 0.) then
        malformed "net %s: segment resistance must be positive" net;
      if not (Float.is_finite s.cap && s.cap >= 0.) then
        malformed "net %s: segment capacitance must be non-negative" net)
    segments

let replace_net_segments (d : design) ~net ~segments =
  if not (Hashtbl.mem d.nets net) then malformed "unknown net %s" net;
  validate_segments net segments;
  Hashtbl.replace d.nets net segments

let gate_exn (d : design) inst =
  match Hashtbl.find_opt d.by_inst inst with
  | Some g -> g
  | None -> malformed "unknown gate instance %s" inst

let set_gate_cell (d : design) ~inst ~cell = (gate_exn d inst).g_cell <- cell

let set_gate_inputs (d : design) ~inst ~inputs =
  if inputs = [] then malformed "gate %s has no inputs" inst;
  let g = gate_exn d inst in
  let old = g.g_inputs in
  List.iter
    (fun net ->
      if not (List.mem net inputs) then
        let c = conn d net in
        c.c_sinks <- List.filter (fun h -> h != g) c.c_sinks)
    old;
  let rec insert = function
    | h :: tl when h.g_seq > g.g_seq -> h :: insert tl
    | l -> g :: l
  in
  List.iter
    (fun net ->
      let c = conn d net in
      if not (List.memq g c.c_sinks) then c.c_sinks <- insert c.c_sinks)
    inputs;
  g.g_inputs <- inputs

let set_required (d : design) ~net ~required =
  match required with
  | None ->
    Hashtbl.remove d.required net;
    Hashtbl.remove d.required_lines net
  | Some t ->
    if not (Float.is_finite t && t >= 0.) then
      malformed "constraint on net %s: required time must be non-negative" net;
    Hashtbl.replace d.required net t;
    Hashtbl.remove d.required_lines net

let update_clock (d : design) ~period =
  (match period with
  | Some p when not (Float.is_finite p && p > 0.) ->
    malformed "clock period must be positive"
  | _ -> ());
  d.clock <- period;
  d.clock_ln <- None

let primary_input (d : design) net =
  Option.map
    (fun pi -> (pi.pi_arrival, pi.pi_slew))
    (Hashtbl.find_opt d.pis net)

let gate_details (d : design) =
  List.rev_map (fun g -> (g.g_inst, g.g_cell, g.g_inputs, g.g_output)) d.gates

type transition = Rise | Fall

let transition_string = function Rise -> "rise" | Fall -> "fall"

type sink_timing = {
  sink_inst : string;
  net_delay : float;
  net_delay_fall : float;
  sink_slew : float;
  arrival : float;
  arrival_fall : float;
}

type net_timing = {
  net_name : string;
  driver_arrival : float;
  driver_arrival_fall : float;
  sinks : sink_timing list;
}

type net_failure = { failed_net : string; reason : string }

type pin_slack = {
  sp_net : string;
  sp_pin : string option;
  sp_transition : transition;
  sp_arrival : float;
  sp_required : float;
  sp_slack : float;
}

type report = {
  nets : net_timing list;
  critical_arrival : float;
  critical_path : string list;
  slacks : pin_slack list;
  worst_slack : float;
  failures : net_failure list;
  stats : Awe.Stats.snapshot;
}

type path_stage = {
  st_net : string;
  st_pin : string option;
  st_gate_delay : float;
  st_net_delay : float;
  st_arrival : float;
}

type path = {
  path_endpoint : string;
  path_pin : string option;
  path_transition : transition;
  path_input_arrival : float;
  path_arrival : float;
  path_required : float;
  path_slack : float;
  path_stages : path_stage list;
}

(* read-only structural views, for the lint layer *)
type gate_view = {
  gv_inst : string;
  gv_cell : string;
  gv_inputs : string list;
  gv_output : string;
}

let gate_views (d : design) =
  List.rev_map
    (fun g ->
      { gv_inst = g.g_inst;
        gv_cell = g.g_cell.cell_name;
        gv_inputs = g.g_inputs;
        gv_output = g.g_output })
    d.gates

let net_names (d : design) = Array.to_list (sorted_nets d)

let net_segments (d : design) net = Hashtbl.find_opt d.nets net

let primary_input_nets (d : design) =
  Hashtbl.fold (fun k _ acc -> k :: acc) d.pis [] |> List.sort compare

let primary_output_nets (d : design) = List.rev d.pos

let gate_cells (d : design) =
  List.rev_map (fun g -> (g.g_inst, g.g_cell)) d.gates

(* The candidate-net enumeration the critical-arrival fold runs over.
   Selection is by strict [>], first-seen wins, so the order is part of
   the tie-break contract: primary outputs in raw (newest-first)
   declaration order, or every declared net in the net table's
   enumeration order when none are marked ({!critical}). *)
let critical_candidates (d : design) =
  if d.pos = [] then Hashtbl.fold (fun k _ acc -> k :: acc) d.nets []
  else d.pos

(* --- the net-level timing DAG, exported for fixpoint passes -------- *)

(* Sta.analyze orders its Kahn waves over exactly this graph: one
   vertex per referenced net name (declared nets, PI/PO/constraint
   targets, and every gate pin), one edge from each input net of a
   gate to its output net.  The lint layer's backward passes
   (constraint coverage, dominated constraints) and the cycle check
   run over it; building it is one pass over the gates, so it is safe
   to rebuild per analysis. *)
module Dag = struct
  type t = {
    nets : string array;  (* sorted, unique *)
    index_tbl : (string, int) Hashtbl.t;
    succs : int array array;
    preds : int array array;
  }

  let of_design (d : design) =
    let names = Hashtbl.create 64 in
    let add n _ = Hashtbl.replace names n () in
    Hashtbl.iter add d.nets;
    Hashtbl.iter add d.pis;
    Hashtbl.iter add d.required;
    (* every current gate pin and output card *)
    Hashtbl.iter
      (fun n c -> if c.c_sinks <> [] || c.c_drivers <> [] || c.c_po then add n ())
      d.conns;
    let nets = Array.of_seq (Hashtbl.to_seq_keys names) in
    Array.sort compare nets;
    let index_tbl = Hashtbl.create (Array.length nets) in
    Array.iteri (fun i n -> Hashtbl.replace index_tbl n i) nets;
    let idx n = Hashtbl.find index_tbl n in
    let rec distinct = function
      | [] -> []
      | x :: tl -> x :: distinct (List.filter (( <> ) x) tl)
    in
    (* edges in gate declaration order: one from each distinct input
       net of a gate to its output, even when a gate lists a net on
       several pins *)
    let edges f = Array.map (fun net -> Array.of_list (f net)) nets in
    { nets;
      index_tbl;
      succs = edges (fun net -> List.rev_map (fun g -> idx g.g_output) (sinks_of d net));
      preds =
        edges (fun net ->
            List.concat_map
              (fun g -> List.map idx (distinct g.g_inputs))
              (List.rev (drivers_of d net))) }

  let index t net = Hashtbl.find_opt t.index_tbl net
end

(* --- the wave schedule ----------------------------------------------
   Kahn's algorithm with per-gate counters of input pins not yet
   retired.  Wave 0 is the declared primary-input nets; a gate fires
   when the last of its inputs retires, and its output joins the next
   wave unless it was scheduled already (a primary input, or fired by
   another driver).  A gate with no inputs never fires.  Each wave is
   sorted.  [run] times one wave and returns the nets of it that
   retired: [analyze] retires only the nets it timed, so everything
   downstream of a failed net stays unscheduled.  Returns the nets
   never scheduled, sorted.  Work is linear in pins plus the sorts. *)
let kahn (d : design) ~run =
  let sorted = sorted_nets d in
  let pending = Array.make (Hashtbl.length d.by_inst) 0 in
  List.iter (fun g -> pending.(g.g_seq) <- List.length g.g_inputs) d.gates;
  let scheduled = Hashtbl.create (Array.length sorted) in
  let schedule acc net =
    if Hashtbl.mem d.nets net && not (Hashtbl.mem scheduled net) then begin
      Hashtbl.replace scheduled net ();
      net :: acc
    end
    else acc
  in
  let retire acc net =
    List.fold_left
      (fun acc g ->
        List.iter
          (fun inp -> if inp = net then pending.(g.g_seq) <- pending.(g.g_seq) - 1)
          g.g_inputs;
        if pending.(g.g_seq) = 0 then schedule acc g.g_output else acc)
      acc (sinks_of d net)
  in
  let rec loop = function
    | [] -> ()
    | wave -> loop (List.sort compare (List.fold_left retire [] (run wave)))
  in
  Array.fold_left
    (fun acc net -> if Hashtbl.mem d.pis net then schedule acc net else acc)
    [] sorted
  |> List.rev |> loop;
  List.filter (fun net -> not (Hashtbl.mem scheduled net)) (Array.to_list sorted)

let waves (d : design) =
  let acc = ref [] in
  let record wave = acc := wave :: !acc; wave in
  match kahn d ~run:record with
  | [] -> List.rev !acc
  | remaining -> raise (Not_a_dag remaining)

let net_circuit (d : design) ~net ~driver_res ~slew =
  let segments =
    match Hashtbl.find_opt d.nets net with
    | Some s -> s
    | None -> malformed "net %s has no wire model" net
  in
  let b = Circuit.Netlist.create () in
  let wave =
    if slew <= 0. then Circuit.Element.Step { v0 = 0.; v1 = d.vdd }
    else
      Circuit.Element.Ramp { v0 = 0.; v1 = d.vdd; t_delay = 0.; t_rise = slew }
  in
  Circuit.Netlist.add_v b "vdrv" "src" "0" wave;
  Circuit.Netlist.add_r b "rdrv" "src" "drv" driver_res;
  List.iteri
    (fun i seg ->
      Circuit.Netlist.add_r b
        (Printf.sprintf "rw%d" i)
        seg.seg_from seg.seg_to seg.res;
      if seg.cap > 0. then
        Circuit.Netlist.add_c b
          (Printf.sprintf "cw%d" i)
          seg.seg_to "0" seg.cap)
    segments;
  (* sink loads *)
  let sink_nodes = ref [] in
  List.iteri
    (fun i g ->
      (* a sink attaches at the net node named after the instance *)
      let attached =
        List.exists (fun seg -> seg.seg_to = g.g_inst) segments
      in
      if not attached then
        malformed "net %s has no segment reaching sink %s" net g.g_inst;
      if g.g_cell.input_cap > 0. then
        Circuit.Netlist.add_c b
          (Printf.sprintf "cpin%d" i)
          g.g_inst "0" g.g_cell.input_cap;
      sink_nodes := (g.g_inst, Circuit.Netlist.node b g.g_inst) :: !sink_nodes)
    (sinks_of d net);
  (Circuit.Netlist.freeze b, List.rev !sink_nodes)

(* ------------------------------------------------------------------ *)
(* Structure-sharing cache.  Timing designs stamp the same few
   interconnect templates thousands of times, and [net_circuit] builds
   every instance in the same construction order; the cache lets the
   analysis done for one instance serve every identical copy.

   Exact tier: the whole per-net result — the fitted engine and each
   sink's (delay, slew) keyed by sink node id.  The key folds in
   everything the numbers depend on beyond the circuit: delay model,
   threshold, vdd, input slew, sparse flag, and the ordered sink node
   ids (a zero-cap sink adds no element, so the sink set is not
   derivable from the circuit alone), prefixed to the circuit's
   bit-exact signature ({!Circuit.Canon}).  Equal keys mean the
   instance stamps an MNA system identical entry for entry, so the
   cached numbers are the ones recomputation would produce.  A
   relabeled instance (a permuted matrix with different rounding) has
   a different key and misses.

   Pattern tier: the symbolic sparse analysis keyed on the value-free
   signature.  A hit skips ordering/pivoting/fill analysis;
   the numeric refactorization still runs, so the factors are
   bit-identical to an uncached run. *)

type cache_payload = {
  cp_engine : Awe.engine;
      (* factors, moment sequences and fitted models of the first
         instance.  Kept so the whole reduced model survives with the
         entry; hits are served from [cp_sinks] and never mutate it
         (it is shared across domains). *)
  cp_sinks : (Circuit.Element.node * (float * float * float)) list;
      (* sink node id -> (rise delay, fall delay, slew); complete for
         any instance with the same exact key, because the key
         fixes the node ids *)
  cp_stats : Awe.Stats.snapshot;
      (* the work counters of the computation that built this entry;
         replayed on every exact hit so cached and uncached analyses
         report identical solve counts (see {!Awe.Stats.replay}) *)
  cp_pattern_hit : bool;
      (* whether the computation that built this entry reused a
         symbolic from the frozen view.  A shard-level exact hit
         stands for recomputing against the same frozen view, which
         would have reached the same verdict (same circuit, same view,
         deterministic pattern probe) — so the hit replays this
         verdict into the pattern-hit/miss counters, keeping them
         bit-identical to a run without shard dedup. *)
}

type cache = cache_payload Awe.Cache.t

let create_cache ?patterns () : cache = Awe.Cache.create ?patterns ()

let cache_fingerprint (c : cache) =
  (Awe.Cache.exact_keys c, Awe.Cache.symbolic_keys c)

(* Narrow wrappers over the abstract [cache] so the Session layer can
   run the exact per-wave freeze/shard/absorb discipline [analyze]
   uses, and retire entries its refcounts prove dead, without the
   payload type escaping this module. *)

type cache_view = cache_payload Awe.Cache.view

type cache_shard = cache_payload Awe.Cache.Shard.t

let cache_view (c : cache) : cache_view = Awe.Cache.view c

let cache_shard () : cache_shard = Awe.Cache.Shard.create ()

let cache_absorb (c : cache) (sh : cache_shard) = Awe.Cache.absorb c sh

let cache_remove_exact (c : cache) ~key = Awe.Cache.remove_exact c ~key

let cache_remove_pattern (c : cache) ~key = Awe.Cache.remove_symbolic c ~key

let cache_bytes (c : cache) = Awe.Cache.bytes c

type solve_keys = {
  sk_exact : string option;
  sk_pattern : string option;
}

let no_keys = { sk_exact = None; sk_pattern = None }

let cache_keys (d : design) ~model ~options ~slew ~circuit ~sink_nodes =
  let tag =
    match model with
    | Elmore_model -> "E"
    | Awe_model q -> "Q" ^ string_of_int q
    | Awe_auto -> "A"
  in
  let ctx =
    Printf.sprintf "%s:%b:%Lx:%Lx:%Lx:%s" tag options.Awe.sparse
      (Int64.bits_of_float slew)
      (Int64.bits_of_float d.threshold)
      (Int64.bits_of_float d.vdd)
      (String.concat ","
         (List.map (fun (_, n) -> string_of_int n) sink_nodes))
  in
  let k = Circuit.Canon.hashes circuit in
  (ctx ^ "|" ^ k.Circuit.Canon.signature, k.Circuit.Canon.pattern)

(* threshold delay and output slew of every sink of one net, from ONE
   MNA build, one factorization, and one shared moment-vector sequence
   (paper, Section 3.2 / eq. 56).  The AWE models analyze the net with
   its actual (possibly ramped) excitation; the Elmore model analyzes
   the net driven by an ideal step and adds half the input transition
   (paper Section 4.3 / Cirit's correction), so the step variant of
   the stage circuit is only built when that model asks for it.

   Each sink gets a rise/fall transition pair from the same response
   model: the stage circuit is linear, so the falling waveform is the
   rising one reflected about vdd/2 — the fall delay is the rising
   response's crossing of the complementary level (1 - threshold)*vdd.
   At threshold 0.5 the pair coincides; away from it the min/max
   delays are distinct.  (The 10-90 slew is reflection-invariant, so
   one slew serves both transitions.)

   Returns [(sink_inst, rise_delay, fall_delay, slew)] per sink, plus
   the engine. *)
let compute_sink_timings (d : design) ~model ~options ~symbolic ~net ~slew
    ~circuit ~sink_nodes =
  let threshold_v = d.threshold *. d.vdd in
  let fall_v = (1. -. d.threshold) *. d.vdd in
  try
    Awe.Stats.record_mna_build ();
    let sys = Circuit.Mna.build circuit in
    let engine = Awe.Engine.create ~options ?symbolic sys in
    let timings =
      match model with
      | Elmore_model ->
        let elmore = Awe.Batch.elmore_all ~engine sys in
        (* single-exponential threshold crossing plus half the input
           transition, and the single-exponential 10-90 slew.  The
           falling exponential vdd*exp(-t/tau) crosses threshold*vdd
           at -tau*ln(threshold). *)
        let frac = d.threshold in
        List.map
          (fun (inst, node) ->
            let td = List.assoc node elmore in
            ( inst,
              (-.td *. log (1. -. frac)) +. (0.5 *. slew),
              (-.td *. log frac) +. (0.5 *. slew),
              td *. log 9. ))
          sink_nodes
      | Awe_model _ | Awe_auto ->
        let fixed_order =
          match model with
          | Awe_model q ->
            Awe.Batch.approximate_all ~engine sys
              ~nodes:(List.map snd sink_nodes)
              ~q
          | Awe_auto | Elmore_model -> []
        in
        List.map
          (fun (inst, node) ->
            let a =
              match
                List.find_opt (fun r -> r.Awe.Batch.node = node) fixed_order
              with
              | Some { Awe.Batch.outcome = Awe.Batch.Approximation a; _ } -> a
              | Some { Awe.Batch.outcome = Awe.Batch.Failed _; _ } | None ->
                (* adaptive model, or a sink whose fixed-order fit is
                   degenerate/unstable: escalate on the same engine — the
                   shared moments are extended, never recomputed *)
                fst (Awe.Engine.auto engine ~node)
            in
            (* search horizon: generous multiple of the first-order time
               scale, extended by the input transition itself *)
            let tau = Float.max (Awe.Engine.elmore engine ~node) 1e-15 in
            let t_max = (50. *. tau) +. (2. *. slew) in
            let delay =
              match Awe.delay a ~threshold:threshold_v ~t_max with
              | Some t -> t
              | None -> malformed "net never crosses the threshold"
            in
            (* the complementary crossing of the same response; a
               non-monotone fit can miss it within the horizon — fall
               back to the rise value to stay total *)
            let delay_fall =
              match Awe.delay a ~threshold:fall_v ~t_max with
              | Some t -> t
              | None -> delay
            in
            let t10 =
              Awe.Approx.crossing_time a.Awe.response ~threshold:(0.1 *. d.vdd)
                ~t_max
            in
            let t90 =
              Awe.Approx.crossing_time a.Awe.response ~threshold:(0.9 *. d.vdd)
                ~t_max
            in
            let slew =
              match (t10, t90) with
              | Some a, Some b when b > a -> b -. a
              | _ -> tau *. log 9.
            in
            (inst, delay, delay_fall, slew))
          sink_nodes
    in
    (timings, engine)
  with
  (* funnel sparse-layer singularities and fits that fail at every
     order into the STA's own error vocabulary: the stage circuit's
     node names are net-local, so the message already points at the
     offending pin *)
  | Circuit.Mna.Singular_dc msg -> malformed "net %s: %s" net msg
  | Invalid_argument msg -> malformed "net %s: %s" net msg
  | Awe.Degenerate msg -> malformed "net %s: %s" net msg
  | Awe.Unstable_fit poles ->
    malformed "net %s: unstable fit (%d poles)" net (List.length poles)

(* Time one net, consulting the frozen cache view when there is one
   and the task's private shard after it.  Cache counters are recorded
   here, inside the caller's per-task stats window, so they merge as
   deterministically as every other counter — and they are recorded
   from the {e frozen-view} verdict alone: whether a chunk-mate's
   shard entry happened to short-circuit the work is an execution
   detail that must not (and does not) show up in any counter, or the
   counters would vary with the chunking and therefore with [jobs]. *)
let net_sink_timings_keyed (d : design) ~model ~options ~reduce ~view ~shard
    ~net ~driver_res ~slew =
  (* the Elmore model analyzes the ideal-step drive; the AWE models the
     actual (possibly ramped) excitation *)
  let wire_slew =
    match model with Elmore_model -> 0. | Awe_model _ | Awe_auto -> slew
  in
  let circuit, sink_nodes = net_circuit d ~net ~driver_res ~slew:wire_slew in
  if sink_nodes = [] then ([], no_keys)
  else
    (* model-order reduction before stamping (and before the cache
       keys are derived, so stages identical after reduction share
       cache entries).  Sink pins are ports: never eliminated,
       only renumbered. *)
    let circuit, sink_nodes =
      if not reduce then (circuit, sink_nodes)
      else begin
        let r =
          Circuit.Reduce.reduce ~ports:(List.map snd sink_nodes) circuit
        in
        let rep = r.Circuit.Reduce.report in
        Awe.Stats.record_reduction
          ~nodes:rep.Circuit.Reduce.nodes_eliminated
          ~elements:rep.Circuit.Reduce.elements_eliminated
          ~parallels:rep.Circuit.Reduce.parallel_merges
          ~series:rep.Circuit.Reduce.series_merges
          ~chains:rep.Circuit.Reduce.chain_lumps
          ~stars:rep.Circuit.Reduce.star_merges;
        ( r.Circuit.Reduce.circuit,
          List.map
            (fun (inst, n) -> (inst, r.Circuit.Reduce.node_map.(n)))
            sink_nodes )
      end
    in
    match view with
    | None ->
      let timings, _engine =
        compute_sink_timings d ~model ~options ~symbolic:None ~net ~slew
          ~circuit ~sink_nodes
      in
      (timings, no_keys)
    | Some v -> (
      let exact, pattern =
        cache_keys d ~model ~options ~slew ~circuit ~sink_nodes
      in
      let keys =
        { sk_exact = Some exact;
          sk_pattern = (if options.Awe.sparse then Some pattern else None) }
      in
      (* serve a whole net from a payload (view or shard tier): equal
         exact keys fix the sink node ids, so the cached per-node
         numbers are the ones recomputation would produce *)
      let serve payload =
        List.map
          (fun (inst, node) ->
            match List.assoc_opt node payload.cp_sinks with
            | Some (dly, dlf, slw) -> (inst, dly, dlf, slw)
            | None ->
              (* unreachable: equal exact keys fix the sink node set.
                 Kept total by re-deriving a single-pole answer from
                 the cached engine's (already computed) moments. *)
              let tau =
                Float.max (Awe.Engine.elmore payload.cp_engine ~node) 1e-15
              in
              ( inst,
                (-.tau *. log (1. -. d.threshold)) +. (0.5 *. slew),
                (-.tau *. log d.threshold) +. (0.5 *. slew),
                tau *. log 9. ))
          sink_nodes
      in
      match Awe.Cache.find_exact v ~key:exact with
      | Some payload ->
        Awe.Stats.record_cache_exact_hit ();
        (* the hit stands for the original computation: replay its
           work counters so the report's solve counts are identical
           to an uncached run *)
        Awe.Stats.replay payload.cp_stats;
        (serve payload, keys)
      | None -> (
        let shard_exact =
          match shard with
          | None -> None
          | Some sh -> Awe.Cache.Shard.find_exact sh ~key:exact
        in
        match shard_exact with
        | Some payload ->
          (* A chunk-mate computed this exact stage earlier in the
             wave.  Recomputing against the same frozen view would
             have reached the same verdict and the same work counts
             (same circuit, same view, deterministic pattern probe),
             so replay both: the counters cannot tell the dedup
             happened. *)
          if payload.cp_pattern_hit then Awe.Stats.record_cache_pattern_hit ()
          else Awe.Stats.record_cache_miss ();
          Awe.Stats.replay payload.cp_stats;
          (serve payload, keys)
        | None ->
          let view_candidate =
            if options.Awe.sparse then
              match Awe.Cache.find_symbolic v ~key:pattern with
              | s :: _ -> Some s
              | [] -> None
            else None
          in
          (* a chunk-mate's symbolic is only consulted when the view
             offers nothing, so the view-verdict (and the counters) are
             untouched; reusing it instead of analyzing afresh is
             counter-neutral because [Moments.make] records one
             factorization either way and the numeric refactorization
             produces bit-identical factors *)
          let shard_candidate =
            match (view_candidate, shard) with
            | None, Some sh when options.Awe.sparse -> (
              match Awe.Cache.Shard.find_symbolic sh ~key:pattern with
              | s :: _ -> Some s
              | [] -> None)
            | _ -> None
          in
          let candidate =
            match view_candidate with
            | Some _ -> view_candidate
            | None -> shard_candidate
          in
          let before = Awe.Stats.snapshot () in
          let timings, engine =
            compute_sink_timings d ~model ~options ~symbolic:candidate ~net
              ~slew ~circuit ~sink_nodes
          in
          let work = Awe.Stats.diff (Awe.Stats.snapshot ()) before in
          let used = Awe.Engine.symbolic engine in
          let reused_from_view =
            match (used, view_candidate) with
            | Some u, Some s -> u == s
            | _ -> false
          in
          if reused_from_view then Awe.Stats.record_cache_pattern_hit ()
          else Awe.Stats.record_cache_miss ();
          let payload =
            { cp_engine = engine;
              cp_sinks =
                List.map2
                  (fun (_, node) (_, dly, dlf, slw) -> (node, (dly, dlf, slw)))
                  sink_nodes timings;
              cp_stats = work;
              cp_pattern_hit = reused_from_view }
          in
          (match shard with
          | None -> ()
          | Some sh ->
            Awe.Cache.Shard.publish_exact sh ~key:exact payload;
            (match used with
            | Some u when not reused_from_view ->
              (* freshly analyzed (or taken from the shard — the
                 shard's own dedup drops that republication) *)
              Awe.Cache.Shard.publish_symbolic sh ~key:pattern u
            | _ -> ()));
          (timings, keys)))

(* The Session layer's entry to the per-net solver: identical to what
   [analyze] runs per net (same options derivation, same cache
   discipline), plus the cache keys the lookup used so the session can
   refcount live entries. *)
let solve_net (d : design) ~model ~sparse ~reduce ~view ~shard ~net ~driver_res
    ~slew =
  let options = { Awe.default_options with Awe.sparse } in
  net_sink_timings_keyed d ~model ~options ~reduce ~view ~shard ~net
    ~driver_res ~slew

(* Solve one wave's [(net, driver_res, slew)] entries, which must be in
   sorted net order, for [analyze] and the Session layer alike.  The
   wave is split into contiguous chunks, one task per pool slot (not
   per net), so dispatch, DLS window and cache-shard overhead amortize
   over many solves; tasks process their range in ascending order, so
   each shard's publication log is a contiguous slice of the
   sequential publication order.  The cache view is frozen once for
   the wave: every task — on any domain, in any order — sees exactly
   the entries published by earlier waves, so lookups, counters and
   numeric results are independent of scheduling and of [jobs].  Back
   on the calling domain, chunk by chunk in order: [window] receives
   the chunk's stats window (integer sums commute, so merged counters
   are independent of the chunking), the chunk's shard is absorbed
   (replaying publications in exactly the sorted net order a
   sequential sweep publishes in, first-wins), then [record] receives
   each of its outcomes by wave position. *)
let solve_wave pool (d : design) ~model ~options ~reduce ~cache ~window ~record
    wave =
  let n = Array.length wave in
  if n > 0 then begin
    let view = Option.map Awe.Cache.view cache in
    let nchunks =
      let j = Parallel.jobs pool in
      if j <= 1 then 1 else Stdlib.min n j
    in
    let bounds = Array.init (nchunks + 1) (fun i -> i * n / nchunks) in
    (* per-chunk failure label, updated as the chunk advances so an
       unexpected exception is attributed to the exact net it escaped
       from (each task writes only its own slot; the funnel reads after
       the map's final hand-off) *)
    let labels =
      Array.init nchunks (fun ci ->
          let net, _, _ = wave.(bounds.(ci)) in
          "net " ^ net)
    in
    let chunk_results =
      Parallel.mapi
        ~label:(fun ci -> labels.(ci))
        pool
        (fun ci () ->
          let lo = bounds.(ci) and hi = bounds.(ci + 1) in
          (* private shard: wave-local publications accumulate here,
             lock-free, and intra-chunk duplicates of one template are
             served instead of recomputed *)
          let shard = Option.map (fun _ -> Awe.Cache.Shard.create ()) view in
          Awe.Stats.scoped (fun () ->
              Array.init (hi - lo) (fun k ->
                  let net, driver_res, slew = wave.(lo + k) in
                  labels.(ci) <- "net " ^ net;
                  match
                    net_sink_timings_keyed d ~model ~options ~reduce ~view
                      ~shard ~net ~driver_res ~slew
                  with
                  | r -> Ok r
                  | exception Malformed msg -> Error msg),
              shard))
        (Array.make nchunks ())
    in
    Array.iteri
      (fun ci ((outcomes, shard), w) ->
        window w;
        (match (cache, shard) with
        | Some c, Some sh -> Awe.Cache.absorb c sh
        | _ -> ());
        Array.iteri (fun k o -> record (bounds.(ci) + k) o) outcomes)
      chunk_results
  end

(* A net's published record: absolute sink arrivals from the
   driver-pin (rise, fall) arrivals plus each sink's wire delays. *)
let net_timing_of net (ar, af) timings =
  { net_name = net;
    driver_arrival = ar;
    driver_arrival_fall = af;
    sinks =
      List.map
        (fun (inst, delay, delay_fall, sink_slew) ->
          { sink_inst = inst;
            net_delay = delay;
            net_delay_fall = delay_fall;
            sink_slew;
            arrival = ar +. delay;
            arrival_fall = af +. delay_fall })
        timings }

(* The arrival tuple a gate hands its output net: the worst input by
   rise arrival (strict [>] in pin order, first wins; [init] names the
   input kept if none beats [neg_infinity]) plus the intrinsic delay,
   for both transitions — fall arrivals ride the rise-worst path — with
   that input's sink slew and the path through it, newest first. *)
let arrival_through g ~init ~sink ~path =
  let worst, worst_net =
    List.fold_left
      (fun (acc, accn) inp ->
        let s = sink inp in
        if s.arrival > acc then (s.arrival, inp) else (acc, accn))
      (neg_infinity, init) g.g_inputs
  in
  let ws = sink worst_net in
  ( worst +. g.g_cell.intrinsic,
    ws.arrival_fall +. g.g_cell.intrinsic,
    ws.sink_slew,
    g.g_output :: path worst_net )

(* Endpoints: the explicitly constrained nets, plus (when a clock card
   set a default period) every unconstrained primary output. *)
let endpoint_requirements (d : design) =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (net, t) -> Hashtbl.replace tbl net t) (constraints d);
  (match d.clock with
  | None -> ()
  | Some period ->
    List.iter
      (fun net -> if not (Hashtbl.mem tbl net) then Hashtbl.replace tbl net period)
      (primary_output_nets d));
  tbl

let min2 (a, b) (c, e) = (Float.min a c, Float.min b e)

let inf2 = (infinity, infinity)

(* One net's step of the backward pass: the (rise, fall) requirement at
   each sink pin — the net's own endpoint requirement min'ed with the
   sink gate's output requirement less its intrinsic — and at the
   driver pin, the sink requirements less each sink's per-transition
   wire delay, min'ed over sinks (a sinkless leaf: the endpoint
   requirement binds the driver pin). *)
let net_requirements (d : design) nt ~endpoint ~req_driver =
  let ep2 = match endpoint with Some t -> (t, t) | None -> inf2 in
  let sink_reqs =
    List.map
      (fun st ->
        let through =
          match find_gate d st.sink_inst with
          | None -> inf2
          | Some g -> (
            match req_driver g.g_output with
            | None -> inf2
            | Some (rr, rf) -> (rr -. g.g_cell.intrinsic, rf -. g.g_cell.intrinsic))
        in
        (st, min2 ep2 through))
      nt.sinks
  in
  let dr =
    match sink_reqs with
    | [] -> ep2
    | _ ->
      List.fold_left
        (fun acc (st, (rr, rf)) ->
          min2 acc (rr -. st.net_delay, rf -. st.net_delay_fall))
        inf2 sink_reqs
  in
  (sink_reqs, dr)

(* One net's pin slacks at the binding transition — the one with less
   slack, ties to rise; pins no finite requirement reaches are skipped.
   Requirements bind the sink pins, or the driver pin of a sinkless
   net. *)
let net_slacks nt ~req_driver ~req_sink =
  let net = nt.net_name in
  let binding acc ~pin ~ar ~af (rr, rf) =
    let sr = rr -. ar and sf = rf -. af in
    let entry transition arrival required =
      { sp_net = net;
        sp_pin = pin;
        sp_transition = transition;
        sp_arrival = arrival;
        sp_required = required;
        sp_slack = required -. arrival }
      :: acc
    in
    if Float.is_finite sf && sf < sr then entry Fall af rf
    else if Float.is_finite sr then entry Rise ar rr
    else acc
  in
  match nt.sinks with
  | [] -> (
    match req_driver net with
    | Some rq -> binding [] ~pin:None ~ar:nt.driver_arrival ~af:nt.driver_arrival_fall rq
    | None -> [])
  | sinks ->
    List.fold_left
      (fun acc st ->
        match req_sink st.sink_inst with
        | Some rq -> binding acc ~pin:(Some st.sink_inst) ~ar:st.arrival ~af:st.arrival_fall rq
        | None -> acc)
      [] sinks

(* worst slack first; (slack, net, pin) is unique per pin, so the order
   does not depend on how the entries were gathered *)
let sort_slacks entries =
  List.sort
    (fun a b -> compare (a.sp_slack, a.sp_net, a.sp_pin) (b.sp_slack, b.sp_net, b.sp_pin))
    entries

(* Latest arrival over the critical candidates (strict [>], first seen
   wins) and its path, from the arrival tuple's path of that net. *)
let critical (d : design) ~timed ~path =
  let arrival, net =
    List.fold_left
      (fun (acc, accn) net ->
        match timed net with
        | None -> (acc, accn)
        | Some nt ->
          let worst =
            List.fold_left (fun m s -> Float.max m s.arrival) nt.driver_arrival nt.sinks
          in
          if worst > acc then (worst, Some net) else (acc, accn))
      (neg_infinity, None) (critical_candidates d)
  in
  ( arrival,
    match net with
    | None -> []
    | Some net -> (
      match path net with Some p -> List.rev p | None -> [ net ]) )

let check_references (d : design) =
  List.iter
    (fun g ->
      List.iter
        (fun net ->
          if not (Hashtbl.mem d.nets net) then
            malformed "gate %s references unknown net %s" g.g_inst net)
        (g.g_output :: g.g_inputs))
    (List.rev d.gates)

let analyze ?(model = Awe_auto) ?(sparse = false) ?(jobs = 1) ?(strict = true)
    ?(reduce = true) ?cache (d : design) =
  (* one options record per analysis: cached engines share it *)
  let options = { Awe.default_options with Awe.sparse } in
  check_references d;
  (* net is ready when its driver's inputs are all timed; PIs are roots *)
  let arrival_at_net :
      (string, float * float * float * string list) Hashtbl.t =
    (* net -> driver-pin rise arrival, fall arrival, slew, path (nets,
       source first).  Fall arrivals ride along the rise-worst path:
       input selection is by rise arrival, so both transitions
       telescope along the same net sequence (see the backward pass). *)
    Hashtbl.create 16
  in
  Hashtbl.iter
    (fun net pi ->
      Hashtbl.replace arrival_at_net net
        (pi.pi_arrival, pi.pi_arrival, pi.pi_slew, [ net ]))
    d.pis;
  let timed : (string, net_timing) Hashtbl.t = Hashtbl.create 16 in
  let sink_results : (string * string, sink_timing) Hashtbl.t =
    Hashtbl.create 16
  in
  let merged_stats = ref Awe.Stats.zero in
  let failures = ref [] in
  (* bookkeeping half of timing one net: publish sink timings and
     propagate arrivals through the sink gates.  Runs sequentially, in
     sorted net order, on the calling domain. *)
  let record_net net driver_arrival driver_arrival_fall timings =
    let nt = net_timing_of net (driver_arrival, driver_arrival_fall) timings in
    List.iter (fun st -> Hashtbl.replace sink_results (net, st.sink_inst) st) nt.sinks;
    Hashtbl.replace timed net nt;
    (* propagate through sink gates: a gate's output arrival is set
       once all of its inputs are timed *)
    List.iter
      (fun g ->
        if
          List.for_all
            (fun inp -> Hashtbl.mem sink_results (inp, g.g_inst))
            g.g_inputs
        then
          Hashtbl.replace arrival_at_net g.g_output
            (arrival_through g ~init:net
               ~sink:(fun inp -> Hashtbl.find sink_results (inp, g.g_inst))
               ~path:(fun n ->
                 match Hashtbl.find_opt arrival_at_net n with
                 | Some (_, _, _, p) -> p
                 | None -> [])))
      (sinks_of d net)
  in
  let all_nets = sorted_nets d in
  (* wave retirement order, newest wave first: the backward
     required-time pass walks it as-is, so every net is visited after
     all nets downstream of it (they retired in later waves) *)
  let retired = ref [] in
  (* Kahn scheduling over nets, one wave at a time ({!kahn}).  All
     nets of a wave are ready simultaneously — their driver arrivals
     and slews were frozen by earlier waves — so the expensive per-net
     solve (MNA build, factorization, moment fits) is a pure function
     of the wave-start state and fans out across the pool
     ({!solve_wave}).  Results are recorded sequentially in sorted net
     order, so reports and merged counters are bit-identical to a
     sequential run for any [jobs]. *)
  let remaining =
    Parallel.with_pool ~jobs (fun pool ->
        kahn d ~run:(fun ready ->
            let ready = Array.of_list ready in
            (* wave-start arrivals: recording a net may fire a gate
               whose output is already in this wave *)
            let starts = Array.map (Hashtbl.find arrival_at_net) ready in
            let wave =
              Array.mapi
                (fun k net ->
                  let _, _, slew, _ = starts.(k) in
                  let driver_res =
                    match driver_of d net with
                    | Some g -> g.g_cell.drive_res
                    | None ->
                      if Hashtbl.mem d.pis net then 1e-3 (* ideal primary input *)
                      else malformed "net %s is undriven" net
                  in
                  (net, driver_res, slew))
                ready
            in
            let timed_ok = ref [] in
            solve_wave pool d ~model ~options ~reduce ~cache
              ~window:(fun w -> merged_stats := Awe.Stats.merge !merged_stats w)
              ~record:(fun k outcome ->
                let net = ready.(k) in
                match outcome with
                | Ok (timings, _keys) ->
                  let driver_arrival, driver_fall, _, _ = starts.(k) in
                  record_net net driver_arrival driver_fall timings;
                  timed_ok := net :: !timed_ok
                | Error msg ->
                  (* a failed net reports its diagnostic; siblings keep
                     their (already computed) results either way *)
                  if strict then raise (Malformed msg)
                  else failures := { failed_net = net; reason = msg } :: !failures)
              wave;
            retired := Array.to_list ready :: !retired;
            !timed_ok))
  in
  if remaining <> [] then begin
    if !failures = [] then raise (Not_a_dag remaining)
    else
      (* downstream of a failed net: nothing to time, but say why *)
      List.iter
        (fun net ->
          failures :=
            { failed_net = net; reason = "not timed: an upstream net failed" }
            :: !failures)
        remaining
  end;
  (* critical arrival over primary outputs (or all sinks if none marked) *)
  let critical_arrival, critical_path =
    critical d ~timed:(Hashtbl.find_opt timed) ~path:(fun net ->
        Option.map (fun (_, _, _, p) -> p) (Hashtbl.find_opt arrival_at_net net))
  in
  (* ---- required-time back-propagation ----------------------------
     Requirements flow backward per transition ({!net_requirements}):
     through a sink gate, the gate's output requirement less its
     intrinsic; across a net, the sink-pin requirement less that sink's
     (per-transition) wire delay, min'ed over sinks.  Walking nets in
     reverse wave-retirement order guarantees each net's downstream
     requirements are final when it is visited — the min-plus dual of
     the forward max-plus pass. *)
  let endpoint_req = endpoint_requirements d in
  (* (rise, fall) required times at driver pins and sink pins *)
  let req_driver : (string, float * float) Hashtbl.t = Hashtbl.create 16 in
  let req_sink : (string * string, float * float) Hashtbl.t =
    Hashtbl.create 16
  in
  let backward net =
    match Hashtbl.find_opt timed net with
    | None -> () (* failed / untimed: no requirements to propagate *)
    | Some nt ->
      let sink_reqs, dr =
        net_requirements d nt
          ~endpoint:(Hashtbl.find_opt endpoint_req net)
          ~req_driver:(Hashtbl.find_opt req_driver)
      in
      List.iter
        (fun (st, rq) -> Hashtbl.replace req_sink (net, st.sink_inst) rq)
        sink_reqs;
      Hashtbl.replace req_driver net dr
  in
  List.iter (List.iter backward) !retired;
  (* per-pin slacks at the binding transition, worst first *)
  let slacks =
    Array.fold_left
      (fun acc net ->
        match Hashtbl.find_opt timed net with
        | None -> acc
        | Some nt ->
          List.rev_append
            (net_slacks nt ~req_driver:(Hashtbl.find_opt req_driver)
               ~req_sink:(fun inst -> Hashtbl.find_opt req_sink (net, inst)))
            acc)
      [] all_nets
    |> sort_slacks
  in
  let worst_slack =
    match slacks with [] -> infinity | s :: _ -> s.sp_slack
  in
  (* the cache's heap footprint, measured once by the coordinator so
     merged stats report the final size, not a sum of samples *)
  (match cache with
  | Some c ->
    merged_stats :=
      Awe.Stats.merge !merged_stats
        { Awe.Stats.zero with Awe.Stats.cache_bytes = Awe.Cache.bytes c }
  | None -> ());
  let nets =
    Array.fold_right
      (fun net acc ->
        match Hashtbl.find_opt timed net with
        | Some nt -> nt :: acc
        | None -> acc)
      all_nets []
  in
  { nets;
    critical_arrival;
    critical_path;
    slacks;
    worst_slack;
    failures = List.rev !failures;
    stats = !merged_stats }

(* ------------------------------------------------------------------ *)
(* Top-K critical paths.  A pure function of (design, report): the
   report already holds every per-pin arrival, so path extraction is a
   backward trace, not a re-analysis.  Candidates are the endpoint
   pins (the pins a constraint or the clock period binds directly),
   each at its binding transition; the K worst are peeled in
   (slack, net, pin) order — distinct endpoints, deterministic ties —
   and each is traced source-ward by replaying the forward pass's
   worst-input selection (strict >, first wins), so the reported
   stages are exactly the nets whose arrivals produced the endpoint's
   arrival. *)
let critical_paths (d : design) (r : report) ~k =
  if k < 0 then invalid_arg "Sta.critical_paths: k must be non-negative";
  let timed : (string, net_timing) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun nt -> Hashtbl.replace timed nt.net_name nt) r.nets;
  let sink_of net inst =
    Option.bind (Hashtbl.find_opt timed net) (fun nt ->
        List.find_opt (fun st -> st.sink_inst = inst) nt.sinks)
  in
  let endpoints =
    Hashtbl.fold (fun net t acc -> (net, t) :: acc) (endpoint_requirements d) []
  in
  let candidates =
    List.concat_map
      (fun (net, t) ->
        match Hashtbl.find_opt timed net with
        | None -> [] (* untimed endpoint (failed upstream): no path *)
        | Some nt ->
          let pins =
            match nt.sinks with
            | [] -> [ (None, nt.driver_arrival, nt.driver_arrival_fall) ]
            | sinks ->
              List.map
                (fun st -> (Some st.sink_inst, st.arrival, st.arrival_fall))
                sinks
          in
          List.map
            (fun (pin, ar, af) ->
              let sr = t -. ar and sf = t -. af in
              let tr, arr, sl =
                if sf < sr then (Fall, af, sf) else (Rise, ar, sr)
              in
              (net, pin, tr, arr, t, sl))
            pins)
      endpoints
  in
  let candidates =
    List.sort
      (fun (n1, p1, _, _, _, s1) (n2, p2, _, _, _, s2) ->
        compare (s1, n1, p1) (s2, n2, p2))
      candidates
  in
  let arrival_of tr (st : sink_timing) =
    match tr with Rise -> st.arrival | Fall -> st.arrival_fall
  in
  let delay_of tr (st : sink_timing) =
    match tr with Rise -> st.net_delay | Fall -> st.net_delay_fall
  in
  let trace endpoint_net pin tr =
    (* walk from the endpoint to a primary input, building stages
       newest-first; [up] receives the pin the path arrives at *)
    let rec up net pin_opt acc =
      let net_delay, arrival =
        match pin_opt with
        | Some inst ->
          let st = Option.get (sink_of net inst) in
          (delay_of tr st, arrival_of tr st)
        | None ->
          let nt = Hashtbl.find timed net in
          ( 0.,
            match tr with
            | Rise -> nt.driver_arrival
            | Fall -> nt.driver_arrival_fall )
      in
      match driver_of d net with
      | None ->
        (* a primary input sources the path; its arrival card is the
           path's input arrival (same for both transitions) *)
        let input_arrival =
          match Hashtbl.find_opt timed net with
          | Some nt -> (
            match tr with
            | Rise -> nt.driver_arrival
            | Fall -> nt.driver_arrival_fall)
          | None -> 0.
        in
        let stage =
          { st_net = net;
            st_pin = pin_opt;
            st_gate_delay = 0.;
            st_net_delay = net_delay;
            st_arrival = arrival }
        in
        (input_arrival, stage :: acc)
      | Some g ->
        let stage =
          { st_net = net;
            st_pin = pin_opt;
            st_gate_delay = g.g_cell.intrinsic;
            st_net_delay = net_delay;
            st_arrival = arrival }
        in
        (* replay the forward fold: worst input by RISE arrival,
           strict >, first wins — fall arrivals rode the same path *)
        let worst_net, _ =
          List.fold_left
            (fun (accn, acca) inp ->
              match sink_of inp g.g_inst with
              | None -> (accn, acca)
              | Some s ->
                if s.arrival > acca then (inp, s.arrival) else (accn, acca))
            (net, neg_infinity) g.g_inputs
        in
        up worst_net (Some g.g_inst) (stage :: acc)
    in
    up endpoint_net pin []
  in
  List.map
    (fun (net, pin, tr, arr, req, slack) ->
      let input_arrival, stages = trace net pin tr in
      { path_endpoint = net;
        path_pin = pin;
        path_transition = tr;
        path_input_arrival = input_arrival;
        path_arrival = arr;
        path_required = req;
        path_slack = slack;
        path_stages = stages })
    (List.filteri (fun i _ -> i < k) candidates)

(* ------------------------------------------------------------------ *)
(* Multi-corner analysis.  A corner derates element values but never
   topology, so the N per-corner analyses share one pattern-tier store
   (each corner keeps a private exact tier — exact keys are
   value-sensitive).  Corners run sequentially, each with the full
   wave-parallel fan-out of [analyze]: the result is bit-identical to
   N independent [analyze] calls over [corner_design]s sharing a
   patterns store, which is the determinism contract the differential
   tests pin down. *)
let corner_design (d : design) (c : Circuit.Corner.t) =
  let d' = create ~vdd:d.vdd ~threshold:d.threshold () in
  List.iter
    (fun g ->
      let cl = g.g_cell in
      add_gate d' ~inst:g.g_inst
        ~cell:
          (cell ~name:cl.cell_name
             ~drive_res:(cl.drive_res *. c.Circuit.Corner.cell_drive)
             ~input_cap:(cl.input_cap *. c.Circuit.Corner.cell_cap)
             ~intrinsic:(cl.intrinsic *. c.Circuit.Corner.cell_intrinsic))
        ~inputs:g.g_inputs ~output:g.g_output)
    (List.rev d.gates);
  Hashtbl.iter
    (fun name segs ->
      add_net d' ~name
        ~segments:
          (List.map
             (fun s ->
               { s with
                 res = s.res *. c.Circuit.Corner.wire_res;
                 cap = s.cap *. c.Circuit.Corner.wire_cap })
             segs))
    d.nets;
  Hashtbl.iter
    (fun net pi ->
      add_primary_input d' ~net ~arrival:pi.pi_arrival ~slew:pi.pi_slew ())
    d.pis;
  List.iter (fun net -> add_primary_output d' ~net) (List.rev d.pos);
  Hashtbl.iter (fun net t -> Hashtbl.replace d'.required net t) d.required;
  Hashtbl.iter
    (fun net ln -> Hashtbl.replace d'.required_lines net ln)
    d.required_lines;
  d'.clock <- d.clock;
  d'.clock_ln <- d.clock_ln;
  d'

type corner_run = {
  run_corner : Circuit.Corner.t;
  run_report : report;
  run_cache : cache option;
      (* this corner's private cache (shared pattern tier), exposed so
         differential tests can fingerprint it *)
}

type corner_summary = {
  cs_name : string;
  cs_critical_arrival : float;
  cs_worst_slack : float;
}

type corners_report = {
  runs : corner_run list; (* spec order *)
  summary : corner_summary list; (* spec order *)
  worst_corner : string; (* minimum worst slack; ties to spec order *)
  worst_slack_overall : float;
  critical_arrival_overall : float;
}

let analyze_corners ?(model = Awe_auto) ?(sparse = false) ?(jobs = 1)
    ?(strict = true) ?(reduce = true) ?(cache = true) (d : design) corners =
  if corners = [] then
    invalid_arg "Sta.analyze_corners: need at least one corner";
  let names = List.map (fun c -> c.Circuit.Corner.name) corners in
  List.iter
    (fun n ->
      if List.length (List.filter (String.equal n) names) > 1 then
        invalid_arg
          (Printf.sprintf "Sta.analyze_corners: duplicate corner name %S" n))
    names;
  let patterns = Awe.Cache.create_patterns () in
  let runs =
    List.map
      (fun c ->
        let dc = corner_design d c in
        let corner_cache =
          if cache then Some (create_cache ~patterns ()) else None
        in
        let r =
          analyze ~model ~sparse ~jobs ~strict ~reduce ?cache:corner_cache dc
        in
        { run_corner = c; run_report = r; run_cache = corner_cache })
      corners
  in
  let summary =
    List.map
      (fun run ->
        { cs_name = run.run_corner.Circuit.Corner.name;
          cs_critical_arrival = run.run_report.critical_arrival;
          cs_worst_slack = run.run_report.worst_slack })
      runs
  in
  let worst_corner, worst_slack_overall =
    List.fold_left
      (fun (wn, ws) s ->
        if s.cs_worst_slack < ws then (s.cs_name, s.cs_worst_slack)
        else (wn, ws))
      ((List.hd summary).cs_name, (List.hd summary).cs_worst_slack)
      (List.tl summary)
  in
  let critical_arrival_overall =
    List.fold_left
      (fun acc s -> Float.max acc s.cs_critical_arrival)
      neg_infinity summary
  in
  { runs;
    summary;
    worst_corner;
    worst_slack_overall;
    critical_arrival_overall }

let pin_string = function None -> "(driver)" | Some inst -> inst

let pp_report ?(verbose = false) ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun nt ->
      Format.fprintf ppf "net %-10s driver@@%.4g ns@," nt.net_name
        (nt.driver_arrival *. 1e9);
      List.iter
        (fun s ->
          Format.fprintf ppf
            "  -> %-8s delay %.4g/%.4g ns  slew %.4g ns  arrival %.4g ns@,"
            s.sink_inst (s.net_delay *. 1e9) (s.net_delay_fall *. 1e9)
            (s.sink_slew *. 1e9) (s.arrival *. 1e9))
        nt.sinks)
    r.nets;
  List.iter
    (fun f ->
      Format.fprintf ppf "net %-10s FAILED: %s@," f.failed_net f.reason)
    r.failures;
  Format.fprintf ppf "critical arrival: %.4g ns via %a"
    (r.critical_arrival *. 1e9)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
       Format.pp_print_string)
    r.critical_path;
  if r.slacks <> [] then begin
    Format.fprintf ppf "@,slack (worst first):";
    List.iter
      (fun s ->
        Format.fprintf ppf
          "@,  %-10s %-8s %-4s arrival %.4g ns  required %.4g ns  slack \
           %.4g ns"
          s.sp_net (pin_string s.sp_pin)
          (transition_string s.sp_transition)
          (s.sp_arrival *. 1e9) (s.sp_required *. 1e9) (s.sp_slack *. 1e9))
      r.slacks;
    Format.fprintf ppf "@,worst slack: %.4g ns%s" (r.worst_slack *. 1e9)
      (if r.worst_slack < 0. then "  (VIOLATED)" else "")
  end;
  if verbose then
    Format.fprintf ppf "@,engine counters (%d nets):@,%a"
      (List.length r.nets) Awe.Stats.pp r.stats;
  Format.fprintf ppf "@]"

let pp_paths ppf paths =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf
        "path %d: %s %s %s  arrival %.4g ns  required %.4g ns  slack %.4g \
         ns%s@,"
        (i + 1) p.path_endpoint (pin_string p.path_pin)
        (transition_string p.path_transition)
        (p.path_arrival *. 1e9) (p.path_required *. 1e9)
        (p.path_slack *. 1e9)
        (if p.path_slack < 0. then "  (VIOLATED)" else "");
      Format.fprintf ppf "  input arrival %.4g ns" (p.path_input_arrival *. 1e9);
      List.iter
        (fun st ->
          Format.fprintf ppf
            "@,  %-10s %-8s gate %.4g ns  net %.4g ns  arrival %.4g ns"
            st.st_net (pin_string st.st_pin) (st.st_gate_delay *. 1e9)
            (st.st_net_delay *. 1e9) (st.st_arrival *. 1e9))
        p.path_stages)
    paths;
  Format.fprintf ppf "@]"

let pp_corners ppf cr =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf ppf
        "corner %-10s critical arrival %.4g ns  worst slack %.4g ns%s@,"
        s.cs_name
        (s.cs_critical_arrival *. 1e9)
        (s.cs_worst_slack *. 1e9)
        (if s.cs_worst_slack < 0. then "  (VIOLATED)" else ""))
    cr.summary;
  Format.fprintf ppf
    "across corners: critical arrival %.4g ns, worst slack %.4g ns at %s"
    (cr.critical_arrival_overall *. 1e9)
    (cr.worst_slack_overall *. 1e9)
    cr.worst_corner;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
module Design_file = struct
  exception Parse_error of int * string

  let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

  let value_exn line tok =
    match Circuit.Parser.parse_value tok with
    | Some v -> v
    | None -> fail line "cannot parse value %S" tok

  let tokens_of line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")

  let parse_string text =
    let lines =
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (i + 1, String.trim l))
      |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '*')
    in
    (* first pass: header values, validated where they appear so a bad
       vdd/threshold reports its own line instead of [create] raising
       after the pass *)
    let vdd = ref 5. and threshold = ref 0.5 in
    List.iter
      (fun (ln, l) ->
        match tokens_of l with
        | [ "vdd"; v ] ->
          let x = value_exn ln v in
          if not (Float.is_finite x && x > 0.) then
            fail ln "vdd must be positive";
          vdd := x
        | [ "threshold"; v ] ->
          let x = value_exn ln v in
          if not (x > 0. && x < 1.) then fail ln "threshold must be in (0, 1)";
          threshold := x
        | "vdd" :: _ -> fail ln "vdd expects one value"
        | "threshold" :: _ -> fail ln "threshold expects one value"
        | _ -> ())
      lines;
    let d = create ~vdd:!vdd ~threshold:!threshold () in
    let cells = Hashtbl.create 8 in
    let key_value ln tok =
      match String.split_on_char '=' tok with
      | [ k; v ] -> (String.lowercase_ascii k, value_exn ln v)
      | _ -> fail ln "expected key=value, got %S" tok
    in
    List.iter
      (fun (ln, l) ->
        (* card handlers validate as they build; report their
           complaints (duplicate declarations, bad values) with the
           offending line *)
        try
          match tokens_of l with
          | "vdd" :: _ | "threshold" :: _ -> ()
          | [ "cell"; name; dr; cap; intr ] ->
          if Hashtbl.mem cells name then fail ln "duplicate cell %s" name;
          Hashtbl.replace cells name
            (cell ~name ~drive_res:(value_exn ln dr)
               ~input_cap:(value_exn ln cap)
               ~intrinsic:(value_exn ln intr))
        | "gate" :: inst :: cell_name :: output :: inputs ->
          let cell =
            match Hashtbl.find_opt cells cell_name with
            | Some c -> c
            | None -> fail ln "unknown cell %s" cell_name
          in
          if inputs = [] then fail ln "gate %s has no inputs" inst;
          add_gate d ~inst ~cell ~inputs ~output
        | "net" :: name :: rest ->
          (* segments separated by ";" tokens, each: from to r c *)
          let groups =
            List.fold_left
              (fun acc tok ->
                if tok = ";" then [] :: acc
                else
                  match acc with
                  | g :: acc' -> (tok :: g) :: acc'
                  | [] -> [ [ tok ] ])
              [ [] ] rest
            |> List.rev_map List.rev
            |> List.filter (fun g -> g <> [])
          in
          let segments =
            List.map
              (fun g ->
                match g with
                | [ from_; to_; r; c ] ->
                  let res = value_exn ln r and cap = value_exn ln c in
                  if not (Float.is_finite res && res > 0.) then
                    fail ln "segment resistance must be positive";
                  if not (Float.is_finite cap && cap >= 0.) then
                    fail ln "segment capacitance must be non-negative";
                  { seg_from = from_; seg_to = to_; res; cap }
                | _ -> fail ln "net segment needs <from> <to> <r> <c>")
              groups
          in
          if segments = [] then fail ln "net %s has no segments" name;
          add_net d ~name ~segments
        | [ "constraint"; net; t ] ->
          add_constraint ~line:ln d ~net ~required:(value_exn ln t)
        | [ "clock"; p ] -> set_clock ~line:ln d ~period:(value_exn ln p)
        | "constraint" :: _ -> fail ln "constraint expects <net> <time>"
        | "clock" :: _ -> fail ln "clock expects one period value"
        | "input" :: net :: params ->
          let arrival = ref 0. and slew = ref 0. in
          List.iter
            (fun p ->
              match key_value ln p with
              | "arrival", v -> arrival := v
              | "slew", v -> slew := v
              | k, _ -> fail ln "unknown input parameter %S" k)
            params;
          add_primary_input d ~net ~arrival:!arrival ~slew:!slew ()
        | [ "output"; net ] -> add_primary_output d ~net
        | card :: _ -> fail ln "unknown card %S" card
        | [] -> ()
        with
        | Malformed msg | Invalid_argument msg -> fail ln "%s" msg)
      lines;
    d

  let parse_file path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

end

(* ------------------------------------------------------------------ *)
(* Synthetic designs at scale.  The paper's figures and the test decks
   are tens of nets; making parallel analysis pay (or regress) only
   shows up on designs big enough that per-wave fan-out dominates the
   fixed costs.  These generators stamp the regular structures real
   designs are made of — datapath grids, clock trees, irregular
   meshes — at 10k-100k nets, with wide topological waves. *)
module Synth = struct
  let net_count (d : design) = Hashtbl.length d.nets

  (* values in the chain-design regime: ~100 Ohm gates, fF-scale wire
     and pin caps, ps-scale intrinsics — AWE's comfortable range *)
  let grid_cells =
    [| cell ~name:"sg_nand" ~drive_res:150. ~input_cap:7e-15
         ~intrinsic:25e-12;
       cell ~name:"sg_nor" ~drive_res:200. ~input_cap:9e-15
         ~intrinsic:35e-12 |]

  let grid ~rows ~cols () =
    if rows < 1 || cols < 1 then
      invalid_arg "Sta.Synth.grid: need rows >= 1 and cols >= 1";
    let d = create () in
    let gate_name r c = Printf.sprintf "g%d_%d" r c in
    let net_name r c = Printf.sprintf "w%d_%d" r c in
    let pi_north c = Printf.sprintf "pn%d" c in
    let pi_west r = Printf.sprintf "pw%d" r in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let north = if r = 0 then pi_north c else net_name (r - 1) c in
        let west = if c = 0 then pi_west r else net_name r (c - 1) in
        add_gate d ~inst:(gate_name r c)
          ~cell:grid_cells.((r + c) mod 2)
          ~inputs:[ north; west ]
          ~output:(net_name r c)
      done
    done;
    (* each output net runs a short trunk, then arms to its south and
       east sinks.  Values repeat along anti-diagonals ((r + c) mod 4),
       i.e. within topological waves — the template regularity real
       datapaths have, which the structure cache exists to exploit. *)
    let wire r c sinks =
      let v = float_of_int ((r + c) mod 4) in
      let trunk = { seg_from = "drv"; seg_to = "t"; res = 80. +. (10. *. v); cap = 4e-15 } in
      trunk
      :: List.map
           (fun s ->
             { seg_from = "t"; seg_to = s; res = 120. +. (15. *. v); cap = 3e-15 })
           sinks
    in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let sinks =
          (if r + 1 < rows then [ gate_name (r + 1) c ] else [])
          @ if c + 1 < cols then [ gate_name r (c + 1) ] else []
        in
        add_net d ~name:(net_name r c) ~segments:(wire r c sinks)
      done
    done;
    for c = 0 to cols - 1 do
      add_net d ~name:(pi_north c)
        ~segments:
          [ { seg_from = "drv"; seg_to = gate_name 0 c; res = 100.; cap = 5e-15 } ];
      add_primary_input d ~net:(pi_north c) ();
      add_primary_output d ~net:(net_name (rows - 1) c)
    done;
    for r = 0 to rows - 1 do
      add_net d ~name:(pi_west r)
        ~segments:
          [ { seg_from = "drv"; seg_to = gate_name r 0; res = 100.; cap = 5e-15 } ];
      add_primary_input d ~net:(pi_west r) ();
      if r < rows - 1 then add_primary_output d ~net:(net_name r (cols - 1))
    done;
    d

  let clock_tree ~levels ~fanout () =
    if levels < 1 then invalid_arg "Sta.Synth.clock_tree: need levels >= 1";
    if fanout < 2 then invalid_arg "Sta.Synth.clock_tree: need fanout >= 2";
    let d = create () in
    (* drive strength tapers toward the leaves, wire width with it:
       one cell and one wire template per level, so every net of a
       topological wave is the identical stage circuit *)
    let buf_cell =
      Array.init levels (fun lvl ->
          cell
            ~name:(Printf.sprintf "ct_buf%d" lvl)
            ~drive_res:(80. +. (25. *. float_of_int lvl))
            ~input_cap:5e-15 ~intrinsic:15e-12)
    in
    let rec build lvl inst in_net =
      let out_net = "n_" ^ inst in
      add_gate d ~inst ~cell:buf_cell.(lvl) ~inputs:[ in_net ] ~output:out_net;
      if lvl = levels - 1 then begin
        (* leaf buffer: a stub load net, marked as a primary output *)
        add_net d ~name:out_net
          ~segments:
            [ { seg_from = "drv"; seg_to = "t"; res = 60.; cap = 8e-15 } ];
        add_primary_output d ~net:out_net
      end
      else begin
        let children =
          List.init fanout (fun k -> Printf.sprintf "%s_%d" inst k)
        in
        let lv = float_of_int lvl in
        let segments =
          { seg_from = "drv"; seg_to = "t"; res = 40. +. (8. *. lv); cap = 6e-15 }
          :: List.concat
               (List.mapi
                  (fun k child ->
                    (* two arm templates per level (H-tree near/far
                       arms), identical across the wave's nets *)
                    let arm = Printf.sprintf "a%d" k in
                    let stretch = if k mod 2 = 0 then 1. else 1.4 in
                    [ { seg_from = "t";
                        seg_to = arm;
                        res = (70. +. (10. *. lv)) *. stretch;
                        cap = 4e-15 };
                      { seg_from = arm; seg_to = child; res = 50.; cap = 3e-15 } ])
                  children)
        in
        add_net d ~name:out_net ~segments;
        List.iter (fun child -> build (lvl + 1) child out_net) children
      end
    in
    add_net d ~name:"clk"
      ~segments:[ { seg_from = "drv"; seg_to = "b"; res = 30.; cap = 10e-15 } ];
    add_primary_input d ~net:"clk" ();
    build 0 "b" "clk";
    d

  let buffered_mesh ?(seed = 91) ~rows ~cols () =
    if rows < 2 || cols < 2 then
      invalid_arg "Sta.Synth.buffered_mesh: need rows >= 2 and cols >= 2";
    let st = Random.State.make [| seed |] in
    let d = create () in
    let gate_name r c = Printf.sprintf "m%d_%d" r c in
    let net_name r c = Printf.sprintf "x%d_%d" r c in
    let pi_north c = Printf.sprintf "qn%d" c in
    let pi_west r = Printf.sprintf "qw%d" r in
    (* irregular counterpart of [grid]: seeded per-net wire values (few
       repeated templates — the cache-hostile case) and random extra
       diagonal listeners.  All flags are drawn up front, row-major,
       so the stream — and therefore the design — is a pure function
       of [seed]. *)
    let diag = Array.init rows (fun _ -> Array.init cols (fun _ -> false)) in
    for r = 1 to rows - 1 do
      for c = 1 to cols - 1 do
        diag.(r).(c) <- Random.State.float st 1. < 0.3
      done
    done;
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let north = if r = 0 then pi_north c else net_name (r - 1) c in
        let west = if c = 0 then pi_west r else net_name r (c - 1) in
        let inputs =
          (north :: west
           :: (if diag.(r).(c) then [ net_name (r - 1) (c - 1) ] else []))
        in
        add_gate d ~inst:(gate_name r c)
          ~cell:grid_cells.(((r * 3) + c) mod 2)
          ~inputs ~output:(net_name r c)
      done
    done;
    let wire sinks =
      let trunk =
        { seg_from = "drv";
          seg_to = "t";
          res = 60. +. Random.State.float st 120.;
          cap = 2e-15 +. Random.State.float st 6e-15 }
      in
      trunk
      :: List.map
           (fun s ->
             { seg_from = "t";
               seg_to = s;
               res = 90. +. Random.State.float st 140.;
               cap = 2e-15 +. Random.State.float st 5e-15 })
           sinks
    in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let sinks =
          (if r + 1 < rows then [ gate_name (r + 1) c ] else [])
          @ (if c + 1 < cols then [ gate_name r (c + 1) ] else [])
          @
          if r + 1 < rows && c + 1 < cols && diag.(r + 1).(c + 1) then
            [ gate_name (r + 1) (c + 1) ]
          else []
        in
        add_net d ~name:(net_name r c) ~segments:(wire sinks)
      done
    done;
    for c = 0 to cols - 1 do
      add_net d ~name:(pi_north c)
        ~segments:
          [ { seg_from = "drv";
              seg_to = gate_name 0 c;
              res = 80. +. Random.State.float st 60.;
              cap = 4e-15 } ];
      add_primary_input d ~net:(pi_north c) ();
      add_primary_output d ~net:(net_name (rows - 1) c)
    done;
    for r = 0 to rows - 1 do
      add_net d ~name:(pi_west r)
        ~segments:
          [ { seg_from = "drv";
              seg_to = gate_name r 0;
              res = 80. +. Random.State.float st 60.;
              cap = 4e-15 } ];
      add_primary_input d ~net:(pi_west r) ();
      if r < rows - 1 then add_primary_output d ~net:(net_name r (cols - 1))
    done;
    d

  let ladder_cell =
    cell ~name:"rl_buf" ~drive_res:120. ~input_cap:6e-15 ~intrinsic:20e-12

  let rc_ladder ~stages ~length ~fanout () =
    if stages < 1 then invalid_arg "Sta.Synth.rc_ladder: need stages >= 1";
    if length < 3 then invalid_arg "Sta.Synth.rc_ladder: need length >= 3";
    if fanout < 1 then invalid_arg "Sta.Synth.rc_ladder: need fanout >= 1";
    let d = create () in
    let gate_name i = Printf.sprintf "rl%d" i in
    let net_name i = Printf.sprintf "ln%d" i in
    (* each stage drives a long uniform RC trunk (the 2508.13159
       long-chain regime: every trunk interior node is chain-interior
       material) ending in a hub with [fanout - 1] capacitive side
       stubs (star-leg material) plus the arm to the next stage's
       input pin.  Trunk length and values vary with [stage mod 3], so
       the unreduced design has three stage-circuit topology classes —
       after reduction every stage lumps to the same T-section
       template, which is exactly the canonicalization the pattern
       tier rewards. *)
    let ladder i sinks =
      let cls = i mod 3 in
      let len = length + cls in
      let v = float_of_int cls in
      let seg k =
        { seg_from = (if k = 0 then "drv" else Printf.sprintf "t%d" k);
          seg_to = Printf.sprintf "t%d" (k + 1);
          res = 45. +. (7. *. v);
          cap = 2.5e-15 +. (0.4e-15 *. v) }
      in
      let hub = Printf.sprintf "t%d" len in
      let stubs =
        List.init (fanout - 1) (fun j ->
            { seg_from = hub;
              seg_to = Printf.sprintf "s%d" j;
              res = 90. +. (12. *. float_of_int j);
              cap = 5e-15 +. (0.6e-15 *. float_of_int j) })
      in
      let arms =
        List.map
          (fun s -> { seg_from = hub; seg_to = s; res = 70.; cap = 3e-15 })
          sinks
      in
      List.init len seg @ stubs @ arms
    in
    for i = 0 to stages - 1 do
      let input = if i = 0 then "lin" else net_name (i - 1) in
      add_gate d ~inst:(gate_name i) ~cell:ladder_cell ~inputs:[ input ]
        ~output:(net_name i)
    done;
    add_net d ~name:"lin"
      ~segments:
        [ { seg_from = "drv"; seg_to = gate_name 0; res = 60.; cap = 4e-15 } ];
    add_primary_input d ~net:"lin" ();
    for i = 0 to stages - 1 do
      let sinks = if i + 1 < stages then [ gate_name (i + 1) ] else [] in
      add_net d ~name:(net_name i) ~segments:(ladder i sinks)
    done;
    add_primary_output d ~net:(net_name (stages - 1));
    d
end
