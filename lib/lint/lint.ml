(* Static circuit lint: predict singular solves and degenerate AWE
   models from the parsed deck alone, before any factorization runs.

   The checks are layered the way the failures are layered:

   - per-element value and short checks (pure local inspection);
   - topological checks on the conductive graph (floating groups,
     inductor loops, V-source loops, dangling nodes) — these catch the
     numerically-singular-but-structurally-full-rank cases such as a
     loop of voltage sources, where the MNA rows are distinct patterns
     that happen to be linearly dependent for every value choice;
   - a structural-rank check (maximum bipartite matching) on the very
     augmented-G pattern [Mna.dc_factor] factors — this catches every
     case where LU must fail regardless of values;
   - a conditioning heuristic on the node time-constant spread, the
     quantity the paper's eq. 47 frequency scaling is meant to tame.

   The graph-walking checks (floating groups, sink reachability, the
   cycle check) run on the shared Dataflow fixpoint engine; the
   [*_core] entry points are the pre-Lint-2.0 check set, kept
   diagnostic-identical to the original implementations (a qcheck
   differential property in test/lint pins the byte identity), while
   [check_circuit]/[check_design] append the W2xx / I2xx / W13x pass
   families layered on the same engine. *)

module Diagnostic = Diagnostic
module Dataflow = Dataflow
module Health = Health
module Reduce_advice = Reduce_advice
module Coverage = Coverage
module Sarif = Sarif
module Baseline = Baseline
module D = Diagnostic

let spread_limit = 1e10
(* decades of node time-constant spread tolerated before warning; at
   1e10 the q-th moment ratio between extreme nodes reaches 1e(10q),
   past double precision by order 16 even after eq. 47 scaling *)

let nname (c : Circuit.Netlist.circuit) n = c.Circuit.Netlist.node_names.(n)

(* ------------------------------------------------------------------ *)
(* union-find over node ids, for loop detection                        *)

module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find uf i =
    if uf.(i) = i then i
    else begin
      let r = find uf uf.(i) in
      uf.(i) <- r;
      r
    end

  (* [union uf a b] merges; [false] when already connected, i.e. the
     edge closes a loop *)
  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra = rb then false
    else begin
      uf.(ra) <- rb;
      true
    end
end

(* ------------------------------------------------------------------ *)
(* circuit-level checks                                                *)

let check_values ~emit ~line (c : Circuit.Netlist.circuit) =
  Array.iteri
    (fun idx e ->
      let bad kind v name =
        emit
          (D.make ?line:(line idx) ~element:name
             ~hint:
               (Printf.sprintf "give %s a positive, finite %s" name kind)
             D.Nonpositive_value
             (Printf.sprintf
                "%s has %s %g; element values must be strictly positive"
                name kind v))
      in
      match e with
      | Circuit.Element.Resistor { name; r; _ } ->
        if not (Float.is_finite r && r > 0.) then bad "resistance" r name
      | Circuit.Element.Capacitor { name; c = cv; _ } ->
        if not (Float.is_finite cv && cv > 0.) then
          bad "capacitance" cv name
      | Circuit.Element.Inductor { name; l; _ } ->
        if not (Float.is_finite l && l > 0.) then bad "inductance" l name
      | _ -> ())
    c.Circuit.Netlist.elements

let check_shorts ~emit ~line (c : Circuit.Netlist.circuit) =
  Array.iteri
    (fun idx e ->
      let shorted_source name node =
        emit
          (D.make ?line:(line idx) ~element:name ~nodes:[ nname c node ]
             ~hint:"remove the source or reroute one terminal"
             D.Shorted_source
             (Printf.sprintf
                "voltage source %s connects node %s to itself: its \
                 branch equation is structurally empty and LU must fail"
                name (nname c node)))
      and shorted_element name kind node =
        emit
          (D.make ?line:(line idx) ~element:name ~nodes:[ nname c node ]
             ~hint:"remove the element or reroute one terminal"
             D.Shorted_element
             (Printf.sprintf
                "%s %s has both terminals on node %s and stamps nothing"
                kind name (nname c node)))
      in
      match e with
      | Circuit.Element.Vsource { name; np; nn; _ } when np = nn ->
        shorted_source name np
      | Circuit.Element.Resistor { name; np; nn; _ } when np = nn ->
        shorted_element name "resistor" np
      | Circuit.Element.Capacitor { name; np; nn; _ } when np = nn ->
        shorted_element name "capacitor" np
      | Circuit.Element.Inductor { name; np; nn; _ } when np = nn ->
        (* the branch row v_p - v_n = s L i degenerates to an empty
           G-row: flagged here and again by the structural-rank check *)
        shorted_element name "inductor" np
      | Circuit.Element.Isource { name; np; nn; _ } when np = nn ->
        shorted_element name "current source" np
      | _ -> ())
    c.Circuit.Netlist.elements

(* DC-floating groups on the dataflow engine: ground reachability over
   the undirected conductive graph, then min-node-id label propagation
   to split the unreached nodes into components.  Emits byte-identical
   groups to [Circuit.Topology.floating_groups] (members ascending,
   groups sorted), which the differential property relies on. *)
let floating_groups (c : Circuit.Netlist.circuit) =
  let nodes = c.Circuit.Netlist.node_count in
  let g =
    Dataflow.undirected ~nodes (Circuit.Flowgraph.conductive_pairs c)
  in
  let module B = Dataflow.Make (Dataflow.Bool_or) in
  let reached =
    B.solve g
      ~init:(fun n -> n = Circuit.Element.ground)
      ~edge:(fun ~from:_ ~into:_ v -> v)
  in
  let module M = Dataflow.Make (Dataflow.Min_int) in
  let label =
    M.solve g ~init:(fun n -> n) ~edge:(fun ~from:_ ~into:_ v -> v)
  in
  let groups = Hashtbl.create 4 in
  for n = nodes - 1 downto 0 do
    if not reached.(n) then
      Hashtbl.replace groups label.(n)
        (n :: Option.value (Hashtbl.find_opt groups label.(n)) ~default:[])
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) groups []
  |> List.sort compare

let check_floating ~emit ~line (c : Circuit.Netlist.circuit) =
  let groups = floating_groups c in
  List.iter
    (fun members ->
      let in_group = Hashtbl.create 8 in
      List.iter (fun n -> Hashtbl.replace in_group n ()) members;
      let mem n = Hashtbl.mem in_group n in
      let names = List.map (nname c) members in
      (* a current source with a terminal in the group violates charge
         conservation: Mna.build rejects exactly this configuration *)
      Array.iteri
        (fun idx e ->
          match e with
          | Circuit.Element.Isource { name; np; nn; _ }
            when np <> nn && (mem np || mem nn) ->
            emit
              (D.make ?line:(line idx) ~element:name ~nodes:names
                 ~hint:
                   "give the group a DC path to ground so the source \
                    current can return"
                 D.Isrc_cutset
                 (Printf.sprintf
                    "current source %s drives the DC-floating group \
                     {%s}: the injected charge has no return path and \
                     grows without bound"
                    name (String.concat ", " names)))
          | _ -> ())
        c.Circuit.Netlist.elements;
      (* charge conservation only determines the group's potential when
         some capacitor bridges it to the outside: group-internal caps
         cancel in the summed charge row *)
      let bridged =
        Array.exists
          (fun e ->
            match e with
            | Circuit.Element.Capacitor { np; nn; _ } -> mem np <> mem nn
            | _ -> false)
          c.Circuit.Netlist.elements
      in
      if bridged then
        emit
          (D.make ~nodes:names D.Float_group
             (Printf.sprintf
                "nodes {%s} have no DC path to ground; their steady \
                 state is resolved by charge conservation and the \
                 response has a pole at s = 0"
                (String.concat ", " names)))
      else
        emit
          (D.make ~nodes:names
             ~hint:
               "bridge the group to the rest of the circuit with a \
                capacitor or resistor"
             D.Float_no_cap
             (Printf.sprintf
                "nodes {%s} have no DC path to ground and no bridging \
                 capacitance: the charge-conservation row is empty and \
                 the augmented system stays singular"
                (String.concat ", " names))))
    groups

let check_loops ~emit ~line (c : Circuit.Netlist.circuit) =
  let uf = Uf.create c.Circuit.Netlist.node_count in
  (* inductor edges first: a closing L edge is a pure inductor loop *)
  Array.iteri
    (fun idx e ->
      match e with
      | Circuit.Element.Inductor { name; np; nn; _ }
        when np <> nn && not (Uf.union uf np nn) ->
        emit
          (D.make ?line:(line idx) ~element:name
             ~nodes:[ nname c np; nname c nn ]
             ~hint:"break the loop with a small series resistance"
             D.Ind_loop
             (Printf.sprintf
                "inductor %s closes a loop of inductors: the DC \
                 circulating current is undetermined and the response \
                 has a repeated pole at s = 0"
                name))
      | _ -> ())
    c.Circuit.Netlist.elements;
  (* then V-source edges: a closure now is a zero-resistance loop
     through at least one voltage source (possibly via inductors) *)
  Array.iteri
    (fun idx e ->
      match e with
      | Circuit.Element.Vsource { name; np; nn; _ }
        when np <> nn && not (Uf.union uf np nn) ->
        emit
          (D.make ?line:(line idx) ~element:name
             ~nodes:[ nname c np; nname c nn ]
             ~hint:
               "add series resistance or remove the redundant source"
             D.Vsrc_loop
             (Printf.sprintf
                "voltage source %s closes a zero-resistance loop \
                 through voltage sources/inductors: the loop current \
                 is undetermined (the branch rows are linearly \
                 dependent for every value choice)"
                name))
      | _ -> ())
    c.Circuit.Netlist.elements

let check_dangling ~emit ~line (c : Circuit.Netlist.circuit) =
  (* count current-carrying terminal incidences per node; VCVS/VCCS
     control pins are high-impedance and deliberately excluded *)
  let deg = Array.make c.Circuit.Netlist.node_count 0 in
  let sole = Array.make c.Circuit.Netlist.node_count (-1) in
  Array.iteri
    (fun idx e ->
      let touch n =
        deg.(n) <- deg.(n) + 1;
        sole.(n) <- idx
      in
      match e with
      | Circuit.Element.Resistor { np; nn; _ }
      | Circuit.Element.Capacitor { np; nn; _ }
      | Circuit.Element.Inductor { np; nn; _ }
      | Circuit.Element.Vsource { np; nn; _ }
      | Circuit.Element.Isource { np; nn; _ }
      | Circuit.Element.Vcvs { np; nn; _ }
      | Circuit.Element.Vccs { np; nn; _ }
      | Circuit.Element.Ccvs { np; nn; _ }
      | Circuit.Element.Cccs { np; nn; _ } ->
        touch np;
        touch nn
      | Circuit.Element.Mutual _ -> ())
    c.Circuit.Netlist.elements;
  for n = 1 to c.Circuit.Netlist.node_count - 1 do
    if deg.(n) = 1 then begin
      match c.Circuit.Netlist.elements.(sole.(n)) with
      | Circuit.Element.Resistor { name; _ } ->
        emit
          (D.make ?line:(line sole.(n)) ~element:name
             ~nodes:[ nname c n ]
             ~hint:"remove the dead-end resistor or attach a load"
             D.Dangling_node
             (Printf.sprintf
                "node %s is reached only by one terminal of resistor \
                 %s: no current flows and the node voltage merely \
                 copies its neighbour"
                (nname c n) name))
      | _ -> ()
    end
    else if deg.(n) = 0 then
      emit
        (D.make ~nodes:[ nname c n ]
           ~hint:
             "attach a current-carrying element or remove the node"
           D.Dangling_node
           (Printf.sprintf
              "node %s is attached only to high-impedance control \
               pins: its KCL row is empty and LU must fail"
              (nname c n)))
  done

(* structural-rank check on the very pattern [Mna.dc_factor] factors,
   plus the eq. 47 conditioning heuristic — both need the assembled
   system, so they share one [Mna.build] *)
let check_mna ~emit (c : Circuit.Netlist.circuit) =
  match Circuit.Mna.build c with
  | exception Invalid_argument _ ->
    (* an I source drives a floating group: already diagnosed, with
       better locality, by [check_floating] *)
    ()
  | sys ->
    let pat = Sparse.Csr.of_dense (Circuit.Mna.augmented_g sys) in
    let m = Sparse.Matching.max_matching pat in
    let n = Sparse.Csr.rows pat in
    if m.Sparse.Matching.size < n then
      Array.iteri
        (fun row col ->
          if col < 0 then
            emit
              (D.make
                 ~hint:
                   "the factorization fails for every choice of \
                    element values; fix the structural defect"
                 D.Structural_rank
                 (Printf.sprintf
                    "the MNA pattern is structurally singular: the \
                     equation of %s cannot be matched to any unknown \
                     (structural rank %d < %d)"
                    (Circuit.Mna.describe_var sys row)
                    m.Sparse.Matching.size n)))
        m.Sparse.Matching.col_of_row;
    (* eq. 47 scales moments by a single frequency; when node time
       constants spread over many decades no single scale fits and the
       moment matrix of eq. 21 turns numerically rank-deficient *)
    let gm = Circuit.Mna.g sys and cm = Circuit.Mna.c sys in
    let extreme = ref None in
    for node = 1 to c.Circuit.Netlist.node_count - 1 do
      let v = Circuit.Mna.node_var sys node in
      if v >= 0 then begin
        let gii = Linalg.Matrix.get gm v v
        and cii = Linalg.Matrix.get cm v v in
        if gii > 0. && cii > 0. then begin
          let tau = cii /. gii in
          extreme :=
            Some
              (match !extreme with
              | None -> ((tau, node), (tau, node))
              | Some ((tmin, nmin), (tmax, nmax)) ->
                ( (if tau < tmin then (tau, node) else (tmin, nmin)),
                  if tau > tmax then (tau, node) else (tmax, nmax) ))
        end
      end
    done;
    (match !extreme with
    | Some ((tmin, nmin), (tmax, nmax))
      when nmin <> nmax && tmax > spread_limit *. tmin ->
      emit
        (D.make
           ~nodes:[ nname c nmin; nname c nmax ]
           ~hint:
             "rescale the extreme elements or split the analysis per \
              time scale"
           D.Scale_spread
           (Printf.sprintf
              "node time constants span %.1f decades (%.3g s at node \
               %s, %.3g s at node %s): moment ratios overflow double \
               precision despite eq. 47 frequency scaling"
              (Float.log10 (tmax /. tmin))
              tmin (nname c nmin) tmax (nname c nmax)))
    | _ -> ())

let check_circuit_core (c : Circuit.Netlist.circuit) =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  let line idx = Circuit.Netlist.element_line c idx in
  Dataflow.tick ~n:(Array.length c.Circuit.Netlist.elements) ();
  check_values ~emit ~line c;
  check_shorts ~emit ~line c;
  check_floating ~emit ~line c;
  check_loops ~emit ~line c;
  check_dangling ~emit ~line c;
  check_mna ~emit c;
  List.rev !acc

let check_circuit (c : Circuit.Netlist.circuit) =
  check_circuit_core c
  @ Health.check_circuit c ~spread_limit
  @ Reduce_advice.check_circuit c

(* ------------------------------------------------------------------ *)
(* design-level checks (.sta)                                          *)

let check_design_core (d : Sta.design) =
  let acc = ref [] in
  let emit x = acc := x :: !acc in
  let gates = Sta.gate_views d in
  let nets = Sta.net_names d in
  let pis = Sta.primary_input_nets d in
  let pos = Sta.primary_output_nets d in
  let have_net n = Sta.net_segments d n <> None in
  let is_pi n = Sta.primary_input d n <> None in
  (* drivers and sinks of a net in declaration order (one sink entry
     per gate), from the design's connectivity index: constant work per
     gate returned, so the pass stays linear on 10k-net designs (the
     bench lint_scale gate) *)
  let view (g : Sta.gate) =
    { Sta.gv_inst = g.g_inst;
      gv_cell = g.g_cell.Sta.cell_name;
      gv_inputs = g.g_inputs;
      gv_output = g.g_output }
  in
  let has_driver n = Sta.driver_of d n <> None in
  let drivers_of n = List.rev_map view (Sta.drivers_of d n) in
  let sinks_of n = List.rev_map view (Sta.sinks_of d n) in
  (* every referenced net needs a wire model *)
  List.iter
    (fun g ->
      List.iter
        (fun n ->
          if not (have_net n) then
            emit
              (D.make ~element:g.Sta.gv_inst ~nodes:[ n ]
                 ~hint:"add a net card for it" D.Unknown_net
                 (Printf.sprintf
                    "gate %s references net %s, which has no wire model"
                    g.Sta.gv_inst n)))
        (g.Sta.gv_output :: g.Sta.gv_inputs))
    gates;
  List.iter
    (fun n ->
      if not (have_net n) then
        emit
          (D.make ~nodes:[ n ] ~hint:"add a net card for it"
             D.Unknown_net
             (Printf.sprintf
                "primary input drives net %s, which has no wire model" n)))
    pis;
  List.iter
    (fun n ->
      if not (have_net n) then
        emit
          (D.make ~nodes:[ n ] ~hint:"add a net card for it"
             D.Unknown_net
             (Printf.sprintf
                "primary output taps net %s, which has no wire model" n)))
    pos;
  (* every net needs exactly one source of a signal *)
  List.iter
    (fun n ->
      Dataflow.tick ();
      if (not (has_driver n)) && not (is_pi n) then
        emit
          (D.make ~nodes:[ n ]
             ~hint:
               "drive it from a gate output or declare it a primary \
                input"
             D.Undriven_net
             (Printf.sprintf
                "net %s is neither a gate output nor a primary input: \
                 no arrival time can ever reach it"
                n)))
    nets;
  (* sink attachment and reachability through the wire segments: a
     forward reachability pass from the drv pin over each net's
     (undirected) segment graph *)
  let module B = Dataflow.Make (Dataflow.Bool_or) in
  List.iter
    (fun n ->
      match Sta.net_segments d n with
      | None -> ()
      | Some segs ->
        let ids = Hashtbl.create 16 in
        let intern name =
          match Hashtbl.find_opt ids name with
          | Some i -> i
          | None ->
            let i = Hashtbl.length ids in
            Hashtbl.replace ids name i;
            i
        in
        let drv = intern "drv" in
        let edges =
          List.map
            (fun s -> (intern s.Sta.seg_from, intern s.Sta.seg_to))
            segs
        in
        let g = Dataflow.undirected ~nodes:(Hashtbl.length ids) edges in
        let reached =
          B.solve g
            ~init:(fun i -> i = drv)
            ~edge:(fun ~from:_ ~into:_ v -> v)
        in
        List.iter
          (fun g ->
            match Hashtbl.find_opt ids g.Sta.gv_inst with
            | None ->
              emit
                (D.make ~element:g.Sta.gv_inst ~nodes:[ n ]
                   ~hint:
                     (Printf.sprintf
                        "add a segment of net %s ending at node %s"
                        n g.Sta.gv_inst)
                   D.Sink_unattached
                   (Printf.sprintf
                      "no wire segment of net %s ends at sink %s: \
                       the sink pin has no attachment node"
                      n g.Sta.gv_inst))
            | Some pin ->
              if not reached.(pin) then
                emit
                  (D.make ~element:g.Sta.gv_inst ~nodes:[ n ]
                     ~hint:
                       "connect the sink's wire island to the drv \
                        pin"
                     D.Sink_unreachable
                     (Printf.sprintf
                        "sink %s of net %s is not connected to the \
                         driver pin through the net's wire segments"
                        g.Sta.gv_inst n)))
          (sinks_of n))
    nets;
  (* timing constraints must name nets an arrival can actually reach:
     a constraint on an unknown or undriven net is dead — back-
     propagation starts from it, but no forward arrival ever meets it *)
  List.iter
    (fun (n, _t) ->
      if not (have_net n) then
        emit
          (D.make ~nodes:[ n ]
             ?line:(Sta.constraint_line d n)
             ~hint:"constrain an existing net, or add a net card for it"
             D.Constraint_target
             (Printf.sprintf
                "timing constraint names net %s, which has no wire model"
                n))
      else if (not (has_driver n)) && not (is_pi n) then
        emit
          (D.make ~nodes:[ n ]
             ?line:(Sta.constraint_line d n)
             ~hint:
               "drive the constrained net from a gate output or declare \
                it a primary input"
             D.Constraint_target
             (Printf.sprintf
                "timing constraint names net %s, which is undriven: no \
                 arrival can ever meet (or miss) the required time"
                n)))
    (Sta.constraints d);
  (* combinational cycles: propagate readiness the way Sta.analyze
     propagates arrival times, as a forward fixpoint on the net-level
     DAG (whose construction tolerates cycles); nets already blamed
     above (undriven or unknown) are seeded as ready so each defect is
     reported once.  The transfer is not a plain join — a gate readies
     its output only when ALL its inputs are ready — hence [fixpoint]
     with an explicit [get] rather than [solve] *)
  let dag = Sta.Dag.of_design d in
  (* total on this design: the Dag universe covers every net a gate,
     PI/PO card or constraint mentions *)
  let idx n =
    match Sta.Dag.index dag n with Some i -> i | None -> assert false
  in
  let seed =
    Array.map
      (fun n -> is_pi n || (not (have_net n)) || not (has_driver n))
      dag.Sta.Dag.nets
  in
  let module R = Dataflow.Make (Dataflow.Bool_or) in
  let ready =
    R.fixpoint ~direction:Dataflow.Forward
      { Dataflow.nodes = Array.length dag.Sta.Dag.nets;
        succs = dag.Sta.Dag.succs;
        preds = dag.Sta.Dag.preds
      }
      ~init:(fun i -> seed.(i))
      ~transfer:(fun i ~get ->
        seed.(i)
        || List.exists
             (fun gv ->
               List.for_all
                 (fun inp -> get (idx inp))
                 gv.Sta.gv_inputs)
             (drivers_of dag.Sta.Dag.nets.(i)))
  in
  let stuck = List.filter (fun n -> not ready.(idx n)) nets in
  if stuck <> [] then
    emit
      (D.make ~nodes:stuck
         ~hint:"break the feedback loop or register it"
         D.Design_cycle
         (Printf.sprintf
            "nets {%s} lie on (or downstream of) a combinational \
             cycle: no topological order can time them"
            (String.concat ", " stuck)));
  List.rev !acc

let check_design (d : Sta.design) =
  check_design_core d
  @ Health.check_design d ~spread_limit
  @ Coverage.check_design d

(* ------------------------------------------------------------------ *)
(* output normalization: the check passes report in traversal order
   (which the differential identity test pins); the CLI and the
   analyze/timing gates run [normalize] on top — duplicates collapsed
   per finding identity rather than per traversal, then a stable sort
   so [--json] output is deterministic across pass composition *)

let dedup ds =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun (d : D.t) ->
      let key = (d.code, d.element, d.nodes, d.message) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    ds

let sort_diagnostics ds =
  List.stable_sort
    (fun (a : D.t) (b : D.t) ->
      compare
        ( Option.value a.line ~default:0,
          D.id a.code,
          Option.value a.element ~default:"",
          a.nodes )
        ( Option.value b.line ~default:0,
          D.id b.code,
          Option.value b.element ~default:"",
          b.nodes ))
    ds

let normalize ds = sort_diagnostics (dedup ds)

(* ------------------------------------------------------------------ *)

(* [Circuit.Parser] validates element values while the deck is being
   read (mirroring [Netlist.freeze]), so a zero-ohm resistor never
   reaches [check_circuit] — it dies as a [Parse_error].  The lint
   front end routes such value complaints here so they are reported
   under their registry code instead of as a hard parse failure. *)
let diagnostic_of_parse_error ~line msg =
  let contains needle =
    let nl = String.length needle and ml = String.length msg in
    let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
    go 0
  in
  if
    contains "must be positive" || contains "positive value"
    || contains "non-finite" || contains "0 < k < 1"
  then
    Some
      (D.make ~line:(max line 1)
         ~hint:"give the element a positive, finite value"
         D.Nonpositive_value msg)
  else None

let errors ds = List.filter D.is_error ds

let gate ~strict ds =
  match
    List.filter (fun d -> D.effective_severity ~strict d = D.Error) ds
  with
  | [] -> Ok ()
  | offending -> Error offending
