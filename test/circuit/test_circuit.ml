(* Tests for the circuit substrate: elements, netlists, topology, MNA,
   operating points, deck parsing, and the paper's sample circuits. *)

open Circuit

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Element waveforms *)

let test_waveform_eval () =
  let step = Element.Step { v0 = 1.; v1 = 5. } in
  check_float "step before" 1. (Element.eval step (-1.));
  check_float "step at 0" 5. (Element.eval step 0.);
  let ramp = Element.Ramp { v0 = 0.; v1 = 4.; t_delay = 1.; t_rise = 2. } in
  check_float "ramp before delay" 0. (Element.eval ramp 0.5);
  check_float "ramp midpoint" 2. (Element.eval ramp 2.);
  check_float "ramp after" 4. (Element.eval ramp 10.);
  let pwl = Element.Pwl [ (0., 0.); (1., 2.); (3., -2.) ] in
  check_float "pwl interp" 1. (Element.eval pwl 0.5);
  check_float "pwl second segment" 0. (Element.eval pwl 2.);
  check_float "pwl hold" (-2.) (Element.eval pwl 99.)

let test_canonicalize_step () =
  let c = Element.canonicalize (Element.Step { v0 = 1.; v1 = 5. }) in
  check_float "pre" 1. c.Element.pre;
  check_float "v0" 5. c.Element.v0;
  check_float "slope" 0. c.Element.slope0;
  Alcotest.(check int) "no breaks" 0 (List.length c.Element.breaks)

let test_canonicalize_ramp_zero_delay () =
  let c =
    Element.canonicalize
      (Element.Ramp { v0 = 0.; v1 = 5.; t_delay = 0.; t_rise = 1e-3 })
  in
  check_float "slope" 5e3 c.Element.slope0;
  (match c.Element.breaks with
  | [ (t, dr) ] ->
    check_float "break time" 1e-3 t;
    check_float "slope change" (-5e3) dr
  | _ -> Alcotest.fail "expected one break")

let test_canonicalize_matches_eval () =
  let waves =
    [ Element.Dc 3.;
      Element.Step { v0 = -1.; v1 = 2. };
      Element.Ramp { v0 = 1.; v1 = 5.; t_delay = 0.5; t_rise = 2. };
      Element.Pwl [ (0., 0.); (1., 3.); (2., 3.); (4., -1.) ] ]
  in
  List.iter
    (fun w ->
      let c = Element.canonicalize w in
      List.iter
        (fun t ->
          check_close ~tol:1e-9
            (Printf.sprintf "t=%g" t)
            (Element.eval w t)
            (Element.eval_canonical c t))
        [ 0.; 0.3; 0.9; 1.5; 2.5; 3.7; 10. ])
    waves

let test_canonicalize_rejects_bad () =
  Alcotest.check_raises "non-positive rise"
    (Invalid_argument "Element: ramp rise time must be positive") (fun () ->
      ignore
        (Element.canonicalize
           (Element.Ramp { v0 = 0.; v1 = 1.; t_delay = 0.; t_rise = 0. })));
  Alcotest.check_raises "non-increasing PWL"
    (Invalid_argument "Element: PWL times must be strictly increasing")
    (fun () ->
      ignore (Element.canonicalize (Element.Pwl [ (1., 0.); (1., 2.) ])))

(* ------------------------------------------------------------------ *)
(* Netlist *)

let test_netlist_ground_aliases () =
  let b = Netlist.create () in
  Alcotest.(check int) "0" 0 (Netlist.node b "0");
  Alcotest.(check int) "gnd" 0 (Netlist.node b "gnd");
  Alcotest.(check int) "GROUND" 0 (Netlist.node b "GROUND");
  Alcotest.(check int) "case insensitive" (Netlist.node b "N1")
    (Netlist.node b "n1")

let test_netlist_duplicate_names () =
  let b = Netlist.create () in
  Netlist.add_r b "r1" "a" "b" 1.;
  Netlist.add_r b "R1" "b" "c" 2.;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Netlist: duplicate element name r1") (fun () ->
      ignore (Netlist.freeze b))

let test_netlist_value_validation () =
  let b = Netlist.create () in
  Netlist.add_r b "r1" "a" "0" (-5.);
  Alcotest.check_raises "negative resistance"
    (Invalid_argument "Netlist: resistor r1 must have a positive value")
    (fun () -> ignore (Netlist.freeze b))

let test_netlist_unknown_vctrl () =
  let b = Netlist.create () in
  Netlist.add_r b "r1" "a" "0" 5.;
  Netlist.add_cccs b "f1" "a" "0" "vmissing" 2.;
  (match Netlist.freeze b with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ())

let test_netlist_lookups () =
  let f4 = Samples.fig4 () in
  Alcotest.(check bool) "find element" true
    (Netlist.find_element f4.Samples.circuit "R3" <> None);
  Alcotest.(check bool) "find node" true
    (Netlist.find_node f4.Samples.circuit "n4" = Some f4.Samples.n4);
  Alcotest.(check int) "caps" 4 (List.length (Netlist.caps f4.Samples.circuit));
  Alcotest.(check int) "sources" 1
    (List.length (Netlist.sources f4.Samples.circuit))

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_fig4_is_tree () =
  let f4 = Samples.fig4 () in
  let p = Topology.analyze f4.Samples.circuit in
  Alcotest.(check bool) "rc tree" true p.Topology.is_rc_tree;
  Alcotest.(check bool) "no floating caps" false p.Topology.has_floating_caps;
  Alcotest.(check bool) "no grounded R" false
    p.Topology.has_grounded_resistors;
  Alcotest.(check bool) "no loops" false p.Topology.has_resistor_loops

let test_topology_fig9_grounded_r () =
  let f9 = Samples.fig9 () in
  let p = Topology.analyze f9.Samples.circuit in
  Alcotest.(check bool) "not a tree" false p.Topology.is_rc_tree;
  Alcotest.(check bool) "grounded R" true p.Topology.has_grounded_resistors

let test_topology_fig22_floating () =
  let f22, _ = Samples.fig22 () in
  let p = Topology.analyze f22.Samples.circuit in
  Alcotest.(check bool) "floating caps" true p.Topology.has_floating_caps;
  Alcotest.(check int) "one floating group" 1
    (List.length p.Topology.floating_groups)

let test_topology_fig25_inductors () =
  let f25 = Samples.fig25 () in
  let p = Topology.analyze f25.Samples.circuit in
  Alcotest.(check bool) "inductors" true p.Topology.has_inductors;
  Alcotest.(check bool) "not a tree" false p.Topology.is_rc_tree

let test_topology_resistor_loop () =
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 1.);
  Netlist.add_r b "r1" "in" "a" 1.;
  Netlist.add_r b "r2" "a" "b" 1.;
  Netlist.add_r b "r3" "b" "in" 1.;
  Netlist.add_c b "c1" "b" "0" 1.;
  let p = Topology.analyze (Netlist.freeze b) in
  Alcotest.(check bool) "loop detected" true p.Topology.has_resistor_loops;
  Alcotest.(check bool) "not a tree" false p.Topology.is_rc_tree

let test_rc_tree_parent () =
  let f4 = Samples.fig4 () in
  let parents = Topology.rc_tree_parent f4.Samples.circuit in
  (match parents.(f4.Samples.n4) with
  | Some (p, r) ->
    Alcotest.(check int) "n4 parent" f4.Samples.n3 p;
    check_float "n4 edge" 1e3 r
  | None -> Alcotest.fail "n4 should have a parent");
  let f25 = Samples.fig25 () in
  (match Topology.rc_tree_parent f25.Samples.circuit with
  | _ -> Alcotest.fail "fig25 is not an RC tree"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* MNA *)

let test_mna_voltage_divider () =
  (* V 1V -- R 1k -- out -- R 1k -- gnd: DC solve gives 0.5 *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 1.);
  Netlist.add_r b "r1" "in" "out" 1e3;
  Netlist.add_r b "r2" "out" "0" 1e3;
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let solver = Mna.dc_factor sys in
  let rhs = Linalg.Matrix.mul_vec (Mna.b sys) (Mna.u_at sys 0.) in
  let x = Mna.dc_solve solver ~rhs ~charges:[||] in
  check_close "divider" 0.5 (Mna.voltage sys x out)

let test_mna_source_current () =
  (* the V-source branch current equals the load current *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 2.);
  Netlist.add_r b "r1" "in" "0" 100.;
  let ckt = Netlist.freeze b in
  let sys = Mna.build ckt in
  let solver = Mna.dc_factor sys in
  let rhs = Linalg.Matrix.mul_vec (Mna.b sys) (Mna.u_at sys 0.) in
  let x = Mna.dc_solve solver ~rhs ~charges:[||] in
  (match Mna.branch_var sys 0 with
  | Some bv -> check_close "branch current" (-0.02) x.(bv)
  | None -> Alcotest.fail "V source must have a branch variable")

let test_mna_controlled_sources () =
  (* VCVS doubling a divider: E = 2 * v(mid); v(mid) = 0.5 *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 1.);
  Netlist.add_r b "r1" "in" "mid" 1e3;
  Netlist.add_r b "r2" "mid" "0" 1e3;
  Netlist.add_vcvs b "e1" "out" "0" "mid" "0" 2.;
  Netlist.add_r b "r3" "out" "0" 1e3;
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let solver = Mna.dc_factor sys in
  let rhs = Linalg.Matrix.mul_vec (Mna.b sys) (Mna.u_at sys 0.) in
  let x = Mna.dc_solve solver ~rhs ~charges:[||] in
  check_close "vcvs output" 1. (Mna.voltage sys x out)

let test_mna_vccs () =
  (* G element: i = gm * v(in); into 1 ohm load: v(out) = -gm * v(in) *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 1.);
  Netlist.add_vccs b "g1" "out" "0" "in" "0" 0.5;
  Netlist.add_r b "rl" "out" "0" 1. ;
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let solver = Mna.dc_factor sys in
  let rhs = Linalg.Matrix.mul_vec (Mna.b sys) (Mna.u_at sys 0.) in
  let x = Mna.dc_solve solver ~rhs ~charges:[||] in
  check_close "vccs output" (-0.5) (Mna.voltage sys x out)

let test_mna_cccs () =
  (* F element mirrors the current of v-source branch *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 1.);
  Netlist.add_r b "r1" "in" "0" 1.;
  (* i(v1) = -1 A *)
  Netlist.add_cccs b "f1" "out" "0" "v1" 1.;
  Netlist.add_r b "rl" "out" "0" 2.;
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let solver = Mna.dc_factor sys in
  let rhs = Linalg.Matrix.mul_vec (Mna.b sys) (Mna.u_at sys 0.) in
  let x = Mna.dc_solve solver ~rhs ~charges:[||] in
  (* current -1 (flowing out->gnd through F) over 2 ohm *)
  check_close "cccs output" 2. (Mna.voltage sys x out)

let test_mna_charge_group_fig22 () =
  let f22, victim = Samples.fig22 () in
  let sys = Mna.build f22.Samples.circuit in
  Alcotest.(check int) "one group" 1 (Mna.charge_group_count sys);
  let coeffs = Mna.charge_coeffs sys 0 in
  (* the conserved-charge row weights the victim node by C11 + C12 and
     the aggressor by -C11 *)
  let v_victim = Mna.node_var sys victim in
  let v_out = Mna.node_var sys f22.Samples.output in
  check_close ~tol:1e-25 "victim coeff" (85e-15 +. 255e-15) coeffs.(v_victim);
  check_close ~tol:1e-25 "aggressor coeff" (-85e-15) coeffs.(v_out)

let test_mna_reject_floating () =
  let f22, _ = Samples.fig22 () in
  (match Mna.build ~floating:`Reject f22.Samples.circuit with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ())

let test_mna_isource_into_floating_group () =
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 1.);
  Netlist.add_r b "r1" "in" "a" 1.;
  Netlist.add_c b "c1" "a" "x" 1e-12;
  Netlist.add_i b "i1" "x" "0" (Element.Dc 1e-3);
  (match Mna.build (Netlist.freeze b) with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ())

let test_mna_state_derivative_rc () =
  (* RC charging: at t=0+, dv/dt = V/(RC) *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Step { v0 = 0.; v1 = 1. });
  Netlist.add_r b "r1" "in" "out" 1e3;
  Netlist.add_c b "c1" "out" "0" 1e-6;
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  match Mna.state_derivative sys ~x:op0p.Dc.x ~u:(Mna.u_at sys 0.) with
  | Some (xdot, mask) ->
    let v = Mna.node_var sys out in
    Alcotest.(check bool) "dynamic" true mask.(v);
    check_close ~tol:1e-6 "initial slope" 1e3 xdot.(v)
  | None -> Alcotest.fail "derivative should exist"

let coupled_tanks k =
  (* two identical LC tanks coupled magnetically *)
  let b = Netlist.create () in
  Netlist.add_r b "rs" "a" "0" 1e6;
  Netlist.add_l b "l1" "a" "0" 1e-6;
  Netlist.add_c ~ic:1. b "c1" "a" "0" 1e-9;
  Netlist.add_l b "l2" "bb" "0" 1e-6;
  Netlist.add_c ~ic:0. b "c2" "bb" "0" 1e-9;
  Netlist.add_r b "rs2" "bb" "0" 1e6;
  Netlist.add_k b "k12" "l1" "l2" k;
  Netlist.freeze b

let test_mutual_split_modes () =
  (* coupled tanks resonate at w± = 1/sqrt(L(1±k)C) *)
  let k = 0.5 and l = 1e-6 and cc = 1e-9 in
  let sys = Mna.build (coupled_tanks k) in
  let g = Mna.g sys and cm = Mna.c sys in
  let f = Linalg.Lu.factor g in
  let n = Mna.size sys in
  let m = Linalg.Matrix.create n n in
  for j = 0 to n - 1 do
    let col = Linalg.Lu.solve f (Linalg.Matrix.col cm j) in
    for i = 0 to n - 1 do
      m.(i).(j) <- -.col.(i)
    done
  done;
  let mags =
    Linalg.Eigen.circuit_poles m
    |> List.map Linalg.Cx.abs
    |> List.sort_uniq (fun a b ->
           if Float.abs (a -. b) < 1. then 0 else Float.compare a b)
  in
  match mags with
  | [ w_low; w_high ] ->
    check_close ~tol:1e1 "low mode" (1. /. sqrt (l *. 1.5 *. cc)) w_low;
    check_close ~tol:1e1 "high mode" (1. /. sqrt (l *. 0.5 *. cc)) w_high
  | ms -> Alcotest.failf "expected 2 mode magnitudes, got %d" (List.length ms)

let test_mutual_symmetric_storage () =
  let sys = Mna.build (coupled_tanks 0.3) in
  Alcotest.(check bool) "C symmetric with coupling" true
    (Linalg.Matrix.is_symmetric ~tol:1e-18 (Mna.c sys))

let test_mutual_validation () =
  let bad k =
    let b = Netlist.create () in
    Netlist.add_v b "v" "in" "0" (Element.Dc 1.);
    Netlist.add_l b "l1" "in" "a" 1e-6;
    Netlist.add_r b "r1" "a" "0" 50.;
    Netlist.add_l b "l2" "a" "0" 1e-6;
    Netlist.add_k b "kx" "l1" "l2" k;
    Netlist.freeze b
  in
  (match bad 1.5 with
  | _ -> Alcotest.fail "k >= 1 accepted"
  | exception Invalid_argument _ -> ());
  let missing () =
    let b = Netlist.create () in
    Netlist.add_l b "l1" "a" "0" 1e-6;
    Netlist.add_r b "r1" "a" "0" 50.;
    Netlist.add_k b "kx" "l1" "nope" 0.5;
    Netlist.freeze b
  in
  (match missing () with
  | _ -> Alcotest.fail "unknown inductor accepted"
  | exception Invalid_argument _ -> ());
  let selfref () =
    let b = Netlist.create () in
    Netlist.add_l b "l1" "a" "0" 1e-6;
    Netlist.add_r b "r1" "a" "0" 50.;
    Netlist.add_k b "kx" "l1" "L1" 0.5;
    Netlist.freeze b
  in
  match selfref () with
  | _ -> Alcotest.fail "self coupling accepted"
  | exception Invalid_argument _ -> ()

let test_parse_k_card () =
  let deck =
    Parser.parse_string
      "v1 in 0 dc 1\nl1 in a 10n\nr1 a 0 50\nl2 b 0 10n\nr2 b 0 50\nkx l1 l2 0.8\n"
  in
  match Netlist.find_element deck.Parser.circuit "kx" with
  | Some (Element.Mutual { k; _ }) ->
    check_close "coupling coefficient" 0.8 k
  | _ -> Alcotest.fail "K card not parsed"

(* ------------------------------------------------------------------ *)
(* DC operating points *)

let test_dc_initial_equilibrium () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let op = Dc.initial sys in
  (* pre-step input is 0: everything rests at 0 *)
  Array.iter (fun (_, v) -> check_close "cap voltage" 0. v) op.Dc.cap_v;
  Array.iter (fun (_, i) -> check_close "cap current" 0. i) op.Dc.cap_i

let test_dc_initial_with_ic () =
  let f16 = Samples.fig16 ~v_c6:5.0 () in
  let sys = Mna.build f16.Samples.circuit in
  let op = Dc.initial sys in
  let c6_idx, _ =
    List.find
      (fun (_, e) -> Element.name e = "c6")
      (Netlist.caps f16.Samples.circuit)
  in
  let _, v6 = Array.to_list op.Dc.cap_v |> List.find (fun (i, _) -> i = c6_idx) in
  check_close "c6 pinned" 5.0 v6

let test_dc_zero_plus_jump () =
  (* at 0+ the source has stepped but cap voltages have not moved *)
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  Array.iter (fun (_, v) -> check_close "caps still at 0" 0. v) op0p.Dc.cap_v;
  (* but current now flows through the caps *)
  let total_current =
    Array.fold_left (fun acc (_, i) -> acc +. Float.abs i) 0. op0p.Dc.cap_i
  in
  Alcotest.(check bool) "caps charging" true (total_current > 1e-6)

let test_dc_inductor_short () =
  (* at DC an inductor is a short: divider through it *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Dc 1.);
  Netlist.add_r b "r1" "in" "a" 1e3;
  Netlist.add_l b "l1" "a" "out" 1e-9;
  Netlist.add_r b "r2" "out" "0" 1e3;
  let a = Netlist.node b "a" in
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let op = Dc.initial sys in
  check_close "l shorts" (Mna.voltage sys op.Dc.x a)
    (Mna.voltage sys op.Dc.x out);
  check_close "divider" 0.5 (Mna.voltage sys op.Dc.x out);
  let _, i_l = op.Dc.ind_i.(0) in
  check_close ~tol:1e-9 "inductor current" 5e-4 i_l

let test_dc_floating_defaults_zero () =
  let f22, victim = Samples.fig22 () in
  let sys = Mna.build f22.Samples.circuit in
  let op = Dc.initial sys in
  check_close "victim at 0" 0. (Mna.voltage sys op.Dc.x victim)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_values () =
  let cases =
    [ ("1k", 1e3); ("2.2meg", 2.2e6); ("100n", 1e-7); ("0.5p", 5e-13);
      ("3", 3.); ("1e-9", 1e-9); ("4ohm", 4.); ("10nF", 1e-8);
      ("-2.5m", -2.5e-3); ("1g", 1e9); ("2f", 2e-15); ("5u", 5e-6) ]
  in
  List.iter
    (fun (s, want) ->
      match Parser.parse_value s with
      | Some got ->
        check_close ~tol:(1e-12 *. Float.max 1. (Float.abs want)) s want got
      | None -> Alcotest.failf "failed to parse %S" s)
    cases;
  Alcotest.(check bool) "garbage rejected" true
    (Parser.parse_value "abc" = None)

let fig4_deck =
  {|* fig 4 RC tree
vin in 0 step(0 5)
r1 in n1 1k
c1 n1 0 0.1u
r2 n1 n2 1k
c2 n2 0 0.1u
r3 n1 n3 1k
c3 n3 0 0.1u
r4 n3 n4 1k
c4 n4 0 0.1u
.tran 5m 1000
.awe n4 2
.end
|}

let test_parse_fig4_deck () =
  let deck = Parser.parse_string fig4_deck in
  Alcotest.(check int) "elements" 9
    (Netlist.element_count deck.Parser.circuit);
  Alcotest.(check int) "directives" 2 (List.length deck.Parser.directives);
  let p = Topology.analyze deck.Parser.circuit in
  Alcotest.(check bool) "is rc tree" true p.Topology.is_rc_tree;
  (match deck.Parser.directives with
  | [ Parser.Tran { t_stop; steps } ; Parser.Awe_node { node; order } ] ->
    check_float "tstop" 5e-3 t_stop;
    Alcotest.(check (option int)) "steps" (Some 1000) steps;
    Alcotest.(check string) "awe node" "n4" node;
    Alcotest.(check (option int)) "order" (Some 2) order
  | _ -> Alcotest.fail "directives parsed wrong")

let test_parse_continuation_and_comments () =
  let deck =
    Parser.parse_string
      "v1 a 0 pwl(0 0\n+ 1n 5) ; trailing comment\nr1 a 0 1k\n* comment\n"
  in
  Alcotest.(check int) "elements" 2 (Netlist.element_count deck.Parser.circuit);
  match Netlist.find_element deck.Parser.circuit "v1" with
  | Some (Element.Vsource { wave = Element.Pwl pts; _ }) ->
    Alcotest.(check int) "pwl points" 2 (List.length pts)
  | _ -> Alcotest.fail "v1 should be a PWL source"

let test_parse_ic_variants () =
  let deck =
    Parser.parse_string
      "v1 in 0 step(0 5)\nr1 in a 1k\nc1 a 0 1p ic=2.5\nr2 a b 1k\nc2 b 0 1p\n.ic v(b)=1.5\n"
  in
  let caps = Netlist.caps deck.Parser.circuit in
  let ic_of name =
    match
      List.find_map
        (fun (_, e) ->
          match e with
          | Element.Capacitor { name = n; ic; _ } when n = name -> Some ic
          | _ -> None)
        caps
    with
    | Some ic -> ic
    | None -> Alcotest.failf "cap %s missing" name
  in
  Alcotest.(check (option (float 1e-12))) "inline IC" (Some 2.5) (ic_of "c1");
  Alcotest.(check (option (float 1e-12))) ".ic directive" (Some 1.5)
    (ic_of "c2")

let test_parse_controlled_sources () =
  let deck =
    Parser.parse_string
      "v1 in 0 dc 1\nr1 in m 1k\nr2 m 0 1k\ne1 o 0 m 0 2\nrload o 0 1k\nh1 p 0 v1 50\nrp p 0 1k\n"
  in
  Alcotest.(check int) "elements" 7 (Netlist.element_count deck.Parser.circuit)

let test_parse_errors_carry_line () =
  (match Parser.parse_string "v1 in 0 dc 1\nrbroken in\n" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error (line, _) ->
    Alcotest.(check int) "line number" 2 line);
  (* an unknown first card is absorbed as the title; the same card on a
     later line is an error *)
  (match Parser.parse_string "q1 a b c\nv1 a 0 dc 1\nr1 a 0 1k\n" with
  | deck -> Alcotest.(check (option string)) "title" (Some "q1 a b c")
              deck.Parser.title
  | exception Parser.Parse_error _ -> Alcotest.fail "title line rejected");
  match Parser.parse_string "v1 a 0 dc 1\nq1 a b c\n" with
  | _ -> Alcotest.fail "unknown card accepted"
  | exception Parser.Parse_error (line, _) ->
    Alcotest.(check int) "unknown card line" 2 line

let test_parse_title_line () =
  let deck = Parser.parse_string "my test circuit\nv1 a 0 dc 1\nr1 a 0 1k\n" in
  Alcotest.(check (option string)) "title" (Some "my test circuit")
    deck.Parser.title

let test_print_deck_roundtrip_samples () =
  (* every paper circuit serializes and parses back identically *)
  let circuits =
    [ (Samples.fig4 ()).Samples.circuit;
      (Samples.fig9 ()).Samples.circuit;
      (Samples.fig16 ~v_c6:5.0 ()).Samples.circuit;
      (fst (Samples.fig22 ())).Samples.circuit;
      (Samples.fig25 ()).Samples.circuit;
      Samples.fig8 () ]
  in
  List.iter
    (fun ckt ->
      let text = Parser.print_deck ~title:"roundtrip" ckt in
      let back = (Parser.parse_string text).Parser.circuit in
      Alcotest.(check int) "node count" ckt.Netlist.node_count
        back.Netlist.node_count;
      Alcotest.(check int) "element count"
        (Netlist.element_count ckt)
        (Netlist.element_count back);
      Array.iteri
        (fun i e ->
          let e' = back.Netlist.elements.(i) in
          Alcotest.(check string) "element repr"
            (Format.asprintf "%a" Element.pp e)
            (Format.asprintf "%a" Element.pp e'))
        ckt.Netlist.elements)
    circuits

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"random circuits survive print/parse" ~count:60
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let b = Netlist.create () in
      let wave =
        match Random.State.int st 4 with
        | 0 -> Element.Dc (Random.State.float st 10. -. 5.)
        | 1 -> Element.Step { v0 = 0.; v1 = Random.State.float st 5. }
        | 2 ->
          Element.Ramp
            { v0 = 0.;
              v1 = Random.State.float st 5.;
              t_delay = Random.State.float st 1e-9;
              t_rise = 1e-10 +. Random.State.float st 1e-9 }
        | _ -> Element.Pwl [ (0., 0.); (1e-9, Random.State.float st 5.) ]
      in
      Netlist.add_v b "v1" "in" "0" wave;
      for k = 1 to n do
        let parent =
          if k = 1 then "in" else Printf.sprintf "n%d" (1 + Random.State.int st (k - 1))
        in
        let me = Printf.sprintf "n%d" k in
        Netlist.add_r b (Printf.sprintf "r%d" k) parent me
          (1. +. Random.State.float st 1e4);
        match Random.State.int st 3 with
        | 0 -> Netlist.add_c b (Printf.sprintf "c%d" k) me "0"
                 (1e-15 +. Random.State.float st 1e-11)
        | 1 -> Netlist.add_c ~ic:(Random.State.float st 5.) b
                 (Printf.sprintf "c%d" k) me "0"
                 (1e-15 +. Random.State.float st 1e-11)
        | _ -> Netlist.add_l b (Printf.sprintf "l%d" k) me "0"
                 (1e-12 +. Random.State.float st 1e-8)
      done;
      let ckt = Netlist.freeze b in
      let back = (Parser.parse_string (Parser.print_deck ckt)).Parser.circuit in
      Netlist.element_count back = Netlist.element_count ckt
      && back.Netlist.node_count = ckt.Netlist.node_count
      && Array.for_all2
           (fun e e' ->
             Format.asprintf "%a" Element.pp e
             = Format.asprintf "%a" Element.pp e')
           ckt.Netlist.elements back.Netlist.elements)

let test_parse_negative_cases () =
  let rejects deck what =
    match Parser.parse_string deck with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Parser.Parse_error _ -> ()
  in
  rejects "v1 a 0 dc 1\nr1 a 0 pwl(1 2\n" "unbalanced parentheses";
  rejects "r0 a 0 1\nv1 a 0 pulse(0 5)\n" "unknown waveform";
  rejects "r0 a 0 1\nv1 a 0 pwl(0 0 1n)\n" "odd PWL args";
  rejects "v1 a 0 dc 1\nc1 a 0 1p ic=1 ic=2\n" "duplicate IC";
  rejects "v1 a 0 dc 1\nc1 a 0 1p frob=2\n" "unknown parameter";
  rejects "v1 a 0 dc 1\nr1 a 0 1k\n.ic w(a)=1\n" "malformed .ic";
  rejects "v1 a 0 dc 1\nr1 a 0 1k\n.ic v(zz)=1\n" ".ic unknown node";
  rejects "v1 a 0 dc 1\nr1 a 0 1k\n.frobnicate\n" "unknown directive";
  rejects "+ continuation first\nv1 a 0 dc 1\n" "leading continuation";
  rejects "r1 a 0 1k\nv1 a 0 dc abc\n" "garbage value"

let test_parse_empty_deck () =
  match Parser.parse_string "" with
  | _ -> Alcotest.fail "empty deck accepted"
  | exception Parser.Parse_error (0, _) -> ()
  | exception Parser.Parse_error _ -> ()
  | exception Invalid_argument _ -> ()

let test_tree_link_scope_rejections () =
  let open Awe in
  (* two sources *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "a" "0" (Element.Step { v0 = 0.; v1 = 1. });
  Netlist.add_v b "v2" "b" "0" (Element.Step { v0 = 0.; v1 = 1. });
  Netlist.add_r b "r1" "a" "b" 1e3;
  Netlist.add_c b "c1" "b" "0" 1e-12;
  (match Tree_link.prepare (Netlist.freeze b) with
  | _ -> Alcotest.fail "two sources accepted"
  | exception Tree_link.Unsupported _ -> ());
  (* ramp source *)
  let b2 = Netlist.create () in
  Netlist.add_v b2 "v1" "a" "0"
    (Element.Ramp { v0 = 0.; v1 = 1.; t_delay = 0.; t_rise = 1e-9 });
  Netlist.add_r b2 "r1" "a" "x" 1e3;
  Netlist.add_c b2 "c1" "x" "0" 1e-12;
  (match Tree_link.prepare (Netlist.freeze b2) with
  | _ -> Alcotest.fail "ramp source accepted"
  | exception Tree_link.Unsupported _ -> ());
  (* mixed ICs: some capacitors initialized, some not *)
  let b3 = Netlist.create () in
  Netlist.add_v b3 "v1" "a" "0" (Element.Step { v0 = 0.; v1 = 1. });
  Netlist.add_r b3 "r1" "a" "x" 1e3;
  Netlist.add_c ~ic:1. b3 "c1" "x" "0" 1e-12;
  Netlist.add_r b3 "r2" "x" "y" 1e3;
  Netlist.add_c b3 "c2" "y" "0" 1e-12;
  match Tree_link.prepare (Netlist.freeze b3) with
  | _ -> Alcotest.fail "mixed ICs accepted"
  | exception Tree_link.Unsupported _ -> ()

let test_mna_accessors () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  Alcotest.(check int) "one source" 1 (Mna.source_count sys);
  Alcotest.(check int) "source element is vin" 0 (Mna.source_element sys 0);
  (match Mna.source_waveform sys 0 with
  | Element.Step { v1; _ } -> check_close "step level" 5. v1
  | _ -> Alcotest.fail "expected a step");
  let u = Mna.u_at sys 1. in
  check_close "u(1)" 5. u.(0);
  Alcotest.(check int) "no charge groups" 0 (Mna.charge_group_count sys);
  (* ground voltage reads 0 from any state vector *)
  check_close "ground" 0. (Mna.voltage sys (Array.make (Mna.size sys) 7.) 0)

(* ------------------------------------------------------------------ *)
(* Samples sanity *)

let test_samples_fig4_elmore_constant () =
  check_float "elmore closed form" 7e-4 Samples.fig4_elmore_n4

let test_samples_random_tree_is_tree () =
  for seed = 1 to 5 do
    let ckt, _ = Samples.random_rc_tree ~seed ~n:20 () in
    let p = Topology.analyze ckt in
    Alcotest.(check bool) "random tree is a tree" true p.Topology.is_rc_tree
  done

let test_samples_random_mesh_has_loops () =
  let ckt, _ = Samples.random_rc_mesh ~seed:7 ~n:15 ~extra:5 () in
  let p = Topology.analyze ckt in
  Alcotest.(check bool) "mesh has loops" true p.Topology.has_resistor_loops

let prop_mna_dc_matches_divider =
  QCheck2.Test.make ~name:"series RC ladder DC equals source" ~count:50
    QCheck2.Gen.(int_range 1 20)
    (fun n ->
      (* at DC with caps open, no current flows: all nodes at source *)
      let b = Netlist.create () in
      Netlist.add_v b "v1" "n0" "0" (Element.Dc 3.3);
      for k = 1 to n do
        Netlist.add_r b
          (Printf.sprintf "r%d" k)
          (Printf.sprintf "n%d" (k - 1))
          (Printf.sprintf "n%d" k)
          (float_of_int (100 * k));
        Netlist.add_c b
          (Printf.sprintf "c%d" k)
          (Printf.sprintf "n%d" k)
          "0" 1e-12
      done;
      let last = Netlist.node b (Printf.sprintf "n%d" n) in
      let sys = Mna.build (Netlist.freeze b) in
      let op = Dc.initial sys in
      Float.abs (Mna.voltage sys op.Dc.x last -. 3.3) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Solve keys: the structure cache keys on name-free,
   construction-order serializations, so equal keys must mean
   identical MNA systems, every value bit must reach the exact key,
   and a node renumbering must miss rather than hit. *)

(* a random RC-tree net spec: node k = 1..n hangs off a random earlier
   node through a resistor, with a grounded capacitor at k *)
let canon_net_spec st ~n =
  Array.init n (fun k ->
      ( Random.State.int st (k + 1),
        50. +. Random.State.float st 450.,
        1e-15 +. Random.State.float st 40e-15 ))

(* a random RC-tree spec on a two-point value grid, so independent
   draws of small nets often coincide *)
let canon_coarse_spec st ~n =
  Array.init n (fun k ->
      ( Random.State.int st (k + 1),
        (if Random.State.bool st then 100. else 200.),
        if Random.State.bool st then 1e-15 else 2e-15 ))

(* materialize a spec; [prefix] renames every node and element without
   touching the construction order, [node_order] pre-registers node
   names so the internal numbering permutes, [perturb] nudges one
   resistor by a 1e-12 relative step *)
let canon_build ?(prefix = "") spec ~node_order ~perturb =
  let b = Netlist.create () in
  let nm s = prefix ^ s in
  List.iter (fun s -> ignore (Netlist.node b (nm s))) node_order;
  Netlist.add_v b (nm "vdrv") (nm "in") "0" (Element.Step { v0 = 0.; v1 = 5. });
  Netlist.add_r b (nm "rdrv") (nm "in") (nm "w0") 500.;
  Array.iteri
    (fun i (parent, r, c) ->
      let k = i + 1 in
      let r = if perturb = Some k then r *. (1. +. 1e-12) else r in
      Netlist.add_r b
        (nm (Printf.sprintf "r%d" k))
        (nm (Printf.sprintf "w%d" parent))
        (nm (Printf.sprintf "w%d" k))
        r;
      Netlist.add_c b
        (nm (Printf.sprintf "c%d" k))
        (nm (Printf.sprintf "w%d" k))
        "0" c)
    spec;
  Netlist.freeze b

(* node names in first-use order, which is also the id order of a
   build without [node_order] *)
let canon_natural_names n = "in" :: List.init (n + 1) (Printf.sprintf "w%d")

(* a permutation of the node names that differs from first-use order,
   so at least one node's id moves *)
let canon_shuffled_names st n =
  let names = Array.of_list (canon_natural_names n) in
  for i = Array.length names - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = names.(i) in
    names.(i) <- names.(j);
    names.(j) <- t
  done;
  let names = Array.to_list names in
  if names <> canon_natural_names n then names
  else match names with a :: b :: rest -> b :: a :: rest | l -> l

let same_bits m1 m2 =
  let open Linalg.Matrix in
  dims m1 = dims m2
  &&
  let rows, cols = dims m1 in
  let ok = ref true in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Int64.bits_of_float (get m1 i j) <> Int64.bits_of_float (get m2 i j)
      then ok := false
    done
  done;
  !ok

let same_system a b =
  let sa = Mna.build a and sb = Mna.build b in
  Mna.size sa = Mna.size sb
  && same_bits (Mna.augmented_g sa) (Mna.augmented_g sb)
  && same_bits (Mna.c sa) (Mna.c sb)
  && same_bits (Mna.b sa) (Mna.b sb)
  && List.init (Mna.source_count sa) (Mna.source_waveform sa)
     = List.init (Mna.source_count sb) (Mna.source_waveform sb)

let prop_canon_equal_keys_equal_systems =
  QCheck2.Test.make ~name:"equal exact keys build bitwise-equal MNA systems"
    ~count:80
    QCheck2.Gen.(pair (int_range 1 10) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| 0xCA90; seed |] in
      let spec = canon_net_spec st ~n in
      let a = canon_build spec ~node_order:[] ~perturb:None in
      let renamed = canon_build ~prefix:"x_" spec ~node_order:[] ~perturb:None in
      (* two independent coarse draws: equal keys some of the time *)
      let m = 1 + (n mod 3) in
      let c1 = canon_build (canon_coarse_spec st ~n:m) ~node_order:[] ~perturb:None in
      let c2 = canon_build (canon_coarse_spec st ~n:m) ~node_order:[] ~perturb:None in
      let implies x y =
        (Canon.hashes x).Canon.signature <> (Canon.hashes y).Canon.signature
        || same_system x y
      in
      (Canon.hashes a).Canon.signature = (Canon.hashes renamed).Canon.signature
      && implies a renamed && implies c1 c2)

let prop_canon_value_sensitive =
  QCheck2.Test.make
    ~name:"exact key sees a 1e-12 value nudge; pattern key does not"
    ~count:80
    QCheck2.Gen.(pair (int_range 2 14) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| 0xCA91; seed |] in
      let spec = canon_net_spec st ~n in
      let k = 1 + Random.State.int st n in
      let a = Canon.hashes (canon_build spec ~node_order:[] ~perturb:None) in
      let b = Canon.hashes (canon_build spec ~node_order:[] ~perturb:(Some k)) in
      a.Canon.pattern = b.Canon.pattern && a.Canon.signature <> b.Canon.signature)

let prop_canon_pattern_key_matches =
  QCheck2.Test.make
    ~name:"equal pattern keys share the augmented-G pattern"
    ~count:80
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| 0xCA92; seed |] in
      let spec = canon_net_spec st ~n in
      (* same topology, fresh (nonzero) values *)
      let revalued =
        Array.map (fun (p, _, _) -> (p, 50. +. Random.State.float st 450., 1e-15)) spec
      in
      let m = 1 + (n mod 3) in
      let pairs =
        [ ( canon_build spec ~node_order:[] ~perturb:None,
            canon_build revalued ~node_order:[] ~perturb:None );
          ( canon_build (canon_coarse_spec st ~n:m) ~node_order:[] ~perturb:None,
            canon_build (canon_coarse_spec st ~n:m) ~node_order:[] ~perturb:None ) ]
      in
      let csr c = Sparse.Csr.of_dense (Mna.augmented_g (Mna.build c)) in
      (Canon.hashes (fst (List.hd pairs))).Canon.pattern
      = (Canon.hashes (snd (List.hd pairs))).Canon.pattern
      && List.for_all
           (fun (x, y) ->
             (Canon.hashes x).Canon.pattern <> (Canon.hashes y).Canon.pattern
             || Sparse.Slu.pattern_matches (Sparse.Slu.symbolic (csr x)) (csr y))
           pairs)

let prop_canon_relabel_changes_keys =
  QCheck2.Test.make ~name:"a node renumbering changes both keys" ~count:80
    QCheck2.Gen.(pair (int_range 1 14) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| 0xCA93; seed |] in
      let spec = canon_net_spec st ~n in
      let a = Canon.hashes (canon_build spec ~node_order:[] ~perturb:None) in
      let b =
        Canon.hashes
          (canon_build spec ~node_order:(canon_shuffled_names st n) ~perturb:None)
      in
      a.Canon.pattern <> b.Canon.pattern && a.Canon.signature <> b.Canon.signature)

(* ------------------------------------------------------------------ *)
(* Circuit.Reduce: the pre-AWE model-order reduction pass *)

let reduce_step = Element.Step { v0 = 0.; v1 = 1. }

let reduce_node c name =
  match Netlist.find_node c name with
  | Some n -> n
  | None -> Alcotest.failf "reduce tests: no node %s" name

(* responses of the original and reduced circuits at a preserved port,
   compared by discrete relative L2 over the transient (the verify
   harness's metric); exact transforms pass [~tol:1e-12], the
   moment-preserving lumps the oracle-style [~tol:0.1] *)
let reduce_response_check ~tol msg c (r : Reduce.result) name =
  let node = reduce_node c name in
  let node' = r.Reduce.node_map.(node) in
  Alcotest.(check bool) (msg ^ ": port survives") true (node' >= 0);
  let a, _ = Awe.auto (Mna.build c) ~node in
  let a', _ = Awe.auto (Mna.build r.Reduce.circuit) ~node:node' in
  let tau =
    match Awe.poles a with
    | p :: _ when p.Linalg.Cx.re <> 0. -> 1. /. abs_float p.Linalg.Cx.re
    | _ -> Alcotest.failf "%s: no finite dominant pole" msg
  in
  let t_stop = 8. *. tau in
  let samples = 33 in
  let num = ref 0. and den = ref 0. in
  for k = 1 to samples do
    let t = t_stop *. float_of_int k /. float_of_int samples in
    let v = Awe.eval a t and v' = Awe.eval a' t in
    num := !num +. ((v -. v') *. (v -. v'));
    den := !den +. (v *. v)
  done;
  let rel = sqrt (!num /. !den) in
  if rel > tol then
    Alcotest.failf "%s: rel L2 %.3g exceeds %.3g" msg rel tol

let test_reduce_plan_chain () =
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "r0" "in" "a" 100.;
  Netlist.add_c b "ca" "a" "0" 1e-12;
  Netlist.add_r b "r1" "a" "m1" 150.;
  Netlist.add_c b "c1" "m1" "0" 2e-12;
  Netlist.add_r b "r2" "m1" "m2" 200.;
  Netlist.add_c b "c2" "m2" "0" 3e-12;
  Netlist.add_r b "r3" "m2" "b" 250.;
  Netlist.add_c b "cb" "b" "0" 1e-12;
  let c = Netlist.freeze b in
  let members = List.map (reduce_node c) [ "a"; "m1"; "m2" ] in
  (match Reduce.analyze c with
  | [ Reduce.Chain { members = m } ] ->
    Alcotest.(check (list int)) "chain members" (List.sort compare members) m
  | plans -> Alcotest.failf "expected one chain plan, got %d" (List.length plans));
  let plan = Reduce.Chain { members } in
  Alcotest.(check int) "chain savings" 2 (Reduce.plan_savings plan);
  (* with b preserved the run lumps to a T section: 2 nodes go *)
  let r = Reduce.reduce ~ports:[ reduce_node c "b" ] c in
  Alcotest.(check int) "nodes eliminated" 2
    r.Reduce.report.Reduce.nodes_eliminated;
  Alcotest.(check int) "chain lumps" 1 r.Reduce.report.Reduce.chain_lumps;
  reduce_response_check ~tol:0.1 "chain lump response" c r "b"

let test_reduce_plan_star () =
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "rdrv" "in" "h" 50.;
  Netlist.add_r b "rl1" "h" "l1" 80.;
  Netlist.add_c b "cl1" "l1" "0" 1e-12;
  Netlist.add_r b "rl2" "h" "l2" 120.;
  Netlist.add_c b "cl2" "l2" "0" 2e-12;
  Netlist.add_r b "rl3" "h" "l3" 160.;
  Netlist.add_c b "cl3" "l3" "0" 3e-12;
  let c = Netlist.freeze b in
  let hub = reduce_node c "h" in
  let legs = List.sort compare (List.map (reduce_node c) [ "l1"; "l2"; "l3" ]) in
  (match Reduce.analyze c with
  | [ Reduce.Star { hub = h; legs = l } ] ->
    Alcotest.(check int) "hub" hub h;
    Alcotest.(check (list int)) "legs" legs l
  | plans -> Alcotest.failf "expected one star plan, got %d" (List.length plans));
  Alcotest.(check int) "star savings" 2
    (Reduce.plan_savings (Reduce.Star { hub; legs }));
  let r = Reduce.reduce ~ports:[ hub ] c in
  Alcotest.(check int) "nodes eliminated" 2
    r.Reduce.report.Reduce.nodes_eliminated;
  Alcotest.(check int) "star merges" 1 r.Reduce.report.Reduce.star_merges;
  (* the hub sees the merged leg through its first two admittance
     moments; the response there tracks the original closely *)
  reduce_response_check ~tol:0.1 "star merge response" c r "h"

let test_reduce_exact_parallel () =
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "ra" "in" "x" 2e3;
  Netlist.add_r b "rb" "in" "x" 2e3;
  Netlist.add_r b "rc" "in" "x" 1e3;
  Netlist.add_c b "c1" "x" "0" 1e-12;
  Netlist.add_c b "c2" "x" "0" 3e-12;
  let c = Netlist.freeze b in
  let r = Reduce.reduce ~ports:[ reduce_node c "x" ] c in
  Alcotest.(check int) "parallel groups" 2
    r.Reduce.report.Reduce.parallel_merges;
  Alcotest.(check int) "elements eliminated" 3
    r.Reduce.report.Reduce.elements_eliminated;
  Alcotest.(check int) "no nodes eliminated" 0
    r.Reduce.report.Reduce.nodes_eliminated;
  (* merged values land exactly: 2k || 2k || 1k = 500, 1p + 3p = 4p *)
  Array.iter
    (function
      | Element.Resistor { r = ohms; _ } ->
        check_close ~tol:1e-9 "parallel R value" 500. ohms
      | Element.Capacitor { c = farads; _ } ->
        check_close ~tol:1e-24 "parallel C value" 4e-12 farads
      | _ -> ())
    r.Reduce.circuit.Netlist.elements;
  reduce_response_check ~tol:1e-12 "parallel merge response" c r "x"

let test_reduce_exact_series () =
  (* a capacitor-free interior run is an exact series merge: every run
     node goes and one resistor of the summed resistance remains *)
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "r1" "in" "s1" 100.;
  Netlist.add_r b "r2" "s1" "s2" 200.;
  Netlist.add_r b "r3" "s2" "out" 300.;
  Netlist.add_c b "cout" "out" "0" 1e-12;
  let c = Netlist.freeze b in
  let r = Reduce.reduce ~ports:[ reduce_node c "out" ] c in
  Alcotest.(check int) "series merges" 1 r.Reduce.report.Reduce.series_merges;
  Alcotest.(check int) "nodes eliminated" 2
    r.Reduce.report.Reduce.nodes_eliminated;
  Array.iter
    (function
      | Element.Resistor { r = ohms; _ } ->
        check_close ~tol:1e-9 "summed resistance" 600. ohms
      | _ -> ())
    r.Reduce.circuit.Netlist.elements;
  reduce_response_check ~tol:1e-12 "series merge response" c r "out"

let test_reduce_chain_preserves_elmore () =
  (* the T lump preserves the first moment at the preserved ports, so
     the Elmore-equivalent delay there is bit-close *)
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "r0" "in" "a" 60.;
  Netlist.add_c b "ca" "a" "0" 1e-12;
  Netlist.add_r b "r1" "a" "m1" 110.;
  Netlist.add_c b "c1" "m1" "0" 2e-12;
  Netlist.add_r b "r2" "m1" "m2" 90.;
  Netlist.add_c b "c2" "m2" "0" 4e-12;
  Netlist.add_r b "r3" "m2" "m3" 70.;
  Netlist.add_c b "c3" "m3" "0" 1e-12;
  Netlist.add_r b "r4" "m3" "b" 130.;
  Netlist.add_c b "cb" "b" "0" 5e-12;
  let c = Netlist.freeze b in
  let node = reduce_node c "b" in
  let r = Reduce.reduce ~ports:[ node ] c in
  Alcotest.(check bool) "reduction applied" true
    (r.Reduce.report.Reduce.nodes_eliminated > 0);
  let td = Awe.elmore_equivalent (Mna.build c) ~node in
  let td' =
    Awe.elmore_equivalent
      (Mna.build r.Reduce.circuit)
      ~node:r.Reduce.node_map.(node)
  in
  if abs_float (td -. td') > 1e-12 *. td then
    Alcotest.failf "elmore drifted: %.17g vs %.17g" td' td

let test_reduce_idempotent () =
  let check_fixpoint msg c ports =
    let r = Reduce.reduce ~ports c in
    let r2 = Reduce.reduce ~ports:(List.map (fun p -> r.Reduce.node_map.(p)) ports)
        r.Reduce.circuit
    in
    Alcotest.(check bool) (msg ^ ": second pass is a no-op") true
      (r2.Reduce.report = Reduce.empty_report);
    (* physically the same circuit, not just an equal one *)
    Alcotest.(check bool) (msg ^ ": circuit unchanged") true
      (r2.Reduce.circuit == r.Reduce.circuit)
  in
  let ladder, out = Samples.rc_ladder ~length:6 ~fanout:4 () in
  check_fixpoint "ladder" ladder [ out ];
  let tree, leaf = Samples.random_rc_tree ~seed:7 ~n:12 () in
  check_fixpoint "random tree" tree [ leaf ];
  let grid, far = Samples.rc_grid ~rows:4 ~cols:4 () in
  check_fixpoint "grid" grid [ far ]

let test_reduce_refusals () =
  let untouched msg c ports =
    let r = Reduce.reduce ~ports c in
    Alcotest.(check bool) (msg ^ ": empty report") true
      (r.Reduce.report = Reduce.empty_report);
    Alcotest.(check bool) (msg ^ ": input returned") true
      (r.Reduce.circuit == c)
  in
  (* inductor adjacency protects the whole ladder *)
  let rlc, out = Samples.random_rlc_ladder ~seed:5 ~sections:4 () in
  untouched "rlc ladder" rlc [ out ];
  (* an IC-carrying capacitor pins its chain node *)
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "r1" "in" "m1" 100.;
  Netlist.add_c ~ic:1.5 b "c1" "m1" "0" 1e-12;
  Netlist.add_r b "r2" "m1" "out" 100.;
  Netlist.add_c b "cout" "out" "0" 1e-12;
  let c = Netlist.freeze b in
  untouched "ic cap" c [ reduce_node c "out" ];
  (* a controlling terminal of a controlled source is load-bearing even
     though no current flows: the node must survive *)
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "r1" "in" "m1" 100.;
  Netlist.add_c b "c1" "m1" "0" 1e-12;
  Netlist.add_r b "r2" "m1" "out" 100.;
  Netlist.add_c b "cout" "out" "0" 1e-12;
  Netlist.add_vcvs b "e1" "amp" "0" "m1" "0" 2.;
  Netlist.add_r b "rload" "amp" "0" 1e3;
  let c = Netlist.freeze b in
  untouched "vcvs controlling node" c [ reduce_node c "out" ];
  (* mutual-coupled inductors never merge even in parallel *)
  let b = Netlist.create () in
  Netlist.add_v b "vin" "in" "0" reduce_step;
  Netlist.add_r b "r1" "in" "x" 50.;
  Netlist.add_l b "l1" "x" "0" 1e-9;
  Netlist.add_l b "l2" "x" "0" 1e-9;
  Netlist.add_k b "k1" "l1" "l2" 0.5;
  Netlist.add_c b "cx" "x" "0" 1e-12;
  let c = Netlist.freeze b in
  untouched "coupled inductors" c [ reduce_node c "x" ]

let test_reduce_ladder_sample () =
  (* the standing bench example: with one preserved leg the trunk lumps
     and the remaining legs merge, killing well over half the nodes *)
  let c, out = Samples.rc_ladder ~length:10 ~fanout:4 () in
  let r = Reduce.reduce ~ports:[ out ] c in
  let before = c.Netlist.node_count in
  let gone = r.Reduce.report.Reduce.nodes_eliminated in
  Alcotest.(check bool)
    (Printf.sprintf "eliminates >= 50%% of nodes (%d of %d)" gone before)
    true
    (2 * gone >= before);
  Alcotest.(check bool) "chain lumped" true
    (r.Reduce.report.Reduce.chain_lumps > 0);
  Alcotest.(check bool) "star merged" true
    (r.Reduce.report.Reduce.star_merges > 0);
  reduce_response_check ~tol:0.1 "ladder response" c r "f1"

let prop_reduce_tree_savings_match =
  (* on any random RC tree the plans' claimed node savings equal the
     rewriter's actual eliminations when nothing is protected *)
  QCheck2.Test.make ~name:"plan savings = actual eliminations (ports=[])"
    ~count:60
    QCheck2.Gen.(pair (int_range 3 20) (int_range 0 100000))
    (fun (n, seed) ->
      let c, _ = Samples.random_rc_tree ~seed ~n () in
      let plans = Reduce.analyze c in
      let claimed =
        List.fold_left
          (fun acc p ->
            match p with
            | Reduce.Chain { members } when List.length members < 2 -> acc
            | Reduce.Parallel _ -> acc
            | p -> acc + Reduce.plan_savings p)
          0 plans
      in
      let r = Reduce.reduce ~ports:[] c in
      (* first-round eliminations can exceed the advisory claim only
         through capless series runs (none in an RC tree) or later
         rounds cascading; require at least the claimed savings *)
      r.Reduce.report.Reduce.nodes_eliminated >= claimed)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "circuit"
    [ ( "element",
        [ Alcotest.test_case "waveform eval" `Quick test_waveform_eval;
          Alcotest.test_case "canonicalize step" `Quick
            test_canonicalize_step;
          Alcotest.test_case "canonicalize ramp" `Quick
            test_canonicalize_ramp_zero_delay;
          Alcotest.test_case "canonical matches eval" `Quick
            test_canonicalize_matches_eval;
          Alcotest.test_case "rejects malformed" `Quick
            test_canonicalize_rejects_bad ] );
      ( "netlist",
        [ Alcotest.test_case "ground aliases" `Quick
            test_netlist_ground_aliases;
          Alcotest.test_case "duplicate names" `Quick
            test_netlist_duplicate_names;
          Alcotest.test_case "value validation" `Quick
            test_netlist_value_validation;
          Alcotest.test_case "unknown vctrl" `Quick test_netlist_unknown_vctrl;
          Alcotest.test_case "lookups" `Quick test_netlist_lookups ] );
      ( "topology",
        [ Alcotest.test_case "fig4 tree" `Quick test_topology_fig4_is_tree;
          Alcotest.test_case "fig9 grounded R" `Quick
            test_topology_fig9_grounded_r;
          Alcotest.test_case "fig22 floating" `Quick
            test_topology_fig22_floating;
          Alcotest.test_case "fig25 inductors" `Quick
            test_topology_fig25_inductors;
          Alcotest.test_case "resistor loop" `Quick
            test_topology_resistor_loop;
          Alcotest.test_case "rc tree parents" `Quick test_rc_tree_parent ] );
      ( "mna",
        [ Alcotest.test_case "voltage divider" `Quick
            test_mna_voltage_divider;
          Alcotest.test_case "source current" `Quick test_mna_source_current;
          Alcotest.test_case "VCVS" `Quick test_mna_controlled_sources;
          Alcotest.test_case "VCCS" `Quick test_mna_vccs;
          Alcotest.test_case "CCCS" `Quick test_mna_cccs;
          Alcotest.test_case "fig22 charge row" `Quick
            test_mna_charge_group_fig22;
          Alcotest.test_case "reject floating" `Quick
            test_mna_reject_floating;
          Alcotest.test_case "I source into floating group" `Quick
            test_mna_isource_into_floating_group;
          Alcotest.test_case "state derivative" `Quick
            test_mna_state_derivative_rc;
          Alcotest.test_case "mutual split modes" `Quick
            test_mutual_split_modes;
          Alcotest.test_case "mutual symmetric storage" `Quick
            test_mutual_symmetric_storage;
          Alcotest.test_case "mutual validation" `Quick
            test_mutual_validation;
          Alcotest.test_case "accessors" `Quick test_mna_accessors;
          Alcotest.test_case "tree/link scope rejections" `Quick
            test_tree_link_scope_rejections ]
        @ qsuite [ prop_mna_dc_matches_divider ] );
      ( "dc",
        [ Alcotest.test_case "equilibrium start" `Quick
            test_dc_initial_equilibrium;
          Alcotest.test_case "explicit IC" `Quick test_dc_initial_with_ic;
          Alcotest.test_case "0+ jump" `Quick test_dc_zero_plus_jump;
          Alcotest.test_case "inductor short" `Quick test_dc_inductor_short;
          Alcotest.test_case "floating defaults to 0" `Quick
            test_dc_floating_defaults_zero ] );
      ( "parser",
        [ Alcotest.test_case "values" `Quick test_parse_values;
          Alcotest.test_case "fig4 deck" `Quick test_parse_fig4_deck;
          Alcotest.test_case "continuation/comments" `Quick
            test_parse_continuation_and_comments;
          Alcotest.test_case "initial conditions" `Quick
            test_parse_ic_variants;
          Alcotest.test_case "controlled sources" `Quick
            test_parse_controlled_sources;
          Alcotest.test_case "error line numbers" `Quick
            test_parse_errors_carry_line;
          Alcotest.test_case "title line" `Quick test_parse_title_line;
          Alcotest.test_case "K card" `Quick test_parse_k_card;
          Alcotest.test_case "print/parse round trip (samples)" `Quick
            test_print_deck_roundtrip_samples;
          Alcotest.test_case "negative cases" `Quick test_parse_negative_cases;
          Alcotest.test_case "empty deck" `Quick test_parse_empty_deck ]
        @ qsuite [ prop_print_parse_roundtrip ] );
      ( "samples",
        [ Alcotest.test_case "fig4 elmore" `Quick
            test_samples_fig4_elmore_constant;
          Alcotest.test_case "random tree" `Quick
            test_samples_random_tree_is_tree;
          Alcotest.test_case "random mesh" `Quick
            test_samples_random_mesh_has_loops ] );
      ( "canon",
        qsuite
          [ prop_canon_equal_keys_equal_systems; prop_canon_value_sensitive;
            prop_canon_pattern_key_matches; prop_canon_relabel_changes_keys ]
      );
      ( "reduce",
        [ Alcotest.test_case "chain plan and lump" `Quick
            test_reduce_plan_chain;
          Alcotest.test_case "star plan and merge" `Quick
            test_reduce_plan_star;
          Alcotest.test_case "parallel merge is exact" `Quick
            test_reduce_exact_parallel;
          Alcotest.test_case "series merge is exact" `Quick
            test_reduce_exact_series;
          Alcotest.test_case "chain lump preserves Elmore" `Quick
            test_reduce_chain_preserves_elmore;
          Alcotest.test_case "idempotent" `Quick test_reduce_idempotent;
          Alcotest.test_case "refusal cases" `Quick test_reduce_refusals;
          Alcotest.test_case "ladder sample reduces >= 50%" `Quick
            test_reduce_ladder_sample ]
        @ qsuite [ prop_reduce_tree_savings_match ] ) ]
