(* Tests for the AWE-based static timing analyzer. *)

let inv = Sta.cell ~name:"inv" ~drive_res:500. ~input_cap:20e-15 ~intrinsic:50e-12

let buf = Sta.cell ~name:"buf" ~drive_res:200. ~input_cap:40e-15 ~intrinsic:80e-12

let seg ~from_ ~to_ ~r ~c =
  { Sta.seg_from = from_; seg_to = to_; res = r; cap = c }

(* a two-stage chain: PI -> net_in -> u1(inv) -> net_mid -> u2(buf)
   -> net_out -> u3(inv, acts as load/PO) *)
let chain ?(in_slew = 0.) () =
  let d = Sta.create ~vdd:5. ~threshold:0.5 () in
  Sta.add_gate d ~inst:"u1" ~cell:inv ~inputs:[ "net_in" ] ~output:"net_mid";
  Sta.add_gate d ~inst:"u2" ~cell:buf ~inputs:[ "net_mid" ] ~output:"net_out";
  Sta.add_gate d ~inst:"u3" ~cell:inv ~inputs:[ "net_out" ] ~output:"net_po";
  Sta.add_net d ~name:"net_in" ~segments:[ seg ~from_:"drv" ~to_:"u1" ~r:100. ~c:30e-15 ];
  Sta.add_net d ~name:"net_mid"
    ~segments:
      [ seg ~from_:"drv" ~to_:"w1" ~r:200. ~c:50e-15;
        seg ~from_:"w1" ~to_:"u2" ~r:150. ~c:40e-15 ];
  Sta.add_net d ~name:"net_out" ~segments:[ seg ~from_:"drv" ~to_:"u3" ~r:300. ~c:60e-15 ];
  Sta.add_net d ~name:"net_po" ~segments:[ seg ~from_:"drv" ~to_:"end" ~r:10. ~c:1e-15 ];
  Sta.add_primary_input d ~net:"net_in" ~slew:in_slew ();
  Sta.add_primary_output d ~net:"net_out";
  d

let test_chain_arrival_monotone () =
  let d = chain () in
  let r = Sta.analyze d in
  let find net =
    List.find (fun nt -> nt.Sta.net_name = net) r.Sta.nets
  in
  let a_in = (List.hd (find "net_in").Sta.sinks).Sta.arrival in
  let a_mid = (List.hd (find "net_mid").Sta.sinks).Sta.arrival in
  let a_out = (List.hd (find "net_out").Sta.sinks).Sta.arrival in
  Alcotest.(check bool) "arrivals increase" true (a_in < a_mid && a_mid < a_out);
  Alcotest.(check bool) "positive critical" true (r.Sta.critical_arrival > 0.);
  Alcotest.(check bool) "critical >= out arrival" true
    (r.Sta.critical_arrival >= a_out -. 1e-15)

let test_chain_critical_path () =
  let d = chain () in
  let r = Sta.analyze d in
  Alcotest.(check (list string)) "path follows the chain"
    [ "net_in"; "net_mid"; "net_out" ] r.Sta.critical_path

let test_models_agree_roughly () =
  let d = chain () in
  let r_elmore = Sta.analyze ~model:Sta.Elmore_model d in
  let r_awe = Sta.analyze ~model:(Sta.Awe_model 3) d in
  let rel_diff =
    Float.abs (r_elmore.Sta.critical_arrival -. r_awe.Sta.critical_arrival)
    /. r_awe.Sta.critical_arrival
  in
  Alcotest.(check bool)
    (Printf.sprintf "elmore within 60%% of AWE (diff %.3f)" rel_diff)
    true (rel_diff < 0.6);
  (* on the step-driven first stage the Elmore 50% estimate
     (T_D ln 2) is pessimistic relative to the AWE crossing *)
  let first r = (List.hd (List.find (fun nt -> nt.Sta.net_name = "net_in") r.Sta.nets).Sta.sinks).Sta.net_delay in
  Alcotest.(check bool) "elmore pessimistic on the step stage" true
    (first r_elmore >= first r_awe)

let test_awe_delay_matches_simulation () =
  let d = chain () in
  (* the slew arriving at u1 is what net_mid is actually driven with *)
  let r0 = Sta.analyze ~model:(Sta.Awe_model 3) d in
  let in_net = List.find (fun nt -> nt.Sta.net_name = "net_in") r0.Sta.nets in
  let slew = (List.hd in_net.Sta.sinks).Sta.sink_slew in
  let circuit, sink_nodes =
    Sta.net_circuit d ~net:"net_mid" ~driver_res:inv.Sta.drive_res ~slew
  in
  let node = List.assoc "u2" sink_nodes in
  let sys = Circuit.Mna.build circuit in
  let res = Transim.Transient.simulate sys ~t_stop:5e-9 ~steps:5000 in
  let w = Transim.Transient.node_waveform res node in
  let sim_delay =
    match Waveform.crossing_time w 2.5 with
    | Some t -> t
    | None -> Alcotest.fail "no crossing in simulation"
  in
  let r = Sta.analyze ~model:(Sta.Awe_model 3) d in
  let nt = List.find (fun nt -> nt.Sta.net_name = "net_mid") r.Sta.nets in
  let awe_delay = (List.hd nt.Sta.sinks).Sta.net_delay in
  Alcotest.(check bool)
    (Printf.sprintf "delays match (awe %.4g sim %.4g)" awe_delay sim_delay)
    true
    (Float.abs (awe_delay -. sim_delay) < 0.03 *. sim_delay)

let test_fanout_net () =
  (* one driver, two sinks on different branches *)
  let d = Sta.create () in
  Sta.add_gate d ~inst:"u1" ~cell:buf ~inputs:[ "a" ] ~output:"y";
  Sta.add_gate d ~inst:"u2" ~cell:inv ~inputs:[ "y" ] ~output:"z1";
  Sta.add_gate d ~inst:"u3" ~cell:inv ~inputs:[ "y" ] ~output:"z2";
  Sta.add_net d ~name:"a" ~segments:[ seg ~from_:"drv" ~to_:"u1" ~r:50. ~c:10e-15 ];
  Sta.add_net d ~name:"y"
    ~segments:
      [ seg ~from_:"drv" ~to_:"u2" ~r:100. ~c:20e-15;
        seg ~from_:"drv" ~to_:"fork" ~r:400. ~c:80e-15;
        seg ~from_:"fork" ~to_:"u3" ~r:400. ~c:80e-15 ];
  Sta.add_net d ~name:"z1" ~segments:[ seg ~from_:"drv" ~to_:"o1" ~r:10. ~c:1e-15 ];
  Sta.add_net d ~name:"z2" ~segments:[ seg ~from_:"drv" ~to_:"o2" ~r:10. ~c:1e-15 ];
  Sta.add_primary_input d ~net:"a" ();
  let r = Sta.analyze d in
  let y = List.find (fun nt -> nt.Sta.net_name = "y") r.Sta.nets in
  Alcotest.(check int) "two sinks" 2 (List.length y.Sta.sinks);
  let near =
    List.find (fun s -> s.Sta.sink_inst = "u2") y.Sta.sinks
  in
  let far = List.find (fun s -> s.Sta.sink_inst = "u3") y.Sta.sinks in
  Alcotest.(check bool) "far sink slower" true
    (far.Sta.net_delay > near.Sta.net_delay)

let test_slew_propagates () =
  (* a slow primary-input slew increases downstream arrivals *)
  let fast = chain () in
  let slow = chain ~in_slew:2e-9 () in
  let rf = Sta.analyze fast in
  let rs = Sta.analyze slow in
  Alcotest.(check bool)
    (Printf.sprintf "slew slows arrival (%.4g vs %.4g)"
       rs.Sta.critical_arrival rf.Sta.critical_arrival)
    true
    (rs.Sta.critical_arrival > rf.Sta.critical_arrival)

let test_cycle_detected () =
  let d = Sta.create () in
  Sta.add_gate d ~inst:"u1" ~cell:inv ~inputs:[ "a" ] ~output:"b";
  Sta.add_gate d ~inst:"u2" ~cell:inv ~inputs:[ "b" ] ~output:"a";
  Sta.add_net d ~name:"a" ~segments:[ seg ~from_:"drv" ~to_:"u1" ~r:10. ~c:1e-15 ];
  Sta.add_net d ~name:"b" ~segments:[ seg ~from_:"drv" ~to_:"u2" ~r:10. ~c:1e-15 ];
  match Sta.analyze d with
  | _ -> Alcotest.fail "expected cycle detection"
  | exception Sta.Not_a_dag nets ->
    Alcotest.(check int) "both nets blocked" 2 (List.length nets)

let test_malformed_detected () =
  let d = Sta.create () in
  Sta.add_gate d ~inst:"u1" ~cell:inv ~inputs:[ "missing" ] ~output:"y";
  Sta.add_net d ~name:"y" ~segments:[ seg ~from_:"drv" ~to_:"o" ~r:10. ~c:1e-15 ];
  match Sta.analyze d with
  | _ -> Alcotest.fail "expected malformed"
  | exception Sta.Malformed _ -> ()

let design_text = {|
* a two-stage chain in the text format
vdd 5.0
threshold 0.5
cell inv 500 20f 50p
cell buf 200 40f 80p
gate u1 inv net_mid net_in
gate u2 buf net_out net_mid
gate u3 inv net_po net_out
net net_in drv u1 100 30f
net net_mid drv w1 200 50f ; w1 u2 150 40f
net net_out drv u3 300 60f
net net_po drv end 10 1f
input net_in
output net_out
|}

let test_design_file_matches_api () =
  (* the text design above is the [chain ()] fixture; reports agree *)
  let d_text = Sta.Design_file.parse_string design_text in
  let d_api = chain () in
  let r_text = Sta.analyze ~model:(Sta.Awe_model 2) d_text in
  let r_api = Sta.analyze ~model:(Sta.Awe_model 2) d_api in
  Alcotest.(check bool)
    (Printf.sprintf "critical arrivals equal (%.5g vs %.5g)"
       r_text.Sta.critical_arrival r_api.Sta.critical_arrival)
    true
    (Float.abs (r_text.Sta.critical_arrival -. r_api.Sta.critical_arrival)
    < 1e-12);
  Alcotest.(check (list string)) "same critical path"
    r_api.Sta.critical_path r_text.Sta.critical_path

let test_design_file_header_values () =
  let d =
    Sta.Design_file.parse_string
      "vdd 3.3\nthreshold 0.4\ncell c 100 1f 1p\ngate u1 c y a\nnet a drv u1 10 1f\nnet y drv o 10 1f\ninput a\n"
  in
  (* indirectly observable: analysis runs and the threshold crossing is
     to 0.4 * 3.3 V; just check it analyzes cleanly *)
  let r = Sta.analyze ~model:(Sta.Awe_model 1) d in
  Alcotest.(check bool) "analyzes" true (r.Sta.critical_arrival > 0.)

let test_design_file_errors () =
  (match Sta.Design_file.parse_string "cell bad 100\n" with
  | _ -> Alcotest.fail "short cell accepted"
  | exception Sta.Design_file.Parse_error (1, _) -> ());
  (match Sta.Design_file.parse_string "gate u1 nocell y a\n" with
  | _ -> Alcotest.fail "unknown cell accepted"
  | exception Sta.Design_file.Parse_error _ -> ());
  match Sta.Design_file.parse_string "frobnicate x\n" with
  | _ -> Alcotest.fail "unknown card accepted"
  | exception Sta.Design_file.Parse_error _ -> ()

let test_design_file_input_params () =
  let d =
    Sta.Design_file.parse_string
      ("cell c 100 1f 1p\ngate u1 c y a\nnet a drv u1 10 1f\n"
      ^ "net y drv o 10 1f\ninput a arrival=1n slew=2n\n")
  in
  let r = Sta.analyze ~model:(Sta.Awe_model 1) d in
  (* arrival offset of 1 ns must dominate *)
  Alcotest.(check bool) "arrival offset honored" true
    (r.Sta.critical_arrival > 1e-9)

let test_cell_validation () =
  Alcotest.check_raises "bad cell"
    (Invalid_argument
       "Sta.cell: drive_res must be positive, input_cap and intrinsic \
        non-negative") (fun () ->
      ignore (Sta.cell ~name:"bad" ~drive_res:0. ~input_cap:1. ~intrinsic:1.));
  (* zero input_cap and intrinsic are legal (an ideal probe cell) *)
  let c = Sta.cell ~name:"probe" ~drive_res:1. ~input_cap:0. ~intrinsic:0. in
  Alcotest.(check string) "zero caps accepted" "probe" c.Sta.cell_name

let test_duplicate_io_rejected () =
  (match
     let d = chain () in
     Sta.add_primary_input d ~net:"net_in" ~slew:1e-9 ()
   with
  | () -> Alcotest.fail "duplicate primary input accepted"
  | exception Sta.Malformed _ -> ());
  (match
     let d = chain () in
     Sta.add_primary_output d ~net:"net_out"
   with
  | () -> Alcotest.fail "duplicate primary output accepted"
  | exception Sta.Malformed _ -> ());
  (match
     Sta.add_primary_input (Sta.create ()) ~net:"x" ~arrival:(-1e-9) ()
   with
  | () -> Alcotest.fail "negative arrival accepted"
  | exception Sta.Malformed _ -> ());
  match Sta.add_primary_input (Sta.create ()) ~net:"x" ~slew:(-1e-12) () with
  | () -> Alcotest.fail "negative slew accepted"
  | exception Sta.Malformed _ -> ()

let test_design_file_duplicate_cards () =
  (match
     Sta.Design_file.parse_string
       "cell c 100 1f 1p\ngate u1 c y a\nnet a drv u1 10 1f\nnet y drv o 10 \
        1f\ninput a\ninput a slew=1n\n"
   with
  | _ -> Alcotest.fail "duplicate input card accepted"
  | exception Sta.Design_file.Parse_error _ -> ()
  | exception Sta.Malformed _ -> ());
  match
    Sta.Design_file.parse_string
      "cell c 100 1f 1p\ngate u1 c y a\nnet a drv u1 10 1f\nnet y drv o 10 \
       1f\ninput a\noutput y\noutput y\n"
  with
  | _ -> Alcotest.fail "duplicate output card accepted"
  | exception Sta.Design_file.Parse_error _ -> ()
  | exception Sta.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Shared-engine regression tests: the batched kernel must cost one
   MNA build + one factorization per net regardless of fanout, and its
   per-sink numbers must match the pre-refactor per-sink pipeline. *)

(* `dune runtest` runs in the test's build directory (decks two levels
   up); `dune exec` runs from the workspace root *)
let adder_deck () =
  let candidates = [ "../../decks/adder_stage.sta"; "decks/adder_stage.sta" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> Sta.Design_file.parse_file path
  | None -> Alcotest.failf "decks/adder_stage.sta not found"

let test_one_factorization_per_net () =
  (* fanout fixture: net y has two sinks but must cost one engine *)
  let d = Sta.create () in
  Sta.add_gate d ~inst:"u1" ~cell:buf ~inputs:[ "a" ] ~output:"y";
  Sta.add_gate d ~inst:"u2" ~cell:inv ~inputs:[ "y" ] ~output:"z1";
  Sta.add_gate d ~inst:"u3" ~cell:inv ~inputs:[ "y" ] ~output:"z2";
  Sta.add_net d ~name:"a" ~segments:[ seg ~from_:"drv" ~to_:"u1" ~r:50. ~c:10e-15 ];
  Sta.add_net d ~name:"y"
    ~segments:
      [ seg ~from_:"drv" ~to_:"u2" ~r:100. ~c:20e-15;
        seg ~from_:"drv" ~to_:"fork" ~r:400. ~c:80e-15;
        seg ~from_:"fork" ~to_:"u3" ~r:400. ~c:80e-15 ];
  Sta.add_net d ~name:"z1" ~segments:[ seg ~from_:"drv" ~to_:"o1" ~r:10. ~c:1e-15 ];
  Sta.add_net d ~name:"z2" ~segments:[ seg ~from_:"drv" ~to_:"o2" ~r:10. ~c:1e-15 ];
  Sta.add_primary_input d ~net:"a" ();
  let r = Sta.analyze ~model:(Sta.Awe_model 2) d in
  (* nets with at least one sink: a, y; z1/z2 feed no gate *)
  Alcotest.(check int) "one MNA build per timed net" 2
    r.Sta.stats.Awe.Stats.mna_builds;
  Alcotest.(check int) "one factorization per timed net" 2
    r.Sta.stats.Awe.Stats.factorizations;
  (* and the multi-sink adder deck: 6 nets feed gate inputs *)
  let r = Sta.analyze ~model:Sta.Awe_auto (adder_deck ()) in
  Alcotest.(check int) "adder: one MNA build per timed net" 6
    r.Sta.stats.Awe.Stats.mna_builds;
  Alcotest.(check int) "adder: one factorization per timed net" 6
    r.Sta.stats.Awe.Stats.factorizations

(* the pre-refactor per-sink pipeline, reconstructed from the public
   one-shot API: fresh MNA build + fresh factorization per sink *)
let legacy_sink_timing ~vdd ~threshold ~slew ~circuit ~node ~q =
  let sys = Circuit.Mna.build circuit in
  let threshold_v = threshold *. vdd in
  let a = Awe.approximate sys ~node ~q in
  let tau = Float.max (Awe.elmore_equivalent sys ~node) 1e-15 in
  let t_max = (50. *. tau) +. (2. *. slew) in
  let delay =
    match Awe.delay a ~threshold:threshold_v ~t_max with
    | Some t -> t
    | None -> Alcotest.fail "legacy path: no crossing"
  in
  let t10 =
    Awe.Approx.crossing_time a.Awe.response ~threshold:(0.1 *. vdd) ~t_max
  in
  let t90 =
    Awe.Approx.crossing_time a.Awe.response ~threshold:(0.9 *. vdd) ~t_max
  in
  let slew_out =
    match (t10, t90) with
    | Some a, Some b when b > a -> b -. a
    | _ -> tau *. log 9.
  in
  (delay, slew_out)

let test_batch_matches_per_sink_adder () =
  let d = adder_deck () in
  let q = 3 in
  (* reduce off: the legacy pipeline below recomputes each sink on the
     unreduced stage circuit, and this test pins batching, not the
     reduction pass (test_reduce_* covers that) *)
  let r = Sta.analyze ~model:(Sta.Awe_model q) ~reduce:false d in
  let find_net net = List.find (fun nt -> nt.Sta.net_name = net) r.Sta.nets in
  let sink_of net inst =
    List.find (fun s -> s.Sta.sink_inst = inst) (find_net net).Sta.sinks
  in
  (* the deck's topology, restated: per net, the driver's output
     resistance and the slew arriving at the driver pin *)
  let slew_into net =
    (* worst input sink of the driving gate, by arrival (analyze's
       propagation rule); PIs carry the deck's input slews *)
    match net with
    | "a" -> 100e-12
    | "b" -> 250e-12
    | "n1" -> (sink_of "a" "u1").Sta.sink_slew
    | "n2" -> (sink_of "b" "u2").Sta.sink_slew
    | "n3" ->
      let s1 = sink_of "n1" "u3" and s2 = sink_of "n2" "u3" in
      if s2.Sta.arrival > s1.Sta.arrival then s2.Sta.sink_slew
      else s1.Sta.sink_slew
    | "out" -> (sink_of "n3" "u4").Sta.sink_slew
    | "sink" -> (sink_of "out" "u5").Sta.sink_slew
    | _ -> Alcotest.failf "unexpected net %s" net
  in
  let driver_res = function
    | "a" | "b" -> 1e-3 (* ideal primary input *)
    | "n1" | "n2" -> 600. (* inv *)
    | "n3" -> 350. (* nand2 *)
    | "out" -> 150. (* buf *)
    | "sink" -> 600. (* inv *)
    | net -> Alcotest.failf "unexpected net %s" net
  in
  let checked = ref 0 in
  List.iter
    (fun nt ->
      let net = nt.Sta.net_name in
      let slew = slew_into net in
      let circuit, sink_nodes =
        Sta.net_circuit d ~net ~driver_res:(driver_res net) ~slew
      in
      List.iter
        (fun s ->
          let node = List.assoc s.Sta.sink_inst sink_nodes in
          let delay, slew_out =
            legacy_sink_timing ~vdd:5. ~threshold:0.5 ~slew ~circuit ~node ~q
          in
          let close name a b =
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s %s (batched %.6e legacy %.6e)" net
                 s.Sta.sink_inst name a b)
              true
              (Float.abs (a -. b) <= 1e-9 *. Float.abs b)
          in
          close "delay" s.Sta.net_delay delay;
          close "slew" s.Sta.sink_slew slew_out;
          incr checked)
        nt.Sta.sinks)
    r.Sta.nets;
  Alcotest.(check bool) "covered all sinks" true (!checked >= 6)

(* ------------------------------------------------------------------ *)
(* Parallel determinism and failure isolation.  Reports, critical
   paths, and merged engine counters must be bit-identical for any
   [jobs]; a failing net in non-strict mode must not abort its
   siblings.  Worker domains are forced so the cross-domain paths run
   even on single-core machines (see [Parallel.create]). *)

let () = Unix.putenv "AWESIM_FORCE_DOMAINS" "1"

(* the parallel side of every jobs-1-vs-N comparison; CI runs the
   suite twice, once with AWESIM_TEST_JOBS=4 and once with =1, so the
   same assertions also pin the pure-sequential path *)
let test_jobs =
  match Sys.getenv_opt "AWESIM_TEST_JOBS" with
  | Some s -> ( try Stdlib.max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let counters (s : Awe.Stats.snapshot) =
  Awe.Stats.
    ( s.factorizations,
      s.moment_solves,
      s.fits,
      s.fit_retries,
      s.order_escalations,
      s.mna_builds )

let check_reports_equal name (r1 : Sta.report) (rn : Sta.report) =
  Alcotest.(check bool) (name ^ ": nets bit-identical") true
    (r1.Sta.nets = rn.Sta.nets);
  Alcotest.(check bool) (name ^ ": critical arrival bit-identical") true
    (r1.Sta.critical_arrival = rn.Sta.critical_arrival);
  Alcotest.(check (list string)) (name ^ ": critical path")
    r1.Sta.critical_path rn.Sta.critical_path;
  Alcotest.(check bool) (name ^ ": failures identical") true
    (r1.Sta.failures = rn.Sta.failures);
  Alcotest.(check bool) (name ^ ": slacks bit-identical") true
    (r1.Sta.slacks = rn.Sta.slacks);
  Alcotest.(check bool) (name ^ ": worst slack bit-identical") true
    (r1.Sta.worst_slack = rn.Sta.worst_slack);
  (* the integer engine counters; phase_seconds is wall-clock
     measurement and legitimately varies *)
  Alcotest.(check bool) (name ^ ": merged stats identical") true
    (counters r1.Sta.stats = counters rn.Sta.stats)

let test_jobs_deterministic_adder () =
  let d = adder_deck () in
  let run jobs = Sta.analyze ~model:Sta.Awe_auto ~jobs d in
  check_reports_equal "adder dense" (run 1) (run test_jobs);
  let run jobs = Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs d in
  check_reports_equal "adder sparse" (run 1) (run test_jobs)

(* a random layered DAG: net [n0] is the primary input; every later
   net is driven by a gate with one or two random earlier nets as
   inputs.  Wires are a short random trunk plus one branch per sink. *)
let random_design st ~nets =
  let d = Sta.create () in
  let name i = Printf.sprintf "n%d" i in
  let cells = [| inv; buf |] in
  let sinks = Array.make nets [] in
  for i = 1 to nets - 1 do
    let a = Random.State.int st i in
    let ins =
      if i > 1 && Random.State.bool st then
        let b = Random.State.int st i in
        if b = a then [ a ] else [ a; b ]
      else [ a ]
    in
    let inst = Printf.sprintf "g%d" i in
    Sta.add_gate d ~inst
      ~cell:cells.(Random.State.int st 2)
      ~inputs:(List.map name ins) ~output:(name i);
    List.iter (fun j -> sinks.(j) <- inst :: sinks.(j)) ins
  done;
  for i = 0 to nets - 1 do
    let r () = 50. +. Random.State.float st 450. in
    let c () = 5e-15 +. Random.State.float st 45e-15 in
    let trunk = 1 + Random.State.int st 2 in
    let segs = ref [] and last = ref "drv" in
    for k = 1 to trunk do
      let node = Printf.sprintf "w%d" k in
      segs := seg ~from_:!last ~to_:node ~r:(r ()) ~c:(c ()) :: !segs;
      last := node
    done;
    List.iter
      (fun s -> segs := seg ~from_:!last ~to_:s ~r:(r ()) ~c:(c ()) :: !segs)
      sinks.(i);
    if sinks.(i) = [] then
      segs := seg ~from_:!last ~to_:"end" ~r:10. ~c:1e-15 :: !segs;
    Sta.add_net d ~name:(name i) ~segments:(List.rev !segs)
  done;
  Sta.add_primary_input d ~net:(name 0) ~slew:(Random.State.float st 1e-9) ();
  d

let test_jobs_deterministic_random () =
  for seed = 0 to 7 do
    let st = Random.State.make [| 0x57A; seed |] in
    let d = random_design st ~nets:12 in
    let sparse = seed mod 2 = 1 in
    let run jobs = Sta.analyze ~model:Sta.Awe_auto ~sparse ~jobs d in
    check_reports_equal (Printf.sprintf "seed %d" seed) (run 1) (run test_jobs)
  done

(* two independent chains; chain B's first net never reaches its sink
   pin, so timing it raises Malformed inside the pool task *)
let broken_sibling_design () =
  let d = Sta.create () in
  Sta.add_gate d ~inst:"ua1" ~cell:inv ~inputs:[ "a1" ] ~output:"a2";
  Sta.add_gate d ~inst:"ua2" ~cell:buf ~inputs:[ "a2" ] ~output:"a3";
  Sta.add_net d ~name:"a1" ~segments:[ seg ~from_:"drv" ~to_:"ua1" ~r:100. ~c:20e-15 ];
  Sta.add_net d ~name:"a2" ~segments:[ seg ~from_:"drv" ~to_:"ua2" ~r:150. ~c:30e-15 ];
  Sta.add_net d ~name:"a3" ~segments:[ seg ~from_:"drv" ~to_:"end" ~r:10. ~c:1e-15 ];
  Sta.add_gate d ~inst:"ub1" ~cell:inv ~inputs:[ "b1" ] ~output:"b2";
  Sta.add_gate d ~inst:"ub2" ~cell:inv ~inputs:[ "b2" ] ~output:"b3";
  Sta.add_net d ~name:"b1" ~segments:[ seg ~from_:"drv" ~to_:"oops" ~r:100. ~c:20e-15 ];
  Sta.add_net d ~name:"b2" ~segments:[ seg ~from_:"drv" ~to_:"ub2" ~r:100. ~c:20e-15 ];
  Sta.add_net d ~name:"b3" ~segments:[ seg ~from_:"drv" ~to_:"end" ~r:10. ~c:1e-15 ];
  Sta.add_primary_input d ~net:"a1" ();
  Sta.add_primary_input d ~net:"b1" ();
  Sta.add_primary_output d ~net:"a3";
  d

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_strict_raises () =
  let d = broken_sibling_design () in
  match Sta.analyze ~jobs:test_jobs d with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Sta.Malformed msg ->
    Alcotest.(check bool)
      (Printf.sprintf "diagnostic names the broken net (%s)" msg)
      true (contains msg "b1")

let test_non_strict_isolates () =
  let d = broken_sibling_design () in
  let r = Sta.analyze ~jobs:test_jobs ~strict:false d in
  let timed = List.map (fun nt -> nt.Sta.net_name) r.Sta.nets in
  Alcotest.(check bool) "healthy chain fully timed" true
    (List.mem "a1" timed && List.mem "a2" timed);
  Alcotest.(check bool) "critical arrival comes from the healthy chain"
    true
    (r.Sta.critical_arrival > 0.);
  let reason net =
    match List.find_opt (fun f -> f.Sta.failed_net = net) r.Sta.failures with
    | Some f -> f.Sta.reason
    | None -> Alcotest.failf "net %s missing from failures" net
  in
  Alcotest.(check bool) "broken net keeps its own diagnostic" true
    (contains (reason "b1") "no segment reaching sink");
  Alcotest.(check string) "downstream net marked untimed"
    "not timed: an upstream net failed" (reason "b2");
  Alcotest.(check string) "transitively downstream net marked untimed"
    "not timed: an upstream net failed" (reason "b3");
  Alcotest.(check bool) "broken chain absent from timed nets" true
    (not (List.mem "b1" timed) && not (List.mem "b2" timed));
  (* and the verdicts themselves are jobs-independent *)
  let r1 = Sta.analyze ~jobs:1 ~strict:false d in
  check_reports_equal "broken siblings" r1 r

(* a random design whose net n2 has no stable AWE fit at any order
   under [Awe_auto]: the fit failure must surface as that net's
   diagnostic like any other per-net failure *)
let degenerate_design () =
  let st = Random.State.make [| 0x1D8; 428506 |] in
  random_design st ~nets:(4 + Random.State.int st 12)

(* the .sta text of a [random_design] (gates, nets, one input) *)
let sta_text d =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let num = Printf.sprintf "%.17g" in
  let gates = Sta.gate_details d in
  List.iter
    (fun (c : Sta.cell) ->
      line "cell %s %s %s %s" c.cell_name (num c.drive_res) (num c.input_cap)
        (num c.intrinsic))
    (List.sort_uniq compare (List.map (fun (_, c, _, _) -> c) gates));
  List.iter
    (fun (inst, (c : Sta.cell), inputs, output) ->
      line "gate %s %s %s %s" inst c.cell_name output (String.concat " " inputs))
    gates;
  List.iter
    (fun net ->
      Option.iter
        (fun segs ->
          line "net %s %s" net
            (String.concat " ; "
               (List.map
                  (fun (s : Sta.segment) ->
                    Printf.sprintf "%s %s %s %s" s.seg_from s.seg_to (num s.res)
                      (num s.cap))
                  segs)))
        (Sta.net_segments d net))
    (Sta.net_names d);
  List.iter
    (fun net ->
      Option.iter
        (fun (arrival, slew) ->
          line "input %s arrival=%s slew=%s" net (num arrival) (num slew))
        (Sta.primary_input d net))
    (Sta.primary_input_nets d);
  Buffer.contents b

let test_degenerate_fit_is_per_net () =
  let d = degenerate_design () in
  let r = Sta.analyze ~jobs:test_jobs ~strict:false d in
  let reason net =
    List.find_map
      (fun f -> if f.Sta.failed_net = net then Some f.Sta.reason else None)
      r.Sta.failures
  in
  (match reason "n2" with
  | Some msg ->
    Alcotest.(check bool)
      (Printf.sprintf "n2 keeps its own diagnostic (%s)" msg)
      true
      (contains msg "net n2" && msg <> "not timed: an upstream net failed")
  | None -> Alcotest.fail "n2 missing from failures");
  let downstream =
    List.filter
      (fun f -> f.Sta.reason = "not timed: an upstream net failed")
      r.Sta.failures
  in
  Alcotest.(check bool) "downstream nets marked untimed" true (downstream <> []);
  Alcotest.(check bool) "no failed net is reported timed" true
    (List.for_all
       (fun f ->
         not (List.exists (fun nt -> nt.Sta.net_name = f.Sta.failed_net) r.Sta.nets))
       r.Sta.failures);
  (match Sta.analyze ~jobs:test_jobs d with
  | _ -> Alcotest.fail "strict analyze: expected Malformed"
  | exception Sta.Malformed msg ->
    Alcotest.(check bool)
      (Printf.sprintf "strict diagnostic names n2 (%s)" msg)
      true (contains msg "n2"));
  let path = Filename.temp_file "degenerate" ".sta" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (sta_text d);
      close_out oc;
      let t = Sta.Serve.create () in
      let body = (Sta.Serve.handle t ("load " ^ path)).Sta.Serve.body in
      let prefix = {|{"ok":false,"error":|} in
      Alcotest.(check bool)
        (Printf.sprintf "serve load answers a plain error (%s)" body)
        true
        (String.length body >= String.length prefix
        && String.sub body 0 (String.length prefix) = prefix
        && not (contains body "internal error")))

(* ------------------------------------------------------------------ *)
(* Structure-sharing cache: caching is an execution detail.  Reports
   and the engine work counters must be bit-identical with the cache
   on (cold and warm) and off, for every jobs value; the cache's own
   hit/miss counters must be jobs-independent too. *)

let cache_counters (s : Awe.Stats.snapshot) =
  Awe.Stats.(s.cache_exact_hits, s.cache_pattern_hits, s.cache_misses)

let check_cache_identity name d ~sparse =
  List.iter
    (fun jobs ->
      let run ?cache () =
        Sta.analyze ~model:Sta.Awe_auto ~sparse ~jobs ?cache d
      in
      let off = run () in
      let cache = Sta.create_cache () in
      let cold = run ~cache () in
      let warm = run ~cache () in
      let tag s = Printf.sprintf "%s %s jobs=%d" name s jobs in
      check_reports_equal (tag "cold") off cold;
      check_reports_equal (tag "warm") off warm;
      Alcotest.(check bool)
        (tag "warm serves every net from the exact tier")
        true
        (warm.Sta.stats.Awe.Stats.cache_misses = 0
        && warm.Sta.stats.Awe.Stats.cache_exact_hits > 0))
    [ 1; test_jobs ]

let test_cache_identity_adder () =
  let d = adder_deck () in
  check_cache_identity "adder dense" d ~sparse:false;
  check_cache_identity "adder sparse" d ~sparse:true

let test_cache_identity_random () =
  for seed = 0 to 5 do
    let st = Random.State.make [| 0xCAC; seed |] in
    let d = random_design st ~nets:10 in
    check_cache_identity
      (Printf.sprintf "random seed %d" seed)
      d
      ~sparse:(seed mod 2 = 1)
  done

let test_cache_jobs_deterministic () =
  let d = adder_deck () in
  let run jobs =
    let cache = Sta.create_cache () in
    let cold = Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs ~cache d in
    let warm = Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs ~cache d in
    (cold, warm)
  in
  let c1, w1 = run 1 in
  let cn, wn = run test_jobs in
  check_reports_equal "cached cold" c1 cn;
  check_reports_equal "cached warm" w1 wn;
  Alcotest.(check bool) "cold cache counters jobs-independent" true
    (cache_counters c1.Sta.stats = cache_counters cn.Sta.stats);
  Alcotest.(check bool) "warm cache counters jobs-independent" true
    (cache_counters w1.Sta.stats = cache_counters wn.Sta.stats)

(* The cache's sharing, pinned: the exact-hit / pattern-hit / miss
   verdicts of a cold cached analysis (sparse, reduce on, [Awe_auto],
   jobs 1) on each Synth template family.  A key change that loses
   sharing (or gains a hit the bit-identity contract cannot vouch for)
   moves these counts. *)
let test_cache_verdicts_pinned () =
  List.iter
    (fun (name, d, expected) ->
      let cache = Sta.create_cache () in
      let r =
        Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~reduce:true ~jobs:1 ~cache d
      in
      let s = r.Sta.stats in
      Alcotest.(check (triple int int int))
        (name ^ ": exact / pattern / miss")
        expected
        Awe.Stats.(s.cache_exact_hits, s.cache_pattern_hits, s.cache_misses))
    [ ("grid 40x40", Sta.Synth.grid ~rows:40 ~cols:40 (), (20, 1576, 83));
      ("clock_tree 5x4", Sta.Synth.clock_tree ~levels:5 ~fanout:4 (), (0, 84, 2));
      ( "rc_ladder 20x20x3",
        Sta.Synth.rc_ladder ~stages:20 ~length:20 ~fanout:3 (),
        (0, 18, 2) );
      ( "buffered_mesh 32x32 seed 1",
        Sta.Synth.buffered_mesh ~seed:1 ~rows:32 ~cols:32 (),
        (0, 1019, 68) ) ]

(* ------------------------------------------------------------------ *)
(* Model-order reduction inside the timing loop: jobs-deterministic
   (including the new reduce counters), actually firing on the ladder
   generator, and agreeing with the unreduced pipeline within the
   lumping tolerance. *)

let test_reduce_jobs_deterministic () =
  let d = Sta.Synth.rc_ladder ~stages:9 ~length:5 ~fanout:3 () in
  let run jobs = Sta.analyze ~model:(Sta.Awe_model 3) ~jobs d in
  let r1 = run 1 and rn = run test_jobs in
  check_reports_equal "reduced ladder" r1 rn;
  let red (s : Awe.Stats.snapshot) =
    Awe.Stats.
      ( s.reduce_nodes_eliminated,
        s.reduce_elements_eliminated,
        s.reduce_parallel_merges,
        s.reduce_series_merges,
        s.reduce_chain_lumps,
        s.reduce_star_merges )
  in
  Alcotest.(check bool) "reduce counters jobs-independent" true
    (red r1.Sta.stats = red rn.Sta.stats);
  Alcotest.(check bool) "reduction fires on the ladder" true
    (r1.Sta.stats.Awe.Stats.reduce_nodes_eliminated > 0);
  (* against the unreduced pipeline: same nets, arrivals within the
     moment-preserving lumps' tolerance *)
  let off = Sta.analyze ~model:(Sta.Awe_model 3) ~reduce:false ~jobs:1 d in
  Alcotest.(check int) "same net count" (List.length off.Sta.nets)
    (List.length r1.Sta.nets);
  Alcotest.(check int) "no reduce counters when off" 0
    off.Sta.stats.Awe.Stats.reduce_nodes_eliminated;
  let rel a b = abs_float (a -. b) /. Float.max 1e-30 (abs_float b) in
  if rel r1.Sta.critical_arrival off.Sta.critical_arrival > 0.1 then
    Alcotest.failf "critical arrival drifted: %.6g reduced vs %.6g"
      r1.Sta.critical_arrival off.Sta.critical_arrival

(* ------------------------------------------------------------------ *)
(* Synthetic designs at scale (Sta.Synth): the generators behind the
   sta_scale bench.  Small instances here — the shapes (wide waves,
   repeated templates, ragged meshes) are what matters, and the
   determinism contract must hold on them at every jobs value. *)

let synth_designs () =
  [ ("grid", Sta.Synth.grid ~rows:6 ~cols:6 (), false);
    ("clock_tree", Sta.Synth.clock_tree ~levels:4 ~fanout:3 (), true);
    ("buffered_mesh", Sta.Synth.buffered_mesh ~seed:7 ~rows:5 ~cols:5 (), true)
  ]

let test_jobs_deterministic_synth () =
  List.iter
    (fun (name, d, sparse) ->
      let run_cached jobs =
        let cache = Sta.create_cache () in
        Sta.analyze ~model:Sta.Awe_auto ~sparse ~jobs ~cache d
      in
      let r1 = run_cached 1 in
      List.iter
        (fun jobs ->
          let rn = run_cached jobs in
          check_reports_equal (Printf.sprintf "%s cached jobs=%d" name jobs) r1
            rn;
          Alcotest.(check bool)
            (Printf.sprintf "%s cache counters jobs-independent (jobs=%d)"
               name jobs)
            true
            (cache_counters r1.Sta.stats = cache_counters rn.Sta.stats))
        [ test_jobs; 8 ];
      let u1 = Sta.analyze ~sparse ~jobs:1 d in
      let un = Sta.analyze ~sparse ~jobs:8 d in
      check_reports_equal (name ^ " uncached") u1 un)
    (synth_designs ())

let test_shard_merge_property () =
  (* the tentpole property: absorbing per-chunk shards in chunk order
     yields exactly the contents sequential publication produces, for
     any chunking (i.e. any jobs value) *)
  List.iter
    (fun (name, d, sparse) ->
      let contents jobs =
        let cache = Sta.create_cache () in
        ignore (Sta.analyze ~model:Sta.Awe_auto ~sparse ~jobs ~cache d);
        Sta.cache_fingerprint cache
      in
      let seq = contents 1 in
      Alcotest.(check bool) (name ^ ": sequential cache is non-empty") true
        (fst seq <> []);
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: shard-merged contents = sequential (jobs=%d)"
               name jobs)
            true
            (contents jobs = seq))
        [ test_jobs; 8 ])
    (synth_designs ())

let test_synth_shapes () =
  let grid = Sta.Synth.grid ~rows:6 ~cols:6 () in
  Alcotest.(check int) "grid nets = rows*cols + rows + cols" 48
    (Sta.Synth.net_count grid);
  let ct = Sta.Synth.clock_tree ~levels:3 ~fanout:2 () in
  (* (2^3 - 1) buffers, one net each, plus the clk root net *)
  Alcotest.(check int) "clock tree nets" 8 (Sta.Synth.net_count ct);
  let mesh seed = Sta.Synth.buffered_mesh ~seed ~rows:5 ~cols:5 () in
  let r a = Sta.analyze ~jobs:1 (mesh a) in
  check_reports_equal "same seed, same design" (r 7) (r 7);
  Alcotest.(check bool) "different seed, different wires" true
    ((r 7).Sta.critical_arrival <> (r 8).Sta.critical_arrival)

(* ------------------------------------------------------------------ *)
(* Slack, required times and top-K critical paths.  The backward
   required-time pass is the min-plus dual of the forward max-plus
   arrival pass; the properties below are metamorphic consequences of
   that duality, checked at jobs 1 and [test_jobs] on the handcrafted
   fixtures, the synthetic generators and random DAGs. *)

let slack_at (r : Sta.report) ~net ~pin =
  List.find_opt
    (fun s -> s.Sta.sp_net = net && s.Sta.sp_pin = pin)
    r.Sta.slacks

(* leaf nets: timed nets no gate consumes.  Their single slack entry
   sits on the driver pin and binds solely to the endpoint
   requirement, which makes Δ-tightening on them exact. *)
let leaf_nets d (r : Sta.report) =
  let consumed = Hashtbl.create 16 in
  List.iter
    (fun gv ->
      List.iter (fun n -> Hashtbl.replace consumed n ()) gv.Sta.gv_inputs)
    (Sta.gate_views d);
  List.filter_map
    (fun nt ->
      let n = nt.Sta.net_name in
      if Hashtbl.mem consumed n then None else Some n)
    r.Sta.nets

(* a clock makes every primary output an endpoint; decks that carry
   their own clock card (the adder) keep it *)
let ensure_clock d =
  if Sta.clock_period d = None then Sta.set_clock d ~period:2e-9

(* every slack-bearing design used by the property wall: a name, a
   thunk that rebuilds the identical design from scratch (designs are
   mutable, so metamorphic pairs need two fresh copies), and the
   sparse flag the fixture usually runs with *)
let slack_fixtures () =
  [ ("chain", (fun () -> chain ()), false);
    ("adder", (fun () -> adder_deck ()), false);
    ("grid", (fun () -> Sta.Synth.grid ~rows:4 ~cols:4 ()), false);
    ( "clock_tree",
      (fun () -> Sta.Synth.clock_tree ~levels:3 ~fanout:3 ()),
      true );
    ( "buffered_mesh",
      (fun () -> Sta.Synth.buffered_mesh ~seed:11 ~rows:4 ~cols:4 ()),
      true );
    ( "random",
      (fun () ->
        let d =
          random_design (Random.State.make [| 0x51AC; 3 |]) ~nets:10
        in
        Sta.add_primary_output d ~net:"n9";
        d),
      false ) ]

let test_slack_consistency () =
  (* invariants of a single report: slacks sorted worst-first,
     worst_slack = head = min, every slack = required - arrival *)
  List.iter
    (fun (name, build, sparse) ->
      List.iter
        (fun jobs ->
          let d = build () in
          ensure_clock d;
          let r = Sta.analyze ~sparse ~jobs d in
          let tag s = Printf.sprintf "%s jobs=%d: %s" name jobs s in
          Alcotest.(check bool) (tag "has slack entries") true
            (r.Sta.slacks <> []);
          let rec sorted = function
            | a :: (b :: _ as rest) ->
              a.Sta.sp_slack <= b.Sta.sp_slack && sorted rest
            | _ -> true
          in
          Alcotest.(check bool) (tag "sorted worst-first") true
            (sorted r.Sta.slacks);
          let min_slack =
            List.fold_left
              (fun acc s -> Float.min acc s.Sta.sp_slack)
              infinity r.Sta.slacks
          in
          Alcotest.(check bool) (tag "worst = min over entries") true
            (r.Sta.worst_slack = min_slack);
          List.iter
            (fun s ->
              Alcotest.(check bool) (tag "slack = required - arrival") true
                (s.Sta.sp_slack = s.Sta.sp_required -. s.Sta.sp_arrival))
            r.Sta.slacks)
        [ 1; test_jobs ])
    (slack_fixtures ())

let test_slack_tightening_metamorphic () =
  (* Δ-tightening an endpoint constraint on a leaf net decreases that
     endpoint's slack by exactly Δ and never increases any other
     pin's slack (requirements propagate through min and minus, both
     monotone — so monotonicity holds bitwise, not just to
     tolerance) *)
  let delta = 0.125e-9 in
  List.iter
    (fun (name, build, sparse) ->
      let probe = build () in
      (* decks that already carry constraint cards (the adder) can't
         be re-constrained; the golden test covers them instead *)
      if Sta.constraints probe <> [] then ()
      else begin
      let r0 = Sta.analyze ~sparse ~jobs:1 probe in
      let target =
        match leaf_nets probe r0 with
        | n :: _ -> n
        | [] -> Alcotest.failf "%s: no leaf net to constrain" name
      in
      let arr =
        (List.find (fun nt -> nt.Sta.net_name = target) r0.Sta.nets)
          .Sta.driver_arrival
      in
      let r_base = arr +. 0.4e-9 in
      List.iter
        (fun jobs ->
          let da = build () and db = build () in
          ensure_clock da;
          ensure_clock db;
          Sta.add_constraint da ~net:target ~required:r_base;
          Sta.add_constraint db ~net:target ~required:(r_base -. delta);
          let ra = Sta.analyze ~sparse ~jobs da in
          let rb = Sta.analyze ~sparse ~jobs db in
          let tag s = Printf.sprintf "%s jobs=%d: %s" name jobs s in
          (let sa =
             match slack_at ra ~net:target ~pin:None with
             | Some s -> s
             | None -> Alcotest.failf "%s: no entry for %s" name target
           and sb =
             match slack_at rb ~net:target ~pin:None with
             | Some s -> s
             | None -> Alcotest.failf "%s: no entry for %s" name target
           in
           Alcotest.(check bool)
             (tag
                (Printf.sprintf
                   "target slack drops by exactly delta (%.17g vs %.17g)"
                   (sa.Sta.sp_slack -. sb.Sta.sp_slack)
                   delta))
             true
             (Float.abs (sa.Sta.sp_slack -. sb.Sta.sp_slack -. delta)
             <= 1e-12 *. Float.abs sa.Sta.sp_slack
                +. epsilon_float *. Float.abs sa.Sta.sp_slack));
          Alcotest.(check int) (tag "same pin population")
            (List.length ra.Sta.slacks)
            (List.length rb.Sta.slacks);
          List.iter
            (fun sa ->
              match slack_at rb ~net:sa.Sta.sp_net ~pin:sa.Sta.sp_pin with
              | None ->
                Alcotest.failf "%s: pin vanished under tightening" name
              | Some sb ->
                Alcotest.(check bool)
                  (tag "no pin's slack increases (bitwise)") true
                  (sb.Sta.sp_slack <= sa.Sta.sp_slack))
            ra.Sta.slacks;
          Alcotest.(check bool) (tag "worst slack monotone") true
            (rb.Sta.worst_slack <= ra.Sta.worst_slack))
        [ 1; test_jobs ]
      end)
    (slack_fixtures ())

let test_top_k_paths_properties () =
  (* top-K extraction: sorted by slack, distinct endpoint pins, the
     worst path's slack equals the report's worst slack, and k only
     truncates — it never reorders *)
  List.iter
    (fun (name, build, sparse) ->
      let d = build () in
      ensure_clock d;
      let r = Sta.analyze ~sparse ~jobs:test_jobs d in
      let all = Sta.critical_paths d r ~k:max_int in
      let tag s = Printf.sprintf "%s: %s" name s in
      Alcotest.(check bool) (tag "at least one path") true (all <> []);
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          a.Sta.path_slack <= b.Sta.path_slack && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) (tag "paths sorted worst-first") true
        (sorted all);
      let endpoints =
        List.map (fun p -> (p.Sta.path_endpoint, p.Sta.path_pin)) all
      in
      Alcotest.(check bool) (tag "endpoint pins distinct") true
        (List.length endpoints
        = List.length (List.sort_uniq compare endpoints));
      (* the worst path's slack is the report's worst slack — to
         rounding: the worst pin entry may sit on an *internal* pin of
         the same path, where the forward (+) and backward (-) passes
         round differently by an ulp *)
      let w = (List.hd all).Sta.path_slack in
      Alcotest.(check bool)
        (tag
           (Printf.sprintf "worst path slack = report worst slack (%.17g/%.17g)"
              w r.Sta.worst_slack))
        true
        (Float.abs (w -. r.Sta.worst_slack)
        <= 1e-9 *. Float.max 1e-12 (Float.abs w));
      (* each path's slack is its own endpoint arithmetic, and never
         better than that pin's report entry (which additionally binds
         requirements arriving through downstream logic) *)
      List.iter
        (fun p ->
          Alcotest.(check bool) (tag "path slack = required - arrival") true
            (p.Sta.path_slack = p.Sta.path_required -. p.Sta.path_arrival);
          match slack_at r ~net:p.Sta.path_endpoint ~pin:p.Sta.path_pin with
          | None -> Alcotest.failf "%s: path endpoint has no slack entry" name
          | Some s ->
            Alcotest.(check bool) (tag "pin entry <= path slack") true
              (s.Sta.sp_slack
              <= p.Sta.path_slack
                 +. 1e-9 *. Float.max 1e-12 (Float.abs p.Sta.path_slack)))
        all;
      List.iteri
        (fun k _ ->
          let prefix = Sta.critical_paths d r ~k in
          Alcotest.(check bool)
            (tag (Printf.sprintf "k=%d is a prefix of the full list" k))
            true
            (prefix
            = List.filteri (fun i _ -> i < k) all))
        all;
      match Sta.critical_paths d r ~k:(-1) with
      | _ -> Alcotest.fail (tag "negative k accepted")
      | exception Invalid_argument _ -> ())
    (slack_fixtures ())

let test_path_trace_oracle () =
  (* re-summing a traced path's per-stage contributions must
     reproduce the endpoint arrival: the trace replays the forward
     fold, so the telescoped sum closes to rounding *)
  List.iter
    (fun (name, build, sparse) ->
      let d = build () in
      ensure_clock d;
      let r = Sta.analyze ~sparse ~jobs:test_jobs d in
      List.iter
        (fun p ->
          let total =
            List.fold_left
              (fun acc st -> acc +. st.Sta.st_gate_delay +. st.Sta.st_net_delay)
              p.Sta.path_input_arrival p.Sta.path_stages
          in
          Alcotest.(check bool)
            (Printf.sprintf
               "%s %s/%s: stage delays re-sum to the arrival (%.17g vs %.17g)"
               name p.Sta.path_endpoint
               (match p.Sta.path_pin with Some i -> i | None -> "(driver)")
               total p.Sta.path_arrival)
            true
            (Float.abs (total -. p.Sta.path_arrival)
            <= 1e-9 *. Float.max 1e-12 (Float.abs p.Sta.path_arrival));
          (* the last stage is the endpoint itself *)
          match List.rev p.Sta.path_stages with
          | [] -> Alcotest.failf "%s: empty path" name
          | last :: _ ->
            Alcotest.(check string) (name ^ ": trace ends at the endpoint")
              p.Sta.path_endpoint last.Sta.st_net;
            Alcotest.(check bool) (name ^ ": last stage carries the arrival")
              true
              (last.Sta.st_arrival = p.Sta.path_arrival))
        (Sta.critical_paths d r ~k:5))
    (slack_fixtures ())

let test_adder_golden_path () =
  (* hand-checked golden on decks/adder_stage.sta: the deck pins
     [constraint sink 1.4n] and [clock 1.5n]; the worst path ends on
     the [sink] stub's driver pin and walks the five-net chain with
     the cells' intrinsic delays (inv 40p, nand2 60p, buf 90p) as the
     per-stage gate contributions *)
  let d = adder_deck () in
  let r = Sta.analyze ~jobs:test_jobs d in
  let p =
    match Sta.critical_paths d r ~k:1 with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected exactly one worst path"
  in
  Alcotest.(check string) "endpoint is the constrained stub" "sink"
    p.Sta.path_endpoint;
  Alcotest.(check bool) "endpoint pin is the driver" true
    (p.Sta.path_pin = None);
  Alcotest.(check (float 1e-15)) "required = the deck's constraint card" 1.4e-9
    p.Sta.path_required;
  (* the path is the critical chain extended by the stub *)
  Alcotest.(check (list string)) "stage nets extend the critical path"
    (r.Sta.critical_path @ [ "sink" ])
    (List.map (fun st -> st.Sta.st_net) p.Sta.path_stages);
  (* gate contributions, stage by stage: PI first (no gate), then
     inv, nand2, buf, inv intrinsics straight from the cell cards *)
  Alcotest.(check (list (float 1e-15))) "per-stage intrinsics"
    [ 0.; 40e-12; 60e-12; 90e-12; 40e-12 ]
    (List.map (fun st -> st.Sta.st_gate_delay) p.Sta.path_stages);
  (* endpoint arrival is the stub's driver arrival from the report *)
  let sink_nt = List.find (fun nt -> nt.Sta.net_name = "sink") r.Sta.nets in
  Alcotest.(check bool) "arrival = stub driver arrival" true
    (p.Sta.path_arrival = sink_nt.Sta.driver_arrival);
  Alcotest.(check bool) "slack = required - arrival" true
    (p.Sta.path_slack = p.Sta.path_required -. p.Sta.path_arrival);
  (* the deck meets its constraints at nominal values *)
  Alcotest.(check bool) "deck meets timing" true (r.Sta.worst_slack > 0.);
  (* every non-PI stage's wire delay is the report's sink delay for
     that (net, pin) at the path's transition *)
  List.iter
    (fun st ->
      match st.Sta.st_pin with
      | None -> ()
      | Some inst ->
        let nt =
          List.find (fun nt -> nt.Sta.net_name = st.Sta.st_net) r.Sta.nets
        in
        let s = List.find (fun s -> s.Sta.sink_inst = inst) nt.Sta.sinks in
        let expect =
          match p.Sta.path_transition with
          | Sta.Rise -> s.Sta.net_delay
          | Sta.Fall -> s.Sta.net_delay_fall
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s wire delay matches the report" st.Sta.st_net
             inst)
          true
          (st.Sta.st_net_delay = expect))
    p.Sta.path_stages

let test_rise_fall_symmetric_at_half () =
  (* at threshold 0.5 the linear-symmetry fall model coincides with
     the rise model, so both transitions carry identical numbers *)
  let d = adder_deck () in
  let r = Sta.analyze ~jobs:1 d in
  List.iter
    (fun nt ->
      Alcotest.(check bool)
        (nt.Sta.net_name ^ ": driver arrivals coincide at 0.5") true
        (nt.Sta.driver_arrival = nt.Sta.driver_arrival_fall);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: sink delays coincide at 0.5"
               nt.Sta.net_name s.Sta.sink_inst)
            true
            (s.Sta.net_delay = s.Sta.net_delay_fall
            && s.Sta.arrival = s.Sta.arrival_fall))
        nt.Sta.sinks)
    r.Sta.nets;
  (* away from 0.5 the two transitions split, and the binding one is
     the slower (lesser-slack) of the pair *)
  let d4 = Sta.create ~vdd:5. ~threshold:0.35 () in
  Sta.add_gate d4 ~inst:"u1" ~cell:inv ~inputs:[ "a" ] ~output:"y";
  Sta.add_net d4 ~name:"a"
    ~segments:[ seg ~from_:"drv" ~to_:"u1" ~r:100. ~c:30e-15 ];
  Sta.add_net d4 ~name:"y"
    ~segments:[ seg ~from_:"drv" ~to_:"end" ~r:150. ~c:40e-15 ];
  Sta.add_primary_input d4 ~net:"a" ();
  Sta.add_constraint d4 ~net:"y" ~required:2e-9;
  let r4 = Sta.analyze ~jobs:1 d4 in
  let y = List.find (fun nt -> nt.Sta.net_name = "y") r4.Sta.nets in
  Alcotest.(check bool) "transitions split off 0.5" true
    (y.Sta.driver_arrival <> y.Sta.driver_arrival_fall);
  let s = Option.get (slack_at r4 ~net:"y" ~pin:None) in
  let slower =
    Float.max y.Sta.driver_arrival y.Sta.driver_arrival_fall
  in
  Alcotest.(check bool) "slack binds at the slower transition" true
    (s.Sta.sp_arrival = slower);
  Alcotest.(check bool) "binding transition labeled" true
    (s.Sta.sp_transition
    = (if y.Sta.driver_arrival_fall > y.Sta.driver_arrival then Sta.Fall
       else Sta.Rise))

(* ------------------------------------------------------------------ *)
(* Multi-corner analysis: [analyze_corners] must be bit-identical —
   reports, counters and cache contents — to N sequential [analyze]
   calls over [corner_design]s whose caches share one patterns store,
   at every jobs value.  Corners derate values, never topology. *)

let test_corners () =
  [ Circuit.Corner.nominal;
    Circuit.Corner.make ~name:"slow" ~wire_res:1.25 ~wire_cap:1.15
      ~cell_drive:1.3 ~cell_cap:1.1 ~cell_intrinsic:1.2 ();
    Circuit.Corner.make ~name:"fast" ~wire_res:0.85 ~wire_cap:0.9
      ~cell_drive:0.75 ~cell_cap:0.95 ~cell_intrinsic:0.85 () ]

let test_corners_match_sequential () =
  let corners = test_corners () in
  List.iter
    (fun (name, build, sparse) ->
      let d = build () in
      ensure_clock d;
      List.iter
        (fun jobs ->
          let cr = Sta.analyze_corners ~sparse ~jobs d corners in
          (* the reference: N independent analyze calls whose private
             caches share one pattern store, in spec order *)
          let patterns = Awe.Cache.create_patterns () in
          let refs =
            List.map
              (fun c ->
                let cache = Sta.create_cache ~patterns () in
                let r =
                  Sta.analyze ~sparse ~jobs ~cache (Sta.corner_design d c)
                in
                (c, r, cache))
              corners
          in
          let tag s = Printf.sprintf "%s jobs=%d: %s" name jobs s in
          Alcotest.(check int) (tag "one run per corner")
            (List.length corners)
            (List.length cr.Sta.runs);
          List.iter2
            (fun run (c, r_ref, cache_ref) ->
              Alcotest.(check string) (tag "spec order preserved")
                c.Circuit.Corner.name run.Sta.run_corner.Circuit.Corner.name;
              check_reports_equal
                (tag ("corner " ^ c.Circuit.Corner.name))
                r_ref run.Sta.run_report;
              Alcotest.(check bool) (tag "cache counters identical") true
                (cache_counters run.Sta.run_report.Sta.stats
                = cache_counters r_ref.Sta.stats);
              match run.Sta.run_cache with
              | None -> Alcotest.fail (tag "corner run lost its cache")
              | Some cache ->
                Alcotest.(check bool)
                  (tag "cache fingerprint identical (incl. pattern tier)")
                  true
                  (Sta.cache_fingerprint cache
                  = Sta.cache_fingerprint cache_ref))
            cr.Sta.runs refs;
          (* summary lines agree with the per-corner reports *)
          List.iter2
            (fun cs run ->
              Alcotest.(check string) (tag "summary order") cs.Sta.cs_name
                run.Sta.run_corner.Circuit.Corner.name;
              Alcotest.(check bool) (tag "summary mirrors the report") true
                (cs.Sta.cs_worst_slack = run.Sta.run_report.Sta.worst_slack
                && cs.Sta.cs_critical_arrival
                   = run.Sta.run_report.Sta.critical_arrival))
            cr.Sta.summary cr.Sta.runs;
          let worst =
            List.fold_left
              (fun acc run ->
                Float.min acc run.Sta.run_report.Sta.worst_slack)
              infinity cr.Sta.runs
          and latest =
            List.fold_left
              (fun acc run ->
                Float.max acc run.Sta.run_report.Sta.critical_arrival)
              neg_infinity cr.Sta.runs
          in
          Alcotest.(check bool) (tag "worst slack overall = min") true
            (cr.Sta.worst_slack_overall = worst);
          Alcotest.(check bool) (tag "critical arrival overall = max") true
            (cr.Sta.critical_arrival_overall = latest);
          Alcotest.(check bool) (tag "worst corner names the min") true
            (List.exists
               (fun run ->
                 run.Sta.run_corner.Circuit.Corner.name = cr.Sta.worst_corner
                 && run.Sta.run_report.Sta.worst_slack = worst)
               cr.Sta.runs))
        [ 1; test_jobs; 8 ])
    [ ("adder", (fun () -> adder_deck ()), true);
      ("grid", (fun () -> Sta.Synth.grid ~rows:4 ~cols:4 ()), true) ]

let test_corners_share_patterns () =
  (* the point of the shared tier: later corners pattern-hit the
     symbolic work corner 1 paid for, so they do strictly fewer
     symbolic factorizations than a corner analyzed with a private
     patterns store *)
  let d = Sta.Synth.grid ~rows:4 ~cols:4 () in
  ensure_clock d;
  let corners = test_corners () in
  let cr = Sta.analyze_corners ~sparse:true ~jobs:1 d corners in
  (match cr.Sta.runs with
  | first :: rest ->
    let hits r = r.Sta.run_report.Sta.stats.Awe.Stats.cache_pattern_hits in
    List.iter
      (fun run ->
        Alcotest.(check bool)
          (run.Sta.run_corner.Circuit.Corner.name
          ^ ": later corner pattern-hits every net")
          true
          (hits run >= hits first))
      rest
  | [] -> Alcotest.fail "no runs");
  (* derates are value-only: per-corner delays differ (critical nets
     may legitimately re-rank — wire and cell derates scale
     unevenly, and the grid has near-symmetric path races) *)
  (match cr.Sta.runs with
  | a :: b :: _ ->
    Alcotest.(check bool) "different delays across corners" true
      (a.Sta.run_report.Sta.critical_arrival
      <> b.Sta.run_report.Sta.critical_arrival)
  | _ -> Alcotest.fail "expected >= 2 runs");
  (* validation *)
  (match Sta.analyze_corners d [] with
  | _ -> Alcotest.fail "empty corner list accepted"
  | exception Invalid_argument _ -> ());
  match
    Sta.analyze_corners d [ Circuit.Corner.nominal; Circuit.Corner.nominal ]
  with
  | _ -> Alcotest.fail "duplicate corner names accepted"
  | exception Invalid_argument _ -> ()

let test_corner_design_derates () =
  (* slow corner: every derate > 1 pushes arrivals out; fast pulls
     them in; nominal is the identity *)
  let d = adder_deck () in
  let base = Sta.analyze ~jobs:1 d in
  let at c = Sta.analyze ~jobs:1 (Sta.corner_design d c) in
  let nominal = at Circuit.Corner.nominal in
  check_reports_equal "nominal corner is the identity" base nominal;
  match test_corners () with
  | [ _; slow; fast ] ->
    Alcotest.(check bool) "slow corner is slower" true
      ((at slow).Sta.critical_arrival > base.Sta.critical_arrival);
    Alcotest.(check bool) "fast corner is faster" true
      ((at fast).Sta.critical_arrival < base.Sta.critical_arrival)
  | _ -> Alcotest.fail "fixture shape"

let test_corner_spec_parser () =
  let spec =
    {|{ "corners": [
        { "name": "typ" },
        { "name": "slow", "wire_res": 1.25, "cell_intrinsic": 1.2 }
    ] }|}
  in
  (match Circuit.Corner.parse_string spec with
  | [ typ; slow ] ->
    Alcotest.(check string) "first name" "typ" typ.Circuit.Corner.name;
    Alcotest.(check (float 0.)) "omitted scale defaults to 1" 1.
      typ.Circuit.Corner.cell_drive;
    Alcotest.(check (float 0.)) "wire_res read" 1.25
      slow.Circuit.Corner.wire_res;
    Alcotest.(check (float 0.)) "cell_intrinsic read" 1.2
      slow.Circuit.Corner.cell_intrinsic;
    Alcotest.(check (float 0.)) "omitted wire_cap defaults to 1" 1.
      slow.Circuit.Corner.wire_cap
  | _ -> Alcotest.fail "expected two corners");
  (* a bare top-level array is also accepted *)
  (match Circuit.Corner.parse_string {|[ { "name": "only" } ]|} with
  | [ c ] -> Alcotest.(check string) "bare array" "only" c.Circuit.Corner.name
  | _ -> Alcotest.fail "bare array rejected");
  let rejects label s =
    match Circuit.Corner.parse_string s with
    | _ -> Alcotest.fail (label ^ " accepted")
    | exception Circuit.Corner.Parse_error _ -> ()
  in
  rejects "unknown field" {|[ { "name": "a", "wire_ohms": 2 } ]|};
  rejects "duplicate name" {|[ { "name": "a" }, { "name": "a" } ]|};
  rejects "empty name" {|[ { "name": "" } ]|};
  rejects "empty list" {|{ "corners": [] }|};
  rejects "non-positive scale" {|[ { "name": "a", "wire_res": 0 } ]|};
  rejects "non-finite scale" {|[ { "name": "a", "wire_cap": 1e999 } ]|};
  rejects "missing name" {|[ { "wire_res": 1.1 } ]|};
  rejects "trailing garbage" {|[ { "name": "a" } ] x|};
  rejects "not json at all" "corner: fast";
  match Circuit.Corner.make ~name:"bad" ~cell_drive:(-1.) () with
  | _ -> Alcotest.fail "negative scale accepted by make"
  | exception Invalid_argument _ -> ()

let test_constraint_cards () =
  (* constraint/clock cards round-trip through the design file and
     feed the same API the programmatic path uses *)
  let d =
    Sta.Design_file.parse_string
      (design_text ^ "constraint net_out 2n\nclock 3n\n")
  in
  Alcotest.(check (list (pair string (float 1e-15)))) "constraint card parsed"
    [ ("net_out", 2e-9) ]
    (Sta.constraints d);
  (match Sta.clock_period d with
  | Some p -> Alcotest.(check (float 1e-15)) "clock card parsed" 3e-9 p
  | None -> Alcotest.fail "clock card dropped");
  let rejects label s =
    match Sta.Design_file.parse_string (design_text ^ s) with
    | _ -> Alcotest.fail (label ^ " accepted")
    | exception Sta.Design_file.Parse_error _ -> ()
    | exception Sta.Malformed _ -> ()
  in
  rejects "negative required" "constraint net_out -1n\n";
  rejects "short constraint" "constraint net_out\n";
  rejects "long constraint" "constraint net_out 1n 2n\n";
  rejects "duplicate constraint"
    "constraint net_out 1n\nconstraint net_out 2n\n";
  rejects "non-positive clock" "clock 0\n";
  rejects "short clock" "clock\n";
  rejects "duplicate clock" "clock 1n\nclock 2n\n";
  (* without any constraint or clock, analysis reports no slacks *)
  let r = Sta.analyze ~jobs:1 (Sta.Design_file.parse_string design_text) in
  Alcotest.(check bool) "unconstrained design has no slack entries" true
    (r.Sta.slacks = [] && r.Sta.worst_slack = infinity)

(* ----- Session: incremental ECO re-timing -------------------------

   The contract under test: after any accepted edit sequence, the
   session's dirty-cone re-time is bit-identical — every report field
   except [stats], whose engine counters legitimately shrink (that is
   the point) — to a cold [Sta.analyze] of the edited design with a
   fresh cache, at every [jobs] value; and the session cache converges
   to the same fingerprint the cold run builds (key refcounting). *)

let check_reports_match name (inc : Sta.report) (cold : Sta.report) =
  Alcotest.(check bool) (name ^ ": nets bit-identical") true
    (inc.Sta.nets = cold.Sta.nets);
  Alcotest.(check bool) (name ^ ": critical arrival bit-identical") true
    (inc.Sta.critical_arrival = cold.Sta.critical_arrival);
  Alcotest.(check (list string)) (name ^ ": critical path")
    cold.Sta.critical_path inc.Sta.critical_path;
  Alcotest.(check bool) (name ^ ": slacks bit-identical") true
    (inc.Sta.slacks = cold.Sta.slacks);
  Alcotest.(check bool) (name ^ ": worst slack bit-identical") true
    (inc.Sta.worst_slack = cold.Sta.worst_slack);
  Alcotest.(check bool) (name ^ ": no failures") true
    (inc.Sta.failures = [] && cold.Sta.failures = [])

let check_session_cold ?(sparse = false) name s =
  let d = Sta.Session.design s in
  let cache = Sta.create_cache () in
  let cold =
    Sta.analyze ~model:Sta.Awe_auto ~sparse ~reduce:false ~jobs:1 ~cache d
  in
  (match Sta.Session.retime s with
  | Ok r -> check_reports_match name r cold
  | Error msg -> Alcotest.failf "%s: retime failed: %s" name msg);
  Alcotest.(check bool) (name ^ ": cache fingerprints equal") true
    (Sta.cache_fingerprint (Sta.Session.cache s) = Sta.cache_fingerprint cache)

let ap s e =
  match Sta.Session.apply s e with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "apply failed: %s" msg

let constrained_chain () =
  let d = chain () in
  Sta.add_constraint d ~net:"net_out" ~required:2e-9;
  Sta.set_clock d ~period:3e-9;
  d

let test_session_initial () =
  let s = Sta.Session.create ~reduce:false (constrained_chain ()) in
  check_session_cold "initial analysis" s;
  Alcotest.(check int) "nothing pending" 0 (Sta.Session.pending_edits s)

let test_session_value_edits () =
  let s = Sta.Session.create ~reduce:false (constrained_chain ()) in
  let step name e =
    ap s e;
    check_session_cold name s
  in
  step "set_r" (Sta.Session.Set_resistance { net = "net_mid"; index = 0; value = 350. });
  step "set_c" (Sta.Session.Set_capacitance { net = "net_out"; index = 0; value = 80e-15 });
  step "set_drive" (Sta.Session.Set_drive { inst = "u1"; value = 420. });
  step "set_pin_cap" (Sta.Session.Set_pin_cap { inst = "u2"; value = 55e-15 });
  step "set_intrinsic" (Sta.Session.Set_intrinsic { inst = "u3"; value = 95e-12 });
  step "set_constraint" (Sta.Session.Set_constraint { net = "net_out"; required = 1.5e-9 });
  step "set_clock" (Sta.Session.Set_clock { period = 2.5e-9 });
  step "remove_clock" Sta.Session.Remove_clock;
  step "remove_constraint" (Sta.Session.Remove_constraint { net = "net_out" });
  (* a burst of edits pays one propagation at the next retime *)
  ap s (Sta.Session.Set_resistance { net = "net_in"; index = 0; value = 120. });
  ap s (Sta.Session.Set_clock { period = 2e-9 });
  Alcotest.(check int) "two pending" 2 (Sta.Session.pending_edits s);
  check_session_cold "batched edits" s

let test_session_dirty_cone () =
  (* a single deep edit must not re-solve the whole design *)
  let s = Sta.Session.create ~reduce:false (constrained_chain ()) in
  ap s (Sta.Session.Set_resistance { net = "net_out"; index = 0; value = 400. });
  (match Sta.Session.retime s with
  | Error m -> Alcotest.failf "retime: %s" m
  | Ok r ->
    let dirty = r.Sta.stats.Awe.Stats.eco_dirty_nets
    and reused = r.Sta.stats.Awe.Stats.eco_reused_nets in
    Alcotest.(check int) "every net classified once" 4 (dirty + reused);
    Alcotest.(check bool)
      (Printf.sprintf "cone is partial (dirty %d)" dirty)
      true
      (dirty >= 1 && dirty <= 2));
  let tot = Sta.Session.totals s in
  Alcotest.(check int) "edits counted" 1 tot.Sta.Session.total_edits;
  Alcotest.(check int) "no fallbacks" 0 tot.Sta.Session.total_fallbacks

let test_session_revert () =
  let s = Sta.Session.create ~reduce:false (constrained_chain ()) in
  let r0 = Sta.Session.report s in
  let fp0 = Sta.cache_fingerprint (Sta.Session.cache s) in
  ap s (Sta.Session.Set_resistance { net = "net_mid"; index = 1; value = 900. });
  ap s (Sta.Session.Set_drive { inst = "u2"; value = 333. });
  ap s (Sta.Session.Set_clock { period = 9e-9 });
  (match Sta.Session.retime s with
  | Ok r ->
    Alcotest.(check bool) "edited report differs" true (r.Sta.nets <> r0.Sta.nets)
  | Error m -> Alcotest.failf "retime: %s" m);
  Alcotest.(check int) "three reverts" 3 (Sta.Session.revert_all s);
  (match Sta.Session.retime s with
  | Ok r -> check_reports_match "revert restores the report" r r0
  | Error m -> Alcotest.failf "retime after revert: %s" m);
  Alcotest.(check bool) "revert restores the cache fingerprint" true
    (Sta.cache_fingerprint (Sta.Session.cache s) = fp0)

(* two parallel routes into u3; only one is a logical input, so a
   sink swap is a pure connectivity edit on prebuilt wires *)
let swap_fixture () =
  let d = Sta.create () in
  Sta.add_gate d ~inst:"u1" ~cell:buf ~inputs:[ "a" ] ~output:"y1";
  Sta.add_gate d ~inst:"u2" ~cell:inv ~inputs:[ "a" ] ~output:"y2";
  Sta.add_gate d ~inst:"u3" ~cell:inv ~inputs:[ "y1" ] ~output:"z";
  Sta.add_net d ~name:"a"
    ~segments:
      [ seg ~from_:"drv" ~to_:"u1" ~r:100. ~c:25e-15;
        seg ~from_:"drv" ~to_:"u2" ~r:140. ~c:30e-15 ];
  Sta.add_net d ~name:"y1"
    ~segments:
      [ seg ~from_:"drv" ~to_:"w1" ~r:200. ~c:40e-15;
        seg ~from_:"w1" ~to_:"u3" ~r:150. ~c:35e-15;
        seg ~from_:"w1" ~to_:"stub" ~r:50. ~c:8e-15 ];
  Sta.add_net d ~name:"y2" ~segments:[ seg ~from_:"drv" ~to_:"u3" ~r:320. ~c:60e-15 ];
  Sta.add_net d ~name:"z" ~segments:[ seg ~from_:"drv" ~to_:"end" ~r:10. ~c:1e-15 ];
  Sta.add_primary_input d ~net:"a" ~slew:120e-12 ();
  Sta.add_primary_output d ~net:"z";
  Sta.set_clock d ~period:2e-9;
  d

let test_session_topology_edits () =
  let s = Sta.Session.create ~reduce:false (swap_fixture ()) in
  check_session_cold "pre-swap" s;
  ap s (Sta.Session.Swap_sink { inst = "u3"; from_net = "y1"; to_net = "y2" });
  check_session_cold "swap_sink" s;
  (* the swap's undo image is a Set_inputs edit *)
  (match Sta.Session.revert s with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "revert swap: %s" m);
  check_session_cold "swap reverted" s;
  ap s (Sta.Session.Set_inputs { inst = "u3"; inputs = [ "y1"; "y2" ] });
  check_session_cold "set_inputs widens the cone" s;
  (* rehang y1's stub off the driver root instead of w1 *)
  ap s (Sta.Session.Reroute { net = "y1"; index = 2; seg_from = "drv"; seg_to = "stub" });
  check_session_cold "reroute" s

let test_session_apply_validation () =
  let s = Sta.Session.create ~reduce:false (chain ()) in
  let r0 = Sta.Session.report s in
  let rejects label e =
    match Sta.Session.apply s e with
    | Ok () -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  rejects "unknown net" (Sta.Session.Set_resistance { net = "nope"; index = 0; value = 1. });
  rejects "index out of range" (Sta.Session.Set_resistance { net = "net_in"; index = 5; value = 1. });
  rejects "non-positive resistance" (Sta.Session.Set_resistance { net = "net_in"; index = 0; value = 0. });
  rejects "negative capacitance" (Sta.Session.Set_capacitance { net = "net_in"; index = 0; value = -1e-15 });
  rejects "non-finite value" (Sta.Session.Set_resistance { net = "net_in"; index = 0; value = nan });
  rejects "unknown inst" (Sta.Session.Set_drive { inst = "nope"; value = 100. });
  rejects "non-positive drive" (Sta.Session.Set_drive { inst = "u1"; value = 0. });
  rejects "negative required" (Sta.Session.Set_constraint { net = "net_out"; required = -1. });
  rejects "absent constraint" (Sta.Session.Remove_constraint { net = "net_out" });
  rejects "absent clock" Sta.Session.Remove_clock;
  rejects "detached swap target"
    (Sta.Session.Swap_sink { inst = "u2"; from_net = "net_mid"; to_net = "net_in" });
  rejects "not an input"
    (Sta.Session.Swap_sink { inst = "u2"; from_net = "net_out"; to_net = "net_mid" });
  rejects "empty inputs" (Sta.Session.Set_inputs { inst = "u2"; inputs = [] });
  Alcotest.(check int) "rejected edits leave nothing pending" 0
    (Sta.Session.pending_edits s);
  match Sta.Session.retime s with
  | Ok r -> check_reports_match "rejected edits mutate nothing" r r0
  | Error m -> Alcotest.failf "retime: %s" m

(* random edit stream over the shared random layered DAGs *)
let random_edit st d =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let nets = Sta.net_names d in
  let seg_edit mk =
    let net = pick nets in
    let segs = Option.get (Sta.net_segments d net) in
    mk net (Random.State.int st (List.length segs))
  in
  let gate () =
    let inst, _, _, _ = pick (Sta.gate_details d) in
    inst
  in
  match Random.State.int st 8 with
  | 0 | 1 ->
    seg_edit (fun net index ->
        Sta.Session.Set_resistance
          { net; index; value = 20. +. Random.State.float st 800. })
  | 2 | 3 ->
    seg_edit (fun net index ->
        Sta.Session.Set_capacitance
          { net; index; value = Random.State.float st 80e-15 })
  | 4 -> Sta.Session.Set_drive { inst = gate (); value = 100. +. Random.State.float st 900. }
  | 5 -> Sta.Session.Set_pin_cap { inst = gate (); value = Random.State.float st 60e-15 }
  | 6 -> Sta.Session.Set_intrinsic { inst = gate (); value = Random.State.float st 120e-12 }
  | _ ->
    if Random.State.bool st then
      Sta.Session.Set_clock { period = 1e-9 +. Random.State.float st 4e-9 }
    else
      Sta.Session.Set_constraint
        { net = pick nets; required = Random.State.float st 3e-9 }

let test_session_metamorphic () =
  List.iter
    (fun jobs ->
      for seed = 0 to 3 do
        let st = Random.State.make [| 0xEC0; seed |] in
        let d = random_design st ~nets:12 in
        (* give the fabric endpoints so constraint edits bite *)
        let consumed =
          List.concat_map (fun (_, _, ins, _) -> ins) (Sta.gate_details d)
        in
        List.iter
          (fun n -> if not (List.mem n consumed) then Sta.add_primary_output d ~net:n)
          (Sta.net_names d);
        let sparse = seed mod 2 = 1 in
        let s = Sta.Session.create ~sparse ~reduce:false ~jobs d in
        let tag round =
          Printf.sprintf "jobs %d seed %d round %d" jobs seed round
        in
        for round = 0 to 5 do
          for _ = 0 to Random.State.int st 2 do
            ap s (random_edit st d)
          done;
          (* interleave user-level undo with fresh edits *)
          if round = 3 then
            match Sta.Session.revert s with
            | Ok _ | Error _ -> ()
          else ();
          check_session_cold ~sparse (tag round) s
        done;
        let tot = Sta.Session.totals s in
        Alcotest.(check int) (tag 9 ^ ": no fallbacks") 0
          tot.Sta.Session.total_fallbacks
      done)
    [ 1; 4; 8 ]

let test_session_revert_all_metamorphic () =
  for seed = 0 to 3 do
    let st = Random.State.make [| 0x0EC0; seed |] in
    let d = random_design st ~nets:10 in
    let s = Sta.Session.create ~reduce:false ~jobs:test_jobs d in
    let r0 = Sta.Session.report s in
    let fp0 = Sta.cache_fingerprint (Sta.Session.cache s) in
    for _ = 0 to 7 do
      ap s (random_edit st d)
    done;
    (match Sta.Session.retime s with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "seed %d: retime: %s" seed m);
    ignore (Sta.Session.revert_all s);
    (match Sta.Session.retime s with
    | Ok r -> check_reports_match (Printf.sprintf "seed %d restored" seed) r r0
    | Error m -> Alcotest.failf "seed %d: retime after revert: %s" seed m);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fingerprint restored" seed)
      true
      (Sta.cache_fingerprint (Sta.Session.cache s) = fp0)
  done

(* ----- the connectivity index against the list-scan reference ------

   Random layered designs under random Session edit streams that mix
   topology edits (Set_inputs, Swap_sink, including duplicate pins),
   cell edits and reverts.  After every step, every net's sinks (order
   included), drivers and newest driver must equal the frozen list-scan
   queries of [Legacy_connectivity], and the wave schedule must be a
   sorted partition of the nets, and the session's worklist re-time
   must match a cold analysis of the edited design.  Both run the
   Elmore model: the property is about connectivity, and first-order
   delays exist for every random stage. *)

let index_matches_reference d =
  let inst g = g.Sta.g_inst in
  let nets =
    List.sort_uniq compare
      (Sta.net_names d
      @ List.concat_map (fun (_, _, ins, out) -> out :: ins) (Sta.gate_details d))
  in
  List.for_all
    (fun net ->
      List.map inst (Sta.sinks_of d net) = Legacy_connectivity.sinks_of d net
      && List.map inst (Sta.drivers_of d net) = Legacy_connectivity.drivers_of d net
      && Option.map inst (Sta.driver_of d net) = Legacy_connectivity.driver_of d net)
    nets

let waves_partition d =
  let waves = Sta.waves d in
  List.for_all (fun w -> w = List.sort_uniq compare w && w <> []) waves
  && List.sort compare (List.concat waves) = Sta.net_names d

(* a topology or cell edit that keeps the design valid: input lists are
   drawn from the nets wired to the gate's pin in the generated design *)
let random_index_edit st d ~wired =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let inst, _, inputs, _ = pick (Sta.gate_details d) in
  let ws = Hashtbl.find wired inst in
  match Random.State.int st 4 with
  | 0 ->
    let n = 1 + Random.State.int st 3 in
    Sta.Session.Set_inputs { inst; inputs = List.init n (fun _ -> pick ws) }
  | 1 -> Sta.Session.Swap_sink { inst; from_net = pick inputs; to_net = pick ws }
  | 2 -> Sta.Session.Set_drive { inst; value = 100. +. Random.State.float st 900. }
  | _ -> Sta.Session.Set_pin_cap { inst; value = Random.State.float st 60e-15 }

let qcheck_index_reference =
  QCheck2.Test.make ~name:"index = list-scan reference under edit streams"
    ~count:60 ~print:string_of_int
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0x1D8; seed |] in
      let d = random_design st ~nets:(4 + Random.State.int st 12) in
      let wired = Hashtbl.create 16 in
      List.iter
        (fun (inst, _, inputs, _) -> Hashtbl.replace wired inst inputs)
        (Sta.gate_details d);
      let model = Sta.Elmore_model in
      let s = Sta.Session.create ~model ~reduce:false ~jobs:test_jobs d in
      let matches_cold () =
        let cold = Sta.analyze ~model ~reduce:false ~jobs:1 d in
        match Sta.Session.retime s with
        | Ok r ->
          r.Sta.nets = cold.Sta.nets && r.Sta.slacks = cold.Sta.slacks
          && r.Sta.critical_path = cold.Sta.critical_path
        | Error _ -> false
      in
      let ok = ref (index_matches_reference d && waves_partition d) in
      for _ = 1 to 1 + Random.State.int st 12 do
        (match Random.State.int st 10 with
        | 0 -> ignore (Sta.Session.revert s)
        | 1 -> ignore (Sta.Session.revert_all s)
        | _ -> ignore (Sta.Session.apply s (random_index_edit st d ~wired)));
        ok := !ok && index_matches_reference d && waves_partition d && matches_cold ()
      done;
      !ok)

(* ----- Serve: the line protocol over a session --------------------- *)

let deck_path () =
  match
    List.find_opt Sys.file_exists
      [ "../../decks/adder_stage.sta"; "decks/adder_stage.sta" ]
  with
  | Some p -> p
  | None -> Alcotest.failf "decks/adder_stage.sta not found"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let expect_ok t name line =
  let r = Sta.Serve.handle t line in
  Alcotest.(check bool)
    (Printf.sprintf "%s: ok response (%s)" name r.Sta.Serve.body)
    true
    (starts_with {|{"ok":true|} r.Sta.Serve.body);
  r

let expect_err t name line =
  let r = Sta.Serve.handle t line in
  Alcotest.(check bool)
    (Printf.sprintf "%s: error response (%s)" name r.Sta.Serve.body)
    true
    (starts_with {|{"ok":false,"error":|} r.Sta.Serve.body);
  Alcotest.(check bool) (name ^ ": does not quit") false r.Sta.Serve.quit;
  r

let test_serve_protocol () =
  let t = Sta.Serve.create ~reduce:false () in
  ignore (expect_err t "timing before load" "timing");
  ignore (expect_err t "edit before load" "edit set_clock 1n");
  ignore (expect_err t "bare load" "load");
  ignore (expect_err t "missing file" "load /nonexistent/x.sta");
  let r = expect_ok t "load" ("load " ^ deck_path ()) in
  Alcotest.(check bool) "load reports nets" true
    (contains {|"nets":7|} r.Sta.Serve.body);
  Alcotest.(check bool) "session live" true (Sta.Serve.session t <> None);
  ignore (expect_err t "bad float" "edit set_r out 0 abc");
  ignore (expect_err t "bad index" "edit set_r out nine 100");
  ignore (expect_err t "unknown net" "edit set_r nonesuch 0 100");
  ignore (expect_err t "unknown edit kind" "edit teleport out");
  ignore (expect_err t "truncated edit" "edit set_r out");
  ignore (expect_ok t "value edit" "edit set_r out 0 450");
  ignore (expect_ok t "second edit" "edit set_c n3 0 40e-15");
  let r = expect_ok t "timing" "timing" in
  Alcotest.(check bool) "timing reports the dirty cone" true
    (contains {|"dirty_nets":|} r.Sta.Serve.body);
  let r = expect_ok t "timing with options" "timing --slack --top-k 3" in
  Alcotest.(check bool) "slack table present" true
    (contains {|"slacks":[|} r.Sta.Serve.body);
  Alcotest.(check bool) "paths present" true
    (contains {|"paths":[|} r.Sta.Serve.body);
  ignore (expect_err t "bad top-k" "timing --top-k many");
  ignore (expect_err t "unknown option" "timing --fast");
  let r = expect_ok t "stats" "stats" in
  Alcotest.(check bool) "stats counts edits" true
    (contains {|"eco_edits":2|} r.Sta.Serve.body);
  ignore (expect_ok t "revert" "revert");
  ignore (expect_ok t "revert all" "revert all");
  ignore (expect_err t "revert empty" "revert");
  ignore (expect_err t "unknown command" "frobnicate 1 2");
  ignore (expect_err t "empty line" "");
  ignore (expect_err t "blank line" " \t ");
  let r = expect_ok t "quit" "quit" in
  Alcotest.(check bool) "quit closes" true r.Sta.Serve.quit

let test_serve_matches_session () =
  (* the protocol surface drives the same session the API does *)
  let t = Sta.Serve.create ~reduce:false () in
  ignore (expect_ok t "load" ("load " ^ deck_path ()));
  ignore (expect_ok t "edit" "edit set_drive u4 240");
  ignore (expect_ok t "timing" "timing");
  match Sta.Serve.session t with
  | None -> Alcotest.fail "no session after load"
  | Some s -> check_session_cold "serve-driven session" s

let () =
  Alcotest.run "sta"
    [ ( "timing",
        [ Alcotest.test_case "chain arrivals" `Quick
            test_chain_arrival_monotone;
          Alcotest.test_case "critical path" `Quick test_chain_critical_path;
          Alcotest.test_case "elmore vs awe" `Quick test_models_agree_roughly;
          Alcotest.test_case "awe matches simulation" `Quick
            test_awe_delay_matches_simulation;
          Alcotest.test_case "fanout" `Quick test_fanout_net;
          Alcotest.test_case "slew propagation" `Quick test_slew_propagates ] );
      ( "design_file",
        [ Alcotest.test_case "matches API build" `Quick
            test_design_file_matches_api;
          Alcotest.test_case "header values" `Quick
            test_design_file_header_values;
          Alcotest.test_case "errors" `Quick test_design_file_errors;
          Alcotest.test_case "input parameters" `Quick
            test_design_file_input_params ] );
      ( "validation",
        [ Alcotest.test_case "cycle detection" `Quick test_cycle_detected;
          Alcotest.test_case "malformed" `Quick test_malformed_detected;
          Alcotest.test_case "cell values" `Quick test_cell_validation;
          Alcotest.test_case "duplicate primary I/O" `Quick
            test_duplicate_io_rejected;
          Alcotest.test_case "duplicate file cards" `Quick
            test_design_file_duplicate_cards ] );
      ( "shared_engine",
        [ Alcotest.test_case "one factorization per net" `Quick
            test_one_factorization_per_net;
          Alcotest.test_case "batch matches per-sink (adder)" `Quick
            test_batch_matches_per_sink_adder ] );
      ( "parallel",
        [ Alcotest.test_case "jobs-deterministic (adder deck)" `Quick
            test_jobs_deterministic_adder;
          Alcotest.test_case "jobs-deterministic (random designs)" `Quick
            test_jobs_deterministic_random;
          Alcotest.test_case "strict aborts on a broken net" `Quick
            test_strict_raises;
          Alcotest.test_case "non-strict isolates the broken net" `Quick
            test_non_strict_isolates;
          Alcotest.test_case "a degenerate fit fails its own net" `Quick
            test_degenerate_fit_is_per_net ] );
      ( "cache",
        [ Alcotest.test_case "cache-on/off identity (adder deck)" `Quick
            test_cache_identity_adder;
          Alcotest.test_case "cache-on/off identity (random designs)" `Quick
            test_cache_identity_random;
          Alcotest.test_case "cached runs jobs-deterministic" `Quick
            test_cache_jobs_deterministic;
          Alcotest.test_case "verdicts pinned on Synth designs" `Quick
            test_cache_verdicts_pinned ] );
      ( "reduce",
        [ Alcotest.test_case "jobs-deterministic, off-agreement" `Quick
            test_reduce_jobs_deterministic ] );
      ( "synth",
        [ Alcotest.test_case "generator shapes" `Quick test_synth_shapes;
          Alcotest.test_case "jobs-deterministic (synthetic designs)" `Quick
            test_jobs_deterministic_synth;
          Alcotest.test_case "sharded merge = sequential publication" `Quick
            test_shard_merge_property ] );
      ( "slack",
        [ Alcotest.test_case "report invariants" `Quick test_slack_consistency;
          Alcotest.test_case "delta-tightening metamorphic" `Quick
            test_slack_tightening_metamorphic;
          Alcotest.test_case "top-K path properties" `Quick
            test_top_k_paths_properties;
          Alcotest.test_case "path-trace re-sum oracle" `Quick
            test_path_trace_oracle;
          Alcotest.test_case "adder golden path" `Quick test_adder_golden_path;
          Alcotest.test_case "rise/fall symmetry" `Quick
            test_rise_fall_symmetric_at_half;
          Alcotest.test_case "constraint and clock cards" `Quick
            test_constraint_cards ] );
      ( "corners",
        [ Alcotest.test_case "bit-identical to sequential analyses" `Quick
            test_corners_match_sequential;
          Alcotest.test_case "pattern tier shared across corners" `Quick
            test_corners_share_patterns;
          Alcotest.test_case "corner derates move arrivals" `Quick
            test_corner_design_derates;
          Alcotest.test_case "spec parser" `Quick test_corner_spec_parser ] );
      ( "session",
        [ Alcotest.test_case "initial analysis matches cold" `Quick
            test_session_initial;
          Alcotest.test_case "value edits, every kind" `Quick
            test_session_value_edits;
          Alcotest.test_case "dirty cone is partial" `Quick
            test_session_dirty_cone;
          Alcotest.test_case "revert restores report and cache" `Quick
            test_session_revert;
          Alcotest.test_case "topology edits" `Quick test_session_topology_edits;
          Alcotest.test_case "rejected edits mutate nothing" `Quick
            test_session_apply_validation;
          Alcotest.test_case "metamorphic edit streams" `Slow
            test_session_metamorphic;
          Alcotest.test_case "edit/revert-all fingerprint identity" `Quick
            test_session_revert_all_metamorphic ] );
      ( "index",
        List.map QCheck_alcotest.to_alcotest [ qcheck_index_reference ] );
      ( "serve",
        [ Alcotest.test_case "protocol round-trip" `Quick test_serve_protocol;
          Alcotest.test_case "protocol drives the same session" `Quick
            test_serve_matches_session ] ) ]
