open Perfbench

(* --- the tail-percentile rule ---------------------------------------- *)

let tail_rule () =
  let p n = Pct.tail_percentile ~n in
  let check n expected = Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expected (p n) in
  check 10_000 (Some 999);
  check 9_999 (Some 990);
  check 1_000 (Some 990);
  check 999 (Some 950);
  check 200 (Some 950);
  check 199 (Some 900);
  check 100 (Some 900);
  check 99 (Some 750);
  check 40 (Some 750);
  check 39 None;
  List.iter
    (fun n ->
      match p n with
      | Some p10 ->
        Alcotest.(check bool) "at least 10 beyond" true (Pct.beyond ~n p10 >= 10);
        List.iter
          (fun higher ->
            if higher > p10 then
              Alcotest.(check bool) "no higher rung qualifies" true (Pct.beyond ~n higher < 10))
          [ 999; 990; 950; 900; 750 ]
      | None -> ())
    (List.init 3000 (fun i -> i + 1))

let tail_values () =
  let xs = List.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair (float 0.) (float 0.))) "p95 of 1..200" (95., 190.) (Pct.tail xs);
  let few = [ 3.; 1.; 2. ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "too few: median" (50., 2.) (Pct.tail few);
  Alcotest.(check (float 0.)) "even median" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ])

(* --- the seeded eco_serve script -------------------------------------- *)

let grid () =
  let d = Sta.Synth.grid ~rows:12 ~cols:12 () in
  Sta.set_clock d ~period:5e-9;
  d

let lines seed = List.map Eco_script.line (Eco_script.cycle ~seed ~rows:12 ~cols:12 (grid ()))

let script_deterministic () =
  Alcotest.(check (list string)) "same seed, same script" (lines 7) (lines 7);
  Alcotest.(check bool) "another seed, another script" true (lines 7 <> lines 8);
  let script = Eco_script.cycle ~seed:7 ~rows:12 ~cols:12 (grid ()) in
  let rec last2 = function [ a; b ] -> (a, b) | _ :: t -> last2 t | [] -> assert false in
  Alcotest.(check bool) "cycle closes with revert all and a read" true
    (last2 script = (Eco_script.Revert_all, Eco_script.Timing));
  let sites = Eco_script.block * Eco_script.block in
  Alcotest.(check int) "two reads per site" (2 * sites)
    (List.length (List.filter (( = ) Eco_script.Timing) script));
  Alcotest.(check (list string)) "every seed sends the same requests, reordered"
    (List.sort compare (lines 7))
    (List.sort compare (lines 8));
  let burst = Eco_script.first_burst script in
  Alcotest.(check bool) "first burst: edits then a read" true
    (List.rev burst |> List.hd = Eco_script.Timing
    && List.for_all (function Eco_script.Edit _ -> true | _ -> false) (List.tl (List.rev burst)))

let script_runs_clean () =
  let d = grid () in
  let s = Sta.Session.create ~sparse:true d in
  let load = Sta.cache_fingerprint (Sta.Session.cache s) in
  let server_free_apply = function
    | Eco_script.Edit e -> Alcotest.(check bool) "edit applies" true (Sta.Session.apply s e = Ok ())
    | Eco_script.Timing -> Alcotest.(check bool) "retime" true (Result.is_ok (Sta.Session.retime s))
    | Eco_script.Revert_all -> ignore (Sta.Session.revert_all s)
  in
  List.iter server_free_apply (Eco_script.cycle ~seed:3 ~rows:12 ~cols:12 d);
  Alcotest.(check bool) "a cycle ends at the load state" true
    (Sta.cache_fingerprint (Sta.Session.cache s) = load)

(* --- the .sta writer round trip --------------------------------------- *)

let hand_design () =
  let d = Sta.create () in
  let inv = Sta.cell ~name:"inv" ~drive_res:180. ~input_cap:6e-15 ~intrinsic:2.2e-11 in
  let buf = Sta.cell ~name:"buf" ~drive_res:95.5 ~input_cap:4.1e-15 ~intrinsic:3.3e-11 in
  Sta.add_gate d ~inst:"u1" ~cell:inv ~inputs:[ "a" ] ~output:"n1";
  Sta.add_gate d ~inst:"u2" ~cell:buf ~inputs:[ "n1"; "b" ] ~output:"y";
  let seg seg_from seg_to res cap = { Sta.seg_from; seg_to; res; cap } in
  Sta.add_net d ~name:"a" ~segments:[ seg "drv" "u1" 50. 1e-15 ];
  Sta.add_net d ~name:"b" ~segments:[ seg "drv" "u2" 70. 0. ];
  Sta.add_net d ~name:"n1" ~segments:[ seg "drv" "t" 33.3 2.5e-15; seg "t" "u2" 120.7 1.7e-15 ];
  Sta.add_net d ~name:"y" ~segments:[ seg "drv" "o" 40. 3e-15 ];
  Sta.add_primary_input d ~net:"a" ~arrival:1e-10 ~slew:5e-11 ();
  Sta.add_primary_input d ~net:"b" ();
  Sta.add_primary_output d ~net:"y";
  Sta.add_constraint d ~net:"y" ~required:7.5e-10;
  d

let round_trip name d =
  let text = Sta_writer.to_string d in
  let d' = Sta.Design_file.parse_string text in
  Alcotest.(check string) (name ^ ": rewriting is stable") text (Sta_writer.to_string d');
  let r, c = Workloads.cold_analyze d and r', c' = Workloads.cold_analyze d' in
  Alcotest.(check bool) (name ^ ": bit-identical report") true
    (Workloads.report_bytes r = Workloads.report_bytes r');
  Alcotest.(check bool) (name ^ ": same cache fingerprint") true
    (Sta.cache_fingerprint c = Sta.cache_fingerprint c')

let writer_round_trip () =
  round_trip "grid" (grid ());
  round_trip "mesh" (Sta.Synth.buffered_mesh ~seed:5 ~rows:6 ~cols:6 ());
  round_trip "hand" (hand_design ())

let () =
  Alcotest.run "perfbench"
    [ ( "tail",
        [ Alcotest.test_case "tail percentile keeps 10 samples beyond" `Quick tail_rule;
          Alcotest.test_case "tail and median values" `Quick tail_values ] );
      ( "eco script",
        [ Alcotest.test_case "seeded script is deterministic" `Quick script_deterministic;
          Alcotest.test_case "script cycle applies and returns to load" `Quick script_runs_clean ] );
      ( "sta writer",
        [ Alcotest.test_case "write, parse, analyze bit-identically" `Quick writer_round_trip ] ) ]
