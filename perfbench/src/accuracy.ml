type t = {
  delay_rel_err : float;
  oracle_rel_l2 : float;
  sinks : int;
  oracle_failures : string list;
}

let sample ~count xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| 0xacc |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list (Array.sub a 0 (min count (Array.length a)))

let check ~count (d : Sta.design) (r : Sta.report) =
  let drv = Replay.drivers d r in
  let candidates =
    List.filter_map
      (fun (nt : Sta.net_timing) ->
        if nt.sinks <> [] then Some nt else None)
      r.nets
  in
  let worst_delay = ref 0. and worst_l2 = ref 0. and sinks = ref 0 in
  let failures = ref [] in
  List.iter
    (fun (nt : Sta.net_timing) ->
      let { Replay.driver_res; slew } = Hashtbl.find drv nt.net_name in
      let circuit, nodes = Sta.net_circuit d ~net:nt.net_name ~driver_res ~slew in
      let sys = Circuit.Mna.build circuit in
      let latest =
        List.fold_left (fun acc (s : Sta.sink_timing) -> Float.max acc s.net_delay) 0. nt.sinks
      in
      let t_stop = (20. *. latest) +. (2. *. slew) in
      let sim =
        Transim.Transient.simulate_adaptive ~tol:1e-6 ~dt_max:(t_stop /. 4000.) sys ~t_stop
      in
      List.iter
        (fun (s : Sta.sink_timing) ->
          let node = List.assoc s.sink_inst nodes in
          let wave = Transim.Transient.node_waveform sim node in
          (match Waveform.crossing_time wave (Replay.threshold *. Replay.vdd) with
          | Some t ->
            incr sinks;
            worst_delay := Float.max !worst_delay (Float.abs (s.net_delay -. t) /. t)
          | None -> failures := (nt.net_name ^ ": reference never crosses") :: !failures);
          let case =
            { Verify.Cases.seed = 0; label = nt.net_name ^ "/" ^ s.sink_inst; circuit; node }
          in
          let o = Verify.Oracle.check case in
          worst_l2 := Float.max !worst_l2 o.measured;
          if not (Verify.Oracle.passed o) then
            failures :=
              (case.label ^ ": " ^ String.concat "; " o.failures) :: !failures)
        nt.sinks)
    (sample ~count candidates);
  { delay_rel_err = !worst_delay;
    oracle_rel_l2 = !worst_l2;
    sinks = !sinks;
    oracle_failures = List.rev !failures }
