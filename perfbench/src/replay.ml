(* Synth designs use the default supply and threshold (see Sta_writer);
   the bitwise comparison with the report below would catch a design
   that does not. *)
let vdd = 5.

let threshold = 0.5

let options = { Awe.default_options with Awe.sparse = true }

type driver = { driver_res : float; slew : float }

(* The Kahn waves [Sta.analyze] runs: primary inputs first, then each
   gate's output net one wave after the last of its inputs. *)
let waves (d : Sta.design) =
  let driver = Hashtbl.create 4096 in
  List.iter
    (fun (_, _, inputs, output) -> Hashtbl.replace driver output inputs)
    (Sta.gate_details d);
  let level = Hashtbl.create 4096 in
  let rec wave net =
    match Hashtbl.find_opt level net with
    | Some w -> w
    | None ->
      let w =
        match Hashtbl.find_opt driver net with
        | Some inputs -> 1 + List.fold_left (fun acc i -> max acc (wave i)) 0 inputs
        | None -> 0
      in
      Hashtbl.replace level net w;
      w
  in
  let nets = Sta.net_names d in
  let depth = List.fold_left (fun acc n -> max acc (wave n)) 0 nets in
  let by_wave = Array.make (depth + 1) [] in
  List.iter (fun n -> by_wave.(wave n) <- n :: by_wave.(wave n)) (List.rev nets);
  Array.to_list by_wave

let sinks_by_net (r : Sta.report) =
  let t = Hashtbl.create 4096 in
  List.iter (fun (nt : Sta.net_timing) -> Hashtbl.replace t nt.net_name nt.sinks) r.nets;
  t

(* Each net's driver resistance and input slew as [analyze] derived
   them: the driving cell's resistance and the slew at its worst
   (latest rise arrival, first wins) input pin, or the ideal 1 mOhm
   source and the card's slew at a primary input. *)
let drivers (d : Sta.design) (r : Sta.report) =
  let sinks = sinks_by_net r in
  let sink net inst =
    List.find
      (fun (s : Sta.sink_timing) -> s.sink_inst = inst)
      (Hashtbl.find sinks net)
  in
  let t = Hashtbl.create 4096 in
  List.iter
    (fun (inst, (c : Sta.cell), inputs, output) ->
      let worst, _ =
        List.fold_left
          (fun ((_, arr) as acc) inp ->
            let s = sink inp inst in
            if s.Sta.arrival > arr then (Some s, s.arrival) else acc)
          (None, neg_infinity) inputs
      in
      let slew = match worst with Some s -> s.Sta.sink_slew | None -> 0. in
      Hashtbl.replace t output { driver_res = c.drive_res; slew })
    (Sta.gate_details d);
  List.iter
    (fun net ->
      match Sta.primary_input d net with
      | Some (_, slew) when not (Hashtbl.mem t net) ->
        Hashtbl.replace t net { driver_res = 1e-3; slew }
      | _ -> ())
    (Sta.primary_input_nets d);
  t

let bits = Int64.bits_of_float

let same_sinks (a : (string * float * float * float) list) (b : Sta.sink_timing list) =
  List.length a = List.length b
  && List.for_all2
       (fun (inst, rise, fall, slew) (s : Sta.sink_timing) ->
         inst = s.sink_inst
         && bits rise = bits s.net_delay
         && bits fall = bits s.net_delay_fall
         && bits slew = bits s.sink_slew)
       a b

type layers = {
  solve_s : float;
  solved_nets : int;
  stage_s : float;
  reduce_s : float;
  key_s : float;
  mna_s : float;
  factor_s : float;
  auto_s : float;
  errest_s : float;
  crossing_s : float;
  computed_nets : int;
  mismatches : string list;
}

let run ?trace (d : Sta.design) (r : Sta.report) =
  let span name f =
    match trace with Some t -> Trace.span t name f | None -> f ()
  in
  let drv = drivers d r in
  let report_sinks = sinks_by_net r in
  let mismatches = ref [] in
  let mismatch fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  let wave_list = waves d in
  (* 1. Sta.solve_net per net, with the wave-frozen view and per-wave
     shard [analyze] uses at jobs=1 *)
  let cache = Sta.create_cache () in
  let solve_s = ref 0. and solved = ref 0 in
  let keys = Hashtbl.create 4096 in
  let (), stats =
    Awe.Stats.scoped (fun () ->
        List.iter
          (fun wave ->
            let view = Sta.cache_view cache and shard = Sta.cache_shard () in
            List.iter
              (fun net ->
                let { driver_res; slew } = Hashtbl.find drv net in
                let (timings, k), dt =
                  Clock.time (fun () ->
                      span "solve_net" (fun () ->
                          Sta.solve_net d ~model:Sta.Awe_auto ~sparse:true
                            ~reduce:true ~view:(Some view) ~shard:(Some shard)
                            ~net ~driver_res ~slew))
                in
                solve_s := !solve_s +. dt;
                incr solved;
                Hashtbl.replace keys net k.Sta.sk_exact;
                if not (same_sinks timings (Hashtbl.find report_sinks net)) then
                  mismatch "solve_net %s" net)
              wave;
            Sta.cache_absorb cache shard)
          wave_list)
  in
  (* 2. the layers of the per-net pipeline, one public call at a time.
     Every net pays stage, reduction and keying; only the first net
     with a given exact key computes (the rest hit the cache). *)
  let acc = Array.make 8 0. in
  let timed i name f =
    let x, dt = Clock.time (fun () -> span name f) in
    acc.(i) <- acc.(i) +. dt;
    x
  in
  let seen = Hashtbl.create 4096 and computed = ref 0 in
  List.iter
    (fun wave ->
      List.iter
        (fun net ->
          let { driver_res; slew } = Hashtbl.find drv net in
          let circuit, sink_nodes =
            timed 0 "stage" (fun () -> Sta.net_circuit d ~net ~driver_res ~slew)
          in
          if sink_nodes <> [] then begin
            let red =
              timed 1 "reduce" (fun () ->
                  Circuit.Reduce.reduce ~ports:(List.map snd sink_nodes) circuit)
            in
            let circuit = red.Circuit.Reduce.circuit in
            let sink_nodes =
              List.map (fun (i, n) -> (i, red.Circuit.Reduce.node_map.(n))) sink_nodes
            in
            ignore (timed 2 "key" (fun () -> Circuit.Canon.hashes circuit));
            let key = Hashtbl.find keys net in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              incr computed;
              let sys = timed 3 "mna" (fun () -> Circuit.Mna.build circuit) in
              ignore (timed 4 "factor" (fun () -> Circuit.Mna.dc_factor ~sparse:true sys));
              let engine, fits =
                timed 5 "awe.auto" (fun () ->
                    let e = Awe.Engine.create ~options sys in
                    (e, List.map (fun (_, node) -> fst (Awe.Engine.auto e ~node)) sink_nodes))
              in
              timed 6 "errest" (fun () ->
                  List.iter2
                    (fun (_, node) (a : Awe.t) ->
                      ignore (Awe.Engine.error_estimate engine ~node ~q:a.q))
                    sink_nodes fits);
              let delays =
                timed 7 "crossing" (fun () ->
                    List.map2
                      (fun (_, node) a ->
                        let tau = Float.max (Awe.Engine.elmore engine ~node) 1e-15 in
                        let t_max = (50. *. tau) +. (2. *. slew) in
                        let at frac = Awe.delay a ~threshold:(frac *. vdd) ~t_max in
                        let rise = at threshold and fall = at (1. -. threshold) in
                        ignore (at 0.1);
                        ignore (at 0.9);
                        (rise, fall))
                      sink_nodes fits)
              in
              List.iter2
                (fun (s : Sta.sink_timing) (rise, fall) ->
                  let same x = function Some y -> bits x = bits y | None -> false in
                  if not (same s.net_delay rise && same s.net_delay_fall fall) then
                    mismatch "layer replay %s/%s" net s.sink_inst)
                (Hashtbl.find report_sinks net) delays
            end
          end)
        wave)
    wave_list;
  let rs = r.stats in
  List.iter
    (fun (what, a, b) -> if a <> b then mismatch "%s: replay %d, analyze %d" what a b)
    [ ("cache exact hits", stats.cache_exact_hits, rs.cache_exact_hits);
      ("cache pattern hits", stats.cache_pattern_hits, rs.cache_pattern_hits);
      ("cache misses", stats.cache_misses, rs.cache_misses);
      ("factorizations", stats.factorizations, rs.factorizations);
      ("moment solves", stats.moment_solves, rs.moment_solves);
      ("fits", stats.fits, rs.fits) ];
  { solve_s = !solve_s;
    solved_nets = !solved;
    stage_s = acc.(0);
    reduce_s = acc.(1);
    key_s = acc.(2);
    mna_s = acc.(3);
    factor_s = acc.(4);
    auto_s = acc.(5);
    errest_s = acc.(6);
    crossing_s = acc.(7);
    computed_nets = !computed;
    mismatches = List.rev !mismatches }
