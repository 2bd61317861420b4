type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let out_dir = ".perfbench_out"

(* Shared run state: operation counts, correctness failures, notes. *)
type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;
  mutable notes : string list;
}

let new_run () = { attempted = 0; failed = 0; wrong = []; notes = [] }

let note run fmt = Printf.ksprintf (fun s -> run.notes <- s :: run.notes) fmt

let wrong run fmt = Printf.ksprintf (fun s -> run.wrong <- s :: run.wrong) fmt

let finish run metrics =
  { correct = run.wrong = [] && run.attempted > 0;
    attempted = run.attempted;
    failed = run.failed;
    metrics = List.map (fun (name, value, unit) -> { name; value; unit }) metrics;
    notes = List.rev run.notes @ List.rev_map (fun w -> "CHECK FAILED: " ^ w) run.wrong }

(* Bit-identity of reports: marshalled without sharing, so the bytes
   depend only on the values, floats bit for bit.  Phase timers and the
   cache's heap footprint are measurements, not results: the footprint
   depends on how the design's strings happen to be shared. *)
let report_bytes (r : Sta.report) =
  Marshal.to_string
    { r with stats = { r.stats with phase_seconds = []; cache_bytes = 0 } }
    [ Marshal.No_sharing ]

(* The fields a session report shares with a cold analysis (its stats
   count incremental work instead). *)
let timing_bytes (r : Sta.report) =
  Marshal.to_string
    (r.nets, r.critical_arrival, r.critical_path, r.slacks, r.worst_slack, r.failures)
    [ Marshal.No_sharing ]

let cold_analyze d =
  let cache = Sta.create_cache () in
  let r = Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs:1 ~cache d in
  (r, cache)

let peak_heap_mb () =
  float_of_int ((Gc.stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let gc_counts () =
  let s = Gc.quick_stat () in
  (Gc.minor_words (), s.major_collections)

let ms s = s *. 1e3

let share ok attempted = float_of_int ok /. float_of_int (max 1 attempted)

let accuracy_metrics run (a : Accuracy.t) =
  List.iter (fun f -> note run "oracle flagged %s" f) a.oracle_failures;
  note run "accuracy: %d sinks checked against the transient simulator" a.sinks;
  [ ("delay_rel_err", a.delay_rel_err, "ratio"); ("oracle_rel_l2", a.oracle_rel_l2, "ratio") ]

let tail_metric run ~what xs =
  let p, v = Pct.tail xs in
  let n = List.length xs in
  if p = 50. then
    note run "tail: %s has %d samples, too few for 10 beyond p75; tail_ms is the median" what n
  else note run "tail: p%g of %d %s (%d beyond)" p n what (Pct.beyond ~n (int_of_float (p *. 10.)));
  ("tail_ms", ms v, "ms")

(* Wall time of [f] from a collected heap: it pays for no garbage that
   earlier work left, and whatever runs after it collects its garbage
   the same way before timing anything. *)
let settled f =
  Gc.full_major ();
  snd (Clock.time f)

let write_spans run tr ~workload ~seed =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
  Trace.write tr path;
  note run "trace: %d spans written to %s" (Trace.count tr) path

(* Per-layer metrics of the per-net replay, shared by every workload.
   The analysis wall time it is set against is the mean of one analysis
   just before the replay and one just after it, so that both sides see
   the same spell of a shared host. *)
let replay_metrics run (d : Sta.design) (r : Sta.report) ~tr =
  let before = settled (fun () -> cold_analyze d) in
  Gc.full_major ();
  let l = Replay.run ~trace:tr d r in
  let analyze_s = (before +. settled (fun () -> cold_analyze d)) /. 2. in
  List.iter (fun m -> wrong run "replay: %s" m) l.mismatches;
  let s = r.stats in
  let bookkeeping = analyze_s -. l.solve_s in
  let solve_us = l.solve_s /. float_of_int (max 1 l.solved_nets) *. 1e6 in
  note run "replay: %d nets solved, %d computed (new exact key)" l.solved_nets l.computed_nets;
  ( solve_us,
    [ ("timing.bookkeeping_ms", ms bookkeeping, "ms");
      ("timing.unattributed_share", bookkeeping /. analyze_s, "share");
      ("solve.us_per_net", solve_us, "us");
      ("stage.ms", ms l.stage_s, "ms");
      ("reduce.ms", ms l.reduce_s, "ms");
      ("key.ms", ms l.key_s, "ms");
      ("mna.ms", ms l.mna_s, "ms");
      ("factor.ms", ms l.factor_s, "ms");
      ("awe.auto_ms", ms l.auto_s, "ms");
      ("errest.ms", ms l.errest_s, "ms");
      ("crossing.ms", ms l.crossing_s, "ms");
      ("reduce.nodes_eliminated", float_of_int s.reduce_nodes_eliminated, "count");
      ("factor.count", float_of_int s.factorizations, "count");
      ("moments.solves", float_of_int s.moment_solves, "count");
      ("fit.count", float_of_int s.fits, "count");
      ("fit.retries", float_of_int s.fit_retries, "count");
      ("fit.escalations", float_of_int s.order_escalations, "count");
      ("cache.exact_hits", float_of_int s.cache_exact_hits, "count");
      ("cache.pattern_hits", float_of_int s.cache_pattern_hits, "count");
      ("cache.misses", float_of_int s.cache_misses, "count");
      ( "cache.exact_hit_ratio",
        share s.cache_exact_hits (s.cache_exact_hits + s.cache_pattern_hits + s.cache_misses),
        "share" ) ] )

(* Layers a cold analysis never enters: zero time and zero work. *)
let session_layers_unused =
  [ ("session.apply_us", 0., "us");
    ("session.retime_ms", 0., "ms");
    ("session.dirty_per_retime", 0., "count");
    ("session.reused_per_retime", 0., "count");
    ("session.fallbacks", 0., "count");
    ("session.overhead_ms", 0., "ms");
    ("paths.ms", 0., "ms");
    ("serve.edit_us", 0., "us");
    ("serve.render_ms", 0., "ms");
    ("parse.ms", 0., "ms");
    ("lint.ms", 0., "ms");
    ("session.load_ms", 0., "ms") ]

let rec loop ~seconds ~min_runs t0 i f =
  if i < min_runs || Clock.seconds_between t0 (Clock.now_ns ()) < seconds then begin
    f i;
    loop ~seconds ~min_runs t0 (i + 1) f
  end

(* Set-up samples are taken between the timed operations, each from a
   collected heap, so that they see the same spells of a shared host as
   the operations do without leaving them any garbage. *)
let setup_metric run setups =
  let xs = List.rev setups in
  let lo = List.fold_left min infinity xs and hi = List.fold_left max 0. xs in
  note run "set-up: %d samples between the timed operations, %.4g-%.4g s" (List.length xs) lo hi;
  ("setup_s", Pct.median xs, "s")

(* ---- grid_cold / mesh_cold ------------------------------------------ *)

(* Accuracy is checked on this many stages of each workload's design. *)
let accuracy_nets = 32

let cold ~workload ~make ~setups_per_analysis ~reference ~seed ~seconds ~trace =
  let run = new_run () in
  let d = make () in
  let nets = Sta.Synth.net_count d in
  note run "%s: %d nets, jobs=1, sparse, reduce, fresh cache per analysis" workload nets;
  (* warm-up analysis, also the reference every timed one must equal *)
  let r0, c0 = cold_analyze d in
  let ref_bytes = report_bytes r0 and ref_fp = Sta.cache_fingerprint c0 in
  (* callers collect the heap first: the checks of the analysis before,
     and the set-up samples, leave no garbage for it to pay for *)
  let analyze_once () =
    run.attempted <- run.attempted + 1;
    let w0, m0 = gc_counts () in
    match Clock.time (fun () -> cold_analyze d) with
    | exception e ->
      run.failed <- run.failed + 1;
      note run "analyze failed: %s" (Printexc.to_string e);
      None
    | (r, c), dt ->
      let w1, m1 = gc_counts () in
      if report_bytes r <> ref_bytes then wrong run "cold report differs from the first";
      if Sta.cache_fingerprint c <> ref_fp then wrong run "cold cache fingerprint differs";
      Some (dt, w1 -. w0, m1 - m0)
  in
  if not trace then begin
    let samples = ref [] and peak = ref 0. and setups_s = ref [] in
    loop ~seconds ~min_runs:3 (Clock.now_ns ()) 0 (fun i ->
        Gc.full_major ();
        Option.iter (fun s -> samples := s :: !samples) (analyze_once ());
        (* the heap keeps growing slowly with every analysis: read it
           after a fixed amount of work, not after a run-length's worth *)
        if i = 2 then peak := peak_heap_mb ();
        for _ = 1 to setups_per_analysis do setups_s := settled make :: !setups_s done);
    let samples = List.rev !samples in
    let times = List.map (fun (dt, _, _) -> dt) samples in
    let words = List.map (fun (_, w, _) -> w) samples in
    if List.exists (fun w -> w <> List.hd words) words then
      note run "minor words differ between analyses: %s"
        (String.concat " " (List.map (Printf.sprintf "%.0f") words));
    let acc =
      let d, r = reference d r0 in
      Accuracy.check ~count:accuracy_nets d r
    in
    finish run
      ([ setup_metric run !setups_s;
         ("ops_per_s", float_of_int (List.length times) /. List.fold_left ( +. ) 0. times, "1/s");
         ("p50_ms", ms (Pct.median times), "ms");
         tail_metric run ~what:"analyses" times;
         ("peak_heap_mb", !peak, "MB");
         ("alloc_mwords", List.hd words /. 1e6, "Mw") ]
      @ accuracy_metrics run acc
      @ [ ("ok_share", share (run.attempted - run.failed) run.attempted, "share") ])
  end
  else begin
    let tr = Trace.create () in
    let plain = ref [] and traced = ref [] in
    loop ~seconds ~min_runs:4 (Clock.now_ns ()) 0 (fun i ->
        Gc.full_major ();
        if i mod 2 = 0 then
          Option.iter (fun (dt, _, _) -> plain := dt :: !plain) (analyze_once ())
        else
          Option.iter
            (fun s -> traced := s :: !traced)
            (Trace.with_request tr i (fun () -> Trace.span tr "analyze" analyze_once)));
    let traced_s = Pct.median (List.map (fun (dt, _, _) -> dt) !traced) in
    let _, layers = replay_metrics run d r0 ~tr in
    write_spans run tr ~workload ~seed;
    (* GC figures of the first two traced analyses: a fixed amount of
       work, so they repeat exactly for a seed *)
    let first = List.filteri (fun i _ -> i < 2) (List.rev !traced) in
    finish run
      (layers @ session_layers_unused
      @ [ ("gc.minor_mwords", List.fold_left (fun a (_, w, _) -> a +. w) 0. first /. 2. /. 1e6, "Mw");
          ( "gc.major_collections",
            float_of_int (List.fold_left (fun a (_, _, m) -> a + m) 0 first) /. 2.,
            "count" );
          ("trace.overhead_share", (traced_s /. Pct.median !plain) -. 1., "share") ])
  end

let grid_cold ~seed ~seconds ~trace =
  let make () =
    let d = Sta.Synth.grid ~rows:60 ~cols:60 () in
    (* the seed picks the clock period: it moves every required time
       and slack, not the work *)
    let st = Random.State.make [| seed; 0xc10c |] in
    Sta.set_clock d ~period:(5e-9 *. (0.9 +. Random.State.float st 0.2));
    d
  in
  (* the clock does not change a delay: the design itself is the
     reference for accuracy *)
  cold ~workload:"grid_cold" ~make ~setups_per_analysis:3 ~reference:(fun d r -> (d, r)) ~seed ~seconds ~trace

let mesh_cold ~seed ~seconds ~trace =
  let make () = Sta.Synth.buffered_mesh ~seed ~rows:32 ~cols:32 () in
  (* the worst error over a sample of one seeded mesh moves with the
     seed by more than any bound worth having; accuracy is checked on
     the generator's own reference instance instead *)
  let reference _ _ =
    let d = Sta.Synth.buffered_mesh ~rows:32 ~cols:32 () in
    (d, fst (cold_analyze d))
  in
  cold ~workload:"mesh_cold" ~make ~setups_per_analysis:3 ~reference ~seed ~seconds ~trace

(* ---- eco_serve ------------------------------------------------------ *)

let lint_gate d =
  match Lint.gate ~strict:false (Lint.normalize (Lint.check_design d)) with
  | Ok () -> Ok ()
  | Error offending ->
    Error (Format.asprintf "@[<v>%a@]" Lint.Diagnostic.pp_list offending)

let ok_body (resp : Sta.Serve.response) =
  String.length resp.body >= 10 && String.sub resp.body 0 10 = "{\"ok\":true"

let eco_serve ~seed ~seconds ~trace =
  let run = new_run () in
  let rows = 40 and cols = 40 in
  let d0 = Sta.Synth.grid ~rows ~cols () in
  Sta.set_clock d0 ~period:5e-9;
  let script = Eco_script.cycle ~seed ~rows ~cols d0 in
  let per_cycle = List.length script in
  note run "eco_serve: grid %dx%d (%d nets), %d requests per cycle, closed loop, 1 client, jobs=1"
    rows cols (Sta.Synth.net_count d0) per_cycle;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "eco-seed%d.sta" seed) in
  (* the written file must analyze exactly like the in-memory design
     before any client loads it *)
  Sta_writer.write_file path d0;
  let d1 = Sta.Design_file.parse_file path in
  let r0, c0 = cold_analyze d0 in
  let r1, c1 = cold_analyze d1 in
  if report_bytes r0 <> report_bytes r1 then wrong run ".sta round trip: reports differ";
  if Sta.cache_fingerprint c0 <> Sta.cache_fingerprint c1 then
    wrong run ".sta round trip: cache fingerprints differ";
  if run.wrong <> [] then finish run []
  else begin
    let new_server () = Sta.Serve.create ~model:Sta.Awe_auto ~sparse:true ~jobs:1 ~gate:lint_gate () in
    let server = ref (new_server ()) in
    let request line =
      run.attempted <- run.attempted + 1;
      let resp = Sta.Serve.handle !server line in
      if not (ok_body resp) then begin
        run.failed <- run.failed + 1;
        note run "request %S failed: %s" line resp.body
      end
    in
    (* set-up is what a client starting a server waits for: write the
       file, load it.  Each sample starts a server of its own, so the
       last sample's session is garbage, not live, while it loads. *)
    let setup () =
      server := new_server ();
      settled (fun () ->
          Sta_writer.write_file path d0;
          request ("load " ^ path))
    in
    let setups_s = ref [ setup () ] in
    let session () = Option.get (Sta.Serve.session !server) in
    let s = session () in
    let load_fp = Sta.cache_fingerprint (Sta.Session.cache s) in
    if load_fp <> Sta.cache_fingerprint c1 then wrong run "loaded session cache differs from a cold analysis";
    if timing_bytes (Sta.Session.report s) <> timing_bytes r1 then
      wrong run "loaded session report differs from a cold analysis";
    (* one cycle of the script through the protocol, every request timed
       on its own; [wrap] is where a traced run puts its span *)
    let protocol_cycle ~wrap =
      let timings = ref [] in
      let (), wall =
        Clock.time (fun () ->
            List.iter
              (fun req ->
                let (), dt = Clock.time (fun () -> wrap (fun () -> request (Eco_script.line req))) in
                if req = Eco_script.Timing then timings := dt :: !timings)
              script)
      in
      (wall, List.rev !timings)
    in
    let plain_cycle () = protocol_cycle ~wrap:(fun f -> f ()) in
    let metrics =
      if not trace then begin
        let walls = ref [] and timings = ref [] and words = ref [] and peak = ref 0. in
        (* every cycle ends at the loaded design, so a set-up sample
           after it hands the next cycle the state a cycle starts from *)
        loop ~seconds ~min_runs:4 (Clock.now_ns ()) 0 (fun i ->
            let w0 = Gc.minor_words () in
            let wall, ts = plain_cycle () in
            words := (Gc.minor_words () -. w0) :: !words;
            walls := wall :: !walls;
            timings := List.rev_append ts !timings;
            if i = 3 then peak := peak_heap_mb ();
            setups_s := setup () :: !setups_s);
        let cycles = List.length !walls in
        (* allocation of the second to fourth cycle: a fixed amount of
           work, after the first cycle has warmed the session *)
        let words = List.rev !words in
        let alloc = List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i >= 1 && i <= 3) words) in
        note run "%d cycles, %d requests" cycles (cycles * per_cycle);
        [ setup_metric run !setups_s;
          ("ops_per_s", float_of_int (cycles * per_cycle) /. List.fold_left ( +. ) 0. !walls, "1/s");
          ("p50_ms", ms (Pct.median !timings), "ms");
          tail_metric run ~what:"timing requests" !timings;
          ("peak_heap_mb", !peak, "MB");
          ("alloc_mwords", alloc /. float_of_int (3 * per_cycle) /. 1e6, "Mw") ]
      end
      else begin
        let tr = Trace.create () in
        (* the load path, one layer at a time *)
        let parse = ref [] and lint = ref [] and load = ref [] in
        for _ = 1 to 3 do
          let d, t = Clock.time (fun () -> Trace.span tr "parse" (fun () -> Sta.Design_file.parse_file path)) in
          parse := t :: !parse;
          let g, t = Clock.time (fun () -> Trace.span tr "lint" (fun () -> lint_gate d)) in
          lint := t :: !lint;
          if g <> Ok () then wrong run "lint gate rejected the design";
          let _, t =
            Clock.time (fun () ->
                Trace.span tr "session.load" (fun () -> Sta.Session.create ~sparse:true ~jobs:1 d))
          in
          load := t :: !load
        done;
        let req_id = ref 0 in
        let with_request name f =
          incr req_id;
          Trace.with_request tr !req_id (fun () -> Trace.span tr name f)
        in
        (* Three kinds of cycle, in turn.  Plain and spanned cycles send
           the same requests the same way, the second with a span around
           each: they give the tracing overhead and the GC figures.  A
           split cycle takes each request apart into its layers; its
           extra work (a timing read searches paths twice) stays out of
           both. *)
        let plain = ref [] and spanned = ref [] and spanned_gc = ref [] in
        let spanned_cycle () =
          let w0, m0 = gc_counts () in
          let wall, _ = protocol_cycle ~wrap:(with_request "request") in
          let w1, m1 = gc_counts () in
          spanned_gc := (w1 -. w0, m1 - m0) :: !spanned_gc;
          wall
        in
        let apply = ref [] and edit = ref [] and retime = ref [] and paths = ref [] and render = ref [] in
        let dirty = ref 0 and reused = ref 0 and fallbacks = ref 0 in
        let split_cycle () =
          let s = session () in
          List.iteri
            (fun i req ->
              with_request "request" (fun () ->
                  let line = Eco_script.line req in
                  match req with
                  | Eco_script.Edit e when i mod 2 = 0 ->
                    (* half the edits straight into the session, half
                       through the protocol: the same state either way *)
                    run.attempted <- run.attempted + 1;
                    let res, t =
                      Clock.time (fun () -> Trace.span tr "session.apply" (fun () -> Sta.Session.apply s e))
                    in
                    apply := t :: !apply;
                    if Result.is_error res then run.failed <- run.failed + 1
                  | Eco_script.Edit _ ->
                    let (), t = Clock.time (fun () -> Trace.span tr "serve.edit" (fun () -> request line)) in
                    edit := t :: !edit
                  | Eco_script.Timing ->
                    let before = Sta.Session.totals s in
                    let res, t_retime =
                      Clock.time (fun () -> Trace.span tr "session.retime" (fun () -> Sta.Session.retime s))
                    in
                    let after = Sta.Session.totals s in
                    retime := t_retime :: !retime;
                    dirty := !dirty + after.total_dirty - before.total_dirty;
                    reused := !reused + after.total_reused - before.total_reused;
                    fallbacks := !fallbacks + after.total_fallbacks - before.total_fallbacks;
                    (match res with
                    | Ok r ->
                      let _, t_paths =
                        Clock.time (fun () ->
                            Trace.span tr "paths" (fun () -> Sta.critical_paths (Sta.Session.design s) r ~k:10))
                      in
                      paths := t_paths :: !paths;
                      (* the retime above leaves this one nothing to do:
                         its time is path search plus rendering *)
                      let (), t_serve = Clock.time (fun () -> Trace.span tr "serve.timing" (fun () -> request line)) in
                      render := (t_serve -. t_paths) :: !render
                    | Error msg -> wrong run "retime failed: %s" msg)
                  | Eco_script.Revert_all -> Trace.span tr "serve.revert" (fun () -> request line)))
            script
        in
        loop ~seconds ~min_runs:6 (Clock.now_ns ()) 0 (fun i ->
            match i mod 3 with
            | 0 -> plain := fst (plain_cycle ()) :: !plain
            | 1 -> spanned := spanned_cycle () :: !spanned
            | _ -> Trace.span tr "cycle" split_cycle);
        (* the per-net replay runs over the design as loaded *)
        let solve_us, layers = replay_metrics run d1 r1 ~tr in
        write_spans run tr ~workload:"eco_serve" ~seed;
        let retimes = float_of_int (max 1 (List.length !retime)) in
        let dirty_per = float_of_int !dirty /. retimes in
        (* GC figures of the first two spanned cycles: a fixed amount of
           work, so they repeat exactly for a seed *)
        let first = List.filteri (fun i _ -> i < 2) (List.rev !spanned_gc) in
        let nreq = float_of_int (2 * per_cycle) in
        layers
        @ [ ("session.apply_us", Pct.median !apply *. 1e6, "us");
            ("session.retime_ms", ms (Pct.median !retime), "ms");
            ("session.dirty_per_retime", dirty_per, "count");
            ("session.reused_per_retime", float_of_int !reused /. retimes, "count");
            ("session.fallbacks", float_of_int !fallbacks, "count");
            ("session.overhead_ms", ms (Pct.mean !retime) -. (dirty_per *. solve_us /. 1e3), "ms");
            ("paths.ms", ms (Pct.median !paths), "ms");
            ("serve.edit_us", Pct.median !edit *. 1e6, "us");
            ("serve.render_ms", ms (Pct.median !render), "ms");
            ("parse.ms", ms (Pct.median !parse), "ms");
            ("lint.ms", ms (Pct.median !lint), "ms");
            ("session.load_ms", ms (Pct.median !load), "ms");
            ("gc.minor_mwords", List.fold_left (fun a (w, _) -> a +. w) 0. first /. nreq /. 1e6, "Mw");
            ( "gc.major_collections",
              float_of_int (List.fold_left (fun a (_, m) -> a + m) 0 first) /. nreq,
              "count" );
            ("trace.overhead_share", (Pct.median !spanned /. Pct.median !plain) -. 1., "share") ]
      end
    in
    (* end state: one scripted burst applied, whatever the cycle count *)
    let s = session () in
    List.iter (fun req -> request (Eco_script.line req)) (Eco_script.first_burst script);
    let edited = Sta.Session.design s in
    let rc, cc = cold_analyze edited in
    if timing_bytes (Sta.Session.report s) <> timing_bytes rc then
      wrong run "session report differs from a cold analysis of the edited design";
    if Sta.cache_fingerprint (Sta.Session.cache s) <> Sta.cache_fingerprint cc then
      wrong run "session cache differs from a cold analysis of the edited design";
    let acc = if trace then [] else accuracy_metrics run (Accuracy.check ~count:accuracy_nets d1 r1) in
    request "revert all";
    request "timing --top-k 10";
    if Sta.cache_fingerprint (Sta.Session.cache s) <> load_fp then
      wrong run "revert all did not restore the load fingerprint";
    if timing_bytes (Sta.Session.report s) <> timing_bytes r1 then
      wrong run "revert all did not restore the load report";
    finish run
      (if trace then metrics
       else
         metrics @ acc
         @ [ ("ok_share", share (run.attempted - run.failed) run.attempted, "share") ])
  end
