(* Incremental ECO timing (see session.mli).  The session keeps, per
   net, everything [Timing.analyze] would have computed for it —
   arrival tuple, solved sink delays, required times, slack entries —
   plus the memo inputs the solve depended on (input slew, driver
   resistance, the cache keys it hit or published).  A re-time then
   re-solves exactly the nets whose solve inputs changed, re-adds
   arrivals through the cone that actually moved (bitwise compare),
   and re-runs the min-plus backward pass over the same frontier.
   Both passes are worklists over the design's wave schedule: a re-time
   visits the nets an edit touched and the nets a visited net's change
   reaches, never the rest of the design.  Connectivity comes from the
   design's index ([Timing.sinks_of] and friends); the session keeps no
   copy of it.  Everything recomputed goes through the code paths a
   cold [analyze] runs — same wave schedule, same chunk bounds, frozen
   views, per-chunk shards absorbed in chunk order — which is what
   makes the bit-identity contract hold for every [jobs] value. *)

open Timing

type edit =
  | Set_resistance of { net : string; index : int; value : float }
  | Set_capacitance of { net : string; index : int; value : float }
  | Reroute of { net : string; index : int; seg_from : string; seg_to : string }
  | Swap_sink of { inst : string; from_net : string; to_net : string }
  | Set_inputs of { inst : string; inputs : string list }
  | Set_drive of { inst : string; value : float }
  | Set_pin_cap of { inst : string; value : float }
  | Set_intrinsic of { inst : string; value : float }
  | Set_constraint of { net : string; required : float }
  | Remove_constraint of { net : string }
  | Set_clock of { period : float }
  | Remove_clock

type totals = {
  total_edits : int;
  total_retimes : int;
  total_dirty : int;
  total_reused : int;
  total_fallbacks : int;
  total_visits : int;
}

(* What a net's last solve depended on (beyond upstream arrivals,
   which enter additively) and what it produced.  [m_valid = false]
   means the net's own content changed: the timings can no longer be
   served and the net must be re-solved. *)
type memo = {
  mutable m_valid : bool;
  mutable m_slew : float;
  mutable m_driver_res : float;
  mutable m_timings : (string * float * float * float) list;
  mutable m_keys : solve_keys;
}

type t = {
  d : design;
  model : delay_model;
  sparse : bool;
  reduce : bool;
  jobs : int;
  mutable cache : cache;
  level : (string, int) Hashtbl.t; (* net -> its wave in the schedule *)
  mutable depth : int; (* number of waves *)
  mutable schedule_valid : bool;
  fwd_seed : (string, unit) Hashtbl.t;
      (* nets whose own solve inputs or arrival inputs an edit changed;
         consumed by the next forward pass *)
  memo : (string, memo) Hashtbl.t;
  arrival : (string, float * float * float * string list) Hashtbl.t;
      (* net -> driver-pin rise, fall, slew, path (newest first), as
         [analyze]'s arrival_at_net *)
  timed : (string, net_timing) Hashtbl.t;
  sink_results : (string * string, sink_timing) Hashtbl.t;
      (* entries for sinks a topology edit removed linger; they are
         unreachable (all reads go through current gate inputs or
         current [timed] sinks) and carry no report state *)
  req_driver : (string, float * float) Hashtbl.t;
  req_sink : (string * string, float * float) Hashtbl.t;
  mutable endpoint_req : (string, float) Hashtbl.t;
  mutable endpoints_stale : bool;
  slack_by_net : (string, pin_slack list) Hashtbl.t;
  (* cache-key refcounts over live nets: entries are retired at zero
     so the cache's key set always equals what a cold cached analyze
     of the current design would publish *)
  exact_refs : (string, int) Hashtbl.t;
  pattern_refs : (string, int) Hashtbl.t;
  req_seed : (string, unit) Hashtbl.t;
      (* nets whose required-time inputs changed without a re-solve
         (intrinsic edits, endpoint diffs); consumed by the next
         backward pass *)
  mutable undo : (edit * edit) list; (* (applied, inverse), newest first *)
  mutable undo_saved : (edit * edit) list; (* at last successful re-time *)
  mutable rollback : edit list;
      (* inverses restoring the last successfully-timed design,
         newest first; cleared on success, replayed on fallback *)
  mutable pending : int;
  mutable last_report : report option;
  mutable tot_edits : int;
  mutable tot_retimes : int;
  mutable tot_dirty : int;
  mutable tot_reused : int;
  mutable tot_fallbacks : int;
  mutable tot_visits : int;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let no_keys = { sk_exact = None; sk_pattern = None }

let gate_of t inst =
  match find_gate t.d inst with
  | Some g -> g
  | None -> fail "unknown gate instance %s" inst

let distinct nets = List.sort_uniq compare nets

let rec replace_first lst a b =
  match lst with
  | [] -> []
  | x :: rest -> if x = a then b :: rest else x :: replace_first rest a b

(* --- schedule ----------------------------------------------------- *)

(* The wave of every net in [Timing.waves], the schedule [analyze]
   runs.  Recomputed only after a topology edit. *)
let compute_waves t =
  let waves = waves t.d in
  Hashtbl.reset t.level;
  List.iteri (fun i wave -> List.iter (fun n -> Hashtbl.replace t.level n i) wave) waves;
  t.depth <- List.length waves;
  t.schedule_valid <- true

(* --- forward-pass helpers ----------------------------------------- *)

(* Pull-based arrival: the tuple [analyze]'s record phase pushes into
   [arrival_at_net] ({!Timing.arrival_through}), recomputed from the
   current sink results of the driver [drv]'s inputs. *)
let compute_arrival t net drv =
  match (primary_input t.d net, drv) with
  | Some (arr, slew), _ -> (arr, arr, slew, [ net ])
  | None, None -> invalid_arg ("Session: net without driver " ^ net)
  | None, Some g ->
    arrival_through g ~init:""
      ~sink:(fun inp -> Hashtbl.find t.sink_results (inp, g.g_inst))
      ~path:(fun n ->
        match Hashtbl.find_opt t.arrival n with
        | Some (_, _, _, p) -> p
        | None -> [])

(* --- cache-key refcounting ---------------------------------------- *)

let incr_ref tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let decr_ref tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some n when n <= 1 ->
    Hashtbl.remove tbl key;
    true
  | Some n ->
    Hashtbl.replace tbl key (n - 1);
    false

let claim_keys t (keys : solve_keys) =
  (match keys.sk_exact with
  | Some k -> incr_ref t.exact_refs k
  | None -> ());
  match keys.sk_pattern with
  | Some h -> incr_ref t.pattern_refs h
  | None -> ()

(* Always called after [claim_keys] for the same net's new keys, so a
   re-solve landing on its old key goes 1 -> 2 -> 1 and never retires
   an entry that is still live. *)
let retire_keys t (keys : solve_keys) =
  (match keys.sk_exact with
  | Some key ->
    if decr_ref t.exact_refs key then ignore (cache_remove_exact t.cache ~key)
  | None -> ());
  match keys.sk_pattern with
  | Some key ->
    if decr_ref t.pattern_refs key then
      ignore (cache_remove_pattern t.cache ~key)
  | None -> ()

(* --- per-net record rebuild --------------------------------------- *)

(* The bookkeeping half of [analyze]'s record_net: absolute arrivals
   from the (already updated) arrival tuple plus the (possibly memoed)
   relative delays.  Returns whether the published record changed. *)
let rebuild_net t net timings =
  let ar, af, _, _ = Hashtbl.find t.arrival net in
  let nt = net_timing_of net (ar, af) timings in
  let changed =
    match Hashtbl.find_opt t.timed net with Some old -> old <> nt | None -> true
  in
  if changed then begin
    Hashtbl.replace t.timed net nt;
    List.iter (fun st -> Hashtbl.replace t.sink_results (net, st.sink_inst) st) nt.sinks
  end;
  changed

(* --- endpoints ----------------------------------------------------- *)

(* Rebuild the endpoint requirement table ([analyze]'s endpoint_req:
   explicit constraints, then the clock period for unconstrained
   primary outputs) and seed the backward pass with every net whose
   endpoint value changed, appeared, or disappeared. *)
let rebuild_endpoints t =
  let fresh = endpoint_requirements t.d in
  Hashtbl.iter
    (fun net v ->
      match Hashtbl.find_opt t.endpoint_req net with
      | Some v' when v' = v -> ()
      | _ -> Hashtbl.replace t.req_seed net ())
    fresh;
  Hashtbl.iter
    (fun net _ ->
      if not (Hashtbl.mem fresh net) then Hashtbl.replace t.req_seed net ())
    t.endpoint_req;
  t.endpoint_req <- fresh

(* --- the re-time pass --------------------------------------------- *)

(* Memoize a net's fresh solve: its inputs, timings and cache keys
   (the new keys are claimed before the old ones are retired). *)
let record_solve t net ~slew ~dres (timings, keys) =
  let m =
    match Hashtbl.find_opt t.memo net with
    | Some m -> m
    | None ->
      let m =
        { m_valid = false; m_slew = 0.; m_driver_res = 0.; m_timings = []; m_keys = no_keys }
      in
      Hashtbl.replace t.memo net m;
      m
  in
  claim_keys t keys;
  retire_keys t m.m_keys;
  m.m_valid <- true;
  m.m_slew <- slew;
  m.m_driver_res <- dres;
  m.m_timings <- timings;
  m.m_keys <- keys

let retime_now t =
  let d = t.d in
  let full = t.last_report = None in
  if not t.schedule_valid then compute_waves t;
  let solved : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let timing_changed : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let dirty = ref 0 and visits = ref 0 in
  let windows = ref [] in
  (* per-wave worklists: a net is pushed into its own wave's bucket,
     and the buckets are drained in wave order (forward) or reverse
     wave order (backward).  A full re-time seeds every net. *)
  let buckets () = Array.make t.depth [] in
  let push bucket net =
    match Hashtbl.find_opt t.level net with
    | Some l -> bucket.(l) <- net :: bucket.(l)
    | None -> () (* not a declared net: nothing to time *)
  in
  let seed bucket extra =
    if full then Hashtbl.iter (fun net _ -> push bucket net) t.level
    else Hashtbl.iter (fun net () -> push bucket net) extra
  in
  let drain bucket w =
    let wave = List.sort_uniq compare bucket.(w) in
    bucket.(w) <- [];
    visits := !visits + List.length wave;
    wave
  in
  (* forward: wave by wave, classify every queued net by pulling its
     arrival tuple and memo inputs, batch-solve the dirty ones through
     [analyze]'s own wave solver, and rebuild the records of nets whose
     arrivals moved from the memo.  A net whose arrival tuple or record
     moved queues the outputs of its sink gates; a net left unqueued
     would pull exactly its old values. *)
  let options = { Awe.default_options with Awe.sparse = t.sparse } in
  let fwd = buckets () in
  seed fwd t.fwd_seed;
  Hashtbl.reset t.fwd_seed;
  Parallel.with_pool ~jobs:t.jobs (fun pool ->
      for w = 0 to t.depth - 1 do
        let solves = ref [] and arith = ref [] and moved = ref [] in
        List.iter
          (fun net ->
            let drv = driver_of d net in
            let tuple = compute_arrival t net drv in
            let changed =
              match Hashtbl.find_opt t.arrival net with
              | Some old -> old <> tuple
              | None -> true
            in
            if changed then begin
              Hashtbl.replace t.arrival net tuple;
              moved := net :: !moved
            end;
            let _, _, slew, _ = tuple in
            let dres =
              match drv with
              | Some g -> g.g_cell.drive_res
              | None -> 1e-3 (* ideal primary input, as in [analyze] *)
            in
            let need =
              match Hashtbl.find_opt t.memo net with
              | None -> true
              | Some m ->
                (not m.m_valid) || m.m_slew <> slew || m.m_driver_res <> dres
            in
            if need then solves := (net, dres, slew) :: !solves
            else if changed then arith := net :: !arith)
          (drain fwd w);
        let rebuilt net timings =
          if rebuild_net t net timings then begin
            Hashtbl.replace timing_changed net ();
            moved := net :: !moved
          end
        in
        let solves = Array.of_list (List.rev !solves) in
        solve_wave pool d ~model:t.model ~options ~reduce:t.reduce
          ~cache:(Some t.cache)
          ~window:(fun win -> windows := win :: !windows)
          ~record:(fun k outcome ->
            let net, dres, slew = solves.(k) in
            match outcome with
            | Error msg -> raise (Malformed msg)
            | Ok ((timings, _) as r) ->
              incr dirty;
              Hashtbl.replace solved net ();
              record_solve t net ~slew ~dres r;
              rebuilt net timings)
          solves;
        List.iter
          (fun net -> rebuilt net (Hashtbl.find t.memo net).m_timings)
          (List.rev !arith);
        if not full then
          List.iter
            (fun net -> List.iter (fun g -> push fwd g.g_output) (sinks_of d net))
            (List.sort_uniq compare !moved)
      done);
  if t.endpoints_stale then begin
    rebuild_endpoints t;
    t.endpoints_stale <- false
  end;
  (* backward: [analyze]'s min-plus pass over the dirty frontier.
     Visits are seeded by re-solved nets and intrinsic/endpoint seeds,
     and a net whose driver requirement actually changed (bitwise)
     queues the inputs of its driver gate.  The recomputed values are
     the same deterministic function [analyze] evaluates, so unvisited
     nets hold exactly the values a full pass would rewrite. *)
  let slack_dirty : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let visit net =
    match Hashtbl.find_opt t.timed net with
    | None -> false
    | Some nt -> (
      let sink_reqs, dr =
        net_requirements d nt
          ~endpoint:(Hashtbl.find_opt t.endpoint_req net)
          ~req_driver:(Hashtbl.find_opt t.req_driver)
      in
      List.iter
        (fun (st, rq) ->
          match Hashtbl.find_opt t.req_sink (net, st.sink_inst) with
          | Some old when old = rq -> ()
          | _ ->
            Hashtbl.replace t.req_sink (net, st.sink_inst) rq;
            Hashtbl.replace slack_dirty net ())
        sink_reqs;
      match Hashtbl.find_opt t.req_driver net with
      | Some old when old = dr -> false
      | _ ->
        Hashtbl.replace t.req_driver net dr;
        Hashtbl.replace slack_dirty net ();
        true)
  in
  let bwd = buckets () in
  seed bwd solved;
  seed bwd t.req_seed;
  for w = t.depth - 1 downto 0 do
    List.iter
      (fun net ->
        if visit net && not full then
          match driver_of d net with
          | Some g -> List.iter (push bwd) g.g_inputs
          | None -> ())
      (drain bwd w)
  done;
  Hashtbl.reset t.req_seed;
  (* slack entries: rebuilt per dirty net with [analyze]'s exact
     per-net function; the global sort key (slack, net, pin) is unique
     per pin, so assembling from per-net buckets reproduces the sorted
     list. *)
  let rebuild_slack net =
    match Hashtbl.find_opt t.timed net with
    | None -> Hashtbl.remove t.slack_by_net net
    | Some nt -> (
      match
        net_slacks nt ~req_driver:(Hashtbl.find_opt t.req_driver)
          ~req_sink:(fun inst -> Hashtbl.find_opt t.req_sink (net, inst))
      with
      | [] -> Hashtbl.remove t.slack_by_net net
      | entries -> Hashtbl.replace t.slack_by_net net entries)
  in
  if full then Hashtbl.iter (fun net _ -> rebuild_slack net) t.level
  else begin
    Hashtbl.iter (fun net () -> Hashtbl.replace slack_dirty net ()) timing_changed;
    Hashtbl.iter (fun net () -> rebuild_slack net) slack_dirty
  end;
  let slacks =
    Hashtbl.fold (fun _ entries acc -> List.rev_append entries acc) t.slack_by_net []
    |> sort_slacks
  in
  let worst_slack = match slacks with [] -> infinity | s :: _ -> s.sp_slack in
  let critical_arrival, critical_path =
    critical d ~timed:(Hashtbl.find_opt t.timed) ~path:(fun net ->
        Option.map (fun (_, _, _, p) -> p) (Hashtbl.find_opt t.arrival net))
  in
  let nets = List.filter_map (Hashtbl.find_opt t.timed) (net_names d) in
  let edits = t.pending in
  (* every scheduled net not re-solved kept its last solve *)
  let reused = Hashtbl.length t.level - !dirty in
  Awe.Stats.record_eco ~edits ~dirty_nets:!dirty ~reused_nets:reused
    ~full_fallbacks:0;
  t.tot_retimes <- t.tot_retimes + 1;
  t.tot_dirty <- t.tot_dirty + !dirty;
  t.tot_reused <- t.tot_reused + reused;
  t.tot_visits <- t.tot_visits + !visits;
  let stats = List.fold_left Awe.Stats.merge Awe.Stats.zero (List.rev !windows) in
  let stats =
    Awe.Stats.merge stats
      { Awe.Stats.zero with
        Awe.Stats.cache_bytes = cache_bytes t.cache;
        eco_edits = edits;
        eco_dirty_nets = !dirty;
        eco_reused_nets = reused }
  in
  let report =
    { nets; critical_arrival; critical_path; slacks; worst_slack; failures = [];
      stats }
  in
  t.last_report <- Some report;
  report

(* --- edits --------------------------------------------------------- *)

(* the net's own stage changed: re-solve it at the next re-time *)
let invalidate t net =
  Hashtbl.replace t.fwd_seed net ();
  match Hashtbl.find_opt t.memo net with
  | Some m -> m.m_valid <- false
  | None -> ()

(* Replace segment [index] of [net] by [f] of it; returns the old
   segment.  Every current sink must stay attached. *)
let edit_segment t net index f =
  let segs =
    match net_segments t.d net with Some s -> s | None -> fail "unknown net %s" net
  in
  if index < 0 || index >= List.length segs then
    fail "net %s has no segment %d" net index;
  let segments = List.mapi (fun i s -> if i = index then f s else s) segs in
  List.iter
    (fun g ->
      if not (List.exists (fun s -> s.seg_to = g.g_inst) segments) then
        fail "reroute would detach sink %s from net %s" g.g_inst net)
    (sinks_of t.d net);
  replace_net_segments t.d ~net ~segments;
  invalidate t net;
  List.nth segs index

(* Validate-then-mutate; returns the inverse edit.  Raises [Malformed]
   without touching anything on a rejected edit: all validation reads
   come first, the [Timing] mutators themselves validate before
   mutating, and the session-state updates after them cannot fail. *)
let rec apply_edit t edit =
  match edit with
  | Set_resistance { net; index; value } ->
    let old = edit_segment t net index (fun s -> { s with res = value }) in
    Set_resistance { net; index; value = old.res }
  | Set_capacitance { net; index; value } ->
    let old = edit_segment t net index (fun s -> { s with cap = value }) in
    Set_capacitance { net; index; value = old.cap }
  | Reroute { net; index; seg_from; seg_to } ->
    let old = edit_segment t net index (fun s -> { s with seg_from; seg_to }) in
    Reroute { net; index; seg_from = old.seg_from; seg_to = old.seg_to }
  | Swap_sink { inst; from_net; to_net } ->
    let g = gate_of t inst in
    if not (List.mem from_net g.g_inputs) then
      fail "gate %s has no input pin on net %s" inst from_net;
    let inputs = replace_first g.g_inputs from_net to_net in
    apply_edit t (Set_inputs { inst; inputs })
  | Set_inputs { inst; inputs } ->
    let g = gate_of t inst in
    if inputs = [] then fail "gate %s has no inputs" inst;
    List.iter
      (fun net ->
        match net_segments t.d net with
        | None -> fail "gate %s references unknown net %s" inst net
        | Some segs ->
          if not (List.exists (fun s -> s.seg_to = inst) segs) then
            fail "net %s has no segment reaching sink %s" net inst)
      inputs;
    let old = g.g_inputs in
    set_gate_inputs t.d ~inst ~inputs;
    (* nets whose sink membership changed get a new stage circuit; the
       gate's output pulls its arrival from the new inputs *)
    let removed = List.filter (fun n -> not (List.mem n inputs)) (distinct old) in
    let added = List.filter (fun n -> not (List.mem n old)) (distinct inputs) in
    List.iter (invalidate t) (removed @ added);
    Hashtbl.replace t.fwd_seed g.g_output ();
    if removed <> [] || added <> [] then t.schedule_valid <- false;
    Set_inputs { inst; inputs = old }
  | Set_drive { inst; value } ->
    let g = gate_of t inst in
    if not (Float.is_finite value && value > 0.) then
      fail "gate %s: drive resistance must be positive" inst;
    let old = g.g_cell.drive_res in
    set_gate_cell t.d ~inst ~cell:{ g.g_cell with drive_res = value };
    invalidate t g.g_output;
    Set_drive { inst; value = old }
  | Set_pin_cap { inst; value } ->
    let g = gate_of t inst in
    if not (Float.is_finite value && value >= 0.) then
      fail "gate %s: input pin capacitance must be non-negative" inst;
    let old = g.g_cell.input_cap in
    set_gate_cell t.d ~inst ~cell:{ g.g_cell with input_cap = value };
    List.iter (invalidate t) (distinct g.g_inputs);
    Set_pin_cap { inst; value = old }
  | Set_intrinsic { inst; value } ->
    let g = gate_of t inst in
    if not (Float.is_finite value && value >= 0.) then
      fail "gate %s: intrinsic delay must be non-negative" inst;
    let old = g.g_cell.intrinsic in
    set_gate_cell t.d ~inst ~cell:{ g.g_cell with intrinsic = value };
    (* no re-solve: the intrinsic enters the output's arrival (pulled
       bitwise by the forward pass) and the backward through-requirement
       at the gate's input nets, which must be re-visited *)
    Hashtbl.replace t.fwd_seed g.g_output ();
    List.iter
      (fun n -> Hashtbl.replace t.req_seed n ())
      (distinct g.g_inputs);
    Set_intrinsic { inst; value = old }
  | Set_constraint { net; required } ->
    let old = List.assoc_opt net (constraints t.d) in
    set_required t.d ~net ~required:(Some required);
    t.endpoints_stale <- true;
    (match old with
    | Some v -> Set_constraint { net; required = v }
    | None -> Remove_constraint { net })
  | Remove_constraint { net } -> (
    match List.assoc_opt net (constraints t.d) with
    | None -> fail "no constraint on net %s" net
    | Some v ->
      set_required t.d ~net ~required:None;
      t.endpoints_stale <- true;
      Set_constraint { net; required = v })
  | Set_clock { period } ->
    let old = clock_period t.d in
    update_clock t.d ~period:(Some period);
    t.endpoints_stale <- true;
    (match old with Some p -> Set_clock { period = p } | None -> Remove_clock)
  | Remove_clock -> (
    match clock_period t.d with
    | None -> fail "no clock to remove"
    | Some p ->
      update_clock t.d ~period:None;
      t.endpoints_stale <- true;
      Set_clock { period = p })

(* --- session lifecycle -------------------------------------------- *)

let reset_analysis t =
  Hashtbl.reset t.memo;
  Hashtbl.reset t.arrival;
  Hashtbl.reset t.timed;
  Hashtbl.reset t.sink_results;
  Hashtbl.reset t.req_driver;
  Hashtbl.reset t.req_sink;
  Hashtbl.reset t.endpoint_req;
  Hashtbl.reset t.slack_by_net;
  Hashtbl.reset t.exact_refs;
  Hashtbl.reset t.pattern_refs;
  Hashtbl.reset t.req_seed;
  Hashtbl.reset t.fwd_seed;
  t.cache <- create_cache ();
  t.schedule_valid <- false;
  t.endpoints_stale <- true;
  t.last_report <- None

let commit t =
  t.pending <- 0;
  t.rollback <- [];
  t.undo_saved <- t.undo

(* Roll the design back to the last successfully-timed state and
   rebuild the analysis cold.  The replayed inverses restore a state
   that timed successfully before, so the recovery re-time succeeds
   barring a broken invariant (in which case its exception escapes). *)
let fallback t msg =
  t.tot_fallbacks <- t.tot_fallbacks + 1;
  Awe.Stats.record_eco ~edits:0 ~dirty_nets:0 ~reused_nets:0 ~full_fallbacks:1;
  List.iter (fun e -> ignore (apply_edit t e)) t.rollback;
  t.undo <- t.undo_saved;
  reset_analysis t;
  ignore (retime_now t);
  commit t;
  Error msg

let retime t =
  if t.pending = 0 then Ok (Option.get t.last_report)
  else
    match retime_now t with
    | report ->
      commit t;
      Ok report
    | exception Malformed msg -> fallback t msg
    | exception Not_a_dag insts ->
      fallback t
        (Printf.sprintf "combinational cycle through %s"
           (String.concat ", " insts))
    | exception Parallel.Task_failure { label; exn; _ } ->
      fallback t (Printf.sprintf "%s: %s" label (Printexc.to_string exn))

let apply t edit =
  match apply_edit t edit with
  | inverse ->
    t.undo <- (edit, inverse) :: t.undo;
    t.rollback <- inverse :: t.rollback;
    t.pending <- t.pending + 1;
    t.tot_edits <- t.tot_edits + 1;
    Ok ()
  | exception Malformed msg -> Error msg

let revert t =
  match t.undo with
  | [] -> Error "nothing to revert"
  | (edit, inverse) :: rest -> (
    match apply_edit t inverse with
    | _reinverse ->
      t.undo <- rest;
      t.rollback <- edit :: t.rollback;
      t.pending <- t.pending + 1;
      t.tot_edits <- t.tot_edits + 1;
      Ok edit
    | exception Malformed msg -> Error ("revert failed: " ^ msg))

let revert_all t =
  let rec go n = match revert t with Ok _ -> go (n + 1) | Error _ -> n in
  go 0

let create ?(model = Awe_auto) ?(sparse = false) ?(jobs = 1) ?(reduce = true)
    (d : design) =
  if jobs < 0 then
    invalid_arg "Sta.Session.create: jobs must be non-negative";
  check_references d;
  (* one driver per net (the first gate in declaration order that
     redrives a net is named, with the net's first driver), and no
     driven primary input *)
  List.iter
    (fun (inst, _cell, _inputs, output) ->
      (match List.rev (drivers_of d output) with
      | first :: _ when first.g_inst <> inst ->
        fail "net %s is driven by both %s and %s" output first.g_inst inst
      | _ -> ());
      if primary_input d output <> None then
        fail "net %s is both a primary input and the output of gate %s" output
          inst)
    (gate_details d);
  let t =
    { d;
      model;
      sparse;
      reduce;
      jobs;
      cache = create_cache ();
      level = Hashtbl.create 256;
      depth = 0;
      schedule_valid = false;
      fwd_seed = Hashtbl.create 16;
      memo = Hashtbl.create 256;
      arrival = Hashtbl.create 256;
      timed = Hashtbl.create 256;
      sink_results = Hashtbl.create 256;
      req_driver = Hashtbl.create 256;
      req_sink = Hashtbl.create 256;
      endpoint_req = Hashtbl.create 8;
      endpoints_stale = true;
      slack_by_net = Hashtbl.create 64;
      exact_refs = Hashtbl.create 256;
      pattern_refs = Hashtbl.create 64;
      req_seed = Hashtbl.create 16;
      undo = [];
      undo_saved = [];
      rollback = [];
      pending = 0;
      last_report = None;
      tot_edits = 0;
      tot_retimes = 0;
      tot_dirty = 0;
      tot_reused = 0;
      tot_fallbacks = 0;
      tot_visits = 0 }
  in
  ignore (retime_now t);
  commit t;
  t

let design t = t.d

let report t = Option.get t.last_report

let pending_edits t = t.pending

let cache t = t.cache

let totals t =
  { total_edits = t.tot_edits;
    total_retimes = t.tot_retimes;
    total_dirty = t.tot_dirty;
    total_reused = t.tot_reused;
    total_fallbacks = t.tot_fallbacks;
    total_visits = t.tot_visits }
