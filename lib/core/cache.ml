(* Two-tier structure cache (see cache.mli).  Both tiers are
   persistent maps so [view] is a pointer copy: tasks running in other
   domains read the frozen snapshot while the coordinator keeps
   publishing into the mutable roots. *)

module Smap = Map.Make (String)

(* The pattern tier lives in its own store so several caches can share
   one: corner analyses change element values, never topology, so the
   symbolic factorizations are corner-invariant — N per-corner caches
   pointing at one [patterns] store pay for each topology's symbolic
   analysis exactly once across all corners.  The epoch counts
   publications, so caches sharing the store can tell their memoized
   footprint is stale without seeing each other. *)
type patterns = {
  mutable p_symbolics : Sparse.Slu.symbolic list Smap.t;
      (* pattern key -> analyses *)
  mutable p_epoch : int;
}

type 'a t = {
  mutable exact : 'a Smap.t; (* exact key -> payload *)
  pats : patterns; (* possibly shared with other caches *)
  mutable bytes_memo : (int * int) option;
      (* (pattern epoch, footprint): lazily computed, invalidated by
         exact publication (dropped) or pattern publication through
         any sharer (epoch mismatch) *)
}

type 'a view = {
  v_exact : 'a Smap.t;
  v_symbolics : Sparse.Slu.symbolic list Smap.t;
}

let create_patterns () = { p_symbolics = Smap.empty; p_epoch = 0 }

let create ?patterns () =
  let pats =
    match patterns with Some p -> p | None -> create_patterns ()
  in
  { exact = Smap.empty; pats; bytes_memo = None }

let patterns t = t.pats

let view t = { v_exact = t.exact; v_symbolics = t.pats.p_symbolics }

let find_exact v ~key = Smap.find_opt key v.v_exact

let find_symbolic v ~key =
  Option.value ~default:[] (Smap.find_opt key v.v_symbolics)

let publish_exact t ~key payload =
  if Smap.mem key t.exact then false
  else begin
    t.exact <- Smap.add key payload t.exact;
    t.bytes_memo <- None;
    true
  end

let publish_symbolic t ~key s =
  let p = t.pats in
  let entries = Option.value ~default:[] (Smap.find_opt key p.p_symbolics) in
  if List.exists (fun s' -> Sparse.Slu.same_analysis s' s) entries then false
  else begin
    p.p_symbolics <- Smap.add key (s :: entries) p.p_symbolics;
    p.p_epoch <- p.p_epoch + 1;
    t.bytes_memo <- None;
    true
  end

(* Removal exists for incremental sessions: an edit that changes a
   net's exact key retires the old entry once no live net references
   it, keeping the key set equal to what a cold run of the edited
   design would publish.  Both removers bump the pattern epoch /
   drop the byte memo like publication does. *)
let remove_exact t ~key =
  if not (Smap.mem key t.exact) then false
  else begin
    t.exact <- Smap.remove key t.exact;
    t.bytes_memo <- None;
    true
  end

let remove_symbolic t ~key =
  let p = t.pats in
  match Smap.find_opt key p.p_symbolics with
  | None -> 0
  | Some entries ->
    p.p_symbolics <- Smap.remove key p.p_symbolics;
    p.p_epoch <- p.p_epoch + 1;
    t.bytes_memo <- None;
    List.length entries

(* The reachability sweep is linear in the cache size; memoizing it
   turns repeated stats-time queries (one per [analyze]) into a single
   sweep per publication epoch instead of one per call.  The memo
   carries the pattern epoch so a publication through a cache sharing
   the same pattern store invalidates it too. *)
let bytes t =
  match t.bytes_memo with
  | Some (epoch, b) when epoch = t.pats.p_epoch -> b
  | _ ->
    let b =
      Obj.reachable_words (Obj.repr (t.exact, t.pats.p_symbolics))
      * (Sys.word_size / 8)
    in
    t.bytes_memo <- Some (t.pats.p_epoch, b);
    b

let exact_entries t = Smap.cardinal t.exact

let symbolic_entries t =
  Smap.fold (fun _ entries n -> n + List.length entries) t.pats.p_symbolics 0

let exact_keys t = List.map fst (Smap.bindings t.exact)

let symbolic_keys t =
  Smap.fold
    (fun key entries acc ->
      List.rev_append (List.map (fun _ -> key) entries) acc)
    t.pats.p_symbolics []
  |> List.sort compare

(* Shards: per-task private overlays.  A shard records its own
   publications in insertion order (the log) and indexes them for
   intra-task lookup.  Lookups are local-only — the caller decides how
   the frozen shared view composes with the shard, because the
   determinism contract distinguishes the two tiers. *)
module Shard = struct
  type 'a publication =
    | P_exact of { key : string; payload : 'a }
    | P_symbolic of { key : string; s : Sparse.Slu.symbolic }

  type 'a t = {
    s_exact : (string, 'a) Hashtbl.t;
    s_symbolics : (string, Sparse.Slu.symbolic list) Hashtbl.t;
    mutable log : 'a publication list; (* newest first *)
  }

  let create () =
    { s_exact = Hashtbl.create 16;
      s_symbolics = Hashtbl.create 16;
      log = [] }

  let find_exact t ~key = Hashtbl.find_opt t.s_exact key

  let find_symbolic t ~key =
    Option.value ~default:[] (Hashtbl.find_opt t.s_symbolics key)

  let publish_exact t ~key payload =
    if not (Hashtbl.mem t.s_exact key) then begin
      Hashtbl.replace t.s_exact key payload;
      t.log <- P_exact { key; payload } :: t.log
    end

  let publish_symbolic t ~key s =
    let entries =
      Option.value ~default:[] (Hashtbl.find_opt t.s_symbolics key)
    in
    if not (List.exists (fun s' -> Sparse.Slu.same_analysis s' s) entries)
    then begin
      Hashtbl.replace t.s_symbolics key (s :: entries);
      t.log <- P_symbolic { key; s } :: t.log
    end

  let publications t = List.rev t.log
end

let absorb t shard =
  List.iter
    (function
      | Shard.P_exact { key; payload } -> ignore (publish_exact t ~key payload)
      | Shard.P_symbolic { key; s } -> ignore (publish_symbolic t ~key s))
    (Shard.publications shard)
