(** The structure-sharing cache (two tiers, frozen views, shards).

    Timing designs are template-heavy: the same few interconnect
    shapes are stamped out thousands of times.  The cache lets an
    analysis done once serve every later instance, at two strengths.
    Both tiers are keyed on plain strings — the solve keys of
    {!Circuit.Canon.hashes}, which the caller may prefix with its own
    context — compared in full, never digested:

    - {e pattern} tier — keyed on a value-free serialization, it
      stores symbolic sparse factorizations ({!Sparse.Slu.symbolic}).
      A hit skips the ordering + static pivoting + fill analysis; the
      numeric refactorization still runs, so the resulting factors are
      bit-identical to an uncached run.
    - {e exact} tier — keyed on a bit-exact serialization, it stores
      an arbitrary payload (the STA layer caches a whole fitted engine
      with its per-sink results).  Equal keys mean identical MNA
      systems, so a hit skips everything.

    {b Determinism.}  Lookups go through a {!view}: an immutable
    snapshot of the cache contents at the moment {!view} was taken.
    Parallel tasks all read one view frozen before they were spawned,
    so what each task sees — and therefore every hit/miss counter and
    every numeric result — depends only on the snapshot, never on how
    concurrently running tasks interleave.  Publication is the
    coordinator's job, done sequentially between waves in a fixed
    order (first publication wins, duplicates are dropped), so the
    cache contents after each wave are a pure function of the input.

    {b Shards.}  A {!Shard.t} is a task-private overlay: a worker
    publishes into its own shard during a wave (no locks, no
    contention) and the coordinator folds the shards back with
    {!absorb} at the wave boundary, replaying each shard's
    publications in insertion order under the same first-wins rule.
    When shards are absorbed in a deterministic order that matches the
    sequential sweep (e.g. contiguous sorted ranges, in range order),
    the resulting cache contents are identical to sequential
    publication — see THEORY.md, "Sharded publication".

    The cache itself is not thread-safe: publish from one domain.
    Views are immutable and safe to share with any number of domains;
    a shard must be used by one domain at a time. *)

type 'a t
(** A cache whose exact tier carries payloads of type ['a]. *)

type patterns
(** A pattern-tier store, shareable between caches.  Corner analyses
    perturb element values but never topology, so the symbolic sparse
    factorizations the pattern tier holds are corner-invariant: give
    each corner its own cache (the exact tier is value-keyed and must
    stay per-corner) but one shared [patterns] store, and every
    topology pays for its symbolic analysis exactly once across all
    corners.  Like the cache itself, a [patterns] store must be
    published into from one domain at a time; views taken from any
    sharing cache snapshot it safely. *)

val create_patterns : unit -> patterns

val create : ?patterns:patterns -> unit -> 'a t
(** [patterns] (default: a fresh private store) is the pattern-tier
    store this cache publishes symbolics into and reads them from —
    pass the same store to several caches to share symbolic analyses
    across them. *)

val patterns : 'a t -> patterns
(** The pattern-tier store this cache reads and publishes. *)

type 'a view
(** An immutable snapshot of a cache's contents. *)

val view : 'a t -> 'a view
(** Snapshot the current contents.  Later publications do not appear
    in previously taken views. *)

val find_exact : 'a view -> key:string -> 'a option
(** Exact-tier lookup: the payload published under this exact key, if
    any. *)

val find_symbolic : 'a view -> key:string -> Sparse.Slu.symbolic list
(** Pattern-tier lookup: all symbolic analyses published under this
    pattern key (usually zero or one).  Callers must probe each
    candidate with {!Sparse.Slu.pattern_matches} before use — the key
    is an index, the pattern check is the guarantee. *)

val publish_exact : 'a t -> key:string -> 'a -> bool
(** Publish a payload under an exact key.  First publication wins:
    returns [false] (and keeps the existing entry) when the key is
    already present. *)

val publish_symbolic : 'a t -> key:string -> Sparse.Slu.symbolic -> bool
(** Publish a symbolic analysis under a pattern key.  Returns [false]
    when an analysis of the identical pattern is already stored under
    the key ({!Sparse.Slu.same_analysis}), so concurrent misses on
    one template publish a single copy. *)

val remove_exact : 'a t -> key:string -> bool
(** Retire the exact-tier entry published under [key], if present.
    Returns whether an entry was removed.  Incremental
    sessions use this to keep the exact tier equal to what a cold run
    of the {e current} design would publish: when an edit changes a
    net's value-exact key and no other net still maps to the old key,
    the stale entry is removed rather than left to shadow the tier's
    fingerprint. *)

val remove_symbolic : 'a t -> key:string -> int
(** Retire {e all} symbolic analyses stored under a pattern key (a
    topology edit changed the last net with that pattern).  Returns
    how many analyses were dropped (0 when the key was absent).
    Affects every cache sharing this pattern store — callers
    refcount keys across exactly the nets served by the store. *)

val bytes : 'a t -> int
(** Approximate heap footprint of everything the cache retains, in
    bytes (transitively reachable words).  Computed lazily: the
    reachability sweep runs at most once per publication epoch —
    repeated calls between publications return a memoized value, and
    any publication invalidates it.  Structure shared across entries
    is counted once (the sweep walks the object graph), so this is a
    retention figure, not a sum of per-entry sizes. *)

val exact_entries : 'a t -> int
(** Number of exact-tier entries currently stored. *)

val symbolic_entries : 'a t -> int
(** Number of pattern-tier analyses currently stored. *)

val exact_keys : 'a t -> string list
(** All keys of the exact tier, sorted — a payload-free fingerprint
    of the tier's contents, for equality checks in tests. *)

val symbolic_keys : 'a t -> string list
(** Pattern keys of the symbolic tier, one per stored analysis,
    sorted. *)

(** Task-private publication overlays (see the header notes). *)
module Shard : sig
  type 'a t
  (** A private shard: local lookup index plus an ordered publication
      log.  Lookups see only what this shard published — composing
      with the frozen shared view is the caller's job. *)

  val create : unit -> 'a t

  val find_exact : 'a t -> key:string -> 'a option
  (** Exact lookup among this shard's own publications. *)

  val find_symbolic : 'a t -> key:string -> Sparse.Slu.symbolic list
  (** Pattern lookup among this shard's own publications.  Probe
      candidates with {!Sparse.Slu.pattern_matches} before use. *)

  val publish_exact : 'a t -> key:string -> 'a -> unit
  (** Record a publication in the shard (first-wins within the
      shard). *)

  val publish_symbolic : 'a t -> key:string -> Sparse.Slu.symbolic -> unit
  (** Record a symbolic publication in the shard (deduplicated within
      the shard by {!Sparse.Slu.same_analysis}). *)
end

val absorb : 'a t -> 'a Shard.t -> unit
(** Replay a shard's publications into the cache, in the shard's
    insertion order, under the cache's first-wins rules.  Absorbing
    shards in task order reproduces exactly the contents a sequential
    sweep would have published. *)
