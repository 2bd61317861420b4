(** In-memory spans around the calls the benchmark makes into each
    layer: name, start, end, the enclosing span, and the request they
    serve.  Spans are only recorded by the traced run and written out
    when it ends. *)

type t

val create : unit -> t

val with_request : t -> int -> (unit -> 'a) -> 'a
(** Tag every span opened inside with request id [req]. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span named [name], a child of the innermost open
    span.  Exception-safe. *)

val count : t -> int

val write : t -> string -> unit
(** One JSON object per span and line, times in microseconds from the
    first span's start. *)
