(* Wall time from the kernel's monotonic clock.  Process CPU time
   ([Sys.time]) would count the other domains' work and the time the
   process spends descheduled the wrong way round for latency. *)
let now_ns () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_between t0 (now_ns ()))
