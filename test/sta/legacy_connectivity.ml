(* The list-scan connectivity queries the timing engine answered before
   a design carried its net<->gate index, frozen as a reference oracle:
   each query scans every gate, newest declared first.  The index's
   answers (order included) must equal these after any edit stream.
   Do not "improve" this file: its value is that it does not share the
   index's bookkeeping. *)

(* gates as the engine kept them: newest declared first *)
let gates (d : Sta.design) = List.rev (Sta.gate_details d)

(* the sinks of a net are the gates listing it among their inputs *)
let sinks_of d net =
  List.filter_map
    (fun (inst, _, inputs, _) -> if List.mem net inputs then Some inst else None)
    (gates d)

let drivers_of d net =
  List.filter_map
    (fun (inst, _, _, output) -> if output = net then Some inst else None)
    (gates d)

let driver_of d net =
  List.find_map
    (fun (inst, _, _, output) -> if output = net then Some inst else None)
    (gates d)
