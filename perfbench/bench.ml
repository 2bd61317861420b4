(* One benchmark run: perfbench/run.sh --workload W --seed N --seconds S
   --trace 0|1.  Human-readable notes first, then one JSON line with
   the result. *)
open Perfbench

let usage = "bench --workload grid_cold|mesh_cold|eco_serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match !workload with
    | "grid_cold" -> Workloads.grid_cold
    | "mesh_cold" -> Workloads.mesh_cold
    | "eco_serve" -> Workloads.eco_serve
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let r = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  List.iter (fun n -> print_endline ("# " ^ n)) r.notes;
  List.iter
    (fun (m : Workloads.metric) -> Printf.printf "# %-28s %14.6g %s\n" m.name m.value m.unit)
    r.metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (m : Workloads.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (num m.value) m.unit)
          r.metrics));
  exit (if r.correct then 0 else 1)
