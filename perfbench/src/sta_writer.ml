(* %.17g prints every float so that [float_of_string] reads back the
   same bits; the design parser's value grammar accepts it unchanged. *)
let num = Printf.sprintf "%.17g"

let to_string (d : Sta.design) =
  let b = Buffer.create 65536 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "* written by perfbench (Sta_writer)";
  let gates = Sta.gate_details d in
  (* cell cards are keyed by name: two gates whose cells share a name
     must share its values, or the file could not say both *)
  let cells = Hashtbl.create 8 in
  List.iter
    (fun (_, (c : Sta.cell), _, _) ->
      match Hashtbl.find_opt cells c.cell_name with
      | Some c' when c' <> c ->
        invalid_arg ("Sta_writer: cell " ^ c.cell_name ^ " has two value sets")
      | Some _ -> ()
      | None ->
        Hashtbl.replace cells c.cell_name c;
        line "cell %s %s %s %s" c.cell_name (num c.drive_res)
          (num c.input_cap) (num c.intrinsic))
    gates;
  (* declaration order: sink order and worst-input tie-breaks follow it *)
  List.iter
    (fun (inst, (c : Sta.cell), inputs, output) ->
      line "gate %s %s %s %s" inst c.cell_name output (String.concat " " inputs))
    gates;
  List.iter
    (fun net ->
      match Sta.net_segments d net with
      | None -> ()
      | Some segs ->
        line "net %s %s" net
          (String.concat " ; "
             (List.map
                (fun (s : Sta.segment) ->
                  Printf.sprintf "%s %s %s %s" s.seg_from s.seg_to (num s.res)
                    (num s.cap))
                segs)))
    (Sta.net_names d);
  List.iter
    (fun net ->
      match Sta.primary_input d net with
      | Some (arrival, slew) ->
        line "input %s arrival=%s slew=%s" net (num arrival) (num slew)
      | None -> ())
    (Sta.primary_input_nets d);
  List.iter (fun net -> line "output %s" net) (Sta.primary_output_nets d);
  List.iter
    (fun (net, req) -> line "constraint %s %s" net (num req))
    (Sta.constraints d);
  Option.iter (fun p -> line "clock %s" (num p)) (Sta.clock_period d);
  Buffer.contents b

let write_file path d =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string d))
