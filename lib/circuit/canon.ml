(* Construction-order solve keys (see canon.mli).  One serializer
   produces both keys; the pattern key is the same walk with values
   left out. *)

let add_float buf x =
  (* IEEE-754 bit pattern: distinguishes values that print alike and
     keeps -0.0 /= 0.0 and NaN payloads stable *)
  Buffer.add_string buf (Printf.sprintf "%Lx;" (Int64.bits_of_float x))

let add_wave buf (w : Element.waveform) =
  match w with
  | Dc v ->
    Buffer.add_char buf 'D';
    add_float buf v
  | Step { v0; v1 } ->
    Buffer.add_char buf 'S';
    add_float buf v0;
    add_float buf v1
  | Ramp { v0; v1; t_delay; t_rise } ->
    Buffer.add_char buf 'M';
    add_float buf v0;
    add_float buf v1;
    add_float buf t_delay;
    add_float buf t_rise
  | Pwl pts ->
    Buffer.add_char buf 'P';
    List.iter
      (fun (t, v) ->
        add_float buf t;
        add_float buf v)
      pts;
    Buffer.add_char buf '.'

let add_ic buf = function
  | None -> Buffer.add_char buf 'n'
  | Some v ->
    Buffer.add_char buf 's';
    add_float buf v

(* Kind tag plus, when [with_values], the element's numeric payload
   and waveform.  Names never enter a key. *)
let add_static ~with_values buf (e : Element.t) =
  match e with
  | Resistor { r; _ } ->
    Buffer.add_char buf 'R';
    if with_values then add_float buf r
  | Capacitor { c; ic; _ } ->
    Buffer.add_char buf 'C';
    if with_values then begin
      add_float buf c;
      add_ic buf ic
    end
  | Inductor { l; ic; _ } ->
    Buffer.add_char buf 'L';
    if with_values then begin
      add_float buf l;
      add_ic buf ic
    end
  | Vsource { wave; _ } ->
    Buffer.add_char buf 'V';
    if with_values then add_wave buf wave
  | Isource { wave; _ } ->
    Buffer.add_char buf 'I';
    if with_values then add_wave buf wave
  | Vcvs { gain; _ } ->
    Buffer.add_char buf 'E';
    if with_values then add_float buf gain
  | Vccs { gm; _ } ->
    Buffer.add_char buf 'G';
    if with_values then add_float buf gm
  | Ccvs { r; _ } ->
    Buffer.add_char buf 'H';
    if with_values then add_float buf r
  | Cccs { gain; _ } ->
    Buffer.add_char buf 'F';
    if with_values then add_float buf gain
  | Mutual { k; _ } ->
    Buffer.add_char buf 'K';
    if with_values then add_float buf k

(* Connection ports in the element's defining order. *)
let ports (e : Element.t) =
  match e with
  | Resistor { np; nn; _ }
  | Capacitor { np; nn; _ }
  | Inductor { np; nn; _ }
  | Vsource { np; nn; _ }
  | Isource { np; nn; _ }
  | Ccvs { np; nn; _ }
  | Cccs { np; nn; _ } ->
    [| np; nn |]
  | Vcvs { np; nn; cp; cn; _ } | Vccs { np; nn; cp; cn; _ } ->
    [| np; nn; cp; cn |]
  | Mutual _ -> [||]

(* Elements referenced by name rather than by node. *)
let refs (e : Element.t) =
  match e with
  | Ccvs { vctrl; _ } | Cccs { vctrl; _ } -> [ vctrl ]
  | Mutual { l1; l2; _ } -> [ l1; l2 ]
  | _ -> []

let name_index (c : Netlist.circuit) =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i e -> Hashtbl.replace tbl (String.lowercase_ascii (Element.name e)) i)
    c.elements;
  tbl

(* Node count, then per element in construction order: kind (plus
   value bits when [with_values]), port node ids, and each named
   reference resolved to the referenced element's index. *)
let serialize ~with_values ~by_name (c : Netlist.circuit) =
  let b = Buffer.create 512 in
  Buffer.add_string b (string_of_int c.node_count);
  Buffer.add_char b '#';
  Array.iter
    (fun e ->
      add_static ~with_values b e;
      Array.iter
        (fun v ->
          Buffer.add_string b (string_of_int v);
          Buffer.add_char b '.')
        (ports e);
      List.iter
        (fun r ->
          Buffer.add_char b '>';
          match Hashtbl.find_opt (Lazy.force by_name) (String.lowercase_ascii r) with
          | Some j -> Buffer.add_string b (string_of_int j)
          | None -> Buffer.add_char b '?')
        (refs e);
      Buffer.add_char b '\n')
    c.elements;
  Buffer.contents b

type keys = {
  pattern : string;
  signature : string;
}

(* the name index is only needed by circuits with named references,
   which STA stage circuits never have *)
let hashes (c : Netlist.circuit) =
  let by_name = lazy (name_index c) in
  { pattern = serialize ~with_values:false ~by_name c;
    signature = serialize ~with_values:true ~by_name c }
