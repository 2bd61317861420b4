type request =
  | Edit of Sta.Session.edit
  | Timing
  | Revert_all

let num = Printf.sprintf "%.17g"

let line = function
  | Edit (Sta.Session.Set_resistance { net; index; value }) ->
    Printf.sprintf "edit set_r %s %d %s" net index (num value)
  | Edit (Sta.Session.Set_capacitance { net; index; value }) ->
    Printf.sprintf "edit set_c %s %d %s" net index (num value)
  | Edit (Sta.Session.Set_drive { inst; value }) ->
    Printf.sprintf "edit set_drive %s %s" inst (num value)
  | Edit _ -> invalid_arg "Eco_script.line: edit kind outside the script"
  | Timing -> "timing --top-k 10"
  | Revert_all -> "revert all"

let block = 6

let factors = [| 0.5; 0.7; 1.4; 2.0 |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The edits of a visit are a fixed function of the site, so the set of
   values every cycle installs, and with it the solver work, is the
   same for every seed. *)
let visit (d : Sta.design) cells (r, c) =
  let net = Printf.sprintf "w%d_%d" r c and inst = Printf.sprintf "g%d_%d" r c in
  let segs =
    match Sta.net_segments d net with
    | Some s -> Array.of_list s
    | None -> invalid_arg ("Eco_script.cycle: no net " ^ net)
  in
  let size = 1 + (((7 * r) + (3 * c)) mod 3) and first = (r + (2 * c)) mod 3 in
  List.init size (fun k ->
      let f = factors.(((5 * r) + c + k) mod Array.length factors) in
      let index = (r + c + k) mod Array.length segs in
      Edit
        (match (first + k) mod 3 with
        | 0 -> Sta.Session.Set_resistance { net; index; value = segs.(index).Sta.res *. f }
        | 1 -> Sta.Session.Set_capacitance { net; index; value = segs.(index).Sta.cap *. f }
        | _ -> Sta.Session.Set_drive { inst; value = (Hashtbl.find cells inst).Sta.drive_res *. f }))

let cycle ~seed ~rows ~cols (d : Sta.design) =
  if rows < block || cols < block then
    invalid_arg "Eco_script.cycle: grid smaller than the edit block";
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (inst, (c : Sta.cell), _, _) -> Hashtbl.replace cells inst c)
    (Sta.gate_details d);
  let sites =
    Array.init (block * block) (fun i -> (rows - block + (i / block), cols - block + (i mod block)))
  in
  shuffle (Random.State.make [| seed; 0xec0 |]) sites;
  List.concat_map
    (fun site -> visit d cells site @ [ Timing; Revert_all; Timing ])
    (Array.to_list sites)

let first_burst script =
  let rec go acc = function
    | (Edit _ as e) :: rest -> go (e :: acc) rest
    | Timing :: _ -> List.rev (Timing :: acc)
    | _ -> invalid_arg "Eco_script.first_burst: script does not open with edits"
  in
  go [] script
