type span = {
  id : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
  parent : int;
  req : int;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable current : int;
  mutable req : int;
}

let create () = { spans = []; next = 0; current = -1; req = -1 }

let with_request t req f =
  let saved = t.req in
  t.req <- req;
  Fun.protect ~finally:(fun () -> t.req <- saved) f

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = t.current in
  t.current <- id;
  let start_ns = Clock.now_ns () in
  let finish () =
    let end_ns = Clock.now_ns () in
    t.current <- parent;
    t.spans <- { id; name; start_ns; end_ns; parent; req = t.req } :: t.spans
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let count t = List.length t.spans

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let origin =
        List.fold_left (fun acc s -> min acc s.start_ns) Int64.max_int t.spans
      in
      let us x = Int64.to_float (Int64.sub x origin) /. 1e3 in
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"req\":%d}\n"
            s.id s.name (us s.start_ns) (us s.end_ns) s.parent s.req)
        (List.rev t.spans))
