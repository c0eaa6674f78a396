(* Monotonic timing and the benchmark's own span recorder.

   Every timed call goes through [time]: it reads the monotonic clock
   around the call and, when tracing is on, records a span (name, start,
   end, parent, request id).  Spans stay in memory until [write] dumps
   them at exit.  Nothing inside the pops libraries is instrumented; the
   spans bracket the calls this harness makes into each layer. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (* -1 at the root *)
  req : int;  (* request id, -1 when the span belongs to no request *)
}

let enabled = ref false
let spans = ref []
let next_id = ref 0
let open_stack = ref []
let origin = now_ns ()

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let push ~id ~parent ?(req = -1) name start_ns stop_ns =
  if !enabled then spans := { id; name; start_ns; stop_ns; parent; req } :: !spans

(* a span measured elsewhere, e.g. a request from its due time to its
   reply *)
let record ?req name start_ns stop_ns =
  push ~id:(fresh_id ()) ~parent:(-1) ?req name start_ns stop_ns

(* [time name f] runs [f], returns its result and its wall time in
   seconds.  Spans opened inside [f] get this span as their parent. *)
let time ?req name f =
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  let id = fresh_id () in
  open_stack := id :: !open_stack;
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    open_stack := List.tl !open_stack;
    push ~id ~parent ?req name t0 t1;
    seconds_between t0 t1
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let time_ms ?req name f =
  let r, s = time ?req name f in
  (r, 1000. *. s)

(* one JSON object per line, times in microseconds since process start *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"req\":%d}\n"
        s.id s.name
        (1e6 *. seconds_between origin s.start_ns)
        (1e6 *. seconds_between origin s.stop_ns)
        s.parent s.req)
    (List.rev !spans);
  close_out oc
