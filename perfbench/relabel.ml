(* Seeded relabeling: the same circuit with its nodes created in a
   random topological order.  Node ids, fan-out list order and the
   order of every id-keyed tie break change with the seed; the logic,
   sizes, wire loads, Vt classes and output loads do not.  The flow
   workloads take their seed through this, so different seeds give
   different netlists of one fixed circuit whose cost is known. *)

module N = Pops_netlist.Netlist

let relabel ~seed t =
  let st = Random.State.make [| seed |] in
  let out = N.create (N.tech t) in
  let order = N.topological_order t in
  let n = 1 + List.fold_left max 0 order in
  (* a node becomes ready when all of its distinct fan-ins exist *)
  let pending = Array.make n 0 in
  List.iter
    (fun id ->
      pending.(id) <-
        List.length
          (List.sort_uniq compare (Array.to_list (N.node t id).N.fanins)))
    order;
  let ready = ref (Array.make 1024 0) and len = ref 0 in
  let push id =
    if !len = Array.length !ready then begin
      let a = Array.make (2 * !len) 0 in
      Array.blit !ready 0 a 0 !len;
      ready := a
    end;
    !ready.(!len) <- id;
    incr len
  in
  List.iter (fun id -> if pending.(id) = 0 then push id) order;
  let map = Array.make n (-1) in
  while !len > 0 do
    let k = Random.State.int st !len in
    let id = !ready.(k) in
    !ready.(k) <- !ready.(!len - 1);
    decr len;
    let nd = N.node t id in
    let nid =
      match nd.N.kind with
      | N.Primary_input -> N.add_input out
      | N.Cell kind ->
        let g =
          N.add_gate ~cin:nd.N.cin ~wire:nd.N.wire out kind
            (Array.map (fun f -> map.(f)) nd.N.fanins)
        in
        N.set_vt out g nd.N.vt;
        g
    in
    map.(id) <- nid;
    List.iter
      (fun c ->
        pending.(c) <- pending.(c) - 1;
        if pending.(c) = 0 then push c)
      (List.sort_uniq compare nd.N.fanouts)
  done;
  List.iter (fun (o, load) -> N.set_output out map.(o) ~load) (N.outputs t);
  out
