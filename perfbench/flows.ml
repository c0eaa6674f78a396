(* The flow workloads: Flow.optimize_o on one fixed generated circuit,
   relabeled by the seed (see relabel.ml), at Tc = 0.9 x its initial
   STA delay.  Untraced runs time whole optimize calls; traced runs
   read the public report fields of one call and then probe the
   netlist, sta and core layers on the round-1 cones. *)

open Common
module G = Pops_netlist.Generator
module N = Pops_netlist.Netlist
module Logic = Pops_netlist.Logic
module Bench_io = Pops_netlist.Bench_io
module Timing = Pops_sta.Timing
module Paths = Pops_sta.Paths
module Path = Pops_delay.Path
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers
module Restructure = Pops_core.Restructure
module Protocol = Pops_core.Protocol
module Flow = Pops_flow.Flow
module Vt_assign = Pops_flow.Vt_assign
module Pool = Pops_util.Pool
module Outcome = Pops_robust.Outcome

type spec = {
  shape : G.scale_shape;
  gates : int;
  small_gates : int;
  circuit : string;  (** generator name: fixes the circuit *)
  vt : bool;
}

(* Sizes and names are documented, with the facts that chose them, in
   README.md.  flow_grid's circuit must end unmet: it is the hard case.
   flow_iscas stops at 50k gates: at 100k its times moved by a quarter
   between runs with the host's memory traffic. *)
let specs =
  [ ("flow_grid",
     { shape = G.Grid; gates = 30_000; small_gates = 2_000; circuit = "g1";
       vt = false });
    ("flow_iscas",
     { shape = G.Iscas; gates = 50_000; small_gates = 3_000; circuit = "g1";
       vt = false });
    ("flow_vt",
     { shape = G.Iscas; gates = 20_000; small_gates = 2_000; circuit = "g1";
       vt = true }) ]

let tc_ratio = 0.9

(* a set-up takes 0.03 to 0.3 s, and a single one moves by a third
   with the host; the median of 15 costs a few seconds *)
let setup_reps = 15
let gates ctx spec = if ctx.small then spec.small_gates else spec.gates

let setup ctx spec ~gates =
  let nl =
    G.generate_scale tech ~name:spec.circuit ~gates ~shape:spec.shape
    |> Relabel.relabel ~seed:ctx.seed
  in
  let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
  (nl, tc_ratio *. d0)

(* The correctness checks of one optimize call on [nl] (now the final
   netlist).  Each failed check is one (op, reason) entry.  [corrupt]
   perturbs one expected value: the leakage with the Vt pass, whose
   final_delay check fails already (README.md, "Known failure"), the
   final delay otherwise. *)
let check ~spec ~op ~corrupt nl outcome =
  let fail fmt = Printf.ksprintf (fun m -> [ (op, m) ]) fmt in
  match outcome with
  | Outcome.Failed d -> fail "outcome Failed: %s" (Pops_robust.Diag.one_line d)
  | Outcome.Exact r | Outcome.Degraded (r, _) ->
    let reference = Timing.critical_delay (Timing.analyze_reference ~lib nl) in
    let perturb corrupt x = if corrupt then x *. (1. +. 1e-6) else x in
    let expected = perturb (corrupt && not spec.vt) reference in
    List.concat
      [ (match r.Flow.equivalence with
        | Ok () -> []
        | Error m -> fail "equivalence: %s" m);
        (if r.Flow.final_delay <> expected then
           fail "final_delay %.17g <> analyze_reference %.17g"
             r.Flow.final_delay expected
         else []);
        (if r.Flow.final_delay > r.Flow.initial_delay then
           fail "final_delay %.17g > initial_delay %.17g" r.Flow.final_delay
             r.Flow.initial_delay
         else []);
        (match (spec.vt, r.Flow.vt) with
        | false, _ -> []
        | true, None -> fail "no Vt report"
        | true, Some v ->
          let leak = perturb corrupt (Vt_assign.leakage_uw ~lib nl) in
          if v.Vt_assign.leakage_after <> leak then
            fail "leakage_after %.17g <> leakage_uw %.17g"
              v.Vt_assign.leakage_after leak
          else []) ]

let report_of = function
  | Outcome.Exact r | Outcome.Degraded (r, _) -> Some r
  | Outcome.Failed _ -> None

let optimize spec ~tc nl =
  Flow.optimize_o ~vt_assign:spec.vt ~lib ~tc nl

(* ---------------------------------------------------------------- *)
(* untraced: end-to-end metrics                                      *)
(* ---------------------------------------------------------------- *)

(* one optimize call of an untraced run *)
type op = {
  secs : float;
  report : Flow.report option;
  leakage : float;  (** uW, of the returned netlist *)
  failures : (string * string) list;
}

let measure ctx spec =
  let gates = gates ctx spec in
  let setup_s, (pristine, tc) = repeat_setup setup_reps (fun () -> setup ctx spec ~gates) in
  let leak0 = Vt_assign.leakage_uw ~lib pristine in
  let t_start = Span.now_ns () in
  let elapsed () = Span.seconds_between t_start (Span.now_ns ()) in
  (* one call at least; another only while its expected length still
     fits the budget *)
  let rec loop i acc =
    let nl = N.copy pristine in
    Gc.compact ();
    let outcome, secs = Span.time "optimize" (fun () -> optimize spec ~tc nl) in
    let op = Printf.sprintf "optimize-%d" i in
    let acc =
      { secs; report = report_of outcome; leakage = Vt_assign.leakage_uw ~lib nl;
        failures = check ~spec ~op ~corrupt:(ctx.corrupt && i = 0) nl outcome }
      :: acc
    in
    let times = List.map (fun o -> o.secs) acc in
    if elapsed () +. Stats.median times <= ctx.seconds then loop (i + 1) acc
    else List.rev acc
  in
  let ops = loop 0 [] in
  let times = List.map (fun o -> o.secs) ops in
  let reports = List.filter_map (fun o -> o.report) ops in
  let med f = Stats.median (List.map f reports) in
  let leakage_ratio =
    if spec.vt then
      med (fun r ->
          match r.Flow.vt with
          | Some v -> v.Vt_assign.leakage_after /. v.Vt_assign.leakage_before
          | None -> Float.nan)
    else Stats.median (List.map (fun o -> o.leakage /. leak0) ops)
  in
  let failures = List.concat_map (fun o -> o.failures) ops in
  let attempted = List.length ops in
  let outcomes =
    String.concat ","
      (List.map (fun r -> Flow.outcome_to_string r.Flow.outcome) reports)
  in
  {
    metrics =
      [ ("setup_s", setup_s);
        ("optimize_s", Stats.median times);
        ("area_ratio", med (fun r -> r.Flow.final_area /. r.Flow.initial_area));
        ("delay_ratio", med (fun r -> r.Flow.final_delay /. tc));
        ("leakage_ratio", leakage_ratio);
        ("peak_rss_mb", Stats.peak_rss_mb "self");
        ("ok_share",
         float_of_int (attempted - failed_ops failures) /. float_of_int attempted);
        ("latency_p50_ms", 1000. *. Stats.median times);
        ("latency_p95_ms", 1000. *. Stats.percentile 95. times);
        ("max_rate_jps", 1. /. Stats.median times) ];
    attempted;
    failures;
    info =
      [ ("circuit",
         Printf.sprintf "%s/%d name %s" (G.scale_shape_name spec.shape) gates
           spec.circuit);
        ("tc_ps", Printf.sprintf "%.3f" tc);
        ("outcomes", outcomes);
        ("optimize_s_each",
         String.concat " " (List.map (Printf.sprintf "%.3f") times)) ];
  }

(* ---------------------------------------------------------------- *)
(* traced: per-layer metrics                                         *)
(* ---------------------------------------------------------------- *)

let ms f = 1000. *. f
let timed_ms name f = snd (Span.time_ms name f)
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* the round-1 cones exactly as the flow selects them: K = 3 worst
   gate-disjoint windows of at most 48 gates, each with its window
   constraint (window delay plus the slack at its tail gate), kept only
   when that constraint asks for a speed-up *)
let round1_cones ~tc nl =
  let timing = Timing.analyze ~lib nl in
  let slacks = Timing.slacks_make timing ~tc in
  let sel = Paths.incr_make nl slacks in
  Paths.k_worst_incr ~k:3 ~max_cone:48 ~lib sel
  |> List.filter_map (fun (ex : Paths.extracted) ->
         let sizing =
           Array.of_list (List.map (fun id -> (N.node nl id).N.cin) ex.Paths.nodes)
         in
         let tail = List.fold_left (fun _ id -> id) (-1) ex.Paths.nodes in
         let wd = Path.delay_worst ex.Paths.path sizing in
         let slack = Timing.node_slack slacks tail in
         let wtc = if Float.is_nan slack then wd else wd +. slack in
         if wtc < wd then Some (ex, wtc) else None)

(* sta layer on one netlist: analyze, slacks, cone selection *)
let sta_probe ~tc nl =
  let timing, analyze = Span.time_ms "sta.analyze" (fun () -> Timing.analyze ~lib nl) in
  let slacks, slacks_ms =
    Span.time_ms "sta.slacks" (fun () -> Timing.slacks_make timing ~tc)
  in
  let select =
    timed_ms "sta.select" (fun () ->
        Paths.k_worst_incr ~k:3 ~max_cone:48 ~lib (Paths.incr_make nl slacks))
  in
  (analyze, slacks_ms, select)

let core_probe cones =
  let paths = List.map (fun ((ex : Paths.extracted), wtc) -> (ex.Paths.path, wtc)) cones in
  let each name f = timed_ms name (fun () -> List.iter f paths) in
  Bounds.clear_cache ();
  let bounds = each "core.bounds" (fun (p, _) -> ignore (Bounds.compute p)) in
  let infeasible =
    List.length (List.filter (fun (p, wtc) -> wtc < Bounds.tmin p) paths)
  in
  let size = each "core.size" (fun (p, wtc) -> ignore (Sens.size_for_constraint p ~tc:wtc)) in
  let buffers =
    each "core.buffers" (fun (p, wtc) ->
        ignore (Buffers.insert_global ~objective:`Tmin ~lib p);
        ignore (Buffers.insert_global ~objective:(`Area_at wtc) ~lib p))
  in
  let restructure =
    each "core.restructure" (fun (p, wtc) -> ignore (Restructure.optimize ~lib p ~tc:wtc))
  in
  Bounds.clear_cache ();
  let s0 = Sens.sweeps_performed () in
  let protocol =
    each "core.protocol" (fun (p, wtc) ->
        ignore (Protocol.run ~allow_restructure:true ~lib ~tc:wtc p))
  in
  let sweeps = Sens.sweeps_performed () - s0 in
  Bounds.clear_cache ();
  let fanout =
    timed_ms "core.fanout" (fun () ->
        ignore
          (Pool.map_list_contained
             (fun (p, wtc) -> Protocol.run ~allow_restructure:true ~lib ~tc:wtc p)
             paths))
  in
  [ ("core.cones", float_of_int (List.length cones));
    ("core.infeasible_cones", float_of_int infeasible);
    ("core.bounds_ms", bounds); ("core.size_ms", size);
    ("core.buffers_ms", buffers); ("core.restructure_ms", restructure);
    ("core.protocol_ms", protocol); ("core.fanout_ms", fanout);
    ("core.sweeps", float_of_int sweeps) ]

(* the round-1 sizing of every cone written back, then the incremental
   re-time the next round would pay *)
let update_probe ~tc nl cones =
  let nl = N.copy nl in
  let timing = Timing.analyze ~lib nl in
  let slacks = Timing.slacks_make timing ~tc in
  List.iter
    (fun ((ex : Paths.extracted), wtc) ->
      let sizing =
        match Sens.size_for_constraint ex.Paths.path ~tc:wtc with
        | Ok r -> r.Sens.sizing
        | Error (`Infeasible _) ->
          let _, x, _ = Sens.minimum_delay ex.Paths.path in
          x
      in
      Paths.apply_sizing nl ex.Paths.nodes sizing)
    cones;
  timed_ms "sta.update" (fun () ->
      Timing.update timing;
      Timing.slacks_update slacks)

let vt_half_ms ctx spec ~gates =
  let nl, tc = setup ctx spec ~gates:(gates / 2) in
  match report_of (optimize spec ~tc nl) with
  | Some { Flow.vt = Some v; _ } -> v.Vt_assign.ms
  | _ -> Float.nan

let traced ctx spec =
  let gates = gates ctx spec in
  let (pristine, tc), _ = Span.time "setup" (fun () -> setup ctx spec ~gates) in
  let nl = N.copy pristine in
  Gc.compact ();
  let t0 = Unix.times () in
  let outcome, secs = Span.time "optimize" (fun () -> optimize spec ~tc nl) in
  let t1 = Unix.times () in
  let failures = check ~spec ~op:"optimize-0" ~corrupt:ctx.corrupt nl outcome in
  let cpu =
    t1.Unix.tms_utime -. t0.Unix.tms_utime +. t1.Unix.tms_stime -. t0.Unix.tms_stime
  in
  let flow_metrics =
    match report_of outcome with
    | None -> []
    | Some r ->
      let rounds =
        List.fold_left (fun a (it : Flow.iteration) -> max a it.Flow.round) 0
          r.Flow.iterations
      in
      let vt_ms, vt_acc, vt_rej, vt_rounds =
        match r.Flow.vt with
        | Some v ->
          ( v.Vt_assign.ms, v.Vt_assign.accepted, v.Vt_assign.rejected,
            v.Vt_assign.rounds )
        | None -> (0., 0, 0, 0)
      in
      [ ("flow.rounds", float_of_int rounds);
        ("flow.round_ms", r.Flow.loop_ms /. float_of_int (max 1 rounds));
        ("flow.analysis_ms", r.Flow.analysis_ms);
        ("flow.protocol_ms", r.Flow.protocol_ms);
        ("flow.apply_ms",
         r.Flow.loop_ms -. r.Flow.analysis_ms -. r.Flow.protocol_ms -. vt_ms);
        ("flow.check_ms", ms secs -. r.Flow.loop_ms);
        ("flow.stale", float_of_int r.Flow.stale_decisions);
        ("flow.buffers", float_of_int r.Flow.buffers_added);
        ("flow.rewrites", float_of_int r.Flow.rewrites);
        ("flow.cpu_util", cpu /. secs);
        ("flow.vt_ms", vt_ms);
        ("flow.vt_accepted", float_of_int vt_acc);
        ("flow.vt_rejected", float_of_int vt_rej);
        ("flow.vt_rounds", float_of_int vt_rounds);
        ("trace.optimize_s", secs) ]
      @
      if spec.vt then
        (* the pass's growth: exponent of its time from half size to
           full size (2 is quadratic) *)
        let half_ms = fst (Span.time "vt.half" (fun () -> vt_half_ms ctx spec ~gates)) in
        [ ("flow.vt_exponent", Float.log2 (vt_ms /. half_ms)) ]
      else []
  in
  let cones = round1_cones ~tc pristine in
  let a0, s0, sel0 = sta_probe ~tc pristine in
  let a1, s1, sel1 = sta_probe ~tc nl in
  let update = update_probe ~tc pristine cones in
  let text = Bench_io.to_string pristine in
  let layer =
    [ ("sta.analyze_ms", mean [ a0; a1 ]); ("sta.slacks_ms", mean [ s0; s1 ]);
      ("sta.select_ms", mean [ sel0; sel1 ]); ("sta.update_ms", update);
      ("netlist.copy_ms", timed_ms "netlist.copy" (fun () -> ignore (N.copy pristine)));
      ("netlist.validate_ms",
       timed_ms "netlist.validate" (fun () -> ignore (N.validate_diags pristine)));
      ("netlist.equivalent_ms",
       timed_ms "netlist.equivalent" (fun () -> ignore (Logic.equivalent pristine nl)));
      ("netlist.parse_ms",
       timed_ms "netlist.parse" (fun () -> ignore (Bench_io.parse tech text))) ]
    @ core_probe cones
  in
  {
    metrics = flow_metrics @ layer;
    attempted = 1;
    failures;
    info =
      [ ("circuit",
         Printf.sprintf "%s/%d name %s" (G.scale_shape_name spec.shape) gates
           spec.circuit);
        ("tc_ps", Printf.sprintf "%.3f" tc);
        ("outcome",
         match report_of outcome with
         | Some r -> Flow.outcome_to_string r.Flow.outcome
         | None -> "failed") ];
  }

let run ctx name =
  let spec = List.assoc name specs in
  if ctx.trace then traced ctx spec else measure ctx spec
