(* The POPS benchmark.

     pops_bench --workload NAME --seed N --seconds S --trace 0|1
                [--small] [--corrupt]

   Prints every metric of the run by name with its unit, then one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
   (--trace 0) give the end-to-end metrics, traced runs (--trace 1) the
   per-layer ones.  A stamped copy of the result goes to perfbench/out.
   Exits 1 when any correctness check failed, 2 on a usage error.  Run
   it from the root of a checkout through run.sh, which builds it and
   bin/pops_cli.exe first; README.md has the details. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("optimize_s", "s"); ("area_ratio", "ratio");
    ("delay_ratio", "ratio"); ("leakage_ratio", "ratio");
    ("peak_rss_mb", "MB"); ("ok_share", "share"); ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms"); ("max_rate_jps", "1/s") ]

let per_layer =
  [ ("flow.rounds", "count"); ("flow.round_ms", "ms");
    ("flow.analysis_ms", "ms"); ("flow.protocol_ms", "ms");
    ("flow.apply_ms", "ms"); ("flow.check_ms", "ms"); ("flow.stale", "count");
    ("flow.buffers", "count"); ("flow.rewrites", "count");
    ("flow.cpu_util", "ratio"); ("flow.vt_ms", "ms");
    ("flow.vt_accepted", "count"); ("flow.vt_rejected", "count");
    ("flow.vt_rounds", "count"); ("flow.vt_exponent", "ratio");
    ("core.cones", "count"); ("core.infeasible_cones", "count");
    ("core.protocol_ms", "ms"); ("core.fanout_ms", "ms");
    ("core.bounds_ms", "ms"); ("core.size_ms", "ms");
    ("core.buffers_ms", "ms"); ("core.restructure_ms", "ms");
    ("core.sweeps", "count"); ("sta.analyze_ms", "ms");
    ("sta.slacks_ms", "ms"); ("sta.select_ms", "ms"); ("sta.update_ms", "ms");
    ("netlist.equivalent_ms", "ms"); ("netlist.copy_ms", "ms");
    ("netlist.validate_ms", "ms"); ("netlist.parse_ms", "ms");
    ("serve.cache_miss_ms", "ms"); ("serve.cache_hit_ms", "ms");
    ("serve.hit_rate", "share"); ("serve.wait_ms", "ms");
    ("serve.exec_analyze_ms", "ms"); ("serve.exec_optimize_ms", "ms");
    ("serve.decode_ms", "ms"); ("serve.render_ms", "ms");
    ("serve.server_cpu_s", "s"); ("serve.share_optimize", "share");
    ("serve.share_miss", "share"); ("serve.share_hit", "share");
    ("serve.status_ok", "count"); ("serve.status_degraded", "count");
    ("serve.status_unmet", "count"); ("serve.status_other", "count");
    ("loadgen.lag_p95_ms", "ms"); ("trace.optimize_s", "s");
    ("trace.latency_p50_ms", "ms") ]

let workloads =
  List.map fst Flows.specs @ [ "serve_mix" ]

(* ---------------------------------------------------------------- *)
(* stamp                                                             *)
(* ---------------------------------------------------------------- *)

(* stdout of a command, or None when it cannot run or fails *)
let capture prog args =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> None
  | rd, wr -> (
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    match Unix.create_process prog (Array.of_list (prog :: args)) null wr null with
    | exception Unix.Unix_error _ ->
      List.iter Unix.close [ rd; wr; null ];
      None
    | pid ->
      Unix.close wr;
      Unix.close null;
      let ic = Unix.in_channel_of_descr rd in
      let out = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Some (String.trim out)
      | _ -> None)

(* MD5 over the library and binary sources, so a result from a checkout
   that is not a git repository still names the code it measured *)
let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then walk p
             else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
             then [ p ]
             else [])
  in
  match walk "lib" @ walk "bin" with
  | [] -> "none"
  | files -> Digest.to_hex (Digest.string (String.concat "\000" (List.map Digest.file files)))

let json_str s = Pops_serve.Json.to_string (Pops_serve.Json.Str s)

(* every digit of the measured value, unrounded *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n)
             (json_num v) (json_str u))
         ms)
  ^ "}"

(* ---------------------------------------------------------------- *)
(* main                                                              *)
(* ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: pops_bench --workload NAME --seed N --seconds S --trace 0|1 \
     [--small] [--corrupt]";
  Printf.eprintf "workloads: %s\n" (String.concat ", " workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and small = ref false and corrupt = ref false in
  let rec args = function
    | "--workload" :: v :: r -> workload := v; args r
    | "--seed" :: v :: r -> seed := Option.value (int_of_string_opt v) ~default:(-1); args r
    | "--seconds" :: v :: r -> seconds := Option.value (float_of_string_opt v) ~default:0.; args r
    | "--trace" :: v :: r -> trace := Option.value (int_of_string_opt v) ~default:(-1); args r
    | "--small" :: r -> small := true; args r
    | "--corrupt" :: r -> corrupt := true; args r
    | [] -> ()
    | a :: _ -> Printf.eprintf "pops_bench: unknown argument %s\n" a; usage ()
  in
  args (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) || !seed < 0 || !seconds <= 0.
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* a signal still runs the at_exit hooks that stop the server *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Pops_util.Pool.set_default_size pool_size;
  let ctx =
    { seed = !seed; seconds = !seconds; trace = !trace = 1; small = !small;
      corrupt = !corrupt }
  in
  Span.enabled := ctx.trace;
  let r =
    if !workload = "serve_mix" then Serve_mix.run ctx
    else Flows.run ctx !workload
  in
  let declared = if ctx.trace then per_layer else end_to_end in
  (* a per-layer metric of a layer this workload does not exercise reads
     0 and is listed as not applicable; a missing end-to-end metric is a
     harness bug *)
  let missing = List.filter (fun (n, _) -> not (List.mem_assoc n r.metrics)) declared in
  if (not ctx.trace) && missing <> [] then begin
    Printf.eprintf "pops_bench: no value for %s\n"
      (String.concat ", " (List.map fst missing));
    exit 2
  end;
  let values =
    List.map
      (fun (n, u) -> (n, u, Option.value (List.assoc_opt n r.metrics) ~default:0.))
      declared
  in
  let failed = failed_ops r.failures in
  let correct = failed = 0 && List.for_all (fun (_, _, v) -> Float.is_finite v) values in
  let mode = (if ctx.trace then "traced" else "untraced") ^ if ctx.small then "-small" else "" in
  let stamp =
    [ ("workload", !workload); ("seed", string_of_int ctx.seed); ("mode", mode);
      ("seconds", Printf.sprintf "%g" ctx.seconds);
      ("git_rev", Option.value (capture "git" [ "rev-parse"; "HEAD" ]) ~default:"unknown");
      ("source_md5", source_digest ());
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("pool_size", string_of_int (Pops_util.Pool.default_size ()));
      ("verdict", if correct then "pass" else "FAIL") ]
    @ r.info
    @ [ ("not_applicable", String.concat " " (List.map fst missing)) ]
  in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) stamp;
  List.iter (fun (op, m) -> Printf.printf "# FAILED %s: %s\n" op m) r.failures;
  List.iter (fun (n, u, v) -> Printf.printf "%-24s %s %s\n" n (json_num v) u) values;
  let stem =
    Printf.sprintf "%s/%s-seed%d-%s" out_dir !workload ctx.seed mode
  in
  let oc = open_out (stem ^ ".json") in
  Printf.fprintf oc "{%s,\n \"failures\": [%s],\n \"attempted\": %d, \"failed\": %d,\n \"metrics\": %s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) (json_str v)) stamp))
    (String.concat ", " (List.map (fun (op, m) -> json_str (op ^ ": " ^ m)) r.failures))
    r.attempted failed (metrics_json values);
  close_out oc;
  if ctx.trace then Span.write (stem ^ "-spans.ndjson");
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct r.attempted failed (metrics_json values);
  exit (if correct then 0 else 1)
