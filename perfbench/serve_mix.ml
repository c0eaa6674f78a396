(* serve_mix: an open loop over `pops serve --socket` from one
   single-threaded client.

   The stream interleaves three parts, one third each:
   optimize jobs on the paper's profile circuits (tc_ratio 0.9, every
   other one with the Vt pass), analyze jobs on a generated netlist
   relabeled afresh for each request (parsed-netlist cache misses), and
   analyze jobs on a small pool of repeated netlists (cache hits).
   These shares are an assumption, not a measurement: no recorded
   traffic exists to take them from (README.md says more).  Requests go
   out on a fixed schedule whatever the server does; each one is timed
   from when it was due to when its result line is read.

   The nominal rate gives the latency metrics; an overload rung, offered
   far faster than the server can serve, then gives the rate it serves
   at when saturated.  Afterwards the same streams are replayed in
   process through Session.decode, Engine and Job.to_json (times off):
   every result line, with its "ms" field removed, must equal the
   replayed one. *)

open Common
module Json = Pops_serve.Json
module Job = Pops_serve.Job
module Engine = Pops_serve.Engine
module Session = Pops_serve.Session
module Cache = Pops_serve.Cache
module G = Pops_netlist.Generator
module Bench_io = Pops_netlist.Bench_io
module Profiles = Pops_circuits.Profiles
module Timing = Pops_sta.Timing
module Flow = Pops_flow.Flow
module Vt_assign = Pops_flow.Vt_assign
module Outcome = Pops_robust.Outcome

(* At the nominal rate a request arrives every 100 ms, above the
   slowest optimize jobs (50 to 110 ms on two cores), so the nominal
   latencies are service times plus the little queueing the mix makes.

   The overload rung offers 160 jobs/s, about twice what the mix is
   served at on two cores (45 to 70 jobs/s), and sends 24 requests per
   profile circuit (264): eight passes over the profiles, each profile
   four times with and four times without the Vt pass.  The server then
   works through a backlog of up to about 150 requests, below its queue
   limit of 256, for some four seconds.  With half as many requests the
   saturated rate moved by a third from run to run. *)
let nominal_rate = 10.
let overload_rate = 160.
let gen_gates ctx = if ctx.small then 200 else 1000
let hit_pool = 4

(* a set-up (payloads and a fresh server) takes 0.5 to 1 s and moves by
   a third with the host *)
let setup_reps = 11

type kind = Optimize | Miss | Hit

let kind_name = function Optimize -> "optimize" | Miss -> "miss" | Hit -> "hit"

type request = {
  kind : kind;
  profile : int;  (** index into Profiles.all, -1 unless Optimize *)
  bench : string;  (** the netlist text the request carries *)
  line : string;
}

(* ---------------------------------------------------------------- *)
(* payloads                                                          *)
(* ---------------------------------------------------------------- *)

let job_line fields = Json.to_string (Json.Obj fields) ^ "\n"

(* The analyze payloads are fixed circuits under a seeded relabeling
   (relabel.ml), so every seed, and every miss request, sends a netlist
   of the same cost.  Generated circuits of different names differ in
   parse and STA cost, which moved the latencies from seed to seed. *)
let circuit ctx name = G.generate_scale tech ~name ~gates:(gen_gates ctx) ~shape:G.Iscas
let relabeled ~seed nl = Bench_io.to_string (Relabel.relabel ~seed nl)

let profile_texts () =
  Array.of_list
    (List.map
       (fun p -> Bench_io.to_string (fst (Profiles.circuit tech p)))
       Profiles.all)

(* [n] requests of rung [phase]: the three parts in turn, the optimize
   jobs taking the profile circuits in turn and the hit jobs the
   repeated netlists.  The seed only relabels the analyze payloads: an
   overloaded server works through its backlog in windows, and the
   order of the optimize jobs decides how well a window's jobs share
   the two domains; with the first profile picked by the seed, the
   saturated rate ranged from 48 to 87 jobs/s across five seeds. *)
let stream ctx ~profiles ~miss ~hits ~phase n =
  let kinds = Array.init n (fun i -> match i mod 3 with 0 -> Optimize | 1 -> Miss | _ -> Hit) in
  let np = Array.length profiles in
  let opt = ref 0 and hit = ref 0 in
  Array.mapi
    (fun i kind ->
      let id = Json.Str (Printf.sprintf "%s-%d-%d" (kind_name kind) phase i) in
      let profile = if kind = Optimize then !opt mod np else -1 in
      let bench, action =
        match kind with
        | Optimize ->
          let k = !opt in
          incr opt;
          ( profiles.(profile),
            [ ("action", Json.Str "optimize"); ("tc_ratio", Json.Num 0.9);
              (* alternate, and swap the parity each cycle through the
                 profiles, so every profile runs both ways *)
              ("vt_assign", Json.Bool (((k mod np) + (k / np)) mod 2 = 1)) ] )
        | Miss ->
          ( relabeled ~seed:(Hashtbl.hash (ctx.seed, phase, i)) miss,
            [ ("action", Json.Str "analyze") ] )
        | Hit ->
          incr hit;
          (hits.(!hit mod Array.length hits), [ ("action", Json.Str "analyze") ])
      in
      let line = job_line ((("id", id) :: action) @ [ ("bench", Json.Str bench) ]) in
      { kind; profile; bench; line })
    kinds

(* ---------------------------------------------------------------- *)
(* the server process                                                *)
(* ---------------------------------------------------------------- *)

let live = ref []

let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit stop_all

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | k ->
      Buffer.add_subbytes b chunk 0 k;
      go ()
  in
  go ()

(* one health job on its own connection; its result line, or None when
   the server cannot answer within 30 s *)
let health path =
  match connect path with
  | None -> None
  | Some fd -> (
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
      write_all fd "{\"action\":\"health\"}\n";
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      match String.split_on_char '\n' (read_all fd) with
      | first :: _ -> Result.to_option (Json.parse first)
      | [] -> None
    with Unix.Unix_error _ -> None)

type server = { pid : int; sock : string }

let servers_started = ref 0

let start_server () =
  incr servers_started;
  let sock =
    Filename.concat out_dir
      (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !servers_started)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat out_dir "serve.log")
      ([ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      @ if !servers_started = 1 then [ Unix.O_TRUNC ] else [])
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let env =
    Array.append
      [| Printf.sprintf "POPS_DOMAINS=%d" pool_size |]
      (Array.of_list
         (List.filter
            (fun v ->
              not (String.starts_with ~prefix:"POPS_DOMAINS=" v
                   || String.starts_with ~prefix:"POPS_FAULT=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env pops_exe [| pops_exe; "serve"; "--socket"; sock |] env null null log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  (* ready when a health job is answered *)
  let t0 = Span.now_ns () in
  let rec wait () =
    if Span.seconds_between t0 (Span.now_ns ()) > 60. then
      failwith "serve_mix: the server did not answer a health job within 60 s"
    else
      match if Sys.file_exists sock then health sock else None with
      | Some _ -> ()
      | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve_mix: the server exited during start-up");
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  { pid; sock }

(* SIGTERM drains the server; it must exit 0 *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let _, status = Unix.waitpid [] s.pid in
  live := List.filter (( <> ) s.pid) !live;
  match status with Unix.WEXITED 0 -> None | _ -> Some "server did not exit 0 on SIGTERM"

(* ---------------------------------------------------------------- *)
(* the open-loop client                                              *)
(* ---------------------------------------------------------------- *)

type phase = {
  rate : float;
  requests : request array;
  sent : int;  (** requests sent *)
  due_ns : int64 array;
  recv_ns : int64 option array;
  lines : string option array;
  duplicates : int list;
  lag_ms : float list;
  summary : string option;  (** the session's summary line *)
}

(* a server silent this long after the last request is given up on;
   its missing lines fail their checks *)
let silence_limit_ns = 60_000_000_000L

let open_loop path ~rate requests =
  let n = Array.length requests in
  let fd =
    match connect path with Some fd -> fd | None -> failwith "serve_mix: connect failed"
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.set_nonblock fd;
  let t0 = Int64.add (Span.now_ns ()) 20_000_000L in
  let due_ns = Array.init n (fun k -> Int64.add t0 (Int64.of_float (float_of_int k /. rate *. 1e9))) in
  let recv_ns = Array.make n None and lines = Array.make n None in
  let duplicates = ref [] and lag = ref [] and summary = ref None in
  let next = ref 0 and eof_sent = ref false in
  let out = ref "" and out_pos = ref 0 in
  let inbuf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let closed = ref false and heard = ref (Span.now_ns ()) in
  let on_line now line =
    match Json.parse line with
    | Ok j when Json.member "summary" j <> None -> summary := Some line
    | Ok j -> (
      match Option.bind (Json.member "seq" j) Json.to_int with
      | Some k when k >= 0 && k < n ->
        if recv_ns.(k) <> None then duplicates := k :: !duplicates
        else begin
          recv_ns.(k) <- Some now;
          lines.(k) <- Some line
        end
      | _ -> duplicates := -1 :: !duplicates)
    | Error _ -> duplicates := -1 :: !duplicates
  in
  while not !closed do
    let now = Span.now_ns () in
    while !next < n && Int64.compare due_ns.(!next) now <= 0 do
      out := String.sub !out !out_pos (String.length !out - !out_pos) ^ requests.(!next).line;
      out_pos := 0;
      lag := (Int64.to_float (Int64.sub now due_ns.(!next)) /. 1e6) :: !lag;
      incr next
    done;
    if !next = n && !out_pos = String.length !out && not !eof_sent then begin
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      eof_sent := true
    end;
    let timeout =
      if !next < n then
        Float.min 0.05 (Float.max 0. (Int64.to_float (Int64.sub due_ns.(!next) now) /. 1e9))
      else 0.05
    in
    if !eof_sent && Int64.sub now !heard > silence_limit_ns then closed := true;
    let wr = if !out_pos < String.length !out then [ fd ] else [] in
    let r, w, _ =
      try Unix.select [ fd ] wr [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if w <> [] then begin
      match Unix.write_substring fd !out !out_pos (String.length !out - !out_pos) with
      | k -> out_pos := !out_pos + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end;
    if r <> [] then begin
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> closed := true
      | k ->
        let now = Span.now_ns () in
        heard := now;
        Buffer.add_subbytes inbuf chunk 0 k;
        let s = Buffer.contents inbuf in
        let parts = String.split_on_char '\n' s in
        let rec take = function
          | [ rest ] ->
            Buffer.clear inbuf;
            Buffer.add_string inbuf rest
          | l :: tl ->
            on_line now l;
            take tl
          | [] -> ()
        in
        take parts
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end
  done;
  { rate; requests; sent = !next; due_ns; recv_ns; lines;
    duplicates = !duplicates; lag_ms = !lag; summary = !summary }

let latency_ms p k =
  match p.recv_ns.(k) with
  | Some r -> Int64.to_float (Int64.sub r p.due_ns.(k)) /. 1e6
  | None -> Float.infinity

let latencies p = List.init p.sent (latency_ms p)

let line_field p k name =
  Option.bind p.lines.(k) (fun l ->
      Option.bind (Result.to_option (Json.parse l)) (Json.member name))

let num p k name = Option.bind (line_field p k name) Json.to_float
let str p k name = Option.bind (line_field p k name) Json.to_str

(* results over the time from the first request's due time to the
   last result: under overload, the rate the server serves at *)
let completed_rate p =
  let got = List.filter_map Fun.id (Array.to_list p.recv_ns) in
  let last = List.fold_left max p.due_ns.(0) got in
  float_of_int (List.length got) /. Span.seconds_between p.due_ns.(0) last

(* ---------------------------------------------------------------- *)
(* in-process replay: the expected result lines                      *)
(* ---------------------------------------------------------------- *)

type replayed = { expected : string; decode_ms : float; exec_ms : float; render_ms : float }

(* The nominal phase runs one job at a time, so each job's exec time is
   its own; later phases run in engine windows.  Results do not depend
   on the window (the engine's determinism contract). *)
let replay phases =
  let engine = Engine.create ~config:{ Engine.default_config with Engine.times = false } tech in
  List.mapi
    (fun pi p ->
      let req seq = (pi * 100_000) + seq in
      let window = if pi = 0 then 1 else Engine.default_config.Engine.window in
      let decoded =
        Array.init p.sent (fun seq ->
            Span.time_ms ~req:(req seq) "serve.decode" (fun () ->
                Session.decode ~seq p.requests.(seq).line))
      in
      let out = Array.make p.sent { expected = ""; decode_ms = 0.; exec_ms = 0.; render_ms = 0. } in
      let rec go lo =
        if lo < p.sent then begin
          let hi = min p.sent (lo + window) in
          let items = List.init (hi - lo) (fun i -> fst decoded.(lo + i)) in
          let results, exec_ms =
            Span.time_ms ~req:(req lo) "serve.exec" (fun () -> Session.run_items engine items)
          in
          List.iteri
            (fun i r ->
              let expected, render_ms =
                Span.time_ms ~req:(req (lo + i)) "serve.render" (fun () ->
                    Json.to_string (Job.to_json ~times:false r))
              in
              out.(lo + i) <-
                { expected; decode_ms = snd decoded.(lo + i);
                  exec_ms = exec_ms /. float_of_int (hi - lo); render_ms })
            results;
          go hi
        end
      in
      go 0;
      out)
    phases

let strip_ms line =
  match String.rindex_opt line ',' with
  | Some i when String.length line > i + 6 && String.sub line i 6 = ",\"ms\":" ->
    String.sub line 0 i ^ "}"
  | _ -> line

let bad_status = [ "failed"; "invalid"; "rejected"; "overloaded" ]

(* every failed check of every request of every phase *)
let check ctx phases replays =
  List.concat
    (List.mapi
       (fun pi (p, rs) ->
         List.concat
           (List.init p.sent (fun k ->
                let op = Printf.sprintf "request %d/%d" pi k in
                let expected =
                  if ctx.corrupt && pi = 0 && k = 0 then rs.(k).expected ^ " "
                  else rs.(k).expected
                in
                match p.lines.(k) with
                | None -> [ (op, "no result line") ]
                | Some line ->
                  List.concat
                    [ (if List.mem k p.duplicates then [ (op, "duplicate result line") ] else []);
                      (match str p k "status" with
                      | Some s when List.mem s bad_status -> [ (op, "status " ^ s) ]
                      | _ -> []);
                      (if strip_ms line <> expected then
                         [ (op, Printf.sprintf "line differs from replay: %s" (strip_ms line)) ]
                       else []) ]))
         @ (if List.mem (-1) p.duplicates then
              [ (Printf.sprintf "phase %d" pi, "unparseable or unmatched result line") ]
            else []))
       (List.combine phases replays))

(* ---------------------------------------------------------------- *)
(* the workload                                                      *)
(* ---------------------------------------------------------------- *)

(* The nominal rung takes the run budget: 250 requests at the run
   budget of 25 s, where 200 would be the fewest that leave ten samples
   beyond p95. *)
let per_phase ctx phase =
  if phase = 0 then max 30 (int_of_float (nominal_rate *. ctx.seconds))
  else 24 * List.length Profiles.all

let setup ctx ~phases =
  let profiles = profile_texts () in
  let miss = circuit ctx "serve-miss" in
  let hits =
    Array.init hit_pool (fun k ->
        relabeled ~seed:ctx.seed (circuit ctx (Printf.sprintf "serve-hit-%d" k)))
  in
  let streams =
    List.init phases (fun phase -> stream ctx ~profiles ~miss ~hits ~phase (per_phase ctx phase))
  in
  let server = start_server () in
  (profiles, streams, server)

(* The Vt layer as the Vt optimize jobs use it: per profile circuit, the
   payload they send parsed as the server parses it and optimized at
   the same Tc with the Vt pass; the pass's time and rounds from
   report.vt, summed over the profiles. *)
let vt_probe profiles =
  Array.fold_left
    (fun (ms, rounds) text ->
      match Bench_io.parse tech text with
      | Error _ -> (Float.nan, rounds)
      | Ok (nl, _) -> (
        let tc = 0.9 *. Timing.critical_delay (Timing.analyze ~lib nl) in
        let outcome, _ =
          Span.time "flow.vt_job" (fun () -> Flow.optimize_o ~vt_assign:true ~lib ~tc nl)
        in
        match outcome with
        | Outcome.Exact { Flow.vt = Some v; _ } | Outcome.Degraded ({ Flow.vt = Some v; _ }, _) ->
          (ms +. v.Vt_assign.ms, rounds + v.Vt_assign.rounds)
        | _ -> (Float.nan, rounds)))
    (0., 0) profiles

let med xs = Stats.median (List.filter Float.is_finite xs)

let run ctx =
  let phases_planned = if ctx.trace then 1 else 2 in
  (* set up several times; each server but the last is stopped before
     the next set-up *)
  let setup_s, (profiles, streams, server) =
    repeat_setup setup_reps
      ~release:(fun (_, _, s) -> ignore (stop_server s))
      (fun () -> setup ctx ~phases:phases_planned)
  in
  let phase ~rate requests =
    fst (Span.time "client.phase" (fun () -> open_loop server.sock ~rate requests))
  in
  let nominal = phase ~rate:nominal_rate (List.hd streams) in
  (* the server's peak memory is read after the nominal rung, before
     overload inflates it *)
  let server_rss = Stats.peak_rss_mb (string_of_int server.pid) in
  let phases = nominal :: List.map (phase ~rate:overload_rate) (List.tl streams) in
  let after = health server.sock in
  let server_cpu = Stats.cpu_seconds server.pid in
  let stop_failure = stop_server server in
  Gc.compact ();
  let replays, replay_s = Span.time "replay" (fun () -> replay phases) in
  let failures =
    check ctx phases replays
    @ (match stop_failure with Some m -> [ ("server", m) ] | None -> [])
  in
  let attempted = List.fold_left (fun a p -> a + p.sent) 0 phases in
  (* nominal-phase views *)
  let ks kind = List.filter (fun k -> nominal.requests.(k).kind = kind) (List.init nominal.sent Fun.id) in
  let opt = ks Optimize in
  let ratio a b k =
    match (num nominal k a, num nominal k b) with
    | Some x, Some y -> x /. y
    | _ -> Float.nan
  in
  let with_vt k = line_field nominal k "leakage_after_uw" <> None in
  (* the median over profiles of each profile's median: every seed
     weighs the paper's circuits alike *)
  let over_profiles f ks =
    let by = Hashtbl.create 16 in
    List.iter
      (fun k ->
        let p = nominal.requests.(k).profile in
        Hashtbl.replace by p (f k :: Option.value (Hashtbl.find_opt by p) ~default:[]))
      ks;
    med (Hashtbl.fold (fun _ xs acc -> med xs :: acc) by [])
  in
  let nominal_replay = List.hd replays in
  let lat = latencies nominal in
  let spans_for_requests () =
    List.iteri
      (fun pi p ->
        for k = 0 to p.sent - 1 do
          match p.recv_ns.(k) with
          | Some r -> Span.record ~req:((pi * 100_000) + k) "client.request" p.due_ns.(k) r
          | None -> ()
        done)
      phases
  in
  spans_for_requests ();
  let info =
    [ ("rungs",
       String.concat "; "
         (List.map
            (fun p ->
              Printf.sprintf "%g jps: sent %d, p50 %.1f ms, p95 %.1f ms, completed %.2f jps"
                p.rate p.sent (Stats.median (latencies p))
                (Stats.percentile 95. (latencies p)) (completed_rate p))
            phases));
      ("request_shares",
       String.concat " "
         (List.map
            (fun kind ->
              Printf.sprintf "%s %.3f" (kind_name kind)
                (float_of_int (List.length (ks kind)) /. float_of_int nominal.sent))
            [ Optimize; Miss; Hit ]));
      ("latency_by_part",
       String.concat "; "
         (List.map
            (fun kind ->
              let l = List.map (latency_ms nominal) (ks kind) in
              Printf.sprintf "%s p50 %.1f ms, p95 %.1f ms" (kind_name kind) (Stats.median l)
                (Stats.percentile 95. l))
            [ Optimize; Miss; Hit ]));
      ("requests_nominal", string_of_int (per_phase ctx 0));
      ("generated_gates", string_of_int (gen_gates ctx));
      ("replay_s", Printf.sprintf "%.3f" replay_s);
      ("session_summary", Option.value nominal.summary ~default:"none") ]
  in
  let metrics =
    if not ctx.trace then
      [ ("setup_s", setup_s);
        ("optimize_s",
         over_profiles (fun k -> nominal_replay.(k).exec_ms) opt /. 1000.);
        ("area_ratio",
         over_profiles (ratio "final_area_um" "initial_area_um")
           (List.filter (fun k -> not (with_vt k)) opt));
        ("delay_ratio",
         over_profiles (ratio "final_delay_ps" "tc_ps")
           (List.filter (fun k -> not (with_vt k)) opt));
        ("leakage_ratio",
         over_profiles (ratio "leakage_after_uw" "leakage_before_uw")
           (List.filter with_vt opt));
        ("peak_rss_mb", server_rss);
        ("ok_share",
         float_of_int (attempted - failed_ops failures) /. float_of_int attempted);
        ("latency_p50_ms", Stats.median lat);
        ("latency_p95_ms", Stats.percentile 95. lat);
        ("max_rate_jps",
         match phases with
         | [ _; overload ] -> completed_rate overload
         | _ -> Float.nan) ]
    else begin
      let rs = nominal_replay in
      let by kind f = med (List.map (fun k -> f rs.(k)) (ks kind)) in
      (* parse and cache cost on the first miss payloads, fresh cache *)
      let texts =
        List.filteri (fun i _ -> i < 20)
          (List.map (fun k -> nominal.requests.(k).bench) (ks Miss))
      in
      let cache = Cache.create ~capacity:64 tech in
      let fetch name t = snd (Span.time_ms name (fun () -> ignore (Cache.fetch cache t))) in
      let miss = List.map (fetch "serve.cache_miss") texts in
      let hit = List.map (fetch "serve.cache_hit") texts in
      let parse =
        List.map (fun t -> snd (Span.time_ms "netlist.parse" (fun () -> ignore (Bench_io.parse tech t)))) texts
      in
      let stat s = List.length (List.filter (fun k -> str nominal k "status" = Some s) (List.init nominal.sent Fun.id)) in
      let cache_counter name =
        Option.bind after (fun h ->
            Option.bind (Json.member "netlist_cache" h) (fun c ->
                Option.bind (Json.member name c) Json.to_float))
      in
      (* each part's share of the in-process execution time *)
      let exec kinds =
        List.fold_left (fun a kind -> List.fold_left (fun a k -> a +. rs.(k).exec_ms) a (ks kind))
          0. kinds
      in
      let share kind = exec [ kind ] /. exec [ Optimize; Miss; Hit ] in
      (* Vt passes of the Vt optimize jobs on the socket, one per
         profile circuit *)
      let per_profile_vt name =
        let by = Hashtbl.create 16 in
        List.iter
          (fun k ->
            match num nominal k name with
            | Some v -> Hashtbl.replace by nominal.requests.(k).profile v
            | None -> ())
          opt;
        Hashtbl.fold (fun _ v a -> a +. v) by 0.
      in
      let vt_ms, vt_rounds = vt_probe profiles in
      [ ("serve.cache_miss_ms", med miss); ("serve.cache_hit_ms", med hit);
        ("netlist.parse_ms", med parse);
        ("serve.hit_rate",
         (match (cache_counter "hits", cache_counter "misses") with
         | Some h, Some m -> h /. (h +. m)
         | _ -> Float.nan));
        ("serve.wait_ms",
         med (List.init nominal.sent (fun k ->
                  match num nominal k "ms" with
                  | Some ms -> latency_ms nominal k -. ms
                  | None -> Float.nan)));
        ("serve.exec_analyze_ms", by Hit (fun r -> r.exec_ms));
        ("serve.exec_optimize_ms", by Optimize (fun r -> r.exec_ms));
        ("serve.decode_ms", med (Array.to_list (Array.map (fun r -> r.decode_ms) rs)));
        ("serve.render_ms", med (Array.to_list (Array.map (fun r -> r.render_ms) rs)));
        ("serve.server_cpu_s", server_cpu);
        ("serve.share_optimize", share Optimize); ("serve.share_miss", share Miss);
        ("serve.share_hit", share Hit);
        ("flow.vt_ms", vt_ms); ("flow.vt_rounds", float_of_int vt_rounds);
        ("flow.vt_accepted", per_profile_vt "vt_accepted");
        ("flow.vt_rejected", per_profile_vt "vt_rejected");
        ("serve.status_ok", float_of_int (stat "ok"));
        ("serve.status_degraded", float_of_int (stat "degraded"));
        ("serve.status_unmet", float_of_int (stat "unmet"));
        ("serve.status_other", float_of_int (nominal.sent - stat "ok" - stat "degraded" - stat "unmet"));
        ("loadgen.lag_p95_ms", Stats.percentile 95. nominal.lag_ms);
        ("trace.latency_p50_ms", Stats.median lat) ]
    end
  in
  { metrics; attempted; failures; info }
