(* What every workload receives and returns. *)

type ctx = {
  seed : int;
  seconds : float;  (** measured time budget of the run *)
  trace : bool;  (** traced run: per-layer metrics instead of end-to-end *)
  small : bool;  (** reduced-size inputs, for the self-test *)
  corrupt : bool;
      (** perturb one expected result, to prove the checks can fail *)
}

type result = {
  metrics : (string * float) list;
  attempted : int;  (** operations (flow calls or serve requests) run *)
  failures : (string * string) list;
      (** (operation, reason) for every failed check; an operation
          that fails several checks is listed once per check *)
  info : (string * string) list;  (** stamped into the result file *)
}

let failed_ops failures =
  List.length (List.sort_uniq compare (List.map fst failures))

let tech = Pops_process.Tech.cmos025
let lib = Pops_cell.Library.make tech

(* the pool size every workload runs with, whatever the host reports *)
let pool_size = 2

(* where result, span and server log files go, under the checkout *)
let out_dir = "perfbench/out"

(* the pops binary run.sh builds *)
let pops_exe = "_build/default/bin/pops_cli.exe"

(* [n] timed set-ups, each after a full major collection.  Every result
   but the last is handed to [release] before the next set-up starts,
   so no set-up runs beside the leftovers of another.  Returns the
   median set-up time in seconds and the last result. *)
let repeat_setup ?(release = ignore) n setup =
  let rec go i times =
    Gc.full_major ();
    let r, s = Span.time "setup" setup in
    if i + 1 < n then begin
      release r;
      go (i + 1) (s :: times)
    end
    else (Stats.median (s :: times), r)
  in
  go 0 []
