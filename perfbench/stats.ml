(* Order statistics and process counters read from /proc. *)

let sorted xs = List.sort Float.compare xs

(* nearest-rank percentile, p in [0, 100]; NaN on an empty sample *)
let percentile p xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* VmHWM (peak resident set) of a process, MB; "self" for this one *)
let peak_rss_mb pid =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> float_of_string kb /. 1024.
        | [] -> acc)
      | _ -> acc)
    Float.nan
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

(* user + system CPU seconds of a process, from /proc/<pid>/stat
   (fields 14 and 15, in clock ticks; the comm field may hold spaces,
   so fields are counted after its closing parenthesis) *)
let cpu_seconds pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | l :: _ -> (
    let after = String.sub l (String.rindex l ')' + 2)
        (String.length l - String.rindex l ')' - 2) in
    match String.split_on_char ' ' after with
    | _state :: rest ->
      (* rest starts at field 4; utime is field 14, stime field 15 *)
      let f i = float_of_string (List.nth rest (i - 4)) in
      (f 14 +. f 15) /. 100.
    | [] -> Float.nan)
  | [] -> Float.nan
