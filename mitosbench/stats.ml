(* Order statistics over float samples. Every helper sorts a copy, so
   callers may keep appending to their sample buffers. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two closest ranks (the usual
   "type 7" definition): p = 0 is the minimum, p = 100 the maximum. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = sorted xs in
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)
  end

let median xs = percentile xs 50.0

(* Quartiles by the "exclusive" method (Python's
   [statistics.quantiles(xs, n=4)] default): cut point i sits at rank
   i(n+1)/4, interpolated, clamped to the data. Needs n >= 2. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let a = sorted xs in
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* Interquartile range as a share of the median: the spread the
   benchmark's bounds are judged against. *)
let relative_iqr xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then nan else (q3 -. q1) /. Float.abs q2

(* A growable float buffer for latency samples: appending never
   allocates except when the backing array doubles. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 1024) () =
    { data = Array.make (max 1 capacity) 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len

  let concat ts = Array.concat (List.map to_array ts)
end

(* -- measurement windows ------------------------------------------------- *)

(* A run is measured as consecutive windows of about half a second.
   The end-to-end figures pool the quiet windows (below): the rate is
   their work over their measured time, and the percentiles are over
   their samples. On a shared host the speed switches between a fast
   and a slow mode for seconds at a time; pooling averages the modes,
   where a median over windows would jump between them. *)

(* The decide workloads start one server instance per [server_s]
   seconds of a run. *)
let server_s = 2.0

let server_count seconds = max 1 (int_of_float (Float.round (seconds /. server_s)))

type window = {
  work : float;  (** units of work done *)
  elapsed : float;  (** seconds measured *)
  lat : float array;  (** latency samples, seconds *)
  steal : float;
      (** share of the machine's CPU time the hypervisor gave to other
          guests during the window; nan where the host does not say *)
}

let rate w = w.work /. w.elapsed

(* Host steal stalls a vCPU for milliseconds at a time, and a
   multi-domain server waits on every stalled domain at each
   stop-the-world collection, so a window with steal measures the
   neighbours more than the program. A window is quiet when at most
   [quiet_steal] of the CPU time was stolen: two 10 ms clock ticks of a
   half-second window on two CPUs. The figures pool the quiet windows,
   and at least the quarter of all windows with the least steal, so a
   run that never saw a quiet stretch still reports its calmest
   quarter. Where steal is unknown every window counts. *)
let quiet_steal = 0.02

let quiet ws =
  if Array.exists (fun w -> Float.is_nan w.steal) ws then ws
  else begin
    let by_steal = Array.copy ws in
    Array.stable_sort (fun a b -> Float.compare a.steal b.steal) by_steal;
    let calm = Array.fold_left (fun k w -> if w.steal <= quiet_steal then k + 1 else k) 0 ws in
    Array.sub by_steal 0 (max calm ((Array.length ws + 3) / 4))
  end

type figures = { rate : float; p50 : float; p99 : float; samples : int }

let pooled ws =
  let sum f = Array.fold_left (fun acc w -> acc +. f w) 0.0 ws in
  let lat = Array.concat (Array.to_list (Array.map (fun w -> w.lat) ws)) in
  {
    rate = sum (fun w -> w.work) /. sum (fun w -> w.elapsed);
    p50 = median lat;
    p99 = percentile lat 99.0;
    samples = Array.length lat;
  }
