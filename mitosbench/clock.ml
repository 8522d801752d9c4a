(* CLOCK_MONOTONIC, in nanoseconds and in seconds. *)

external now_ns : unit -> int = "mitosbench_now_ns" [@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9

(* CPU time the hypervisor gave to other guests ("steal"), summed over
   this machine's CPUs, in seconds; nan where /proc/stat has no such
   column. The report prints it because on a shared host a burst of
   steal, not the program, is the usual reason a run reads slow. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> nan
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
      float_of_string steal /. 100.0
    | _ -> nan)

(* The share of the machine's CPU time stolen since [steal_s ()] read
   [steal0], over [elapsed] seconds of wall time. *)
let steal_share ~steal0 ~elapsed =
  let cpus = float_of_int (Domain.recommended_domain_count ()) in
  (steal_s () -. steal0) /. (elapsed *. cpus)
