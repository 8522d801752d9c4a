(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed by the benchmark around that
   call: a name, start and end (seconds, [Clock.now]), the span
   that caused it (-1 for a root), the request id every span of one
   request shares, and a lane (the connection or domain it ran on).
   Spans are only appended while the run is timed; they are folded into
   self times and written out as a Chrome trace after it ends.

   A recorder is single-writer: give each domain its own. *)

type span = {
  name : string;
  req : int;
  parent : int;
  lane : int;
  t0 : float;
  mutable t1 : float;
  mutable args : (string * float) list;
}

type t = { mutable spans : span array; mutable len : int; lane : int }

let dummy = { name = ""; req = 0; parent = -1; lane = 0; t0 = 0.0; t1 = 0.0; args = [] }

let create ?(lane = 0) () = { spans = Array.make 1024 dummy; len = 0; lane }

(* [start t ~name ~req ~parent t0] appends an open span and returns its
   id; close it with [finish]. *)
let start t ~name ~req ?(parent = -1) t0 =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- { name; req; parent; lane = t.lane; t0; t1 = t0; args = [] };
  t.len <- t.len + 1;
  t.len - 1

let finish t id ?(args = []) t1 =
  let s = t.spans.(id) in
  s.t1 <- t1;
  s.args <- args

(* A closed span in one call, for intervals already measured. *)
let add t ~name ~req ?parent ?args t0 t1 =
  let id = start t ~name ~req ?parent t0 in
  finish t id ?args t1;
  id

(* Per-name totals: (name, count, total seconds, self seconds), where a
   span's self time is its duration minus the part covered by its
   children, in first-seen order. *)
let self_times recorders =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let child = Array.make t.len 0.0 in
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        if s.parent >= 0 then
          child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
      done;
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        let dur = s.t1 -. s.t0 in
        let n, total, self =
          match Hashtbl.find_opt tbl s.name with
          | Some v -> v
          | None ->
            order := s.name :: !order;
            (0, 0.0, 0.0)
        in
        Hashtbl.replace tbl s.name (n + 1, total +. dur, self +. dur -. child.(i))
      done)
    recorders;
  List.rev_map
    (fun name ->
      let n, total, self = Hashtbl.find tbl name in
      (name, n, total, self))
    !order

(* Chrome trace-event JSON ("X" complete events, microseconds relative
   to the earliest span), loadable in chrome://tracing or Perfetto. *)
let write_chrome path recorders =
  let origin =
    List.fold_left
      (fun acc t ->
        if t.len = 0 then acc else Float.min acc t.spans.(0).t0)
      infinity recorders
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"id\":%d,\"parent\":%d"
          s.name s.lane
          ((s.t0 -. origin) *. 1e6)
          ((s.t1 -. s.t0) *. 1e6)
          s.req i s.parent;
        List.iter (fun (k, v) -> Printf.fprintf oc ",%S:%.17g" k v) s.args;
        output_string oc "}}"
      done)
    recorders;
  output_string oc "\n]}\n";
  close_out oc
