module Netio = Mitos_obs.Netio
module Registry = Mitos_obs.Registry
module Histogram = Mitos_obs.Histogram
module Obs = Mitos_obs.Obs
module Tracer = Mitos_obs.Tracer
module Propagation = Mitos_obs.Propagation
module Estimator = Mitos_distrib.Estimator

type config = {
  nodes : int;
  estimator_shards : int;
  read_timeout : float;
  max_frame : int;
  node_id : string;
}

let default_config =
  {
    nodes = 16;
    estimator_shards = 1;
    read_timeout = Netio.default_timeout;
    max_frame = Wire.default_max_frame;
    node_id = "node0";
  }

(* per-operation metric handles and span name, resolved once at create
   time: the tracer retains the name of every span it keeps, so one
   shared string per op keeps that memory to the span records *)
type op_metrics = {
  requests : Registry.counter;
  latency : Histogram.t;
  span : string;
}

type t = {
  config : config;
  params : Mitos.Params.t;
  reg : Registry.t;
  obs : Obs.t;
  (* Socket loops and mem:// callers may handle requests concurrently
     but the tracer is single-writer; completed server spans are
     recorded under this. *)
  trace_mu : Mutex.t;
  est : Estimator.t;
  per_op : (string * op_metrics) list;
  decisions_total : Registry.counter;
  errors_total : Registry.counter;
  served : int Atomic.t;
  decided : int Atomic.t;
  publishes : int Atomic.t;
  (* What Query_telemetry reports as the node's own SLO verdict;
     replaced by [set_health_probe] when a health watchdog is wired
     in. Read on whichever domain serves the request, so
     probes must be safe to call from any domain. *)
  mutable health_probe : unit -> bool * string;
}

let op_labels =
  [ "ping"; "decide"; "publish"; "global"; "node"; "stats"; "telemetry" ]

let create ?(config = default_config) ?registry ?(obs = Obs.disabled) ~params
    () =
  if config.nodes < 1 then invalid_arg "Server.create: nodes must be >= 1";
  if config.estimator_shards < 1 then
    invalid_arg "Server.create: estimator_shards must be >= 1";
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let per_op =
    List.map
      (fun op ->
        ( op,
          {
            requests =
              Registry.counter reg ~help:"decision-service requests handled"
                ~labels:[ ("op", op) ] "mitos_net_requests_total";
            latency =
              Registry.histogram reg
                ~help:"decision-service request handling latency"
                ~labels:[ ("op", op) ] ~lo:100.0 ~growth:2.0 ~buckets:32
                "mitos_net_request_ns";
            span = "server." ^ op;
          } ))
      op_labels
  in
  {
    config;
    params;
    reg;
    obs;
    trace_mu = Mutex.create ();
    est =
      Estimator.create ~shards:config.estimator_shards ~nodes:config.nodes ();
    per_op;
    decisions_total =
      Registry.counter reg ~help:"individual indirect-flow decisions served"
        "mitos_net_decisions_total";
    errors_total =
      Registry.counter reg ~help:"malformed frames and refused requests"
        "mitos_net_errors_total";
    served = Atomic.make 0;
    decided = Atomic.make 0;
    publishes = Atomic.make 0;
    health_probe = (fun () -> (true, "status: ok (no SLO rules attached)\n"));
  }

let registry t = t.reg
let estimator t = t.est
let set_health_probe t probe = t.health_probe <- probe
let config t = t.config
let obs t = t.obs

(* -- request semantics -------------------------------------------------- *)

(* Up to this many candidates, a count is found by scanning the request,
   which allocates nothing; above it, through a table built once per
   request. A scan per candidate would make one request cost O(k^2) in
   its k candidates, and one frame can carry hundreds of thousands. *)
let scan_limit = 16

let rec scan_count tag = function
  | [] -> 0
  | (c, n) :: rest ->
    if Mitos_tag.Tag.equal c tag then n else scan_count tag rest

(* Each candidate's count is looked up once, by tag, so a tag listed
   twice takes the count of its first occurrence. *)
let count_of (req : Wire.decide_request) =
  if List.compare_length_with req.candidates scan_limit <= 0 then fun tag ->
    scan_count tag req.candidates
  else begin
    let table = Mitos_tag.Tag.Table.create (2 * scan_limit) in
    List.iter
      (fun (tag, n) ->
        if not (Mitos_tag.Tag.Table.mem table tag) then
          Mitos_tag.Tag.Table.add table tag n)
      req.candidates;
    fun tag ->
      match Mitos_tag.Tag.Table.find table tag with
      | n -> n
      | exception Not_found -> 0
  end

let decide_one t (req : Wire.decide_request) =
  let count = count_of req in
  let env =
    { Mitos.Decision.count; pollution = req.pollution +. Estimator.global t.est }
  in
  Mitos.Decision.alg2 t.params env ~space:req.space
    (List.map fst req.candidates)

let handle_request t (req : Wire.request) : Wire.response =
  match req with
  | Ping -> Pong
  | Decide batch ->
    let outcomes = List.map (decide_one t) batch in
    let n = List.length batch in
    ignore (Atomic.fetch_and_add t.decided n);
    Registry.add t.decisions_total n;
    Decisions outcomes
  | Publish { node; value } ->
    if node < 0 || node >= t.config.nodes then begin
      Registry.incr t.errors_total;
      Err (Printf.sprintf "publish: node %d out of range [0,%d)" node
             t.config.nodes)
    end
    else begin
      Estimator.publish t.est ~node value;
      Atomic.incr t.publishes;
      Published (Estimator.global t.est)
    end
  | Read_global -> Global (Estimator.global t.est)
  | Read_node node ->
    if node < 0 || node >= t.config.nodes then begin
      Registry.incr t.errors_total;
      Err (Printf.sprintf "node %d out of range [0,%d)" node t.config.nodes)
    end
    else Node_value (Estimator.contribution t.est ~node)
  | Query_stats ->
    Stats
      {
        served = Atomic.get t.served;
        decided = Atomic.get t.decided;
        publishes = Atomic.get t.publishes;
        nodes = t.config.nodes;
        global = Estimator.global t.est;
      }
  | Query_telemetry ->
    (* the snapshot is cut before this request's own per-op counter
       and latency are recorded (handle_body updates them after the
       response is built), so answering telemetry does not perturb
       the snapshot being answered — the property the federation
       byte-identity test leans on *)
    let healthy, health = t.health_probe () in
    Telemetry
      {
        node = t.config.node_id;
        healthy;
        health;
        snapshot = Registry.snapshot t.reg;
      }

(* Record a completed server span carrying the client's trace context,
   if the server has an enabled obs. Tracer writes are serialized
   under [trace_mu] because several domains may handle requests at
   once; the span is recorded with explicit timestamps after
   the work, so the critical section is just the buffer append. *)
let record_span t ~trace ~ts0 ~ts1 name =
  if Obs.enabled t.obs then begin
    let args =
      match trace with
      | Some ctx -> Propagation.to_args ctx
      | None -> []
    in
    Mutex.lock t.trace_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.trace_mu)
      (fun () ->
        Tracer.complete (Obs.tracer t.obs) ~args ~ts0 ~ts1 name)
  end

(* One request body in; the id to answer with and the response out. *)
let respond t body =
  let t0 = Unix.gettimeofday () in
  let obs_ts0 = if Obs.enabled t.obs then Obs.now t.obs else 0 in
  match Wire.decode_request body with
  | Error err ->
    Registry.incr t.errors_total;
    (0, Wire.Err (Wire.error_to_string err))
  | Ok (id, trace, req) ->
    Atomic.incr t.served;
    let resp =
      match handle_request t req with
      | resp -> resp
      | exception exn ->
        Registry.incr t.errors_total;
        Wire.Err ("internal error: " ^ Printexc.to_string exn)
    in
    (match List.assoc_opt (Wire.request_kind req) t.per_op with
    | Some m ->
      Registry.incr m.requests;
      Histogram.observe m.latency ((Unix.gettimeofday () -. t0) *. 1e9);
      record_span t ~trace ~ts0:obs_ts0
        ~ts1:(if Obs.enabled t.obs then Obs.now t.obs else 0)
        m.span
    | None -> ());
    (id, resp)

let handle_body t body =
  let id, resp = respond t body in
  Wire.encode_response_body ~id resp

(* -- listeners ----------------------------------------------------------- *)

type listener = { bound : Transport.endpoint; stop : unit -> unit }

let endpoint l = l.bound
let stop l = l.stop ()

let once f =
  let todo = Atomic.make true in
  fun () -> if Atomic.exchange todo false then f ()

let err_frame msg =
  Wire.frame (Wire.encode_response_body ~id:0 (Err msg))

(* The decision protocol's step: answer every whole frame buffered so
   far, inline, since a decide takes microseconds. A corrupt body gets
   a typed Err from [handle_body] and the connection keeps serving; a
   framing error cannot be resynchronised past, so it gets one Err and
   a hangup. *)
let step t input =
  let rec frames pos replies =
    match Wire.unframe ~max_frame:t.config.max_frame input ~pos with
    | Ok (body, next) ->
      let id, resp = respond t body in
      frames next (Wire.encode_response ~id resp :: replies)
    | Error (Truncated _) ->
      { Netio.consumed = pos; replies = List.rev replies; keep = true }
    | Error err ->
      Registry.incr t.errors_total;
      {
        Netio.consumed = Buffer.length input;
        replies = List.rev (err_frame (Wire.error_to_string err) :: replies);
        keep = false;
      }
  in
  frames 0 []

let serve t sock =
  let refusal =
    err_frame
      (Printf.sprintf "connection limit reached (%d connections open)"
         Netio.max_conns)
  in
  Netio.serve ~registry:t.reg ~timeout:t.config.read_timeout ~refusal sock
    (fun () -> step t)

let start t ep =
  match ep with
  | Transport.Memory name ->
    Transport.Loopback.register name (handle_body t);
    { bound = ep; stop = once (fun () -> Transport.Loopback.unregister name) }
  | Tcp { host; port } ->
    let sock, port = Netio.listen_tcp ~host ~port () in
    { bound = Tcp { host; port }; stop = serve t sock }
  | Unix_sock path ->
    let stop = serve t (Netio.listen_unix path) in
    {
      bound = ep;
      stop =
        once (fun () ->
            stop ();
            try Unix.unlink path with Unix.Unix_error _ -> ());
    }
