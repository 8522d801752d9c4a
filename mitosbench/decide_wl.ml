(* Workloads decide-small and decide-bulk: closed-loop decide frames
   against the real [mitos-cli serve-decisions] process over loopback
   TCP.

   The server runs with its shipped defaults in its own process, so the
   load generator and the server do not share one stop-the-world GC.
   Each connection sends its next frame only when the previous reply
   has arrived, as a DIFT engine that blocks on each verdict would.
   Every reply is checked against an in-process reference computed with
   [Mitos.Decision.alg2_fast], which the server does not run. *)

open Mitos_tag
module Wire = Mitos_net.Wire
module Client = Mitos_net.Client
module Server = Mitos_net.Server
module Transport = Mitos_net.Transport
module Decision = Mitos.Decision
module Snapshot = Mitos_obs.Registry.Snapshot
module Histogram = Mitos_obs.Histogram
module Rng = Mitos_util.Rng

let now = Clock.now

type shape = {
  conns : int;  (** client connections, one domain each *)
  batch : int;  (** decide requests per frame *)
  publish_every : int;  (** every n-th frame is a publish; 0 = never *)
}

let small = { conns = 2; batch = 1; publish_every = 10 }
let bulk = { conns = 1; batch = 64; publish_every = 0 }

(* The parameters [serve-decisions] uses when given no flags: its
   --tau, --alpha, --u-net and --u-export defaults. *)
let server_params =
  Mitos.Params.with_u
    (Mitos_experiments.Calib.sensitivity_params ~tau:0.1 ~alpha:1.5 ~u_net:1.0 ())
    Tag_type.Export_table 1.0

(* Each connection republishes one fixed value to its own estimator
   slot. The values sum exactly in any order, so the global the server
   adds to every decide is known once each slot has been written. *)
let slot_value i = 1.25 *. float_of_int (i + 1)

let expected_global shape =
  if shape.publish_every = 0 then 0.0
  else List.fold_left ( +. ) 0.0 (List.init shape.conns slot_value)

(* -- inputs -------------------------------------------------------------- *)

let tag_types = Array.of_list Tag_type.all

(* One request: 1-6 distinct candidates with local counts, free space
   0-4 and a local pollution share. *)
let gen_request rng : Wire.decide_request =
  let k = Rng.int_in rng 1 6 in
  let rec pick acc n =
    if n = 0 then List.rev acc
    else
      let tag = Tag.make (Rng.pick rng tag_types) (Rng.int_in rng 1 64) in
      if List.exists (fun (t, _) -> Tag.equal t tag) acc then pick acc n
      else pick ((tag, Rng.int_in rng 0 4000) :: acc) (n - 1)
  in
  {
    space = Rng.int_in rng 0 4;
    pollution = Rng.float rng 2e5;
    candidates = pick [] k;
  }

(* Requests generated per connection; frames cycle through them. *)
let pool_requests = 16384

type conn_input = {
  frames : Wire.decide_request list array;
  refs : Decision.ranked list list array;  (** reference replies *)
}

let inputs ~seed shape =
  let fast = Decision.fast server_params in
  let global = expected_global shape in
  Array.init shape.conns (fun c ->
      let rng = Rng.create ((seed * 7919) + c) in
      let frames =
        Array.init (pool_requests / shape.batch) (fun _ ->
            List.init shape.batch (fun _ -> gen_request rng))
      in
      let refs = Array.map (List.map (Check.reference fast ~global)) frames in
      { frames; refs })

(* -- the server process -------------------------------------------------- *)

type server = { pid : int; out : in_channel; endpoint : Transport.endpoint }

let spawn cli =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve-decisions"; "--endpoint"; "tcp://127.0.0.1:0" |]
      devnull w Unix.stderr
  in
  Unix.close w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr r in
  (* the first line names the bound endpoint:
     "decision service on tcp://127.0.0.1:PORT (...)" *)
  let line = try input_line out with End_of_file -> "" in
  match Scanf.sscanf_opt line "decision service on %s " Fun.id with
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith ("server did not start: " ^ String.escaped line)
  | Some ep -> (
    match Transport.endpoint_of_string ep with
    | Ok endpoint -> { pid; out; endpoint }
    | Error e -> failwith e)

(* VmHWM of a process, in MiB. *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.0
      | None -> scan ())
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* SIGTERM, then SIGKILL if the server has not exited in 10 s. *)
let stop server =
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] server.pid)
    | _ -> ()
  in
  wait ();
  close_in_noerr server.out

let connect endpoint =
  match Client.connect endpoint with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Client.error_to_string e)

(* Set-up as timed: spawn the server, open every connection, and get
   the first ping answered. *)
let setup ~cli shape =
  let t0 = now () in
  let server = spawn cli in
  let clients = Array.init shape.conns (fun _ -> connect server.endpoint) in
  (match Client.ping clients.(0) with
  | Ok () -> ()
  | Error e -> failwith ("ping: " ^ Client.error_to_string e));
  (now () -. t0, server, clients)

let teardown (server, clients) =
  Array.iter Client.close clients;
  stop server

(* -- server-side telemetry ----------------------------------------------- *)

let telemetry c =
  match Client.telemetry c with
  | Ok t -> t.Wire.snapshot
  | Error e -> failwith ("telemetry: " ^ Client.error_to_string e)

let find_row snap name labels =
  List.find_opt
    (fun (r : Snapshot.row) -> r.name = name && r.labels = labels)
    snap

(* A GC gauge; the server samples them on one domain, whose id is the
   row's only label. *)
let gauge snap name =
  match List.find_opt (fun (r : Snapshot.row) -> r.name = name) snap with
  | Some { value = Gauge g; _ } -> g
  | _ -> nan

(* The server's own decide-handling latency over an interval: the
   difference of two cuts of its [mitos_net_request_ns{op="decide"}]
   histogram, as a histogram. *)
let decide_hist_delta before after =
  let hist snap =
    match find_row snap "mitos_net_request_ns" [ ("op", "decide") ] with
    | Some { value = Hist h; _ } -> h
    | _ -> failwith "telemetry: no decide latency histogram"
  in
  let a = hist before and b = hist after in
  Histogram.of_buckets ~bounds:b.bounds
    ~counts:(Array.mapi (fun i n -> n - a.counts.(i)) b.counts)
    ~sum:(b.sum -. a.sum) ~min_value:b.min_value ~max_value:b.max_value

(* -- one connection's closed loop ---------------------------------------- *)

type conn_stats = {
  lat : Stats.Buf.t;  (** decide frame round trips, seconds *)
  pub : Stats.Buf.t;  (** publish round trips, seconds *)
  tally : Check.tally;
  mutable decided : int;  (** answered decide requests *)
  mutable frames : int;
  mutable words : float;  (** client minor words over the loop *)
}

let conn_stats () =
  {
    lat = Stats.Buf.create ~capacity:65536 ();
    pub = Stats.Buf.create ();
    tally = Check.tally ();
    decided = 0;
    frames = 0;
    words = 0.0;
  }

(* What the traced loop adds per frame: spans, and the in-process
   layers timed on the same frame. *)
type probe = {
  spans : Spans.t;
  twin : Server.t;  (** in-process server with the live one's params *)
  encode : Stats.Buf.t;
  decode : Stats.Buf.t;
  handle : Stats.Buf.t;
  mutable alg2_s : float;
  mutable alg2_n : int;
  mutable req_bytes : int;
  mutable resp_bytes : int;
}

let make_probe ~lane twin =
  {
    spans = Spans.create ~lane ();
    twin;
    encode = Stats.Buf.create ();
    decode = Stats.Buf.create ();
    handle = Stats.Buf.create ();
    alg2_s = 0.0;
    alg2_n = 0;
    req_bytes = 0;
    resp_bytes = 0;
  }

let publish_frame ~global ~conn c st =
  let t0 = now () in
  let r = Client.publish c ~node:conn (slot_value conn) in
  Stats.Buf.add st.pub (now () -. t0);
  Check.count st.tally (match r with Ok g -> Check.same_float g global | Error _ -> false)

let decide_frame ~shape c (input : conn_input) st k =
  let reqs = input.frames.(k) in
  let t0 = now () in
  let r = Client.decide c reqs in
  Stats.Buf.add st.lat (now () -. t0);
  (match r with
  | Ok got ->
    st.decided <- st.decided + shape.batch;
    Check.count st.tally (Check.decisions_match got input.refs.(k))
  | Error _ -> Check.count st.tally false)

(* The same frame with spans: decide.frame -> wire.encode,
   client.roundtrip, then the twin's server.handle and wire.decode after
   the timed round trip; core.alg2 (the direct Alg. 2 on the frame's
   requests) follows as its own root span. *)
let traced_frame ~shape ~global c (input : conn_input) st p k ~req =
  let reqs = input.frames.(k) in
  let sp = p.spans in
  let f0 = now () in
  let fid = Spans.start sp ~name:"decide.frame" ~req f0 in
  let body = Wire.encode_request_body ~id:req (Wire.Decide reqs) in
  let e1 = now () in
  ignore (Spans.add sp ~name:"wire.encode" ~req ~parent:fid f0 e1);
  let r = Client.decide c reqs in
  let r1 = now () in
  ignore (Spans.add sp ~name:"client.roundtrip" ~req ~parent:fid e1 r1);
  let resp = Server.handle_body p.twin body in
  let h1 = now () in
  ignore (Spans.add sp ~name:"server.handle" ~req ~parent:fid r1 h1);
  let decoded = Wire.decode_response resp in
  let d1 = now () in
  ignore (Spans.add sp ~name:"wire.decode" ~req ~parent:fid h1 d1);
  Spans.finish sp fid d1;
  let a0 = now () in
  List.iter
    (fun (q : Wire.decide_request) ->
      ignore
        (Decision.alg2 server_params (Check.env ~global q) ~space:q.space
           (List.map fst q.candidates)))
    reqs;
  let a1 = now () in
  ignore (Spans.add sp ~name:"core.alg2" ~req a0 a1);
  Stats.Buf.add st.lat (r1 -. e1);
  Stats.Buf.add p.encode (e1 -. f0);
  Stats.Buf.add p.handle (h1 -. r1);
  Stats.Buf.add p.decode (d1 -. h1);
  p.alg2_s <- p.alg2_s +. (a1 -. a0);
  p.alg2_n <- p.alg2_n + List.length reqs;
  p.req_bytes <- p.req_bytes + String.length body;
  p.resp_bytes <- p.resp_bytes + String.length resp;
  let twin_ok =
    match (decoded, r) with
    | Ok (_, Wire.Decisions twin), Ok got -> twin = got
    | _ -> false
  in
  match r with
  | Ok got ->
    st.decided <- st.decided + shape.batch;
    Check.count st.tally (twin_ok && Check.decisions_match got input.refs.(k))
  | Error _ -> Check.count st.tally false

let conn_loop ~shape ~conn ?probe c (input : conn_input) st ~until =
  let nf = Array.length input.frames in
  let global = expected_global shape in
  let w0 = Gc.minor_words () in
  let i = ref 0 in
  while now () < until do
    let n = !i in
    incr i;
    if shape.publish_every > 0 && n mod shape.publish_every = shape.publish_every - 1
    then publish_frame ~global ~conn c st
    else begin
      let k = n mod nf in
      match probe with
      | None -> decide_frame ~shape c input st k
      | Some p -> traced_frame ~shape ~global c input st p k ~req:n
    end
  done;
  st.frames <- st.frames + !i;
  st.words <- st.words +. (Gc.minor_words () -. w0)

(* Run [f conn] for every connection, each on its own domain but the
   first, which runs on the calling domain. *)
let on_each_conn shape f =
  let others =
    List.init (shape.conns - 1) (fun i -> Domain.spawn (fun () -> f (i + 1)))
  in
  f 0;
  List.iter Domain.join others

(* -- the workload -------------------------------------------------------- *)

type result = {
  setup_s : float array;
  windows : Stats.window array;  (** work in decide requests *)
  peak_rss_mib : float;  (** mean over the server instances *)
  tally : Check.tally;
  retries : int;
  layers : (string * float) list;  (** traced run only *)
}

(* Closed-loop frames on every connection until [until]. *)
let loop_all ~shape ?probes clients input ~until =
  let st = Array.init shape.conns (fun _ -> conn_stats ()) in
  on_each_conn shape (fun i ->
      let probe = Option.map (fun ps -> ps.(i)) probes in
      conn_loop ~shape ~conn:i ?probe clients.(i) input.(i) st.(i) ~until);
  st

let lats st = Stats.Buf.concat (Array.to_list (Array.map (fun (s : conn_stats) -> s.lat) st))

(* Per-layer figures of the traced run: [plain] are the untraced
   windows' connection stats, [traced] those of the traced interval,
   [snap0]/[snap1] the server's telemetry around the untraced part. *)
let layer_figures ~plain ~traced ~probes ~snap0 ~snap1 =
  let fr = float_of_int and us x = 1e6 *. x and p50 = Stats.median in
  let cat f = Array.concat (Array.to_list (Array.map (fun p -> Stats.Buf.to_array (f p)) probes)) in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 probes in
  let encode = cat (fun p -> p.encode) and decode = cat (fun p -> p.decode) in
  let handle = cat (fun p -> p.handle) in
  let plain_lat = lats plain and traced_lat = lats traced in
  let tframes = Array.length traced_lat in
  let pub = Stats.Buf.concat (Array.to_list (Array.map (fun (s : conn_stats) -> s.pub) plain)) in
  let server_h = decide_hist_delta snap0 snap1 in
  let server_p50 = Histogram.quantile server_h 0.5 /. 1e3 in
  let frames = Array.fold_left (fun acc (s : conn_stats) -> acc + s.frames) 0 plain in
  let words = Array.fold_left (fun acc (s : conn_stats) -> acc +. s.words) 0.0 plain in
  let gauge_delta name = gauge snap1 name -. gauge snap0 name in
  [
    ( "core.decide_ns",
      1e9 *. Array.fold_left (fun acc p -> acc +. p.alg2_s) 0.0 probes /. fr (sum (fun p -> p.alg2_n)) );
    ("wire.encode_ns", 1e9 *. p50 encode);
    ("wire.decode_ns", 1e9 *. p50 decode);
    ("wire.request_bytes", fr (sum (fun p -> p.req_bytes)) /. fr tframes);
    ("wire.response_bytes", fr (sum (fun p -> p.resp_bytes)) /. fr tframes);
    ("server.handle_ns", 1e9 *. p50 handle);
    ("server.request_p50_us", server_p50);
    ("server.request_p99_us", Histogram.quantile server_h 0.99 /. 1e3);
    ("server.gc_minor_collections", gauge_delta "mitos_gc_minor_collections");
    ("server.gc_major_collections", gauge_delta "mitos_gc_major_collections");
    ("net.unexplained_p50_us", us (p50 plain_lat) -. server_p50 -. us (p50 encode +. p50 decode));
    ("net.client_words_per_frame", words /. fr frames);
    ("distrib.publish_p50_us", if Array.length pub = 0 then 0.0 else us (p50 pub));
    ("distrib.publish_p99_us", if Array.length pub = 0 then 0.0 else us (Stats.percentile pub 99.0));
    ("trace.overhead_pct", 100.0 *. ((p50 traced_lat /. p50 plain_lat) -. 1.0));
  ]
  @ [
      ("samples.untraced_frames", fr (Array.length plain_lat));
      ("samples.traced_frames", fr tframes);
      ("samples.publishes", fr (Array.length pub));
      ("samples.server_decides", fr (Histogram.count server_h));
    ]
  @ List.map
      (fun (name, n, _, self) -> ("self_us." ^ name, us self /. fr (max 1 n)))
      (Spans.self_times (Array.to_list (Array.map (fun p -> p.spans) probes)))

(* Windows measured on each server instance, each with its own steal
   reading. *)
let windows_per_server = 4

(* One server instance: set up (timed), publish each connection's slot
   value, warm up, measure [windows_per_server] windows, and with
   [traced] follow with the traced interval on the same server. *)
let instance ~cli ~shape ~input ~twin ~win ~traced ~spans_out =
  let setup_s, server, clients = setup ~cli shape in
  Fun.protect ~finally:(fun () -> teardown (server, clients)) @@ fun () ->
  let tally = Check.tally () in
  let global = expected_global shape in
  if shape.publish_every > 0 then
    Array.iteri
      (fun conn c ->
        let r = Client.publish c ~node:conn (slot_value conn) in
        (* the last publish must already see the full global *)
        if conn = shape.conns - 1 then
          Check.count tally (match r with Ok g -> Check.same_float g global | Error _ -> false))
      clients;
  let warm = loop_all ~shape clients input ~until:(now () +. 0.3) in
  (* the server samples its GC gauges once a second; a traced run
     waits for the first sample so both cuts carry them *)
  let rec first_cut tries =
    let snap = telemetry clients.(0) in
    if (not traced) || tries = 0 || Float.is_finite (gauge snap "mitos_gc_minor_collections")
    then snap
    else begin
      Unix.sleepf 0.1;
      first_cut (tries - 1)
    end
  in
  let snap0 = first_cut 30 in
  let w0 = now () in
  let part = win /. float_of_int windows_per_server in
  let parts =
    Array.init windows_per_server (fun j ->
        let steal0 = Clock.steal_s () and t0 = now () in
        let st = loop_all ~shape clients input ~until:(w0 +. (float_of_int (j + 1) *. part)) in
        let elapsed = now () -. t0 in
        let decided = Array.fold_left (fun acc (s : conn_stats) -> acc + s.decided) 0 st in
        ( st,
          {
            Stats.work = float_of_int decided;
            elapsed;
            lat = lats st;
            steal = Clock.steal_share ~steal0 ~elapsed;
          } ))
  in
  let snap1 = telemetry clients.(0) in
  let plain = Array.concat (Array.to_list (Array.map fst parts)) in
  let windows = Array.map snd parts in
  let traced_st, layers =
    if not traced then ([||], [])
    else begin
      let probes = Array.init shape.conns (fun lane -> make_probe ~lane twin) in
      let st = loop_all ~shape ~probes clients input ~until:(now () +. win) in
      Spans.write_chrome spans_out (Array.to_list (Array.map (fun p -> p.spans) probes));
      (st, layer_figures ~plain ~traced:st ~probes ~snap0 ~snap1)
    end
  in
  let all = Array.concat [ warm; plain; traced_st ] in
  let tally = Check.merge (tally :: Array.to_list (Array.map (fun (s : conn_stats) -> s.tally) all)) in
  let retries = Array.fold_left (fun acc c -> acc + Client.retries_used c) 0 clients in
  (setup_s, windows, peak_rss_mib (string_of_int server.pid), tally, retries, layers)

(* One server instance per [Stats.server_s] seconds, each measured for
   an equal share of [seconds] in [windows_per_server] windows: pooling
   the instances averages over how each server's domains happened to be
   scheduled. A traced run uses one instance, half of [seconds]
   untraced and then half traced, so the server's own once-a-second GC
   gauges and the tracing overhead are measured over long stretches on
   one server. *)
let run ~cli ~seed ~seconds ~traced ~spans_out shape =
  let input = inputs ~seed shape in
  (* settle the heap the inputs were built in before anything is timed *)
  Gc.compact ();
  let twin = Server.create ~params:server_params () in
  if shape.publish_every > 0 then
    for conn = 0 to shape.conns - 1 do
      ignore
        (Server.handle_body twin
           (Wire.encode_request_body ~id:0 (Wire.Publish { node = conn; value = slot_value conn })))
    done;
  let k = if traced then 1 else Stats.server_count seconds in
  let win = (if traced then seconds /. 2.0 else seconds) /. float_of_int k in
  let runs =
    Array.init k (fun i ->
        instance ~cli ~shape ~input ~twin ~win ~traced:(traced && i = k - 1) ~spans_out)
  in
  let col f = Array.map f runs in
  let retries = Array.fold_left ( + ) 0 (col (fun (_, _, _, _, r, _) -> r)) in
  let _, _, _, _, _, layers = runs.(k - 1) in
  {
    setup_s = col (fun (s, _, _, _, _, _) -> s);
    windows = Array.concat (Array.to_list (col (fun (_, w, _, _, _, _) -> w)));
    peak_rss_mib =
      Array.fold_left ( +. ) 0.0 (col (fun (_, _, m, _, _, _) -> m)) /. float_of_int k;
    tally = Check.merge (Array.to_list (col (fun (_, _, _, t, _, _) -> t)));
    retries;
    layers = layers @ [ ("net.retries", float_of_int retries) ];
  }
