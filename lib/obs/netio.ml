let default_timeout = 5.0

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      failwith (Printf.sprintf "cannot resolve host %S" host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0))

let set_timeouts ?(timeout = default_timeout) fd =
  Unix.setsockopt_float fd SO_RCVTIMEO timeout;
  Unix.setsockopt_float fd SO_SNDTIMEO timeout

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd bytes !off (len - !off) in
    if n = 0 then raise Exit;
    off := !off + n
  done

let read_to_eof fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Buffer.contents buf

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Refusal (nobody listening — the port answered with RST) and
   timeout (nothing answered at all — host gone, packets dropped) are
   different diagnoses: a killed node refuses, a slow or partitioned
   one times out. The chaos judge, and any operator reading the
   one-line error, needs the distinction, so each failure class gets
   its own stable verb. *)
let connect_sock ?timeout ~describe sock addr =
  match
    set_timeouts ?timeout sock;
    Unix.connect sock addr
  with
  | () -> Ok sock
  | exception Unix.Unix_error (err, _, _) ->
    close_quietly sock;
    let verb =
      match err with
      | Unix.ECONNREFUSED -> "refused connection"
      | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS ->
        "timed out"
      | _ -> "unreachable"
    in
    Error (Printf.sprintf "%s %s (%s)" describe verb (Unix.error_message err))

let connect_tcp ?timeout ~host ~port () =
  match resolve host with
  | exception Failure msg -> Error msg
  | addr ->
    connect_sock ?timeout
      ~describe:(Printf.sprintf "%s:%d" host port)
      (Unix.socket PF_INET SOCK_STREAM 0)
      (ADDR_INET (addr, port))

let connect_unix ?timeout path =
  connect_sock ?timeout ~describe:path
    (Unix.socket PF_UNIX SOCK_STREAM 0)
    (ADDR_UNIX path)

(* A burst of connects that overflows the backlog stalls for the
   kernel's 1 s handshake retransmit; leave room for a burst of the
   loop's whole connection table. *)
let listen_on ?(backlog = 128) sock addr =
  (try
     Unix.setsockopt sock SO_REUSEADDR true;
     Unix.bind sock addr;
     Unix.listen sock backlog
   with exn ->
     close_quietly sock;
     raise exn);
  sock

let listen_tcp ?backlog ~host ~port () =
  let addr = resolve host in
  let sock =
    listen_on ?backlog (Unix.socket PF_INET SOCK_STREAM 0)
      (ADDR_INET (addr, port))
  in
  let bound_port =
    match Unix.getsockname sock with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> port
  in
  (sock, bound_port)

let listen_unix ?backlog path =
  (try if Sys.file_exists path then Sys.remove path
   with Sys_error _ -> ());
  listen_on ?backlog (Unix.socket PF_UNIX SOCK_STREAM 0) (ADDR_UNIX path)

(* -- readiness loop ------------------------------------------------------ *)

type verdict = { consumed : int; replies : string list; keep : bool }

(* select(2) cannot watch a descriptor at or above FD_SETSIZE (1024):
   Unix.select fails the whole call with EINVAL. A process runs at most
   two loops (decisions and telemetry), so 256 connections each keep
   every polled descriptor well below it, with room for whatever else
   the process has open. *)
let max_conns = 256
let stop_tick = 0.2

type conn = {
  fd : Unix.file_descr;
  input : Buffer.t;  (* read, not yet consumed by [step] *)
  step : Buffer.t -> verdict;
  mutable out : string;  (* queued replies; [off] bytes already written *)
  mutable off : int;
  mutable deadline : float;
  mutable closing : bool;  (* hang up once [out] drains *)
}

let serve ?(registry = Registry.create ()) ~timeout ~refusal sock session =
  (* a write to a vanished peer must fail with EPIPE, not kill the
     process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.set_nonblock sock;
  let stopping = Atomic.make false in
  let counter = Registry.counter registry
  and gauge = Registry.gauge registry in
  let accepted =
    counter ~help:"connections accepted" "mitos_net_connections_total"
  and refused =
    counter ~help:"connections refused at the connection limit"
      "mitos_net_connections_refused_total"
  and failed =
    counter ~help:"malformed frames and refused requests"
      "mitos_net_errors_total"
  and occupancy =
    gauge ~help:"connections open on the socket loop"
      "mitos_net_connections_open"
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let chunk = Bytes.create 65536 in
  let close c =
    Hashtbl.remove conns c.fd;
    close_quietly c.fd;
    Registry.set_gauge occupancy (float_of_int (Hashtbl.length conns))
  in
  let rec flush c =
    let len = String.length c.out in
    if c.off < len then
      match Unix.single_write_substring c.fd c.out c.off (len - c.off) with
      | n ->
        c.off <- c.off + n;
        flush c
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    else begin
      c.out <- "";
      c.off <- 0;
      if c.closing then close c
    end
  in
  (* input is read only while no output is queued, so a client that
     never reads its replies cannot grow server memory *)
  let readable c now =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close c
    | n ->
      Buffer.add_subbytes c.input chunk 0 n;
      let v = c.step c.input in
      let rest = Buffer.length c.input - v.consumed in
      let tail = if rest > 0 then Buffer.sub c.input v.consumed rest else "" in
      Buffer.clear c.input;
      Buffer.add_string c.input tail;
      if v.replies <> [] then begin
        c.out <-
          (match v.replies with [ r ] -> r | rs -> String.concat "" rs);
        c.deadline <- now +. timeout
      end;
      c.closing <- not v.keep;
      flush c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  let rec accept now =
    match Unix.accept ~cloexec:true sock with
    | fd, _ ->
      Registry.incr accepted;
      Unix.set_nonblock fd;
      if Hashtbl.length conns >= max_conns then begin
        Registry.incr refused;
        (try
           ignore
             (Unix.single_write_substring fd refusal 0 (String.length refusal))
         with Unix.Unix_error _ -> ());
        close_quietly fd
      end
      else begin
        Hashtbl.replace conns fd
          { fd; input = Buffer.create 512; step = session (); out = "";
            off = 0; deadline = now +. timeout; closing = false };
        Registry.set_gauge occupancy (float_of_int (Hashtbl.length conns))
      end;
      accept now
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> Registry.incr failed
  in
  (* one connection's failure closes it and is counted; it never ends
     the loop *)
  let on_conn fd f =
    match Hashtbl.find_opt conns fd with
    | None -> ()
    | Some c -> (
      try f c
      with _ ->
        Registry.incr failed;
        close c)
  in
  let rec loop () =
    if not (Atomic.get stopping) then begin
      let now = Unix.gettimeofday () in
      Hashtbl.fold (fun _ c acc -> if c.deadline <= now then c :: acc else acc)
        conns []
      |> List.iter close;
      let reads, writes, wake =
        Hashtbl.fold
          (fun fd c (r, w, wake) ->
            let wake = Float.min wake c.deadline in
            if c.out <> "" then (r, fd :: w, wake) else (fd :: r, w, wake))
          conns
          ([ sock ], [], now +. stop_tick)
      in
      (match Unix.select reads writes [] (wake -. now) with
      | r, w, _ ->
        let now = Unix.gettimeofday () in
        List.iter (fun fd -> on_conn fd flush) w;
        List.iter
          (fun fd ->
            if fd = sock then accept now
            else on_conn fd (fun c -> readable c now))
          r
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Hashtbl.iter (fun fd _ -> close_quietly fd) conns;
            close_quietly sock;
            Registry.set_gauge occupancy 0.0)
          loop)
  in
  fun () -> if not (Atomic.exchange stopping true) then Domain.join domain
