(** Shared socket/timeout plumbing.

    One home for the Unix-socket boilerplate that every networked
    piece of the repo needs — the {!Server} exposition server and its
    fetch side, [mitos-cli watch], and the [Mitos_net] wire
    client/server. The module owns the single [?timeout] convention:
    every blocking client operation takes [?timeout] in seconds,
    defaulting to {!default_timeout}, applied as
    [SO_RCVTIMEO]/[SO_SNDTIMEO] on the descriptor. Servers never
    block: they run on {!serve}.

    All [Error] returns carry a one-line human message; nothing here
    raises for expected network failures. *)

val default_timeout : float
(** 5 seconds — what every [?timeout] in the repo defaults to. *)

val resolve : string -> Unix.inet_addr
(** Numeric address or hostname. Raises [Failure] with a one-line
    message on an unresolvable host. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string; raises [Exit] if the peer stops
    accepting bytes, [Unix.Unix_error] on socket errors. *)

val read_to_eof : Unix.file_descr -> string
(** Drain the descriptor until EOF. *)

val close_quietly : Unix.file_descr -> unit
(** [Unix.close], swallowing [Unix_error] (idempotent teardown). *)

val connect_tcp :
  ?timeout:float -> host:string -> port:int -> unit ->
  (Unix.file_descr, string) result
(** Resolve, create, apply timeouts and connect. [Error] on an
    unresolvable host, refusal or timeout — the descriptor is closed
    on every failure path. The message distinguishes the failure
    class: ["... refused connection (...)"] when the peer answered
    with a reset (nobody listening — a killed node), ["... timed out
    (...)"] when nothing answered within the timeout (a slow or
    partitioned node), ["... unreachable (...)"] otherwise. *)

val connect_unix :
  ?timeout:float -> string -> (Unix.file_descr, string) result
(** Same contract for a Unix-domain socket path. *)

val listen_tcp :
  ?backlog:int -> host:string -> port:int -> unit ->
  Unix.file_descr * int
(** Bind ([SO_REUSEADDR]) and listen (backlog 128 by default);
    returns the descriptor and the bound port (useful with [port:0]).
    Raises [Unix.Unix_error] if the address cannot be bound, [Failure]
    on an unresolvable host. *)

val listen_unix : ?backlog:int -> string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path, unlinking any stale
    socket file first. *)

(** {1 Readiness loop} *)

type verdict = {
  consumed : int;  (** input bytes used up; the loop drops them *)
  replies : string list;  (** bytes to write, in order *)
  keep : bool;  (** [false]: write the replies, then hang up *)
}

val max_conns : int
(** 256 — the connection table's bound. It keeps every polled
    descriptor below [FD_SETSIZE] (1024), past which [select] fails. *)

val serve :
  ?registry:Registry.t ->
  timeout:float ->
  refusal:string ->
  Unix.file_descr ->
  (unit -> Buffer.t -> verdict) ->
  unit -> unit
(** [serve ~timeout ~refusal sock session] spawns a domain running one
    non-blocking [select] loop over the listening [sock] and a table
    of its connections, and returns the idempotent stop: within the
    loop's 0.2 s tick it closes every connection and [sock], and
    joins the domain.

    Each connection gets a step function from [session ()], which
    sees all of its unconsumed input after every read. The loop:
    - never blocks: a reply the socket does not take at once waits for
      it to become writable, and input is not read while output is
      queued, so a client that never reads cannot grow server memory;
    - closes a connection that has not produced a reply within
      [timeout] seconds of its accept or its last reply, however many
      bytes it trickles, and one that reaches EOF;
    - closes a connection whose step or socket call raised, and keeps
      running;
    - past {!max_conns} open connections, writes [refusal] to a new one
      and closes it.

    It counts into [registry] (default: a private one)
    [mitos_net_connections_total], [mitos_net_connections_refused_total],
    [mitos_net_errors_total] (connections closed by an exception) and
    the gauge [mitos_net_connections_open]. [SIGPIPE] is ignored from
    the first call on, so a vanished peer is an [EPIPE], not a dead
    process. *)
