(* Every metric the benchmark reports: name, unit and which direction
   is better. BENCHMARK.json at the repository root lists the same
   names and units; the test suite checks that they agree. *)

type metric = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m name unit_ better = { name; unit_; better }

let workloads = [ "replay-tableii"; "decide-small"; "decide-bulk" ]

(* Printed by every workload with --trace 0. The unit of work behind
   throughput and latency is the workload's own: a trace record and a
   block of [Replay_wl.block] records for replay-tableii, a decide
   request and a decide frame round trip for decide-*. *)
let end_to_end =
  [
    m "setup_s" "s" `Lower;
    m "throughput_per_s" "1/s" `Higher;
    m "latency_p50_us" "us" `Lower;
    m "latency_p99_us" "us" `Lower;
    m "peak_rss_mib" "MiB" `Lower;
  ]

(* Printed by every workload with --trace 1. A layer the workload does
   not exercise reads 0 (replay-tableii makes no TCP round trips;
   decide-* replays no traces; decide-bulk sends no publishes). *)
let per_layer =
  [
    (* replay-tableii *)
    m "replay.decode_ms" "ms" `Lower;
    m "dift.engine_ns_per_record" "ns" `Lower;
    m "dift.words_per_record" "words" `Lower;
    m "dift.gc_minor_collections" "count" `Lower;
    m "dift.gc_major_collections" "count" `Lower;
    m "core.policy_calls" "count" `Lower;
    m "core.policy_ns_per_call" "ns" `Lower;
    m "core.policy_share" "ratio" `Lower;
    m "core.propagate_ratio" "ratio" `Higher;
    m "tag.shadow_ops" "count" `Lower;
    m "tag.evictions" "count" `Lower;
    m "tag.detected_bytes" "bytes" `Higher;
    m "tag.footprint_bytes" "bytes" `Lower;
    (* decide-small and decide-bulk *)
    m "core.decide_ns" "ns" `Lower;
    m "wire.encode_ns" "ns" `Lower;
    m "wire.decode_ns" "ns" `Lower;
    m "wire.request_bytes" "bytes" `Lower;
    m "wire.response_bytes" "bytes" `Lower;
    m "server.handle_ns" "ns" `Lower;
    m "server.request_p50_us" "us" `Lower;
    m "server.request_p99_us" "us" `Lower;
    m "server.gc_minor_collections" "count" `Lower;
    m "server.gc_major_collections" "count" `Lower;
    m "net.unexplained_p50_us" "us" `Lower;
    m "net.client_words_per_frame" "words" `Lower;
    m "distrib.publish_p50_us" "us" `Lower;
    m "distrib.publish_p99_us" "us" `Lower;
    m "net.retries" "count" `Lower;
    (* all workloads *)
    m "trace.overhead_pct" "%" `Lower;
  ]

let better_to_string = function `Lower -> "lower" | `Higher -> "higher"
