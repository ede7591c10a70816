// The wire protocol spoken between apserved, apclient and fleet peers.
//
// One message set, declared once: every message's fields are listed a
// single time in net/schema.h, and both codecs are derived from that list
// — JSON (this header; `--codec json`, hand-written test frames) and the
// binary TLV codec (binproto.h, the default once a `hello` offers it).
// Every peer is built from this tree, so there is one protocol version,
// kProtocolVersion.
//
// Requests carry `"v"` (the claimed version), `"type"`, a client-chosen
// `"id"` echoed in the response, and per-type fields:
//
//   compile     — source text, annotation text, full PipelineOptions
//   run         — compile fields plus InterpOptions; the server compiles
//                 (uncached path: execution needs the live AST with its
//                 OMP metadata) and executes the result
//   metrics     — no payload; returns cache + server counters
//   stats       — no payload; returns the live metrics document plus
//                 latency-histogram summaries (per request type and per
//                 cache outcome) and trace-store counters, answered on the
//                 loop thread so a busy daemon can be polled without
//                 draining
//   ping        — no payload; liveness probe
//   hello       — answered with the server's version, role, drain state and
//                 codec offer, for ANY claimed version: this is how a
//                 client learns what the server speaks
//   compile_batch — N compile payloads in one frame, answered as one frame
//
// Fleet control plane (src/dist):
//
//   register    — a worker joins a coordinator: identity + address.
//                 Response carries the current routable peer list.
//   heartbeat   — periodic worker→coordinator liveness + load + cache
//                 stats and histogram summaries; `leaving: true` announces
//                 a graceful departure. Response refreshes the peer list.
//   cache_probe — "do you hold content hash K?" — answered from the local
//                 result cache with the serialized CompileResult on hit.
//   cache_fill  — push a serialized result under K into the receiver's
//                 cache (replication after a fresh compile).
//   forward     — a coordinator-wrapped compile/run/compile_batch: the same
//                 payload fields plus the wrapped type and the routing
//                 attempt counter. Workers never re-forward.
//
// Any request may ask for tracing (`"trace": true`): every hop records
// spans and the response carries the assembled tree; `trace_id`
// propagates on forward/cache_probe/cache_fill so fleet hops correlate.
//
// Responses carry the echoed id and a `"status"`:
//
//   ok                  — per-type payload (result / run / metrics / hello
//                         / peers / probe outcome / batch)
//   error               — request was valid but the work failed
//   overloaded          — bounded admission queue was full (or draining, or
//                         a fleet has no routable workers); the request was
//                         NOT accepted, retry later
//   deadline_exceeded   — accepted, but not finished within the deadline;
//                         the result was discarded
//   unsupported_version — the request's "v" is not kProtocolVersion.
//                         Structured and non-fatal: the connection stays
//                         open so the client can `hello`.
//   worker_lost         — fleet only: every routable worker for the shard
//                         failed mid-request; safe to retry
//   protocol_error      — unparseable/oversized frame or undecodable
//                         request; the server closes the connection after
//                         sending it (the stream cannot be resynchronized)
//
// Presence rule, both codecs: a field equal to its default is omitted, and
// an absent field decodes to its default. A request type carries only its
// own payload fields (listed above); JSON ignores a key its type does not
// carry, and binary rejects such a tag. Options encodings are total, so
// a compile over the wire is bit-equivalent to an in-process run with the
// same options (tests/net_e2e_test.cpp; tests/dist_e2e_test.cpp extends it
// across a coordinator hop). Changing a field's default changes what its
// absence means on the wire, so it must bump kProtocolVersion. Unknown
// JSON keys are ignored; unknown enum names and wrongly-typed values are
// errors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "interp/interp.h"
#include "service/cache.h"
#include "support/json.h"

namespace ap::net {

inline constexpr int kProtocolVersion = 8;

// Upper bound on the interpreter lanes a run request may ask for: each
// lane is an OS thread in the serving daemon.
inline constexpr int kMaxRunThreads = 64;

enum class RequestType : uint8_t {
  Compile,
  Run,
  Metrics,
  Ping,
  Hello,
  Register,
  Heartbeat,
  CacheProbe,
  CacheFill,
  Forward,
  CompileBatch,
  Stats,
};
const char* request_type_name(RequestType t);

enum class Status : uint8_t {
  Ok,
  Error,
  Overloaded,
  DeadlineExceeded,
  UnsupportedVersion,
  WorkerLost,
  ProtocolError,
};
const char* status_name(Status s);

// Content-hash keys travel as fixed-width lowercase hex (the same value
// service::cache_key computes; the coordinator shards by it and the cache
// tier probes by it).
std::string format_key(uint64_t key);
bool parse_key(std::string_view hex, uint64_t* out);

// A worker's identity and reachable address (register/heartbeat requests,
// peer lists in their responses).
struct WorkerInfo {
  std::string id;    // stable identity; the rendezvous-hash token
  std::string host;  // peer-reachable address (loopback deployments: 127.0.0.1)
  int port = 0;      // wire-protocol port
};

// A worker's load + cache counters, piggybacked on heartbeats so the
// coordinator's telemetry has a per-worker section without extra RPCs.
struct WorkerLoad {
  int64_t queue_depth = 0;   // admitted, not yet running
  int64_t running = 0;       // jobs currently executing
  uint64_t cache_entries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t peer_hits = 0;    // misses answered by the peer tier instead
  // This worker's latency-histogram summaries, as the compact
  // obs::encode_histogram_set text ("" = none reported). The coordinator
  // merges these into fleet-wide quantiles.
  std::string hist;
};

// Hello response payload: what the server speaks and what it is.
struct HelloInfo {
  int version = kProtocolVersion;
  std::string role = "single";  // "single" | "coordinator" | "worker"
  bool draining = false;
  // The server accepts binary TLV frames (binproto.h) interleaved with
  // JSON frames on the same connection. Clients switch codecs only after
  // seeing this in a hello.
  bool binary = false;
};

// One file of a `compile_batch` request: the same payload fields a
// standalone compile carries.
struct BatchItem {
  std::string name;
  std::string source;
  std::string annotations;
  driver::PipelineOptions options;
};

struct Request {
  RequestType type = RequestType::Ping;
  int64_t id = 0;
  // The version the sender claimed ("v"). Encoders stamp this value and
  // always send it; decoders preserve the claim (absent = 0) so the server
  // can answer a mismatch with `unsupported_version`.
  int version = kProtocolVersion;
  std::string name;         // display label (app name); not semantic
  std::string source;       // F77-subset program text
  std::string annotations;  // annotation DSL text ("" = none)
  driver::PipelineOptions options;
  interp::InterpOptions interp;  // run requests only
  // Per-request deadline override in milliseconds; 0 = use the server's
  // --request-timeout-ms default.
  int64_t deadline_ms = 0;

  // --- fleet fields ---
  WorkerInfo worker;    // register, heartbeat
  WorkerLoad load;      // heartbeat
  bool leaving = false; // heartbeat: graceful departure announcement
  std::string key;      // cache_probe, cache_fill (hex)
  std::string payload;  // cache_fill: serialized CompileResult
  // forward: the wrapped request type (Compile, Run, or CompileBatch)
  // and the coordinator's 0-based routing attempt for this request.
  RequestType inner = RequestType::Compile;
  int attempt = 0;

  std::vector<BatchItem> batch;  // compile_batch: N files in one frame

  // Ask every hop to record spans; the response's `trace` carries the
  // assembled tree. The serving core mints `trace_id` at admission when
  // the client left it 0; internal hops (forward/cache_probe/cache_fill)
  // propagate the minted id so fleet-side records correlate.
  bool trace = false;
  uint64_t trace_id = 0;
};

// One interpreter execution, for run responses.
struct RunPayload {
  bool ok = false;
  bool stopped = false;
  std::string stop_message;
  std::string error;
  std::string output;
  uint64_t statements = 0;
  uint64_t statements_parallel = 0;
  uint64_t instructions = 0;
  double wall_ms = 0;
};

struct Response {
  int64_t id = 0;
  Status status = Status::Ok;
  std::string error;  // human-readable reason for non-ok statuses

  bool has_result = false;
  service::CompileResult result;  // compile and run responses

  bool has_run = false;
  RunPayload run;  // run responses

  json::Value metrics;  // metrics and stats responses (object); null otherwise

  // Traced requests: the span tree (obs::span_to_json form) assembled by
  // the answering server; null when the request was not traced.
  json::Value trace;

  bool has_hello = false;
  HelloInfo hello;  // hello responses

  bool found = false;   // cache_probe: the key was held
  std::string payload;  // cache_probe hit: serialized CompileResult

  bool has_peers = false;
  std::vector<WorkerInfo> peers;  // register/heartbeat: routable peers

  bool has_batch = false;
  // compile_batch: results[i] answers batch[i] (per-item failures are
  // carried in CompileResult::ok/error; the frame status stays ok).
  std::vector<service::CompileResult> batch;
};

// The semantic checks both decoders run after the structural walk:
//   - the claimed version is kProtocolVersion (any version for `hello`);
//   - a forward wraps compile, run or compile_batch;
//   - compile and run (and forwards of them) carry a non-empty source, as
//     does every batch item;
//   - a run asks for 1..kMaxRunThreads interpreter threads;
//   - register/heartbeat name a worker id;
//   - cache probes and fills carry a hex key.
// False with *err naming the first failed check.
bool validate(const Request& r, std::string* err);

// Messages <-> JSON. The *_from_json decoders check kinds, enum names and
// validate() and never throw; on failure they return false with *err set.
json::Value request_to_json(const Request& r);
bool request_from_json(const json::Value& v, Request* out, std::string* err);
json::Value response_to_json(const Response& r);
bool response_from_json(const json::Value& v, Response* out,
                        std::string* err);

}  // namespace ap::net
