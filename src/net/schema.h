// The wire schema: every message's fields, declared once.
//
// `fields(v, m)` lists one message's fields in tag order. Each entry names
// the binary tag, the JSON key and the member, plus the member's default:
// the value both codecs omit on the wire and decode an absent field to.
// The four codec visitors walk these lists — JSON write and read in
// protocol.cpp, binary write and read in binproto.cpp — so adding a field
// here adds it to both codecs at once.
//
// A visitor provides:
//   v(tag, key, field, default)  one field. Its kind follows from the C++
//                                type: bool, integer (signed ones travel
//                                zigzag-encoded), double, string, enum
//                                (by name in JSON, by value in binary),
//                                nested message, vector/set, or an
//                                embedded JSON object (metrics, trace).
//   v.opt(tag, key, has, field)  a field whose presence is its own flag
//                                (Response::has_result and friends): sent
//                                iff the flag is set, even when empty.
//   v.hex(tag, key, u64)         a 64-bit id: a hex string in JSON (JSON
//                                numbers are doubles), a varint in binary.
//   v.group(key, sub)            a sub-struct whose fields nest under
//                                `key` in JSON only; binary tags stay flat.
//
// Request lists its payload fields under a condition on its type, which
// every reader has decoded by then (tag 1), so a type carries only its own.
//
// Binary tag numbers are part of the protocol: never renumber a field.
// Retired tags stay unused: HelloInfo's 1 (the old minimum version),
// PassRecord's 7 and 8 and CompileResult's 17 and 18 (per-tier unit
// hits), Request's 20 and 21 and Response's 13 (the unit_probe/unit_fill
// messages, removed in v8).
#pragma once

#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "net/protocol.h"

namespace ap::net::schema {

// Enum <-> name tables, indexed by the enum's wire value.
inline constexpr const char* kRequestTypeNames[] = {
    "compile",    "run",       "metrics",       "ping",
    "hello",      "register",  "heartbeat",     "cache_probe",
    "cache_fill", "forward",   "compile_batch", "stats"};
inline constexpr const char* kStatusNames[] = {
    "ok", "error", "overloaded", "deadline_exceeded", "unsupported_version",
    "worker_lost", "protocol_error"};
inline constexpr const char* kInlineConfigNames[] = {"none", "conv", "annot"};
inline constexpr const char* kEngineNames[] = {"tree", "bytecode"};

using Names = std::span<const char* const>;
inline Names names(RequestType) { return kRequestTypeNames; }
inline Names names(Status) { return kStatusNames; }
inline Names names(driver::InlineConfig) { return kInlineConfigNames; }
inline Names names(interp::Engine) { return kEngineNames; }

// The default instance `d` each field list compares against. Messages
// whose default is a compile-time constant use kConstDefaults, so the
// writers' omit-if-default tests compile to immediates instead of loads;
// the others (they hold a std::set or a json::Value) use kDefaults.
template <class M>
inline constexpr M kConstDefaults{};
template <class M>
inline const M kDefaults{};

// One field of message `m`, defaulting to the same member of `d`.
#define AP_FIELD(tag, key, member) v(tag, key, m.member, d.member)

template <class V>
void fields(V& v, par::ParallelizeOptions& m) {
  const auto& d = kConstDefaults<par::ParallelizeOptions>;
  AP_FIELD(2, "min_trip", min_trip);
  AP_FIELD(3, "normalize", normalize);
  AP_FIELD(4, "mark_nested", mark_nested);
  AP_FIELD(5, "use_banerjee", use_banerjee);
  AP_FIELD(6, "use_siv_refinement", use_siv_refinement);
  AP_FIELD(7, "collect_all_blockers", collect_all_blockers);
}

template <class V>
void fields(V& v, xform::ConvInlineOptions& m) {
  const auto& d = kConstDefaults<xform::ConvInlineOptions>;
  AP_FIELD(8, "max_stmts", max_stmts);
  AP_FIELD(9, "max_callee_calls", max_callee_calls);
  AP_FIELD(10, "require_in_loop", require_in_loop);
  AP_FIELD(11, "eliminate_dead_units", eliminate_dead_units);
  AP_FIELD(12, "max_passes", max_passes);
}

template <class V>
void fields(V& v, xform::AnnotInlineOptions& m) {
  const auto& d = kConstDefaults<xform::AnnotInlineOptions>;
  AP_FIELD(13, "require_in_loop", require_in_loop);
}

template <class V>
void fields(V& v, xform::ReverseInlineOptions& m) {
  const auto& d = kConstDefaults<xform::ReverseInlineOptions>;
  AP_FIELD(14, "tolerate_reordering", tolerate_reordering);
  AP_FIELD(15, "tolerate_forward_subst", tolerate_forward_subst);
  AP_FIELD(16, "tolerate_literals", tolerate_literals);
  AP_FIELD(17, "fallback_to_hints", fallback_to_hints);
}

template <class V>
void fields(V& v, driver::PipelineOptions& m) {
  const auto& d = kDefaults<driver::PipelineOptions>;
  AP_FIELD(1, "config", config);
  v.group("par", m.par);
  v.group("conv", m.conv);
  v.group("annot", m.annot);
  v.group("reverse", m.reverse);
  AP_FIELD(18, "stop_after", stop_after);
  AP_FIELD(19, "print_after", print_after);
}

template <class V>
void fields(V& v, interp::InterpOptions& m) {
  const auto& d = kConstDefaults<interp::InterpOptions>;
  AP_FIELD(1, "engine", engine);
  AP_FIELD(2, "threads", num_threads);
  AP_FIELD(3, "enable_parallel", enable_parallel);
  AP_FIELD(4, "max_steps", max_steps);
  AP_FIELD(5, "check_bounds", check_bounds);
}

template <class V>
void fields(V& v, WorkerInfo& m) {
  const auto& d = kConstDefaults<WorkerInfo>;
  AP_FIELD(1, "id", id);
  AP_FIELD(2, "host", host);
  AP_FIELD(3, "port", port);
}

template <class V>
void fields(V& v, WorkerLoad& m) {
  const auto& d = kConstDefaults<WorkerLoad>;
  AP_FIELD(1, "queue_depth", queue_depth);
  AP_FIELD(2, "running", running);
  AP_FIELD(3, "cache_entries", cache_entries);
  AP_FIELD(4, "cache_hits", cache_hits);
  AP_FIELD(5, "cache_misses", cache_misses);
  AP_FIELD(6, "peer_hits", peer_hits);
  AP_FIELD(7, "hist", hist);
}

template <class V>
void fields(V& v, HelloInfo& m) {
  const auto& d = kConstDefaults<HelloInfo>;
  // Defaults to 0, not kProtocolVersion: a build-relative default would
  // let two builds each omit their own version and read the other's as
  // their own.
  v(2, "version", m.version, 0);
  AP_FIELD(3, "role", role);
  AP_FIELD(4, "draining", draining);
  AP_FIELD(5, "binary", binary);
}

template <class V>
void fields(V& v, BatchItem& m) {
  const auto& d = kDefaults<BatchItem>;
  AP_FIELD(1, "name", name);
  AP_FIELD(2, "source", source);
  AP_FIELD(3, "annotations", annotations);
  AP_FIELD(4, "options", options);
}

template <class V>
void fields(V& v, pm::PassRecord& m) {
  const auto& d = kConstDefaults<pm::PassRecord>;
  AP_FIELD(1, "name", name);
  AP_FIELD(2, "wall_ms", wall_ms);
  AP_FIELD(3, "units", units);
  AP_FIELD(4, "diags", diagnostics);
  AP_FIELD(5, "unit_hits", unit_hits);
  AP_FIELD(6, "unit_misses", unit_misses);
  AP_FIELD(9, "unit_invalidated", unit_invalidated);
}

template <class V>
void fields(V& v, driver::PipelineTimings& m) {
  const auto& d = kConstDefaults<driver::PipelineTimings>;
  AP_FIELD(8, "total_ms", total_ms);
  AP_FIELD(9, "passes", passes);
}

template <class V>
void fields(V& v, service::CompileResult& m) {
  const auto& d = kDefaults<service::CompileResult>;
  AP_FIELD(1, "ok", ok);
  AP_FIELD(2, "error", error);
  AP_FIELD(3, "cache_hit", cache_hit);
  AP_FIELD(4, "parallel_loops", parallel_loops);
  AP_FIELD(5, "code_lines", code_lines);
  AP_FIELD(6, "dep_tests", dep_tests);
  AP_FIELD(7, "dep_tests_unique", dep_tests_unique);
  v.group("timings", m.timings);
  AP_FIELD(10, "stopped_early", stopped_early);
  AP_FIELD(11, "program", program_text);
  AP_FIELD(12, "print_dump", print_dump);
  AP_FIELD(13, "peer_hit", peer_hit);
  AP_FIELD(14, "unit_hits", unit_hits);
  AP_FIELD(15, "unit_misses", unit_misses);
  AP_FIELD(16, "unit_invalidated", unit_invalidated);
}

template <class V>
void fields(V& v, RunPayload& m) {
  const auto& d = kConstDefaults<RunPayload>;
  AP_FIELD(1, "ok", ok);
  AP_FIELD(2, "stopped", stopped);
  AP_FIELD(3, "stop_message", stop_message);
  AP_FIELD(4, "error", error);
  AP_FIELD(5, "output", output);
  AP_FIELD(6, "statements", statements);
  AP_FIELD(7, "statements_parallel", statements_parallel);
  AP_FIELD(8, "instructions", instructions);
  AP_FIELD(9, "wall_ms", wall_ms);
}

template <class V>
void fields(V& v, Request& m) {
  const auto& d = kDefaults<Request>;
  AP_FIELD(1, "type", type);
  AP_FIELD(2, "id", id);
  v(3, "v", m.version, 0);  // always sent; see HelloInfo
  // Each type carries only its own payload fields. Both readers decode the
  // type (tag 1) before these conditions run.
  using T = RequestType;
  auto is = [t = m.type](auto... types) { return ((t == types) || ...); };
  if (is(T::Compile, T::Run, T::Forward)) {
    AP_FIELD(4, "name", name);
    AP_FIELD(5, "source", source);
    AP_FIELD(6, "annotations", annotations);
    AP_FIELD(7, "options", options);
  }
  if (is(T::Run, T::Forward)) AP_FIELD(8, "interp", interp);
  AP_FIELD(9, "deadline_ms", deadline_ms);
  if (is(T::Register, T::Heartbeat)) AP_FIELD(10, "worker", worker);
  if (is(T::Heartbeat)) {
    AP_FIELD(11, "load", load);
    AP_FIELD(12, "leaving", leaving);
  }
  if (is(T::CacheProbe, T::CacheFill)) AP_FIELD(13, "key", key);
  if (is(T::CacheFill)) AP_FIELD(14, "payload", payload);
  if (is(T::Forward)) {
    AP_FIELD(15, "inner", inner);
    AP_FIELD(16, "attempt", attempt);
  }
  if (is(T::CompileBatch, T::Forward)) AP_FIELD(17, "batch", batch);
  AP_FIELD(18, "trace", trace);
  v.hex(19, "trace_id", m.trace_id);
}

template <class V>
void fields(V& v, Response& m) {
  const auto& d = kDefaults<Response>;
  AP_FIELD(1, "id", id);
  AP_FIELD(2, "status", status);
  AP_FIELD(3, "error", error);
  v.opt(4, "result", m.has_result, m.result);
  v.opt(5, "run", m.has_run, m.run);
  AP_FIELD(6, "metrics", metrics);
  v.opt(7, "hello", m.has_hello, m.hello);
  AP_FIELD(8, "found", found);
  AP_FIELD(9, "payload", payload);
  v.opt(10, "peers", m.has_peers, m.peers);
  v.opt(11, "batch", m.has_batch, m.batch);
  AP_FIELD(12, "trace", trace);
}

#undef AP_FIELD

// Field kinds, as the visitors dispatch on them.
template <class T>
concept Message = requires(T& m, int& v) { schema::fields(v, m); };
template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                 std::is_same_v<T, std::string>;

// The presence rule both writers apply: a field equal to its default is
// omitted. A nested message is never omitted here; its writer drops it
// when none of its own fields was written.
template <class T>
bool omitted(const T& x, const T& def) {
  if constexpr (Scalar<T>)
    return x == def;
  else if constexpr (std::is_same_v<T, json::Value>)
    return !x.is_object();
  else if constexpr (Message<T>)
    return false;
  else
    return x.empty();
}

// Appends a decoded element to a vector or set.
template <class C, class E>
void add(C& c, E&& e) {
  if constexpr (requires { c.push_back(std::forward<E>(e)); })
    c.push_back(std::forward<E>(e));
  else
    c.insert(std::forward<E>(e));
}

// The structural JSON request decode (no validate()), shared by
// request_from_json and the codec-dispatching read_request.
bool read_request_json(const json::Value& v, Request* out, std::string* err);

}  // namespace ap::net::schema
