// Wire-message corpus shared by the codec tests (net_test) and the decoder
// fuzz test (wire_fuzz_test): one request of every type and one response
// of every shape, each with its fields set away from their defaults so a
// codec that drops a field cannot pass a round-trip comparison.
#pragma once

#include <vector>

#include "net/protocol.h"

namespace ap::net_corpus {

inline driver::PipelineOptions nondefault_pipeline_options() {
  driver::PipelineOptions o;
  o.config = driver::InlineConfig::Conventional;
  o.par.min_trip = 7;
  o.par.normalize = false;
  o.par.mark_nested = true;
  o.par.use_banerjee = false;
  o.par.use_siv_refinement = false;
  o.par.collect_all_blockers = true;
  o.conv.max_stmts = 99;
  o.conv.max_callee_calls = 3;
  o.conv.require_in_loop = false;
  o.conv.eliminate_dead_units = false;
  o.conv.max_passes = 5;
  o.annot.require_in_loop = false;
  o.reverse.tolerate_reordering = false;
  o.reverse.tolerate_forward_subst = false;
  o.reverse.tolerate_literals = false;
  o.reverse.fallback_to_hints = false;
  return o;
}

inline constexpr net::RequestType kAllRequestTypes[] = {
    net::RequestType::Compile,    net::RequestType::Run,
    net::RequestType::Metrics,    net::RequestType::Ping,
    net::RequestType::Hello,      net::RequestType::Register,
    net::RequestType::Heartbeat,  net::RequestType::CacheProbe,
    net::RequestType::CacheFill,  net::RequestType::Forward,
    net::RequestType::CompileBatch, net::RequestType::Stats};

// A request of the given type with every type-relevant field populated
// with non-default values.
inline net::Request rich_request(net::RequestType type) {
  net::Request r;
  r.type = type;
  r.id = 7741;
  switch (type) {
    case net::RequestType::Metrics:
    case net::RequestType::Ping:
    case net::RequestType::Hello:
    case net::RequestType::Stats:
      break;
    case net::RequestType::Compile:
    case net::RequestType::Run:
    case net::RequestType::Forward:
      r.name = "APP \"quoted\" \xc3\xa9";
      r.source = "      PROGRAM X\n      END\n";
      r.annotations = "inline matmlt\n";
      r.options = nondefault_pipeline_options();
      r.deadline_ms = 777;
      if (type != net::RequestType::Compile) {
        r.interp.num_threads = 3;
        r.interp.enable_parallel = false;
        r.interp.max_steps = 1234567;
        r.interp.check_bounds = false;
        r.interp.engine = interp::Engine::Tree;
      }
      if (type == net::RequestType::Forward) {
        r.inner = net::RequestType::Run;
        r.attempt = 2;
      }
      break;
    case net::RequestType::Register:
      r.worker = {"w-42", "10.1.2.3", 9001};
      break;
    case net::RequestType::Heartbeat:
      r.worker = {"w-42", "10.1.2.3", 9001};
      r.load = {4, 2, 17, 10, 7, 3, ""};
      r.leaving = true;
      break;
    case net::RequestType::CacheProbe:
      r.key = net::format_key(0xdeadbeefcafef00dull);
      break;
    case net::RequestType::CacheFill:
      r.key = net::format_key(0x0123456789abcdefull);
      r.payload = "opaque\nresult\tbytes ";
      r.payload.push_back('\xff');  // opaque payloads are byte-exact
      r.payload += " included";
      break;
    case net::RequestType::CompileBatch: {
      net::BatchItem a;
      a.name = "ONE";
      a.source = "      PROGRAM ONE\n      END\n";
      a.annotations = "inline foo\n";
      a.options = nondefault_pipeline_options();
      net::BatchItem b;
      b.name = "TWO";
      b.source = "      PROGRAM TWO\n      END\n";
      r.batch = {std::move(a), std::move(b)};
      break;
    }
  }
  return r;
}

// Every response shape the servers produce.
inline std::vector<net::Response> response_shapes() {
  std::vector<net::Response> shapes;

  // Every status with an error string.
  for (auto status :
       {net::Status::Ok, net::Status::Error, net::Status::Overloaded,
        net::Status::DeadlineExceeded, net::Status::UnsupportedVersion,
        net::Status::WorkerLost, net::Status::ProtocolError}) {
    net::Response r;
    r.id = 9;
    r.status = status;
    r.error = "reason\nwith newline";
    shapes.push_back(std::move(r));
  }

  // Compile + run payloads, timing records included.
  {
    net::Response r;
    r.id = 10;
    r.has_result = true;
    r.result.ok = true;
    r.result.parallel_loops = {3, 17, 42};
    r.result.code_lines = 120;
    r.result.dep_tests = 55;
    r.result.dep_tests_unique = 33;
    r.result.peer_hit = true;
    r.result.unit_hits = 7;
    r.result.unit_misses = 2;
    r.result.unit_invalidated = 1;
    r.result.program_text = "      PROGRAM X\n      END\n";
    r.result.print_dump = "after pass dump";
    r.result.stopped_early = true;
    r.result.timings.total_ms = 12.5;
    r.result.timings.passes = {{"parse", 1.5, 0, 2},
                               {"parallelize", 9.25, 4, 0}};
    r.has_run = true;
    r.run.ok = true;
    r.run.stopped = true;
    r.run.stop_message = "STOP 7";
    r.run.output = "CHECKSUM 1.5\n";
    r.run.statements = 1000;
    r.run.statements_parallel = 900;
    r.run.instructions = 5000;
    r.run.wall_ms = 1.25;
    shapes.push_back(std::move(r));
  }

  // Hello + peers + probe hit.
  {
    net::Response r;
    r.id = 11;
    r.has_hello = true;
    r.hello = {net::kProtocolVersion, "coordinator", true, true};
    r.found = true;
    r.payload = "serialized result";
    r.has_peers = true;
    r.peers = {{"a", "10.0.0.1", 1}, {"b", "10.0.0.2", 2}};
    shapes.push_back(std::move(r));
  }

  // Metrics object (carried as embedded JSON).
  {
    net::Response r;
    r.id = 12;
    json::Value m = json::Value::object();
    m.set("depth", static_cast<int64_t>(3)).set("label", std::string("x"));
    r.metrics = std::move(m);
    shapes.push_back(std::move(r));
  }

  // Batch results with a per-item failure.
  {
    net::Response r;
    r.id = 13;
    r.has_batch = true;
    service::CompileResult good;
    good.ok = true;
    good.parallel_loops = {10};
    good.program_text = "      PROGRAM A\n      END\n";
    service::CompileResult bad;
    bad.ok = false;
    bad.error = "parse error: unexpected token";
    r.batch = {std::move(good), std::move(bad)};
    shapes.push_back(std::move(r));
  }
  return shapes;
}

}  // namespace ap::net_corpus
