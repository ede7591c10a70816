// apbench: the repository's end-to-end benchmark. Shared declarations:
// the seeded input model, sample statistics, the report every workload
// fills, the span log behind traced runs, and the workload entry points.
//
// One process runs one workload (--workload), so set-up time and peak RSS
// are per workload. See README.md for the workloads, the metrics and how
// to compare two commits.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "service/cache.h"
#include "service/scheduler.h"

namespace apbench {

namespace service = ap::service;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}
// CPU seconds the calling thread has used.
double thread_cpu_s();

// splitmix64. Portable on purpose: the standard distributions are
// implementation-defined, and one seed must give one input stream on every
// toolchain that builds the parent and the changed commit.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  size_t below(size_t n) { return n ? static_cast<size_t>(next() % n) : 0; }

 private:
  uint64_t s_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

// One compile input: job `job` of the 12x3 suite matrix (app-major, as
// service::suite_matrix orders it), optionally with unit `unit` edited by
// incr::mutate_unit under `salt`. Inputs are kept in this compact form
// and materialized on demand, so a long cold run holds no source copies.
struct CompileInput {
  int job = 0;
  std::string unit;  // "" = pristine source
  int salt = 0;
};

const std::vector<service::CompileJob>& matrix();
// Source unit names of matrix job `job`'s app, in source order.
const std::vector<std::string>& unit_names(int job);
// A seeded one-unit edit of job `job` under `salt`.
CompileInput random_edit(Rng& rng, int job, int salt);
service::CompileJob materialize(const CompileInput& in);
ap::net::Request compile_request(const CompileInput& in);
uint64_t fold_input(uint64_t h, const CompileInput& in);

// The layer probe's inputs: one per matrix job, so every configuration and
// pass is represented; each a seeded one-unit edit when `edited`, with
// salts outside any request stream's range so none is already cached.
std::vector<CompileInput> probe_sample(bool edited, uint64_t seed);

// What the correctness oracle compares: the parallelized loop set, the code
// size and the final program text, each folded to a digest.
struct OutputDigest {
  uint64_t text = 0;
  uint64_t loops = 0;
  uint64_t lines = 0;
  bool operator==(const OutputDigest&) const = default;
};
OutputDigest digest_of(const service::CompileResult& r);

// Cache-free in-process compiles of `inputs` (the wire == in-process
// oracle), fanned out over at most `lanes` threads. A failed compile
// yields a default digest, which no served result matches.
std::vector<OutputDigest> reference_outputs(
    const std::vector<CompileInput>& inputs, int lanes);

// Lanes for the interpreter's parallel runs and the oracle: the host's
// cores, at most 4.
int bench_lanes();

// ---------------------------------------------------------------------------
// Statistics and the report
// ---------------------------------------------------------------------------

// Quantile q of a sample, interpolating between order statistics; 0 when
// empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
// The median over `windows` consecutive, equal slices of a time-ordered
// sample of each slice's quantile q. A tail quantile taken this way is not
// moved by a host stall that falls into one slice.
double windowed_quantile(const std::vector<double>& v, double q,
                         size_t windows);
double mean(const std::vector<double>& v);

// Ratio with a zero denominator reported as 0.
inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct Metric {
  double value = 0;
  std::string unit;
  size_t n = 1;  // samples behind the value
  double p50 = 0, p99 = 0;  // of those samples; == value for a scalar
};

struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // failed checks; any one fails the run
  uint64_t digest = 0;  // of the request stream's first kDigestInputs inputs

  void set(const std::string& name, double value, const std::string& unit,
           size_t n = 1);
  // A metric computed from a sample: records n, p50 and p99 beside it.
  void set_sample(const std::string& name, double value,
                  const std::string& unit, const std::vector<double>& sample);
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  bool correct() const { return failed == 0 && problems.empty(); }
};

// The request-stream digest covers this many generated inputs, so it is
// independent of how many a run gets through.
inline constexpr size_t kDigestInputs = 256;

// ---------------------------------------------------------------------------
// Spans (traced runs)
// ---------------------------------------------------------------------------

// Spans the bench records around its own calls into each layer's public
// functions: name, start, end, parent span and request id. Kept in memory
// and written as JSON at the end of a traced run. Server-side span trees
// returned by traced fleet requests are kept beside them, unmerged.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t request = 0;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  int open(std::string name, uint64_t request, int parent = -1);
  void close(int span);
  // Adds an already-timed span.
  int add(std::string name, uint64_t request, int parent,
          Clock::time_point start, Clock::time_point end);

  // Per span name: the summed self time, a span's duration minus the time
  // its children cover, in ms, and the number of spans.
  struct Sum {
    double ms = 0;
    size_t count = 0;
    double mean() const { return count ? ms / static_cast<double>(count) : 0; }
  };
  std::map<std::string, Sum> self_times() const;

  void keep_tree(std::string tree_json);
  size_t kept_trees() const { return trees_.size(); }
  bool write_json(const std::string& path) const;

 private:
  int64_t ns(Clock::time_point t) const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::string> trees_;
};

// Times the enclosing scope as one span.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, uint64_t request, int parent = -1)
      : log_(log), id_(log.open(std::move(name), request, parent)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

// Each fills `rep`; `spans` collects a traced run's spans. run_fleet runs
// fleet_cold, fleet_warm and edit_loop, and returns false for any other
// workload name.
bool run_fleet(const RunConfig& cfg, Report& rep, SpanLog& spans);
void run_fig20(const RunConfig& cfg, Report& rep, SpanLog& spans);

// ---------------------------------------------------------------------------
// Layer probe (traced runs)
// ---------------------------------------------------------------------------

// One sampled input's layer costs on the blocking path of a compile
// request, in ms, from replaying the input through each layer's public
// calls one at a time.
struct LayerTimes {
  double codec = 0;      // request + response encode and decode, one hop
  double find = 0;       // result-cache lookup
  double store = 0;      // result-cache store
  double serialize = 0;  // result serialization (the replication payload)
  double pipeline = 0;   // cache-free compile
  double pipeline_incr = 0;  // compile against a warmed unit cache
};

// Replays `sample` through the codec, the result cache, every pass, the
// unit cache and the interpreter, recording spans into `spans` and the
// per-layer metrics into `rep`. Paired serial/parallel interpreter sweeps
// over the sample, one pair per 5 s of `seconds` (1 to 3), give the
// interp.* timings.
std::vector<LayerTimes> probe_layers(const std::vector<CompileInput>& sample,
                                     double seconds, uint64_t seed,
                                     SpanLog& spans, Report& rep);

// The net.ping_rtt_us and dist.forward_us probes against a fresh fleet, for
// a workload whose own path has none.
void probe_fresh_fleet(const std::vector<CompileInput>& sample, SpanLog& spans,
                       Report& rep);

}  // namespace apbench
