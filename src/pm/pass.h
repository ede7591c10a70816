// The pass manager: the pipeline as a declarative sequence of named passes.
//
// A Pass is either WholeProgram (one run() over the whole state) or PerUnit
// (begin → run_unit per ProgramUnit → end). Per-unit passes fan out onto an
// ap::ThreadPool when one is supplied: each unit runs with a private
// DiagnosticEngine, and the manager merges the buffers back into the shared
// engine in unit-index order — output is bit-identical to a sequential run
// regardless of lane count or completion order.
//
// After every pass (when verification is on) the manager runs the AST
// verifier (pm/verify.h) plus the pass's own verify_after hook. Passes
// evolve the verifier's strictness via adjust_verify as the program moves
// through legal phases (inlining legalizes duplicate origin_ids, annotation
// inlining opens the tagged-region window, reverse inlining closes it).
//
// The manager records one PassRecord per executed pass — name, wall ms,
// units fanned out, diagnostics added — which the driver exposes as
// PipelineTimings and the service forwards into telemetry, the cache and
// the wire protocol. --stop-after/--print-after map to PassManagerOptions.
//
// Artifact protocol: a PerUnit pass that overrides the snapshot hooks
// participates in pass-boundary snapshotting. Before the fan-out the
// manager asks the attached ArtifactStore for all of the boundary's units
// at once under (pass name, pass-sequence prefix fingerprint, unit
// names), so a store backed by the fleet pays one round trip per peer
// per boundary, not one per unit. A payload the pass successfully
// restores skips the unit's run entirely, and a recomputed unit is
// snapshotted back into the store. The store owns key
// construction and tiering (memory/disk/fleet peers — src/incr
// implements it); the manager owns the per-boundary hit/miss counters in
// PassRecord. A restore that fails falls back to recomputing —
// correctness never rests on the protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fir/ast.h"
#include "pm/verify.h"
#include "support/diagnostics.h"
#include "support/thread_pool.h"

namespace ap::pm {

enum class PassKind : uint8_t { WholeProgram, PerUnit };

// Which artifact tier served a restored unit; None = miss.
enum class ArtifactTier : uint8_t { None, Memory, Disk, Peer };

// One artifact probe's outcome: whether this (pass, unit) is enrolled in
// the protocol at all, the payload when one was found, the tier that
// served it, and the miss classification (own unit unchanged, dependency
// changed) that feeds invalidation telemetry.
struct ArtifactProbe {
  bool participating = false;
  bool invalidated = false;
  ArtifactTier tier = ArtifactTier::None;
  std::optional<std::string> payload;
};

// Pass-boundary artifact store: opaque per-unit payloads addressed by
// (pass name, pass-sequence prefix fingerprint, unit name). The store
// decides participation (a pass can be enrolled for some runs and not
// others), computes real cache keys (content closures, option hashes) and
// owns tiering; src/incr provides the production implementation.
class ArtifactStore {
 public:
  virtual ~ArtifactStore() = default;
  // One boundary's probes: the result's i-th entry answers unit_names[i].
  virtual std::vector<ArtifactProbe> find_units(
      std::string_view pass_name, uint64_t prefix_fp,
      const std::vector<std::string>& unit_names) = 0;
  virtual void store_unit(std::string_view pass_name, uint64_t prefix_fp,
                          const std::string& unit_name,
                          const std::string& payload) = 0;
};

// One executed pass, in execution order.
struct PassRecord {
  std::string name;
  double wall_ms = 0;
  int units = 0;        // units fanned out (0 for whole-program passes)
  int diagnostics = 0;  // diagnostics this pass added to the shared engine
  // Artifact-protocol outcome at this boundary (all zero when the pass
  // does not snapshot or no store is attached). unit_hits counts restores
  // from any tier; disk/peer break the tier down (memory = hits - disk -
  // peer); unit_misses counts enrolled units that recomputed.
  int unit_hits = 0;
  int unit_misses = 0;
  int unit_disk_hits = 0;
  int unit_peer_hits = 0;
  int unit_invalidated = 0;  // misses caused by a changed dependency
};

// Mutable state threaded through the sequence. The program starts null; a
// parse-like first pass populates it.
struct PassState {
  std::unique_ptr<fir::Program> program;
  DiagnosticEngine* diags = nullptr;

  // Set by a pass to abort the sequence (e.g. parse errors). The manager
  // stops immediately; `error` becomes the manager's error.
  bool failed = false;
  std::string error;

  void fail(std::string err) {
    failed = true;
    error = std::move(err);
  }
};

class Pass {
 public:
  virtual ~Pass() = default;

  virtual std::string_view name() const = 0;
  virtual PassKind kind() const { return PassKind::WholeProgram; }

  // WholeProgram passes implement run().
  virtual void run(PassState&) {}

  // PerUnit passes implement begin / run_unit / end. run_unit may be called
  // concurrently (one call per unit, any order, no two calls for the same
  // unit); everything it touches must be confined to its unit, its slot in
  // pass-owned per-unit storage, and the private DiagnosticEngine handed in
  // (pre-seeded with the shared engine's stream name, merged back in unit
  // order). begin/end run on the caller and may touch PassState freely.
  virtual void begin(PassState&) {}
  virtual void run_unit(fir::ProgramUnit&, size_t /*unit_index*/,
                        DiagnosticEngine&) {}
  virtual void end(PassState&) {}

  // Artifact protocol (PerUnit passes only; see header comment). A pass
  // opting in returns true from snapshotable(); the manager then probes
  // the attached ArtifactStore per unit before run_unit. snapshot must be
  // safe to call concurrently under the same confinement rules as
  // run_unit; restore returns false when the payload does not apply (the
  // unit is left untouched and recomputed).
  virtual bool snapshotable() const { return false; }
  virtual std::string snapshot_unit_artifact(const fir::ProgramUnit&,
                                             size_t /*unit_index*/) {
    return {};
  }
  virtual bool restore_unit_artifact(fir::ProgramUnit&, size_t /*unit_index*/,
                                     const std::string& /*payload*/) {
    return false;
  }

  // Pass-specific invariant check, run after the structural verifier.
  // Returns "" when fine, else a description of the violation.
  virtual std::string verify_after(const fir::Program&) { return {}; }

  // Evolve the verifier options for this pass's post-check and every later
  // pass (called before verifying this pass's output).
  virtual void adjust_verify(VerifyOptions&) {}
};

struct PassManagerOptions {
  // Lanes for PerUnit passes; null or a 1-lane pool means sequential.
  ThreadPool* pool = nullptr;
  // Run the verifier after every pass.
  bool verify = false;
  // Stop the sequence after the named pass (it still runs and verifies).
  std::string stop_after;
  // Capture fir::unparse of the program after the named pass.
  std::string print_after;
  // Pass-boundary artifact store (not owned; null disables the protocol).
  ArtifactStore* artifacts = nullptr;
};

class PassManager {
 public:
  explicit PassManager(PassManagerOptions opts) : opts_(std::move(opts)) {}

  void add(std::unique_ptr<Pass> p) { passes_.push_back(std::move(p)); }
  bool has_pass(std::string_view name) const;

  // Runs the sequence over `st`. Returns false when a pass failed or a
  // verifier rejected its output; see error(). Records are populated for
  // every pass that ran, even on failure.
  bool run(PassState& st);

  const std::vector<PassRecord>& records() const { return records_; }
  const std::string& error() const { return error_; }
  // True when stop_after cut the sequence short.
  bool stopped_early() const { return stopped_early_; }
  // Unparsed program captured by print_after ("" when unset).
  const std::string& print_dump() const { return print_dump_; }

 private:
  bool run_one(Pass& pass, PassState& st);

  PassManagerOptions opts_;
  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassRecord> records_;
  // FNV fingerprint of the names of the passes executed SO FAR — the
  // "prefix" in artifact keys. A pass's probe sees the fingerprint of the
  // sequence before it; the pass's own name is folded after it runs.
  uint64_t seq_fp_ = 0;
  VerifyOptions vopts_;
  std::string error_;
  std::string print_dump_;
  bool stopped_early_ = false;
};

}  // namespace ap::pm
