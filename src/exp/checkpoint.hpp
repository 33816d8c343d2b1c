// Checkpoint/resume for long sweeps: periodic JSON snapshots of every
// grid point's accumulator state, so a killed run restarts from the last
// completed wave instead of recomputing.
//
// Exactness contract: every double in the snapshot is serialized with 17
// significant digits (support::exact_double_repr) and parsed back with
// the correctly-rounded strtod, so a resumed accumulator is bit-identical
// to the in-memory one — the adaptive sweep's "resumed run ==
// uninterrupted run" guarantee hangs on this round trip.
//
// A checkpoint is only meaningful for the exact sweep that wrote it, so
// the document carries a fingerprint over the grid (axis names/values),
// every cell's resolved engine configuration, the adaptive options and
// the violation depth; load_sweep_checkpoint refuses a mismatch instead
// of silently resuming the wrong experiment.
//
// Writes are atomic-by-rename (support::write_file_atomically), so a kill
// mid-write leaves the previous complete checkpoint in place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace neatbound::exp {

/// One grid cell's resumable state.
struct CellCheckpoint {
  std::uint32_t seeds_done = 0;   ///< engine runs already folded in
  std::uint64_t violations = 0;   ///< runs with violation_depth > T
  bool stopped = false;           ///< no further seeds will be scheduled
  bool stopped_early = false;     ///< stopped by the precision target
  sim::ExperimentSummary summary; ///< accumulators over seeds_done runs
};

/// Snapshot of a whole adaptive sweep between waves.
struct SweepCheckpoint {
  std::uint64_t fingerprint = 0;  ///< see sweep_fingerprint()
  std::uint64_t waves_done = 0;   ///< completed scheduling waves
  std::vector<CellCheckpoint> cells;  ///< one per grid cell, grid order
};

/// FNV-1a over a canonical description of the sweep: axis names/values,
/// per-cell engine parameters + base seed, the adaptive schedule
/// (min/batch/max seeds, half-width target, confidence), violation_t,
/// and the caller's fingerprint_context (the adversary's identity —
/// network and strategy components for scenario runs).  Doubles are
/// folded in at full precision.
class FingerprintBuilder {
 public:
  FingerprintBuilder& text(const std::string& piece);
  FingerprintBuilder& number(double value);
  FingerprintBuilder& integer(std::uint64_t value);
  [[nodiscard]] std::uint64_t finish() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;  ///< FNV-1a offset basis
};

/// Writes the checkpoint document (atomic-by-rename).  Throws
/// std::runtime_error when the file cannot be written.
void save_sweep_checkpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint);

/// Reads a checkpoint back, strictly (exact key sets at every level).
/// Throws std::runtime_error "<path>: <what>" naming the offending key on
/// unreadable or malformed files, on a format-version mismatch, and —
/// when `expected_fingerprint` is non-zero — on a fingerprint mismatch.
[[nodiscard]] SweepCheckpoint load_sweep_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint = 0);

}  // namespace neatbound::exp
