#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "exp/adaptive.hpp"
#include "exp/checkpoint.hpp"
#include "sim/runner.hpp"

namespace neatbound::exp {
namespace {

/// Unique per-test checkpoint path under the system temp dir, removed on
/// destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("neatbound_" + stem + "_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                ".json"))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_state_bits(const stats::RunningStats& a,
                       const stats::RunningStats& b) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_TRUE(bits_equal(sa.mean, sb.mean));
  EXPECT_TRUE(bits_equal(sa.m2, sb.m2));
  EXPECT_TRUE(bits_equal(sa.min, sb.min));
  EXPECT_TRUE(bits_equal(sa.max, sb.max));
}

TEST(ExactDoubleRepr, RoundTripsThroughStrtod) {
  for (const double value :
       {0.1, 1.0 / 3.0, 2.0 / 7.0, 1e-300, 1.7976931348623157e308,
        -0.3333333333333333, 123456.789012345678, 5e-324}) {
    const std::string repr = exact_double_repr(value);
    EXPECT_TRUE(bits_equal(std::strtod(repr.c_str(), nullptr), value))
        << repr;
  }
}

TEST(Checkpoint, SaveLoadRoundTripsAccumulatorsBitExactly) {
  TempFile file("roundtrip");
  SweepCheckpoint out;
  out.fingerprint = 0xdeadbeefcafef00dULL;
  out.waves_done = 7;
  for (int c = 0; c < 3; ++c) {
    CellCheckpoint cell;
    cell.seeds_done = 5 + static_cast<std::uint32_t>(c);
    cell.violations = static_cast<std::uint64_t>(c);
    cell.stopped = c == 1;
    cell.stopped_early = c == 1;
    // Irrational-ish streams so mean/m2 exercise the full mantissa.
    for (int i = 1; i <= 9 + c; ++i) {
      cell.summary.violation_depth.add(1.0 / i + c);
      cell.summary.chain_growth.add(0.1234567890123 * i);
      cell.summary.chain_quality.add(i % 2 ? 1.0 / 3 : 2.0 / 7);
    }
    out.cells.push_back(std::move(cell));
  }
  save_sweep_checkpoint(file.path(), out);

  const SweepCheckpoint in =
      load_sweep_checkpoint(file.path(), out.fingerprint);
  EXPECT_EQ(in.fingerprint, out.fingerprint);
  EXPECT_EQ(in.waves_done, out.waves_done);
  ASSERT_EQ(in.cells.size(), out.cells.size());
  for (std::size_t c = 0; c < in.cells.size(); ++c) {
    EXPECT_EQ(in.cells[c].seeds_done, out.cells[c].seeds_done);
    EXPECT_EQ(in.cells[c].violations, out.cells[c].violations);
    EXPECT_EQ(in.cells[c].stopped, out.cells[c].stopped);
    EXPECT_EQ(in.cells[c].stopped_early, out.cells[c].stopped_early);
    expect_state_bits(in.cells[c].summary.violation_depth,
                      out.cells[c].summary.violation_depth);
    expect_state_bits(in.cells[c].summary.chain_growth,
                      out.cells[c].summary.chain_growth);
    expect_state_bits(in.cells[c].summary.chain_quality,
                      out.cells[c].summary.chain_quality);
    // Untouched fields stay empty.
    EXPECT_EQ(in.cells[c].summary.honest_blocks.count(), 0u);
  }
  // Atomic-by-rename: no temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

TEST(Checkpoint, SaveOverwritesExistingFile) {
  TempFile file("overwrite");
  SweepCheckpoint first;
  first.fingerprint = 1;
  first.cells.emplace_back();
  save_sweep_checkpoint(file.path(), first);
  SweepCheckpoint second;
  second.fingerprint = 2;
  second.waves_done = 3;
  second.cells.emplace_back();
  second.cells.emplace_back();
  save_sweep_checkpoint(file.path(), second);
  const SweepCheckpoint in = load_sweep_checkpoint(file.path());
  EXPECT_EQ(in.fingerprint, 2u);
  EXPECT_EQ(in.cells.size(), 2u);
}

TEST(Checkpoint, FingerprintMismatchAndMalformedFilesThrow) {
  TempFile file("mismatch");
  SweepCheckpoint out;
  out.fingerprint = 42;
  out.cells.emplace_back();
  save_sweep_checkpoint(file.path(), out);
  EXPECT_NO_THROW((void)load_sweep_checkpoint(file.path(), 42));
  EXPECT_THROW((void)load_sweep_checkpoint(file.path(), 43),
               std::runtime_error);

  // seeds_done past 2^32, which a bare cast would truncate back to 0.
  {
    std::ifstream in(file.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::string field = "\"seeds_done\": 0";
    const auto pos = text.find(field);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, field.size(), "\"seeds_done\": 4294967296");
    std::ofstream(file.path(), std::ios::trunc) << text;
    EXPECT_THROW((void)load_sweep_checkpoint(file.path(), 42),
                 std::runtime_error);
  }
  std::ofstream(file.path(), std::ios::trunc) << "{\"format\": \"other\"}";
  EXPECT_THROW((void)load_sweep_checkpoint(file.path()),
               std::runtime_error);
  std::ofstream(file.path(), std::ios::trunc) << "{ not json";
  EXPECT_THROW((void)load_sweep_checkpoint(file.path()),
               std::runtime_error);
  EXPECT_THROW((void)load_sweep_checkpoint(file.path() + ".does-not-exist"),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Resume through the adaptive sweep itself.

sim::ExperimentConfig cell_config(double nu, double p) {
  sim::ExperimentConfig config;
  config.engine.miner_count = 12;
  config.engine.adversary_fraction = nu;
  config.engine.p = p;
  config.engine.delta = 2;
  config.engine.rounds = 600;
  config.adversary = sim::AdversaryKind::kPrivateWithhold;
  config.seeds = 9;
  config.base_seed = 9000;
  return config;
}

SweepGrid small_grid() {
  SweepGrid grid;
  grid.axis("nu", {0.2, 0.35});
  return grid;
}

ConfigBuilder small_builder() {
  return [](const GridPoint& point) {
    return cell_config(point.value("nu"), 0.03);
  };
}

AdaptiveOptions schedule() {
  AdaptiveOptions adaptive;
  adaptive.min_seeds = 3;
  adaptive.batch = 3;
  adaptive.max_seeds = 9;
  adaptive.half_width = 0.0;  // 3 waves for every cell
  return adaptive;
}

void expect_identical_cells(const AdaptiveSweepResult& a,
                            const AdaptiveSweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].seeds_used, b.cells[i].seeds_used);
    EXPECT_EQ(a.cells[i].violations, b.cells[i].violations);
    expect_state_bits(a.cells[i].cell.summary.violation_depth,
                      b.cells[i].cell.summary.violation_depth);
    expect_state_bits(a.cells[i].cell.summary.chain_growth,
                      b.cells[i].cell.summary.chain_growth);
    expect_state_bits(a.cells[i].cell.summary.chain_quality,
                      b.cells[i].cell.summary.chain_quality);
    expect_state_bits(a.cells[i].cell.summary.honest_blocks,
                      b.cells[i].cell.summary.honest_blocks);
    expect_state_bits(a.cells[i].cell.summary.violation_exceeds_t,
                      b.cells[i].cell.summary.violation_exceeds_t);
  }
}

/// The acceptance property: interrupt after wave 1, resume, and the
/// final result is bit-identical to an uninterrupted run.
TEST(Checkpoint, InterruptedThenResumedSweepBitIdenticalToUninterrupted) {
  const SweepOptions options{.violation_t = 4, .threads = 4};
  const AdaptiveSweepResult uninterrupted =
      run_sweep_adaptive(small_grid(), small_builder(), options, schedule());
  ASSERT_TRUE(uninterrupted.complete);
  EXPECT_EQ(uninterrupted.waves, 3u);

  TempFile file("resume");
  AdaptiveOptions interrupted_schedule = schedule();
  interrupted_schedule.checkpoint_path = file.path();
  interrupted_schedule.stop_after_waves = 1;
  const AdaptiveSweepResult partial = run_sweep_adaptive(
      small_grid(), small_builder(), options, interrupted_schedule);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.waves, 1u);
  ASSERT_TRUE(std::filesystem::exists(file.path()));

  AdaptiveOptions resume_schedule = schedule();
  resume_schedule.checkpoint_path = file.path();
  resume_schedule.resume = true;
  const AdaptiveSweepResult resumed = run_sweep_adaptive(
      small_grid(), small_builder(), options, resume_schedule);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.waves, 3u);  // 1 restored + 2 run here
  EXPECT_EQ(resumed.engine_runs, uninterrupted.engine_runs);
  expect_identical_cells(resumed, uninterrupted);
}

/// Resuming a finished checkpoint schedules nothing and reproduces the
/// result (idempotent restarts).
TEST(Checkpoint, ResumingACompletedSweepRunsNoWaves) {
  TempFile file("complete");
  const SweepOptions options{.violation_t = 4, .threads = 2};
  AdaptiveOptions with_checkpoint = schedule();
  with_checkpoint.checkpoint_path = file.path();
  const AdaptiveSweepResult first = run_sweep_adaptive(
      small_grid(), small_builder(), options, with_checkpoint);
  ASSERT_TRUE(first.complete);

  AdaptiveOptions resume_schedule = with_checkpoint;
  resume_schedule.resume = true;
  const AdaptiveSweepResult again = run_sweep_adaptive(
      small_grid(), small_builder(), options, resume_schedule);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.waves, first.waves);
  expect_identical_cells(again, first);
}

/// A checkpoint written by a different sweep (other grid values) must be
/// rejected, not silently resumed.
TEST(Checkpoint, ResumeRejectsCheckpointFromDifferentSweep) {
  TempFile file("fingerprint");
  const SweepOptions options{.violation_t = 4, .threads = 2};
  AdaptiveOptions with_checkpoint = schedule();
  with_checkpoint.checkpoint_path = file.path();
  (void)run_sweep_adaptive(small_grid(), small_builder(), options,
                           with_checkpoint);

  SweepGrid other;
  other.axis("nu", {0.2, 0.4});  // different axis values
  AdaptiveOptions resume_schedule = with_checkpoint;
  resume_schedule.resume = true;
  EXPECT_THROW((void)run_sweep_adaptive(other, small_builder(), options,
                                        resume_schedule),
               std::runtime_error);
}

/// resume with a missing file starts fresh instead of failing, so first
/// runs and restarts share one invocation.
TEST(Checkpoint, ResumeWithMissingFileStartsFresh) {
  TempFile file("fresh");
  const SweepOptions options{.violation_t = 4, .threads = 2};
  AdaptiveOptions resume_schedule = schedule();
  resume_schedule.checkpoint_path = file.path();
  resume_schedule.resume = true;
  const AdaptiveSweepResult result = run_sweep_adaptive(
      small_grid(), small_builder(), options, resume_schedule);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.waves, 3u);
  EXPECT_TRUE(std::filesystem::exists(file.path()));
}

}  // namespace
}  // namespace neatbound::exp
