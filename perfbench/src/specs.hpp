// Workload inputs: scenario specs generated from the benchmark's --seed.
//
// Every spec is written as a scenario file and read back through
// scenario::load_scenario_file, the path `neatbound_cli run` takes.  The
// seed becomes each spec's base_seed; nothing else depends on it, so the
// same seed always yields byte-identical spec files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { kDenseGrid, kSparsePrecision, kObservedMix };

struct SpecFile {
  std::string name;  ///< file stem, also the spec's "name"
  std::string text;  ///< the scenario document
};

/// The specs of one workload for `seed`.  `toy` shrinks every spec to a
/// few hundred rounds for the self-test.
[[nodiscard]] std::vector<SpecFile> workload_specs(WorkloadKind kind,
                                                   std::uint64_t seed,
                                                   bool toy);

/// Parses a workload name ("dense-grid", ...); throws on an unknown one.
[[nodiscard]] WorkloadKind parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(WorkloadKind kind);

}  // namespace perfbench
