// The per-round honest block counts of a run, read the one way the engine
// offers them: round_activity().honest_mined, from a RoundObserver.  The
// engine itself counts C online and keeps no series; tests recount C from
// this one with count_convergence_opportunities.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace neatbound::sim::reference {

struct SeriesRun {
  RunResult result;
  std::vector<std::uint32_t> honest_mined;  ///< [r − 1] is round r
};

/// Runs `engine` under an observer that records each round's honest block
/// count and then calls `also`, if given.
inline SeriesRun run_with_series(
    ExecutionEngine& engine, const ExecutionEngine::RoundObserver& also = {}) {
  SeriesRun out;
  out.result = engine.run([&](const ExecutionEngine& e, std::uint64_t round) {
    out.honest_mined.push_back(e.round_activity().honest_mined);
    if (also) also(e, round);
  });
  return out;
}

}  // namespace neatbound::sim::reference
