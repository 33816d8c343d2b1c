// Fixture: private file writers inside a simulation-core module.  Both
// the C++ stream and the C stdio path must fire trace-io — structured
// output belongs to sim::BoundedTraceWriter with a caller-owned stream.
#include <cstdio>
// analyze-expect: trace-io
#include <fstream>

namespace neatbound::sim {

void dump_round(unsigned long long round) {
  // analyze-expect: trace-io
  std::ofstream os("rounds.log", std::ios::app);
  os << round << '\n';
}

void dump_round_c(unsigned long long round) {
  // analyze-expect: trace-io
  FILE* handle = std::fopen("rounds.log", "a");
  if (handle != nullptr) {
    // analyze-expect: trace-io
    std::fprintf(handle, "%llu\n", round);
    std::fclose(handle);
  }
}

}  // namespace neatbound::sim
