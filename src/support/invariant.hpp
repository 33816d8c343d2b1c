// Compiled-in structural invariants for the engine's hot-path data
// structures.
//
// NEATBOUND_INVARIANT(cond, msg) is the third tier of the repo's checking
// ladder:
//
//   NEATBOUND_EXPECTS   precondition on caller-supplied arguments — always
//                       on (support/contracts.hpp);
//   NEATBOUND_ENSURES   postcondition on a computed result — always on;
//   NEATBOUND_INVARIANT internal structural consistency of a data
//                       structure across mutations (column lockstep,
//                       intrusive-list ↔ bitset agreement, ring capacity).
//                       Active in Debug and sanitized builds, compiled out
//                       (condition unevaluated) in Release.
//
// The split exists because invariants sit on the T×n hot path: they are
// exactly the checks whose silent violation produced the PR 4 orphan-buffer
// corruption, but paying for them on every delivery in Release would erase
// the perf work they protect.  A violation therefore fails loudly at the
// *mutation site* in every checking build, and costs nothing in
// Release, the configuration perfbench measures.
//
// Activation — the macro NEATBOUND_CHECK_INVARIANTS (0 or 1):
//   * set tree-wide by the CMake cache variable of the same name
//     (AUTO | ON | OFF; AUTO turns checks on for Debug and any
//     NEATBOUND_SANITIZE build);
//   * when CMake leaves it unset (AUTO, unsanitized), it defaults from
//     NDEBUG below — Debug on, Release off.
// It must be consistent across every TU of a build (CMake sets it globally)
// because the macro expands inside headers.
//
// Failures throw neatbound::ContractViolation (via contracts.hpp) so tests
// can provoke and observe them; under a sanitizer the throw also leaves a
// clean stack for the report.
#pragma once

#include "support/contracts.hpp"

#if !defined(NEATBOUND_CHECK_INVARIANTS)
#if defined(NDEBUG)
#define NEATBOUND_CHECK_INVARIANTS 0
#else
#define NEATBOUND_CHECK_INVARIANTS 1
#endif
#endif

#if NEATBOUND_CHECK_INVARIANTS
#define NEATBOUND_INVARIANT(cond, msg)                                      \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::neatbound::detail::contract_fail("structural invariant", #cond,     \
                                         __FILE__, __LINE__, (msg));        \
    }                                                                       \
  } while (false)
#else
#define NEATBOUND_INVARIANT(cond, msg) \
  do {                                 \
  } while (false)
#endif

namespace neatbound {

/// True when NEATBOUND_INVARIANT is active in this build — lets tests skip
/// the provoke-and-observe cases in configurations that compiled the
/// checks out instead of failing confusingly.
inline constexpr bool invariant_checks_enabled() noexcept {
  return NEATBOUND_CHECK_INVARIANTS != 0;
}

}  // namespace neatbound
