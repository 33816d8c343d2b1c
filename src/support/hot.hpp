#ifndef NEATBOUND_SUPPORT_HOT_HPP
#define NEATBOUND_SUPPORT_HOT_HPP

// NEATBOUND_HOT marks a function as part of the engine's per-round hot
// path.  The marker is consumed by scripts/neatbound_analyze.py:
//
//   * the function and everything reachable from it through the project
//     call graph must be allocation-free (rule `hot-alloc`; amortized
//     growth paths carry a `// neatbound-analyze: allow(hot-alloc)`
//     with a written rationale);
//   * accessor-named hot members must be const, and hot leaf functions
//     (no project calls, no contracts, no allocation) must be noexcept
//     (rule `hot-hygiene`).
//
// The macro expands to nothing on every compiler: the analyzer matches
// the token itself, so the marker never changes generated code.
#define NEATBOUND_HOT

#endif  // NEATBOUND_SUPPORT_HOT_HPP
