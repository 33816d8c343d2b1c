// Known-bad fixture for the unordered-iteration rule: hash-order
// iteration feeding a sink.  Membership operations are fine; the
// range-for, the iterator loop and the loop whose element type names the
// unordered container are what leak libstdc++'s bucket order into output.
#include <iostream>
#include <unordered_map>

void dump_counts(std::ostream& sink,
                 const std::unordered_map<int, int>& lookup) {
  std::unordered_map<int, int> counts{{1, 2}, {3, 4}};
  counts.emplace(5, 6);
  // analyze-expect: unordered-iteration
  for (const auto& [key, value] : counts) {
    sink << key << ' ' << value << '\n';
  }
  // analyze-expect: unordered-iteration
  for (auto it = counts.begin(); it != counts.end(); ++it) {
    sink << it->first << '\n';
  }
  // analyze-expect: unordered-iteration
  for (const std::unordered_map<int, int>::value_type& kv : lookup) {
    sink << kv.first << '\n';
  }
}
