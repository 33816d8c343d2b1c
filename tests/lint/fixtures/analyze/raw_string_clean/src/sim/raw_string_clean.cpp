// Regression fixture for the shared-lexer migration: rule-triggering
// text inside raw string literals and multi-line block comments must NOT
// fire.  The old line-oriented stripper mis-lexed both (a raw string
// could swallow code; a block comment was handled but strings were not).
// No analyze-expect lines: this file must scan clean.
#include <string>

/* A multi-line block comment mentioning std::random_device and
   rand() and system_clock across
   several lines must stay invisible to every rule. */

namespace fixture {

inline std::string docs() {
  // Raw string: the payload looks exactly like findings but is data.
  return R"doc(
    std::random_device entropy;
    std::mt19937 gen(std::chrono::system_clock::now().time_since_epoch().count());
    for (auto& kv : table.unordered_map_field) {}
  )doc";
}

inline std::string plain_string() {
  // A '//' inside a string is not a comment; nothing after it on this
  // line is a finding either.
  return "see https://example.org/rand?q=srand(time(NULL))";
}

}  // namespace fixture
