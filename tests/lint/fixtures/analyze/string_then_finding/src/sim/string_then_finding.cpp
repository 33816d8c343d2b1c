// Regression fixture: a string containing "//" followed by a REAL
// finding on the same line.  The old stripper treated the quoted "//"
// as a comment start and blanked the rest of the line, hiding the
// finding; the shared lexer blanks only the string itself.
// analyze-expect: rng-stream
#include <random>
#include <string>

namespace fixture {

inline unsigned hidden_after_url() {
  // analyze-expect: nondeterministic-source
  const std::string tag = "http://seed"; std::random_device dev;
  return dev() + static_cast<unsigned>(tag.size());
}

}  // namespace fixture
