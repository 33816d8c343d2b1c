#include "protocol/hash.hpp"

#include "support/crng.hpp"

namespace neatbound::protocol {

HashValue RandomOracle::query(HashValue parent, std::uint64_t nonce,
                              std::uint64_t payload_digest) const noexcept {
  // Feed the tuple through the mix64 finalizer in a sponge-like
  // chain; distinct tuples map to independent-looking outputs.
  std::uint64_t h = seed_;
  h = mix64(h ^ (parent + 0x9e3779b97f4a7c15ULL));
  h = mix64(h ^ (nonce + 0xbf58476d1ce4e5b9ULL));
  h = mix64(h ^ (payload_digest + 0x94d049bb133111ebULL));
  return h;
}

}  // namespace neatbound::protocol
