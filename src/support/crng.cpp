#include "support/crng.hpp"

#include <cmath>

namespace neatbound {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace neatbound

namespace neatbound::crng {

namespace {

// Philox4x64 round constants (Random123 / Salmon et al., SC'11).
constexpr std::uint64_t kMult0 = 0xD2E7470EE14C6C93ULL;
constexpr std::uint64_t kMult1 = 0xCA5A826395121157ULL;
constexpr std::uint64_t kWeyl0 = 0x9E3779B97F4A7C15ULL;  // golden ratio
constexpr std::uint64_t kWeyl1 = 0xBB67AE8584CAA73BULL;  // sqrt(3) - 1

struct HiLo {
  std::uint64_t hi;
  std::uint64_t lo;
};

inline HiLo mulhilo(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  return {static_cast<std::uint64_t>(product >> 64),
          static_cast<std::uint64_t>(product)};
}

}  // namespace

Block philox4x64(const Counter& counter, const Key& key) noexcept {
  std::uint64_t c0 = counter.a;
  std::uint64_t c1 = counter.b;
  std::uint64_t c2 = counter.purpose;
  std::uint64_t c3 = counter.slot;
  std::uint64_t k0 = key.cell;
  std::uint64_t k1 = key.seed;
  for (int round = 0; round < 10; ++round) {
    const HiLo p0 = mulhilo(kMult0, c0);
    const HiLo p1 = mulhilo(kMult1, c2);
    c0 = p1.hi ^ c1 ^ k0;
    c1 = p1.lo;
    c2 = p0.hi ^ c3 ^ k1;
    c3 = p0.lo;
    k0 += kWeyl0;
    k1 += kWeyl1;
  }
  return {c0, c1, c2, c3};
}

std::uint64_t draw(const Key& key, const Counter& counter) noexcept {
  return philox4x64(counter, key)[0];
}

std::uint64_t Stream::bits() noexcept {
  if (lane_ == 4) {
    buffer_ = philox4x64(prefix_, key_);
    ++prefix_.slot;
    lane_ = 0;
  }
  return buffer_[lane_++];
}

std::uint64_t Stream::uniform_below(std::uint64_t bound) {
  NEATBOUND_EXPECTS(bound > 0, "uniform_below requires bound > 0");
  // Classic rejection: discard draws below 2^64 mod bound so that the
  // final modulo is unbiased.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = bits();
    if (r >= threshold) return r % bound;
  }
}

bool Stream::bernoulli(double p) {
  NEATBOUND_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli requires p in [0,1]");
  return uniform() < p;
}

std::uint64_t Stream::geometric_failures(double p) {
  NEATBOUND_EXPECTS(p > 0.0 && p <= 1.0,
                    "geometric_failures requires p in (0,1]");
  if (p == 1.0) return 0;
  // Inversion: floor(ln U / ln(1-p)).
  const double u = 1.0 - uniform();  // in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

}  // namespace neatbound::crng
