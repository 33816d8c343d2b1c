#include "stats/distributions.hpp"

#include <cmath>

#include "support/math.hpp"

namespace neatbound::stats {

Binomial::Binomial(double n, double p) : n_(n), p_(p) {
  NEATBOUND_EXPECTS(n >= 0.0, "Binomial requires n >= 0");
  NEATBOUND_EXPECTS(p >= 0.0 && p <= 1.0, "Binomial requires p in [0,1]");
}

LogProb Binomial::pmf(double k) const {
  NEATBOUND_EXPECTS(k >= 0.0 && k <= n_, "pmf requires 0 <= k <= n");
  if (p_ == 0.0) return k == 0.0 ? LogProb::one() : LogProb::zero();
  if (p_ == 1.0) return k == n_ ? LogProb::one() : LogProb::zero();
  const double log_pmf = log_binomial_coefficient(n_, k) +
                         k * std::log(p_) + (n_ - k) * std::log1p(-p_);
  return LogProb::from_log(log_pmf);
}

LogProb Binomial::cdf(std::uint64_t k) const {
  LogProb total = LogProb::zero();
  const double kd = static_cast<double>(k);
  for (double i = 0.0; i <= kd && i <= n_; i += 1.0) {
    total += pmf(i);
  }
  // Clamp tiny log-sum-exp overshoot above 1.
  return total.log() > 0.0 ? LogProb::one() : total;
}

LogProb Binomial::sf(std::uint64_t k) const {
  if (k == 0) return LogProb::one();
  const double kd = static_cast<double>(k);
  if (kd <= mean()) return cdf(k - 1).complement();
  // Past the mean the terms fall monotonically: sum the tail itself, so a
  // tail far below 1e-16 keeps its relative precision.
  LogProb total = LogProb::zero();
  for (double i = kd; i <= n_; i += 1.0) {
    const LogProb term = pmf(i);
    total += term;
    if (term.log() < total.log() - 40.0) break;
  }
  return total;
}

LogProb Binomial::prob_zero() const { return pow_one_minus(p_, n_); }

LogProb Binomial::prob_one() const {
  if (p_ == 0.0 || n_ == 0.0) return LogProb::zero();
  return LogProb::from_linear(n_ * p_) * pow_one_minus(p_, n_ - 1.0);
}

LogProb Binomial::prob_positive() const { return prob_zero().complement(); }

Geometric::Geometric(double p) : p_(p) {
  NEATBOUND_EXPECTS(p > 0.0 && p <= 1.0, "Geometric requires p in (0,1]");
}

LogProb Geometric::pmf(std::uint64_t k) const {
  return pow_one_minus(p_, static_cast<double>(k)) * LogProb::from_linear(p_);
}

LogProb Geometric::sf(std::uint64_t k) const {
  return pow_one_minus(p_, static_cast<double>(k));
}

Poisson::Poisson(double lambda) : lambda_(lambda) {
  NEATBOUND_EXPECTS(lambda >= 0.0, "Poisson requires lambda >= 0");
}

LogProb Poisson::pmf(std::uint64_t k) const {
  if (lambda_ == 0.0) return k == 0 ? LogProb::one() : LogProb::zero();
  const double kd = static_cast<double>(k);
  return LogProb::from_log(kd * std::log(lambda_) - lambda_ -
                           std::lgamma(kd + 1.0));
}

}  // namespace neatbound::stats
