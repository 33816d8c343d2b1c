#include "ledger.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "net/delivery.hpp"
#include "protocol/block_store.hpp"
#include "scenario/registry.hpp"
#include "sim/draws.hpp"
#include "sim/metrics.hpp"
#include "sim/miner_view.hpp"
#include "support/crng.hpp"

namespace perfbench {

namespace sc = neatbound::scenario;
namespace sim = neatbound::sim;
namespace net = neatbound::net;
namespace crng = neatbound::crng;
namespace protocol = neatbound::protocol;

namespace {

std::unique_ptr<sim::ExecutionEngine> make_engine(const Job& job) {
  return std::make_unique<sim::ExecutionEngine>(
      job.engine, sc::ScenarioRegistry::builtin().make_adversary(
                      job.network.kind, job.network.params,
                      job.adversary.kind, job.adversary.params, job.engine));
}

/// Keeps replayed results observable so the loops are not folded away.
volatile std::uint64_t g_sink = 0;

/// Deterministic index picker for replay inputs (splitmix64).
class Picker {
 public:
  explicit Picker(std::uint64_t seed) : state_(seed) {}
  std::uint64_t below(std::uint64_t bound) {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) % bound;
  }

 private:
  std::uint64_t state_;
};

template <typename Body>
double ns_per_op(std::uint64_t ops, Body&& body) {
  const std::int64_t start = now_ns();
  body();
  return static_cast<double>(now_ns() - start) / static_cast<double>(ops);
}

constexpr std::uint64_t kDraws = 200000;

UnitCosts costs_of(const Job& job, const sim::ExecutionEngine& engine,
                   const RoundCounts& counts) {
  UnitCosts c;
  const protocol::BlockStore& store = engine.store();
  const std::uint64_t blocks = store.size();
  if (blocks < 3) return c;  // nothing to replay from
  const crng::Key key = sim::engine_rng_key(job.engine);
  const std::uint32_t honest = engine.honest_count();
  Picker pick(job.engine.seed);

  c.crng_block_ns = ns_per_op(kDraws, [&] {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kDraws; ++i) {
      acc ^= crng::philox4x64({i, 0, static_cast<std::uint64_t>(
                                         crng::Purpose::kHonestBlock), 0},
                              key)[0];
    }
    g_sink = acc;
  });

  c.gap_take_ns = ns_per_op(kDraws, [&] {
    sim::GapCursor cursor(key, crng::Purpose::kHonestGap, job.engine.p);
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kDraws; ++i) acc += cursor.take();
    g_sink = acc;
  });

  // Calendar: the run's mean deliveries per active round, each due 1..Δ
  // rounds ahead, drained round by round.
  const std::uint64_t per_round = std::max<std::uint64_t>(
      1, counts.active ? counts.deliveries / counts.active : 1);
  const std::uint64_t cal_rounds = std::max<std::uint64_t>(1, kDraws / per_round);
  c.calendar_msg_ns = ns_per_op(cal_rounds * per_round, [&] {
    net::DeliveryCalendar calendar(honest);
    std::uint64_t acc = 0;
    for (std::uint64_t r = 1; r <= cal_rounds; ++r) {
      calendar.drain_due(r, [&](const net::Delivery& d) { acc += d.block; });
      for (std::uint64_t i = 0; i < per_round; ++i) {
        calendar.schedule(r + 1 + (i % job.engine.delta),
                          static_cast<std::uint32_t>(i % honest),
                          static_cast<protocol::BlockIndex>(i % blocks));
      }
    }
    calendar.drain_due(cal_rounds + job.engine.delta + 1,
                       [&](const net::Delivery& d) { acc += d.block; });
    g_sink = acc;
  });

  // MinerView: the run's whole store delivered in mining order (parents
  // first) to fresh views, then again as duplicates.
  const std::uint64_t passes =
      std::max<std::uint64_t>(1, kDraws / std::max<std::uint64_t>(1, blocks));
  std::vector<sim::MinerView> views(passes);
  c.deliver_fresh_ns = ns_per_op(passes * (blocks - 1), [&] {
    std::uint64_t acc = 0;
    for (sim::MinerView& view : views) {
      for (protocol::BlockIndex b = 1; b < blocks; ++b) {
        acc += view.deliver(b, store).adopted ? 1 : 0;
      }
    }
    g_sink = acc;
  });
  c.deliver_dup_ns = ns_per_op(passes * (blocks - 1), [&] {
    std::uint64_t acc = 0;
    for (sim::MinerView& view : views) {
      for (protocol::BlockIndex b = 1; b < blocks; ++b) {
        acc += view.deliver(b, store).adopted ? 1 : 0;
      }
    }
    g_sink = acc;
  });

  // Ancestry: a block and one mined shortly after it (up to 2n blocks
  // later), the shape of two honest tips racing.
  std::vector<std::pair<protocol::BlockIndex, protocol::BlockIndex>> pairs;
  pairs.reserve(kDraws);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const auto a = static_cast<protocol::BlockIndex>(1 + pick.below(blocks - 1));
    const auto b = static_cast<protocol::BlockIndex>(
        std::min<std::uint64_t>(blocks - 1, a + 1 + pick.below(2 * honest)));
    pairs.emplace_back(a, b);
  }
  c.common_ancestor_ns = ns_per_op(kDraws, [&] {
    std::uint64_t acc = 0;
    for (const auto& [a, b] : pairs) acc += store.common_ancestor(a, b);
    g_sink = acc;
  });

  // Consistency tracker: end-of-round tips of all honest views, mostly
  // one shared tip; every fourth round one view lags on a sibling.
  std::vector<std::vector<protocol::BlockIndex>> tip_sets;
  constexpr std::uint64_t kRounds = 20000;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    const auto a = static_cast<protocol::BlockIndex>(1 + pick.below(blocks - 1));
    std::vector<protocol::BlockIndex> tips(honest, a);
    if (i % 4 == 0 && a > 1) tips[0] = a - 1;
    tip_sets.push_back(std::move(tips));
  }
  c.observe_round_ns = ns_per_op(kRounds, [&] {
    sim::ConsistencyTracker tracker;
    for (const auto& tips : tip_sets) tracker.observe_round(tips, store);
    g_sink = tracker.violation_depth();
  });
  return c;
}

bool same_cell(const Job& a, const Job& b) {
  return a.adversary.kind == b.adversary.kind &&
         a.network.kind == b.network.kind &&
         a.engine.miner_count == b.engine.miner_count &&
         a.engine.adversary_fraction == b.engine.adversary_fraction &&
         a.engine.p == b.engine.p && a.engine.delta == b.engine.delta &&
         a.engine.rounds == b.engine.rounds;
}

}  // namespace

RoundCounts count_jobs(const std::vector<Job>& jobs) {
  RoundCounts counts;
  for (const Job& job : jobs) {
    const auto engine = make_engine(job);
    (void)engine->run([&](const sim::ExecutionEngine& e, std::uint64_t) {
      count_round(e, counts);
    });
  }
  return counts;
}

UnitCosts measure_unit_costs(const std::vector<Job>& jobs,
                             const RoundCounts& counts) {
  // The first job of each distinct cell, thinned evenly to kMaxCells so
  // multi-spec workloads are sampled across their specs.
  constexpr std::size_t kMaxCells = 6;
  std::vector<const Job*> cells;
  for (const Job& job : jobs) {
    if (std::none_of(cells.begin(), cells.end(),
                     [&](const Job* r) { return same_cell(*r, job); })) {
      cells.push_back(&job);
    }
  }
  std::vector<const Job*> reps;
  for (std::size_t i = 0; i < std::min(kMaxCells, cells.size()); ++i) {
    reps.push_back(cells[i * cells.size() / std::min(kMaxCells, cells.size())]);
  }
  UnitCosts mean;
  for (const Job* job : reps) {
    const auto engine = make_engine(*job);
    (void)engine->run();
    const UnitCosts c = costs_of(*job, *engine, counts);
    mean.crng_block_ns += c.crng_block_ns;
    mean.gap_take_ns += c.gap_take_ns;
    mean.calendar_msg_ns += c.calendar_msg_ns;
    mean.deliver_fresh_ns += c.deliver_fresh_ns;
    mean.deliver_dup_ns += c.deliver_dup_ns;
    mean.common_ancestor_ns += c.common_ancestor_ns;
    mean.observe_round_ns += c.observe_round_ns;
  }
  const double n = reps.empty() ? 1.0 : static_cast<double>(reps.size());
  for (double* field :
       {&mean.crng_block_ns, &mean.gap_take_ns, &mean.calendar_msg_ns,
        &mean.deliver_fresh_ns, &mean.deliver_dup_ns,
        &mean.common_ancestor_ns, &mean.observe_round_ns}) {
    *field /= n;
  }
  return mean;
}

double modelled_seconds(const std::vector<Job>& jobs, const RoundCounts& counts,
                        const UnitCosts& costs, double measured_s) {
  // A published block reaches each other honest view once fresh; every
  // further delivery of it (gossip echo) is a duplicate.
  double honest = 0.0;
  for (const Job& job : jobs) {
    honest += static_cast<double>(sim::honest_miner_count(job.engine));
  }
  honest = jobs.empty() ? 1.0 : honest / static_cast<double>(jobs.size());
  const auto blocks = static_cast<double>(counts.blocks);
  const auto deliveries = static_cast<double>(counts.deliveries);
  const double fresh = std::min(deliveries, blocks * std::max(0.0, honest - 1.0));
  const double ns =
      blocks * (costs.gap_take_ns + costs.crng_block_ns) +
      deliveries * costs.calendar_msg_ns + fresh * costs.deliver_fresh_ns +
      (deliveries - fresh) * costs.deliver_dup_ns +
      static_cast<double>(counts.rounds) * costs.observe_round_ns;
  return ns * 1e-9 + measured_s;
}

}  // namespace perfbench
