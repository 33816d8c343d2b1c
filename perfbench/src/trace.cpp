#include "trace.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <stdexcept>

namespace perfbench {

namespace sc = neatbound::scenario;
namespace sim = neatbound::sim;

std::int32_t Tracer::open(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_stack_.empty() ? -1 : open_stack_.back();
  spans_.push_back({name, now_ns(), 0, parent, unit_});
  open_stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (open_stack_.empty() || open_stack_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void Tracer::cancel(std::int32_t id) {
  if (open_stack_.empty() || open_stack_.back() != id ||
      static_cast<std::size_t>(id) + 1 != spans_.size()) {
    throw std::logic_error("perfbench: cancelled span is not the last one");
  }
  open_stack_.pop_back();
  spans_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name,
                                      std::uint32_t unit) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.unit == unit && span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

double Tracer::total_s(const std::string& name, std::uint32_t unit) const {
  double total = 0.0;
  for (const double d : durations(name, unit)) total += d;
  return total;
}

double Tracer::self_s(const std::string& name, std::uint32_t unit) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::int64_t self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].unit == unit && spans_[i].name == name) {
      self += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(self) * 1e-9;
}

void Tracer::write_jsonl(std::ostream& os) const {
  for (const Span& span : spans_) {
    os << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
       << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
       << ",\"unit\":" << span.unit << "}\n";
  }
}

TimedAdversary::TimedAdversary(std::unique_ptr<sim::Adversary> inner,
                               Tracer& tracer,
                               const sim::EngineConfig& engine)
    : inner_(std::move(inner)),
      tracer_(tracer),
      engine_(engine),
      span_(tracer.open("sim.run")) {}

TimedAdversary::~TimedAdversary() {
  try {
    if (!used_) {
      tracer_.cancel(span_);
      return;
    }
    tracer_.close(span_);
    if (tracer_.current_spec == nullptr) {
      throw std::logic_error("perfbench: engine run outside a spec");
    }
    tracer_.jobs.push_back({tracer_.current_spec->adversary,
                            tracer_.current_spec->network, engine_});
  } catch (const std::exception& e) {
    tracer_.error = e.what();
  }
}

std::uint64_t TimedAdversary::honest_delay(std::uint64_t round,
                                           std::uint32_t sender,
                                           std::uint32_t recipient,
                                           neatbound::protocol::BlockIndex block) {
  used_ = true;
  return inner_->honest_delay(round, sender, recipient, block);
}

void TimedAdversary::on_honest_block(std::uint64_t round,
                                     neatbound::protocol::BlockIndex block) {
  used_ = true;
  inner_->on_honest_block(round, block);
}

void TimedAdversary::act(sim::AdversaryOps& ops) {
  used_ = true;
  const std::int64_t start = now_ns();
  inner_->act(ops);
  tracer_.act_ns += now_ns() - start;
  ++tracer_.acts;
}

void RssProbe::mark() {
  // Hand freed heap back first, so the next segment's high-water mark
  // starts from live memory rather than from whatever an earlier run left
  // cached in the allocator.
  malloc_trim(0);
  double peak_kb = 0.0;
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, status)) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        peak_kb = std::strtod(line + 6, nullptr);
        break;
      }
    }
    std::fclose(status);
  }
  if (peak_kb == 0.0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_kb = static_cast<double>(usage.ru_maxrss);
  }
  segments_.push_back(peak_kb / 1024.0);
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);  // 5 = reset the peak RSS to the current RSS
    std::fclose(refs);
  }
}

std::unique_ptr<sc::ScenarioRegistry> make_run_registry(RssProbe& probe,
                                                        Tracer* tracer) {
  auto registry = std::make_unique<sc::ScenarioRegistry>();
  sc::register_builtin_networks(*registry);
  const sc::ScenarioRegistry& builtin = sc::ScenarioRegistry::builtin();
  for (const sc::ScenarioRegistry::EntryInfo& info :
       builtin.adversary_strategies()) {
    registry->register_strategy(
        info, [&builtin, &probe, tracer, name = info.name](
                  const sc::Params& params, const sim::EngineConfig& engine,
                  std::uint32_t honest_count) -> std::unique_ptr<sim::Adversary> {
          probe.mark();
          auto strategy =
              builtin.make_strategy(name, params, engine, honest_count);
          if (tracer == nullptr) return strategy;
          return std::make_unique<TimedAdversary>(std::move(strategy), *tracer,
                                                  engine);
        });
  }
  return registry;
}

}  // namespace perfbench
