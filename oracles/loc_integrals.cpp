#include "oracles/loc_integrals.hpp"

#include <algorithm>
#include <map>

namespace psched::metrics {

namespace {
/// Sweep all submit/start/finish breakpoints accumulating an integrand.
template <typename Integrand>
double sweep(const SimulationResult& result, Integrand integrand) {
  // delta maps: time -> change in (queued demand, running nodes)
  std::map<Time, std::pair<NodeCount, NodeCount>> deltas;
  for (const JobRecord& r : result.records) {
    deltas[r.job.submit].first += r.job.nodes;
    deltas[r.start].first -= r.job.nodes;
    deltas[r.start].second += r.job.nodes;
    deltas[r.finish].second -= r.job.nodes;
  }
  double integral = 0.0;
  NodeCount queued = 0;
  NodeCount running = 0;
  Time prev = kNoTime;
  for (const auto& [at, delta] : deltas) {
    if (prev != kNoTime && at > prev)
      integral += integrand(queued, running) * static_cast<double>(at - prev);
    queued += delta.first;
    running += delta.second;
    prev = at;
  }
  return integral;
}
}  // namespace

double recompute_loc_integral(const SimulationResult& result) {
  const NodeCount size = result.system_size;
  return sweep(result, [size](NodeCount queued, NodeCount running) {
    return static_cast<double>(std::min(queued, static_cast<NodeCount>(size - running)));
  });
}

double recompute_busy_integral(const SimulationResult& result) {
  return sweep(result, [](NodeCount, NodeCount running) { return static_cast<double>(running); });
}

}  // namespace psched::metrics
