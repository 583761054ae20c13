// Fluid-layer work counters by name: the snapshot a scenario result
// carries, under the names perfbench prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/fluid_net.h"
#include "sim/solve_pool.h"

namespace nm::scenarios {

/// Counter name -> value.
using Counters = std::map<std::string, std::uint64_t>;

/// Reads `net`'s SolvePool and boundary-exchange counters. A net without a
/// pool (a single domain) reads 0 for every `pool.*` counter.
inline Counters counters(sim::FluidNet& net) {
  const sim::SolvePool* pool = net.pool();
  return {
      {"pool.settles", pool != nullptr ? pool->settle_count() : 0},
      {"pool.solved_components", pool != nullptr ? pool->solved_component_count() : 0},
      {"pool.max_batch", pool != nullptr ? pool->max_batch_size() : 0},
      {"net.exchange_rounds", net.exchange_round_count()},
      {"net.exchange_skips", net.exchange_skip_count()},
      {"net.unconverged", net.unconverged_exchange_count()},
      {"net.max_rounds_per_settle", net.max_exchange_rounds_per_settle()},
  };
}

}  // namespace nm::scenarios
