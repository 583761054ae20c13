// Brute-force reference max-min solver shared by the fluid property suites.
// Unlike the production solver it keeps no incremental state: every round
// it recomputes each resource's residual capacity and weight sum from
// scratch over the frozen/unfrozen sets, finds the tightest constraint,
// freezes the flows it binds, and repeats.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace nm::oracle {

struct RefFlow {
  std::vector<std::size_t> res;  // resource indices
  std::vector<double> weight;    // parallel to res
  double cap = std::numeric_limits<double>::infinity();  // max rate (0 when suspended)
};

/// Max-min fair rate of every flow over resources of the given capacities.
inline std::vector<double> reference_rates(const std::vector<double>& capacity,
                                           const std::vector<RefFlow>& flows) {
  const std::size_t f_count = flows.size();
  std::vector<double> rate(f_count, 0.0);
  std::vector<bool> frozen(f_count, false);
  std::size_t left = f_count;
  while (left > 0) {
    // Residual capacity and unfrozen weight per resource, from scratch.
    std::vector<double> residual = capacity;
    std::vector<double> wsum(capacity.size(), 0.0);
    std::vector<std::size_t> unfrozen(capacity.size(), 0);
    for (std::size_t f = 0; f < f_count; ++f) {
      for (std::size_t s = 0; s < flows[f].res.size(); ++s) {
        if (frozen[f]) {
          residual[flows[f].res[s]] -= rate[f] * flows[f].weight[s];
        } else {
          wsum[flows[f].res[s]] += flows[f].weight[s];
          ++unfrozen[flows[f].res[s]];
        }
      }
    }
    double bound = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < capacity.size(); ++r) {
      if (unfrozen[r] > 0 && wsum[r] > 0.0) {
        bound = std::min(bound, std::max(0.0, residual[r]) / wsum[r]);
      }
    }
    for (std::size_t f = 0; f < f_count; ++f) {
      if (!frozen[f]) {
        bound = std::min(bound, flows[f].cap);
      }
    }
    if (!std::isfinite(bound)) {
      ADD_FAILURE() << "reference solver found no finite bound";
      return rate;
    }
    std::vector<bool> binding(capacity.size(), false);
    for (std::size_t r = 0; r < capacity.size(); ++r) {
      binding[r] = unfrozen[r] > 0 && wsum[r] > 0.0 &&
                   std::max(0.0, residual[r]) / wsum[r] <= bound * (1.0 + 1e-12);
    }
    bool progress = false;
    for (std::size_t f = 0; f < f_count; ++f) {
      if (frozen[f]) {
        continue;
      }
      bool freeze = flows[f].cap <= bound * (1.0 + 1e-12);
      for (std::size_t s = 0; !freeze && s < flows[f].res.size(); ++s) {
        freeze = binding[flows[f].res[s]];
      }
      if (freeze) {
        rate[f] = std::min(bound, flows[f].cap);
        frozen[f] = true;
        --left;
        progress = true;
      }
    }
    if (!progress) {
      ADD_FAILURE() << "reference solver stalled";
      return rate;
    }
  }
  return rate;
}

}  // namespace nm::oracle
