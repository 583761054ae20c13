// LatencyHistogram, the SLO-reporting primitive of the request-serving
// workload layer: fixed log-scale bins, so p50/p99/p999 come out of a
// bounded footprint without storing samples.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/error.h"
#include "util/units.h"

namespace nm {

/// Fixed-bin log-scale latency histogram (HdrHistogram-style bucketing):
/// nanosecond values land in 32 sub-buckets per power of two, so every bin
/// edge is exact in both directions (`bin_index`/`bin_floor` are inverse on
/// edges), relative bin width is ≤ 1/32 (~3.1%), and the footprint is a
/// fixed 1920-bin array regardless of sample count. Percentiles walk the
/// bins and report the containing bin's lower edge, which makes
/// `percentile(p)` monotone in p by construction. Merging is a plain
/// elementwise add, so it is associative and commutative bin-for-bin —
/// per-fleet or per-phase histograms can be combined in any order.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;  // 32
  /// Unit bins [0,32) + one 32-bin block per exponent 5..63.
  static constexpr std::size_t kBins = (64 - kSubBits + 1) * kSubBuckets;  // 1920

  /// Bin holding nanosecond value `ns`. Values below kSubBuckets get exact
  /// unit bins; above, the bin is (exponent block, top kSubBits mantissa
  /// bits below the leading one).
  [[nodiscard]] static constexpr std::size_t bin_index(std::uint64_t ns) {
    if (ns < kSubBuckets) {
      return static_cast<std::size_t>(ns);
    }
    const int exp = 63 - std::countl_zero(ns);
    const int shift = exp - kSubBits;
    return static_cast<std::size_t>(exp - kSubBits + 1) * kSubBuckets +
           static_cast<std::size_t>((ns >> shift) & (kSubBuckets - 1));
  }

  /// Smallest nanosecond value mapping to `bin` (the bin's lower edge):
  /// inverse of bin_index on bin edges.
  [[nodiscard]] static constexpr std::uint64_t bin_floor(std::size_t bin) {
    if (bin < kSubBuckets) {
      return bin;
    }
    const std::size_t block = bin / kSubBuckets;  // >= 1
    const std::uint64_t sub = bin % kSubBuckets;
    return (kSubBuckets + sub) << (block - 1);
  }

  void add(Duration latency) {
    add_nanos(latency.is_negative() ? 0ull
                                    : static_cast<std::uint64_t>(latency.count_nanos()));
  }

  void add_nanos(std::uint64_t ns) {
    ++counts_[bin_index(ns)];
    ++n_;
    sum_ns_ += ns;
    max_ns_ = std::max(max_ns_, ns);
    min_ns_ = n_ == 1 ? ns : std::min(min_ns_, ns);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] Duration max() const {
    NM_CHECK(n_ > 0, "max of empty histogram");
    return Duration::nanos(static_cast<std::int64_t>(max_ns_));
  }
  [[nodiscard]] Duration min() const {
    NM_CHECK(n_ > 0, "min of empty histogram");
    return Duration::nanos(static_cast<std::int64_t>(min_ns_));
  }
  [[nodiscard]] Duration mean() const {
    NM_CHECK(n_ > 0, "mean of empty histogram");
    return Duration::nanos(
        static_cast<std::int64_t>(sum_ns_ / static_cast<std::uint64_t>(n_)));
  }

  /// Quantile `q` in [0, 1]: the lower edge of the bin containing sample
  /// rank ceil(q·n) (rank clamped to [1, n]). p50/p99/p999 are
  /// percentile(0.5) / percentile(0.99) / percentile(0.999).
  [[nodiscard]] Duration percentile(double q) const {
    NM_CHECK(n_ > 0, "percentile of empty histogram");
    NM_CHECK(q >= 0.0 && q <= 1.0, "quantile " << q << " outside [0, 1]");
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(n_))));
    std::uint64_t seen = 0;
    for (std::size_t bin = 0; bin < kBins; ++bin) {
      seen += counts_[bin];
      if (seen >= rank) {
        return Duration::nanos(static_cast<std::int64_t>(bin_floor(bin)));
      }
    }
    return Duration::nanos(static_cast<std::int64_t>(max_ns_));  // unreachable
  }

  /// Elementwise accumulate; associative and commutative.
  void merge(const LatencyHistogram& other) {
    for (std::size_t bin = 0; bin < kBins; ++bin) {
      counts_[bin] += other.counts_[bin];
    }
    if (other.n_ > 0) {
      min_ns_ = n_ == 0 ? other.min_ns_ : std::min(min_ns_, other.min_ns_);
      max_ns_ = std::max(max_ns_, other.max_ns_);
    }
    n_ += other.n_;
    sum_ns_ += other.sum_ns_;
  }

  [[nodiscard]] std::uint64_t bin_count(std::size_t bin) const {
    NM_CHECK(bin < kBins, "bin " << bin << " out of range");
    return counts_[bin];
  }

  /// Deterministic FNV-1a fold of the full bin vector + moments; the
  /// determinism gates pin these by value.
  [[nodiscard]] std::uint64_t digest(std::uint64_t h = 0xcbf29ce484222325ull) const {
    const auto fold = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffull;
        h *= 0x100000001b3ull;
      }
    };
    fold(n_);
    fold(sum_ns_);
    fold(max_ns_);
    for (std::size_t bin = 0; bin < kBins; ++bin) {
      if (counts_[bin] != 0) {
        fold(bin);
        fold(counts_[bin]);
      }
    }
    return h;
  }

 private:
  std::array<std::uint64_t, kBins> counts_{};
  std::size_t n_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t min_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

}  // namespace nm
