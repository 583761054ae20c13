// Collective operations over the runtime's point-to-point layer. The
// binomial-tree algorithms make collective cost track the underlying
// transport (QDR InfiniBand vs virtio TCP), which is what Figure 8's
// per-iteration times measure.
#pragma once

#include <vector>

#include "mpi/runtime.h"
#include "sim/task.h"
#include "util/units.h"

namespace nm::mpi {

class Communicator {
 public:
  /// A communicator over an explicit rank list (world: all ranks, in order).
  Communicator(MpiRuntime& runtime, std::vector<RankId> members);
  [[nodiscard]] static Communicator world(MpiRuntime& runtime);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] MpiRuntime& runtime() { return *runtime_; }
  /// Position of world rank `r` inside this communicator (must be member).
  [[nodiscard]] int index_of(RankId r) const;

  /// Dissemination barrier (log2 n rounds of 1-byte messages).
  [[nodiscard]] sim::Task barrier(RankId me);

  /// Binomial-tree broadcast of `bytes` from `root` (a member index is not
  /// required; pass world rank ids).
  [[nodiscard]] sim::Task bcast(RankId me, RankId root, Bytes bytes);

  /// Binomial-tree reduce to `root`. `compute_per_byte` is the combine
  /// cost in core-seconds per byte at each tree step (0 = free op).
  [[nodiscard]] sim::Task reduce(RankId me, RankId root, Bytes bytes,
                                 double compute_per_byte = 0.0);

  /// reduce-to-first-member + bcast.
  [[nodiscard]] sim::Task allreduce(RankId me, Bytes bytes, double compute_per_byte = 0.0);

  /// Pairwise-exchange all-to-all (XOR schedule): every member ships
  /// `bytes_per_pair` to every other member. FT's global transpose.
  [[nodiscard]] sim::Task alltoall(RankId me, Bytes bytes_per_pair);

 private:
  /// Per-member collective sequence counters. All members call collectives
  /// in the same order, so their counters agree; the counter isolates the
  /// tag space of concurrent/back-to-back collectives.
  [[nodiscard]] int next_tag(RankId me, int op_kind);

  MpiRuntime* runtime_;
  std::vector<RankId> members_;
  std::vector<std::uint64_t> seq_;
};

}  // namespace nm::mpi
