#include "mpi/collectives.h"

#include <algorithm>

#include "util/error.h"

namespace nm::mpi {

namespace {
constexpr int kTagBase = -1'000'000'000;
constexpr int kOpBarrier = 0;
constexpr int kOpBcast = 1;
constexpr int kOpReduce = 2;
constexpr int kOpAlltoall = 3;
// Tags interleave this many op kinds per sequence number.
constexpr int kOpKinds = 8;
}  // namespace

Communicator::Communicator(MpiRuntime& runtime, std::vector<RankId> members)
    : runtime_(&runtime), members_(std::move(members)), seq_(members_.size(), 0) {
  NM_CHECK(!members_.empty(), "empty communicator");
}

Communicator Communicator::world(MpiRuntime& runtime) {
  std::vector<RankId> all(runtime.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<RankId>(i);
  }
  return Communicator(runtime, std::move(all));
}

int Communicator::index_of(RankId r) const {
  auto it = std::find(members_.begin(), members_.end(), r);
  NM_CHECK(it != members_.end(), "rank " << r << " is not a member of this communicator");
  return static_cast<int>(it - members_.begin());
}

int Communicator::next_tag(RankId me, int op_kind) {
  auto& counter = seq_[static_cast<std::size_t>(index_of(me))];
  const int tag =
      kTagBase + static_cast<int>((counter % 1'000'000) * kOpKinds) + op_kind;
  ++counter;
  return tag;
}

sim::Task Communicator::barrier(RankId me) {
  const int n = static_cast<int>(members_.size());
  const int vr = index_of(me);
  const int tag = next_tag(me, kOpBarrier);
  if (n == 1) {
    co_await runtime_->progress(me);
    co_return;
  }
  // Dissemination: round k exchanges with peers at distance 2^k.
  for (int dist = 1; dist < n; dist <<= 1) {
    const RankId to = members_[static_cast<std::size_t>((vr + dist) % n)];
    const RankId from = members_[static_cast<std::size_t>(((vr - dist) % n + n) % n)];
    co_await runtime_->send(me, to, tag, Bytes(1));
    co_await runtime_->recv(me, from, tag);
  }
}

sim::Task Communicator::bcast(RankId me, RankId root, Bytes bytes) {
  const int n = static_cast<int>(members_.size());
  const int root_idx = index_of(root);
  const int vr = (index_of(me) - root_idx + n) % n;
  const int tag = next_tag(me, kOpBcast);
  auto abs_rank = [&](int virtual_rank) {
    return members_[static_cast<std::size_t>((virtual_rank + root_idx) % n)];
  };

  // Receive from the parent in the binomial tree.
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) != 0) {
      co_await runtime_->recv(me, abs_rank(vr - mask), tag);
      break;
    }
    mask <<= 1;
  }
  if (vr == 0) {
    // Root never receives; its mask ran to the top.
    mask = 1;
    while (mask < n) {
      mask <<= 1;
    }
    co_await runtime_->progress(me);
  }
  // Forward to children.
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n && (vr & mask) == 0) {
      co_await runtime_->send(me, abs_rank(vr + mask), tag, bytes);
    }
    mask >>= 1;
  }
}

sim::Task Communicator::reduce(RankId me, RankId root, Bytes bytes, double compute_per_byte) {
  const int n = static_cast<int>(members_.size());
  const int root_idx = index_of(root);
  const int vr = (index_of(me) - root_idx + n) % n;
  const int tag = next_tag(me, kOpReduce);
  auto abs_rank = [&](int virtual_rank) {
    return members_[static_cast<std::size_t>((virtual_rank + root_idx) % n)];
  };

  int mask = 1;
  while (mask < n) {
    if ((vr & mask) != 0) {
      // Ship the local partial result towards the tree root.
      co_await runtime_->send(me, abs_rank(vr - mask), tag, bytes);
      break;
    }
    if (vr + mask < n) {
      co_await runtime_->recv(me, abs_rank(vr + mask), tag);
      if (compute_per_byte > 0.0) {
        co_await runtime_->rank(me).vm().compute(static_cast<double>(bytes.count()) *
                                                 compute_per_byte);
      }
    }
    mask <<= 1;
  }
  if (vr != 0) {
    co_return;
  }
  co_await runtime_->progress(me);
}

sim::Task Communicator::allreduce(RankId me, Bytes bytes, double compute_per_byte) {
  const RankId first = members_.front();
  co_await reduce(me, first, bytes, compute_per_byte);
  co_await bcast(me, first, bytes);
}

sim::Task Communicator::alltoall(RankId me, Bytes bytes_per_pair) {
  const int n = static_cast<int>(members_.size());
  const int vr = index_of(me);
  const int tag = next_tag(me, kOpAlltoall);
  if (n == 1) {
    co_await runtime_->progress(me);
    co_return;
  }
  // XOR schedule: in round r, vr exchanges with vr^r — a perfect matching
  // per round, so partners always meet in the same round.
  for (int round = 1; round < n; ++round) {
    const int pv = vr ^ round;
    if (pv >= n) {
      continue;  // non-power-of-two hole: skip this round
    }
    const RankId peer = members_[static_cast<std::size_t>(pv)];
    if (vr < pv) {
      co_await runtime_->send(me, peer, tag, bytes_per_pair);
      co_await runtime_->recv(me, peer, tag);
    } else {
      co_await runtime_->recv(me, peer, tag);
      co_await runtime_->send(me, peer, tag, bytes_per_pair);
    }
  }
}

}  // namespace nm::mpi
