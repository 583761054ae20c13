#include "workloads/npb.h"

#include <algorithm>

#include "util/error.h"

namespace nm::workloads {

// Calibration notes (EXPERIMENTS.md): iteration counts follow NPB 3.3.1
// class D; compute budgets are tuned so the baseline 64-rank totals land in
// the several-hundred-second range of Fig 7 on the modelled 2.53 GHz
// blades; footprints span the paper's quoted 2.3-16 GB per VM, with FT the
// largest (its class D arrays dominate).

NpbSpec npb_bt_class_d() {
  NpbSpec spec;
  spec.name = "BT";
  spec.pattern = NpbPattern::kHalo3d;
  spec.iterations = 250;
  spec.compute_per_iter = 3.4;
  spec.comm_bytes_per_iter = Bytes::mib(24);
  spec.messages_per_iter = 1;
  spec.footprint_per_vm = Bytes::gib(5);
  spec.rewrite_fraction_per_iter = 0.10;
  return spec;
}

NpbSpec npb_cg_class_d() {
  NpbSpec spec;
  spec.name = "CG";
  spec.pattern = NpbPattern::kTranspose;
  spec.iterations = 100;
  spec.compute_per_iter = 7.2;
  spec.comm_bytes_per_iter = Bytes::mib(48);
  spec.messages_per_iter = 2;
  spec.footprint_per_vm = Bytes(2470ull << 20);  // 2.3 GiB (paper's minimum)
  spec.rewrite_fraction_per_iter = 0.20;
  return spec;
}

NpbSpec npb_ft_class_d() {
  NpbSpec spec;
  spec.name = "FT";
  spec.pattern = NpbPattern::kAllToAll;
  spec.iterations = 25;
  spec.compute_per_iter = 20.0;
  spec.comm_bytes_per_iter = Bytes::mib(256);
  spec.messages_per_iter = 1;
  spec.footprint_per_vm = Bytes::gib(16);  // paper's maximum
  spec.rewrite_fraction_per_iter = 0.30;
  return spec;
}

NpbSpec npb_lu_class_d() {
  NpbSpec spec;
  spec.name = "LU";
  spec.pattern = NpbPattern::kWavefront;
  spec.iterations = 300;
  spec.compute_per_iter = 2.6;
  spec.comm_bytes_per_iter = Bytes::mib(6);
  spec.messages_per_iter = 8;  // pipelined sweep: many small messages
  spec.footprint_per_vm = Bytes((3800ull) << 20);  // ~3.7 GiB
  spec.rewrite_fraction_per_iter = 0.10;
  return spec;
}

std::vector<NpbSpec> npb_class_d_suite() {
  return {npb_bt_class_d(), npb_cg_class_d(), npb_ft_class_d(), npb_lu_class_d()};
}

namespace {

constexpr int kNpbTagBase = 100'000;

/// Stage the per-VM footprint once (first local rank on each VM).
void stage_footprint(core::MpiJob& job, mpi::RankId me, const NpbSpec& spec) {
  const auto rpv = static_cast<mpi::RankId>(job.config().ranks_per_vm);
  if (me % rpv != 0) {
    return;
  }
  auto& vm = job.runtime().rank(me).vm();
  const Bytes base = vm.spec().base_os_footprint;
  const Bytes fit = std::min(spec.footprint_per_vm, vm.spec().memory - base);
  vm.memory().write_data(base, fit);
}

/// Rewrite part of the footprint (iteration dirty behaviour).
void rewrite_working_set(core::MpiJob& job, mpi::RankId me, const NpbSpec& spec) {
  const auto rpv = static_cast<mpi::RankId>(job.config().ranks_per_vm);
  if (me % rpv != 0 || spec.rewrite_fraction_per_iter <= 0.0) {
    return;
  }
  auto& vm = job.runtime().rank(me).vm();
  const Bytes base = vm.spec().base_os_footprint;
  const Bytes fit = std::min(spec.footprint_per_vm, vm.spec().memory - base);
  const auto pages = (fit.count() / 4096);
  const auto rewrite_pages =
      static_cast<std::uint64_t>(static_cast<double>(pages) * spec.rewrite_fraction_per_iter);
  vm.memory().write_data(base, Bytes(rewrite_pages * 4096));
}

sim::Task exchange(core::MpiJob& job, mpi::RankId me, mpi::RankId peer, int tag, Bytes bytes) {
  // Symmetric exchange without blocking cycles: lower rank sends first;
  // delivery is buffered, so the pattern cannot deadlock.
  auto& rt = job.runtime();
  if (me < peer) {
    co_await rt.send(me, peer, tag, bytes);
    co_await rt.recv(me, peer, tag);
  } else {
    co_await rt.recv(me, peer, tag);
    co_await rt.send(me, peer, tag, bytes);
  }
}

sim::Task communicate(core::MpiJob& job, mpi::RankId me, const NpbSpec& spec, int iter) {
  auto& rt = job.runtime();
  const auto n = static_cast<mpi::RankId>(job.rank_count());
  const int tag = kNpbTagBase + (iter % 1000) * 64;

  switch (spec.pattern) {
    case NpbPattern::kHalo3d: {
      // 8x8 process grid; exchange faces with up to 4 neighbours. Like the
      // real code (isend to all, then waitall): post every send first —
      // delivery is buffered — then drain the matching receives, which is
      // ring-deadlock-free by construction.
      const mpi::RankId cols = (n % 8 == 0) ? 8 : n;
      const Bytes face = Bytes(spec.comm_bytes_per_iter.count() / 4);
      std::vector<mpi::RankId> peers;
      peers.push_back((me + 1) % n);
      if (n > 2) {
        peers.push_back((me - 1 + n) % n);
      }
      const mpi::RankId down = (me + cols) % n;
      const mpi::RankId up = (me - cols + n) % n;
      if (down != me && std::find(peers.begin(), peers.end(), down) == peers.end()) {
        peers.push_back(down);
      }
      if (up != me && up != down &&
          std::find(peers.begin(), peers.end(), up) == peers.end()) {
        peers.push_back(up);
      }
      for (const auto peer : peers) {
        co_await rt.send(me, peer, tag, face);
      }
      for (std::size_t k = 0; k < peers.size(); ++k) {
        co_await rt.recv(me, mpi::kAnySource, tag);
      }
      break;
    }
    case NpbPattern::kTranspose: {
      // CG: partner exchange across the transpose + dot-product allreduce.
      const mpi::RankId partner = me ^ 1;
      if (partner < n) {
        co_await exchange(job, me, partner, tag, spec.comm_bytes_per_iter);
      }
      co_await job.world().allreduce(me, Bytes::kib(64), 1e-10);
      break;
    }
    case NpbPattern::kAllToAll: {
      // FT global transpose: the communicator's pairwise-exchange
      // all-to-all carries the per-pair slice.
      const Bytes slice = Bytes(spec.comm_bytes_per_iter.count() /
                                static_cast<std::uint64_t>(std::max<mpi::RankId>(n - 1, 1)));
      co_await job.world().alltoall(me, slice);
      break;
    }
    case NpbPattern::kWavefront: {
      // LU: pipelined sweeps — many small messages along the rank line.
      const Bytes msg = Bytes(spec.comm_bytes_per_iter.count() /
                              static_cast<std::uint64_t>(2 * spec.messages_per_iter));
      const mpi::RankId next = (me + 1) % n;
      const mpi::RankId prev = (me - 1 + n) % n;
      for (int m = 0; m < spec.messages_per_iter; ++m) {
        co_await rt.send(me, next, tag + 10, msg);
        co_await rt.recv(me, prev, tag + 10);
        co_await rt.send(me, prev, tag + 11, msg);
        co_await rt.recv(me, next, tag + 11);
      }
      break;
    }
  }
}

}  // namespace

sim::Task run_npb_rank(core::MpiJob& job, mpi::RankId me, NpbSpec spec, NpbResult* result) {
  auto& sim = job.testbed().sim();
  auto& rt = job.runtime();
  auto& vm = rt.rank(me).vm();
  const TimePoint t0 = sim.now();

  stage_footprint(job, me, spec);
  co_await job.world().barrier(me);

  NpbResult local;
  for (int iter = 0; iter < spec.iterations; ++iter) {
    // Compute phase, chunked so checkpoint requests are serviced promptly.
    double remaining = spec.compute_per_iter;
    while (remaining > 0.0) {
      const double chunk = std::min(remaining, 1.0);
      co_await vm.compute(chunk);
      remaining -= chunk;
      co_await rt.progress(me);
    }
    rewrite_working_set(job, me, spec);
    co_await communicate(job, me, spec, iter);
    ++local.iterations_done;
  }
  co_await job.world().barrier(me);
  local.elapsed = sim.now() - t0;
  if (result != nullptr) {
    *result = local;
  }
}

}  // namespace nm::workloads
