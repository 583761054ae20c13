// NAS Parallel Benchmarks models (the paper runs NPB 3.3.1 class D with 64
// processes: BT, CG, FT, LU). Each kernel model preserves what matters for
// the Ninja experiments:
//   - the communication *pattern* (halo exchange, transpose+allreduce,
//     all-to-all, wavefront sweeps) and per-iteration volume, so collective
//     and p2p cost tracks the interconnect;
//   - the per-VM resident footprint (2.3-16 GB incompressible data — the
//     migration-time segment of Fig 7 scales with it);
//   - the iteration structure and a compute budget calibrated to class D
//     on the AGC blades, so per-iteration CR service points land like the
//     real library entries do.
#pragma once

#include <string>
#include <vector>

#include "core/job.h"
#include "sim/task.h"
#include "util/units.h"

namespace nm::workloads {

enum class NpbPattern {
  kHalo3d,      // BT: structured nearest-neighbour face exchanges
  kTranspose,   // CG: partner exchanges + allreduce of dot products
  kAllToAll,    // FT: global transpose
  kWavefront,   // LU: many small pipelined sweeps
};

struct NpbSpec {
  std::string name;
  NpbPattern pattern = NpbPattern::kHalo3d;
  int iterations = 100;
  /// Single-rank compute per iteration (core-seconds), class D / 64 ranks.
  double compute_per_iter = 1.0;
  /// Per-rank communication volume per iteration.
  Bytes comm_bytes_per_iter = Bytes::mib(8);
  /// Messages per neighbour per iteration (wavefront uses many small ones).
  int messages_per_iter = 1;
  /// Resident incompressible data per VM (drives migration time, Fig 7).
  Bytes footprint_per_vm = Bytes::gib(4);
  /// Fraction of the footprint rewritten each iteration (dirty-page rate
  /// for live-migration ablations; Ninja freezes ranks so it mostly
  /// matters off the paper's happy path).
  double rewrite_fraction_per_iter = 0.05;
};

/// Class D @ 64-rank calibrations (see EXPERIMENTS.md for the mapping).
[[nodiscard]] NpbSpec npb_bt_class_d();
[[nodiscard]] NpbSpec npb_cg_class_d();
[[nodiscard]] NpbSpec npb_ft_class_d();
[[nodiscard]] NpbSpec npb_lu_class_d();
/// The four kernels the paper evaluates (Fig 7).
[[nodiscard]] std::vector<NpbSpec> npb_class_d_suite();

struct NpbResult {
  Duration elapsed = Duration::zero();
  int iterations_done = 0;
};

/// Rank body for one kernel run.
[[nodiscard]] sim::Task run_npb_rank(core::MpiJob& job, mpi::RankId me, NpbSpec spec,
                                     NpbResult* result);

}  // namespace nm::workloads
