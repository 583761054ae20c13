// The paper's figure scenarios on the modelled AGC testbed (Table I): an
// MPI job on 8 VMs of the InfiniBand cluster, launched, with one Ninja
// episode armed at the figure's instant. The caller runs the simulation
// and reads the episode (and, for Fig 7, rank 0's NPB result).
#pragma once

#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "workloads/npb.h"

namespace nm::scenarios {

/// Table II: memtest (2 GiB array) with one rank per VM; 2 s in, every VM
/// migrates to a new QEMU on its own blade. The VMs hold an HCA before the
/// episode if `src_ib`, and the episode re-attaches one if `dst_ib`.
struct Table2 {
  bool src_ib = true;
  bool dst_ib = true;
};

/// Fig 6: memtest with an `array` array, one rank per VM, hotplug under
/// x3 whole-cluster migration noise; 5 s in, VM i moves IB -> IB to blade
/// i+1 mod 8 and re-attaches that blade's HCA.
struct Fig6 {
  Bytes array;
};

/// Fig 7: NPB `spec` on 8 VMs x 8 ranks under x3 noise; with
/// `with_migration`, Fig 6's blade rotation 3 min in.
struct Fig7 {
  workloads::NpbSpec spec;
  bool with_migration = true;
};

class PaperRun {
 public:
  explicit PaperRun(const Table2& c);
  explicit PaperRun(const Fig6& c);
  explicit PaperRun(const Fig7& c);
  PaperRun(const PaperRun&) = delete;
  PaperRun& operator=(const PaperRun&) = delete;

  [[nodiscard]] core::Testbed& testbed() { return testbed_; }
  [[nodiscard]] const core::NinjaStats& ninja() const { return ninja_; }
  /// Detach + re-attach + guest confirm, as Table II and Fig 6 report it.
  [[nodiscard]] Duration hotplug() const;
  /// Link-up without the guest confirm step.
  [[nodiscard]] Duration linkup() const;
  /// Rank 0's NPB result (Fig 7).
  [[nodiscard]] const workloads::NpbResult& npb() const { return npb_; }

 private:
  PaperRun(double noise_factor, core::JobConfig job);
  /// Arms the episode `after` from now: every VM to its own blade when
  /// `self_migration`, else VM i to blade i+1 mod 8; re-attaching the HCA
  /// when `attach_hca`.
  void arm(bool self_migration, bool attach_hca, Duration after);

  core::Testbed testbed_;
  core::MpiJob job_;
  core::NinjaStats ninja_;
  workloads::NpbResult npb_;
};

}  // namespace nm::scenarios
