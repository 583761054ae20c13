#include "vmm/vm.h"

#include <algorithm>

#include "util/log.h"
#include "vmm/host.h"

namespace nm::vmm {

Vm::Vm(sim::Simulation& sim, sim::FluidScheduler& scheduler, VmSpec spec, Host& host)
    : sim_(&sim),
      scheduler_(&scheduler),
      spec_(std::move(spec)),
      host_(&host),
      memory_(spec_.memory),
      vcpu_(scheduler, "vcpu:" + spec_.name, spec_.vcpus),
      run_gate_(sim, /*initially_open=*/true),
      hotplug_events_(sim),
      symvirt_cycle_(sim),
      symvirt_entered_(sim) {
  // The booted guest OS occupies incompressible memory from the start.
  if (!spec_.base_os_footprint.is_zero()) {
    memory_.write_data(Bytes::zero(), spec_.base_os_footprint);
  }
}

void Vm::set_host(Host& new_host) {
  host_ = &new_host;
  for (auto& device : devices_) {
    NM_CHECK(!device->vmm_bypass(),
             "VM " << name() << " still holds VMM-bypass device " << device->tag()
                   << " while changing hosts");
    device->host_changed(new_host.eth_uplink());
  }
}

void Vm::pause() {
  if (state_ == VmState::kPaused) {
    return;
  }
  state_ = VmState::kPaused;
  run_gate_.close();
  prune_tracked_flows();
  for (auto& weak : tracked_flows_) {
    if (auto flow = weak.lock()) {
      flow->suspend();
    }
  }
  NM_LOG_DEBUG("vmm") << name() << " paused";
}

void Vm::resume() {
  if (state_ == VmState::kRunning) {
    return;
  }
  state_ = VmState::kRunning;
  prune_tracked_flows();
  for (auto& weak : tracked_flows_) {
    if (auto flow = weak.lock()) {
      flow->resume();
    }
  }
  run_gate_.open();
  NM_LOG_DEBUG("vmm") << name() << " resumed";
}

sim::Task Vm::compute(double core_seconds) {
  co_await run_gate_.opened();
  std::vector<sim::ResourceShare> shares{{&vcpu_, 1.0}, {&host_->node().cpu(), 1.0}};
  // Routed through the host: after a migration the vCPU resource stays in
  // its boot domain while the current host's cores may live in another, so
  // guest work can be a boundary flow.
  auto flow = host_->router().start(
      sim::FlowSpec{core_seconds, std::move(shares), /*max_rate=*/1.0, {}});
  track_flow(flow);
  if (!flow->finished()) {
    co_await flow->completion().wait();
  }
}

void Vm::track_flow(const sim::FlowPtr& flow) {
  prune_tracked_flows();
  if (state_ == VmState::kPaused) {
    flow->suspend();
  }
  tracked_flows_.push_back(flow);
}

void Vm::prune_tracked_flows() {
  std::erase_if(tracked_flows_, [](const std::weak_ptr<sim::Flow>& w) {
    auto f = w.lock();
    return f == nullptr || f->finished();
  });
}

VmDevice& Vm::plug_device(std::unique_ptr<VmDevice> device) {
  NM_CHECK(device != nullptr, "plugging a null device");
  NM_CHECK(find_device(device->tag()) == nullptr,
           "device tag " << device->tag() << " already plugged into " << name());
  devices_.push_back(std::move(device));
  auto& dev = *devices_.back();
  hotplug_events_.send(
      HotplugEvent{HotplugEvent::Kind::kAdded, dev.tag(), std::string(dev.kind())});
  NM_LOG_DEBUG("vmm") << name() << ": device " << dev.tag() << " (" << dev.kind() << ") plugged";
  return dev;
}

std::unique_ptr<VmDevice> Vm::unplug_device(const std::string& tag) {
  auto it = std::find_if(devices_.begin(), devices_.end(),
                         [&](const auto& d) { return d->tag() == tag; });
  if (it == devices_.end()) {
    throw OperationError("VM " + name() + " has no device tagged '" + tag + "'");
  }
  std::unique_ptr<VmDevice> device = std::move(*it);
  devices_.erase(it);
  device->unplug();
  hotplug_events_.send(
      HotplugEvent{HotplugEvent::Kind::kRemoved, device->tag(), std::string(device->kind())});
  NM_LOG_DEBUG("vmm") << name() << ": device " << device->tag() << " unplugged";
  return device;
}

VmDevice* Vm::find_device(const std::string& tag) {
  for (auto& d : devices_) {
    if (d->tag() == tag) {
      return d.get();
    }
  }
  return nullptr;
}

VmDevice* Vm::find_device_by_kind(std::string_view kind) {
  for (auto& d : devices_) {
    if (d->kind() == kind) {
      return d.get();
    }
  }
  return nullptr;
}

std::vector<VmDevice*> Vm::devices() {
  std::vector<VmDevice*> out;
  out.reserve(devices_.size());
  for (auto& d : devices_) {
    out.push_back(d.get());
  }
  return out;
}

bool Vm::has_vmm_bypass_device() const {
  return std::any_of(devices_.begin(), devices_.end(),
                     [](const auto& d) { return d->vmm_bypass(); });
}

sim::Task Vm::symvirt_wait() {
  ++symvirt_waiting_;
  NM_LOG_TRACE("symvirt") << name() << ": wait (" << symvirt_waiting_ << " parked)";
  // Wake a VMM-side wait_for_symvirt_entries so it can recheck.
  symvirt_entered_.notify_all();
  // Park until the next signal; a woken task that re-enters symvirt_wait
  // parks again until the signal after that.
  co_await symvirt_cycle_.wait();
}

void Vm::symvirt_signal() {
  NM_LOG_TRACE("symvirt") << name() << ": signal (" << symvirt_waiting_ << " parked)";
  symvirt_waiting_ = 0;
  symvirt_cycle_.notify_all();
}

sim::Task Vm::wait_for_symvirt_entries(std::size_t n) {
  while (symvirt_waiting_ < n) {
    co_await symvirt_entered_.wait();
  }
}

}  // namespace nm::vmm
