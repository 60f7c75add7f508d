// Simulated Ascend device: owns the machine configuration, the shared L2
// model, global-memory buffers, and accumulates per-operator reports.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ascendc/gm_space.hpp"
#include "common/check.hpp"
#include "common/dtype.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"
#include "sim/l2_cache.hpp"
#include "sim/report.hpp"

namespace ascend::acc {

template <typename T>
class GlobalTensor;

class LaunchEngine;

/// Owning global-memory (HBM) allocation. The host can read/write it freely
/// between kernel launches (that is the host<->device boundary); kernels
/// access it through GlobalTensor views.
///
/// Each buffer carries a deterministic *virtual* GM address (see
/// gm_space.hpp) which the L2 model keys on — never the host heap address,
/// which varies with ASLR and allocator state.
template <typename T>
class GlobalBuffer {
 public:
  GlobalBuffer() = default;
  explicit GlobalBuffer(std::size_t n) : data_(n) { acquire_vaddr(); }
  GlobalBuffer(std::size_t n, T fill) : data_(n, fill) { acquire_vaddr(); }
  explicit GlobalBuffer(std::vector<T> host) : data_(std::move(host)) {
    acquire_vaddr();
  }

  ~GlobalBuffer() { release_vaddr(); }
  GlobalBuffer(const GlobalBuffer& o) : data_(o.data_) { acquire_vaddr(); }
  GlobalBuffer& operator=(const GlobalBuffer& o) {
    if (this != &o) {
      release_vaddr();
      data_ = o.data_;
      acquire_vaddr();
    }
    return *this;
  }
  GlobalBuffer(GlobalBuffer&& o) noexcept
      : data_(std::move(o.data_)), vaddr_(o.vaddr_), vbytes_(o.vbytes_) {
    o.vaddr_ = 0;
    o.vbytes_ = 0;
  }
  GlobalBuffer& operator=(GlobalBuffer&& o) noexcept {
    if (this != &o) {
      release_vaddr();
      data_ = std::move(o.data_);
      vaddr_ = o.vaddr_;
      vbytes_ = o.vbytes_;
      o.vaddr_ = 0;
      o.vbytes_ = 0;
    }
    return *this;
  }

  std::size_t size() const { return data_.size(); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  GlobalTensor<T> tensor();

  std::vector<T>& host() { return data_; }
  const std::vector<T>& host() const { return data_; }

 private:
  void acquire_vaddr() {
    if (!data_.empty()) {
      vbytes_ = data_.size() * sizeof(T);
      vaddr_ = gm_space::acquire(vbytes_);
    }
  }
  void release_vaddr() noexcept {
    if (vaddr_ != 0) {
      gm_space::release(vaddr_, vbytes_);
      vaddr_ = 0;
      vbytes_ = 0;
    }
  }

  std::vector<T> data_;
  std::uint64_t vaddr_ = 0;   ///< virtual GM address (L2 model key)
  std::size_t vbytes_ = 0;    ///< bytes vaddr_ was acquired for
};

class Device {
 public:
  // Special members live in engine.cpp: the engine_ unique_ptr needs the
  // complete LaunchEngine type to destroy.
  explicit Device(sim::MachineConfig cfg = sim::MachineConfig::ascend_910b4());
  ~Device();
  Device(Device&&) noexcept;
  Device& operator=(Device&&) noexcept;

  const sim::MachineConfig& config() const { return cfg_; }
  sim::L2Cache& l2() { return l2_; }

  /// Host execution engine of this device: pooled sub-core fibers and
  /// kernel contexts, scheduler scratch and the timing cache.
  /// Created lazily on the first launch (defined in engine.cpp).
  LaunchEngine& engine();

  /// Installs a fault plan: every subsequent launch on this device consults
  /// the injector. The injector is shared so a resilient caller (e.g.
  /// ascan::Session) can move it onto a degraded replacement device without
  /// resetting the launch ordinal the fault sequence is keyed on.
  void set_fault_plan(const sim::FaultPlan& plan) {
    injector_ = plan.any() ? std::make_shared<sim::FaultInjector>(plan)
                           : nullptr;
  }
  void set_fault_injector(std::shared_ptr<sim::FaultInjector> inj) {
    injector_ = std::move(inj);
  }
  const std::shared_ptr<sim::FaultInjector>& fault_injector() const {
    return injector_;
  }

  template <typename T>
  GlobalBuffer<T> alloc(std::size_t n) {
    return GlobalBuffer<T>(n);
  }
  template <typename T>
  GlobalBuffer<T> alloc(std::size_t n, T fill) {
    return GlobalBuffer<T>(n, fill);
  }
  template <typename T>
  GlobalBuffer<T> upload(std::vector<T> host) {
    return GlobalBuffer<T>(std::move(host));
  }

  /// Cost of a host-side synchronisation + read-back of device results
  /// between launches (used by host-driven algorithms such as the
  /// quickselect top-k). Returns a report fragment to aggregate.
  sim::Report host_sync_report() const {
    sim::Report r;
    r.time_s = host_sync_s_;
    return r;
  }

 private:
  sim::MachineConfig cfg_;
  sim::L2Cache l2_;
  std::shared_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<LaunchEngine> engine_;  ///< lazy; travels on move
  double host_sync_s_ = 8e-6;
};

}  // namespace ascend::acc
