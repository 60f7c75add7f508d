// Cooperative executor for the sub-core bodies of a kernel launch.
//
// The paper's kernels are barrier-phased by construction: sub-cores meet at
// SyncAll or hand tiles over through cross-core flags, and the functional
// pass only needs them to take turns at those points. So every sub-core body
// runs as a stackful fiber on the thread that calls acc::launch. On x86-64
// SysV a switch saves and restores registers only (no syscall); other ABIs
// fall back to glibc ucontext.
// Fibers start in sub-core order; each runs until it finishes or parks on a
// wait (LaunchShared::park); parked fibers whose wait is satisfied resume
// round-robin in sub-core order. A launch costs no host thread, and its
// interleaving is a function of the kernel alone.
//
// If every unfinished fiber is parked and none can resume, the launch is
// deadlocked: the executor poisons it, so every parked wait throws and its
// stack unwinds normally, and run() then throws an Error naming each
// blocked sub-core and what it waits on.
#pragma once

#if defined(__x86_64__) && defined(__unix__)
#define ASCAN_FIBER_REGISTER_SWITCH 1
#else
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ascend::acc {

class LaunchShared;

/// What a parked sub-core waits for: it may resume once `*word` differs
/// from `unchanged`, or once the launch is poisoned.
struct FiberWait {
  const std::uint32_t* word = nullptr;
  std::uint32_t unchanged = 0;
  const char* flag = nullptr;  ///< flag-array name; nullptr for SyncAll
  std::size_t index = 0;       ///< flag index, or SyncAll epoch

  bool satisfied() const { return *word != unchanged; }
};

/// Owns the fiber records and their stacks, pooled across launches. One
/// launch runs at a time; launches do not nest.
class SubcoreFibers {
 public:
  SubcoreFibers();
  ~SubcoreFibers();
  SubcoreFibers(const SubcoreFibers&) = delete;
  SubcoreFibers& operator=(const SubcoreFibers&) = delete;

  /// Runs body(0) .. body(shared.num_subcores()-1) to completion on the
  /// calling thread. `body` must not throw (the launch wrapper catches per
  /// sub-core and poisons `shared`). Throws Error on deadlock, after every
  /// fiber has unwound.
  void run(LaunchShared& shared, const std::function<void(int)>& body);

  /// Parks the running fiber until `w` is satisfied or the launch is
  /// poisoned. Only callable from inside a body that run() is executing.
  void park(const FiberWait& w);

 private:
  struct Fiber;

  static void entry(Fiber* f) noexcept;
  void prepare(Fiber& f, int index);
  void resume(Fiber& f);
  void switch_to_main(Fiber& f, bool exiting);
  std::string deadlock_report(std::size_t n) const;

  std::vector<std::unique_ptr<Fiber>> fibers_;
#ifdef ASCAN_FIBER_REGISTER_SWITCH
  void* main_sp_ = nullptr;  ///< launching thread's stack pointer while a fiber runs
#else
  ucontext_t main_{};  ///< points into itself: SubcoreFibers never moves
#endif
  const std::function<void(int)>* body_ = nullptr;
  Fiber* current_ = nullptr;
  // Sanitizer bookkeeping for switches back to the launching thread's stack.
  const void* main_stack_bottom_ = nullptr;
  std::size_t main_stack_size_ = 0;
  void* main_tsan_fiber_ = nullptr;
};

}  // namespace ascend::acc
