#include "ascendc/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <sstream>

#include "ascendc/context.hpp"
#include "common/check.hpp"

// Sanitizers must be told about every stack switch: ASan to track the
// active stack's bounds (and its fake stack), TSan to keep one
// happens-before history per fiber.
#if defined(__has_feature)
#define ASCAN_HAS_FEATURE(x) __has_feature(x)
#else
#define ASCAN_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || ASCAN_HAS_FEATURE(address_sanitizer)
#define ASCAN_FIBER_ASAN 1
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__) || ASCAN_HAS_FEATURE(thread_sanitizer)
#define ASCAN_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

#ifdef ASCAN_FIBER_REGISTER_SWITCH
// Register-only context switch for x86-64 SysV, after Boost.Context's
// fcontext. ascan_fiber_switch(&from_sp, to_sp) pushes the callee-saved
// registers, MXCSR and the x87 control word on the current stack, stores
// the stack pointer in *from_sp, loads to_sp and pops the same frame off
// the target stack. Everything else is caller-saved across the call, so
// this is the whole per-context state; the signal mask is not part of it
// (glibc swapcontext's rt_sigprocmask syscall per switch is what this
// replaces). A fresh fiber's first switch returns into ascan_fiber_start,
// which calls the entry function in r13 with the fiber record in r12; its
// CFI marks the return address undefined, so unwinders and backtraces stop
// there instead of walking off the stack.
extern "C" void ascan_fiber_switch(void** from_sp, void* to_sp);
extern "C" void ascan_fiber_start();
asm(R"(
  .text
  .p2align 4
  .globl ascan_fiber_switch
  .hidden ascan_fiber_switch
  .type ascan_fiber_switch, @function
ascan_fiber_switch:
  .cfi_startproc
  endbr64
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size ascan_fiber_switch, .-ascan_fiber_switch

  .p2align 4
  .globl ascan_fiber_start
  .hidden ascan_fiber_start
  .type ascan_fiber_start, @function
ascan_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  endbr64
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size ascan_fiber_start, .-ascan_fiber_start
)");
#endif

namespace ascend::acc {

namespace {

/// Stack of every fiber. Kernel bodies keep their data in the context
/// arenas and on the heap, so their frames are small; this leaves ample
/// room even for sanitizer builds, and only touched pages cost memory.
constexpr std::size_t kStackBytes = 256u << 10;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

#ifdef ASCAN_FIBER_REGISTER_SWITCH
/// The frame ascan_fiber_switch pops off a stack it switches to; prepare()
/// builds one at the top of a fresh fiber's stack.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad16;
  std::uint64_t pad64;
  void* r15;
  void* r14;
  void* r13;  ///< entry function of a fresh fiber
  void* r12;  ///< its Fiber record
  void* rbx;
  void* rbp;
  void* ret;  ///< ascan_fiber_start for a fresh fiber
};
static_assert(sizeof(SwitchFrame) == 72);
#endif

}  // namespace

struct SubcoreFibers::Fiber {
#ifdef ASCAN_FIBER_REGISTER_SWITCH
  void* sp = nullptr;  ///< saved stack pointer while switched out
#else
  ucontext_t ctx{};
#endif
  SubcoreFibers* owner = nullptr;
  void* map = nullptr;  ///< PROT_NONE guard page, then the stack above it
  int index = 0;
  bool done = false;
  bool parked = false;
  FiberWait wait;
  void* fake_stack = nullptr;  ///< ASan fake-stack handle while switched out
  void* tsan = nullptr;        ///< TSan fiber handle

  Fiber() {
    map = ::mmap(nullptr, page_bytes() + kStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    ASCAN_CHECK(map != MAP_FAILED, "cannot map a sub-core fiber stack");
    // An overflow runs into the guard page and faults instead of silently
    // corrupting whatever was mapped below the stack.
    if (::mprotect(map, page_bytes(), PROT_NONE) != 0) {
      ::munmap(map, page_bytes() + kStackBytes);
      throw Error("cannot protect a sub-core fiber guard page");
    }
#ifndef ASCAN_FIBER_REGISTER_SWITCH
    // Once per record, not per launch: getcontext costs a signal-mask
    // syscall, and makecontext only needs an initialised context to reuse.
    ::getcontext(&ctx);
#endif
#ifdef ASCAN_FIBER_TSAN
    tsan = __tsan_create_fiber(0);
#endif
  }
  ~Fiber() {
#ifdef ASCAN_FIBER_TSAN
    __tsan_destroy_fiber(tsan);
#endif
    ::munmap(map, page_bytes() + kStackBytes);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  char* stack() { return static_cast<char*>(map) + page_bytes(); }
};

SubcoreFibers::SubcoreFibers() = default;
SubcoreFibers::~SubcoreFibers() = default;

void SubcoreFibers::run(LaunchShared& shared,
                        const std::function<void(int)>& body) {
  ASCAN_ASSERT(body_ == nullptr, "kernel launches do not nest");
  const auto n = static_cast<std::size_t>(shared.num_subcores());
  while (fibers_.size() < n) fibers_.push_back(std::make_unique<Fiber>());
  for (std::size_t s = 0; s < n; ++s) prepare(*fibers_[s], int(s));
  body_ = &body;
  shared.fibers_ = this;
#ifdef ASCAN_FIBER_TSAN
  main_tsan_fiber_ = __tsan_get_current_fiber();
#endif

  std::string deadlock;
  for (std::size_t unfinished = n; unfinished > 0;) {
    bool resumed = false;
    for (std::size_t s = 0; s < n; ++s) {
      Fiber& f = *fibers_[s];
      const bool waiting =
          f.parked && !f.wait.satisfied() && !shared.poisoned();
      if (f.done || waiting) continue;
      resume(f);
      resumed = true;
      if (f.done) --unfinished;
    }
    if (!resumed) {
      // Every unfinished fiber is parked and none can move. Poisoning makes
      // each parked wait ready; it throws, and the next sweep unwinds it.
      deadlock = deadlock_report(n);
      shared.poison();
    }
  }
  shared.fibers_ = nullptr;
  body_ = nullptr;
  if (!deadlock.empty()) throw Error(deadlock);
}

void SubcoreFibers::park(const FiberWait& w) {
  // The only point where a fiber yields. It is reached from SyncAll and
  // CrossFlags::wait, never from inside an intrinsic, so the thread_local
  // scratch of intrinsics.hpp (classify_mmad_b, Mmad) is never live across
  // a switch and the fibers of a launch can share it.
  ASCAN_ASSERT(current_ != nullptr, "park() outside a sub-core fiber");
  Fiber& f = *current_;
  f.wait = w;
  f.parked = true;
  switch_to_main(f, /*exiting=*/false);
  f.parked = false;
}

void SubcoreFibers::prepare(Fiber& f, int index) {
  f.owner = this;
  f.index = index;
  f.done = false;
  f.parked = false;
#ifdef ASCAN_FIBER_ASAN
  // A reused stack may still carry redzone poison of its previous frames.
  __asan_unpoison_memory_region(f.stack(), kStackBytes);
#endif
#ifdef ASCAN_FIBER_REGISTER_SWITCH
  // The frame sits 16 bytes below the (page-aligned) stack top, so
  // ascan_fiber_start runs with a 16-byte aligned stack and its call gives
  // entry() the alignment the ABI promises a callee. A fresh fiber starts
  // with the launching thread's floating-point control state.
  auto* fr = reinterpret_cast<SwitchFrame*>(f.stack() + kStackBytes - 16 -
                                            sizeof(SwitchFrame));
  *fr = SwitchFrame{};
  asm volatile("stmxcsr %0" : "=m"(fr->mxcsr));
  asm volatile("fnstcw %0" : "=m"(fr->x87_cw));
  fr->r13 = reinterpret_cast<void*>(&SubcoreFibers::entry);
  fr->r12 = &f;
  fr->ret = reinterpret_cast<void*>(&ascan_fiber_start);
  f.sp = fr;
#else
  f.ctx.uc_stack.ss_sp = f.stack();
  f.ctx.uc_stack.ss_size = kStackBytes;
  f.ctx.uc_link = nullptr;  // entry() switches back itself, never returns
  // makecontext passes int arguments only: split the record's address.
  const auto addr = reinterpret_cast<std::uintptr_t>(&f);
  ::makecontext(&f.ctx,
                reinterpret_cast<void (*)()>(+[](unsigned lo, unsigned hi) {
                  entry(reinterpret_cast<Fiber*>(
                      (std::uintptr_t{hi} << 32) | lo));
                }),
                2, unsigned(addr), unsigned(addr >> 32));
#endif
}

void SubcoreFibers::entry(Fiber* fp) noexcept {
  Fiber& f = *fp;
  SubcoreFibers& self = *f.owner;
#ifdef ASCAN_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &self.main_stack_bottom_,
                                  &self.main_stack_size_);
#endif
  (*self.body_)(f.index);
  f.done = true;
  self.switch_to_main(f, /*exiting=*/true);
}

void SubcoreFibers::resume(Fiber& f) {
  current_ = &f;
#ifdef ASCAN_FIBER_ASAN
  void* main_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&main_fake_stack, f.stack(), kStackBytes);
#endif
#ifdef ASCAN_FIBER_TSAN
  __tsan_switch_to_fiber(f.tsan, 0);
#endif
#ifdef ASCAN_FIBER_REGISTER_SWITCH
  ascan_fiber_switch(&main_sp_, f.sp);
#else
  ::swapcontext(&main_, &f.ctx);
#endif
#ifdef ASCAN_FIBER_ASAN
  __sanitizer_finish_switch_fiber(main_fake_stack, nullptr, nullptr);
#endif
  current_ = nullptr;
}

void SubcoreFibers::switch_to_main(Fiber& f, bool exiting) {
#ifdef ASCAN_FIBER_ASAN
  // A finished fiber passes no fake-stack slot, which frees its fake stack.
  __sanitizer_start_switch_fiber(exiting ? nullptr : &f.fake_stack,
                                 main_stack_bottom_, main_stack_size_);
#else
  (void)exiting;
#endif
#ifdef ASCAN_FIBER_TSAN
  __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
#ifdef ASCAN_FIBER_REGISTER_SWITCH
  ascan_fiber_switch(&f.sp, main_sp_);
#else
  ::swapcontext(&f.ctx, &main_);
#endif
  // Resumed by the scheduler (a finished fiber never is).
#ifdef ASCAN_FIBER_ASAN
  __sanitizer_finish_switch_fiber(f.fake_stack, &main_stack_bottom_,
                                  &main_stack_size_);
#endif
}

std::string SubcoreFibers::deadlock_report(std::size_t n) const {
  std::ostringstream os;
  os << "kernel deadlock: every unfinished sub-core is blocked";
  const char* sep = ": ";
  for (std::size_t s = 0; s < n; ++s) {
    const Fiber& f = *fibers_[s];
    if (f.done) continue;
    os << sep << "sub-core " << s << " waits on ";
    if (f.wait.flag != nullptr) {
      os << "flag '" << f.wait.flag << "'[" << f.wait.index << "]";
    } else {
      os << "SyncAll epoch " << f.wait.index;
    }
    sep = ", ";
  }
  return os.str();
}

}  // namespace ascend::acc
