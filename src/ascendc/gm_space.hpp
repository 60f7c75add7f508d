// Deterministic virtual GM address space.
//
// The L2 model indexes cache sets by GM address. Host heap addresses are
// useless for that: they depend on ASLR and on allocator state, which would
// make simulated times differ run to run. Every GlobalBuffer instead
// acquires a *virtual* GM address from this process-wide allocator — a bump
// pointer with size-bucketed LIFO free lists, so the address stream depends
// only on the (deterministic, main-thread) sequence of buffer lifetimes,
// never on where the host heap happened to place the payload.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ascend::acc::gm_space {

/// Returns a virtual GM address for a buffer of `bytes` bytes (never 0 —
/// the trace uses gm_addr 0 as the "no GM access" sentinel). Freed blocks
/// of the same rounded size are reused LIFO, mirroring malloc enough that
/// repeated alloc/free cycles see stable addresses.
std::uint64_t acquire(std::size_t bytes);

/// Returns `vaddr` (from acquire with the same `bytes`) to the free list.
void release(std::uint64_t vaddr, std::size_t bytes) noexcept;

}  // namespace ascend::acc::gm_space
