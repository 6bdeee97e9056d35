// Global heap-allocation counter for benchmark binaries.
//
// Replaces the global operator new/delete with counting wrappers so a
// bench can bracket a region and report exactly how many heap allocations
// it performed — the ground truth behind the round engine's reusable-
// workspace contract (steady-state rounds should allocate only for state
// that genuinely grows: the chain append).
//
// Include from exactly ONE translation unit per binary: the replacement
// functions below are definitions, and a program gets one set of them.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace roleshare::bench {

inline std::atomic<std::uint64_t> g_alloc_count{0};

/// Number of global operator new calls since process start.
inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace roleshare::bench

void* operator new(std::size_t size) {
  roleshare::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  roleshare::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
