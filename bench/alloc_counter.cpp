#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;

void count() {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
}

}  // namespace

namespace resmon::bench {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

std::uint64_t thread_allocations() { return t_allocs; }

}  // namespace resmon::bench

void* operator new(std::size_t size) {
  count();
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  count();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded > 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
