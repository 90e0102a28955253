// Heap allocation counts for the benches' allocation gates. Linking
// alloc_counter.cpp into a binary replaces the global operator new/delete
// with malloc/free wrappers that count every allocation, both in total and
// per thread. The replacements live in their own translation unit so the
// compiler never inlines a counting `new` next to a `delete` it cannot
// match.
#pragma once

#include <cstdint>

namespace resmon::bench {

/// Heap allocations made so far by every thread of the program.
std::uint64_t allocations();

/// Heap allocations made so far by the calling thread.
std::uint64_t thread_allocations();

}  // namespace resmon::bench
