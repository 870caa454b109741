/**
 * @file
 * Heap-allocation counting for the test binary. alloc_counter.cc
 * replaces the global operator new/delete family with versions that
 * forward to malloc/free and count, per thread, every allocation made
 * through operator new. Tests read the count around a region to assert
 * that a hot path allocates nothing.
 */

#ifndef IDYLL_TESTS_ALLOC_COUNTER_HH
#define IDYLL_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace idyll::test
{

/** operator new calls made so far by the calling thread. */
std::uint64_t threadAllocations();

} // namespace idyll::test

#endif // IDYLL_TESTS_ALLOC_COUNTER_HH
