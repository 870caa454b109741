/**
 * @file
 * Counting replacements for the global operator new/delete family
 * (see alloc_counter.hh). Every form is replaced together -- plain,
 * array, nothrow, sized and aligned -- so no allocation escapes the
 * count and every pointer is freed by the matching allocator.
 */

#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace
{

constinit thread_local std::uint64_t tlsAllocations = 0;

void *
countedAlloc(std::size_t size) noexcept
{
    ++tlsAllocations;
    return std::malloc(size ? size : 1);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept
{
    ++tlsAllocations;
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
    return std::aligned_alloc(a, rounded);
}

void *
orThrow(void *p)
{
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace idyll::test
{

std::uint64_t
threadAllocations()
{
    return tlsAllocations;
}

} // namespace idyll::test

// NOLINTBEGIN: replacing the global allocation functions
void *operator new(std::size_t n) { return orThrow(countedAlloc(n)); }
void *operator new[](std::size_t n) { return orThrow(countedAlloc(n)); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return orThrow(countedAlignedAlloc(n, a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return orThrow(countedAlignedAlloc(n, a));
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(n, a);
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}
// NOLINTEND
