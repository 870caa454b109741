/**
 * @file
 * Unit tests for the MSHR file.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hh"

namespace idyll
{
namespace
{

using File = MshrFile<std::uint64_t, int>;

TEST(Mshr, PrimaryThenSecondaryMerge)
{
    File m(4);
    EXPECT_TRUE(m.allocate(10, 1));  // primary
    EXPECT_FALSE(m.allocate(10, 2)); // merged
    EXPECT_FALSE(m.allocate(10, 3));
    EXPECT_EQ(m.waiters(10), 3u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(Mshr, ReleaseReturnsWaitersInOrder)
{
    File m(4);
    m.allocate(10, 1);
    m.allocate(10, 2);
    m.allocate(10, 3);
    auto waiters = m.release(10);
    ASSERT_EQ(waiters.size(), 3u);
    EXPECT_EQ(waiters[0], 1);
    EXPECT_EQ(waiters[1], 2);
    EXPECT_EQ(waiters[2], 3);
    EXPECT_FALSE(m.contains(10));
}

TEST(Mshr, WaitersPastTheInlineOnesKeepTheirOrder)
{
    File m(4);
    const int n = static_cast<int>(File::Waiters::kInline) + 3;
    for (int i = 0; i < n; ++i)
        m.allocate(10, i);
    ASSERT_EQ(m.waiters(10), static_cast<std::size_t>(n));
    auto waiters = m.release(10);
    ASSERT_EQ(waiters.size(), static_cast<std::size_t>(n));
    int expect = 0;
    for (int w : waiters)
        EXPECT_EQ(w, expect++);
    EXPECT_FALSE(m.contains(10));
}

TEST(Mshr, FullOnlyCountsPrimaries)
{
    File m(2);
    m.allocate(1, 0);
    for (int i = 0; i < 10; ++i)
        m.allocate(1, i); // merges don't consume entries
    EXPECT_FALSE(m.full());
    m.allocate(2, 0);
    EXPECT_TRUE(m.full());
    m.allocate(2, 1); // merging while full is fine
    EXPECT_EQ(m.waiters(2), 2u);
}

TEST(Mshr, PeekWaitersIsNonDestructive)
{
    File m(4);
    m.allocate(5, 42);
    const auto *w = m.peekWaiters(5);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->size(), 1u);
    EXPECT_TRUE(m.contains(5));
    EXPECT_EQ(m.peekWaiters(6), nullptr);
}

TEST(MshrDeath, OverflowAndUnknownReleasePanic)
{
    File m(1);
    m.allocate(1, 0);
    EXPECT_DEATH(m.allocate(2, 0), "overflow");
    EXPECT_DEATH(m.release(99), "unknown");
}

} // namespace
} // namespace idyll
