/**
 * @file
 * FlatVpnMap against std::unordered_map: random inserts, finds and
 * erases over a small key range (long probe runs, repeated growth,
 * many backward-shift deletes), probe runs that wrap past the last
 * slot, iteration, and clear.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/flat_vpn_map.hh"
#include "sim/rng.hh"

namespace idyll
{
namespace
{

using Map = FlatVpnMap<std::uint64_t>;

/** Every key/value of @p m, sorted by key. */
std::map<std::uint64_t, std::uint64_t>
contents(const Map &m)
{
    std::map<std::uint64_t, std::uint64_t> out;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        EXPECT_TRUE(out.emplace(k, v).second) << "key " << k << " twice";
    });
    return out;
}

std::map<std::uint64_t, std::uint64_t>
sorted(const std::unordered_map<std::uint64_t, std::uint64_t> &ref)
{
    return {ref.begin(), ref.end()};
}

/**
 * Keys whose home is the last slot of a @p slots-slot table: the
 * same golden-ratio multiply-shift FlatVpnMap uses.
 */
std::vector<std::uint64_t>
keysHomedAtLastSlot(std::uint64_t slots, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; keys.size() < n; ++k) {
        const std::uint64_t h = k * 0x9E3779B97F4A7C15ull;
        const auto home = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(h) * slots) >> 64);
        if (home == slots - 1)
            keys.push_back(k);
    }
    return keys;
}

TEST(FlatVpnMap, FindNeverInserts)
{
    Map m;
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.contains(7));
    EXPECT_EQ(m.size(), 0u);
    m[7] = 70;
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70u);
    const auto [v, inserted] = m.insert(7, 1);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*v, 70u) << "insert must not overwrite";
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatVpnMap, BackwardShiftAcrossWrapAround)
{
    // Three keys homed at the last of the initial 8 slots: the second
    // and third wrap to slots 0 and 1. Erasing the first must shift
    // both back across the wrap, and each must stay findable.
    Map m;
    ASSERT_EQ(m.capacity(), 8u);
    const std::vector<std::uint64_t> keys = keysHomedAtLastSlot(8, 3);
    for (std::uint64_t k : keys)
        m[k] = k + 1;
    ASSERT_EQ(m.capacity(), 8u) << "the table grew; pick fewer keys";
    ASSERT_TRUE(m.erase(keys[0]));
    EXPECT_FALSE(m.contains(keys[0]));
    for (std::size_t i = 1; i < keys.size(); ++i) {
        ASSERT_NE(m.find(keys[i]), nullptr) << "key " << keys[i];
        EXPECT_EQ(*m.find(keys[i]), keys[i] + 1);
    }
    ASSERT_TRUE(m.erase(keys[2]));
    ASSERT_NE(m.find(keys[1]), nullptr);
    EXPECT_FALSE(m.erase(keys[2]));
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatVpnMap, MatchesUnorderedMapUnderRandomChurn)
{
    Map m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(11);
    std::size_t grew = 0;
    for (int step = 0; step < 200000; ++step) {
        // A narrow range early (dense runs, wrap-around), then wider
        // so the table keeps growing.
        const std::uint64_t range = step < 100000 ? 600 : 20000;
        const std::uint64_t key = rng.below(range);
        switch (rng.below(5)) {
          case 0:
          case 1: {
            const std::size_t cap = m.capacity();
            const std::uint64_t value = rng.below(1u << 30);
            m[key] = value;
            ref[key] = value;
            grew += m.capacity() != cap;
            break;
          }
          case 2: {
            const bool had = ref.erase(key) != 0;
            ASSERT_EQ(m.erase(key), had) << "step " << step;
            break;
          }
          default: {
            const auto it = ref.find(key);
            const std::uint64_t *v = m.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "step " << step;
            if (v) {
                ASSERT_EQ(*v, it->second) << "step " << step;
            }
          }
        }
        ASSERT_EQ(m.size(), ref.size()) << "step " << step;
        ASSERT_LE(8 * m.size(), 7 * m.capacity()) << "step " << step;
        if (step % 20000 == 0) {
            ASSERT_EQ(contents(m), sorted(ref)) << "step " << step;
        }
    }
    EXPECT_GT(grew, 5u);
    EXPECT_EQ(contents(m), sorted(ref));
    // Drain everything: every erase shifts what follows it.
    for (const auto &[key, value] : sorted(ref)) {
        ASSERT_TRUE(m.erase(key));
        ASSERT_FALSE(m.contains(key));
    }
    EXPECT_TRUE(m.empty());
    EXPECT_TRUE(contents(m).empty());
}

TEST(FlatVpnMap, ClearShrinksAndForgets)
{
    Map m;
    for (std::uint64_t k = 0; k < 1000; ++k)
        m[k] = k;
    EXPECT_GT(m.capacity(), 1000u);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), 8u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_FALSE(m.contains(k));
}

TEST(FlatVpnMap, MovesValuesThatOwnMemory)
{
    FlatVpnMap<std::vector<int>> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k].assign(static_cast<std::size_t>(k % 7), static_cast<int>(k));
    for (std::uint64_t k = 0; k < 100; k += 2)
        ASSERT_TRUE(m.erase(k));
    for (std::uint64_t k = 1; k < 100; k += 2) {
        const std::vector<int> *v = m.find(k);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, std::vector<int>(static_cast<std::size_t>(k % 7),
                                       static_cast<int>(k)));
    }
}

TEST(FlatVpnMap, LookupsOfTheEmptySlotKeyFindNothing)
{
    // Every free slot holds the empty marker; lookups of it must not
    // mistake one for an entry, on an empty table or a full one.
    Map m;
    EXPECT_EQ(m.find(Map::kEmptyKey), nullptr);
    EXPECT_FALSE(m.contains(Map::kEmptyKey));
    EXPECT_FALSE(m.erase(Map::kEmptyKey));
    EXPECT_EQ(m.size(), 0u);
    for (std::uint64_t k = 0; k < 5; ++k)
        m[k] = k;
    EXPECT_EQ(m.find(Map::kEmptyKey), nullptr);
    EXPECT_FALSE(m.contains(Map::kEmptyKey));
    EXPECT_FALSE(m.erase(Map::kEmptyKey));
    EXPECT_EQ(m.size(), 5u);
}

TEST(FlatVpnMapDeath, RefusesTheEmptySlotKey)
{
    Map m;
    EXPECT_DEATH(m[Map::kEmptyKey] = 1, "empty-slot key");
}

} // namespace
} // namespace idyll
