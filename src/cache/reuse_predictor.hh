/**
 * @file
 * Dead-entry reuse predictor (PAPERS.md: "Dead on Arrival").
 *
 * A table of 2-bit saturating counters indexed by a hash of the cache
 * key. The owning cache trains it at eviction time with the entry's
 * observed outcome: an entry evicted without ever being re-referenced
 * votes "dead", a reused one votes "live". At insertion time the
 * cache asks for a prediction and demotes predicted-dead entries to
 * the LRU position (LIP-style insertion), so a burst of single-use
 * fills — exactly what invalidation-heavy phases produce in the L2
 * TLB and the MMU caches — cannot flush the reused working set.
 *
 * Everything is a deterministic function of the key stream: no RNG,
 * no wall clock, no cross-GPU state, so sharded runs stay
 * bit-identical to serial ones.
 */

#ifndef IDYLL_CACHE_REUSE_PREDICTOR_HH
#define IDYLL_CACHE_REUSE_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "sim/metrics.hh"
#include "sim/rng.hh"

namespace idyll
{

/** Per-key reuse predictor with 2-bit saturating dead counters. */
class ReusePredictor
{
  public:
    /** @param entries counter-table size; rounded up to a power of 2. */
    explicit ReusePredictor(std::uint32_t entries = 1024)
    {
        std::uint32_t size = 1;
        while (size < entries)
            size <<= 1;
        _counters.assign(size, 0);
        _mask = size - 1;
    }

    /** True when the counter for @p key has crossed the dead line. */
    bool
    predictDead(std::uint64_t key)
    {
        const bool dead = _counters[indexOf(key)] >= kDeadThreshold;
        if (dead)
            _deadPredictions.inc();
        return dead;
    }

    /**
     * Feed back one eviction outcome: @p reused is whether the entry
     * was re-referenced between insertion and eviction.
     */
    void
    trainEviction(std::uint64_t key, bool reused)
    {
        std::uint8_t &ctr = _counters[indexOf(key)];
        if (reused) {
            _trainLive.inc();
            ctr = 0; // reuse is strong evidence; reset outright
        } else {
            _trainDead.inc();
            if (ctr < kCounterMax)
                ++ctr;
        }
    }

    /**
     * Correction on a hit to an entry that was inserted dead-hinted:
     * the prediction was wrong, back the counter off immediately.
     */
    void
    trainHitOnDeadHint(std::uint64_t key)
    {
        std::uint8_t &ctr = _counters[indexOf(key)];
        if (ctr > 0)
            --ctr;
    }

    const Counter &deadPredictions() const { return _deadPredictions; }
    const Counter &trainedDead() const { return _trainDead; }
    const Counter &trainedLive() const { return _trainLive; }

  private:
    static constexpr std::uint8_t kCounterMax = 3;
    static constexpr std::uint8_t kDeadThreshold = 2;

    std::uint32_t
    indexOf(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(mix64(key) & _mask);
    }

    std::vector<std::uint8_t> _counters;
    std::uint32_t _mask = 0;
    Counter _deadPredictions;
    Counter _trainDead;
    Counter _trainLive;
};

} // namespace idyll

#endif // IDYLL_CACHE_REUSE_PREDICTOR_HH
