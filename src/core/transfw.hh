/**
 * @file
 * Trans-FW comparator — Section 7.5 (Li et al., HPCA'23), scaled to
 * the paper's comparison point: 720 bytes of fingerprint state (443
 * fingerprints in the Page Residency Table, PRT).
 *
 * Each GPU keeps fingerprints of pages it believes remote GPUs hold
 * valid translations for. On a far fault, the requester probes its
 * PRT; a hit short-circuits the host round trip by fetching the
 * translation directly from the candidate GPU over NVLink. The PRT
 * is a capacity-limited fingerprint set, so it produces false
 * positives (hash collisions) and false negatives (evictions) —
 * both safe: a wrong candidate simply falls back to the host path.
 */

#ifndef IDYLL_CORE_TRANSFW_HH
#define IDYLL_CORE_TRANSFW_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace idyll
{

/** PRT statistics. */
struct TransFwStats : MetricsGroup
{
    TransFwStats() : MetricsGroup("transFw") {}

    Counter records{*this, "records"};
    Counter probes{*this, "probes"};
    Counter probeHits{*this, "probeHits"};
    /// remote lookup found a valid PTE
    Counter remoteConfirms{*this, "remoteConfirms"};
    /// false positive, fell back to host
    Counter remoteRejects{*this, "remoteRejects"};
    Counter evictions{*this, "evictions"};
};

/** Per-GPU Page Residency Table of remote-mapping fingerprints. */
class TransFwPrt
{
  public:
    /**
     * @param cfg  fingerprint capacity and remote-probe latency.
     * @param self the owning GPU (never returned as a candidate).
     */
    TransFwPrt(const TransFwConfig &cfg, GpuId self);

    /** Learn that @p holder installed a valid mapping for @p vpn. */
    void record(GpuId holder, Vpn vpn);

    /** Learn that @p holder dropped its mapping for @p vpn. */
    void drop(GpuId holder, Vpn vpn);

    /**
     * Probe for a candidate holder of @p vpn.
     * @return a GPU id to query, or nullopt for a PRT miss.
     */
    std::optional<GpuId> probe(Vpn vpn);

    /** Account the outcome of the remote confirmation. */
    void confirm(bool valid);

    std::size_t size() const { return _fifo.size(); }
    const TransFwStats &stats() const { return _stats; }

    /** Hardware bytes: 13-bit fingerprint + holder id per entry. */
    std::uint64_t sizeBytes() const;

  private:
    static std::uint16_t fingerprintOf(Vpn vpn);

    TransFwConfig _cfg;
    GpuId _self;
    /** fingerprint -> candidate holder (most recent wins). */
    std::unordered_map<std::uint16_t, GpuId> _map;
    /** FIFO of fingerprints for capacity eviction. */
    std::deque<std::uint16_t> _fifo;
    TransFwStats _stats;
};

} // namespace idyll

#endif // IDYLL_CORE_TRANSFW_HH
