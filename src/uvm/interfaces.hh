/**
 * @file
 * Abstract interfaces decoupling the UVM driver from the GPU device
 * model. Calls on these interfaces happen at message-arrival time;
 * the sender pays the interconnect cost through Network::send.
 */

#ifndef IDYLL_UVM_INTERFACES_HH
#define IDYLL_UVM_INTERFACES_HH

#include <cstdint>
#include <optional>

#include "sim/types.hh"

namespace idyll
{

/** A far fault raised by a GPU. */
struct FaultRecord
{
    Vpn vpn = 0;
    GpuId gpu = 0;
    bool write = false;
    Tick raised = 0; ///< when the GPU detected the fault
};

/** Payload of a Trans-FW forwarded translation. */
struct ForwardedMapping
{
    Pfn pfn = 0;
    bool writable = true;
};

/** GPU-side operations invoked by the driver (at message arrival). */
class GpuItf
{
  public:
    virtual ~GpuItf() = default;

    virtual GpuId id() const = 0;

    /**
     * A PTE invalidation request arrived from the UVM driver.
     * @param round the driver's invalidation round for this page
     *        (always >= 1), used to recognize duplicate/retried
     *        deliveries.
     */
    virtual void receiveInvalidation(Vpn vpn, std::uint32_t round) = 0;

    /** A new translation arrived (fault resolution or migration). */
    virtual void receiveNewMapping(Vpn vpn, Pfn pfn, bool writable) = 0;

    /** Oracle mode: apply an invalidation with zero local latency. */
    virtual void applyInstantInvalidation(Vpn vpn) = 0;

    /**
     * Ground truth for necessity accounting: does this GPU logically
     * hold a valid local mapping (valid PTE not pending in the IRMB)?
     */
    virtual bool hasValidMapping(Vpn vpn) const = 0;

    /** Trans-FW: a remote GPU asks whether we hold a translation. */
    virtual void serveTransFwProbe(Vpn vpn, GpuId requester) = 0;

    /** Trans-FW: reply to our earlier probe. */
    virtual void receiveTransFwReply(
        Vpn vpn, std::optional<ForwardedMapping> mapping) = 0;
};

/** Driver-side operations invoked by GPUs (at message arrival). */
class DriverItf
{
  public:
    virtual ~DriverItf() = default;

    /** A batched far fault arrived over PCIe. */
    virtual void onFarFault(FaultRecord fault) = 0;

    /** An access counter saturated; the GPU asks for a migration. */
    virtual void onMigrationRequest(GpuId requester, Vpn vpn) = 0;

    /**
     * A GPU finished applying a PTE invalidation.
     * @param round echoes the round carried by the invalidation, so
     *        the driver can discard stale and duplicate acks.
     * @param wasValid whether the GPU logically held a servable
     *        mapping when the invalidation arrived — the driver's
     *        necessity accounting reads this instead of probing the
     *        GPU synchronously (which a sharded run cannot do).
     */
    virtual void onInvalAck(GpuId from, Vpn vpn, std::uint32_t round,
                            bool wasValid) = 0;

    /**
     * Trans-FW installed a forwarded mapping on @p gpu; the driver
     * records residency so future migrations invalidate it.
     */
    virtual void onMappingRegistered(GpuId gpu, Vpn vpn) = 0;

    /**
     * Bookkeeping (untimed): @p count data accesses to @p vpn by
     * @p gpu. GPUs tally accesses locally during the run (a per-access
     * hook would be a cross-shard call on every access) and the
     * harness replays the totals through this at quiesce; the
     * aggregate is order-independent.
     */
    virtual void recordAccessBulk(GpuId gpu, Vpn vpn,
                                  std::uint64_t count) = 0;
};

} // namespace idyll

#endif // IDYLL_UVM_INTERFACES_HH
