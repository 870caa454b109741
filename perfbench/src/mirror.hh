/**
 * @file
 * The traced pass's layer timer: a TraceSink that replays every traced
 * TLB, IRMB, directory and network call into shadow instances of those
 * components, built through their public constructors from the same
 * SystemConfig, and times each replayed call.
 *
 * The simulator's own components are never timed from inside; the
 * shadow copy does the same work on the same inputs in the same order,
 * so its per-call host time stands in for the real call's. Each
 * replayed TLB probe's hit/miss (and hit level) is compared with the
 * traced outcome; the agreement ratio proves the shadow tracked the
 * real TLB state.
 *
 * What is replayed, per TraceOp:
 *  - TlbHit / TlbMiss     TlbHierarchy::probe (checked against the op)
 *  - TlbFill              TlbHierarchy::fill
 *  - MapInstall           the L2 TLB fill that follows a mapping install
 *  - TlbShootdown         TlbHierarchy::shootdown
 *  - IrmbInsert / IrmbMerge / IrmbDup / IrmbEvict   one Irmb::insert
 *  - IrmbHit              Irmb::lookup (misses are not traced)
 *  - IrmbElide            Irmb::removeForNewMapping
 *  - IrmbDrain            Irmb::drainLru
 *  - DirSet / DirClear / DirTargets   InPteDirectory on a shadow PTE
 *  - NetSend              Network::send into a shadow event queue
 *
 * Not thread-safe: attach only to serial (one-shard) systems.
 */

#ifndef PERFBENCH_MIRROR_HH
#define PERFBENCH_MIRROR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/directory.hh"
#include "core/irmb.hh"
#include "interconnect/network.hh"
#include "mem/addr.hh"
#include "mem/pte.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "tlb/tlb.hh"

namespace perfbench
{

/** Calls replayed into one shadow operation and their host time. */
struct OpTime
{
    std::uint64_t calls = 0;
    double ns = 0.0; ///< clock-read cost already subtracted

    double nsPerCall() const;
    OpTime &operator+=(const OpTime &o);
};

/** Everything one or more MirrorSinks measured. */
struct MirrorStats
{
    OpTime tlbProbe, tlbFill, tlbShootdown;
    OpTime irmb, dir, netSend;

    std::uint64_t probesAgreed = 0;     ///< replayed outcome == traced
    std::uint64_t shootdownsUseful = 0; ///< traced: removed >= 1 entry
    std::uint64_t irmbBatches = 0;      ///< evict/flush/drain batches
    std::uint64_t irmbBatchVpns = 0;
    std::uint64_t dirTargetLookups = 0;
    std::uint64_t dirTargets = 0; ///< traced GPUs selected, summed

    double tlbNs() const;
    /** Probe agreement ratio; 1 when nothing was probed. */
    double agreeRatio() const;
    MirrorStats &operator+=(const MirrorStats &o);
};

/**
 * Median cost of one steady_clock read in ns, as seen between two
 * back-to-back reads: what a timed empty call would measure.
 */
double clockReadNs();

/** The replaying sink. One per traced system. */
class MirrorSink : public idyll::TraceSink
{
  public:
    /** @param clockNs subtracted from every timed call. */
    MirrorSink(const idyll::SystemConfig &cfg, double clockNs);

    void record(const idyll::TraceEvent &event) override;

    const MirrorStats &stats() const { return _stats; }

  private:
    template <typename F> void timed(OpTime &op, F &&call);

    idyll::TlbHierarchy &tlbs(idyll::GpuId gpu);
    idyll::Irmb &irmb(idyll::GpuId gpu);
    void replayTlb(const idyll::TraceEvent &e);
    void replayIrmb(const idyll::TraceEvent &e);
    void replayDir(const idyll::TraceEvent &e);
    void replayNet(const idyll::TraceEvent &e);

    idyll::SystemConfig _cfg;
    double _clockNs;
    idyll::AddrLayout _layout;
    std::vector<std::unique_ptr<idyll::TlbHierarchy>> _tlbs;
    std::vector<std::unique_ptr<idyll::Irmb>> _irmbs;
    idyll::InPteDirectory _dir;
    std::unordered_map<idyll::Vpn, idyll::Pte> _ptes;
    /** Shadow fabric; its queue is drained (untimed) now and then. */
    idyll::EventQueue _eq;
    idyll::Network _net;
    std::uint32_t _sendsSinceDrain = 0;
    MirrorStats _stats;
};

} // namespace perfbench

#endif // PERFBENCH_MIRROR_HH
