#include "harness/sweeps.hh"

#include <algorithm>
#include <utility>

#include "harness/cli.hh"
#include "harness/tables.hh"
#include "sim/latency.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace idyll
{

namespace
{

using Row = std::vector<SimResults>;

/** 100 * part / whole, 0 when whole is empty (breakdown columns). */
double
pct(double part, double whole)
{
    return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

/** num / den, 0 when den is empty (normalized-to-baseline columns). */
double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Average demand TLB-miss latency: the scoreboard's end-to-end
 * measurement when the run carried one, else the GPU-side average
 * (scoreboard-off builds).
 */
double
demandAvgLatency(const SimResults &r)
{
    return r.latDemandCount
               ? static_cast<double>(r.latDemandCycles) /
                     static_cast<double>(r.latDemandCount)
               : r.demandMissLatencyAvg;
}

/** Total demand TLB-miss latency, preferring the scoreboard. */
double
demandTotalLatency(const SimResults &r)
{
    return r.latDemandCount ? static_cast<double>(r.latDemandCycles)
                            : r.demandMissLatencyTotal;
}

/**
 * Share (%) of total demand miss latency attributed to @p phase by
 * the latency scoreboard; 0 when the run was not attributed.
 */
double
phaseShare(const SimResults &r, LatencyPhase phase)
{
    const auto i = static_cast<std::size_t>(phase);
    if (i >= r.latDemandPhaseCycles.size())
        return 0.0;
    return pct(static_cast<double>(r.latDemandPhaseCycles[i]),
               static_cast<double>(r.latDemandCycles));
}

void
latencyOn(SystemConfig &cfg)
{
    cfg.latency.enabled = true;
}

/** The simulation-scaled preset @p scheme, labelled by its name. */
SchemePoint
preset(const std::string &scheme)
{
    auto cfg = schemeByName(scheme);
    if (!cfg)
        fatal("sweep registry names unknown scheme '", scheme, "'");
    return {scheme, scaledForSim(*cfg)};
}

/** Preset @p scheme under @p label, edited by @p edit, at @p work. */
SchemePoint
variant(const std::string &scheme, std::string label,
        const ConfigEdit &edit = {}, double work = 1.0)
{
    SchemePoint point = preset(scheme);
    point.label = std::move(label);
    if (edit)
        edit(point.cfg);
    point.work = work;
    return point;
}

/** The presets @p schemes, in order. */
std::vector<SchemePoint>
presets(const std::vector<std::string> &schemes)
{
    std::vector<SchemePoint> points;
    for (const std::string &scheme : schemes)
        points.push_back(preset(scheme));
    return points;
}

/** Column: @p fn of point @p p's results. */
SweepColumn
column(std::string label, std::size_t p,
       std::function<double(const SimResults &)> fn)
{
    return {std::move(label),
            [p, fn = std::move(fn)](const Row &row) { return fn(row[p]); }};
}

/** Column: field @p member of point @p p's results. */
template <typename T>
SweepColumn
field(std::string label, std::size_t p, T SimResults::*member)
{
    return column(std::move(label), p, [member](const SimResults &res) {
        return static_cast<double>(res.*member);
    });
}

/** Column: speedup of point @p p over point @p base. */
SweepColumn
speedup(std::string label, std::size_t p, std::size_t base = 0)
{
    return {std::move(label), [p, base](const Row &row) {
                return row[p].speedupOver(row[base]);
            }};
}

/**
 * One (baseline, IDYLL) pair per entry of @p tags, each edited by
 * @p edit(i, cfg) and run at @p work(i), plus a column per pair of
 * the IDYLL point's speedup over its own baseline.
 */
void
addPairs(SweepSpec &spec, const std::vector<std::string> &tags,
         const std::vector<std::string> &columns,
         const std::function<void(std::size_t, SystemConfig &)> &edit,
         const std::function<double(std::size_t)> &work =
             [](std::size_t) { return 1.0; })
{
    for (std::size_t i = 0; i < tags.size(); ++i) {
        const ConfigEdit apply = [&](SystemConfig &cfg) { edit(i, cfg); };
        spec.points.push_back(
            variant("baseline", "baseline-" + tags[i], apply, work(i)));
        spec.points.push_back(
            variant("idyll", "idyll-" + tags[i], apply, work(i)));
        const std::size_t base = spec.points.size() - 2;
        spec.table.columns.push_back(speedup(columns[i], base + 1, base));
    }
}

/** Speedup columns for points 1..n-1 over point 0, one per label. */
std::vector<SweepColumn>
speedupsOverFirst(const std::vector<std::string> &labels)
{
    std::vector<SweepColumn> columns;
    for (std::size_t i = 0; i < labels.size(); ++i)
        columns.push_back(speedup(labels[i], i + 1));
    return columns;
}

std::vector<SweepSpec>
makeRegistry()
{
    const std::vector<std::string> &apps = Workload::appNames();
    std::vector<SweepSpec> r;

    // CI-sized sanity grid (no paper counterpart). perfbench and CI
    // read its apps and scheme names; keep them and their order.
    r.push_back({"smoke", "tiny CI grid",
                 "IDYLL and the zero-latency oracle beat the baseline",
                 {apps.front(), apps.back()},
                 presets({"baseline", "idyll", "zero"}),
                 {"speedup over baseline",
                  speedupsOverFirst({"IDYLL", "zero-lat"})}});

    // Fig 1: overhead = 1 - T(zero-latency invalidation) / T(baseline),
    // the share of runtime that disappears when invalidations are
    // free; measured on 2 GPUs like the paper's A100 profile.
    {
        const ConfigEdit twoGpus = [](SystemConfig &cfg) {
            cfg.numGpus = 2;
        };
        r.push_back({"fig01", "page table invalidation overhead (2 GPUs)",
                     "~42% of execution time on average; PR and ST "
                     "among the highest",
                     {"MT", "MM", "PR", "ST", "SC", "KM"},
                     {variant("baseline", "baseline", twoGpus),
                      variant("zero", "zero", twoGpus)},
                     {"invalidation overhead (% of execution time)",
                      {{"overhead-%", [](const Row &row) {
                            return 100.0 *
                                   (1.0 - static_cast<double>(
                                              row[1].execTicks) /
                                              static_cast<double>(
                                                  row[0].execTicks));
                        }}},
                      true, 1}});
    }

    r.push_back(
        {"fig02", "migration policies vs counter-based",
         "oracle ~1.73x average; first/on-touch usually < 1", apps,
         {variant("baseline", "counter"),
          variant("baseline", "on-touch",
                  [](SystemConfig &cfg) {
                      cfg.migrationPolicy = MigrationPolicy::OnTouch;
                  }),
          variant("baseline", "first-touch",
                  [](SystemConfig &cfg) {
                      cfg.migrationPolicy = MigrationPolicy::FirstTouch;
                  }),
          variant("zero", "zero-lat-inval")},
         {"performance relative to access counter-based",
          speedupsOverFirst({"on-touch", "first-touch", "zero-lat"})}});

    // Fig 4: accesses to pages touched by exactly k GPUs.
    {
        SweepTable table{"% of accesses to pages shared by k GPUs", {},
                         false, 1};
        const char *labels[] = {"1-GPU", "2-GPUs", "3-GPUs", "4-GPUs"};
        for (std::size_t k = 0; k < 4; ++k) {
            table.columns.push_back(
                column(labels[k], 0, [k](const SimResults &res) {
                    double total = 0;
                    for (std::uint64_t b : res.sharingBuckets)
                        total += static_cast<double>(b);
                    return k < res.sharingBuckets.size()
                               ? 100.0 * res.sharingBuckets[k] / total
                               : 0.0;
                }));
        }
        r.push_back({"fig04", "distribution of shared-page accesses",
                     "MM/PR/KM ~all accesses to 4-shared pages; MT/C2D "
                     "concentrated on 2-shared",
                     apps, presets({"baseline"}), std::move(table)});
    }

    // Fig 5; queue-lat-% is the scoreboard view of the same
    // contention: the share of demand miss latency spent queued
    // behind walker traffic.
    {
        const auto walkerPct = [](std::uint64_t SimResults::*count) {
            return [count](const SimResults &res) {
                return pct(static_cast<double>(res.*count),
                           static_cast<double>(res.demandWalks +
                                               res.invalSent));
            };
        };
        r.push_back(
            {"fig05", "page-walker request breakdown (baseline)",
             "~27% of walker requests are invalidations; ~32% of those "
             "are unnecessary",
             apps, {variant("baseline", "baseline", latencyOn)},
             {"% of page-walker requests",
              {column("demand", 0, walkerPct(&SimResults::demandWalks)),
               column("necessary-inv", 0,
                      walkerPct(&SimResults::invalNecessary)),
               column("unnecessary-inv", 0,
                      walkerPct(&SimResults::invalUnnecessary)),
               column("queue-lat-%", 0,
                      [](const SimResults &res) {
                          return phaseShare(res, LatencyPhase::PtwQueue);
                      })},
              true, 1}});
    }

    r.push_back(
        {"fig06", "demand TLB-miss latency w/o invalidation contention",
         "average latency drops ~55.8% vs baseline", apps,
         {variant("baseline", "baseline", latencyOn),
          variant("zero", "zero", latencyOn)},
         {"demand TLB-miss latency",
          {{"relative",
            [](const Row &row) {
                return ratio(demandAvgLatency(row[1]),
                             demandAvgLatency(row[0]));
            }},
           column("base-cycles", 0, demandAvgLatency),
           column("oracle-cycles", 1, demandAvgLatency)},
          true, 2}});

    // Fig 7; miss-lat-% cross-checks with the scoreboard: how much of
    // demand miss latency the same waiting shows up as.
    r.push_back(
        {"fig07", "migration waiting latency share (baseline)",
         "waiting ~38% of total migration latency (854 / 2230 cycles "
         "in the paper)",
         apps, {variant("baseline", "baseline", latencyOn)},
         {"migration latency breakdown (cycles)",
          {field("wait", 0, &SimResults::migrationWaitAvg),
           field("total", 0, &SimResults::migrationTotalAvg),
           column("wait-%", 0,
                  [](const SimResults &res) {
                      return pct(res.migrationWaitAvg,
                                 res.migrationTotalAvg);
                  }),
           column("miss-lat-%", 0,
                  [](const SimResults &res) {
                      return phaseShare(res, LatencyPhase::MigrationWait);
                  })},
          true, 1}});

    // Fig 11, the headline. The grid also runs the two L2-policy
    // presets (dead-entry eviction, sub-entry sharing) for the JSON;
    // perfbench reads its apps and scheme names, keep them in order.
    r.push_back(
        {"fig11", "overall performance vs baseline",
         "Only-Dir +27.3%, Only-Lazy +55.8%, IDYLL +69.9%, IDYLL-InMem "
         "~+70%, oracle ~+73%",
         apps,
         presets({"baseline", "only-lazy", "only-dir", "inmem", "idyll",
                  "idyll+dead", "idyll+sub", "zero"}),
         {"speedup over baseline",
          {speedup("only-lazy", 1), speedup("only-dir", 2),
           speedup("IDYLL-InMem", 3), speedup("IDYLL", 4),
           speedup("zero-lat", 7)}}});

    r.push_back(
        {"fig12", "demand TLB-miss latency under IDYLL",
         "~59.7% average reduction vs baseline", apps,
         {variant("baseline", "baseline", latencyOn),
          variant("idyll", "idyll", latencyOn)},
         {"total demand TLB-miss latency relative to baseline",
          {{"relative", [](const Row &row) {
                return ratio(demandTotalLatency(row[1]),
                             demandTotalLatency(row[0]));
            }}}}});

    r.push_back(
        {"fig13", "invalidation requests under IDYLL",
         "count ~0.68x of baseline, total latency ~0.32x", apps,
         presets({"baseline", "idyll"}),
         {"invalidations relative to baseline",
          {{"rel-count",
            [](const Row &row) {
                return ratio(static_cast<double>(row[1].invalSent),
                             static_cast<double>(row[0].invalSent));
            }},
           {"rel-latency", [](const Row &row) {
                return ratio(row[1].invalServiceLatencyTotal,
                             row[0].invalServiceLatencyTotal);
            }}}}});

    r.push_back(
        {"fig14", "migration waiting latency under IDYLL",
         "~71% average reduction vs baseline", apps,
         {variant("baseline", "baseline", latencyOn),
          variant("idyll", "idyll", latencyOn)},
         {"total migration waiting latency vs baseline",
          {{"relative",
            [](const Row &row) {
                return ratio(row[1].migrationWaitTotal,
                             row[0].migrationWaitTotal);
            }},
           field("base-avg-cyc", 0, &SimResults::migrationWaitAvg),
           field("idyll-avg-cyc", 1, &SimResults::migrationWaitAvg)},
          true, 2}});

    // Fig 15: IRMB (bases, offsets) geometries around the (32,16)
    // default, each against the same baseline.
    {
        SweepSpec spec{"fig15", "IDYLL with different IRMB sizes",
                       "(16,8) +44.8%, default (32,16) +69.9%, (64,16) "
                       "+76.9% in the paper",
                       apps, presets({"baseline"}),
                       {"IDYLL speedup over baseline by IRMB size", {}}};
        const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
            {16, 8}, {16, 16}, {32, 8}, {32, 16}, {64, 16}};
        for (auto [bases, offsets] : sizes) {
            // Appended piecewise: GCC 12 reports a false -Wrestrict on
            // `"(" + std::to_string(...)`.
            std::string label = "(";
            label += std::to_string(bases);
            label += ',';
            label += std::to_string(offsets);
            label += ')';
            spec.points.push_back(
                variant("idyll", label, [=](SystemConfig &cfg) {
                    cfg.irmb.bases = bases;
                    cfg.irmb.offsetsPerBase = offsets;
                }));
            spec.table.columns.push_back(
                speedup(label, spec.points.size() - 1));
        }
        r.push_back(std::move(spec));
    }

    // Fig 16: each walker count against a same-walker-count baseline.
    {
        SweepSpec spec{"fig16", "IDYLL with 16/32 PTW threads",
                       "+60% with 16 threads, +43.3% with 32 (each vs "
                       "same-thread baseline)",
                       apps, {},
                       {"IDYLL speedup vs same-walker-count baseline",
                        {}}};
        const std::uint32_t walkers[] = {8, 16, 32};
        addPairs(spec, {"8w", "16w", "32w"},
                 {"8-walkers", "16-walkers", "32-walkers"},
                 [&](std::size_t i, SystemConfig &cfg) {
                     cfg.gmmu.walkerThreads = walkers[i];
                 });
        r.push_back(std::move(spec));
    }

    // Fig 17: the paper's 2048-entry, 64-way L2 TLB, with sub-entry
    // sharing and L2 dead-entry eviction on top; every column is
    // normalized to the plain 2048-entry baseline.
    {
        const ConfigEdit bigL2 = [](SystemConfig &cfg) {
            cfg.l2Tlb = TlbConfig{2048, 64, 10};
        };
        r.push_back(
            {"fig17", "IDYLL with a 2048-entry L2 TLB",
             "+61.4% average vs 2048-entry baseline; sub-entry sharing "
             "and dead-entry eviction ride on top",
             apps,
             {variant("baseline", "baseline-2048", bigL2),
              variant("idyll", "idyll-2048", bigL2),
              variant("idyll", "idyll-2048-sub4",
                      [&](SystemConfig &cfg) {
                          bigL2(cfg);
                          cfg.l2Tlb.subEntries = 4;
                      }),
              variant("idyll", "idyll-2048-dead",
                      [&](SystemConfig &cfg) {
                          bigL2(cfg);
                          cfg.l2Tlb.deadEntryEviction = true;
                      })},
             {"speedup with 2048-entry L2 TLB",
              speedupsOverFirst({"IDYLL-2048", "IDYLL-sub4",
                                 "IDYLL-dead"})}});
    }

    // Fig 18: inputs stay fixed as GPUs are added (the paper's
    // methodology), so per-CU work scales by 4 / gpus to keep the
    // total bounded; each point is normalized within its GPU count.
    // 32 and 64 GPUs extrapolate past the paper's figure.
    {
        SweepSpec spec{"fig18", "IDYLL with 8 to 64 GPUs",
                       "+75.3% (8 GPUs), +79.1% (16 GPUs); gains grow "
                       "with GPU count, growth slows past it",
                       apps, {},
                       {"IDYLL speedup vs same-GPU-count baseline", {}}};
        const std::uint32_t gpus[] = {4, 8, 16, 32, 64};
        addPairs(
            spec, {"4gpu", "8gpu", "16gpu", "32gpu", "64gpu"},
            {"4-GPU", "8-GPU", "16-GPU", "32-GPU", "64-GPU"},
            [&](std::size_t i, SystemConfig &cfg) {
                cfg.numGpus = gpus[i];
            },
            [&](std::size_t i) { return 4.0 / gpus[i]; });
        r.push_back(std::move(spec));
    }

    // Fig 19: only m = 4 unused PTE bits, so h(gpu) = gpu % 4 aliases
    // GPUs; same work scaling as Fig 18.
    {
        SweepSpec spec{"fig19", "IDYLL with 4 unused PTE bits",
                       "+56.5% (8 GPUs), +57.1% (16), +70.1% (32)", apps, {},
                       {"IDYLL (m=4) speedup vs same-GPU-count baseline",
                        {}}};
        for (std::uint32_t gpus : {8u, 16u, 32u}) {
            const std::string tag = std::to_string(gpus) + "gpu";
            const double work = 4.0 / gpus;
            spec.points.push_back(variant(
                "baseline", "baseline-" + tag,
                [=](SystemConfig &cfg) { cfg.numGpus = gpus; }, work));
            spec.points.push_back(variant(
                "idyll", "idyll-m4-" + tag,
                [=](SystemConfig &cfg) {
                    cfg.numGpus = gpus;
                    cfg.directoryBits = 4;
                },
                work));
            const std::size_t base = spec.points.size() - 2;
            spec.table.columns.push_back(
                speedup(std::to_string(gpus) + "-GPU", base + 1, base));
        }
        r.push_back(std::move(spec));
    }

    // Fig 20: the scaled threshold 8 stands in for the paper's 256,
    // 16 for its 512 (runner.hh).
    {
        const ConfigEdit t512 = [](SystemConfig &cfg) {
            cfg.accessCounterThreshold = kScaledThreshold512;
        };
        r.push_back(
            {"fig20", "access-counter threshold 256 vs 512",
             "IDYLL-512 ~+30% over base-512; base-512 ~0.9x of base-256",
             apps,
             {variant("baseline", "base-256"),
              variant("idyll", "idyll-256"),
              variant("baseline", "base-512", t512),
              variant("idyll", "idyll-512", t512)},
             {"performance relative to baseline-256",
              speedupsOverFirst({"idyll-256", "base-512", "idyll-512"})}});
    }

    // Fig 21: following the paper the inputs are enlarged to keep the
    // VM subsystem stressed: the page count shrinks 8x (not 512x), so
    // the 2 MB run models a 64x larger dataset.
    {
        const ConfigEdit largePages = [](SystemConfig &cfg) {
            cfg.pageBits = 21;
        };
        r.push_back(
            {"fig21", "IDYLL with 2 MB pages",
             "~+36.3% average vs 2 MB baseline; gains drop vs 4 KB but "
             "PR stays high",
             apps,
             {variant("baseline", "baseline-2m", largePages),
              variant("idyll", "idyll-2m", largePages)},
             {"IDYLL speedup with 2 MB pages",
              speedupsOverFirst({"IDYLL-2MB"})},
             [](AppParams params) {
                 params.footprintPages =
                     std::max<std::uint64_t>(params.footprintPages / 8,
                                             256);
                 params.hotPages = std::max<std::uint64_t>(
                     params.hotPages / 8, params.hotPages ? 8 : 0);
                 return params;
             }});
    }

    r.push_back(
        {"fig22", "IDYLL vs page replication",
         "~+25% average; biggest wins on write-intensive IM and C2D",
         apps, presets({"replication", "idyll"}),
         {"IDYLL speedup over page replication",
          {speedup("IDYLL/replication", 1),
           field("repl-collapses", 0, &SimResults::migrations)}}});

    // Fig 23: Trans-FW's PRT is scaled to IDYLL's 720-byte budget.
    r.push_back(
        {"fig23", "Trans-FW vs IDYLL vs combination",
         "Trans-FW ~+30% < IDYLL ~+69.9% < combo ~+86.3%", apps,
         presets({"baseline", "transfw", "idyll", "idyll+transfw"}),
         {"speedup over baseline",
          speedupsOverFirst({"Trans-FW", "IDYLL", "IDYLL+Trans-FW"})}});

    r.push_back(
        {"fig24", "IDYLL on DNN workloads", "VGG16 +15.9%, ResNet18 +12.0%",
         Workload::dnnNames(), presets({"baseline", "idyll"}),
         {"IDYLL speedup over baseline",
          {speedup("IDYLL", 1),
           field("migrations", 0, &SimResults::migrations),
           column("inval-share-%", 0,
                  [](const SimResults &res) {
                      return 100.0 * res.invalWalkShare();
                  })},
          false}});

    // Table 3; each app's sharing pattern is listed by
    // `idyll_sim --list-apps`.
    r.push_back(
        {"table3", "application suite and L2 TLB MPKI",
         "MPKI: MT 185.5 > PR 78.2 > KM 50.7 > ST 36.2 > C2D 21.4 > IM "
         "18.3 > SC 15.8 > MM 11.2 > BS 3.4",
         apps, presets({"baseline"}),
         {"Table 3 (measured on this simulator)",
          {field("measured-MPKI", 0, &SimResults::mpki),
           column("paper-MPKI", 0,
                  [](const SimResults &res) {
                      return Workload::byName(res.app).params().mpkiHint;
                  })},
          false, 2}});

    // Ablation: batching (one walk per merged entry vs one per PTE)
    // and idle drain (retire entries when the walker idles vs only on
    // capacity evictions).
    r.push_back(
        {"ablation-irmb-policy", "IRMB write-back policy decomposition",
         "full IDYLL >= no-idle-drain >= unbatched >= baseline", apps,
         {preset("baseline"), preset("idyll"),
          variant("idyll", "no-batch",
                  [](SystemConfig &cfg) {
                      cfg.irmb.batchedWriteback = false;
                  }),
          variant("idyll", "no-idle-drain",
                  [](SystemConfig &cfg) { cfg.irmb.idleDrain = false; }),
          variant("idyll", "neither",
                  [](SystemConfig &cfg) {
                      cfg.irmb.batchedWriteback = false;
                      cfg.irmb.idleDrain = false;
                  })},
         {"speedup over baseline",
          speedupsOverFirst({"IDYLL", "no-batch", "no-idle-drain",
                             "neither"})}});

    // Ablation: the split per-level MMU caches from starved to
    // generous; the last point keeps the default geometry with
    // dead-entry eviction, isolating policy from capacity.
    {
        SweepSpec spec{"ablation-mmu-cache",
                       "MMU-cache geometry (small / default / large / "
                       "default+dead-evict)",
                       "IDYLL's edge shrinks slowly with MMU-cache size: "
                       "the queue/walker contention it removes remains",
                       apps, {},
                       {"IDYLL speedup vs same-geometry baseline", {}}};
        const std::vector<MmuCacheLevelConfig> small = {
            {16, 4}, {8, 4}, {4, 4}, {4, 4}};
        const std::vector<MmuCacheLevelConfig> standard = {
            {64, 8}, {32, 4}, {16, 4}, {8, 4}};
        const std::vector<MmuCacheLevelConfig> large = {
            {256, 8}, {128, 8}, {64, 4}, {32, 4}};
        const std::vector<MmuCacheLevelConfig> *levels[] = {
            &small, &standard, &large, &standard};
        const std::vector<std::string> names = {
            "mmu-small", "mmu-default", "mmu-large", "mmu-dead"};
        addPairs(spec, names, names, [&](std::size_t i, SystemConfig &cfg) {
            cfg.gmmu.mmuCache = *levels[i];
            cfg.gmmu.deadEntryEviction = i == 3;
        });
        r.push_back(std::move(spec));
    }

    // Ablation: m usable directory bits on 16 GPUs (the full Fig 19
    // curve); m = 1 degenerates to broadcast-to-every-past-toucher.
    // 16 GPUs carry 4x the CUs, so every point runs at 0.25 work.
    {
        const ConfigEdit sixteenGpus = [](SystemConfig &cfg) {
            cfg.numGpus = 16;
        };
        SweepSpec spec{"ablation-dir-bits",
                       "directory bits m in {1,2,4,8,11}, 16 GPUs",
                       "filtering (and the Only-Dir share of IDYLL's win) "
                       "grows monotonically with m",
                       apps,
                       {variant("baseline", "baseline-16gpu", sixteenGpus,
                                0.25)},
                       {"IDYLL speedup vs 16-GPU baseline", {}}};
        for (std::uint32_t m : {1u, 2u, 4u, 8u, 11u}) {
            const std::string label = "m=" + std::to_string(m);
            spec.points.push_back(variant(
                "idyll", "idyll-" + label,
                [&](SystemConfig &cfg) {
                    sixteenGpus(cfg);
                    cfg.directoryBits = m;
                },
                0.25));
            spec.table.columns.push_back(
                speedup(label, spec.points.size() - 1));
        }
        spec.table.columns.push_back(
            {"filtered-%(m=11)", [](const Row &row) {
                 const SimResults &base = row.front();
                 return base.invalSent > 0
                            ? 100.0 * (1.0 - static_cast<double>(
                                                 row.back().invalSent) /
                                                 static_cast<double>(
                                                     base.invalSent))
                            : 0.0;
             }});
        r.push_back(std::move(spec));
    }

    for (SweepSpec &spec : r)
        for (const SchemePoint &point : spec.points)
            spec.schemes.push_back(point.label);
    return r;
}

} // namespace

const std::vector<SweepSpec> &
allSweeps()
{
    static const std::vector<SweepSpec> registry = makeRegistry();
    return registry;
}

std::vector<std::string>
sweepNames()
{
    std::vector<std::string> names;
    names.reserve(allSweeps().size());
    for (const SweepSpec &spec : allSweeps())
        names.push_back(spec.name);
    return names;
}

std::optional<SweepSpec>
sweepByName(const std::string &name)
{
    for (const SweepSpec &spec : allSweeps())
        if (spec.name == name)
            return spec;
    return std::nullopt;
}

void
printSweepTable(std::ostream &os, const SweepSpec &spec,
                const std::vector<std::vector<SimResults>> &grid)
{
    os << "==============================================\n"
       << spec.name << ": " << spec.description << "\n"
       << "paper expectation: " << spec.expectation << "\n"
       << "==============================================\n";

    std::vector<std::string> labels;
    for (const SweepColumn &column : spec.table.columns)
        labels.push_back(column.label);
    ResultTable table(spec.table.title, labels);
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
        Row row;
        for (const auto &point : grid)
            row.push_back(point[a]);
        std::vector<double> values;
        for (const SweepColumn &column : spec.table.columns)
            values.push_back(column.value(row));
        table.addRow(spec.apps[a], std::move(values));
    }
    if (spec.table.average)
        table.addAverageRow();
    table.print(os, spec.table.precision);
}

} // namespace idyll
