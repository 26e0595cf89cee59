/**
 * @file
 * Simulator benchmark program: runs one named workload for a fixed
 * wall-clock budget in one process on one thread, and writes every
 * measurement as one JSON document (see README.md for the schema and
 * run.py for the metrics derived from it).
 *
 *   simbench --workload fig12|paper16x48|sparse|explore_sc
 *            --seed N --seconds S --trace 0|1
 *            --out FILE --store-dir DIR
 *
 * A simulation cell is composed from the same public calls
 * harness::runOne makes (protocol factory, workload factory, GpuSystem
 * constructor and run, energy model, Workload::verify), each timed
 * from outside the simulator. One pass runs every cell of the
 * workload; passes repeat until the budget is spent. With --trace 1
 * passes alternate untraced and traced, and traced passes record
 * spans (trace.hh) around those calls and through the checker and
 * workload wrappers.
 *
 * Correctness checks (each failure is counted and reported): zero
 * checker violations, Workload::verify, bit-identical result-store
 * read-back (fig12), complete exploration with no witness
 * (explore_sc), and one cell per workload compared against
 * harness::runOne itself.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "gpu/gpu_system.hh"
#include "harness/checker.hh"
#include "harness/runner.hh"
#include "protocols/builders.hh"
#include "serve/result_codec.hh"
#include "serve/result_store.hh"
#include "serve/sha256.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "trace.hh"
#include "verify/explorer.hh"
#include "verify/model.hh"
#include "workloads/registry.hh"

namespace gtsc::simbench
{
namespace
{

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/**
 * Host-speed probe: a fixed, branchy integer kernel over a 256 KiB
 * table (the simulator's kind of work, none of its code). The host
 * this benchmark was tuned on drifts in speed by 20-40% over phases of
 * seconds; probes run between cells sample that speed, and pass time
 * divided by the pass's median probe time is what is gated. Returns
 * its seconds.
 */
double
hostProbe()
{
    static std::vector<std::uint32_t> table;
    if (table.empty()) {
        table.resize(1u << 16);
        std::uint32_t x = 12345;
        for (std::uint32_t &v : table) {
            x = x * 1664525u + 1013904223u;
            v = x;
        }
    }
    const std::int64_t t0 = nowNs();
    std::uint32_t x = 777;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < (1u << 19); ++i) {
        x = x * 1664525u + 1013904223u;
        const std::uint32_t v = table[x >> 16];
        if (v & 1)
            acc += v;
        else
            acc ^= static_cast<std::uint64_t>(v) << 3;
        table[(x >> 8) & 0xffff] = v + i;
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    return secondsSince(t0);
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct CellSpec
{
    std::string protocol;
    std::string consistency;
    std::string workload;
    sim::Config config; ///< base config; runOne sets gpu.consistency

    std::string
    label() const
    {
        return workload + "/" + protocol + "-" + consistency;
    }
};

struct BenchSpec
{
    std::vector<CellSpec> cells;
    bool explore = false;
    bool useStore = false;
    sim::Config exploreConfig;
};

/** The figure harnesses' default machine (bench/bench_common.hh). */
sim::Config
harnessConfig(std::uint64_t seed)
{
    sim::Config cfg = harness::benchConfig();
    cfg.setInt("gpu.num_sms", 8);
    cfg.setInt("gpu.warps_per_sm", 12);
    cfg.setInt("gpu.num_partitions", 4);
    cfg.setBool("check.enabled", false);
    cfg.setInt("wl.seed", static_cast<std::int64_t>(seed));
    return cfg;
}

bool
makeWorkloadSpec(const std::string &name, std::uint64_t seed,
                 BenchSpec *out)
{
    if (name == "fig12") {
        const sim::Config cfg = harnessConfig(seed);
        const std::vector<std::pair<std::string, std::string>> cols = {
            {"tc", "sc"}, {"tc", "rc"}, {"gtsc", "sc"}, {"gtsc", "rc"}};
        for (const std::string &w : workloads::allBenchmarks())
            for (const auto &c : cols)
                out->cells.push_back({c.first, c.second, w, cfg});
        out->useStore = true;
        return true;
    }
    if (name == "paper16x48") {
        // The paper machine with the online checker on, as gtsc-sim
        // runs it.
        sim::Config cfg = harness::paperConfig();
        cfg.setInt("wl.seed", static_cast<std::int64_t>(seed));
        for (const char *w : {"cc", "bfs"})
            for (const char *p : {"gtsc", "tc"})
                out->cells.push_back({p, "rc", w, cfg});
        return true;
    }
    if (name == "sparse") {
        sim::Config cfg = harnessConfig(seed);
        cfg.setInt("gpu.warps_per_sm", 1);
        cfg.setDouble("wl.scale", 256.0);
        for (const char *w : {"ccp", "bfs", "ge"})
            out->cells.push_back({"gtsc", "rc", w, cfg});
        return true;
    }
    if (name == "explore_sc") {
        // gtsc_verify --explore defaults: 2 SMs x 2 lines, SC. The
        // exploration is exhaustive, so the seed does not enter it.
        out->explore = true;
        out->exploreConfig = harness::benchConfig();
        return true;
    }
    return false;
}

/** Per-pass sums of the exact work counts, by metric-style key. */
using Counts = std::map<std::string, double>;

/** One composed cell: its result and host times. */
struct CellRun
{
    harness::RunResult result;
    double secs = 0.0;
    double setupSecs = 0.0;
};

/**
 * What a pass keeps of a cell. Results themselves are dropped after
 * the pass, so peak RSS measures the simulator, not the pass history.
 */
struct CellOut
{
    double secs = 0.0;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::string digest;
};

struct PassOut
{
    bool traced = false;
    double wallSecs = 0.0;
    double setupSecs = 0.0;
    std::vector<double> probes; ///< hostProbe() samples, seconds
    std::vector<std::string> labels;
    std::vector<CellOut> cells;
    Counts counts;
    std::unique_ptr<Tracer> tracer;
    std::int64_t startNs = 0;
};

/**
 * Attempted units (cell runs, explorations, the runOne comparison)
 * and the reasons each failed one failed.
 */
struct RunState
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    unit(const std::vector<std::string> &problems)
    {
        ++attempted;
        if (!problems.empty())
            ++failed;
        failures.insert(failures.end(), problems.begin(), problems.end());
    }
};

/**
 * One cell, composed exactly as harness::runOne composes it (same
 * calls, same order, same RunResult fields), with each call timed.
 */
CellRun
runCell(const CellSpec &spec, Tracer *t)
{
    CellRun out;
    const std::int64_t t0 = nowNs();
    sim::Config cfg = spec.config;
    cfg.set("gpu.consistency", spec.consistency);

    std::unique_ptr<gpu::ProtocolBuilder> builder;
    {
        ScopedSpan s(t, "protocols.makeProtocol");
        builder = protocols::makeProtocol(spec.protocol);
    }
    std::unique_ptr<gpu::Workload> wl;
    {
        ScopedSpan s(t, "workloads.makeWorkload");
        wl = workloads::makeWorkload(spec.workload, cfg);
    }

    const bool check = cfg.getBool("check.enabled", true);
    harness::CoherenceChecker checker;
    std::unique_ptr<TracedProbe> tprobe;
    std::unique_ptr<TracedWorkload> twl;
    mem::CoherenceProbe *probe = check ? &checker : nullptr;
    gpu::Workload *sysWl = wl.get();
    if (t) {
        if (check) {
            tprobe = std::make_unique<TracedProbe>(checker, *t);
            probe = tprobe.get();
        }
        twl = std::make_unique<TracedWorkload>(*wl, *t);
        sysWl = twl.get();
    }

    std::unique_ptr<gpu::GpuSystem> system;
    {
        ScopedSpan s(t, "gpu.construct");
        system = std::make_unique<gpu::GpuSystem>(cfg, *builder, *sysWl,
                                                  probe);
    }
    if (check) {
        system->setKernelStartHook(
            [&checker](const mem::MainMemory &memory, unsigned kernel) {
                (void)kernel;
                checker.snapshotBase(memory);
            });
    }
    out.setupSecs = secondsSince(t0);

    harness::RunResult &r = out.result;
    r.workload = wl->name();
    r.protocol = spec.protocol;
    r.consistency = spec.consistency;
    {
        ScopedSpan s(t, "gpu.run");
        r.cycles = system->run();
    }

    const sim::StatSet &st = system->stats();
    r.instructions = st.get("sm.instructions");
    r.memStallCycles = st.get("sm.mem_stall_cycles");
    r.activeCycles = st.get("sm.active_cycles");
    r.nocBytes = st.get("noc.req.bytes") + st.get("noc.resp.bytes");
    r.nocPackets = st.get("noc.req.packets") + st.get("noc.resp.packets");
    {
        sim::Distribution d = st.getDistribution("noc.req.latency");
        d.merge(st.getDistribution("noc.resp.latency"));
        r.avgNocLatency = d.mean();
        r.nocLatencyStddev = d.stddev();
        r.nocLatencyP50 = d.p50();
        r.nocLatencyP99 = d.p99();
    }
    r.l1Hits = st.get("l1.hits");
    r.l1MissCold = st.get("l1.miss_cold");
    r.l1MissExpired = st.get("l1.miss_expired");
    r.renewalsSent = st.get("l1.renewals_sent");
    r.l2Accesses = st.get("l2.accesses");
    r.dramAccesses = st.get("dram.reads") + st.get("dram.writes");
    r.tsResets = st.get("gtsc.ts_resets");
    r.spinRetries = st.get("sm.spin_retries");
    r.spinGiveups = st.get("sm.spin_giveups");
    {
        ScopedSpan s(t, "energy.compute");
        energy::EnergyModel em(cfg);
        r.energy = em.compute(st, spec.protocol, system->params().numSms);
    }
    if (check) {
        r.checkerViolations = checker.violations();
        r.loadsChecked = checker.loadsChecked();
    }
    {
        ScopedSpan s(t, "harness.verify");
        r.verified = wl->verify(system->memory());
    }
    r.fastForwarded = system->fastForwardedCycles();
    r.shards = system->shards();
    const gpu::GpuSystem::ActivityFractions act = system->activity();
    r.activitySm = act.sm;
    r.activityL1 = act.l1;
    r.activityL2 = act.l2;
    r.activityNoc = act.noc;
    r.activityDram = act.dram;
    r.issueSlotsUsed = system->issueSlotsUsed();
    r.smTicksExecuted = system->smTicksExecuted();
    r.nocTicksExecuted = system->nocTicksExecuted();
    r.stats = st;
    out.secs = secondsSince(t0);
    return out;
}

void
addCellCounts(const harness::RunResult &r, Counts &c,
              sim::Distribution &nocLatency)
{
    const sim::StatSet &s = r.stats;
    const double cyc = static_cast<double>(r.cycles);
    c["gpu.sim_cycles"] += cyc;
    c["gpu.instructions"] += static_cast<double>(r.instructions);
    c["gpu.mem_stall_cycles"] += static_cast<double>(r.memStallCycles);
    c["gpu.sm_ticks"] += static_cast<double>(r.smTicksExecuted);
    c["gpu.issue_slots_used"] += static_cast<double>(r.issueSlotsUsed);
    c["gpu.ff_cycles"] += static_cast<double>(r.fastForwarded);
    // Cycle-weighted, so the pass figure is the share of all
    // component-cycles that were ticked.
    c["gpu.activity_sm_cycles"] += r.activitySm * cyc;
    c["gpu.activity_l1_cycles"] += r.activityL1 * cyc;
    c["gpu.activity_l2_cycles"] += r.activityL2 * cyc;
    c["gpu.activity_noc_cycles"] += r.activityNoc * cyc;
    c["gpu.activity_dram_cycles"] += r.activityDram * cyc;

    // The G-TSC controllers live in core/, the TC baseline in
    // protocols/.
    const std::string layer = r.protocol == "gtsc" ? "core." : "protocols.";
    c[layer + "l1_tag_accesses"] +=
        static_cast<double>(s.get("l1.tag_accesses"));
    c[layer + "l1_rejects_mshr_full"] +=
        static_cast<double>(s.get("l1.rejects_mshr_full"));
    c[layer + "l1_wb_full_rejects"] +=
        static_cast<double>(s.get("l1.wb_full_rejects"));
    c[layer + "l2_accesses"] += static_cast<double>(s.get("l2.accesses"));
    c[layer + "l2_stall_mshr_full"] +=
        static_cast<double>(s.get("l2.stall_mshr_full"));
    if (r.protocol == "gtsc") {
        c["core.l1_renewals_sent"] +=
            static_cast<double>(s.get("l1.renewals_sent"));
        c["core.l1_miss_expired"] +=
            static_cast<double>(s.get("l1.miss_expired"));
        c["core.ts_resets"] += static_cast<double>(s.get("gtsc.ts_resets"));
    }

    c["noc.packets"] += static_cast<double>(r.nocPackets);
    c["noc.bytes"] += static_cast<double>(r.nocBytes);
    c["noc.ticks"] += static_cast<double>(r.nocTicksExecuted);
    nocLatency.merge(s.getDistribution("noc.req.latency"));
    nocLatency.merge(s.getDistribution("noc.resp.latency"));
    c["mem.dram_accesses"] += static_cast<double>(r.dramAccesses);
    c["harness.loads_checked"] += static_cast<double>(r.loadsChecked);
}

/**
 * One pass over the workload's cells. When `lastEncoded` is given, it
 * receives the encoded result of the last cell (for the runOne check).
 */
/** Time `n` host probes into the pass. */
void
sampleHost(PassOut &p, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        p.probes.push_back(hostProbe());
}

void
runSimPass(const BenchSpec &w, PassOut &p, const std::string &storeDir,
           RunState &rs, std::string *lastEncoded)
{
    Tracer *t = p.tracer.get();
    std::unique_ptr<serve::ResultStore> store;
    std::vector<harness::RunSpec> specs;
    if (w.useStore) {
        serve::ResultStore::Options o;
        o.root = storeDir; // emptied after every pass
        store = std::make_unique<serve::ResultStore>(o);
    }

    sim::Distribution nocLatency;
    std::vector<std::string> encoded;
    std::vector<std::vector<std::string>> problems(w.cells.size());
    // At least 16 probes per pass, spread over its cells.
    const unsigned probesPerCell =
        static_cast<unsigned>((16 + w.cells.size() - 1) / w.cells.size());
    for (const CellSpec &spec : w.cells) {
        std::vector<std::string> &bad = problems[specs.size()];
        harness::RunSpec rspec;
        rspec.config = spec.config;
        rspec.protocol = spec.protocol;
        rspec.consistency = spec.consistency;
        rspec.workload = spec.workload;
        if (store) {
            harness::RunResult cached;
            bool hit;
            {
                ScopedSpan s(t, "serve.lookup");
                hit = store->lookup(rspec, &cached);
            }
            if (hit)
                bad.push_back(spec.label() +
                              ": fresh result store returned a hit");
        }
        sampleHost(p, probesPerCell);
        const CellRun cell = runCell(spec, t);
        const harness::RunResult &r = cell.result;
        if (r.checkerViolations != 0)
            bad.push_back(spec.label() + ": " +
                          std::to_string(r.checkerViolations) +
                          " coherence checker violations");
        if (!r.verified)
            bad.push_back(spec.label() + ": Workload::verify failed");
        if (store) {
            ScopedSpan s(t, "serve.insert");
            store->insert(rspec, r);
        }
        addCellCounts(r, p.counts, nocLatency);
        p.setupSecs += cell.setupSecs;
        p.labels.push_back(spec.label());
        p.cells.push_back(CellOut{
            cell.secs, r.cycles, r.instructions,
            serve::Sha256::hexDigest(r.stats.toString()).substr(0, 16)});
        encoded.push_back(serve::encodeResult(r));
        specs.push_back(std::move(rspec));
    }
    p.counts["noc.latency_p99"] = nocLatency.p99();
    if (lastEncoded)
        *lastEncoded = encoded.back();

    if (store) {
        p.counts["serve.bytes_written"] =
            static_cast<double>(store->diskBytes());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            harness::RunResult back;
            bool hit;
            {
                ScopedSpan s(t, "serve.readback");
                hit = store->lookup(specs[i], &back);
            }
            if (!hit)
                problems[i].push_back(p.labels[i] +
                                      ": warm read-back missed");
            else if (serve::encodeResult(back) != encoded[i])
                problems[i].push_back(p.labels[i] +
                                      ": warm read-back differs from the "
                                      "cold result");
        }
    }
    for (const auto &bad : problems)
        rs.unit(bad);
}

void
runExplorePass(const BenchSpec &w, PassOut &p, RunState &rs)
{
    Tracer *t = p.tracer.get();
    // Set-up of the verify layer: the model the explorer builds first.
    // It takes microseconds, so the pass reports the median of many.
    std::vector<double> setups;
    for (int i = 0; i < 25; ++i) {
        const std::int64_t s0 = nowNs();
        {
            ScopedSpan s(t, "verify.setup");
            verify::ModelSim model(w.exploreConfig);
            (void)model.init();
        }
        setups.push_back(secondsSince(s0));
    }
    p.setupSecs = median(setups);

    // One exploration cannot be interleaved with probes, so sample the
    // host on both sides of it.
    sampleHost(p, 8);
    verify::ExploreResult res;
    const std::int64_t e0 = nowNs();
    {
        ScopedSpan s(t, "verify.explore");
        res = verify::explore(w.exploreConfig);
    }
    const double secs = secondsSince(e0);
    sampleHost(p, 8);
    const verify::ExploreStats &st = res.stats;
    std::vector<std::string> bad;
    if (!st.complete)
        bad.push_back("explore_sc: enumeration incomplete");
    if (!res.ok())
        bad.push_back("explore_sc: " +
                      std::to_string(res.witnesses.size()) +
                      " invariant witnesses");
    rs.unit(bad);
    p.counts["verify.states"] = static_cast<double>(st.statesVisited);
    p.counts["verify.transitions"] = static_cast<double>(st.transitions);
    p.counts["verify.deduped"] = static_cast<double>(st.deduped);
    p.counts["verify.terminals"] = static_cast<double>(st.terminals);
    p.counts["verify.max_depth"] = static_cast<double>(st.maxDepth);
    CellOut cell;
    cell.secs = secs;
    std::ostringstream key;
    key << st.statesVisited << ' ' << st.transitions << ' ' << st.deduped
        << ' ' << st.terminals << ' ' << st.maxDepth;
    cell.digest = serve::Sha256::hexDigest(key.str()).substr(0, 16);
    p.labels.push_back("explore/gtsc-sc");
    p.cells.push_back(std::move(cell));
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            o += '\\';
            o += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            o += buf;
        } else {
            o += ch;
        }
    }
    return o + "\"";
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writePass(std::ostream &os, const PassOut &p)
{
    os << "{\"traced\": " << (p.traced ? "true" : "false")
       << ", \"wall_s\": " << num(p.wallSecs)

       << ", \"setup_s\": " << num(p.setupSecs)
       << ", \"probe_s\": " << num(median(p.probes))
       << ", \"cells\": [";
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
        const CellOut &c = p.cells[i];
        os << (i ? ", " : "") << "{\"label\": " << jsonString(p.labels[i])
           << ", \"secs\": " << num(c.secs)
           << ", \"cycles\": " << c.cycles
           << ", \"instructions\": " << c.instructions
           << ", \"digest\": " << jsonString(c.digest) << "}";
    }
    os << "], \"counts\": {";
    bool first = true;
    for (const auto &kv : p.counts) {
        os << (first ? "" : ", ") << jsonString(kv.first) << ": "
           << num(kv.second);
        first = false;
    }
    os << "}, \"spans\": [";
    if (p.tracer) {
        const auto &spans = p.tracer->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Tracer::Span &s = spans[i];
            os << (i ? ", " : "") << "[" << jsonString(s.name) << ", "
               << s.parent << ", " << (s.startNs - p.startNs) << ", "
               << (s.endNs - p.startNs) << "]";
        }
    }
    os << "], \"leaves\": [";
    if (p.tracer) {
        const auto &leaves = p.tracer->leaves();
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            const Tracer::Leaf &l = leaves[i];
            os << (i ? ", " : "") << "[" << jsonString(l.name) << ", "
               << l.parent << ", " << l.count << ", " << l.totalNs << "]";
        }
    }
    os << "]}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE --store-dir DIR\n");
    return 2;
}

} // namespace
} // namespace gtsc::simbench

int
main(int argc, char **argv)
{
    using namespace gtsc;
    using namespace gtsc::simbench;

    std::string workload, out, storeDir;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            trace = v == "1";
        else if (k == "--out")
            out = v;
        else if (k == "--store-dir")
            storeDir = v;
        else
            return usage();
    }
    BenchSpec w;
    if (argc % 2 == 0 || out.empty() || storeDir.empty() ||
        !makeWorkloadSpec(workload, seed, &w))
        return usage();

    RunState rs;
    std::vector<PassOut> passes;
    std::string firstLast; ///< pass 0's last cell, encoded
    const std::int64_t start = nowNs();
    // At least two passes, so repeatability is always checked (and a
    // traced run always has an untraced pass to compare against).
    while (passes.size() < 2 || secondsSince(start) < seconds) {
        PassOut p;
        p.traced = trace && passes.size() % 2 == 1;
        if (p.traced)
            p.tracer = std::make_unique<Tracer>();
        p.startNs = nowNs();
        {
            ScopedSpan s(p.tracer.get(), "pass");
            if (w.explore)
                runExplorePass(w, p, rs);
            else
                runSimPass(w, p, storeDir, rs,
                           passes.empty() ? &firstLast : nullptr);
        }
        double probed = 0.0;
        for (double x : p.probes)
            probed += x;
        p.wallSecs = secondsSince(p.startNs) - probed;
        passes.push_back(std::move(p));
        std::filesystem::remove_all(storeDir);
    }

    // The benchmark's composition must be exactly harness::runOne
    // (checked on the last, cheapest cell of each workload).
    std::string composed;
    if (!w.cells.empty()) {
        const CellSpec &c = w.cells.back();
        harness::RunResult ref = harness::runOne(c.config, c.protocol,
                                                 c.consistency, c.workload);
        composed = c.label();
        std::vector<std::string> bad;
        if (serve::encodeResult(ref) != firstLast)
            bad.push_back(c.label() + ": benchmark composition differs "
                                      "from harness::runOne");
        rs.unit(bad);
    }

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);

    std::ofstream os(out);
    os << "{\"workload\": " << jsonString(workload) << ", \"seed\": " << seed
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"peak_rss_kb\": " << ru.ru_maxrss
       << ", \"composition_cell\": " << jsonString(composed)
       << ", \"attempted\": " << rs.attempted
       << ", \"failed\": " << rs.failed << ", \"failures\": [";
    for (std::size_t i = 0; i < rs.failures.size(); ++i)
        os << (i ? ", " : "") << jsonString(rs.failures[i]);
    os << "], \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        os << (i ? ",\n" : "\n");
        writePass(os, passes[i]);
    }
    os << "]}\n";
    os.close();
    if (!os) {
        std::fprintf(stderr, "simbench: cannot write %s\n", out.c_str());
        return 1;
    }
    return 0;
}
