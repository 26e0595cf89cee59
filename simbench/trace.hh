/**
 * @file
 * In-memory span recorder for the traced benchmark run, plus the two
 * forwarding wrappers that exist only in that run.
 *
 * Spans are recorded around the public calls the benchmark makes into
 * each simulator layer (protocol factory, workload factory, GpuSystem
 * construction and run, energy model, Workload::verify, result store,
 * explorer). Each has a name, start, end and parent. They are kept in
 * memory and written out when the run ends.
 *
 * Calls made from inside GpuSystem::run() through the two wrappers
 * (coherence-probe callbacks, makeProgram and WarpProgram::next) run
 * millions of times per pass. Keeping each one as a span would cost
 * more memory than the simulation, so they are folded at record time
 * into one "leaf" record per (name, parent span): call count and
 * summed duration. They run on the one simulation thread and never
 * nest inside each other, so the summed duration is exactly the time
 * they cover inside the parent.
 */

#ifndef GTSC_SIMBENCH_TRACE_HH_
#define GTSC_SIMBENCH_TRACE_HH_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpu/kernel.hh"
#include "mem/coherence_probe.hh"

namespace gtsc::simbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent; ///< index into spans(), -1 for a root
        std::int64_t startNs;
        std::int64_t endNs;
    };

    struct Leaf
    {
        std::string name;
        int parent;
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
    };

    /** Leaf kinds recorded by the wrappers. */
    enum LeafKind : unsigned
    {
        kChecker,
        kMakeProgram,
        kNext,
        kNumLeafKinds
    };

    /** Open a span under the innermost open one. */
    int
    begin(const char *name)
    {
        int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(Span{name, parent, nowNs(), 0});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        spans_[static_cast<std::size_t>(id)].endNs = nowNs();
        open_.pop_back();
    }

    /** Fold one wrapped call into the leaf record of the open span. */
    void
    leaf(LeafKind kind, std::int64_t start_ns, std::int64_t end_ns)
    {
        int parent = open_.empty() ? -1 : open_.back();
        int &slot = current_[kind];
        if (slot < 0 ||
            leaves_[static_cast<std::size_t>(slot)].parent != parent) {
            leaves_.push_back(Leaf{leafName(kind), parent});
            slot = static_cast<int>(leaves_.size()) - 1;
        }
        Leaf &l = leaves_[static_cast<std::size_t>(slot)];
        ++l.count;
        l.totalNs += end_ns - start_ns;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Leaf> &leaves() const { return leaves_; }

    static const char *
    leafName(LeafKind kind)
    {
        switch (kind) {
          case kChecker:
            return "harness.checker";
          case kMakeProgram:
            return "workloads.makeProgram";
          default:
            return "workloads.next";
        }
    }

  private:
    std::vector<Span> spans_;
    std::vector<Leaf> leaves_;
    std::vector<int> open_;
    /** Index of the leaf record each kind is filling, -1 = none. */
    int current_[kNumLeafKinds] = {-1, -1, -1};
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name)
        : t_(t), id_(t ? t->begin(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (t_)
            t_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t_;
    int id_;
};

/** Forwards every probe callback to the checker, timing each one. */
class TracedProbe final : public mem::CoherenceProbe
{
  public:
    TracedProbe(mem::CoherenceProbe &inner, Tracer &t)
        : inner_(inner), t_(t)
    {}

    void
    onStoreTs(Addr a, std::uint32_t epoch, Ts wts, std::uint32_t v,
              SmId sm, WarpId warp) override
    {
        std::int64_t s = nowNs();
        inner_.onStoreTs(a, epoch, wts, v, sm, warp);
        t_.leaf(Tracer::kChecker, s, nowNs());
    }

    void
    onLoadTs(Addr a, std::uint32_t epoch, Ts ts, std::uint32_t v,
             SmId sm, WarpId warp) override
    {
        std::int64_t s = nowNs();
        inner_.onLoadTs(a, epoch, ts, v, sm, warp);
        t_.leaf(Tracer::kChecker, s, nowNs());
    }

    void
    onStorePhys(Addr a, Cycle when, std::uint32_t v, SmId sm,
                WarpId warp) override
    {
        std::int64_t s = nowNs();
        inner_.onStorePhys(a, when, v, sm, warp);
        t_.leaf(Tracer::kChecker, s, nowNs());
    }

    void
    onLoadPhys(Addr a, Cycle grant, Cycle when, std::uint32_t v, SmId sm,
               WarpId warp) override
    {
        std::int64_t s = nowNs();
        inner_.onLoadPhys(a, grant, when, v, sm, warp);
        t_.leaf(Tracer::kChecker, s, nowNs());
    }

    void
    onEpochReset(std::uint32_t new_epoch) override
    {
        std::int64_t s = nowNs();
        inner_.onEpochReset(new_epoch);
        t_.leaf(Tracer::kChecker, s, nowNs());
    }

  private:
    mem::CoherenceProbe &inner_;
    Tracer &t_;
};

/** Times WarpProgram::next of the wrapped program. */
class TracedProgram final : public gpu::WarpProgram
{
  public:
    TracedProgram(std::unique_ptr<gpu::WarpProgram> inner, Tracer &t)
        : inner_(std::move(inner)), t_(t)
    {}

    gpu::WarpInstr
    next() override
    {
        std::int64_t s = nowNs();
        gpu::WarpInstr i = inner_->next();
        t_.leaf(Tracer::kNext, s, nowNs());
        return i;
    }

    void observe(std::uint32_t value) override { inner_->observe(value); }

  private:
    std::unique_ptr<gpu::WarpProgram> inner_;
    Tracer &t_;
};

/** Forwards to a workload, timing makeProgram and wrapping programs. */
class TracedWorkload final : public gpu::Workload
{
  public:
    TracedWorkload(gpu::Workload &inner, Tracer &t) : inner_(inner), t_(t)
    {}

    std::string name() const override { return inner_.name(); }
    bool
    requiresCoherence() const override
    {
        return inner_.requiresCoherence();
    }
    unsigned numKernels() const override { return inner_.numKernels(); }

    void
    initMemory(mem::MainMemory &memory, unsigned kernel) override
    {
        inner_.initMemory(memory, kernel);
    }

    std::unique_ptr<gpu::WarpProgram>
    makeProgram(unsigned kernel, SmId sm, WarpId warp,
                const gpu::GpuParams &params) override
    {
        std::int64_t s = nowNs();
        auto p = inner_.makeProgram(kernel, sm, warp, params);
        t_.leaf(Tracer::kMakeProgram, s, nowNs());
        return std::make_unique<TracedProgram>(std::move(p), t_);
    }

    bool
    verify(const mem::MainMemory &memory) const override
    {
        return inner_.verify(memory);
    }

  private:
    gpu::Workload &inner_;
    Tracer &t_;
};

} // namespace gtsc::simbench

#endif // GTSC_SIMBENCH_TRACE_HH_
