#include "timing_tables.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/fastmodel.hh"
#include "common/log.hh"
#include "common/profiler.hh"
#include "common/thread_pool.hh"

namespace ladder
{

namespace
{

/** Sets a model's latency law, solving on the model's circuit. */
using Calibration =
    std::function<void(TimingModel &, const SneakPathModel &)>;

/**
 * The one table builder behind generate() and generateDerived(): the
 * law from @p calibrate, then the LADDER, BLP, location and power
 * tables.
 *
 * The table solves run in parallel without changing a bit of the
 * result. The public builders run twice: first against an evaluator
 * that only records the operating points they request, then, once a
 * local pool has solved each distinct point once, against one that
 * looks every request's result up by its point. Each solve is a pure
 * function of (params, condition), so solving a repeated corner once
 * changes no result, and the tables equal a serial build's at any
 * worker count. Each distinct point is counted into model.solver
 * once. The pool is this call's own, never a caller's, so a build may
 * run on a sweep worker while other workers build other models.
 */
TimingModel
buildModel(const CrossbarParams &params, unsigned granularity,
           const Calibration &calibrate)
{
    PROF_SCOPE("timing_table_build");
    TimingModel model;
    model.params = params;
    SneakPathModel fast(params);
    calibrate(model, fast);

    auto buildTables = [&](const ResetEvaluator &eval) {
        auto table = [&](ContentDim dim, unsigned contentBuckets) {
            return std::make_shared<const LatencySurface>(
                LatencySurface::build(params, model.law, eval, dim,
                                      granularity, granularity,
                                      contentBuckets));
        };
        model.ladderSurface = table(ContentDim::Wordline, granularity);
        model.blpSurface = table(ContentDim::Bitline, granularity);
        model.locationSurface = table(ContentDim::Wordline, 1);
        model.power = PowerTable::build(params, eval);
    };

    std::vector<ResetCondition> conds;
    buildTables([&conds](const ResetCondition &c) {
        conds.push_back(c);
        return ResetEvaluation{};
    });
    std::sort(conds.begin(), conds.end());
    conds.erase(std::unique(conds.begin(), conds.end()), conds.end());

    std::vector<ResetEvaluation> results(conds.size());
    std::atomic<std::size_t> next{0};
    {
        // Declared after everything its jobs touch, so even when a
        // solve throws the pool drains before any of it is destroyed.
        ThreadPool pool(ThreadPool::defaultJobs());
        std::vector<std::future<void>> workers;
        for (unsigned w = 0; w < pool.threadCount(); ++w) {
            workers.push_back(pool.submit([&] {
                for (std::size_t i = next++; i < conds.size(); i = next++)
                    results[i] = fast.evaluate(conds[i]);
            }));
        }
        for (auto &worker : workers)
            worker.get();
    }

    buildTables([&](const ResetCondition &c) {
        auto it = std::lower_bound(conds.begin(), conds.end(), c);
        ladder_assert(it != conds.end() && *it == c,
                      "timing table replay requested an unsolved point");
        return results[static_cast<std::size_t>(it - conds.begin())];
    });
    for (const ResetEvaluation &ev : results)
        model.solver.note(ev.iterations, ev.converged);
    return model;
}

/**
 * A cached model's inputs: generate()'s, or generateDerived()'s when
 * the law is set (rangeShrink is then unused).
 */
struct ModelKey
{
    CrossbarParams params;
    unsigned granularity;
    double rangeShrink;
    std::optional<ResetLatencyLaw> law;

    bool operator==(const ModelKey &) const = default;
};

/**
 * The one model cache. The lock covers lookup and insert only: each
 * key holds a deferred future, whose first get() builds the model in
 * the calling thread while concurrent get()s of that key wait for it,
 * so distinct keys build concurrently and a key builds once. A failed
 * build's exception is kept and rethrown to every requester. The
 * futures' shared states own the models, so references stay valid
 * however the vector grows.
 */
const TimingModel &
cachedModel(const ModelKey &key)
{
    static std::mutex cacheMutex;
    static std::vector<std::pair<ModelKey, std::shared_future<TimingModel>>>
        cache;
    std::shared_future<TimingModel> model;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        for (const auto &entry : cache) {
            if (entry.first == key)
                model = entry.second;
        }
        if (!model.valid()) {
            model = std::async(std::launch::deferred, [key] {
                        return key.law ? TimingModel::generateDerived(
                                             key.params, *key.law,
                                             key.granularity)
                                       : TimingModel::generate(
                                             key.params, key.granularity,
                                             key.rangeShrink);
                    }).share();
            cache.emplace_back(key, model);
        }
    }
    return model.get();
}

} // namespace

PowerTable
PowerTable::build(const CrossbarParams &params,
                  const ResetEvaluator &eval, unsigned buckets)
{
    ladder_assert(buckets > 0, "power table: zero buckets");
    PowerTable table;
    table.buckets_ = buckets;
    table.rows_ = static_cast<unsigned>(params.rows);
    table.cols_ = static_cast<unsigned>(params.cols);
    table.power_.resize(static_cast<std::size_t>(buckets) * buckets *
                        buckets * buckets);
    const unsigned slots =
        table.cols_ / static_cast<unsigned>(params.selectedCells);
    std::size_t idx = 0;
    for (unsigned wb = 0; wb < buckets; ++wb) {
        unsigned wl = (2 * wb + 1) * table.rows_ / (2 * buckets);
        for (unsigned bb = 0; bb < buckets; ++bb) {
            unsigned slot = (2 * bb + 1) * slots / (2 * buckets);
            for (unsigned cw = 0; cw < buckets; ++cw) {
                unsigned wlCount =
                    (2 * cw + 1) * table.cols_ / (2 * buckets);
                for (unsigned cb = 0; cb < buckets; ++cb) {
                    unsigned blCount =
                        (2 * cb + 1) * table.rows_ / (2 * buckets);
                    ResetCondition cond;
                    cond.wordline = wl;
                    cond.byteOffset = slot;
                    cond.wlLrsCount = wlCount;
                    cond.blLrsCount = blCount;
                    table.power_[idx++] =
                        eval(cond).sourcePowerWatts * 1e3;
                }
            }
        }
    }
    return table;
}

double
PowerTable::lookup(unsigned wordline, unsigned bitline,
                   unsigned wlLrsCount, unsigned blLrsCount) const
{
    ladder_assert(!power_.empty(), "lookup on empty power table");
    auto bucket = [this](unsigned value, unsigned max) {
        unsigned b = value * buckets_ / (max + 1);
        return std::min(b, buckets_ - 1);
    };
    unsigned wb = bucket(wordline, rows_ - 1);
    unsigned bb = bucket(bitline, cols_ - 1);
    unsigned cw = bucket(std::min(wlLrsCount, cols_), cols_);
    unsigned cb = bucket(std::min(blLrsCount, rows_), rows_);
    return power_[((static_cast<std::size_t>(wb) * buckets_ + bb) *
                       buckets_ +
                   cw) *
                      buckets_ +
                  cb];
}

TimingModel
TimingModel::generate(const CrossbarParams &params, unsigned granularity,
                      double rangeShrink, double fastNs, double slowNs)
{
    return buildModel(
        params, granularity,
        [&](TimingModel &model, const SneakPathModel &fast) {
            // Calibration endpoints of the operating envelope.
            ResetCondition bestCond; // origin, all cells HRS
            ResetCondition worstCond{
                params.rows - 1, params.cols / params.selectedCells - 1,
                static_cast<unsigned>(params.cols),
                static_cast<unsigned>(params.rows)};
            const ResetEvaluation best = fast.evaluate(bestCond);
            const ResetEvaluation worst = fast.evaluate(worstCond);
            model.solver.note(best.iterations, best.converged);
            model.solver.note(worst.iterations, worst.converged);
            model.bestDropVolts = best.minDropVolts;
            model.worstDropVolts = worst.minDropVolts;
            if (!std::isfinite(model.bestDropVolts) ||
                !std::isfinite(model.worstDropVolts) ||
                model.bestDropVolts <= model.worstDropVolts)
                fatal("crossbar calibration failed: best-case drop %g V "
                      "must exceed worst-case drop %g V (xbar.rows=%zu "
                      "xbar.selected-cells=%zu "
                      "xbar.lrs-ohms=%g xbar.hrs-ohms=%g "
                      "xbar.nonlinearity=%g xbar.input-ohms=%g "
                      "xbar.output-ohms=%g xbar.wire-ohms=%g "
                      "xbar.write-volts=%g xbar.bias-volts=%g "
                      "xbar.wl-sneak-scale=%g xbar.bl-sneak-scale=%g)",
                      model.bestDropVolts, model.worstDropVolts,
                      params.rows, params.selectedCells,
                      params.lrsOhms, params.hrsOhms,
                      params.selectorNonlinearity, params.inputOhms,
                      params.outputOhms, params.wireOhms,
                      params.writeVolts, params.biasVolts,
                      params.wlSneakScale, params.blSneakScale);
            model.law = ResetLatencyLaw::calibrate(
                model.bestDropVolts, model.worstDropVolts, fastNs,
                slowNs);
            if (rangeShrink > 1.0)
                model.law = model.law.shrinkDynamicRange(rangeShrink);
        });
}

TimingModel
TimingModel::generateDerived(const CrossbarParams &params,
                             const ResetLatencyLaw &law,
                             unsigned granularity)
{
    return buildModel(params, granularity,
                      [&law](TimingModel &model, const SneakPathModel &) {
                          model.law = law;
                      });
}

const TimingModel &
cachedTimingModel(const CrossbarParams &params, unsigned granularity,
                  double rangeShrink)
{
    return cachedModel({params, granularity, rangeShrink, std::nullopt});
}

const TimingModel &
cachedDerivedModel(const CrossbarParams &params,
                   const ResetLatencyLaw &law, unsigned granularity)
{
    return cachedModel({params, granularity, 1.0, law});
}

} // namespace ladder
