/**
 * @file
 * A small gem5-flavoured statistics package. Components register named
 * statistics into a StatGroup; runners dump them as aligned text or —
 * for machine consumption — as JSON (dumpJson), and can flatten every
 * leaf to (name, value) pairs for epoch time-series capture (visit).
 */

#ifndef LADDER_COMMON_STATS_HH
#define LADDER_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ladder
{

class JsonWriter;

/** A monotonically accumulating scalar statistic. */
class StatScalar
{
  public:
    StatScalar() = default;

    StatScalar &operator+=(double v) { value_ += v; return *this; }
    StatScalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    void reset() { value_ = 0.0; }

    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Running mean/min/max of sampled values. */
class StatAverage
{
  public:
    void sample(double v);
    void reset();

    double mean() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

  private:
    double sum_ = 0.0;
    // Sentinel-initialized so the first sample always wins the
    // comparison, whatever its sign (an earlier version seeded these
    // with 0.0, which broke min() for all-negative sample sets).
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram over [lo, hi) with under/overflow buckets. */
class StatHistogram
{
  public:
    StatHistogram() = default;
    StatHistogram(double lo, double hi, unsigned buckets);

    void init(double lo, double hi, unsigned buckets);
    void sample(double v);
    void reset();

    unsigned buckets() const
    {
        return static_cast<unsigned>(counts_.size());
    }
    std::uint64_t bucketCount(unsigned i) const { return counts_.at(i); }
    double bucketLo(unsigned i) const;
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }

  private:
    double lo_ = 0.0;
    double hi_ = 1.0;
    double sum_ = 0.0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    std::vector<std::uint64_t> counts_;
};

/**
 * A named collection of statistics. Ownership of the stats themselves
 * stays with the registering component; the group only holds pointers,
 * so it must not outlive its components.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void regScalar(const std::string &name, StatScalar *stat,
                   const std::string &desc = "");
    void regAverage(const std::string &name, StatAverage *stat,
                    const std::string &desc = "");
    void regHistogram(const std::string &name, StatHistogram *stat,
                      const std::string &desc = "");
    void addChild(StatGroup *child);

    /** Dump all registered stats (and children) as aligned text. */
    void dump(std::ostream &os) const;

    /**
     * Dump this group (and children, recursively) as one JSON object:
     * scalars as plain numbers, averages as {mean,min,max,sum,count},
     * histograms as bucket arrays with their bounds. The writer must
     * be positioned where a value is expected (after key()).
     */
    void dumpJson(JsonWriter &json) const;

    /**
     * Visit every scalar-valued leaf as ("group.stat", value) pairs:
     * scalars report their value, averages their ".sum" and ".count"
     * (so consumers can difference epochs into rates and means).
     * Histogram buckets are intentionally skipped — they would bloat
     * an epoch series; read them from the final dumpJson instead.
     * Children are visited in registration order.
     */
    void visit(const std::function<void(const std::string &, double)>
                   &fn) const;

    /** Reset every registered stat (children included). */
    void resetAll();

    const std::string &name() const { return name_; }

  private:
    struct ScalarEntry
    {
        std::string name;
        StatScalar *stat;
        std::string desc;
    };
    struct AverageEntry
    {
        std::string name;
        StatAverage *stat;
        std::string desc;
    };
    struct HistogramEntry
    {
        std::string name;
        StatHistogram *stat;
        std::string desc;
    };

    std::string name_;
    std::vector<ScalarEntry> scalars_;
    std::vector<AverageEntry> averages_;
    std::vector<HistogramEntry> histograms_;
    std::vector<StatGroup *> children_;
};

} // namespace ladder

#endif // LADDER_COMMON_STATS_HH
