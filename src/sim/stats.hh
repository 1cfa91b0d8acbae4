/**
 * @file
 * Lightweight statistics package: named scalar counters and
 * histograms grouped per simulation object, with a table dump —
 * the reporting layer every model (cache, bus, node, machine) hangs
 * its measurements on.
 */

#ifndef TEXDIST_SIM_STATS_HH
#define TEXDIST_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"

namespace texdist
{

/**
 * A running scalar statistic (count / sum style).
 */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(uint64_t v) { _value += v; return *this; }

    uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    uint64_t _value = 0;
};

/**
 * A sampled distribution: running count, sum, min, max and mean plus
 * fixed-width buckets for percentile queries.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each bucket
     * @param num_buckets number of buckets; samples beyond the last
     *        bucket are accumulated in an overflow bucket
     */
    explicit Histogram(double bucket_width = 1.0,
                       size_t num_buckets = 64);

    void add(double sample);

    /**
     * Fold in every sample of @p other, which must have the same
     * bucket layout. For integer samples (sums stay exact) the
     * result equals adding the samples in any order.
     */
    void merge(const Histogram &other);

    uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / double(n) : 0.0; }
    double minValue() const { return n ? lo : 0.0; }
    double maxValue() const { return n ? hi : 0.0; }

    /** Sample standard deviation (0 with fewer than 2 samples). */
    double stddev() const;

    /**
     * Approximate p-quantile (0 <= p <= 1) from the buckets; exact to
     * bucket resolution.
     */
    double quantile(double p) const;

    void reset();

    /** Serialize samples and buckets (checkpointing). */
    void serialize(CheckpointWriter &w) const;

    /** Restore a histogram with identical bucket configuration. */
    void unserialize(CheckpointReader &r);

  private:
    double bucketWidth;
    std::vector<uint64_t> buckets;
    uint64_t overflow = 0;
    uint64_t n = 0;
    double total = 0.0;
    double totalSq = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

/**
 * A named collection of statistics that can print itself. Models
 * register name/description/value triples; values are read through
 * callbacks so dumping always reflects current state.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    /** Register a counter by reference. */
    void addStat(const std::string &stat, const std::string &desc,
                 const Counter &counter);

    /** Register a plain uint64_t by reference. */
    void addStat(const std::string &stat, const std::string &desc,
                 const uint64_t &value);

    /** Register a plain double by reference. */
    void addStat(const std::string &stat, const std::string &desc,
                 const double &value);

    /**
     * Register a histogram; dumps count, mean, p95 and max as
     * separate lines.
     */
    void addStat(const std::string &stat, const std::string &desc,
                 const Histogram &histogram);

    const std::string &name() const { return _name; }

    /** Write "group.stat  value  # desc" lines. */
    void dump(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string stat;
        std::string desc;
        const Counter *counter = nullptr;
        const uint64_t *intValue = nullptr;
        const double *floatValue = nullptr;
        const Histogram *histogram = nullptr;
    };

    std::string _name;
    std::vector<Entry> entries;
};

} // namespace texdist

#endif // TEXDIST_SIM_STATS_HH
