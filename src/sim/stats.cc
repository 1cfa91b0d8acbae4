#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "core/error.hh"
#include "sim/logging.hh"

namespace texdist
{

Histogram::Histogram(double bucket_width, size_t num_buckets)
    : bucketWidth(bucket_width), buckets(num_buckets, 0)
{
}

void
Histogram::add(double sample)
{
    ++n;
    total += sample;
    totalSq += sample * sample;
    lo = std::min(lo, sample);
    hi = std::max(hi, sample);

    if (sample < 0) {
        // Negative samples land in the first bucket; the histogram is
        // meant for non-negative quantities (latencies, occupancies).
        ++buckets.front();
        return;
    }
    size_t idx = size_t(sample / bucketWidth);
    if (idx >= buckets.size())
        ++overflow;
    else
        ++buckets[idx];
}

void
Histogram::merge(const Histogram &other)
{
    if (other.bucketWidth != bucketWidth ||
        other.buckets.size() != buckets.size())
        texdist_panic("merging histograms with different buckets");
    for (size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    overflow += other.overflow;
    n += other.n;
    total += other.total;
    totalSq += other.totalSq;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

double
Histogram::stddev() const
{
    if (n < 2)
        return 0.0;
    double mu = mean();
    double var = (totalSq - double(n) * mu * mu) / double(n - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Histogram::quantile(double p) const
{
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    uint64_t target = uint64_t(std::ceil(p * double(n)));
    if (target == 0)
        target = 1;

    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= target)
            return (double(i) + 0.5) * bucketWidth;
    }
    return hi; // in the overflow bucket
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    overflow = 0;
    n = 0;
    total = 0.0;
    totalSq = 0.0;
    lo = std::numeric_limits<double>::infinity();
    hi = -std::numeric_limits<double>::infinity();
}

void
Histogram::serialize(CheckpointWriter &w) const
{
    w.section("histogram");
    w.f64(bucketWidth);
    w.u64vec(buckets);
    w.u64(overflow);
    w.u64(n);
    w.f64(total);
    w.f64(totalSq);
    w.f64(lo);
    w.f64(hi);
}

void
Histogram::unserialize(CheckpointReader &r)
{
    r.section("histogram");
    double width = r.f64();
    std::vector<uint64_t> b = r.u64vec();
    if (width != bucketWidth || b.size() != buckets.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "histogram shape mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("histogram");
    buckets = std::move(b);
    overflow = r.u64();
    n = r.u64();
    total = r.f64();
    totalSq = r.f64();
    lo = r.f64();
    hi = r.f64();
}

void
StatGroup::addStat(const std::string &stat, const std::string &desc,
                   const Counter &counter)
{
    Entry e;
    e.stat = stat;
    e.desc = desc;
    e.counter = &counter;
    entries.push_back(e);
}

void
StatGroup::addStat(const std::string &stat, const std::string &desc,
                   const uint64_t &value)
{
    Entry e;
    e.stat = stat;
    e.desc = desc;
    e.intValue = &value;
    entries.push_back(e);
}

void
StatGroup::addStat(const std::string &stat, const std::string &desc,
                   const double &value)
{
    Entry e;
    e.stat = stat;
    e.desc = desc;
    e.floatValue = &value;
    entries.push_back(e);
}

void
StatGroup::addStat(const std::string &stat, const std::string &desc,
                   const Histogram &histogram)
{
    Entry e;
    e.stat = stat;
    e.desc = desc;
    e.histogram = &histogram;
    entries.push_back(e);
}

void
StatGroup::dump(std::ostream &os) const
{
    auto line = [&](const std::string &stat, auto value,
                    const std::string &desc) {
        os << std::left << std::setw(40) << (_name + "." + stat)
           << " " << std::setw(16) << value << " # " << desc << "\n";
    };
    for (const Entry &e : entries) {
        if (e.counter) {
            line(e.stat, e.counter->value(), e.desc);
        } else if (e.intValue) {
            line(e.stat, *e.intValue, e.desc);
        } else if (e.floatValue) {
            line(e.stat, *e.floatValue, e.desc);
        } else {
            line(e.stat + "::count", e.histogram->count(), e.desc);
            line(e.stat + "::mean", e.histogram->mean(), e.desc);
            line(e.stat + "::p95", e.histogram->quantile(0.95),
                 e.desc);
            line(e.stat + "::max", e.histogram->maxValue(), e.desc);
        }
    }
}

} // namespace texdist
