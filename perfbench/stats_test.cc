/**
 * @file
 * Unit checks for perfbench/stats.hh. Exits 0 when every check
 * passes and 1 otherwise, naming each failure; `run.py --selftest`
 * runs it.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "stats.hh"

namespace
{

int failures = 0;

void
expectNear(const char *what, double got, double want)
{
    if (std::fabs(got - want) > 1e-12) {
        std::cout << "FAIL " << what << ": got " << got << ", want "
                  << want << "\n";
        ++failures;
    }
}

} // namespace

int
main()
{
    using perfbench::efficiency;
    using perfbench::median;
    using perfbench::quantile;

    expectNear("median of none", median({}), 0.0);
    expectNear("median of one", median({4.0}), 4.0);
    expectNear("median odd, unsorted", median({9.0, 1.0, 5.0}), 5.0);
    expectNear("median even", median({4.0, 1.0, 3.0, 2.0}), 2.5);
    expectNear("median ignores an outlier",
               median({1.0, 1.0, 1.0, 1000.0, 1.0}), 1.0);

    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expectNear("q0 is the minimum", quantile(ten, 0.0), 1.0);
    expectNear("q1 is the maximum", quantile(ten, 1.0), 10.0);
    expectNear("p90 interpolates", quantile(ten, 0.9), 9.1);
    expectNear("p25 interpolates", quantile(ten, 0.25), 3.25);
    expectNear("p90 of two", quantile({0.0, 10.0}, 0.9), 9.0);

    expectNear("perfect scaling", efficiency(4.0, 1.0, 4), 1.0);
    expectNear("no scaling", efficiency(4.0, 4.0, 4), 0.25);
    expectNear("superlinear", efficiency(9.0, 2.0, 4), 1.125);
    expectNear("batch: sum 21 configs on 4 threads",
               efficiency(21.0 * 0.1, 0.7, 4), 0.75);
    expectNear("zero parallel time", efficiency(1.0, 0.0, 4), 0.0);
    expectNear("zero threads", efficiency(1.0, 1.0, 0), 0.0);

    if (failures == 0)
        std::cout << "stats_test: all checks passed\n";
    return failures == 0 ? 0 : 1;
}
