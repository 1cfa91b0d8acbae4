/**
 * @file
 * Experiment F7-2x — the technical-report variant of Figure 7
 * (reference [15]): speedups with a 2 texels/pixel bus. The paper
 * reports results "very close" to the 1x bus, except that with 64
 * processors the cache matters less and smaller blocks do slightly
 * better.
 */

#include "fig7_common.hh"

static int
run(int argc, char **argv)
{
    using namespace texdist;
    BenchOptions opts = BenchOptions::parse(argc, argv);
    runFig7(2.0, opts);
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
