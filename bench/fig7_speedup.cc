/**
 * @file
 * Experiment F7 — reproduces Figure 7: machine speedups with a
 * 1 texel/pixel external bus.
 */

#include "fig7_common.hh"

static int
run(int argc, char **argv)
{
    using namespace texdist;
    BenchOptions opts = BenchOptions::parse(argc, argv);
    runFig7(1.0, opts);
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
