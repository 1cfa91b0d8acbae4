/**
 * @file
 * The simulator driver: one binary that runs any machine
 * configuration on any workload (named benchmark or triangle trace)
 * and reports the frame results plus optional per-component
 * statistics — the texdist equivalent of invoking gem5 with a
 * config.
 *
 * Every run is a SequenceMachine on the two-phase engine: a single
 * frame is a one-frame sequence, so every mode has the same
 * machinery — `--jobs`, `--stats-file`, every fault kind, the
 * watchdog and graceful degradation, frame-granular checkpointing
 * (`--checkpoint-every`/`--restore`), run manifests with per-frame
 * state digests (`--manifest`), deterministic-replay verification
 * (`--replay-verify`) and invariant auditing (`--audit`). A classic
 * single-frame run prints the full frame dump and the speedup over
 * T(1); multi-frame runs (`--frames`, `--pan`) print a line per
 * frame. A failed frame stops the run with exit 2. SIGINT and
 * SIGTERM flush partial results, write a final checkpoint and exit
 * with a distinct code so a supervisor can tell "interrupted" from
 * "failed".
 *
 * The run itself is runSimulation() (simulation.hh), which
 * `sweep_runner --threads` also calls once per config; this file
 * only parses the command line, installs the signal handlers and
 * arms the process-wide `--io-fault` plan.
 *
 * Examples:
 *   texdist_sim --scene=quake --procs=64 --dist=block --param=16
 *   texdist_sim --trace=frame.trace --procs=16 --dist=sli --param=4 \
 *               --bus=2 --stats-file=stats.txt
 *   texdist_sim --scene=quake --procs=16 --frames=32 --pan=8 \
 *               --checkpoint-every=8 --manifest=run.json --audit
 *   texdist_sim --scene=quake --procs=16 --restore=texdist.ckpt \
 *               --replay-verify=run.json
 */

#include <csignal>
#include <iostream>
#include <string>

#include "core/options.hh"
#include "io/vfs.hh"
#include "scene/benchmarks.hh"
#include "sim/logging.hh"
#include "simulation.hh"

using namespace texdist;

namespace
{

volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
}

} // namespace

int
main(int argc, char **argv)
{
    // A bad command line exits with the CLI's documented code and
    // reprints the usage text; every later failure is typed and
    // mapped by runSimulation() (see --help for the codes).
    SimOptions opts;
    try {
        opts = SimOptions::parse(argc, argv);
    } catch (const ParseError &e) {
        return reportParseError(e, std::cerr);
    }
    if (opts.help) {
        std::cout << SimOptions::usage();
        return 0;
    }
    if (opts.listBenchmarks) {
        for (const std::string &name : benchmarkNames())
            std::cout << name << "\n";
        return 0;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Arm the filesystem fault injector before the first persistence
    // touch (the trace read included) so the whole run sees the
    // hostile filesystem the plan describes.
    if (!opts.ioFault.empty()) {
        io::setFaultPlan(opts.ioFault);
        inform("io fault plan armed: ", opts.ioFault.describe());
    }

    return runSimulation(opts, std::cout, std::cerr, g_signal);
}
