/**
 * @file
 * One texdist_sim run as a function. The texdist_sim binary calls it
 * once per process; `sweep_runner --threads` calls it once per
 * config on a worker thread, so an in-process config runs exactly
 * the frame loop a child process would.
 */

#ifndef TEXDIST_TOOLS_SIMULATION_HH
#define TEXDIST_TOOLS_SIMULATION_HH

#include <csignal>
#include <ostream>

#include "core/error.hh"
#include "core/options.hh"

namespace texdist
{

// texdist_sim exit codes (also listed in --help): a supervisor like
// tools/sweep_runner keys retry/resume decisions off these. Typed
// input, oracle and I/O errors add their own (see core/error.hh).
constexpr int simExitOk = 0;
constexpr int simExitFrameFailed = 2;
constexpr int simExitInterrupted = 3;
constexpr int simExitAuditViolation = 4;
constexpr int simExitReplayDivergence = 5;

/**
 * Load the workload, print the workload/machine header to @p out and
 * simulate every frame @p opts asks for, writing the requested
 * artifacts. Frame reports go to @p out, diagnostics to @p err. A
 * nonzero @p stop (a caught signal number) ends the run after the
 * current frame with simExitInterrupted, writing a final checkpoint
 * when the run checkpoints.
 * A ParseError, OracleError or IoError is printed to @p err and
 * becomes its documented exit code.
 *
 * The caller owns process-wide state: signal handlers and the
 * `--io-fault` plan (io::setFaultPlan) are not touched here.
 */
int runSimulation(const SimOptions &opts, std::ostream &out,
                  std::ostream &err,
                  const volatile std::sig_atomic_t &stop);

/**
 * Print @p e as texdist_sim does — a one-line diagnostic, plus the
 * usage text for a bad command line — and return its exit code.
 */
int reportParseError(const ParseError &e, std::ostream &err);

} // namespace texdist

#endif // TEXDIST_TOOLS_SIMULATION_HH
