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
#include <sstream>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/csv.hh"
#include "core/error.hh"
#include "core/experiments.hh"
#include "core/interframe.hh"
#include "core/options.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "io/vfs.hh"
#include "oracle/oracle.hh"
#include "scene/benchmarks.hh"
#include "scene/stats.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

using namespace texdist;

namespace
{

// Exit codes (also listed in --help): a supervisor like
// tools/sweep_runner keys retry/resume decisions off these.
constexpr int exitOk = 0;
constexpr int exitFrameFailed = 2;
constexpr int exitInterrupted = 3;
constexpr int exitAuditViolation = 4;
constexpr int exitReplayDivergence = 5;

volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
}

/** Fill the run-identity fields of a manifest. */
RunManifest
describeRun(const SimOptions &opts, const Scene &scene,
            uint32_t frames)
{
    RunManifest m;
    m.scene = scene.name;
    m.config = opts.machine.describe();
    m.faultPlan = opts.machine.faults.describe();
    m.faultSeed = opts.machine.faults.seed;
    m.frames = frames;
    m.panDx = opts.panDx;
    m.panDy = opts.panDy;
    return m;
}

void
writeCheckpoint(const SequenceMachine &machine,
                const std::string &path)
{
    CheckpointWriter w;
    machine.serialize(w);
    w.writeFile(path);
    inform("checkpoint after frame ", machine.framesRun(),
           " written to ", path, " (", w.payloadSize(), " bytes)");
}

/** Print a failed or degraded frame's fault outcome. */
void
reportFaults(const FrameResult &r)
{
    if (r.failed) {
        std::cerr << "\n" << r.diagnostic;
        std::cerr << "frame failed: " << r.failureReason << "\n";
    } else if (r.degraded) {
        std::cout << "\n(frame completed degraded: "
                  << r.faultStats.nodesKilled
                  << " node(s) lost, coverage preserved by "
                     "redistribution)\n";
    }
}

/** Run the frames on one persistent machine. */
int
runFrames(const SimOptions &opts, const Scene &base)
{
    const bool single = opts.singleFrame();
    uint32_t frames = opts.frames;
    double pan_dx = opts.panDx;
    double pan_dy = opts.panDy;

    const bool verifying = !opts.replayVerifyPath.empty();
    RunManifest expect;
    if (verifying) {
        expect = RunManifest::load(opts.replayVerifyPath);
        if (expect.scene != base.name)
            texdist_fatal("--replay-verify scene mismatch:\n"
                          "  manifest: ", expect.scene,
                          "\n  run:      ", base.name);
        if (expect.config != opts.machine.describe())
            texdist_fatal("--replay-verify configuration "
                          "mismatch:\n  manifest: ", expect.config,
                          "\n  run:      ",
                          opts.machine.describe());
        // The run parameters are taken from the manifest: a verify
        // pass re-executes what was recorded, not what the command
        // line happens to say.
        frames = expect.frames;
        pan_dx = expect.panDx;
        pan_dy = expect.panDy;
    }

    SequenceMachine machine(base, opts.machine, opts.resolvedJobs(),
                            single ? FrameEntry::SingleFrame
                                   : FrameEntry::Sequence);
    std::vector<uint64_t> digests;

    if (!opts.restorePath.empty()) {
        CheckpointReader r(opts.restorePath);
        machine.restore(r);
        inform("restored ", machine.framesRun(),
               " frame(s) from ", opts.restorePath, ", resuming at "
               "tick ", machine.currentTime());
        if (machine.framesRun() >= frames) {
            inform("checkpoint already covers all ", frames,
                   " frame(s); nothing to do");
            return exitOk;
        }
        // Keep the already-verified digest prefix from a prior
        // manifest so a resumed run still saves a complete one.
        if (!opts.manifestPath.empty() &&
            io::fileExists(opts.manifestPath)) {
            RunManifest prior = RunManifest::load(opts.manifestPath);
            digests = prior.digests;
        }
        if (digests.size() > machine.framesRun())
            digests.resize(machine.framesRun());
    }

    const uint32_t first = machine.framesRun();
    int exit_code = exitOk;
    bool interrupted = false;

    // Attached after any restore so shadow reference models seed
    // from the warm (restored) cache contents.
    OracleEngine oracle(opts.machine, opts.oracle);
    oracle.attach(machine);

    CsvWriter csv(opts.resultCsv);
    frameCsvHeader(csv);

    // Sampled-run accounting (only used when --sample is active).
    uint32_t detailed_frames = 0;
    uint32_t warm_frames = 0;
    uint32_t skipped_frames = 0;
    Tick detailed_cycles = 0;

    for (uint32_t f = first; f < frames; ++f) {
        const FrameRole role = frameRole(opts.sample, f);
        if (role == FrameRole::Skip) {
            // Fast-forward: the frame is not even built. Detailed
            // windows re-measure the (slightly stale) cache state;
            // the bench harness bounds the resulting stat error.
            ++skipped_frames;
            std::cout << "frame " << f << ": fast-forwarded\n";
            if (g_signal != 0) {
                interrupted = true;
                break;
            }
            continue;
        }

        Scene frame =
            f == 0 ? Scene() : translateScene(base,
                                              float(pan_dx * f),
                                              float(pan_dy * f));
        const Scene &scene = f == 0 ? base : frame;

        if (role == FrameRole::Warm) {
            FrameResult r = machine.runFrameFunctional(scene);
            ++warm_frames;
            std::cout << "frame " << f << ": functional warm-up, "
                      << r.totalPixels << " pixels, "
                      << r.totalTexelsFetched
                      << " texels (no timing)\n";
            if (g_signal != 0) {
                interrupted = true;
                break;
            }
            continue;
        }

        oracle.beginFrame(f, scene);
        FrameResult r = machine.runFrame(scene);
        oracle.endFrame(f, scene, &machine.distribution(), &r,
                        machine.currentTime());
        uint64_t digest = digestFrame(r);
        digests.push_back(digest);
        frameCsvRow(csv, f, r, digest);
        ++detailed_frames;
        detailed_cycles += r.frameTime;

        if (single) {
            r.print(std::cout);
            reportFaults(r);
            if (opts.machine.numProcs > 1 && !r.failed && r.frameTime) {
                Tick baseline = FrameLab(scene).baseline(opts.machine);
                std::cout << "speedup:           "
                          << double(baseline) / double(r.frameTime)
                          << " (T1 = " << baseline << ")\n";
            }
        } else {
            std::cout << "frame " << f << ": " << r.frameTime
                      << " cycles, " << r.totalPixels << " pixels, "
                      << r.totalTexelsFetched << " texels (t/f "
                      << r.texelToFragmentRatio << "), digest "
                      << digestHex(digest) << "\n";
            if (r.failed || r.faultStats.nodesKilled > 0)
                reportFaults(r);
        }
        if (r.failed) {
            exit_code = exitFrameFailed;
            break;
        }

        if (opts.audit) {
            AuditReport report = auditFrame(
                scene, machine.distribution(), opts.machine, r);
            if (!report.ok()) {
                std::cerr << "audit violation(s) at frame " << f
                          << ":\n" << report.describe() << "\n";
                exit_code = exitAuditViolation;
                break;
            }
        }

        if (verifying && f < expect.digests.size() &&
            digest != expect.digests[f]) {
            std::cerr << "replay divergence at frame " << f
                      << ": manifest recorded "
                      << digestHex(expect.digests[f])
                      << ", this run produced " << digestHex(digest)
                      << "\n";
            exit_code = exitReplayDivergence;
            break;
        }

        const uint32_t done = machine.framesRun();
        if (opts.checkpointEvery > 0 && done < frames &&
            done % opts.checkpointEvery == 0)
            writeCheckpoint(machine, opts.checkpointFile);

        if (g_signal != 0) {
            interrupted = true;
            break;
        }
    }

    if (opts.sample.enabled() && detailed_frames > 0) {
        // Estimate the full run's cycle count from the detailed
        // windows: mean detailed frame time extrapolated over every
        // frame, skipped or not.
        double mean_cycles =
            double(detailed_cycles) / double(detailed_frames);
        uint64_t estimated =
            uint64_t(mean_cycles * double(frames - first));
        std::cout << "sampled run (" << opts.sample.describe()
                  << "): " << detailed_frames << " detailed, "
                  << warm_frames << " warm, " << skipped_frames
                  << " fast-forwarded; estimated total "
                  << estimated << " cycles\n";
    }

    if (interrupted) {
        std::cerr << "interrupted by signal " << int(g_signal)
                  << " after frame " << machine.framesRun() - 1
                  << "; flushing partial results\n";
        if (!opts.checkpointFile.empty())
            writeCheckpoint(machine, opts.checkpointFile);
        exit_code = exitInterrupted;
    }

    csv.close();
    if (!opts.resultCsv.empty())
        std::cout << "per-frame results written to "
                  << opts.resultCsv << "\n";

    if (!opts.manifestPath.empty()) {
        RunManifest m = describeRun(opts, base, frames);
        m.panDx = pan_dx;
        m.panDy = pan_dy;
        m.digests = digests;
        m.interrupted = machine.framesRun() < frames;
        m.save(opts.manifestPath);
        std::cout << "run manifest written to " << opts.manifestPath
                  << "\n";
    }

    if (!opts.statsFile.empty()) {
        std::ostringstream os;
        os << "# texdist_sim statistics\n";
        os << "# workload " << base.name << "\n";
        os << "# machine " << opts.machine.describe() << "\n";
        machine.dumpStats(os);
        io::writeFileAtomic(opts.statsFile, os.str());
        std::cout << "stats written to " << opts.statsFile << "\n";
    }

    if (verifying && exit_code == exitOk) {
        size_t verified =
            std::min(size_t(frames), expect.digests.size());
        std::cout << "replay verified: " << verified - first
                  << " frame(s) match the manifest\n";
    }
    return exit_code;
}

} // namespace

namespace
{

int
run(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
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
    // touch (trace read below included) so the whole run sees the
    // hostile filesystem the plan describes.
    if (!opts.ioFault.empty()) {
        io::setFaultPlan(opts.ioFault);
        inform("io fault plan armed: ", opts.ioFault.describe());
    }

    Scene scene = opts.tracePath.empty()
                      ? makeBenchmark(opts.scene, opts.scale)
                      : readTraceFile(opts.tracePath);

    std::cout << "workload: " << scene.name << " ("
              << scene.screenWidth << "x" << scene.screenHeight
              << ", " << scene.triangles.size() << " triangles, "
              << scene.textures.count() << " textures)\n";
    std::cout << "machine:  " << opts.machine.describe() << "\n\n";

    return runFrames(opts, scene);
}

} // namespace

int
main(int argc, char **argv)
{
    // Malformed input — command line, trace, checkpoint, manifest —
    // exits with the surface's documented code (see --help); a bad
    // command line also reprints the usage text.
    try {
        return run(argc, argv);
    } catch (const ParseError &e) {
        std::cerr << "fatal: " << e.describe() << "\n";
        if (e.surface() == ParseSurface::Cli)
            std::cerr << "\n" << SimOptions::usage();
        return e.exitCode();
    } catch (const OracleError &e) {
        std::cerr << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    } catch (const IoError &e) {
        // Filesystem failure (real or injected): every partially
        // written artifact has already been rolled back by the VFS,
        // so exit 14 guarantees "nothing torn is observable".
        std::cerr << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    }
}
