/**
 * @file
 * The texdist_sim run loop; see simulation.hh.
 */

#include "simulation.hh"

#include <sstream>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/csv.hh"
#include "core/experiments.hh"
#include "core/interframe.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "io/vfs.hh"
#include "oracle/oracle.hh"
#include "scene/benchmarks.hh"
#include "scene/stats.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace texdist
{

namespace
{

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
reportFaults(const FrameResult &r, std::ostream &out,
             std::ostream &err)
{
    if (r.failed) {
        err << "\n" << r.diagnostic;
        err << "frame failed: " << r.failureReason << "\n";
    } else if (r.degraded) {
        out << "\n(frame completed degraded: "
            << r.faultStats.nodesKilled
            << " node(s) lost, coverage preserved by "
               "redistribution)\n";
    }
}

/** Run the frames on one persistent machine. */
int
runFrames(const SimOptions &opts, const Scene &base, std::ostream &out,
          std::ostream &err, const volatile std::sig_atomic_t &stop)
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
            return simExitOk;
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
    int exit_code = simExitOk;
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
            out << "frame " << f << ": fast-forwarded\n";
            if (stop != 0) {
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
            out << "frame " << f << ": functional warm-up, "
                << r.totalPixels << " pixels, "
                << r.totalTexelsFetched
                << " texels (no timing)\n";
            if (stop != 0) {
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
            r.print(out);
            reportFaults(r, out, err);
            if (opts.machine.numProcs > 1 && !r.failed && r.frameTime) {
                Tick baseline = FrameLab(scene).baseline(opts.machine);
                out << "speedup:           "
                    << double(baseline) / double(r.frameTime)
                    << " (T1 = " << baseline << ")\n";
            }
        } else {
            out << "frame " << f << ": " << r.frameTime
                << " cycles, " << r.totalPixels << " pixels, "
                << r.totalTexelsFetched << " texels (t/f "
                << r.texelToFragmentRatio << "), digest "
                << digestHex(digest) << "\n";
            if (r.failed || r.faultStats.nodesKilled > 0)
                reportFaults(r, out, err);
        }
        if (r.failed) {
            exit_code = simExitFrameFailed;
            break;
        }

        if (opts.audit) {
            AuditReport report = auditFrame(
                scene, machine.distribution(), opts.machine, r);
            if (!report.ok()) {
                err << "audit violation(s) at frame " << f
                    << ":\n" << report.describe() << "\n";
                exit_code = simExitAuditViolation;
                break;
            }
        }

        if (verifying && f < expect.digests.size() &&
            digest != expect.digests[f]) {
            err << "replay divergence at frame " << f
                << ": manifest recorded "
                << digestHex(expect.digests[f])
                << ", this run produced " << digestHex(digest)
                << "\n";
            exit_code = simExitReplayDivergence;
            break;
        }

        const uint32_t done = machine.framesRun();
        if (opts.checkpointEvery > 0 && done < frames &&
            done % opts.checkpointEvery == 0)
            writeCheckpoint(machine, opts.checkpointFile);

        if (stop != 0) {
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
        out << "sampled run (" << opts.sample.describe()
            << "): " << detailed_frames << " detailed, "
            << warm_frames << " warm, " << skipped_frames
            << " fast-forwarded; estimated total "
            << estimated << " cycles\n";
    }

    if (interrupted) {
        err << "interrupted by signal " << int(stop)
            << " after frame " << machine.framesRun() - 1
            << "; flushing partial results\n";
        if (!opts.checkpointFile.empty())
            writeCheckpoint(machine, opts.checkpointFile);
        exit_code = simExitInterrupted;
    }

    csv.close();
    if (!opts.resultCsv.empty())
        out << "per-frame results written to "
            << opts.resultCsv << "\n";

    if (!opts.manifestPath.empty()) {
        RunManifest m;
        m.scene = base.name;
        m.config = opts.machine.describe();
        m.faultPlan = opts.machine.faults.describe();
        m.faultSeed = opts.machine.faults.seed;
        m.frames = frames;
        m.panDx = pan_dx;
        m.panDy = pan_dy;
        m.digests = digests;
        m.interrupted = machine.framesRun() < frames;
        m.save(opts.manifestPath);
        out << "run manifest written to " << opts.manifestPath
            << "\n";
    }

    if (!opts.statsFile.empty()) {
        std::ostringstream os;
        os << "# texdist_sim statistics\n";
        os << "# workload " << base.name << "\n";
        os << "# machine " << opts.machine.describe() << "\n";
        machine.dumpStats(os);
        io::writeFileAtomic(opts.statsFile, os.str());
        out << "stats written to " << opts.statsFile << "\n";
    }

    if (verifying && exit_code == simExitOk) {
        size_t verified =
            std::min(size_t(frames), expect.digests.size());
        out << "replay verified: " << verified - first
            << " frame(s) match the manifest\n";
    }
    return exit_code;
}

} // namespace

int
runSimulation(const SimOptions &opts, std::ostream &out,
              std::ostream &err, const volatile std::sig_atomic_t &stop)
{
    // Malformed input — trace, checkpoint, manifest, an out-of-range
    // fault victim — and oracle or filesystem failures exit with the
    // surface's documented code.
    try {
        Scene scene = opts.tracePath.empty()
                          ? makeBenchmark(opts.scene, opts.scale)
                          : readTraceFile(opts.tracePath);

        out << "workload: " << scene.name << " (" << scene.screenWidth
            << "x" << scene.screenHeight << ", "
            << scene.triangles.size() << " triangles, "
            << scene.textures.count() << " textures)\n";
        out << "machine:  " << opts.machine.describe() << "\n\n";

        return runFrames(opts, scene, out, err, stop);
    } catch (const ParseError &e) {
        return reportParseError(e, err);
    } catch (const OracleError &e) {
        err << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    } catch (const IoError &e) {
        // Filesystem failure (real or injected): every partially
        // written artifact has already been rolled back by the VFS,
        // so exit 14 guarantees "nothing torn is observable".
        err << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    }
}

int
reportParseError(const ParseError &e, std::ostream &err)
{
    err << "fatal: " << e.describe() << "\n";
    if (e.surface() == ParseSurface::Cli)
        err << "\n" << SimOptions::usage();
    return e.exitCode();
}

} // namespace texdist
