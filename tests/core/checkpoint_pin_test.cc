/**
 * @file
 * Absolute checkpoint pin: a checkpoint and run manifest committed
 * under tests/golden/, written by an earlier build of the simulator
 * with
 *
 *   texdist_sim --scene=quake --scale=0.25 --procs=4 --buffer=4
 *       --frames=4 --pan=8 --checkpoint-every=2
 *
 * (checkpoint after frame 2, every node's FIFO high-water at 4).
 * Today's build must restore it, write it back byte for byte and
 * replay the remaining frames to the recorded digests — a format or
 * behaviour change that every self-consistency test would miss
 * fails here.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/interframe.hh"
#include "core/options.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "scene/benchmarks.hh"
#include "sim/checkpoint.hh"

using namespace texdist;

namespace
{

const std::string pinCheckpoint =
    TEXDIST_GOLDEN_DIR "/pan_quake_b4.ckpt";
const std::string pinManifest =
    TEXDIST_GOLDEN_DIR "/pan_quake_b4.json";

SimOptions
pinOptions()
{
    return SimOptions::parse(std::vector<std::string>{
        "--scene=quake", "--scale=0.25", "--procs=4", "--buffer=4",
        "--frames=4", "--pan=8"});
}

/** Offset of the first node's `node-fifo` entry count in @p image. */
size_t
fifoCountOffset(const std::string &image)
{
    // A section tag is its u64 length then its name; the high-water
    // mark (u64) and the entry count (u64) follow.
    const std::string tag = std::string("\x09\0\0\0\0\0\0\0", 8) +
                            "node-fifo";
    size_t at = image.find(tag);
    EXPECT_NE(at, std::string::npos);
    return at + tag.size() + 8;
}

} // namespace

TEST(CheckpointPin, RestoresRoundTripsAndReplaysToRecordedDigests)
{
    SimOptions opts = pinOptions();
    RunManifest manifest = RunManifest::load(pinManifest);
    ASSERT_EQ(manifest.config, opts.machine.describe());
    ASSERT_EQ(manifest.digests.size(), 4u);

    Scene base = makeBenchmark(opts.scene, opts.scale);
    SequenceMachine machine(base, opts.machine);
    CheckpointReader r(pinCheckpoint);
    machine.restore(r);
    ASSERT_EQ(machine.framesRun(), 2u);
    for (uint32_t i = 0; i < machine.numNodes(); ++i)
        EXPECT_EQ(machine.node(i).fifoMaxOccupancy(), 4u);

    CheckpointWriter w;
    machine.serialize(w);
    EXPECT_TRUE(w.bytes() == io::readFile(pinCheckpoint))
        << "re-serialized checkpoint differs from the pinned bytes";

    for (uint32_t f = 2; f < manifest.frames; ++f) {
        Scene frame = translateScene(base, float(manifest.panDx * f),
                                     float(manifest.panDy * f));
        EXPECT_EQ(digestHex(digestFrame(machine.runFrame(frame))),
                  digestHex(manifest.digests[f]))
            << "divergence at frame " << f;
    }
}

TEST(CheckpointPinError, QueuedFifoEntryIsATypedMismatch)
{
    // Claim one queued entry in node 0's FIFO, then repair the CRC
    // (as texfuzz's checkpoint repair does) so the payload decoder,
    // not the envelope check, has to reject it.
    std::string image = io::readFile(pinCheckpoint);
    image[fifoCountOffset(image)] = 1;
    uint32_t crc = crc32(image.data() + 20, image.size() - 20);
    for (size_t i = 0; i < 4; ++i)
        image[16 + i] = char(uint8_t(crc >> (8 * i)));

    SimOptions opts = pinOptions();
    Scene base = makeBenchmark(opts.scene, opts.scale);
    SequenceMachine machine(base, opts.machine);
    CheckpointReader r("patched.ckpt", image);
    try {
        machine.restore(r);
        FAIL() << "a queued FIFO entry was accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Checkpoint);
        EXPECT_EQ(e.rule(), ParseRule::Mismatch);
        EXPECT_EQ(e.exitCode(), 7);
        EXPECT_NE(e.describe().find("node-fifo"), std::string::npos)
            << e.describe();
    }
}
