/**
 * @file
 * Ablation A3 — prefetch/pixel queue depth.
 *
 * The paper assumes (after Igehy et al.) that "the cache access is
 * pipelined enough to absorb all the memory latency", i.e. a deep
 * enough fragment queue between the scan and the filter. Our model
 * exposes that depth; this ablation shows how deep the queue must be
 * before miss *bursts* stop stalling the scan, on the most
 * bandwidth-hungry frame (teapot.full) and on a bursty game frame.
 */

#include <iostream>

#include "bench_common.hh"

using namespace texdist;

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A3: prefetch queue depth (scale "
              << opts.scale << ")\n";

    const std::vector<uint32_t> depths = {1, 2, 4, 8, 16, 64, 256};

    for (const std::string &name :
         {std::string("teapot.full"), std::string("32massive11255")}) {
        Scene scene = loadScene(name, opts.scale);
        FrameLab lab(scene);

        for (double bus : {1.0, 2.0}) {
            std::cout << "\n== " << name << ", 16 processors, block "
                      << "16, " << bus
                      << " texel/pixel bus: frame time and stall "
                         "cycles vs queue depth ==\n";
            TablePrinter table(std::cout,
                               {"depth", "cycles", "vs deep",
                                "stall %", "bus util"},
                               12);
            table.printHeader();

            // Deep-queue reference.
            MachineConfig ref = paperConfig();
            ref.numProcs = 16;
            ref.tileParam = 16;
            ref.busTexelsPerCycle = bus;
            ref.prefetchQueueDepth = 4096;
            Tick deep = lab.run(ref).frameTime;

            for (uint32_t depth : depths) {
                MachineConfig cfg = ref;
                cfg.prefetchQueueDepth = depth;
                FrameResult r = lab.run(cfg);
                uint64_t stalls = 0;
                Tick busy = 0;
                for (const NodeResult &n : r.nodes) {
                    stalls += n.stallCycles;
                    busy += n.finishTime;
                }
                table.cell(uint64_t(depth));
                table.cell(uint64_t(r.frameTime));
                table.cell(double(r.frameTime) / double(deep), 3);
                table.cell(100.0 * double(stalls) / double(busy), 1);
                table.cell(r.meanBusUtilization, 2);
                table.endRow();
            }
        }
    }

    std::cout << "\n(reading: the depth where 'vs deep' reaches ~1.0 "
                 "is the pixel-FIFO size a real chip needs for the "
                 "paper's zero-latency assumption to hold.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
