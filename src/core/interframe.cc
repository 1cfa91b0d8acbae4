#include "core/interframe.hh"

#include "core/sequence.hh"

namespace texdist
{

Scene
translateScene(const Scene &scene, float dx, float dy)
{
    Scene out;
    out.name = scene.name + "+pan";
    out.screenWidth = scene.screenWidth;
    out.screenHeight = scene.screenHeight;
    out.textures = scene.textures.clone();
    out.triangles = scene.triangles;
    for (TexTriangle &tri : out.triangles) {
        for (TexVertex &v : tri.v) {
            v.x += dx;
            v.y += dy;
        }
    }
    return out;
}

// texlint: phase(serial) builds and runs a whole machine
InterFrameResult
measureInterFrame(const Scene &frame1, const Scene &frame2,
                  const MachineConfig &config)
{
    SequenceMachine machine(frame1, config);
    FrameResult first = machine.runFrameFunctional(frame1);
    FrameResult second = machine.runFrameFunctional(frame2);
    InterFrameResult out;
    out.frame1Ratio = first.texelToFragmentRatio;
    out.frame2Ratio = second.texelToFragmentRatio;
    out.frame1Fragments = first.totalPixels;
    out.frame2Fragments = second.totalPixels;
    return out;
}

} // namespace texdist
