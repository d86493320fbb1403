/**
 * @file
 * The paper's headline cycle counts as this reproduction measures them
 * (the "This repro" column of EXPERIMENTS.md), pinned exactly:
 *
 *   Table 7    GF(2^233) multiply 619 cycles, square 163
 *   Table 9    direct multiplier: point add 6415, point double 2995,
 *              field inverse 46225
 *   Sec 3.3.4  direct-multiplier scalar multiplication 745,667
 *   Table 13   AES-128 block 1369 cycles
 *
 * Each figure runs the kernel entry point and inputs its bench main
 * uses (bench/table07_gf233_breakdown.cc, table09_point_ops.cc,
 * ecdh_scalar_mult.cc, table13_energy_vs_asic.cc), once under plain
 * dispatch and once translated.  A change to the cost model, a kernel
 * or either execution path that moves a published number fails here,
 * not silently in a table nobody reruns.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "jit/core_translation.h"
#include "kernels/aes_kernels.h"
#include "kernels/wide_kernels.h"

namespace gfp {
namespace {

using Inputs = std::vector<std::pair<std::string, std::vector<uint8_t>>>;

struct Figure
{
    const char *name;
    std::string source;
    Inputs inputs;
    uint64_t cycles;
    /** Single-word inputs, and a check on the finished machine. */
    std::vector<std::pair<std::string, uint32_t>> words = {};
    std::function<void(Machine &)> check = {};
};

std::vector<Figure>
paperFigures()
{
    std::vector<Figure> out;

    // Table 7: the operands table07_gf233_breakdown draws.
    BinaryField f = BinaryField::nist("233");
    const auto a = bench::elemBytes(f.randomElement(11));
    const auto b = bench::elemBytes(f.randomElement(12));
    out.push_back({"Table 7 multiply", mult233DirectAsm(),
                   {{"opa", a}, {"opb", b}}, 619});
    out.push_back({"Table 7 square", square233Asm(), {{"opa", a}}, 163});

    // Table 9: table09_point_ops' doubled base point and base point.
    EllipticCurve curve = EllipticCurve::nist("K-233");
    const EcPoint &g = curve.basePoint();
    const LdPoint p0 = curve.doubleLd(curve.toProjective(g));
    const Inputs point = {{"px", bench::elemBytes(p0.x)},
                          {"py", bench::elemBytes(p0.y)},
                          {"pz", bench::elemBytes(p0.z)},
                          {"qx", bench::elemBytes(g.x)},
                          {"qy", bench::elemBytes(g.y)}};
    out.push_back({"Table 9 point add", pointAddAsm(false), point, 6415});
    out.push_back(
        {"Table 9 point double", pointDoubleAsm(false), point, 2995});
    out.push_back({"Table 9 inverse", inverse233Asm(false),
                   {{"opa", bench::elemBytes(p0.x)}}, 46225});

    // Sec. 3.3.4: ecdh_scalar_mult's evaluation scalar, result checked
    // against the host's scalar multiplication.
    const Gf2x k = EllipticCurve::evaluationScalar(2026);
    auto kb = bench::elemBytes(k);
    kb.resize(16);
    const EcPoint expect = curve.scalarMult(k, g);
    out.push_back({"Sec 3.3.4 scalar mult", scalarMultAsm(false),
                   {{"qx", bench::elemBytes(g.x)},
                    {"qy", bench::elemBytes(g.y)},
                    {"kwords", kb}},
                   745'667,
                   {{"kbits", k.bitLength()}},
                   [expect](Machine &m) {
                       EXPECT_EQ(bench::readElem(m, "resx"), expect.x);
                       EXPECT_EQ(bench::readElem(m, "resy"), expect.y);
                   }});

    // Table 13: table13_energy_vs_asic's key and plaintext.
    Aes aes(std::vector<uint8_t>(16, 0x2b));
    out.push_back({"Table 13 AES block", aesBlockAsmGfcore(false),
                   {{"rkeys", bench::roundKeyBytes(aes)},
                    {"state", std::vector<uint8_t>(16, 0x5a)}},
                   1369});
    return out;
}

TEST(PaperNumbers, CycleCountsPinnedOnBothDispatchPaths)
{
    for (const Figure &fig : paperFigures()) {
        for (DispatchMode mode :
             {DispatchMode::kPlain, DispatchMode::kTranslated}) {
            SCOPED_TRACE(std::string(fig.name) + " / " +
                         dispatchModeName(mode));
            Machine m(fig.source, CoreKind::kGfProcessor);
            if (mode == DispatchMode::kTranslated)
                jit::installTranslation(m);
            for (const auto &[label, bytes] : fig.inputs)
                m.writeBytes(label, bytes);
            for (const auto &[label, value] : fig.words)
                m.writeWord(label, value);
            RunResult r = m.runToHalt();
            ASSERT_TRUE(r.ok()) << r.trap.describe();
            EXPECT_EQ(r.stats.cycles, fig.cycles);
            if (fig.check)
                fig.check(m);
        }
    }
}

} // namespace
} // namespace gfp
