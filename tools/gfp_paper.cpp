/**
 * @file
 * gfp-paper — regenerates the paper's evaluation: Tables 2-13, the
 * Sec. 3.3.4 scalar multiplication, Figs. 3, 9 and 10, the two
 * ablations and the encoder extension, then a catalog of every shipped
 * kernel at zeroed inputs.
 *
 * Usage: gfp-paper            (no options; the output is deterministic)
 *
 * Every simulated number comes from measure(), which runs the program
 * under plain stepping and under translated dispatch and requires the
 * two runs to agree on CycleStats, registers and memory.  Where the
 * result has a host reference (field and point operations, AES blocks
 * and rounds, decoder intermediates, encoded codewords, the scalar
 * multiplication) the plain run must also match it.  Any disagreement
 * is reported on stderr and the tool exits 1.
 *
 * tests/golden/gfp_paper.txt pins stdout byte for byte (ctest
 * PaperNumbers.CycleCountsPinnedOnBothDispatchPaths for the whole
 * output, one Bench.* ctest per table).  To update it after an
 * intended change:
 *     build/tools/gfp-paper > tests/golden/gfp_paper.txt
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "coding/bch.h"
#include "coding/channel.h"
#include "coding/decoder_kernels.h"
#include "coding/rs.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/ecc.h"
#include "gfau/gf_unit.h"
#include "hwmodel/resource_models.h"
#include "hwmodel/synthesis.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "jit/core_translation.h"
#include "kernels/aes_kernels.h"
#include "kernels/coding_kernels.h"
#include "kernels/kernel_catalog.h"
#include "kernels/wide_kernels.h"
#include "sim/machine.h"
#include "sim/profiler.h"

using namespace gfp;

namespace {

// ------------------------------------------------------------------
// Measurement and reporting
// ------------------------------------------------------------------

using Bytes = std::vector<uint8_t>;
/** Guest memory blocks by label: a program's inputs, or the outputs a
 *  run must leave behind. */
using Blocks = std::vector<std::pair<std::string, Bytes>>;

constexpr CoreKind kGf = CoreKind::kGfProcessor;
constexpr CoreKind kBase = CoreKind::kBaseline;

std::string g_section;
int g_failures = 0;

void
fail(const std::string &why)
{
    std::fprintf(stderr, "gfp-paper: %s: %s\n", g_section.c_str(),
                 why.c_str());
    ++g_failures;
}

bool
sameStats(const CycleStats &a, const CycleStats &b)
{
    if (a.instrs != b.instrs || a.cycles != b.cycles)
        return false;
    for (unsigned c = 0; c < kNumInstrClasses; ++c) {
        const auto cls = static_cast<InstrClass>(c);
        if (a.classOps(cls) != b.classOps(cls) ||
            a.classCycles(cls) != b.classCycles(cls))
            return false;
    }
    return true;
}

/**
 * The one way this tool runs a guest program: @p src on a @p kind core
 * with @p in written to memory, once under plain stepping and once
 * under translated dispatch.  Both runs must halt cleanly and agree on
 * CycleStats, registers, pc and memory, and the plain run must leave
 * @p out (the host reference's result) in memory.  @p profile, when
 * given, records the plain run per PC.  Returns the plain run's stats.
 */
CycleStats
measure(const std::string &src, CoreKind kind, const Blocks &in,
        const Blocks &out = {}, PcProfile *profile = nullptr)
{
    Machine plain(src, kind), fast(src, kind);
    jit::installTranslation(fast);
    for (const auto &[label, bytes] : in) {
        plain.writeBytes(label, bytes);
        fast.writeBytes(label, bytes);
    }
    if (profile) {
        profile->configure(
            static_cast<uint32_t>(4 * plain.program().code.size()));
        plain.core().setProfile(profile);
    }
    const RunResult a = plain.runToHalt();
    const RunResult b = fast.runToHalt();
    plain.core().setProfile(nullptr);

    bool same = sameStats(a.stats, b.stats) &&
                plain.core().pc() == fast.core().pc() &&
                plain.memory().snapshot() == fast.memory().snapshot();
    for (unsigned r = 0; r < kNumRegs; ++r)
        same = same && plain.core().reg(r) == fast.core().reg(r);
    bool matches = true;
    for (const auto &[label, bytes] : out)
        matches = matches && plain.readBytes(label, bytes.size()) == bytes;
    if (!a.ok() || !b.ok())
        fail("run stopped: " + (a.ok() ? b : a).trap.describe());
    else if (!same)
        fail("plain and translated dispatch disagree");
    else if (!matches)
        fail("result differs from its host reference");
    return a.stats;
}

void
header(const std::string &id, const std::string &title)
{
    g_section = id;
    std::printf("\n================================================="
                "=====================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("==================================================="
                "===================\n");
}

void
note(const std::string &text)
{
    std::printf("  %s\n", text.c_str());
}

double
ratio(uint64_t a, uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

unsigned long long
ull(uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/** Little-endian image of 32-bit words, as the guest stores them. */
Bytes
wordBytes(const std::vector<uint32_t> &words)
{
    Bytes out;
    for (uint32_t w : words)
        for (unsigned b = 0; b < 4; ++b)
            out.push_back(static_cast<uint8_t>(w >> (8 * b)));
    return out;
}

/** 32-byte image of a GF(2^233) element. */
Bytes
elemBytes(const Gf2x &v)
{
    return wordBytes(v.toWords32(8));
}

/** XOR-ready round-key byte blocks for the AES kernels. */
Bytes
roundKeyBytes(const Aes &aes)
{
    Bytes out;
    for (uint32_t word : aes.roundKeys())
        for (int b = 3; b >= 0; --b)
            out.push_back(static_cast<uint8_t>(word >> (8 * b)));
    return out;
}

Bytes
blockBytes(const AesBlock &block)
{
    return Bytes(block.begin(), block.end());
}

/**
 * A received word with the host decoder's intermediates, in the layout
 * of kernels/coding_kernels.h (lambda and locs zero-padded to 12
 * bytes): the inputs and expected outputs of the decoder kernels.
 */
struct Workload
{
    GFField field;
    unsigned n, t;
    Bytes rx, synd, lambda, locs, nloc, evals;

    Workload(unsigned m, unsigned t_, const std::vector<GFElem> &word)
        : field(m), n(field.groupOrder()), t(t_),
          rx(word.begin(), word.end()), lambda(12, 0), locs(12, 0)
    {
        const auto s = syndromes(field, word, 2 * t);
        const GFPoly lam = berlekampMassey(field, s);
        const auto loc = chienSearch(field, lam, n);
        const auto ev = forney(field, s, lam, loc);
        synd.assign(s.begin(), s.end());
        for (int i = 0; i <= lam.degree(); ++i)
            lambda[i] = static_cast<uint8_t>(lam.coeff(i));
        std::copy(loc.begin(), loc.end(), locs.begin());
        nloc = wordBytes({static_cast<uint32_t>(loc.size())});
        evals.assign(ev.begin(), ev.end());
    }

    // Syndrome: rx -> synd; BMA: synd -> lambda; Chien: lambda -> locs;
    // Forney: synd, lambda, locs and nloc -> evals.
    Blocks rxBlock() const { return {{"rxdata", rx}}; }
    Blocks syndBlock() const { return {{"synd", synd}}; }
    Blocks lambdaBlock() const { return {{"lambda", lambda}}; }
    Blocks locsBlock() const { return {{"locs", locs}}; }
    Blocks evalsBlock() const { return {{"evals", evals}}; }
    Blocks forneyIn() const
    {
        return {{"synd", synd}, {"lambda", lambda}, {"locs", locs},
                {"nloc", nloc}};
    }
};

/** RS(2^m - 1, 2^m - 1 - 2t) codeword of seeded random symbols with
 *  @p errors symbol errors. */
Workload
rsWorkload(unsigned m, unsigned t, unsigned errors, uint64_t seed)
{
    RSCode code(m, t);
    Rng rng(seed);
    std::vector<GFElem> info(code.k());
    for (auto &sym : info)
        sym = rng.below(code.field().order());
    ExactErrorInjector inj(seed + 1);
    return Workload(m, t, inj.corruptSymbols(code.encode(info), errors, m));
}

/** Binary BCH codeword of seeded random bits with @p errors bit flips. */
Workload
bchWorkload(unsigned m, unsigned t, unsigned errors, uint64_t seed)
{
    BCHCode code(m, t);
    Rng rng(seed);
    std::vector<uint8_t> info(code.k());
    for (auto &bit : info)
        bit = static_cast<uint8_t>(rng.below(2));
    ExactErrorInjector inj(seed + 1);
    const auto rx = inj.flipBits(code.encode(info), errors);
    return Workload(m, t, std::vector<GFElem>(rx.begin(), rx.end()));
}

// ------------------------------------------------------------------
// The paper's tables
// ------------------------------------------------------------------

/** Table 2: systolic vs. single-step linear-transform GF multiplier. */
void
table02()
{
    header("Table 2", "GF multiplication resource comparison "
                      "(AND:MUX:XOR:FF = 1:2.25:2.25:4 @28nm)");
    std::printf("%4s | %10s %10s %10s | %10s %10s %10s | %6s\n", "m",
                "sys AND", "sys XOR", "sys FF", "lin AND", "lin XOR",
                "lin FF", "ratio");
    for (unsigned m : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 16u}) {
        GateCost sys = systolicMultCost(m);
        GateCost lin = linearTransformMultCost(m);
        std::printf("%4u | %10.0f %10.0f %10.0f | %10.0f %10.0f %10.0f "
                    "| %5.2fx\n",
                    m, sys.and_gates, sys.xor_gates, sys.flipflops,
                    lin.and_gates, lin.xor_gates, lin.flipflops,
                    sys.areaUnits() / lin.areaUnits());
    }
    std::printf("\nClosed forms at m = 8 (paper's formulas):\n");
    std::printf("  systolic total area  16.5m^2 - 10m  = %.0f AND-eq\n",
                systolicMultAreaClosedForm(8));
    std::printf("  this work total area 6.5m^2 - 7.75m = %.0f AND-eq\n",
                linearMultAreaClosedForm(8));
    std::printf("  configuration FF (shared): systolic %g, "
                "this work %g (the 56-bit P matrix)\n",
                systolicMultConfigFf(8), linearMultConfigFf(8));
    note("shape check: this work < systolic at every width; the "
         "config register is the (shared, amortized) price.");
}

/** Table 3: multiplier vs. square unit, and the structural model's
 *  16-multiplier / 28-square use per SIMD inverse. */
void
table03()
{
    header("Table 3", "multiplication vs. square units "
                      "(m = 5..8, arbitrary polynomial; 28nm)");
    GfauSynthesis g;
    std::printf("%-22s %12s %12s\n", "", "GF mult", "GF square");
    std::printf("%-22s %12u %12u\n", "# of cells", g.mult.cells,
                g.square.cells);
    std::printf("%-22s %12.2f %12.2f\n", "area (um^2)", g.mult.area_um2,
                g.square.area_um2);
    std::printf("%-22s %12.1f %12.1f\n", "critical path (ns)",
                g.mult.critical_path_ns, g.square.critical_path_ns);
    std::printf("%-22s %12u %12u\n", "# of primitive units",
                g.mult.count, g.square.count);

    // One 4-way SIMD inverse must light up all 16 multipliers and all
    // 28 square units exactly once.
    GFArithmeticUnit unit;
    unit.configureField(8, 0x11d);
    unit.resetStats();
    unit.simdInverse(0x01020304);
    std::printf("\nstructural model, one gfMultInv_simd in GF(2^8):\n");
    std::printf("  multiplier activations: %llu (budget 16)\n",
                ull(unit.multUnitActivations()));
    std::printf("  square-unit activations: %llu (budget 28)\n",
                ull(unit.squareUnitActivations()));
    note("a multiplier costs ~3.1x a square unit, which is why "
         "squares are a separate primitive.");
}

/** Table 4: systolic extended-Euclidean vs. Itoh-Tsujii inverse. */
void
table04()
{
    header("Table 4", "multiplicative inverse resources: "
                      "systolic EA vs. Itoh-Tsujii");
    std::printf("%4s | %12s %12s | %12s %12s | %6s\n", "m", "EA area",
                "EA FF", "ITA area", "ITA FF", "ratio");
    for (unsigned m : {4u, 8u, 12u, 16u}) {
        GateCost ea = systolicEuclidInverseCost(m);
        GateCost ita = itaInverseCost(m);
        std::printf("%4u | %12.0f %12.0f | %12.0f %12.0f | %5.2fx\n", m,
                    ea.areaUnits(), ea.flipflops, ita.areaUnits(),
                    ita.flipflops, ea.areaUnits() / ita.areaUnits());
    }
    std::printf("\nm^2 coefficients (paper's approximation): EA 57m^2, "
                "ITA 48.75m^2\n");
    std::printf("  at m=8: EA %.0f vs ITA %.0f AND-eq\n",
                systolicInverseAreaClosedForm(8),
                itaInverseAreaClosedForm(8));
    note("ITA needs no flip-flops and reuses the existing "
         "multiply/square units — zero marginal area in the "
         "GFAU (the paper's second argument for it).");
}

/** Table 5: the kernel inventory with its measured GF-instruction mix. */
void
table05()
{
    header("Table 5", "kernel inventory, parallelism, and "
                      "measured GF-instruction mix");
    auto row = [](const char *app, const char *kernel,
                  const char *parallelism, const std::string &src,
                  const Blocks &in, const Blocks &out) {
        const CycleStats s = measure(src, kGf, in, out);
        std::printf("  %-8s %-12s %6llu GF-SIMD %5llu GF32  (%s)\n", app,
                    kernel, ull(s.gf_simd_ops), ull(s.gf32_ops),
                    parallelism);
    };

    const Workload w = rsWorkload(8, 8, 8, 99);
    row("RS/BCH", "syndrome", "2t independent syndromes, 4/SIMD word",
        syndromeAsmGfcore(w.field, w.n, 16), w.rxBlock(),
        w.syndBlock());
    row("RS/BCH", "BMA", "iterative; little parallelism (scalar GF)",
        bmaAsmGfcore(w.field, 16), w.syndBlock(), w.lambdaBlock());
    row("RS/BCH", "Chien", "2^m independent evaluations, 4 terms/word",
        chienAsmGfcore(w.field, w.n, 8), w.lambdaBlock(), w.locsBlock());
    row("RS", "Forney", "4 error locations per SIMD pass",
        forneyAsmGfcore(w.field, 16), w.forneyIn(), w.evalsBlock());

    Aes aes(Bytes(16, 0x11));
    AesBlock pt;
    pt.fill(0x22);
    row("AES", "full encrypt", "16 independent state bytes, 4/word",
        aesBlockAsmGfcore(false),
        {{"rkeys", roundKeyBytes(aes)}, {"state", blockBytes(pt)}},
        {{"state", blockBytes(aes.encryptBlock(pt))}});
    row("AES", "key expand", "SubWord on 4 bytes per round",
        aesKeyExpandAsmGfcore(), {{"key", Bytes(16, 0x33)}},
        {{"xkey", wordBytes(Aes(Bytes(16, 0x33)).roundKeys())}});

    std::printf("\n  ECC_l: GF(2^233) mult/square use the single-cycle "
                "32-bit partial product (see Table 7 bench);\n"
                "  squaring additionally benefits from the sparse "
                "Koblitz reduction x^233 + x^74 + 1.\n");
    note("BMA issues GF-SIMD ops with only lane 0 live — the "
         "limited-parallelism case the paper calls out.");
}

/** Disassemble the [from, to) byte range of @p prog. */
void
dump(const Program &prog, uint32_t from, uint32_t to)
{
    for (uint32_t a = from; a < to; a += 4)
        std::printf("    %04x:  %s\n", a,
                    disassembleWord(prog.code[a / 4], a).c_str());
}

/** Table 6: the syndrome inner loop, log-domain GPP vs. two GF
 *  instructions, as disassembly plus per-symbol-syndrome cost. */
void
table06()
{
    header("Table 6", "syndrome inner loop: log-domain GPP vs. "
                      "GF instructions");
    GFField f(8);

    std::printf("baseline (compiled shape): per GF multiply -> "
                "gfmul helper call with log/antilog lookups and a "
                "software modulo:\n");
    Program base = Assembler::assemble(
        syndromeAsmBaseline(f, 255, 16, BaselineFlavor::kCompiled));
    const uint32_t gstart = base.symbol("gfmul");
    dump(base, gstart, gstart + 23 * 4);

    std::printf("\nthis work: the entire inner-loop body "
                "(4 syndromes at once):\n");
    Program gf = Assembler::assemble(syndromeAsmGfcore(f, 255, 16));
    const uint32_t istart = gf.symbol("inner");
    dump(gf, istart, istart + 7 * 4);

    const Workload w = rsWorkload(8, 8, 8, 5);
    const uint64_t base_cycles = measure(syndromeAsmBaseline(f, 255, 16),
                                         kBase, w.rxBlock(), w.syndBlock())
                                     .cycles;
    const uint64_t gf_cycles = measure(syndromeAsmGfcore(f, 255, 16), kGf,
                                       w.rxBlock(), w.syndBlock())
                                   .cycles;
    std::printf("\n  measured inner-loop cost per symbol-syndrome: "
                "baseline %.1f cycles, this work %.2f cycles\n",
                base_cycles / (255.0 * 16), gf_cycles / (255.0 * 16));
    note("the GF core replaces lookup+modulo+lookup with one "
         "gfmuls and one gfadds shared across 4 lanes.");
}

struct PhaseCounts
{
    uint64_t ld = 0, st = 0, gf32 = 0, alu = 0, cycles = 0;
};

/**
 * Table 7's per-phase split: profile one measured run and charge each
 * PC's instructions and cycles to the phase of the last @p phases label
 * at or below it ("other" before the first).  Loads, stores and GF32
 * ops keep their own columns; every other class counts as ALU.
 */
std::map<std::string, PhaseCounts>
phaseSplit(const std::string &src,
           const std::vector<std::pair<std::string, std::string>> &phases,
           const Blocks &in, const Blocks &out)
{
    PcProfile prof;
    measure(src, kGf, in, out, &prof);
    const Program prog = Assembler::assemble(src);
    std::vector<std::pair<uint32_t, std::string>> bounds;
    for (const auto &[label, name] : phases)
        bounds.emplace_back(prog.symbol(label), name);
    std::sort(bounds.begin(), bounds.end());

    std::map<std::string, PhaseCounts> split;
    for (const auto &[pc, count] : prof.nonZero()) {
        std::string name = "other";
        for (const auto &[addr, n] : bounds)
            if (pc >= addr)
                name = n;
        PhaseCounts &c = split[name];
        switch (classOf(decode(prog.code[pc / 4]).op)) {
          case InstrClass::kLoad: c.ld += count.instrs; break;
          case InstrClass::kStore: c.st += count.instrs; break;
          case InstrClass::kGf32: c.gf32 += count.instrs; break;
          default: c.alu += count.instrs; break;
        }
        c.cycles += count.cycles;
    }
    return split;
}

void
printPhase(const char *name, const PhaseCounts &c, const char *paper)
{
    std::printf("  %-22s %5llu %5llu %8llu %6llu %7llu   %s\n", name,
                ull(c.ld), ull(c.st), ull(c.gf32), ull(c.alu),
                ull(c.cycles), paper);
}

uint64_t
totalCycles(const std::map<std::string, PhaseCounts> &phases)
{
    uint64_t total = 0;
    for (const auto &[name, c] : phases)
        total += c.cycles;
    return total;
}

/** Table 7: GF(2^233) multiply/square cycles by the paper's phases
 *  (full product / rearrange / reduction), from the kernel's labels. */
void
table07()
{
    header("Table 7", "GF(2^233) mult/square cycle breakdown on "
                      "the GF processor (K-233 trinomial)");
    BinaryField f = BinaryField::nist("233");
    const Gf2x a = f.randomElement(11), b = f.randomElement(12);

    std::printf("233-bit multiplication (direct product):\n");
    std::printf("  %-22s %5s %5s %8s %6s %7s   %s\n", "phase", "LD", "ST",
                "GF32mul", "ALU*", "cycles",
                "paper (LD/ST/GF32/ALU/cyc)");
    auto mul = phaseSplit(mult233DirectAsm(),
                          {{"fmul", "product"},
                           {"fm_rearrange", "rearrange"},
                           {"fm_reduce", "reduction"}},
                          {{"opa", elemBytes(a)}, {"opb", elemBytes(b)}},
                          {{"result", elemBytes(f.mul(a, b))}});
    printPhase("full product", mul["product"], "72/71/64/112/462");
    printPhase("rearrange", mul["rearrange"], " 8/-/-/29/45");
    printPhase("polynomial reduction", mul["reduction"], " 8/8/-/60/92");
    printPhase("call/halt overhead", mul["other"], "-");
    std::printf("  total: %llu cycles (paper: 599)\n",
                ull(totalCycles(mul)));

    std::printf("\n233-bit squaring (interleaved product + rearrange, "
                "as in the paper's Sec. 3.3.4):\n");
    auto sq = phaseSplit(square233Asm(), {{"fsqr", "square"}},
                         {{"opa", elemBytes(a)}},
                         {{"result", elemBytes(f.sqr(a))}});
    printPhase("product+rearrange+red.", sq["square"],
               "49 + 87 = 136 total");
    printPhase("call/halt overhead", sq["other"], "-");
    std::printf("  total: %llu cycles (paper: 136)\n",
                ull(totalCycles(sq)));
    note("ALU* column includes branches/calls; the paper's "
         "footnote likewise lumps bitwise ops into 'ALUs'.");
}

/** Table 8: GF(2^233) multiply/square cycles, literature ARM baselines
 *  vs. this processor. */
void
table08()
{
    header("Table 8", "ECC_l GF multiplication/squaring across "
                      "platforms (cycles)");
    BinaryField f = BinaryField::nist("233");
    const Gf2x a = f.randomElement(31), b = f.randomElement(32);
    const Blocks operands = {{"opa", elemBytes(a)}, {"opb", elemBytes(b)}};
    const Blocks product = {{"result", elemBytes(f.mul(a, b))}};
    const uint64_t mult =
        measure(mult233DirectAsm(), kGf, operands, product).cycles;
    const uint64_t mult_k =
        measure(mult233KaratsubaAsm(), kGf, operands, product).cycles;
    const uint64_t sqr = measure(square233Asm(), kGf, {{"opa", elemBytes(a)}},
                                 {{"result", elemBytes(f.sqr(a))}})
                             .cycles;
    const uint64_t mult_sw =
        measure(mult233BaselineAsm(), kBase, operands, product).cycles;

    Literature lit;
    std::printf("%-34s %10s %10s\n", "platform", "mult", "square");
    std::printf("%-34s %10u %10u   (GF(2^228))\n",
                "Erdem [14], ARM7TDMI", lit.erdem_arm7.mult_228,
                lit.erdem_arm7.sqr_228);
    std::printf("%-34s %10u %10u   (GF(2^256))\n", "",
                lit.erdem_arm7.mult_256, lit.erdem_arm7.sqr_256);
    std::printf("%-34s %10u %10u\n", "Clercq [11], Cortex M0+",
                lit.clercq_m0plus.mult, lit.clercq_m0plus.sqr);
    std::printf("%-34s %10llu %10s   (measured: 4-bit comb, "
                "baseline core)\n",
                "this repro: M0+-class software", ull(mult_sw), "-");
    std::printf("%-34s %10u %10u   (paper's build)\n",
                "paper: 2-stage proc. + GF unit", lit.paper_direct.mult,
                lit.paper_direct.sqr);
    std::printf("%-34s %10llu %10llu   (measured)\n",
                "this repro: direct product", ull(mult), ull(sqr));
    std::printf("%-34s %10llu %10s   (measured)\n",
                "this repro: Karatsuba", ull(mult_k), "-");
    std::printf("\n  speedup vs Clercq M0+: mult %.1fx (paper 6.1x), "
                "square %.1fx (paper 2.9x)\n",
                ratio(lit.clercq_m0plus.mult, mult),
                ratio(lit.clercq_m0plus.sqr, sqr));
    std::printf("  speedup vs our own measured software baseline: "
                "%.1fx\n",
                ratio(mult_sw, mult));
    note("no precomputed tables anywhere: the software "
         "baselines need >= 4KB of them.");
}

/** Table 9: K-233 point add / double / field inverse, Clercq's M0+ vs.
 *  this processor with the direct and Karatsuba multipliers. */
void
table09()
{
    header("Table 9", "K-233 point operations (cycles)");
    EllipticCurve curve = EllipticCurve::nist("K-233");
    const EcPoint &g = curve.basePoint();
    const LdPoint p0 = curve.doubleLd(curve.toProjective(g));

    const Blocks point = {{"px", elemBytes(p0.x)}, {"py", elemBytes(p0.y)},
                          {"pz", elemBytes(p0.z)}, {"qx", elemBytes(g.x)},
                          {"qy", elemBytes(g.y)}};
    auto pointOp = [&](const std::string &src, const LdPoint &want) {
        return measure(src, kGf, point,
                       {{"px", elemBytes(want.x)},
                        {"py", elemBytes(want.y)},
                        {"pz", elemBytes(want.z)}})
            .cycles;
    };
    const Blocks inverse = {
        {"result", elemBytes(curve.field().invItohTsujii(p0.x))}};
    const LdPoint sum = curve.addMixed(p0, g), twice = curve.doubleLd(p0);
    const uint64_t pa_d = pointOp(pointAddAsm(false), sum);
    const uint64_t pa_k = pointOp(pointAddAsm(true), sum);
    const uint64_t pd_d = pointOp(pointDoubleAsm(false), twice);
    const uint64_t pd_k = pointOp(pointDoubleAsm(true), twice);
    const uint64_t inv_d = measure(inverse233Asm(false), kGf,
                                   {{"opa", elemBytes(p0.x)}}, inverse)
                               .cycles;
    const uint64_t inv_k = measure(inverse233Asm(true), kGf,
                                   {{"opa", elemBytes(p0.x)}}, inverse)
                               .cycles;

    Literature lit;
    std::printf("%-16s %10s | %10s %10s | %10s %10s\n", "operation",
                "Clercq M0+", "paper dir", "paper kara", "repro dir",
                "repro kara");
    std::printf("%-16s %10u | %10u %10u | %10llu %10llu\n",
                "point addition", lit.clercq_points.point_add,
                lit.paper_direct.point_add, lit.paper_karatsuba.point_add,
                ull(pa_d), ull(pa_k));
    std::printf("%-16s %10s | %10u %10u | %10llu %10llu\n",
                "point doubling", "n/r", lit.paper_direct.point_double,
                lit.paper_karatsuba.point_double, ull(pd_d), ull(pd_k));
    std::printf("%-16s %10u | %10u %10u | %10llu %10llu\n",
                "field inverse", lit.clercq_points.inverse,
                lit.paper_direct.inverse, lit.paper_karatsuba.inverse,
                ull(inv_d), ull(inv_k));
    std::printf("\n  point-add speedup vs Clercq: %.1fx (paper 5.1x); "
                "inverse: %.1fx (paper 3.5x)\n",
                ratio(lit.clercq_points.point_add, pa_d),
                ratio(lit.clercq_points.inverse, inv_d));
    note("Karatsuba lands at parity here because gf32bMult "
         "costs one cycle — see EXPERIMENTS.md.");
}

/** Table 10: GFAU area composition in 28nm (published calibration). */
void
table10()
{
    header("Table 10", "GF arithmetic unit area (28nm, "
                       "m=5..8, arbitrary polynomial)");
    GfauSynthesis g;
    std::printf("%-28s %10s %10s %14s\n", "", "GF mult", "GF sq",
                "inst. control");
    std::printf("%-28s %10u %10u %14s\n", "# of primitive units",
                g.mult.count, g.square.count, "-");
    std::printf("%-28s %10.2f %10.2f %14s\n", "single unit area (um^2)",
                g.mult.area_um2, g.square.area_um2, "-");
    std::printf("%-28s %10.0f %10.0f %14.0f\n", "array area (um^2)",
                g.multArrayArea(), g.squareArrayArea(),
                g.control_area_um2);
    std::printf("%-28s %10s %10s %14s\n", "", "", "", "");
    std::printf("published total area: %.0f um^2   column sum: %.0f "
                "um^2 (paper-internal discrepancy of %.0f um^2, "
                "reproduced as printed)\n",
                g.total_area_um2, g.columnSumArea(),
                g.columnSumArea() - g.total_area_um2);
    std::printf("critical path: %.2f ns @ GF multiplicative inverse\n",
                g.critical_path_ns);
    note("< 6000 um^2 and < 3 ns: compact enough to drop into "
         "an embedded core as an accelerator block.");
}

/** Table 11 (processor characteristics) and Sec. 3.4.2's voltage
 *  scaling. */
void
table11()
{
    header("Table 11", "GF processor characteristics "
                       "(28nm @ 0.9V, 100MHz)");
    ProcessorSynthesis p;
    std::printf("%-28s %12s %12s %12s\n", "", "gate count", "area (um^2)",
                "power (uW)");
    std::printf("%-28s %12u %12.0f %12s\n", "2-stage shell: comb.",
                p.shell_comb_gates, p.shell_comb_area_um2, "-");
    std::printf("%-28s %12u %12.0f %12s\n", "2-stage shell: reg file",
                p.shell_rf_gates, p.shell_rf_area_um2, "-");
    std::printf("%-28s %12u %12.0f %12.0f\n", "2-stage shell: total",
                p.shell_total_gates, p.shell_total_area_um2,
                p.shell_power_uw);
    std::printf("%-28s %12u %12.0f %12.0f\n", "GF arithmetic unit",
                p.gfau_gates, p.gfau_area_um2, p.gfau_power_uw);
    std::printf("%-28s %12u %12.0f %12.0f\n", "design total",
                p.total_gates, p.total_area_um2, p.total_power_uw);

    std::printf("\nvoltage scaling (Sec. 3.4.2):\n");
    std::printf("  dynamic-only V^2 model @0.7V: %.1f uW\n",
                p.dynamicScaledPowerUw(0.7));
    std::printf("  paper's SPICE result   @0.7V: %.0f uW "
                "(GFAU %.0f uW) => %.2fx energy gain\n",
                p.total_power_uw_at_07v, p.gfau_power_uw_at_07v,
                p.voltageScalingEnergyGain());
    std::printf("  max clock: %.0f MHz (IoT domain needs ~%.0f MHz)\n",
                p.max_frequency_mhz, p.frequency_mhz);
}

/** Table 12: area against the smallest AES ASIC (Intel NanoAES). */
void
table12()
{
    header("Table 12", "area vs. the smallest AES ASIC "
                       "(Intel NanoAES, scaled to 28nm)");
    GfauSynthesis g;
    ProcessorSynthesis p;
    Literature lit;
    std::printf("  NanoAES encryption datapath:  %7.0f um^2\n",
                lit.nano_aes.enc_area);
    std::printf("  NanoAES decryption datapath:  %7.0f um^2\n",
                lit.nano_aes.dec_area);
    std::printf("  NanoAES total (enc + dec):    %7.0f um^2\n",
                lit.nano_aes.total_area);
    std::printf("  this work: GF arithmetic unit %7.0f um^2 "
                "(enc AND dec AND coding AND ECC)\n",
                g.total_area_um2);
    std::printf("  this work: full processor     %7.0f um^2\n",
                p.total_area_um2);
    std::printf("\n  GFAU / NanoAES-total  = %.2f (smaller than the "
                "fixed-function pair)\n",
                g.total_area_um2 / lit.nano_aes.total_area);
    std::printf("  processor extra area over NanoAES = %.1f%%\n",
                100.0 * (p.total_area_um2 - lit.nano_aes.total_area) /
                    lit.nano_aes.total_area);
    note("with ~63.5% more area than one fixed-function AES "
         "pair, the processor also covers RS/BCH flexibility "
         "and ECC — the multi-ASIC alternative costs far more.");
}

/** Table 13: energy per bit against the Zhang compact AES ASIC, from
 *  this reproduction's measured AES-128 block. */
void
table13()
{
    header("Table 13", "energy efficiency vs. compact AES ASIC "
                       "(28nm, 0.9V, 100MHz)");
    Aes aes(Bytes(16, 0x2b));
    AesBlock pt;
    pt.fill(0x5a);
    const uint64_t cycles =
        measure(aesBlockAsmGfcore(false), kGf,
                {{"rkeys", roundKeyBytes(aes)}, {"state", blockBytes(pt)}},
                {{"state", blockBytes(aes.encryptBlock(pt))}})
            .cycles;

    ProcessorSynthesis p;
    Literature lit;
    const double mbps =
        p.throughputMbps(128.0, static_cast<double>(cycles));
    const double pjb = p.energyPerBitPj(mbps);
    std::printf("%-14s %10s %12s %14s\n", "", "power(uW)", "thru (Mbps)",
                "energy (pJ/b)");
    std::printf("%-14s %10.0f %12.1f %14.2f\n", "Zhang ASIC",
                lit.zhang_aes.power_uw, lit.zhang_aes.throughput_mbps,
                lit.zhang_aes.pj_per_bit);
    std::printf("%-14s %10.0f %12.1f %14.2f   (paper's build)\n", "paper",
                p.total_power_uw, lit.paper_aes_throughput_mbps,
                lit.paper_aes_pj_per_bit);
    std::printf("%-14s %10.0f %12.1f %14.2f   (%llu cycles/block "
                "measured)\n",
                "this repro", p.total_power_uw, mbps, pjb, ull(cycles));
    std::printf("\n  ASIC advantage: %.1fx (paper ~6x) — programmable "
                "beats ASIC only when flexibility matters.\n",
                pjb / lit.zhang_aes.pj_per_bit);
}

/** Sec. 3.3.4: K-233 scalar multiplication with the 112-bit-security
 *  evaluation scalar and the resulting ECDH latency at 100 MHz. */
void
sec334()
{
    header("Sec 3.3.4", "K-233 scalar multiplication and ECDH latency");
    EllipticCurve curve = EllipticCurve::nist("K-233");
    const EcPoint &g = curve.basePoint();
    const Gf2x k = EllipticCurve::evaluationScalar(2026);
    const EcPoint want = curve.scalarMult(k, g);
    Bytes kwords = elemBytes(k);
    kwords.resize(16);

    Literature lit;
    ProcessorSynthesis p;
    for (bool kara : {false, true}) {
        const int failures = g_failures;
        const uint64_t cycles =
            measure(scalarMultAsm(kara), kGf,
                    {{"qx", elemBytes(g.x)},
                     {"qy", elemBytes(g.y)},
                     {"kwords", kwords},
                     {"kbits", wordBytes({k.bitLength()})}},
                    {{"resx", elemBytes(want.x)}, {"resy", elemBytes(want.y)}})
                .cycles;
        std::printf("  %-22s %9llu cycles  %6.2f ms @100MHz  "
                    "result %s\n",
                    kara ? "Karatsuba multiplier" : "direct multiplier",
                    ull(cycles), cycles / (p.frequency_mhz * 1000.0),
                    g_failures == failures ? "matches reference"
                                           : "MISMATCH");
    }
    std::printf("\n  paper: %u cycles for 112 PD + 56 PA (+%u support) "
                "= 7.75 ms scalar mult, ECDH < 8 ms\n",
                lit.paper_scalar_mult_cycles,
                lit.paper_scalar_support_cycles);
    std::printf("  (our measurement already includes the final "
                "projective-to-affine inversion)\n");
    note("latency of this order is paid once per session key "
         "exchange — acceptable for IoT (Sec. 3.3.4).");
}

// ------------------------------------------------------------------
// The paper's figures
// ------------------------------------------------------------------

/** Word error rate over @p trials and the code's rate. */
template <typename EncodeDecode>
std::pair<double, double>
trial(unsigned trials, EncodeDecode &&fn)
{
    unsigned failures = 0;
    double rate = 0;
    for (unsigned i = 0; i < trials; ++i) {
        auto [ok, r] = fn();
        failures += !ok;
        rate = r;
    }
    return {static_cast<double>(failures) / trials, rate};
}

/** A BCH word of random bits through @p ch and the host decoder. */
template <typename Channel>
std::pair<bool, double>
bchTrial(const BCHCode &code, Rng &rng, Channel &ch)
{
    std::vector<uint8_t> info(code.k());
    for (auto &bit : info)
        bit = static_cast<uint8_t>(rng.below(2));
    const auto cw = code.encode(info);
    const auto dec = code.decode(ch.transmit(cw));
    return {dec.ok && dec.codeword == cw, code.rate()};
}

/** An RS word of random bytes through @p ch and the host decoder. */
template <typename Channel>
std::pair<bool, double>
rsTrial(const RSCode &code, Rng &rng, Channel &ch)
{
    std::vector<GFElem> info(code.k());
    for (auto &sym : info)
        sym = rng.nextByte();
    const auto cw = code.encode(info);
    const auto dec = code.decode(ch.transmitSymbols(cw, 8));
    return {dec.ok && dec.codeword == cw, code.rate()};
}

/** Fig. 3 (Sec. 1.1): different channels favor different (n, k, t)
 *  codes, so one flexible GF datapath pays off.  Host codecs only. */
void
fig03()
{
    header("Fig 3 (motivation)", "coding flexibility: "
                                 "different channels favor different "
                                 "GF codes");
    const unsigned kTrials = 120;
    const std::pair<unsigned, unsigned> bch_specs[] = {
        {5, 1}, {5, 3}, {5, 5}, {6, 2}, {6, 4}};
    const std::pair<unsigned, unsigned> rs_specs[] = {{8, 2}, {8, 8}};

    for (double ber : {0.005, 0.02}) {
        std::printf("\nuniform channel (BSC), bit error rate %.3f:\n",
                    ber);
        std::printf("  %-16s %8s %10s\n", "code", "rate", "word-err");
        for (auto [m, t] : bch_specs) {
            BCHCode code(m, t);
            Rng rng(42);
            BscChannel ch(ber, 1000 + m * 10 + t);
            auto [wer, rate] =
                trial(kTrials, [&] { return bchTrial(code, rng, ch); });
            std::printf("  BCH(%2u,%2u,%u)    %8.3f %10.3f\n", code.n(),
                        code.k(), code.t(), rate, wer);
        }
        for (auto [m, t] : rs_specs) {
            RSCode code(m, t);
            Rng rng(43);
            BscChannel ch(ber, 2000 + t);
            auto [wer, rate] =
                trial(kTrials / 4, [&] { return rsTrial(code, rng, ch); });
            std::printf("  RS(%3u,%3u,%u)   %8.3f %10.3f\n", code.n(),
                        code.k(), code.t(), rate, wer);
        }
    }

    std::printf("\nbursty channel (Gilbert-Elliott, avg BER ~0.01, "
                "burst errors):\n");
    std::printf("  %-16s %8s %10s\n", "code", "rate", "word-err");
    {
        BCHCode bch(5, 3);
        Rng rng(7);
        GilbertElliottChannel ch(0.004, 0.12, 0.0005, 0.25, 77);
        auto [wer, rate] =
            trial(kTrials, [&] { return bchTrial(bch, rng, ch); });
        std::printf("  BCH(31,16,3)    %8.3f %10.3f\n", rate, wer);
    }
    {
        RSCode rs(8, 8);
        Rng rng(8);
        GilbertElliottChannel ch(0.004, 0.12, 0.0005, 0.25, 78);
        auto [wer, rate] =
            trial(kTrials / 4, [&] { return rsTrial(rs, rng, ch); });
        std::printf("  RS(255,239,8)   %8.3f %10.3f\n", rate, wer);
    }
    note("uniform errors: light BCH suffices at low BER, "
         "heavier t at high BER (rate/robustness trade).  "
         "bursts: RS symbols absorb multi-bit bursts that "
         "overwhelm comparable-rate BCH — exactly why one "
         "programmable GF datapath pays off.");
}

struct KernelCycles
{
    uint64_t hand = 0, compiled = 0, gf = 0;
};

void
printSpeedup(const char *name, const KernelCycles &c)
{
    std::printf("  %-10s %9llu %9llu %9llu   %6.1fx %6.1fx\n", name,
                ull(c.compiled), ull(c.hand), ull(c.gf),
                ratio(c.compiled, c.gf), ratio(c.hand, c.gf));
}

/** Syndrome, BMA and Chien rows of @p w, and Forney's when
 *  @p with_forney, then the overall row.  Every run of a kernel must
 *  produce the host decoder's intermediate. */
void
decoderRows(const Workload &w, bool with_forney)
{
    const GFField &f = w.field;
    const unsigned n = w.n, t = w.t;
    KernelCycles all;
    auto row = [&](const char *name, auto baseline, const std::string &gf,
                   const Blocks &in, const Blocks &out) {
        KernelCycles c;
        c.hand = measure(baseline(BaselineFlavor::kHandOptimized), kBase,
                         in, out)
                     .cycles;
        c.compiled =
            measure(baseline(BaselineFlavor::kCompiled), kBase, in, out)
                .cycles;
        c.gf = measure(gf, kGf, in, out).cycles;
        printSpeedup(name, c);
        all.hand += c.hand;
        all.compiled += c.compiled;
        all.gf += c.gf;
    };
    row("syndrome",
        [&](BaselineFlavor fl) { return syndromeAsmBaseline(f, n, 2 * t, fl); },
        syndromeAsmGfcore(f, n, 2 * t), w.rxBlock(), w.syndBlock());
    row("BMA", [&](BaselineFlavor fl) { return bmaAsmBaseline(f, 2 * t, fl); },
        bmaAsmGfcore(f, 2 * t), w.syndBlock(), w.lambdaBlock());
    row("Chien",
        [&](BaselineFlavor fl) { return chienAsmBaseline(f, n, t, fl); },
        chienAsmGfcore(f, n, t), w.lambdaBlock(), w.locsBlock());
    if (with_forney)
        row("Forney",
            [&](BaselineFlavor fl) { return forneyAsmBaseline(f, 2 * t, fl); },
            forneyAsmGfcore(f, 2 * t), w.forneyIn(), w.evalsBlock());
    printSpeedup("overall", all);
}

/** Fig. 9: per-kernel and overall decoder speedups over the M0+-class
 *  baseline for RS(255,239,8) and BCH(31,11,5), both baseline flavors
 *  (the paper's figure is the compiled one). */
void
fig09()
{
    header("Fig 9", "ECCr decoder speedup over the M0+ baseline");
    std::printf("columns: baseline-compiled, baseline-hand-optimized, "
                "GF processor cycles; speedups vs each baseline\n");

    std::printf("\nRS(255,239,8) on GF(2^8):  [paper: syndrome >20x,"
                " BMA smallest, Forney >10x, overall >10x]\n");
    decoderRows(rsWorkload(8, 8, 8, 1234), true);

    std::printf("\nBCH(31,11,5) on GF(2^5):  [paper: overall lower "
                "than RS; partial SIMD group at 10 syndromes]\n");
    decoderRows(bchWorkload(5, 5, 5, 77), false);
    note("no Forney for binary BCH: errors are corrected by "
         "bit flips (Sec. 3.3.2).");
}

/** Fig. 10: AES kernel and full-block speedups over the M0+-class
 *  baseline, each kernel checked against the host round function. */
void
fig10()
{
    header("Fig 10", "AES speedup over the M0+ baseline");
    const Bytes key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    const AesBlock state{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                         0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
    Aes aes(key);
    const Bytes rkeys = roundKeyBytes(aes);

    // Every kernel reads some subset of these inputs.
    const Blocks inputs = {
        {"state", blockBytes(state)}, {"rkeys", rkeys}, {"key", key}};
    auto after = [&](void (*round)(AesBlock &)) {
        AesBlock s = state;
        round(s);
        return Blocks{{"state", blockBytes(s)}};
    };
    AesBlock ark = state;
    Aes::addRoundKey(ark, aes.roundKeys().data());

    auto row = [&](const char *name, const std::string &base,
                   const std::string &gf, const Blocks &out,
                   const char *paper) {
        const uint64_t b = measure(base, kBase, inputs, out).cycles;
        const uint64_t g = measure(gf, kGf, inputs, out).cycles;
        std::printf("  %-16s %9llu %9llu   %6.1fx   paper: %s\n", name,
                    ull(b), ull(g), ratio(b, g), paper);
        return g;
    };

    std::printf("columns: baseline cycles, GF-core cycles, speedup\n\n");
    row("AddRoundKey", aesArkAsm(), aesArkAsm(),
        {{"state", blockBytes(ark)}}, "~1x (pure XOR)");
    row("SubBytes", aesSubBytesAsmBaseline(false),
        aesSubBytesAsmGfcore(false), after(Aes::subBytes),
        "high (table lookup -> gfMultInv_simd)");
    row("InvSubBytes", aesSubBytesAsmBaseline(true),
        aesSubBytesAsmGfcore(true), after(Aes::invSubBytes), "high");
    row("ShiftRows", aesShiftRowsAsm(false), aesShiftRowsAsm(false),
        after(Aes::shiftRows), "~1x (data movement)");
    row("MixCol (hand)",
        aesMixColAsmBaseline(false, BaselineFlavor::kHandOptimized),
        aesMixColAsmGfcore(false), after(Aes::mixColumns),
        ">10x vs compiled");
    row("MixCol (comp)",
        aesMixColAsmBaseline(false, BaselineFlavor::kCompiled),
        aesMixColAsmGfcore(false), after(Aes::mixColumns), ">10x");
    row("InvMixCol (hand)",
        aesMixColAsmBaseline(true, BaselineFlavor::kHandOptimized),
        aesMixColAsmGfcore(true), after(Aes::invMixColumns), "~20x");
    row("InvMixCol (comp)",
        aesMixColAsmBaseline(true, BaselineFlavor::kCompiled),
        aesMixColAsmGfcore(true), after(Aes::invMixColumns), "~20x");
    row("KeyExpansion", aesKeyExpandAsmBaseline(), aesKeyExpandAsmGfcore(),
        {{"xkey", wordBytes(aes.roundKeys())}}, "moderate");
    std::printf("\n");
    const uint64_t enc_gf =
        row("Encrypt block", aesBlockAsmBaseline(false),
            aesBlockAsmGfcore(false),
            {{"state", blockBytes(aes.encryptBlock(state))}}, ">5x");
    row("Decrypt block", aesBlockAsmBaseline(true), aesBlockAsmGfcore(true),
        {{"state", blockBytes(aes.decryptBlock(state))}}, ">10x");
    std::printf("\n  GF-core AES-128: %.1f cycles/byte -> %.1f Mbps @ "
                "100MHz (paper: 12.2 Mbps)\n",
                enc_gf / 16.0, 128.0 * 100.0 / enc_gf);
    note("shape: invMixCol gains ~2x the MixCol gains (the GF "
         "core is agnostic to coefficient values); decrypt "
         "gains exceed encrypt gains.");
}

// ------------------------------------------------------------------
// Ablations and extensions
// ------------------------------------------------------------------

/** Ablation (Sec. 2.4.3): the syndrome kernel at 1/2/4 live SIMD lanes,
 *  behind the paper's four-lane datapath. */
void
ablationSimdWidth()
{
    header("Ablation", "SIMD width (paper Sec. 2.4.3: why "
                       "four-way is the sweet spot)");
    const Workload w = rsWorkload(8, 8, 8, 4242);
    std::printf("RS(255,239,8) syndrome kernel, 16 syndromes:\n");
    std::printf("  %5s %10s %10s %10s\n", "lanes", "cycles", "vs 1-lane",
                "efficiency");
    uint64_t base = 0;
    for (unsigned lanes : {1u, 2u, 4u}) {
        const uint64_t c =
            measure(syndromeAsmGfcoreLanes(w.field, w.n, 16, lanes), kGf,
                    w.rxBlock(), w.syndBlock())
                .cycles;
        if (lanes == 1)
            base = c;
        std::printf("  %5u %10llu %9.2fx %9.0f%%\n", lanes, ull(c),
                    ratio(base, c), 100.0 * base / (c * lanes));
    }

    std::printf("\nBCH(31,11,5): 10 syndromes — a 4-lane pass wastes 2 "
                "lanes in the last group:\n");
    const Workload b = bchWorkload(5, 5, 5, 99);
    for (unsigned lanes : {1u, 2u, 4u})
        std::printf(
            "  %u lanes: %llu cycles\n", lanes,
            ull(measure(syndromeAsmGfcoreLanes(b.field, b.n, 10, lanes), kGf,
                        b.rxBlock(), b.syndBlock())
                    .cycles));
    note("scaling is near-linear up to 4 lanes; beyond that, "
         "Table 5's kernels run out of independent work (2t "
         "syndromes, 4-byte AES columns, nu <= t error "
         "locations), while a 32-bit partial product and a SIMD "
         "inverse both consume exactly 16 multipliers — the "
         "resource-sharing argument for stopping at 4.");
}

/** Ablation (Secs. 2.4.2/2.4.3): measured GF-unit duty cycles turned
 *  into a power estimate by the paper's data-gating percentages. */
void
ablationPowerGating()
{
    header("Ablation", "GF-unit duty cycle and the data-gating "
                       "power argument");
    ProcessorSynthesis p;
    const Workload w = rsWorkload(8, 8, 8, 11);
    Aes aes(Bytes(16, 0x77));
    AesBlock pt;
    pt.fill(1);
    BinaryField f233 = BinaryField::nist("233");
    const Gf2x a = f233.randomElement(1), b = f233.randomElement(2);

    struct Duty
    {
        const char *name;
        uint64_t gf_ops, cycles;
    };
    auto duty = [](const char *name, const std::string &src,
                   const Blocks &in, const Blocks &out) {
        const CycleStats s = measure(src, kGf, in, out);
        return Duty{name, s.gf_simd_ops + s.gf32_ops + s.gfcfg_ops,
                    s.cycles};
    };
    const Duty rows[] = {
        duty("RS syndrome", syndromeAsmGfcore(w.field, w.n, 16),
             w.rxBlock(), w.syndBlock()),
        duty("RS BMA", bmaAsmGfcore(w.field, 16), w.syndBlock(),
             w.lambdaBlock()),
        duty("AES-128 block", aesBlockAsmGfcore(false),
             {{"rkeys", roundKeyBytes(aes)}, {"state", blockBytes(pt)}},
             {{"state", blockBytes(aes.encryptBlock(pt))}}),
        duty("GF(2^233) mult", mult233DirectAsm(),
             {{"opa", elemBytes(a)}, {"opb", elemBytes(b)}},
             {{"result", elemBytes(f233.mul(a, b))}}),
    };

    // Power model: with data gating, an idle cycle costs 23% of an
    // active cycle (the paper's "77% dynamic power savings"); without
    // gating, the shared pipeline register toggles the unit every
    // cycle.  Calibrate the active-cycle power A so the gated model
    // reproduces the published 152 uW at the AES duty cycle.
    const double aes_duty =
        static_cast<double>(rows[2].gf_ops) / rows[2].cycles;
    const double active_uw =
        p.gfau_power_uw / (aes_duty + 0.23 * (1.0 - aes_duty));

    std::printf("%-16s %8s %8s %7s | %15s %15s %9s\n", "kernel", "GF ops",
                "cycles", "duty", "gated (uW)", "ungated (uW)", "saved");
    for (const Duty &d : rows) {
        const double dc = static_cast<double>(d.gf_ops) / d.cycles;
        const double gated = active_uw * (dc + 0.23 * (1.0 - dc));
        std::printf("%-16s %8llu %8llu %6.1f%% | %15.1f %15.1f %8.0f%%\n",
                    d.name, ull(d.gf_ops), ull(d.cycles), 100 * dc, gated,
                    active_uw, 100.0 * (1.0 - gated / active_uw));
    }
    std::printf("\npaper's claims, reproduced as constants with our "
                "duty cycles:\n");
    std::printf("  idle-unit data gating: 77%% dynamic savings while "
                "the unit idles (zero-feed inputs)\n");
    std::printf("  gf32bMult reduction-stage gating: 33%% power "
                "reduction during partial products\n");
    note("the duty cycles show why gating matters: even the "
         "densest kernel leaves the GFAU idle most cycles "
         "because loads/stores and control interleave.");
}

/** Extension (Sec. 3.1: encoding "is also feasible"): the systematic
 *  RS encoder on both cores. */
void
encoderExtension()
{
    header("Extension", "systematic RS encoder on both cores");
    std::printf("%-14s %10s %10s %10s | %8s %8s\n", "code", "compiled",
                "hand-opt", "GF core", "spd(c)", "spd(h)");
    for (auto [m, t] :
         {std::pair{8u, 8u}, {8u, 4u}, {8u, 2u}, {5u, 2u}}) {
        RSCode code(m, t);
        Rng rng(m + t);
        Bytes info(code.k());
        for (auto &b : info)
            b = static_cast<uint8_t>(rng.below(code.field().order()));
        const auto cw =
            code.encode(std::vector<GFElem>(info.begin(), info.end()));
        auto run = [&](const std::string &src, CoreKind kind) {
            return measure(src, kind, {{"infodata", info}},
                           {{"cwdata", Bytes(cw.begin(), cw.end())}})
                .cycles;
        };
        const uint64_t comp = run(
            rsEncodeAsmBaseline(code.field(), t, BaselineFlavor::kCompiled),
            kBase);
        const uint64_t hand =
            run(rsEncodeAsmBaseline(code.field(), t,
                                    BaselineFlavor::kHandOptimized),
                kBase);
        const uint64_t gf = run(rsEncodeAsmGfcore(code.field(), t), kGf);
        std::printf("RS(%3u,%3u,%u) %10llu %10llu %10llu | %7.1fx "
                    "%7.1fx\n",
                    code.n(), code.k(), t, ull(comp), ull(hand), ull(gf),
                    ratio(comp, gf), ratio(hand, gf));
    }
    note("the parity-register update (2t multiply-accumulates "
         "per symbol) vectorizes four coefficients per "
         "gfMult_simd — encode shows the same gains as the "
         "syndrome kernel.");
}

/** Every catalog kernel at zeroed inputs — the programs gfp-prof and
 *  the dispatch differential suite run — with its per-class op mix. */
void
kernelCatalogTable()
{
    header("Kernel catalog", "instructions, cycles and ops per class "
                             "at zeroed inputs");
    std::printf("%-24s %-4s %9s %9s", "kernel", "core", "instrs",
                "cycles");
    for (unsigned c = 0; c < kNumInstrClasses; ++c)
        std::printf(" %7s", instrClassName(static_cast<InstrClass>(c)));
    std::printf("\n");
    for (const KernelSource &k : kernelCatalog()) {
        const CycleStats s = measure(k.source, k.kind, {});
        std::printf("%-24s %-4s %9llu %9llu", k.name.c_str(),
                    k.kind == kBase ? "base" : "GF",
                    ull(s.instrs), ull(s.cycles));
        for (unsigned c = 0; c < kNumInstrClasses; ++c)
            std::printf(" %7llu",
                        ull(s.classOps(static_cast<InstrClass>(c))));
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **)
{
    if (argc != 1) {
        std::fprintf(stderr, "usage: gfp-paper (takes no options)\n");
        return 2;
    }
    table02();
    table03();
    table04();
    table05();
    table06();
    table07();
    table08();
    table09();
    table10();
    table11();
    table12();
    table13();
    sec334();
    fig03();
    fig09();
    fig10();
    ablationSimdWidth();
    ablationPowerGating();
    encoderExtension();
    kernelCatalogTable();
    return g_failures ? 1 : 0;
}
