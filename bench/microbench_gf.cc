/**
 * @file
 * Google-benchmark microbenchmarks for the host-side reference
 * libraries: GF(2^m) arithmetic, wide-field operations, codec
 * throughput, AES, and simulator speed.  These characterize the
 * reproduction's own substrate (not the paper's silicon).
 *
 * JSON output is Google Benchmark's own, e.g.
 *     microbench_gf --benchmark_out=BENCH_gf.json \
 *         --benchmark_out_format=json
 * and its context records the host's carry-less multiply backend
 * (clmul_backend: pclmul or portable).
 */

#include <benchmark/benchmark.h>

#include "coding/bch.h"
#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/ecc.h"
#include "gf/binary_field.h"
#include "gf/clmul.h"
#include "gf/field.h"
#include "kernels/aes_kernels.h"
#include "sim/machine.h"

namespace {

using namespace gfp;

void
BM_GFMulCarryless(benchmark::State &state)
{
    GFField f(state.range(0));
    Rng rng(1);
    GFElem a = rng.below(f.order()), b = rng.below(f.order());
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = f.mul(a, b ? b : 1));
    }
}
BENCHMARK(BM_GFMulCarryless)->Arg(4)->Arg(8)->Arg(16);

void
BM_GFMulTable(benchmark::State &state)
{
    GFField f(state.range(0));
    Rng rng(1);
    GFElem a = rng.below(f.order()), b = rng.below(f.order());
    for (auto _ : state)
        benchmark::DoNotOptimize(a = f.mulTable(a ? a : 1, b ? b : 1));
}
BENCHMARK(BM_GFMulTable)->Arg(8)->Arg(16);

void
BM_Gf233Mul(benchmark::State &state)
{
    BinaryField f = BinaryField::nist("233");
    Gf2x a = f.randomElement(1), b = f.randomElement(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(a = f.mul(a, b));
}
BENCHMARK(BM_Gf233Mul);

void
BM_Gf233MulPortable(benchmark::State &state)
{
    // Same multiply with the hardware clmul instruction masked off —
    // the accelerated-vs-portable ratio for this host.
    BinaryField f = BinaryField::nist("233");
    Gf2x a = f.randomElement(1), b = f.randomElement(2);
    setClmulPortableOnly(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(a = f.mul(a, b));
    setClmulPortableOnly(false);
}
BENCHMARK(BM_Gf233MulPortable);

void
BM_Gf233MulSchoolbook32(benchmark::State &state)
{
    // The 32-bit-limb schoolbook product that models the paper's
    // gf32bMult datapath — the pre-clmul host baseline.
    BinaryField f = BinaryField::nist("233");
    Gf2x a = f.randomElement(1), b = f.randomElement(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(a = f.reduce(a.mulSchoolbook(b)));
}
BENCHMARK(BM_Gf233MulSchoolbook32);

void
BM_Gf233InverseIta(benchmark::State &state)
{
    BinaryField f = BinaryField::nist("233");
    Gf2x a = f.randomElement(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.invItohTsujii(a));
}
BENCHMARK(BM_Gf233InverseIta);

void
BM_RsDecode(benchmark::State &state)
{
    RSCode code(8, state.range(0));
    Rng rng(5);
    std::vector<GFElem> info(code.k());
    for (auto &s : info)
        s = rng.nextByte();
    ExactErrorInjector inj(6);
    auto rx = inj.corruptSymbols(code.encode(info), code.t(), 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.decode(rx));
    state.SetBytesProcessed(state.iterations() * code.k());
}
BENCHMARK(BM_RsDecode)->Arg(2)->Arg(8);

void
BM_BchDecode(benchmark::State &state)
{
    BCHCode code(5, 5);
    Rng rng(5);
    std::vector<uint8_t> info(code.k());
    for (auto &b : info)
        b = rng.below(2);
    ExactErrorInjector inj(6);
    auto rx = inj.flipBits(code.encode(info), 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.decode(rx));
}
BENCHMARK(BM_BchDecode);

void
BM_AesEncryptBlock(benchmark::State &state)
{
    Aes aes(std::vector<uint8_t>(16, 0x42));
    AesBlock block{};
    for (auto _ : state) {
        block = aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void
BM_EccScalarMult(benchmark::State &state)
{
    EllipticCurve curve = EllipticCurve::nist("K-233");
    Gf2x k = EllipticCurve::evaluationScalar(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(curve.scalarMult(k, curve.basePoint()));
}
BENCHMARK(BM_EccScalarMult);

void
BM_EccScalarMultWindow(benchmark::State &state)
{
    EllipticCurve curve = EllipticCurve::nist("K-233");
    Gf2x k = EllipticCurve::evaluationScalar(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            curve.scalarMultWindow(k, curve.basePoint()));
}
BENCHMARK(BM_EccScalarMultWindow);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // How fast the single-step simulator retires the GF-core AES block.
    Aes aes(std::vector<uint8_t>(16, 0x42));
    Machine m(aesBlockAsmGfcore(false), CoreKind::kGfProcessor);
    std::vector<uint8_t> rk;
    for (uint32_t w : aes.roundKeys())
        for (int b = 3; b >= 0; --b)
            rk.push_back(static_cast<uint8_t>(w >> (8 * b)));
    m.writeBytes("rkeys", rk);
    uint64_t instrs = 0;
    for (auto _ : state) {
        m.reset();
        instrs += m.runOk().instrs;
    }
    state.SetItemsProcessed(static_cast<int64_t>(instrs));
}
BENCHMARK(BM_SimulatorThroughput);

} // namespace

using namespace gfp;

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::AddCustomContext("clmul_backend", clmulBackend().name);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
