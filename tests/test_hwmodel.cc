/**
 * @file
 * Tests for the hardware cost model: the Table 2 / Table 4 closed
 * forms must match the gate-by-gate accounting, and the Table 3/10/11
 * calibration constants must be internally consistent with the paper.
 */

#include <gtest/gtest.h>

#include "hwmodel/resource_models.h"
#include "hwmodel/synthesis.h"

namespace gfp {
namespace {

TEST(ResourceModel, Table2ClosedFormsMatchGateCounts)
{
    for (unsigned m = 2; m <= 16; ++m) {
        EXPECT_NEAR(systolicMultCost(m).areaUnits(),
                    systolicMultAreaClosedForm(m), 1e-9)
            << "m=" << m;
        // The paper drops the +2.25 constant term in its closed form.
        EXPECT_NEAR(linearTransformMultCost(m).areaUnits(),
                    linearMultAreaClosedForm(m) + 2.25, 1e-9)
            << "m=" << m;
    }
}

TEST(ResourceModel, Table2ThisWorkIsSmaller)
{
    for (unsigned m = 2; m <= 16; ++m) {
        EXPECT_LT(linearTransformMultCost(m).areaUnits(),
                  systolicMultCost(m).areaUnits());
    }
    // At m=8 the systolic multiplier is ~2.6x larger.
    double ratio = systolicMultAreaClosedForm(8) /
                   linearMultAreaClosedForm(8);
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 3.0);
}

TEST(ResourceModel, Table2ConfigCostInverts)
{
    // The price of the single-step reduction: a larger shared config
    // register (m(m-1) vs m flip-flops) — amortized across all ALUs.
    EXPECT_EQ(systolicMultConfigFf(8), 8);
    EXPECT_EQ(linearMultConfigFf(8), 56); // the 56-bit P matrix
}

TEST(ResourceModel, Table4ClosedFormsMatch)
{
    for (unsigned m = 2; m <= 16; ++m) {
        // m^2 coefficients only (the paper's own approximation).
        double md = m;
        EXPECT_NEAR(systolicInverseAreaClosedForm(m), 57.0 * md * md,
                    1e-9);
        EXPECT_NEAR(itaInverseAreaClosedForm(m), 48.75 * md * md, 1e-9);
        // Exact accounting stays below the systolic design.
        EXPECT_LT(itaInverseCost(m).areaUnits(),
                  systolicEuclidInverseCost(m).areaUnits())
            << "m=" << m;
    }
}

TEST(ResourceModel, Table4M2CoefficientsAreExact)
{
    // Verify the m^2 coefficients by finite differencing the exact
    // gate counts.
    auto quad_coeff = [](double f2, double f4) {
        // f(m) = a m^2 + b m + c  =>  a = (f(4) - 2 f(2)) / 8 ... use
        // three points instead.
        return (f4 - 2 * f2) / 8.0;
    };
    (void)quad_coeff;
    double a_sys = (systolicEuclidInverseCost(16).areaUnits() -
                    2 * systolicEuclidInverseCost(8).areaUnits()) /
                   128.0;
    double a_ita = (itaInverseCost(16).areaUnits() -
                    2 * itaInverseCost(8).areaUnits()) / 128.0;
    EXPECT_NEAR(a_sys, 57.0, 0.5);
    EXPECT_NEAR(a_ita, 48.75, 0.5);
}

TEST(Synthesis, Table3ArraysAreConsistent)
{
    GfauSynthesis g;
    // 16 multipliers at 199.59 um^2 = 3193.44; the paper prints 3193.
    EXPECT_NEAR(g.multArrayArea(), 3193.0, 1.0);
    EXPECT_NEAR(g.squareArrayArea(), 1777.0, 1.0);
    // A multiplier is ~3.1x the area of a square unit — why squares
    // are a separate primitive.
    EXPECT_NEAR(g.mult.area_um2 / g.square.area_um2, 3.14, 0.1);
}

TEST(Synthesis, Table10PrintedTotalDiscrepancy)
{
    // The published total (5760) is less than the column sum (5975);
    // we keep both and report the difference explicitly.
    GfauSynthesis g;
    EXPECT_EQ(g.columnSumArea(), 5975.0);
    EXPECT_EQ(g.total_area_um2, 5760.0);
}

TEST(Synthesis, Table11Composition)
{
    ProcessorSynthesis p;
    EXPECT_EQ(p.shell_comb_gates + p.shell_rf_gates, p.shell_total_gates);
    EXPECT_EQ(p.shell_comb_area_um2 + p.shell_rf_area_um2,
              p.shell_total_area_um2);
    EXPECT_EQ(p.shell_total_gates + p.gfau_gates, p.total_gates);
    EXPECT_EQ(p.shell_total_area_um2 + p.gfau_area_um2,
              p.total_area_um2);
    EXPECT_EQ(p.shell_power_uw + p.gfau_power_uw, p.total_power_uw);
}

TEST(Synthesis, VoltageScaling)
{
    ProcessorSynthesis p;
    // SPICE-measured gain is 1.86x.
    EXPECT_NEAR(p.voltageScalingEnergyGain(), 1.86, 0.01);
    // Dynamic-only V^2 scaling under-predicts the gain (no leakage /
    // margin modeling): 431 * (0.7/0.9)^2 = 260.7 uW vs SPICE 231.
    EXPECT_NEAR(p.dynamicScaledPowerUw(0.7), 260.7, 0.5);
    EXPECT_GT(p.dynamicScaledPowerUw(0.7), p.total_power_uw_at_07v);
}

TEST(Synthesis, EnergyPerBitMatchesPaperHeadline)
{
    // 431 uW at 12.2 Mbps is 35.3 pJ/b; the paper rounds to 35.5.
    ProcessorSynthesis p;
    Literature lit;
    double pj = p.energyPerBitPj(lit.paper_aes_throughput_mbps);
    EXPECT_NEAR(pj, lit.paper_aes_pj_per_bit, 0.4);
}

TEST(Synthesis, ThroughputHelper)
{
    ProcessorSynthesis p;
    // 128 bits in 1049 cycles at 100 MHz = 12.2 Mbps (paper headline).
    EXPECT_NEAR(p.throughputMbps(128, 1049), 12.2, 0.05);
}

TEST(Synthesis, Table12AreaComparison)
{
    GfauSynthesis g;
    ProcessorSynthesis p;
    Literature lit;
    // Our GFAU (both directions) is smaller than NanoAES enc+dec.
    EXPECT_LT(g.total_area_um2, lit.nano_aes.total_area);
    // "63.5% additional area in total" for the whole processor.
    double extra = (p.total_area_um2 - lit.nano_aes.total_area) /
                   lit.nano_aes.total_area;
    EXPECT_NEAR(extra, 0.635, 0.01);
}

TEST(Synthesis, Table13EnergyGapVsAsic)
{
    Literature lit;
    // ~6x more energy per bit than the Zhang ASIC.
    double gap = lit.paper_aes_pj_per_bit / lit.zhang_aes.pj_per_bit;
    EXPECT_GT(gap, 5.0);
    EXPECT_LT(gap, 6.5);
}

} // namespace
} // namespace gfp
