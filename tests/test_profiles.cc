/**
 * @file
 * Tests for the named PIM hardware profiles and the energy helpers.
 */

#include <gtest/gtest.h>

#include "baselines/platform_model.hh"
#include "pimsim/profiles.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using namespace swiftrl::pimsim;

TEST(Profiles, BothProfilesValidate)
{
    for (const auto &profile : allProfiles()) {
        validate(profile.costModel);
        EXPECT_FALSE(profile.name.empty());
    }
}

TEST(Profiles, UpmemProfileIsTheDefault)
{
    const auto p = upmemProfile();
    const DpuCostModel def;
    for (std::size_t i = 0; i < kNumOpClasses; ++i)
        EXPECT_EQ(p.costModel.instructions[i], def.instructions[i]);
    EXPECT_EQ(p.costModel.pipelineInterval, def.pipelineInterval);
}

TEST(Profiles, FpCapableMakesFloatCheap)
{
    const auto upmem = upmemProfile().costModel;
    const auto fp = fpCapableProfile().costModel;
    EXPECT_LT(fp.cyclesFor(OpClass::Fp32Mul),
              upmem.cyclesFor(OpClass::Fp32Mul) / 10);
    EXPECT_LT(fp.cyclesFor(OpClass::Int32Mul),
              upmem.cyclesFor(OpClass::Int32Mul));
    // Memory system is identical: differences isolate arithmetic.
    EXPECT_EQ(fp.mramDmaFixedCycles, upmem.mramDmaFixedCycles);
    EXPECT_EQ(fp.pipelineInterval, upmem.pipelineInterval);
}

TEST(Profiles, Int32OptimisationIsProfileSpecific)
{
    // The whole point of the profile pair: INT32 wins on UPMEM-like,
    // not on FP-capable hardware.
    auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
    const auto data =
        swiftrl::rlcore::collectRandomDataset(*env, 2000, 1);

    auto kernel_time = [&](const PimProfile &profile,
                           swiftrl::rlcore::NumericFormat format) {
        PimConfig cfg;
        cfg.numDpus = 4;
        cfg.mramBytesPerDpu = 8u << 20;
        cfg.costModel = profile.costModel;
        PimSystem system(cfg);
        swiftrl::SessionConfig tcfg;
        tcfg.workload =
            swiftrl::Workload{swiftrl::rlcore::Algorithm::QLearning,
                              swiftrl::rlcore::Sampling::Seq, format};
        tcfg.hyper.episodes = 3;
        tcfg.tau = 3;
        swiftrl::PimTrainer trainer(system, tcfg);
        return trainer.train(data, 16, 4).time.kernel;
    };

    using swiftrl::rlcore::NumericFormat;
    const double upmem_ratio =
        kernel_time(upmemProfile(), NumericFormat::Fp32) /
        kernel_time(upmemProfile(), NumericFormat::Int32);
    const double fp_ratio =
        kernel_time(fpCapableProfile(), NumericFormat::Fp32) /
        kernel_time(fpCapableProfile(), NumericFormat::Int32);
    EXPECT_GT(upmem_ratio, 5.0);
    EXPECT_LT(fp_ratio, 1.5);
}

TEST(Energy, WattsScaleWithCoresInUse)
{
    const PimConfig cfg;
    EXPECT_NEAR(cfg.wattsInUse(2524), 280.0, 1e-9);
    EXPECT_NEAR(cfg.wattsInUse(1262), 140.0, 1e-9);
    EXPECT_GT(cfg.wattsInUse(125), 0.0);
}

TEST(Energy, JoulesAreTimesTdp)
{
    EXPECT_DOUBLE_EQ(swiftrl::baselines::energyJoules(2.0, 85.0),
                     170.0);
    EXPECT_DOUBLE_EQ(swiftrl::baselines::energyJoules(0.0, 350.0),
                     0.0);
}

TEST(Energy, PlatformTdpsMatchTable1)
{
    EXPECT_DOUBLE_EQ(swiftrl::baselines::xeonSilver4110().tdpWatts,
                     85.0);
    EXPECT_DOUBLE_EQ(swiftrl::baselines::rtx3090().tdpWatts, 350.0);
}

TEST(Convergence, RoundDeltasShrink)
{
    auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
    const auto data =
        swiftrl::rlcore::collectRandomDataset(*env, 20000, 1);
    PimConfig pim;
    pim.numDpus = 8;
    PimSystem system(pim);
    swiftrl::SessionConfig cfg;
    cfg.workload =
        swiftrl::Workload{swiftrl::rlcore::Algorithm::QLearning,
                          swiftrl::rlcore::Sampling::Seq,
                          swiftrl::rlcore::NumericFormat::Int32};
    cfg.hyper.episodes = 60;
    cfg.tau = 10;
    swiftrl::PimTrainer trainer(system, cfg);
    const auto result = trainer.train(data, 16, 4);

    ASSERT_EQ(result.roundDeltas.size(), 6u);
    EXPECT_GT(result.roundDeltas.front(), 0.0f);
    // Q-learning converges: the last round moves far less than the
    // first.
    EXPECT_LT(result.roundDeltas.back(),
              result.roundDeltas.front() * 0.5f);
}

} // namespace
