// Cross-decoder integration tests: every decoder must produce a valid
// correction on identical histories, and their relative accuracy must
// reflect the paper's ordering (Table IV).
#include <gtest/gtest.h>

#include <memory>

#include "aqec/aqec_decoder.hpp"
#include "decoder/decoder.hpp"
#include "decoder/registry.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/online_runner.hpp"
#include "qecool/qecool_decoder.hpp"
#include "sim/monte_carlo.hpp"
#include "surface_code/pauli_frame.hpp"
#include "unionfind/uf_decoder.hpp"

namespace qec {
namespace {

std::vector<std::unique_ptr<Decoder>> all_decoders() {
  std::vector<std::unique_ptr<Decoder>> out;
  out.push_back(std::make_unique<MwpmDecoder>());
  out.push_back(std::make_unique<UnionFindDecoder>());
  out.push_back(std::make_unique<BatchQecoolDecoder>());
  out.push_back(std::make_unique<AqecDecoder>());
  return out;
}

struct IntegrationCase {
  int distance;
  double p;
  int rounds;
};

class AllDecoders : public ::testing::TestWithParam<IntegrationCase> {};

TEST_P(AllDecoders, ValidCorrectionsOnSharedHistories) {
  const auto param = GetParam();
  const PlanarLattice lat(param.distance);
  Xoshiro256ss rng(0xabcd + static_cast<unsigned>(param.distance));
  auto decoders = all_decoders();
  for (int trial = 0; trial < 15; ++trial) {
    const auto h =
        sample_history(lat, {param.p, param.p, param.rounds}, rng);
    for (auto& dec : decoders) {
      const auto r = dec->decode(lat, h);
      ASSERT_TRUE(residual_syndrome_free(lat, h, r))
          << dec->name() << " trial " << trial;
      ASSERT_EQ(static_cast<int>(r.correction.size()), lat.num_data())
          << dec->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllDecoders,
    ::testing::Values(IntegrationCase{3, 0.02, 3}, IntegrationCase{5, 0.01, 5},
                      IntegrationCase{5, 0.05, 5}, IntegrationCase{7, 0.02, 7},
                      IntegrationCase{9, 0.01, 9}),
    [](const ::testing::TestParamInfo<IntegrationCase>& info) {
      return "d" + std::to_string(info.param.distance) + "_p" +
             std::to_string(static_cast<int>(info.param.p * 1000));
    });

TEST(DecoderOrdering, MwpmIsMostAccurate) {
  // Aggregate accuracy over shared histories must respect Table IV's
  // ordering: MWPM <= {UF, QECOOL} failures (within noise margin).
  const PlanarLattice lat(7);
  Xoshiro256ss rng(2024);
  MwpmDecoder mwpm;
  UnionFindDecoder uf;
  BatchQecoolDecoder qecool;
  int fm = 0, fu = 0, fq = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 7}, rng);
    fm += logical_failure(lat, h, mwpm.decode(lat, h));
    fu += logical_failure(lat, h, uf.decode(lat, h));
    fq += logical_failure(lat, h, qecool.decode(lat, h));
  }
  EXPECT_LE(fm, fu + 4);
  EXPECT_LE(fm, fq + 4);
  EXPECT_LE(fu, fq + 6) << "UF should also beat greedy QECOOL at p=0.02";
}

TEST(DecoderOrdering, EveryoneDecodesTrivialHistories) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(7);
  const auto h = sample_history(lat, {0.0, 0.0, 5}, rng);
  for (auto& dec : all_decoders()) {
    const auto r = dec->decode(lat, h);
    EXPECT_TRUE(is_zero(r.correction)) << dec->name();
    EXPECT_FALSE(logical_failure(lat, h, r)) << dec->name();
  }
}

TEST(OnlineVsBatch, AgreeAtUnlimitedBudgetOnAggregate) {
  // Online with thv=3 and unlimited cycles should be close to batch-QECOOL
  // in accuracy (slightly worse by construction, never wildly off).
  const int trials = 300;
  const auto cfg = phenomenological_config(5, 0.01, trials, 5150);
  const auto rb = run_memory_experiment(decoder_maker("qecool"), cfg);
  OnlineConfig online;  // unlimited budget
  const auto ro = run_online_experiment(cfg, online);
  EXPECT_LE(static_cast<double>(rb.failures),
            static_cast<double>(ro.failures) + trials * 0.03);
  EXPECT_LE(static_cast<double>(ro.failures),
            static_cast<double>(rb.failures) + trials * 0.05);
}

TEST(LogicalObservable, DecodingTruthNeverFails) {
  // Feeding the exact error back as the correction always succeeds — the
  // scoring pipeline itself must not create phantom failures.
  const PlanarLattice lat(7);
  Xoshiro256ss rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = sample_history(lat, {0.05, 0.05, 7}, rng);
    DecodeResult r;
    r.correction = h.final_error;
    EXPECT_FALSE(logical_failure(lat, h, r));
    EXPECT_TRUE(residual_syndrome_free(lat, h, r));
  }
}

}  // namespace
}  // namespace qec
