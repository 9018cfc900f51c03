// Recorded syndrome-trace fixtures (tests/data/, see its README.md): the
// golden replay tests take their noise from these files instead of from
// record_trace(), so the pinned outputs are a function of the decoder
// stack alone and survive any change to the noise sampler's RNG stream.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "stream/service.hpp"
#include "stream/trace.hpp"

#ifndef QEC_TEST_DATA_DIR
#error "trace fixtures require the QEC_TEST_DATA_DIR compile definition"
#endif

namespace qec {

/// Loads tests/data/`name` and checks that its header records exactly the
/// noise `config` names (seed, distance, p, lanes, rounds). A missing or
/// corrupt fixture throws TraceError, which fails the calling test.
inline SyndromeTrace load_trace_fixture(const std::string& name,
                                        const StreamConfig& config) {
  SyndromeTrace trace =
      SyndromeTrace::load(std::string(QEC_TEST_DATA_DIR) + "/" + name);
  const TraceHeader& header = trace.header();
  const int noisy_rounds = config.rounds > 0 ? config.rounds : config.distance;
  EXPECT_EQ(header.seed, config.seed) << name;
  EXPECT_EQ(header.distance, static_cast<std::uint32_t>(config.distance))
      << name;
  EXPECT_EQ(header.p_data, config.p) << name;
  EXPECT_EQ(header.p_meas, config.p) << name;
  EXPECT_EQ(header.lanes, static_cast<std::uint32_t>(config.lanes)) << name;
  EXPECT_EQ(header.rounds, static_cast<std::uint32_t>(noisy_rounds + 1))
      << name;
  return trace;
}

}  // namespace qec
