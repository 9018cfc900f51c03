// Tests for the decoder registry: spec parsing, option plumbing, extension
// registration, and the match-stats hook on the Decoder interface.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "decoder/registry.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/qecool_decoder.hpp"
#include "sim/monte_carlo.hpp"

namespace qec {
namespace {

TEST(Registry, ConstructsEveryBuiltin) {
  const auto names = registered_decoders();
  EXPECT_GE(names.size(), 6u);
  for (const auto& name : names) {
    const auto decoder = make_decoder(name);
    ASSERT_NE(decoder, nullptr) << name;
    EXPECT_FALSE(decoder->name().empty()) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_decoder("not-a-decoder"), std::invalid_argument);
}

TEST(Registry, UnknownOptionThrows) {
  EXPECT_THROW(make_decoder("qecool:tvh=3"), std::invalid_argument);
  EXPECT_THROW(make_decoder("mwpm:window=4"), std::invalid_argument);
}

TEST(Registry, MalformedOptionsThrow) {
  EXPECT_THROW(make_decoder("qecool:thv"), std::invalid_argument);
  EXPECT_THROW(make_decoder("qecool:thv="), std::invalid_argument);
  EXPECT_THROW(make_decoder("qecool:=3"), std::invalid_argument);
  EXPECT_THROW(make_decoder("qecool:thv=abc"), std::invalid_argument);
  EXPECT_THROW(make_decoder("qecool:start_at_max_hop=maybe"),
               std::invalid_argument);
}

/// The message of the invalid_argument `fn` throws ("" if it does not).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Registry, OutOfRangeIntegersThrowNamingTheKey) {
  // A long that does not fit an int must not wrap: 4294967303 would read
  // as 7 and 2147483648 as INT_MIN. strtol's own overflow (ERANGE) too.
  for (const char* spec :
       {"qecool:reg_depth=4294967303", "qecool:thv=2147483648",
        "qecool:nlimit=-2147483649", "qecool:thv=99999999999999999999",
        "windowed-mwpm:window=4294967297"}) {
    const std::string what = error_of([&] { make_decoder(spec); });
    EXPECT_NE(what.find("out of int range"), std::string::npos) << spec;
  }
  EXPECT_NE(error_of([] { make_decoder("qecool:reg_depth=4294967303"); })
                .find("'reg_depth'"),
            std::string::npos);
  // The int range's own edges still parse.
  const auto parsed = DecoderOptions::parse("a=2147483647,b=-2147483648");
  EXPECT_EQ(parsed.get_int("a", 0), 2147483647);
  EXPECT_EQ(parsed.get_int("b", 0), -2147483647 - 1);
  EXPECT_FALSE(parsed.get_int("absent").has_value());
}

TEST(Registry, StaleCacheKeysThrowNamingTheKey) {
  // The decode-window cache and its spec keys are gone; a spec that still
  // sets one must fail loudly, never be silently accepted.
  for (const auto& [spec, key] :
       {std::pair{"qecool:cache=on", "'cache'"},
        std::pair{"qecool:cache_entries=8", "'cache_entries'"},
        std::pair{"qecool:cache_max_defects=6", "'cache_max_defects'"}}) {
    const std::string decoder = error_of([&] { make_decoder(spec); });
    EXPECT_NE(decoder.find(key), std::string::npos) << spec << ": " << decoder;
    const std::string online = error_of([&] { online_engine_config(spec); });
    EXPECT_NE(online.find(key), std::string::npos) << spec << ": " << online;
  }
}

TEST(Registry, OptionsReachTheDecoder) {
  // reg_depth=1 cannot hold a d=5 batch history (decode() resizes it, so
  // probe indirectly: start_at_max_hop changes the decode result at a
  // conflict-heavy error rate).
  ExperimentConfig config = phenomenological_config(7, 0.04, 200, 11);
  const auto escalating = run_memory_experiment(
      decoder_maker("qecool"), config);
  const auto max_hop = run_memory_experiment(
      decoder_maker("qecool:start_at_max_hop=1"), config);
  EXPECT_NE(escalating.failures, max_hop.failures);
}

TEST(Registry, WindowedMwpmOptionsParse) {
  const auto decoder = make_decoder("windowed-mwpm:window=4,guard=2");
  EXPECT_EQ(decoder->name(), "Windowed-MWPM");
}

TEST(Registry, DecoderMakerProducesFreshInstances) {
  const auto maker = decoder_maker("qecool");
  const auto a = maker();
  const auto b = maker();
  EXPECT_NE(a.get(), b.get());
}

TEST(Registry, DecoderMakerValidatesEagerly) {
  EXPECT_THROW(decoder_maker("nope"), std::invalid_argument);
}

TEST(Registry, CustomRegistrationIsVisible) {
  register_decoder("test-mwpm-alias", [](const DecoderOptions&) {
    return std::make_unique<MwpmDecoder>();
  });
  const auto decoder = make_decoder("test-mwpm-alias");
  EXPECT_EQ(decoder->name(), "MWPM");
  const auto names = registered_decoders();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-mwpm-alias"),
            names.end());
}

TEST(MatchStatsHook, QecoolExposesStatsAfterDecode) {
  const PlanarLattice lattice(5);
  NoiseParams params;
  params.p_data = params.p_meas = 0.05;
  params.rounds = 5;
  Xoshiro256ss rng(42);
  const SyndromeHistory history = sample_history(lattice, params, rng);

  BatchQecoolDecoder qecool;
  ASSERT_NE(qecool.match_stats(), nullptr);
  qecool.decode(lattice, history);
  EXPECT_GT(qecool.match_stats()->total(), 0u);
  EXPECT_EQ(qecool.match_stats(), &qecool.last_match_stats());
}

TEST(MatchStatsHook, StatlessDecodersReturnNull) {
  MwpmDecoder mwpm;
  EXPECT_EQ(mwpm.match_stats(), nullptr);
}

}  // namespace
}  // namespace qec
