#include "mwpm/windowed_mwpm.hpp"

#include <algorithm>
#include <stdexcept>

#include "mwpm/mwpm_decoder.hpp"

namespace qec {

WindowedMwpmDecoder::WindowedMwpmDecoder(WindowConfig config)
    : config_(config) {
  if (config.window < 1 || config.guard < 0 || config.guard >= config.window) {
    throw std::invalid_argument("need window >= 1 and 0 <= guard < window");
  }
}

DecodeResult WindowedMwpmDecoder::decode(const PlanarLattice& lattice,
                                         const SyndromeHistory& history) {
  std::vector<Defect> pending;
  std::vector<MatchedPair> committed;
  last_windows_ = 0;

  const int total = history.total_rounds();
  auto run_window = [&](int newest_layer, bool final_flush) {
    ++last_windows_;
    const auto pairs = MwpmDecoder::match_defects(lattice, pending);
    const int commit_before = newest_layer - config_.guard;
    std::vector<Defect> done;
    for (const auto& pair : pairs) {
      const int latest = pair.to_boundary ? pair.a.t
                                          : std::max(pair.a.t, pair.b.t);
      if (!final_flush && latest >= commit_before) continue;
      committed.push_back(pair);
      done.push_back(pair.a);
      if (!pair.to_boundary) done.push_back(pair.b);
    }
    std::erase_if(pending, [&](const Defect& d) {
      return std::find(done.begin(), done.end(), d) != done.end();
    });
  };

  for (int t = 0; t < total; ++t) {
    for (Defect d : collect_defects(
             lattice, {history.difference[static_cast<std::size_t>(t)]})) {
      d.t = t;
      pending.push_back(d);
    }
    if (t + 1 >= config_.window && !pending.empty()) {
      run_window(t, /*final_flush=*/false);
    }
  }
  if (!pending.empty()) run_window(total - 1, /*final_flush=*/true);

  DecodeResult result;
  result.correction = pairs_to_correction(lattice, committed);
  result.work = static_cast<std::uint64_t>(last_windows_);
  return result;
}

}  // namespace qec
