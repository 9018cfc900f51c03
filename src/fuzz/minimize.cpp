#include "fuzz/minimize.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace qec::fuzz {

SyndromeTrace keep_lanes(const SyndromeTrace& trace,
                         const std::vector<int>& keep) {
  assert(!keep.empty());
  TraceHeader header = trace.header();
  header.lanes = static_cast<std::uint32_t>(keep.size());
  SyndromeTrace out(header);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const int src = keep[i];
    for (int round = 0; round < trace.rounds(); ++round) {
      out.set_layer(static_cast<int>(i), round, trace.layer(src, round));
    }
    out.set_final_error(static_cast<int>(i), trace.final_error(src));
  }
  return out;
}

SyndromeTrace truncate_rounds(const SyndromeTrace& trace, int rounds) {
  assert(rounds >= 1);
  rounds = std::min(rounds, trace.rounds());
  TraceHeader header = trace.header();
  header.rounds = static_cast<std::uint32_t>(rounds);
  SyndromeTrace out(header);
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    for (int round = 0; round < rounds; ++round) {
      out.set_layer(lane, round, trace.layer(lane, round));
    }
    out.set_final_error(lane, trace.final_error(lane));
  }
  return out;
}

namespace {

class Shrinker {
 public:
  Shrinker(SyndromeTrace trace, const FailurePredicate& predicate)
      : current_(std::move(trace)), predicate_(predicate) {}

  /// Tries `candidate`; adopts it when the failure persists.
  bool attempt(SyndromeTrace candidate) {
    ++calls_;
    if (!predicate_(candidate)) return false;
    current_ = std::move(candidate);
    return true;
  }

  /// Stage 1: drop one lane at a time, retrying until no single lane can
  /// be removed. Scanning from the last lane keeps surviving indices
  /// stable and the result deterministic.
  bool drop_lanes() {
    bool shrunk = false;
    bool progress = true;
    while (progress && current_.lanes() > 1) {
      progress = false;
      for (int lane = current_.lanes() - 1; lane >= 0; --lane) {
        if (current_.lanes() == 1) break;
        std::vector<int> keep;
        for (int i = 0; i < current_.lanes(); ++i) {
          if (i != lane) keep.push_back(i);
        }
        if (attempt(keep_lanes(current_, keep))) {
          shrunk = true;
          progress = true;
        }
      }
    }
    return shrunk;
  }

  /// Stage 2: cut rounds from the tail — halving probe first (one call
  /// discards half the trace when the failure is early), then a linear
  /// peel for the exact boundary.
  bool cut_rounds() {
    bool shrunk = false;
    while (current_.rounds() > 1) {
      const int half = current_.rounds() / 2;
      if (half < 1 || !attempt(truncate_rounds(current_, half))) break;
      shrunk = true;
    }
    while (current_.rounds() > 1) {
      if (!attempt(truncate_rounds(current_, current_.rounds() - 1))) break;
      shrunk = true;
    }
    return shrunk;
  }

  /// Stage 3: zero one whole round across all lanes.
  bool clear_rounds() {
    bool shrunk = false;
    const PackedBits zero(current_.header().checks);
    for (int round = 0; round < current_.rounds(); ++round) {
      bool already_zero = true;
      for (int lane = 0; lane < current_.lanes(); ++lane) {
        if (current_.layer(lane, round).any()) {
          already_zero = false;
          break;
        }
      }
      if (already_zero) continue;
      SyndromeTrace candidate = current_;
      for (int lane = 0; lane < candidate.lanes(); ++lane) {
        candidate.set_layer(lane, round, zero);
      }
      shrunk |= attempt(std::move(candidate));
    }
    return shrunk;
  }

  /// Stage 4: zero one 64-check word of one layer.
  bool clear_words() {
    bool shrunk = false;
    for (int lane = 0; lane < current_.lanes(); ++lane) {
      for (int round = 0; round < current_.rounds(); ++round) {
        const std::size_t words = current_.layer(lane, round).num_words();
        for (std::size_t w = 0; w < words; ++w) {
          if (current_.layer(lane, round).word(w) == 0) continue;
          SyndromeTrace candidate = current_;
          PackedBits layer = candidate.layer(lane, round);
          layer.set_word(w, 0);
          candidate.set_layer(lane, round, layer);
          shrunk |= attempt(std::move(candidate));
        }
      }
    }
    return shrunk;
  }

  /// Stage 5: clear single defects — the 1-minimal polish.
  bool clear_bits() {
    bool shrunk = false;
    for (int lane = 0; lane < current_.lanes(); ++lane) {
      for (int round = 0; round < current_.rounds(); ++round) {
        std::vector<std::size_t> set_bits;
        current_.layer(lane, round).for_each_set([&](std::size_t i) {
          set_bits.push_back(i);
        });
        for (const std::size_t bit : set_bits) {
          if (!current_.layer(lane, round).test(bit)) continue;
          SyndromeTrace candidate = current_;
          PackedBits layer = candidate.layer(lane, round);
          layer.reset(bit);
          candidate.set_layer(lane, round, layer);
          shrunk |= attempt(std::move(candidate));
        }
      }
    }
    return shrunk;
  }

  /// Stage 6: zero the ground-truth final errors (the engine oracles never
  /// read them, but the predicate decides).
  bool clear_final_errors() {
    bool any = false;
    for (int lane = 0; lane < current_.lanes(); ++lane) {
      for (const std::uint8_t b : current_.final_error(lane)) {
        if (b) {
          any = true;
          break;
        }
      }
      if (any) break;
    }
    if (!any) return false;
    SyndromeTrace candidate = current_;
    const BitVec zero(current_.header().data_qubits, 0);
    for (int lane = 0; lane < candidate.lanes(); ++lane) {
      candidate.set_final_error(lane, zero);
    }
    return attempt(std::move(candidate));
  }

  SyndromeTrace take() { return std::move(current_); }
  const SyndromeTrace& current() const { return current_; }
  int calls() const { return calls_; }

 private:
  SyndromeTrace current_;
  const FailurePredicate& predicate_;
  int calls_ = 0;
};

}  // namespace

MinimizeResult minimize_trace(const SyndromeTrace& failing,
                              const FailurePredicate& predicate,
                              const MinimizeOptions& options) {
  Shrinker shrinker(failing, predicate);
  MinimizeResult result;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool shrunk = false;
    shrunk |= shrinker.drop_lanes();
    shrunk |= shrinker.cut_rounds();
    shrunk |= shrinker.clear_rounds();
    shrunk |= shrinker.clear_words();
    if (options.clear_bits) shrunk |= shrinker.clear_bits();
    shrunk |= shrinker.clear_final_errors();
    ++result.passes;
    if (!shrunk) break;
  }
  result.predicate_calls = shrinker.calls();
  result.trace = shrinker.take();
  return result;
}

}  // namespace qec::fuzz
