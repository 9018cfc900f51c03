#include "qecool/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"
#include "qecool/probe.hpp"

namespace qec {
namespace {
// Race-logic port priority (Section IV-B, Prioritization module): the
// predefined order is West, East, North, South; the sink's own time-like
// candidate needs no propagation and outranks everything at equal arrival.
constexpr int kPortSelf = -1;
constexpr int kPortWest = 0;
constexpr int kPortEast = 1;
constexpr int kPortNorth = 2;
constexpr int kPortSouth = 3;
}  // namespace

bool QecoolEngine::Candidate::operator<(const Candidate& other) const {
  if (arrival2 != other.arrival2) return arrival2 < other.arrival2;
  if (port != other.port) return port < other.port;
  if (t != other.t) return t < other.t;
  if (row != other.row) return row < other.row;
  return col < other.col;
}

QecoolEngine::QecoolEngine(const PlanarLattice& lattice,
                           const QecoolConfig& config)
    : lattice_(lattice),
      config_(config),
      rows_(lattice.check_rows()),
      cols_(lattice.check_cols()),
      reg_capacity_(config.reg_depth) {
  if (reg_capacity_ < 1) throw std::invalid_argument("reg_depth must be >= 1");
  nlimit_ = config_.nlimit > 0
                ? config_.nlimit
                : (rows_ - 1) + (cols_ - 1) + reg_capacity_ + 1;
  c_ = config_.start_at_max_hop ? nlimit_ : 1;
  const auto units = static_cast<std::size_t>(rows_ * cols_);
  reg_.assign(static_cast<std::size_t>(reg_capacity_), PackedBits(units));
  correction_ = PackedBits(static_cast<std::size_t>(lattice.num_data()));
}

bool QecoolEngine::push_layer(const PackedBits& difference_layer) {
  if (difference_layer.size() != static_cast<std::size_t>(rows_ * cols_)) {
    throw std::invalid_argument("push_layer: layer size != num_checks");
  }
  if (m_ == reg_capacity_) {  // buffer overflow
    if (probe_) probe_->on_push(false, m_, reg_capacity_);
    return false;
  }
  if (difference_layer.none()) {
    // All-zero layer (the overwhelmingly common case near threshold, and
    // every drain round): slots at or past m_ are already all-zero, so
    // claiming the slot is the whole push.
    ++cache_stats_.zero_pushes;
    ++m_;
  } else {
    reg_[static_cast<std::size_t>(m_)].copy_from(difference_layer);
    ++m_;
  }
  if (probe_) probe_->on_push(true, m_, reg_capacity_);
  return true;
}

bool QecoolEngine::all_clear() const {
  for (int t = 0; t < m_; ++t) {
    if (reg_[static_cast<std::size_t>(t)].any()) return false;
  }
  return true;
}

bool QecoolEngine::reg_bit(int row, int col, int depth) const {
  assert(depth >= 0 && depth < m_);
  return reg_[static_cast<std::size_t>(depth)].test(
      static_cast<std::size_t>(unit_index(row, col)));
}

int QecoolEngine::next_occupied_row(int from) const {
  // OR the resident layers one word at a time; tail bits past num_checks
  // are zero by the PackedBits invariant, so no end masking is needed.
  const std::size_t words = reg_[0].num_words();
  const std::size_t unit =
      static_cast<std::size_t>(from) * static_cast<std::size_t>(cols_);
  std::uint64_t drop_mask = ~std::uint64_t{0} << (unit % 64);
  for (std::size_t w = unit / 64; w < words; ++w) {
    std::uint64_t combined = 0;
    for (int t = 0; t < m_; ++t) {
      combined |= reg_[static_cast<std::size_t>(t)].word(w);
    }
    combined &= drop_mask;
    drop_mask = ~std::uint64_t{0};
    if (combined != 0) {
      const std::size_t first = w * 64 + static_cast<std::size_t>(
                                             qec_countr_zero64(combined));
      return static_cast<int>(first / static_cast<std::size_t>(cols_));
    }
  }
  return rows_;
}

bool QecoolEngine::base_layer_clear() const {
  return m_ > 0 && reg_[0].none();
}

bool QecoolEngine::has_eligible_base() const {
  for (int b = 0; b < m_; ++b) {
    if (m_ - b <= config_.thv) continue;
    if (reg_[static_cast<std::size_t>(b)].any()) return true;
  }
  return false;
}

std::optional<QecoolEngine::Candidate> QecoolEngine::best_candidate(
    int sink_row, int sink_col, int base, int hop_limit) const {
  std::optional<Candidate> best;
  auto consider = [&best](const Candidate& cand) {
    if (!best || cand < *best) best = cand;
  };

  // Boundary Units always answer a requestSpike(); the nearer side wins.
  const int bdist = lattice_.boundary_distance(sink_col);
  if (bdist <= hop_limit) {
    const bool left_nearer = sink_col + 1 <= lattice_.distance() - 1 - sink_col;
    best = Candidate{2 * static_cast<std::int64_t>(bdist) +
                         (config_.deprioritize_boundary ? 1 : 0),
                     left_nearer ? kPortWest : kPortEast, base, sink_row,
                     sink_col, Candidate::Kind::Boundary};
  }

  // Unit spikes in arrival order, the way the race-logic wavefront
  // expands: level a holds the sink's own bit at depth base + a (Self,
  // Algorithm 1's sink loop over t) and every Unit s hops away at depth
  // base + a - s. The first level with a hit decides the race: each hit
  // there is at its Unit's first set depth >= base (a shallower bit would
  // have arrived at an earlier level), and no later level can beat it.
  // The boundary's half-cycle arrival2 keeps the stop rule exact.
  const int sink = unit_index(sink_row, sink_col);
  for (int a = 1; a <= hop_limit; ++a) {
    const std::int64_t arrival2 = 2 * static_cast<std::int64_t>(a);
    if (best && best->arrival2 < arrival2) break;
    if (base + a < m_ && reg_[static_cast<std::size_t>(base + a)].test(
                             static_cast<std::size_t>(sink))) {
      consider(Candidate{arrival2, kPortSelf, base + a, sink_row, sink_col,
                         Candidate::Kind::Self});
    }
    // Depths past the resident layers hold nothing: s > base + a - m_.
    for (int s = std::max(1, base + a - m_ + 1); s <= a; ++s) {
      const int t = base + a - s;
      const PackedBits& layer = reg_[static_cast<std::size_t>(t)];
      const int r_end = std::min(rows_ - 1, sink_row + s);
      for (int r = std::max(0, sink_row - s); r <= r_end; ++r) {
        const int dc = s - std::abs(r - sink_row);
        for (const int c : {sink_col - dc, sink_col + dc}) {
          if (c < 0 || c >= cols_) continue;
          if (layer.test(static_cast<std::size_t>(unit_index(r, c)))) {
            int port;
            if (dc != 0) {
              port = c < sink_col ? kPortWest : kPortEast;
            } else {
              port = r < sink_row ? kPortNorth : kPortSouth;
            }
            consider(Candidate{arrival2, port, t, r, c, Candidate::Kind::Unit});
          }
          if (dc == 0) break;  // the column itself: one Unit, not two
        }
      }
    }
  }
  return best;
}

std::uint64_t QecoolEngine::process_unit(int row, int col) {
  std::uint64_t spent = 0;
  const int sink = unit_index(row, col);
  if (!reg_[static_cast<std::size_t>(b_)].test(static_cast<std::size_t>(sink))) {
    return spent;
  }

  spent += config_.cycles.request;
  const auto winner = best_candidate(row, col, b_, c_);
  if (!winner) {
    spent += static_cast<std::uint64_t>(c_);  // timeout: full wait window
    return spent;
  }

  if (config_.record_trace) {
    MatchEvent event;
    event.kind = winner->kind == Candidate::Kind::Unit
                     ? MatchEvent::Kind::Pair
                     : (winner->kind == Candidate::Kind::Self
                            ? MatchEvent::Kind::Self
                            : MatchEvent::Kind::Boundary);
    event.sink_row = row;
    event.sink_col = col;
    event.base_depth = b_;
    event.source_row = winner->row;
    event.source_col = winner->col;
    event.source_depth = winner->t;
    event.hop_limit = c_;
    event.cycle = cycles_;
    trace_.push_back(event);
  }

  switch (winner->kind) {
    case Candidate::Kind::Self: {
      const int dt = winner->t - b_;
      spent += static_cast<std::uint64_t>(dt);
      reg_[static_cast<std::size_t>(b_)].reset(static_cast<std::size_t>(sink));
      reg_[static_cast<std::size_t>(winner->t)].reset(
          static_cast<std::size_t>(sink));
      ++stats_.self_matches;
      stats_.record(dt);
      break;
    }
    case Candidate::Kind::Unit: {
      const int spatial =
          std::abs(winner->row - row) + std::abs(winner->col - col);
      const int dt = winner->t - b_;
      // Wait for the first spike, then the Syndrome retraces the path.
      spent += static_cast<std::uint64_t>(spatial + dt);
      spent += static_cast<std::uint64_t>(spatial);
      spent += config_.cycles.correct;
      lattice_.l_path_into({winner->row, winner->col}, {row, col},
                           path_scratch_);
      for (int q : path_scratch_) correction_.flip(static_cast<std::size_t>(q));
      reg_[static_cast<std::size_t>(b_)].reset(static_cast<std::size_t>(sink));
      reg_[static_cast<std::size_t>(winner->t)].reset(static_cast<std::size_t>(
          unit_index(winner->row, winner->col)));
      ++stats_.pair_matches;
      stats_.record(dt);
      break;
    }
    case Candidate::Kind::Boundary: {
      const int bdist = lattice_.boundary_distance(col);
      spent += static_cast<std::uint64_t>(2 * bdist);
      spent += config_.cycles.correct;
      lattice_.boundary_path_into({row, col}, path_scratch_);
      for (int q : path_scratch_) correction_.flip(static_cast<std::size_t>(q));
      reg_[static_cast<std::size_t>(b_)].reset(static_cast<std::size_t>(sink));
      ++stats_.boundary_matches;
      stats_.record(0);
      break;
    }
  }
  return spent;
}

void QecoolEngine::pop_layer() {
  assert(m_ > 0);
  if (probe_) probe_->on_pop(m_);
  // The base layer is popped only when clean (SHIFTREG): every deeper
  // layer's words move down one slot and the vacated top slot is cleared,
  // re-establishing the "slots at or past m_ are zero" invariant —
  // O(depth) word copies, no per-Unit work and no allocation.
  assert(reg_[0].none());
  for (int t = 1; t < m_; ++t) {
    reg_[static_cast<std::size_t>(t - 1)].copy_from(
        reg_[static_cast<std::size_t>(t)]);
  }
  --m_;
  reg_[static_cast<std::size_t>(m_)].clear_all();
  layer_cycles_.push_back(cycles_ - last_pop_cycles_);
  last_pop_cycles_ = cycles_;
  if (obs_track_) {
    obs_track_->emit(obs::EventKind::kPop, layer_cycles_.back());
  }
}

std::uint64_t QecoolEngine::run(std::uint64_t budget) {
  std::uint64_t consumed = 0;
  if (budget > 0 && m_ > 0) {
    if (all_clear()) {
      // All resident layers clean: the scan would only skip rows and pop —
      // emulate those charges analytically.
      ++cache_stats_.zero_rounds;
      consumed = run_all_clear(budget);
    } else {
      consumed = run_scan(budget);
    }
  }
  // Planted accounting bugs for the fuzz self-check (docs/fuzzing.md);
  // one branch on the hot path, the faults themselves are out of line.
  if (config_.test_fault != QecoolConfig::kFaultNone) {
    consumed = apply_test_fault(consumed);
  }
  if (probe_) {
    probe_->on_run(budget, consumed, cycles_, m_, b_, c_, row_);
  }
  return consumed;
}

std::uint64_t QecoolEngine::apply_test_fault(std::uint64_t consumed) const {
  // The cycle counter advanced by `consumed` but the caller is told one
  // less; the invariant probe's conservation check must flag it.
  if (consumed == 0) return consumed;
  if (config_.test_fault == QecoolConfig::kFaultCycleReport) {
    return consumed - 1;
  }
  if (config_.test_fault == QecoolConfig::kFaultFullRegReport &&
      m_ == reg_capacity_) {
    int defects = 0;
    for (int t = 0; t < m_; ++t) {
      defects += reg_[static_cast<std::size_t>(t)].popcount();
    }
    if (defects >= QecoolConfig::kFaultFullRegDefects) return consumed - 1;
  }
  return consumed;
}

std::uint64_t QecoolEngine::run_all_clear(std::uint64_t budget) {
  std::uint64_t spent = 0;
  const int c_start = config_.start_at_max_hop ? nlimit_ : 1;
  const std::uint64_t skip = config_.cycles.row_skip;
  while (spent < budget && m_ > 0) {
    if (row_ < rows_) {
      // Every remaining row charges row_skip with a per-row budget check
      // (a charge may overshoot, exactly like the scan loop).
      std::uint64_t steps = static_cast<std::uint64_t>(rows_ - row_);
      if (skip > 0) {
        // Ceiling division written overflow-safe: budget may be kUnlimited.
        const std::uint64_t left = budget - spent;
        const std::uint64_t checked = left / skip + (left % skip != 0 ? 1 : 0);
        if (checked < steps) steps = checked;
      }
      spent += steps * skip;
      cycles_ += steps * skip;
      row_ += static_cast<int>(steps);
      continue;
    }
    // End of pass; the base layer is clean by premise, so pop. The pass
    // overhead and the pop charge land in one loop iteration, no budget
    // check between them — as in the scan.
    spent += config_.cycles.pass_overhead + config_.cycles.pop;
    cycles_ += config_.cycles.pass_overhead + config_.cycles.pop;
    row_ = 0;
    pop_layer();
    c_ = c_start;
    b_ = 0;
  }
  return spent;
}

std::uint64_t QecoolEngine::run_scan(std::uint64_t budget) {
  std::uint64_t spent = 0;
  auto charge = [&](std::uint64_t c) {
    cycles_ += c;
    spent += c;
  };
  const std::uint64_t skip = config_.cycles.row_skip;

  // The stop conditions below depend only on Reg contents and the (m_, b_)
  // position, so they need re-evaluation only after an end-of-pass step.
  bool recheck = true;
  while (spent < budget) {
    if (recheck) {
      if (m_ == 0) break;
      // Idle when no work can make progress: the base layer is dirty
      // (cannot pop) and no stored layer is old enough to decode under
      // thv.
      if (!base_layer_clear() && !has_eligible_base()) break;
      recheck = false;
    }

    if (row_ < rows_) {
      const bool gate_open = (m_ - b_) > config_.thv;
      // The Row Master withholds the token from every row up to `stop`:
      // all remaining rows when the gate is closed, else the clean rows
      // before the next occupied one. Skipped rows leave the Reg and the
      // gate untouched, so the run is bulk-charged in one shot with the
      // same per-row budget check (a charge may overshoot, exactly like
      // the one-row-at-a-time loop this emulates).
      const int stop = gate_open ? next_occupied_row(row_) : rows_;
      if (row_ < stop) {
        std::uint64_t steps = static_cast<std::uint64_t>(stop - row_);
        if (skip > 0) {
          // Ceiling division written overflow-safe: budget may be
          // kUnlimited.
          const std::uint64_t left = budget - spent;
          const std::uint64_t checked =
              left / skip + (left % skip != 0 ? 1 : 0);
          if (checked < steps) steps = checked;
        }
        spent += steps * skip;
        cycles_ += steps * skip;
        row_ += static_cast<int>(steps);
        continue;
      }
      if (config_.record_trace) {
        // Trace mode stamps event.cycle mid-row, so keep the hop/process
        // charge interleaving byte-exact.
        for (int col = 0; col < cols_; ++col) {
          charge(config_.cycles.token_hop);
          charge(process_unit(row_, col));
        }
      } else {
        // The token visits every Unit of the row (one hop charge each; no
        // budget check inside a row), but only Units holding a base-layer
        // defect do sink work — walk those bits directly. Re-read the
        // word after each match: a pair match may clear a later sink in
        // this same row.
        charge(static_cast<std::uint64_t>(cols_) * config_.cycles.token_hop);
        const std::size_t row_first =
            static_cast<std::size_t>(row_) * static_cast<std::size_t>(cols_);
        const std::size_t row_end = row_first + static_cast<std::size_t>(cols_);
        const PackedBits& layer = reg_[static_cast<std::size_t>(b_)];
        std::size_t from = row_first;
        while (from < row_end) {
          std::size_t w = from / 64;
          std::uint64_t word = layer.word(w) & (~std::uint64_t{0} << (from % 64));
          while (word == 0 && (++w) * 64 < row_end) word = layer.word(w);
          if (word == 0) break;
          const std::size_t u =
              w * 64 + static_cast<std::size_t>(qec_countr_zero64(word));
          if (u >= row_end) break;
          charge(process_unit(row_, static_cast<int>(u - row_first)));
          from = u + 1;
        }
      }
      // No recheck: a processed row cannot make the stop conditions true.
      // The gate is open, so layer 0 is eligible too (m - 0 >= m - b >
      // thv): after any matches the base layer is either clean or an
      // eligible layer that still holds bits.
      ++row_;
      continue;
    }

    // End of a full (C, b) grid pass.
    charge(config_.cycles.pass_overhead);
    row_ = 0;
    recheck = true;  // the (m_, b_) position moves below
    const int c_start = config_.start_at_max_hop ? nlimit_ : 1;
    if (base_layer_clear()) {
      charge(config_.cycles.pop);
      pop_layer();
      c_ = c_start;
      b_ = 0;
      continue;
    }
    ++b_;
    if (b_ >= m_) {
      b_ = 0;
      ++c_;
      if (c_ > nlimit_) c_ = c_start;
    }
  }
  return spent;
}

}  // namespace qec
