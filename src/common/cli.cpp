#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace qec {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_.emplace_back(std::string(arg.substr(0, eq)),
                          std::string(arg.substr(eq + 1)));
    } else if (i + 1 < argc &&
               (std::isdigit(static_cast<unsigned char>(argv[i + 1][0])) ||
                argv[i + 1][0] == '.')) {
      // Space-separated values are accepted only when they look numeric;
      // anything else would be ambiguous with boolean flags followed by a
      // positional argument. Use --name=value for string values.
      flags_.emplace_back(std::string(arg), std::string(argv[i + 1]));
      ++i;
    } else {
      flags_.emplace_back(std::string(arg), "");
    }
  }
  read_.assign(flags_.size(), false);
}

std::optional<std::string> CliArgs::get(std::string_view name) const {
  std::optional<std::string> found;
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    if (flags_[i].first != name) continue;
    read_[i] = true;
    if (!found) found = flags_[i].second;
  }
  return found;
}

std::vector<std::string> CliArgs::unread() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    const std::string name = "--" + flags_[i].first;
    if (!read_[i] &&
        std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  return names;
}

void reject_unread(const CliArgs& args) {
  const auto names = args.unread();
  if (names.empty()) return;
  std::string message = "unknown option";
  for (std::size_t i = 0; i < names.size(); ++i) {
    message += (i == 0 ? " " : ", ") + names[i];
  }
  throw std::invalid_argument(message);
}

std::optional<std::int64_t> CliArgs::get_int(std::string_view name) const {
  const auto raw = get(name);
  if (!raw) return std::nullopt;
  char* end = nullptr;
  const long long v = std::strtoll(raw->c_str(), &end, 10);
  if (end == raw->c_str() || *end != '\0') return std::nullopt;
  return v;
}

std::optional<double> CliArgs::get_double(std::string_view name) const {
  const auto raw = get(name);
  if (!raw) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str() || *end != '\0') return std::nullopt;
  return v;
}

bool CliArgs::get_flag(std::string_view name) const {
  return get(name).has_value();
}

namespace {

[[noreturn]] void malformed(std::string_view name, const std::string& raw,
                            const std::string& expected) {
  throw std::invalid_argument("--" + std::string(name) + "=" + raw + ": " +
                              expected);
}

std::string range_text(int lo, int hi) {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

}  // namespace

std::int64_t CliArgs::get_int_or(std::string_view name,
                                 std::int64_t fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  const auto value = get_int(name);
  if (!value) malformed(name, *raw, "not an integer");
  return *value;
}

double CliArgs::get_double_or(std::string_view name, double fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  const auto value = get_double(name);
  if (!value) malformed(name, *raw, "not a number");
  return *value;
}

std::string CliArgs::get_or(std::string_view name,
                            std::string_view fallback) const {
  const auto v = get(name);
  return v ? *v : std::string(fallback);
}

void print_usage(const char* program, const char* summary,
                 const char* options) {
  std::printf("usage: %s [options]\n  %s\n", program, summary);
  std::printf("\noptions:\n%s", options);
  std::printf("  --help                show this message and exit\n");
}

bool wants_help(const CliArgs& args) {
  if (args.get_flag("help")) return true;
  const auto& positional = args.positional();
  return !positional.empty() &&
         (positional.front() == "-h" || positional.front() == "help");
}

bool handle_help(const CliArgs& args, const char* program,
                 const char* summary, const char* options) {
  if (!wants_help(args)) return false;
  print_usage(program, summary, options);
  return true;
}

std::optional<std::string> optional_value_flag(const CliArgs& args,
                                               std::string_view name,
                                               std::string_view bare_value) {
  const auto raw = args.get(name);
  if (!raw) return std::nullopt;
  if (raw->empty()) return std::string(bare_value);
  return raw;
}

int report_failure(const char* program, const std::exception& error) {
  std::fprintf(stderr, "%s: %s\n", program, error.what());
  return 1;
}

int int_flag_in(const CliArgs& args, std::string_view name, int fallback,
                int lo, int hi) {
  const auto raw = args.get(name);
  if (!raw) return fallback;
  const std::int64_t value = args.get_int_or(name, fallback);
  if (value < lo || value > hi) {
    malformed(name, *raw, "not in " + range_text(lo, hi));
  }
  return static_cast<int>(value);
}

std::vector<int> int_list_flag_in(const CliArgs& args, std::string_view name,
                                  std::string_view fallback, int lo, int hi) {
  const std::string raw = args.get_or(name, fallback);
  const std::string expected = "not a list of integers in " + range_text(lo, hi);
  std::vector<int> values;
  for (const auto& item : split_list(raw)) {
    char* end = nullptr;
    const long long value = std::strtoll(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || value < lo || value > hi) {
      malformed(name, raw, expected);
    }
    values.push_back(static_cast<int>(value));
  }
  if (values.empty()) malformed(name, raw, expected);
  return values;
}

int trials_override(const CliArgs& args, int fallback) {
  constexpr int kMax = std::numeric_limits<int>::max();
  if (args.get("trials")) return int_flag_in(args, "trials", fallback, 1, kMax);
  if (const char* env = std::getenv("QECOOL_TRIALS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= kMax) {
      return static_cast<int>(v);
    }
  }
  return fallback;
}

int threads_override(const CliArgs& args, int fallback) {
  if (args.get("threads")) {
    return int_flag_in(args, "threads", fallback, 0,
                       std::numeric_limits<int>::max());
  }
  if (const char* env = std::getenv("QECOOL_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 0) return static_cast<int>(v);
  }
  return fallback;
}

double seconds_flag(const CliArgs& args, std::string_view name,
                    double fallback) {
  const auto raw = args.get(name);
  if (!raw) return fallback;
  std::string number = *raw;
  if (!number.empty() && number.back() == 's') number.pop_back();
  char* end = nullptr;
  const double seconds = std::strtod(number.c_str(), &end);
  if (end == number.c_str() || *end != '\0' || !std::isfinite(seconds) ||
      seconds < 0.0) {
    malformed(name, *raw, "not a finite, non-negative number of seconds");
  }
  return seconds;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string::npos ? text.size() : comma;
    if (end > start) items.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

std::vector<double> split_doubles(std::string_view name,
                                  const std::string& text) {
  std::vector<double> values;
  for (const auto& item : split_list(text)) {
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(item, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != item.size()) malformed(name, text, "not a number in list");
    values.push_back(value);
  }
  return values;
}

}  // namespace qec
