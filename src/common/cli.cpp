#include "common/cli.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

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
}

std::optional<std::string> CliArgs::get(std::string_view name) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return value;
  }
  return std::nullopt;
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

std::int64_t CliArgs::get_int_or(std::string_view name,
                                 std::int64_t fallback) const {
  return get_int(name).value_or(fallback);
}

double CliArgs::get_double_or(std::string_view name, double fallback) const {
  return get_double(name).value_or(fallback);
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

std::int64_t trials_override(const CliArgs& args, std::int64_t fallback) {
  if (const auto v = args.get_int("trials")) return *v;
  if (const char* env = std::getenv("QECOOL_TRIALS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return v;
  }
  return fallback;
}

int threads_override(const CliArgs& args, int fallback) {
  if (const auto v = args.get_int("threads")) {
    return static_cast<int>(*v);
  }
  if (const char* env = std::getenv("QECOOL_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 0) return static_cast<int>(v);
  }
  return fallback;
}

}  // namespace qec
