// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean "--name".
// Unrecognised arguments are kept for the caller (so google-benchmark flags
// pass through untouched).
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qec {

class CliArgs {
 public:
  /// Parses argv (argv[0] skipped). Never throws; malformed numeric values
  /// surface when queried via the typed getters returning std::nullopt.
  CliArgs(int argc, const char* const* argv);

  std::optional<std::string> get(std::string_view name) const;
  std::optional<std::int64_t> get_int(std::string_view name) const;
  std::optional<double> get_double(std::string_view name) const;
  bool get_flag(std::string_view name) const;

  std::int64_t get_int_or(std::string_view name, std::int64_t fallback) const;
  double get_double_or(std::string_view name, double fallback) const;
  std::string get_or(std::string_view name, std::string_view fallback) const;

  /// Arguments that did not look like --flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

/// Prints the uniform usage banner every bench/example binary shares:
///
///   usage: <program> [options]
///     <summary>
///
///   options:
///   <options>
///
/// `options` lists one "  --flag=default   description" line per flag
/// (pass "" for binaries without flags beyond --help). Keeping the format
/// in one place is what keeps `--help` output consistent across all of
/// them.
void print_usage(const char* program, const char* summary,
                 const char* options);

/// True when the user asked for help (--help, or -h / help as the first
/// positional argument). Binaries call print_usage and exit 0 when set.
bool wants_help(const CliArgs& args);

/// wants_help + print_usage in one call — the line every main() starts
/// with: `if (qec::handle_help(args, "name", kSummary, kOptions)) return 0;`
bool handle_help(const CliArgs& args, const char* program,
                 const char* summary, const char* options);

/// Reads a flag that may appear bare or with a value — the
/// "--dump-obs-on-exit[=DIR]" shape. Returns std::nullopt when the flag is
/// absent, its value when given as --name=value, and `bare_value` when the
/// flag appears with no value (the built-in default).
std::optional<std::string> optional_value_flag(const CliArgs& args,
                                               std::string_view name,
                                               std::string_view bare_value);

/// The catch-and-report tail every CLI shares, so a tool fails with a
/// message instead of std::terminate: prints "<program>: <what>" to
/// stderr and returns exit status 1. Used as main's handler:
///   int main(int argc, char** argv) try { ... }
///   catch (const std::exception& e) { return qec::report_failure("x", e); }
int report_failure(const char* program, const std::exception& error);

/// Reads trial-count override from --trials or env QECOOL_TRIALS, falling
/// back to `fallback`. Shared by every bench binary.
std::int64_t trials_override(const CliArgs& args, std::int64_t fallback);

/// Reads worker-thread override from --threads or env QECOOL_THREADS,
/// falling back to `fallback`. 0 means "all hardware threads"; results are
/// thread-count independent (the sweep driver fixes the shard schedule).
int threads_override(const CliArgs& args, int fallback = 1);

}  // namespace qec
