// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean "--name".
// Unrecognised arguments are kept for the caller (so google-benchmark flags
// pass through untouched); a binary that owns its whole command line asks
// unread() for the flags it never queried and rejects them.
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
  /// surface when queried: get_int/get_double return std::nullopt, and
  /// get_int_or/get_double_or throw.
  CliArgs(int argc, const char* const* argv);

  std::optional<std::string> get(std::string_view name) const;
  std::optional<std::int64_t> get_int(std::string_view name) const;
  std::optional<double> get_double(std::string_view name) const;
  bool get_flag(std::string_view name) const;

  /// The flag's value, or `fallback` when it is absent. A flag that is
  /// present but does not parse throws std::invalid_argument naming the
  /// flag and its raw value ("--lanes=4o96: not an integer"), so a typo
  /// never runs with the default.
  std::int64_t get_int_or(std::string_view name, std::int64_t fallback) const;
  double get_double_or(std::string_view name, double fallback) const;
  std::string get_or(std::string_view name, std::string_view fallback) const;

  /// Arguments that did not look like --flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags given on the command line that no getter has queried yet, as
  /// "--name", in command-line order (a repeated flag is listed once).
  std::vector<std::string> unread() const;

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  mutable std::vector<bool> read_;  ///< per flags_ entry: queried by name
  std::vector<std::string> positional_;
};

/// Throws std::invalid_argument naming every flag in args.unread()
/// ("unknown option --json, --jsn"); a no-op when all were queried. Call
/// it once every flag has been read, before any work starts.
void reject_unread(const CliArgs& args);

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

/// Reads the integer flag --name, or `fallback` when it is absent. A value
/// that is malformed or outside [lo, hi] throws std::invalid_argument
/// naming the flag and its raw value.
int int_flag_in(const CliArgs& args, std::string_view name, int fallback,
                int lo, int hi);

/// Reads the comma-separated integer list flag --name, or parses
/// `fallback` when it is absent. A list that is empty or holds an item
/// that is malformed or outside [lo, hi] throws std::invalid_argument
/// naming the flag and its raw value.
std::vector<int> int_list_flag_in(const CliArgs& args, std::string_view name,
                                  std::string_view fallback, int lo, int hi);

/// Reads trial-count override from --trials or env QECOOL_TRIALS, falling
/// back to `fallback`. A --trials that is malformed or outside
/// [1, INT_MAX] throws std::invalid_argument naming the flag and its raw
/// value; an env value outside that range is ignored. Shared by every
/// bench binary.
int trials_override(const CliArgs& args, int fallback);

/// Reads worker-thread override from --threads or env QECOOL_THREADS,
/// falling back to `fallback`; a malformed --threads throws like
/// get_int_or. 0 means "all hardware threads"; results are
/// thread-count independent (the sweep driver fixes the shard schedule).
int threads_override(const CliArgs& args, int fallback = 1);

/// Reads a duration flag "--name=SECONDS" with an optional trailing 's'
/// ("30" or "30s"), or `fallback` when absent. A value that is malformed,
/// negative or not finite throws std::invalid_argument naming the flag and
/// its raw value, like get_double_or.
double seconds_flag(const CliArgs& args, std::string_view name,
                    double fallback);

/// Splits a list flag's value "a,b,c" into items, dropping empty segments.
std::vector<std::string> split_list(const std::string& text);

/// Parses a comma-separated list of numbers; throws std::invalid_argument
/// naming the first non-numeric item.
std::vector<double> split_doubles(const std::string& text);

}  // namespace qec
