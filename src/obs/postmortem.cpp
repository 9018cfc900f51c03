#include "obs/postmortem.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace qec::obs {

namespace {

std::atomic<bool> g_dump_requested{false};
std::atomic<bool> g_in_fatal{false};

/// mkdir -p, POSIX only (the toolchain targets Linux). Returns true when
/// the full path exists afterwards.
bool make_dirs(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix += path[i];
      continue;
    }
    if (!prefix.empty()) {
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
    if (i < path.size()) prefix += '/';
  }
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fputs(text.c_str(), f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

extern "C" void obs_sigusr1_handler(int) { FlightRecorder::request_dump(); }

extern "C" void obs_fatal_handler(int sig) {
  // Restore the default disposition first so any crash *inside* the dump
  // terminates instead of recursing, then best-effort dump and re-raise.
  std::signal(sig, SIG_DFL);
  if (!g_in_fatal.exchange(true)) {
    const char* name = "fatal signal";
    switch (sig) {
      case SIGSEGV: name = "fatal signal SIGSEGV"; break;
      case SIGABRT: name = "fatal signal SIGABRT"; break;
      case SIGFPE: name = "fatal signal SIGFPE"; break;
#ifdef SIGBUS
      case SIGBUS: name = "fatal signal SIGBUS"; break;
#endif
      default: break;
    }
    FlightRecorder::instance().dump(name);
  }
  std::raise(sig);
}

}  // namespace

struct FlightRecorder::Impl {
  mutable std::mutex mutex;
  bool armed = false;
  PostmortemSources sources;
};

FlightRecorder::Impl& FlightRecorder::impl() const {
  static Impl instance;
  return instance;
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::arm(PostmortemSources sources) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.sources = std::move(sources);
  state.armed = true;
}

void FlightRecorder::disarm() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.sources = PostmortemSources{};
  state.armed = false;
}

bool FlightRecorder::armed() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.armed;
}

std::string FlightRecorder::dir() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.armed ? state.sources.dir : std::string();
}

bool FlightRecorder::dump(const std::string& reason) {
  Impl& state = impl();
  // try_lock, not lock: the fatal-signal path may interrupt a thread that
  // holds this mutex; a missing dump beats a deadlocked crash handler.
  std::unique_lock<std::mutex> lock(state.mutex, std::try_to_lock);
  if (!lock.owns_lock() || !state.armed) return false;
  const PostmortemSources& src = state.sources;
  if (src.dir.empty() || !make_dirs(src.dir)) return false;

  std::vector<std::string> files;
  if (!src.config_json.empty() &&
      write_text_file(src.dir + "/config.json", src.config_json + "\n")) {
    files.push_back("config.json");
  }
  if (src.tracer &&
      write_chrome_trace(*src.tracer, src.dir + "/trace.json",
                         src.profiler.get())) {
    files.push_back("trace.json");
  }
  if (src.metrics) {
    if (src.metrics->write_csv(src.dir + "/metrics.csv")) {
      files.push_back("metrics.csv");
    }
    if (src.metrics->write_last_window_csv(src.dir + "/last_window.csv")) {
      files.push_back("last_window.csv");
    }
  }
  if (src.profiler && src.profiler->write_csv(src.dir + "/profile.csv")) {
    files.push_back("profile.csv");
  }
  if (src.slo && src.slo->write_csv(src.dir + "/slo.csv")) {
    files.push_back("slo.csv");
  }

  std::string manifest = "{\"reason\": \"" + json_escape(reason) + "\"";
  manifest += ", \"files\": [";
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i > 0) manifest += ", ";
    manifest += "\"" + files[i] + "\"";
  }
  manifest += "]";
  if (src.tracer) {
    manifest += ", \"trace\": {\"emitted\": " +
                std::to_string(src.tracer->emitted()) +
                ", \"dropped\": " + std::to_string(src.tracer->dropped()) + "}";
  }
  if (src.metrics) {
    manifest +=
        ", \"metrics_windows\": " + std::to_string(src.metrics->windows());
  }
  if (src.slo) {
    manifest += ", \"slo\": " + src.slo->summary_json();
  }
  manifest += "}\n";
  return write_text_file(src.dir + "/manifest.json", manifest);
}

void FlightRecorder::request_dump() {
  g_dump_requested.store(true, std::memory_order_relaxed);
}

bool FlightRecorder::take_dump_request() {
  return g_dump_requested.exchange(false, std::memory_order_relaxed);
}

void FlightRecorder::install_signal_handlers() {
#ifdef SIGUSR1
  std::signal(SIGUSR1, obs_sigusr1_handler);
#endif
  std::signal(SIGSEGV, obs_fatal_handler);
  std::signal(SIGABRT, obs_fatal_handler);
  std::signal(SIGFPE, obs_fatal_handler);
#ifdef SIGBUS
  std::signal(SIGBUS, obs_fatal_handler);
#endif
}

}  // namespace qec::obs
