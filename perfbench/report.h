// Shared plumbing of the benchmark runner: clocks and summary statistics,
// /proc readers for the processes a workload owns, the in-memory span
// recorder behind the traced run, and the report printed as the last line
// of standard output.
#pragma once

#include <pthread.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dr::check {
struct BoundProfile;
}  // namespace dr::check
namespace dr::sim {
class Metrics;
}  // namespace dr::sim

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double s_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Median (mean of the middle two for an even count); 0 for no samples.
double median(std::vector<double> samples);

/// Nearest-rank percentile `p` (0..100), reported only when at least ten
/// samples lie beyond it — a tail read off fewer points is noise.
std::optional<double> supported_percentile(std::vector<double> samples,
                                           double p);

/// splitmix64 of (seed, index): the per-instance seed stream. The same
/// --seed gives the same instances in the same order.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// VmHWM of `pid` (0 = this process) in bytes; 0 when unreadable.
std::uint64_t peak_rss_bytes(pid_t pid);
/// User + system CPU time of `pid` in milliseconds; -1 when unreadable.
double process_cpu_ms(pid_t pid);
/// CPU time consumed so far by `thread`, in milliseconds.
double thread_cpu_ms(pthread_t thread);

/// Number of cores this process may run on.
std::size_t online_cores();

/// Restricts the calling thread, and every thread and process it starts
/// from then on, to the last `count` cores it may run on (all of them when
/// it may run on fewer). Returns the cores chosen.
std::vector<int> pin_to_cores(std::size_t count);

/// Share of CPU time the hypervisor gave to other guests since
/// construction (/proc/stat steal ticks), over `cpus` or, when empty, over
/// every core. The multi-process daemon workload slows down with it.
class StealMeter {
 public:
  explicit StealMeter(std::vector<int> cpus = {})
      : cpus_(std::move(cpus)), start_(read(cpus_)) {}
  double share() const;

 private:
  struct Ticks {
    double steal = 0;
    double total = 0;
  };
  static Ticks read(const std::vector<int>& cpus);
  std::vector<int> cpus_;
  Ticks start_;
};

/// The paper's message and phase bounds (check::profile_for) applied to
/// one instance's metrics; a description of the broken bound, or nullopt.
std::optional<std::string> bound_violation(
    const dr::check::BoundProfile& profile, const dr::sim::Metrics& metrics);

/// One traced interval. `parent` is 0 for a root; `instance` groups the
/// spans of one agreement instance; `arg` carries a per-name detail
/// (the processor of an on_phase span, the batch size of a replay pass).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t instance = 0;
  std::uint32_t tid = 0;
  std::uint32_t phase = 0;
  std::uint64_t arg = 0;
};

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
/// Spans added one at a time (instances, RPCs, replay batches) are always
/// kept. Bulk-added fine spans (phase x process) are kept only up to
/// `fine_capacity` and counted past it, so a long traced run cannot grow
/// without bound; every per-layer metric is computed from the workloads'
/// own accumulators, never from the kept spans.
class Trace {
 public:
  explicit Trace(std::size_t fine_capacity) : capacity_(fine_capacity) {}

  /// Nanoseconds since the trace origin (process start of the runner).
  static std::int64_t now_ns();
  /// A small stable index of the calling thread (the span's tid).
  static std::uint32_t thread_index();

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(const Span& span);
  void add_all(const std::vector<Span>& spans);

  std::size_t kept() const;
  std::size_t dropped() const;
  bool write_chrome(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::size_t fine_kept_ = 0;  // guarded by mu_
  std::size_t dropped_ = 0;    // guarded by mu_
};

/// Span helper: records [construction, end()) under `parent`.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::uint64_t parent = 0,
             std::uint64_t instance = 0, std::uint64_t arg = 0);
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  void end();

 private:
  Trace* trace_;
  Span span_;
  bool open_ = true;
};

/// The result object: failure accounting plus named metrics, printed as
/// one JSON line. A metric value is printed with every digit it has.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::size_t count = 1) { attempted_ += count; }
  /// An operation that did not produce a correct result: counts in
  /// `failed` and makes the run incorrect. `what` goes to stderr.
  void fail(const std::string& what);
  /// A wrong output that is not an operation of its own (a bound broken,
  /// the negative control accepted): makes the run incorrect.
  void violation(const std::string& what);
  /// Per-layer metrics the workload exercises: in a traced run, finish()
  /// makes each one that was not measured, or measured as 0, a violation.
  void exercises(const std::vector<std::string>& names);

  bool correct() const { return violations_ == 0 && failed_ == 0; }
  std::size_t failed() const { return failed_; }

  /// Completes the metric set for the run kind: a traced run reports
  /// every per-layer metric (0 for layers the workload does not
  /// exercise), an untraced run every end-to-end one. A name outside the
  /// run kind's catalogue, an end-to-end metric left unmeasured, or an
  /// exercised per-layer metric that reads 0 makes the run incorrect.
  void finish(bool traced);
  std::string json() const;

  /// Run facts that change the numbers (cores, threads, hash backend,
  /// source revision), printed as a line of their own before the result.
  void meta(const std::string& key, const std::string& value);
  std::string meta_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> exercised_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t violations_ = 0;
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;          // tiny sizes, for the smoke test
  std::string trace_path;    // Chrome trace output of a traced run
};

void run_sim_workload(const Options& options, Report& report);
void run_daemon_workload(const Options& options, Report& report);

}  // namespace perfbench
