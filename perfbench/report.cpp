#include "report.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "check/oracles.h"
#include "sim/metrics.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; the smoke test checks both directions.
constexpr MetricSpec kEndToEnd[] = {
    {"decisions_per_s", "1/s"},
    {"decision_p50_ms", "ms"},
    {"ns_per_message", "ns"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
    {"messages_per_decision", "count"},
    {"payload_bytes_per_decision", "bytes"},
};

constexpr MetricSpec kPerLayer[] = {
    {"decision_p90_ms", "ms"},
    {"proofs_verified_per_s", "1/s"},
    {"signatures_per_decision", "count"},
    {"trace.overhead_share", "ratio"},
    {"sim.runner_self_share", "ratio"},
    {"sim.phase_p50_ms", "ms"},
    {"sim.pool_busy_share", "ratio"},
    {"sim.pool_speedup", "ratio"},
    {"ba.step_share", "ratio"},
    {"ba.step_us_per_message", "us"},
    {"codec.decode_ns_per_message", "ns"},
    {"crypto.verify_ns_per_link", "ns"},
    {"crypto.sign_ns", "ns"},
    {"crypto.chain_cache_hit_rate", "ratio"},
    {"alloc.blocks_per_message", "count"},
    {"alloc.bytes_per_message", "bytes"},
    {"alloc.steady_blocks", "count"},
    {"arena.high_water_mb", "MB"},
    {"mem.rss_bytes_per_message", "bytes"},
    {"svc.endpoint_cpu_ms_per_decision", "ms"},
    {"svc.reactor_cpu_ms_per_decision", "ms"},
    {"svc.frames_per_decision", "count"},
    {"svc.wire_bytes_per_decision", "bytes"},
    {"svc.wire_overhead_ratio", "ratio"},
    {"svc.verify_stripe_hit_rate", "ratio"},
    {"svc.metrics_scrape_ms", "ms"},
    {"svc.prove_p50_ms", "ms"},
    {"net.stale_frames_per_decision", "count"},
    {"net.send_errors", "count"},
    {"net.endpoints_degraded", "count"},
    {"proof.store_light_hit_rate", "ratio"},
    {"proof.verify_cold_us", "us"},
    {"proof.verify_warm_us", "us"},
    {"proof.bytes_per_proof", "bytes"},
};

const Clock::time_point kOrigin = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2;
}

std::optional<double> supported_percentile(std::vector<double> samples,
                                           double p) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (samples.size() - 1 - index < 10) return std::nullopt;
  return samples[index];
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t peak_rss_bytes(pid_t pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

double process_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = -1;
  double stime = -1;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  if (utime < 0 || stime < 0) return -1;
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double thread_cpu_ms(pthread_t thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) return -1;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::size_t online_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::vector<int> pin_to_cores(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpus.size() < count; --c) {
    if (CPU_ISSET(c, &allowed)) cpus.insert(cpus.begin(), c);
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (const int c : cpus) CPU_SET(c, &chosen);
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) cpus.clear();
  return cpus;
}

StealMeter::Ticks StealMeter::read(const std::vector<int>& cpus) {
  // The first line sums every core; "cpuN" lines follow, one per core.
  std::ifstream in("/proc/stat");
  std::string line;
  Ticks ticks;
  while (std::getline(in, line) && line.rfind("cpu", 0) == 0) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    const bool wanted =
        cpus.empty() ? name == "cpu"
                     : std::find(cpus.begin(), cpus.end(),
                                 std::atoi(name.c_str() + 3)) != cpus.end() &&
                           name != "cpu";
    if (!wanted) continue;
    double field = 0;
    for (int i = 1; i <= 10 && fields >> field; ++i) {
      ticks.total += field;
      if (i == 8) ticks.steal += field;
    }
  }
  return ticks;
}

double StealMeter::share() const {
  const Ticks now = read(cpus_);
  const double total = now.total - start_.total;
  return total > 0 ? (now.steal - start_.steal) / total : 0;
}

std::optional<std::string> bound_violation(
    const dr::check::BoundProfile& profile, const dr::sim::Metrics& metrics) {
  if (profile.message_upper &&
      metrics.messages_by_correct() > *profile.message_upper) {
    return "messages " + std::to_string(metrics.messages_by_correct()) +
           " above the bound " + std::to_string(*profile.message_upper);
  }
  if (profile.phase_upper &&
      metrics.per_phase().size() > *profile.phase_upper) {
    return "correct traffic in phase " +
           std::to_string(metrics.per_phase().size()) + " past the bound " +
           std::to_string(*profile.phase_upper);
  }
  return std::nullopt;
}

std::int64_t Trace::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

std::uint32_t Trace::thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void Trace::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Trace::add_all(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t take = std::min(capacity_ - fine_kept_, spans.size());
  spans_.insert(spans_.end(), spans.begin(),
                spans.begin() + static_cast<std::ptrdiff_t>(take));
  fine_kept_ += take;
  dropped_ += spans.size() - take;
}

std::size_t Trace::kept() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t Trace::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Trace::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"instance\":%llu,\"phase\":%u,"
                 "\"arg\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.instance), s.phase,
                 static_cast<unsigned long long>(s.arg));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Trace* trace, const char* name, std::uint64_t parent,
                       std::uint64_t instance, std::uint64_t arg)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  span_.name = name;
  span_.id = trace_->next_id();
  span_.parent = parent;
  span_.instance = instance;
  span_.arg = arg;
  span_.tid = Trace::thread_index();
  span_.start_ns = Trace::now_ns();
}

void ScopedSpan::end() {
  if (trace_ == nullptr || !open_) return;
  open_ = false;
  span_.end_ns = Trace::now_ns();
  trace_->add(span_);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& what) {
  ++failed_;
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

void Report::violation(const std::string& what) {
  ++violations_;
  std::cerr << "perfbench: VIOLATION: " << what << "\n";
}

void Report::exercises(const std::vector<std::string>& names) {
  exercised_.insert(exercised_.end(), names.begin(), names.end());
}

void Report::finish(bool traced) {
  for (const std::string& name : exercised_) {
    if (!traced) break;
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == name; });
    if (it == metrics_.end() || !std::isfinite(it->value) ||
        it->value == 0) {
      violation("per-layer metric of an exercised layer reads 0: " + name);
    }
  }
  const MetricSpec* begin = traced ? std::begin(kPerLayer)
                                   : std::begin(kEndToEnd);
  const MetricSpec* end = traced ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const Entry& e : metrics_) {
    const bool known = std::any_of(begin, end, [&](const MetricSpec& m) {
      return e.name == m.name && e.unit == m.unit;
    });
    if (!known) violation("metric outside the catalogue: " + e.name);
  }
  std::vector<Entry> ordered;
  for (const MetricSpec* m = begin; m != end; ++m) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == m->name; });
    if (it != metrics_.end()) {
      ordered.push_back(*it);
    } else if (traced) {
      ordered.push_back({m->name, 0.0, m->unit});
    } else {
      violation(std::string("end-to-end metric not measured: ") + m->name);
    }
  }
  metrics_ = std::move(ordered);
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

std::string Report::meta_json() const {
  std::ostringstream out;
  out << "{\"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(meta_[i].first)
        << "\": \"" << json_escape(meta_[i].second) << "\"";
  }
  out << "}}";
  return out.str();
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(e.name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << json_escape(e.unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
