// The daemon workload, daemon-mixed: an in-benchmark svc::Coordinator plus
// four `dr82d endpoint` processes over loopback, no injected delay, all on
// one pinned core (kDaemonCores).
//
// Writes: one writer thread keeps a closed loop of 32 instances in flight
// over one svc::Client, submitting the next as each decision arrives
// (oldest first). It cycles dolev-strong (n=4, t=1), eig (n=4, t=1), alg1
// (n=3, t=1) and alg2 (n=3, t=1), so throughput is bound by the core's CPU
// time, not by wake-ups. Reads: a reader thread fetches one proof of each decided
// dolev-strong/alg2 instance with prove() and sends verify_proofs batches
// of 16 — half proofs the store already holds (light path), half new
// proofs built offline before bring-up with proof::from_evidence (heavy
// path). It is the only workload through the svc reactor and wire, the net
// phase synchronizer, InstancePool, the striped verify cache and the proof
// store; a gain for writes that costs reads, or the reverse, shows.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ba/registry.h"
#include "check/oracles.h"
#include "proof/transferable.h"
#include "report.h"
#include "svc/client.h"
#include "svc/coordinator.h"
#include "svc/supervisor.h"

namespace perfbench {
namespace {

using dr::Bytes;
using dr::ba::BAConfig;
using namespace std::chrono_literals;

constexpr std::size_t kEndpoints = 4;
constexpr std::size_t kBatch = 16;  // proofs per verify_proofs call
constexpr auto kTimeout = 30s;
// Endpoint memory grows with the instances served, so peak_rss_mb is read
// after a fixed amount of work (or at the window's end, if sooner): a
// faster daemon is not charged for serving more in the same window.
constexpr std::size_t kRssAtDecisions = 8000;
// The coordinator, the client threads and every endpoint process share
// one pinned core, so the daemon is bound by that core's CPU time. Spread
// over the cores of a virtual machine, its sleep/wake traffic across cores
// draws host CPU steal in bursts, and its phase barriers across processes
// turn a few percent of steal into a threefold loss of throughput. On one
// core nothing waits on another core, so steal slows it in proportion:
// every rate and latency is taken per second the host actually ran the
// core (wall time minus that core's /proc/stat steal), one-second slice by
// one-second slice.
constexpr std::size_t kDaemonCores = 1;
// A slice in which the host ran the core less than this share of the time
// is dropped rather than scaled.
constexpr double kMinCoreShare = 0.5;
// setup_s is the median of this many bring-ups (about 0.12 s each).
constexpr int kSetupCycles = 7;

struct MixEntry {
  const char* protocol;
  BAConfig config;
  bool proofs;  // the reader fetches a proof of each decided instance
};

const MixEntry kMix[] = {
    {"dolev-strong", {4, 1, 0, 0}, true},
    {"eig", {4, 1, 0, 0}, false},
    {"alg1", {3, 1, 0, 0}, false},
    {"alg2", {3, 1, 0, 0}, true},
};
constexpr std::size_t kMixSize = std::size(kMix);

dr::svc::SubmitRequest request_for(std::uint64_t seed, std::uint64_t index) {
  const MixEntry& entry = kMix[index % kMixSize];
  dr::svc::SubmitRequest req;
  req.protocol = entry.protocol;
  req.config = entry.config;
  req.seed = derive_seed(seed, index);
  // Both values, alternating by whole mix cycle, so every two cycles send
  // the same messages.
  req.config.value = (index / kMixSize) % 2;
  return req;
}

/// `name value` from a Prometheus text dump; -1 when absent. Only samples
/// count, so the name must open its line.
double prom_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const std::size_t after = pos + name.size();
    pos = after;
    if (!line_start || after >= text.size() || text[after] != ' ') continue;
    return std::strtod(text.c_str() + after + 1, nullptr);
  }
  return -1;
}

/// One reading of the daemon's counters, its processes' CPU and memory.
struct Snapshot {
  std::string dump;
  double endpoint_cpu_ms = 0;
  double reactor_cpu_ms = 0;
  double value(const char* name) const { return prom_value(dump, name); }
};

/// Faults of one thread, folded into the Report after it is joined.
struct Tally {
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  void fold_into(Report& report) {
    report.attempt(attempted);
    for (const auto& f : failures) report.fail(f);
    *this = Tally{};
  }
};

/// One bring-up of the daemon: coordinator on a serve thread in this
/// process, endpoint processes under a Supervisor, one client connection.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(nullptr); }

  bool start() {
    dr::svc::Coordinator::Options options;
    options.endpoints = kEndpoints;
    coordinator_ = std::make_unique<dr::svc::Coordinator>(options);
    if (!coordinator_->bind()) return false;
    serve_ = std::thread([this] { (void)coordinator_->serve(); });
    const std::string addr =
        "127.0.0.1:" + std::to_string(coordinator_->port());
    for (std::size_t p = 0; p < kEndpoints; ++p) {
      const pid_t pid = supervisor_.spawn(
          {DR82D_BINARY, "endpoint", "--coord", addr, "--id",
           std::to_string(p), "--endpoints", std::to_string(kEndpoints)});
      if (pid < 0) return false;
      pids_.push_back(pid);
    }
    if (!client_.connect("127.0.0.1", coordinator_->port(), 10s)) {
      return false;
    }
    const std::string ready =
        "dr82_endpoints_ready " + std::to_string(kEndpoints);
    for (int i = 0; i < 3000; ++i) {
      const auto text = client_.metrics(kTimeout);
      if (!text) return false;
      if (text->find(ready) != std::string::npos) return true;
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }

  /// Shuts everything down and reaps the endpoints; an endpoint that
  /// exits abnormally is a failure.
  void stop(Report* report) {
    if (coordinator_ == nullptr) return;
    (void)client_.shutdown_server();
    client_.close();
    coordinator_->stop();
    if (serve_.joinable()) serve_.join();
    const std::size_t abnormal = supervisor_.wait_all();
    if (abnormal > 0 && report != nullptr) {
      report->fail(std::to_string(abnormal) + " endpoint(s) exited abnormally");
    }
    coordinator_.reset();
    pids_.clear();
  }

  dr::svc::Client& client() { return client_; }

  Snapshot snapshot() {
    Snapshot s;
    s.dump = client_.metrics(kTimeout).value_or("");
    for (const pid_t pid : pids_) s.endpoint_cpu_ms += process_cpu_ms(pid);
    s.reactor_cpu_ms = thread_cpu_ms(serve_.native_handle());
    return s;
  }

  std::uint64_t max_endpoint_rss() const {
    std::uint64_t most = 0;
    for (const pid_t pid : pids_) most = std::max(most, peak_rss_bytes(pid));
    return most;
  }

 private:
  std::unique_ptr<dr::svc::Coordinator> coordinator_;
  dr::svc::Supervisor supervisor_;
  std::vector<pid_t> pids_;
  dr::svc::Client client_;
  std::thread serve_;  // last: joined before the members it uses go
};

/// The reader: turns decided proof-bearing instances into verify batches.
class ProofFeed {
 public:
  ProofFeed(dr::svc::Client& client, const std::vector<Bytes>& heavy,
            Trace* trace)
      : client_(client), heavy_(heavy), trace_(trace),
        thread_([this] { loop(); }) {}
  ProofFeed(const ProofFeed&) = delete;
  ProofFeed& operator=(const ProofFeed&) = delete;
  ~ProofFeed() { finish(); }

  void push(std::uint64_t instance, std::size_t n, std::uint64_t index) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      decided_.push_back({instance, n, index});
    }
    cv_.notify_one();
  }

  /// Stops taking work; proofs still queued are dropped unattempted.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after finish().
  Tally tally;
  std::size_t verified_ok = 0;
  std::vector<double> prove_ms;
  std::vector<Bytes> fetched;  // a sample of light proofs, for offline timing
  std::size_t next_heavy = 0;

 private:
  struct Decided {
    std::uint64_t instance;
    std::size_t n;
    std::uint64_t index;
  };

  void loop() {
    std::vector<Bytes> light;
    for (;;) {
      Decided d{};
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !decided_.empty(); });
        if (stop_) return;
        d = decided_.front();
        decided_.pop_front();
      }
      if (auto proof = prove(d)) light.push_back(std::move(*proof));
      if (light.size() == kBatch / 2) {
        verify(light, d.index);
        light.clear();
      }
    }
  }

  std::optional<Bytes> prove(const Decided& d) {
    // Not every processor holds evidence; take the first holder that does.
    for (std::size_t h = 0; h < d.n; ++h) {
      const auto holder = static_cast<dr::sim::ProcId>((d.index + h) % d.n);
      ++tally.attempted;
      ScopedSpan span(trace_, "rpc.prove", 0, d.index, holder);
      const Clock::time_point start = Clock::now();
      const auto resp = client_.prove(d.instance, holder, kTimeout);
      prove_ms.push_back(ms_between(start, Clock::now()));
      if (!resp) {
        tally.failures.push_back("prove timed out");
        return std::nullopt;
      }
      if (resp->ok) {
        if (fetched.size() < 256) fetched.push_back(resp->proof);
        return resp->proof;
      }
      --tally.attempted;  // "no proof for holder": try the next one
    }
    ++tally.attempted;
    tally.failures.push_back("decided instance with no proof to fetch");
    return std::nullopt;
  }

  void verify(const std::vector<Bytes>& light, std::uint64_t index) {
    if (next_heavy + light.size() > heavy_.size()) {
      ++tally.attempted;
      tally.failures.push_back("heavy proof pool exhausted");
      return;
    }
    std::vector<Bytes> batch;
    for (const Bytes& proof : light) {
      batch.push_back(proof);
      batch.push_back(heavy_[next_heavy++]);
    }
    tally.attempted += batch.size();
    ScopedSpan span(trace_, "rpc.verify_proofs", 0, index, batch.size());
    const auto verdicts = client_.verify_proofs(batch, kTimeout);
    if (!verdicts || verdicts->size() != batch.size()) {
      tally.failures.push_back("verify_proofs failed");
      return;
    }
    for (const std::uint8_t v : *verdicts) {
      if (v == static_cast<std::uint8_t>(dr::proof::Verdict::kOk)) {
        ++verified_ok;
      } else {
        tally.failures.push_back(
            std::string("proof rejected: ") +
            dr::proof::to_string(static_cast<dr::proof::Verdict>(v)));
      }
    }
  }

  dr::svc::Client& client_;
  const std::vector<Bytes>& heavy_;
  Trace* trace_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Decided> decided_;  // guarded by mu_
  bool stop_ = false;            // guarded by mu_
  std::thread thread_;           // last: started after the state it uses
};

/// What a closed loop measured over its window.
struct LoopResult {
  std::vector<double> slice_steal;  // steal share of each one-second slice
  std::vector<double> arrival_s;   // since the window opened, per decision
  std::uint64_t next_index = 0;  // first index the loop did not submit
  std::uint64_t endpoint_rss = 0;  // bytes, see kRssAtDecisions
  std::vector<double> latency_ms;  // one per in-window decision
  std::vector<std::size_t> messages;
  std::vector<std::size_t> bytes;
  std::vector<std::size_t> signatures;
  std::size_t verified_ok = 0;
  std::vector<double> prove_ms;
  std::vector<Bytes> fetched;
};

class DaemonBench {
 public:
  DaemonBench(const Options& options, Report& report)
      : options_(options), report_(report),
        in_flight_(options.toy ? 8 : 32), warm_up_instances_(4 * in_flight_) {
    for (const MixEntry& entry : kMix) {
      profiles_.push_back(
          dr::check::profile_for(entry.protocol, entry.config));
    }
  }

  void run();

 private:
  void build_heavy_pool(std::size_t count);
  bool bring_up(Daemon& daemon);
  /// Runs the closed loop from instance `first` for `seconds`, rounded up
  /// to whole one-second slices (or until `limit` instances were
  /// submitted), then drains it.
  LoopResult closed_loop(Daemon& daemon, double seconds, std::uint64_t first,
                         std::size_t limit, Trace* trace);
  bool check(const MixEntry& entry, const dr::svc::SubmitRequest& req,
             const std::optional<dr::svc::DecisionResponse>& resp);
  /// Checks the daemon's health counters over its whole life, then stops
  /// it.
  void retire(Daemon& daemon);
  void negative_control(Daemon& daemon);
  void offline_verify(const std::vector<Bytes>& proofs, Trace* trace);

  const Options& options_;
  Report& report_;
  std::size_t in_flight_;
  std::vector<Bytes> heavy_;
  std::size_t warm_up_instances_;  // per bring-up
  std::vector<int> cpus_;          // the pinned cores
  std::vector<dr::check::BoundProfile> profiles_;  // one per mix entry
};

void DaemonBench::build_heavy_pool(std::size_t count) {
  // New proofs from realms (seeds) the daemon never runs, so the store
  // admits each one through full verification exactly once.
  for (std::uint64_t i = 0; heavy_.size() < count; ++i) {
    const MixEntry& entry = kMix[(i % 2) == 0 ? 0 : 3];
    const std::uint64_t seed = derive_seed(options_.seed ^ 0x6e6577, i);
    BAConfig config = entry.config;
    config.value = (seed >> 17) & 1;
    const auto result = dr::ba::run_scenario(
        *dr::ba::find_protocol(entry.protocol), config, seed);
    dr::sim::RunConfig run_config;
    run_config.n = config.n;
    run_config.t = config.t;
    run_config.seed = seed;
    const dr::proof::Realm realm = dr::proof::realm_of(run_config);
    for (dr::sim::ProcId p = 0; p < config.n && heavy_.size() < count; ++p) {
      if (result.evidence[p].empty()) continue;
      const auto proof = dr::proof::from_evidence(
          realm, p, {result.evidence[p].data(), result.evidence[p].size()});
      if (!proof) {
        report_.violation("evidence that does not decode into a proof");
        return;
      }
      heavy_.push_back(dr::proof::encode_transferable(*proof));
    }
  }
}

bool DaemonBench::bring_up(Daemon& daemon) {
  if (!daemon.start()) {
    report_.fail("daemon bring-up failed");
    return false;
  }
  // Warm-up: fill the endpoint pools, caches and arenas, and the proof
  // path, before any timed window.
  closed_loop(daemon, 1e9, 1'000'000, warm_up_instances_, nullptr);
  return true;
}

bool DaemonBench::check(const MixEntry& entry,
                        const dr::svc::SubmitRequest& req,
                        const std::optional<dr::svc::DecisionResponse>& resp) {
  if (!resp) {
    report_.fail(req.protocol + ": no decision within the timeout");
    return false;
  }
  if (!resp->ok || resp->watchdog_fired || !resp->unfinished.empty()) {
    report_.fail(req.protocol + ": " +
                 (resp->ok ? "watchdog fired" : resp->error));
    return false;
  }
  // Fault-free: every processor decides the transmitter's value, which
  // is agreement and validity at once.
  for (const auto& d : resp->decisions) {
    if (d != req.config.value) {
      report_.fail(req.protocol + ": agreement or validity broken");
      return false;
    }
  }
  if (const auto broken = bound_violation(
          profiles_[&entry - kMix], resp->metrics)) {
    report_.fail(req.protocol + ": " + *broken);
    return false;
  }
  return true;
}

LoopResult DaemonBench::closed_loop(Daemon& daemon, double seconds,
                                    std::uint64_t first, std::size_t limit,
                                    Trace* trace) {
  struct Pending {
    std::uint64_t id;
    std::uint64_t index;
    dr::svc::SubmitRequest req;
    Clock::time_point sent;
    std::int64_t sent_ns;
  };
  dr::svc::Client& client = daemon.client();
  ProofFeed feed(client, heavy_, trace);
  LoopResult out;
  std::deque<Pending> pending;
  std::uint64_t next = first;
  auto submit = [&] {
    Pending p{0, next, request_for(options_.seed, next), Clock::now(),
              Trace::now_ns()};
    ++next;
    p.id = client.submit(p.req);
    report_.attempt();
    if (p.id == 0) {
      report_.fail("submit failed: connection lost");
      return;
    }
    pending.push_back(std::move(p));
  };

  const Clock::time_point start = Clock::now();
  const double slices = std::ceil(seconds);
  bool in_window = true;
  StealMeter slice_steal(cpus_);
  for (std::size_t i = 0; i < in_flight_ && i < limit; ++i) submit();
  while (!pending.empty()) {
    Pending p = std::move(pending.front());
    pending.pop_front();
    const auto resp = client.wait(p.id, kTimeout);
    const Clock::time_point now = Clock::now();
    if (trace != nullptr) {
      trace->add({"rpc.decision", p.sent_ns, Trace::now_ns(),
                  trace->next_id(), 0, p.index, Trace::thread_index(), 0,
                  resp ? resp->instance : 0});
    }
    // Close the slices that ended before this decision; a stall across
    // several shares one steal reading.
    const double arrival = s_between(start, now);
    if (in_window &&
        arrival >= static_cast<double>(out.slice_steal.size() + 1)) {
      const double steal = slice_steal.share();
      slice_steal = StealMeter(cpus_);
      while (in_window &&
             arrival >= static_cast<double>(out.slice_steal.size() + 1)) {
        out.slice_steal.push_back(steal);
        in_window = static_cast<double>(out.slice_steal.size()) < slices;
      }
    }
    if (check(kMix[p.index % kMixSize], p.req, resp) && in_window) {
      out.arrival_s.push_back(arrival);
      out.latency_ms.push_back(ms_between(p.sent, now));
      out.messages.push_back(resp->metrics.messages_by_correct());
      out.bytes.push_back(resp->metrics.bytes_by_correct());
      out.signatures.push_back(resp->metrics.signatures_by_correct());
      if (out.latency_ms.size() == kRssAtDecisions) {
        out.endpoint_rss = daemon.max_endpoint_rss();
      }
      if (kMix[p.index % kMixSize].proofs) {
        feed.push(resp->instance, p.req.config.n, p.index);
      }
    }
    if (in_window && next - first < limit) submit();
  }
  out.next_index = next;
  if (out.endpoint_rss == 0) out.endpoint_rss = daemon.max_endpoint_rss();
  feed.finish();
  feed.tally.fold_into(report_);
  out.verified_ok = feed.verified_ok;
  out.prove_ms = std::move(feed.prove_ms);
  out.fetched = std::move(feed.fetched);
  // The next loop on this daemon must not resend admitted heavy proofs.
  heavy_.erase(heavy_.begin(),
               heavy_.begin() + static_cast<std::ptrdiff_t>(feed.next_heavy));
  return out;
}

void DaemonBench::retire(Daemon& daemon) {
  // The counters start at 0 with the daemon, so this covers its whole
  // life: warm-up, every loop and the negative control.
  const Snapshot last = daemon.snapshot();
  for (const char* name :
       {"dr82_sync_send_errors_total", "dr82_net_endpoints_degraded_total",
        "dr82_instances_failed_total"}) {
    if (last.value(name) != 0) {
      report_.violation(std::string(name) + " is " +
                        std::to_string(last.value(name)) +
                        " (absent when negative)");
    }
  }
  daemon.stop(&report_);
}

void DaemonBench::negative_control(Daemon& daemon) {
  if (heavy_.empty()) {
    report_.violation("no proof left for the negative control");
    return;
  }
  Bytes tampered = heavy_.back();
  tampered.at(tampered.size() - 1) ^= 0x01;  // inside the last signature
  report_.attempt();
  const auto verdicts = daemon.client().verify_proofs({tampered}, kTimeout);
  if (!verdicts || verdicts->size() != 1) {
    report_.fail("verify_proofs failed on the negative control");
  } else if (verdicts->front() ==
             static_cast<std::uint8_t>(dr::proof::Verdict::kOk)) {
    report_.violation("a tampered proof was accepted");
  }
}

void DaemonBench::offline_verify(const std::vector<Bytes>& proofs,
                                 Trace* trace) {
  std::vector<dr::proof::Transferable> decoded;
  std::vector<std::unique_ptr<dr::proof::OfflineVerifier>> verifiers;
  for (const Bytes& bytes : proofs) {
    auto p = dr::proof::decode_transferable({bytes.data(), bytes.size()});
    if (!p) {
      report_.violation("a fetched proof does not decode");
      return;
    }
    verifiers.push_back(std::make_unique<dr::proof::OfflineVerifier>(p->realm));
    decoded.push_back(std::move(*p));
  }
  if (decoded.empty()) return;
  // Cold: no cache, every link hashed. Warm: one cache the first pass
  // filled, so every link is a lookup. Timed per batch of all proofs.
  dr::crypto::VerifyCache cache;
  // One sample: whole passes over the batch until at least 2 ms passed.
  auto pass = [&](dr::crypto::VerifyCache* c, const char* name) {
    ScopedSpan span(trace, name, 0, 0, decoded.size());
    const Clock::time_point start = Clock::now();
    std::size_t verified = 0;
    do {
      std::size_t ok = 0;
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        ok += dr::proof::verify_offline(decoded[i], *verifiers[i], c) ==
              dr::proof::Verdict::kOk;
      }
      if (ok != decoded.size()) {
        report_.violation("a fetched proof fails offline verification");
        return 0.0;
      }
      verified += ok;
    } while (ms_between(start, Clock::now()) < 2.0);
    return ms_between(start, Clock::now()) * 1e3 /
           static_cast<double>(verified);
  };
  (void)pass(&cache, "replay.proof_fill");
  std::vector<double> cold;
  std::vector<double> warm;
  const Clock::time_point start = Clock::now();
  while (cold.size() < 5 || s_between(start, Clock::now()) < 0.2) {
    cold.push_back(pass(nullptr, "replay.proof_cold"));
    warm.push_back(pass(&cache, "replay.proof_warm"));
  }
  report_.metric("proof.verify_cold_us", median(cold), "us");
  report_.metric("proof.verify_warm_us", median(warm), "us");
  double bytes = 0;
  for (const Bytes& b : proofs) bytes += static_cast<double>(b.size());
  report_.metric("proof.bytes_per_proof",
                 bytes / static_cast<double>(proofs.size()), "bytes");
}

double sum(const std::vector<std::size_t>& v, std::size_t count) {
  double total = 0;
  for (std::size_t i = 0; i < count && i < v.size(); ++i) {
    total += static_cast<double>(v[i]);
  }
  return total;
}

/// A window per second of core time: for each one-second slice the host
/// ran the core for at least kMinCoreShare of, its decisions and messages
/// per such second, and the latencies of the decisions that arrived in it
/// scaled by the same share.
struct CoreTime {
  double core_s = 0;  // seconds the host ran the core, every slice
  std::vector<double> decisions_per_s;
  std::vector<double> messages_per_s;
  std::vector<double> latency_ms;
};

CoreTime core_time(const LoopResult& loop) {
  const std::size_t count = loop.slice_steal.size();
  std::vector<double> decisions(count, 0);
  std::vector<double> messages(count, 0);
  CoreTime out;
  for (std::size_t i = 0; i < loop.arrival_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(loop.arrival_s[i]);
    if (k >= count || 1 - loop.slice_steal[k] < kMinCoreShare) continue;
    const double share = 1 - loop.slice_steal[k];
    decisions[k] += 1;
    messages[k] += static_cast<double>(loop.messages[i]);
    out.latency_ms.push_back(loop.latency_ms[i] * share);
  }
  for (std::size_t k = 0; k < count; ++k) {
    const double share = 1 - loop.slice_steal[k];
    out.core_s += share;
    if (share < kMinCoreShare) continue;
    out.decisions_per_s.push_back(decisions[k] / share);
    out.messages_per_s.push_back(messages[k] / share);
  }
  return out;
}

double delta(const Snapshot& a, const Snapshot& b, const char* name) {
  return b.value(name) - a.value(name);
}

void DaemonBench::run() {
  cpus_ = pin_to_cores(kDaemonCores);
  std::string cores;
  for (const int c : cpus_) cores += (cores.empty() ? "" : ",") +
                                     std::to_string(c);
  report_.meta("cores_used", cores);
  report_.meta("endpoints", std::to_string(kEndpoints));
  report_.meta("in_flight", std::to_string(in_flight_));
  report_.meta("threads", "2");  // writer + reader over one connection
  // A loop consumes one heavy proof per proof-bearing decision, half the
  // decisions; the pool covers the warm-up of every bring-up plus a window
  // at up to 10000 decisions per second (about ten times what this mix
  // reaches on its one core).
  const auto pool = static_cast<std::size_t>(
      static_cast<double>(kSetupCycles * warm_up_instances_) +
      5000.0 * options_.seconds);
  build_heavy_pool(pool);

  std::unique_ptr<Daemon> daemon;
  std::vector<double> setups;
  const int cycles = options_.trace ? 1 : kSetupCycles;
  std::vector<Bytes> pool_copy = heavy_;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (daemon) retire(*daemon);
    heavy_ = pool_copy;  // a fresh daemon has an empty store
    daemon = std::make_unique<Daemon>();
    const StealMeter steal(cpus_);
    const Clock::time_point start = Clock::now();
    if (!bring_up(*daemon)) return;
    // In core time, like every other daemon time.
    setups.push_back(s_between(start, Clock::now()) * (1 - steal.share()));
  }
  pool_copy.clear();

  const double seconds =
      options_.trace ? options_.seconds / 2 : options_.seconds;
  const StealMeter steal(cpus_);
  const Snapshot before = daemon->snapshot();
  const LoopResult plain = closed_loop(*daemon, seconds, 0, SIZE_MAX, nullptr);
  const Snapshot after = daemon->snapshot();
  report_.meta("steal_share", std::to_string(steal.share()));
  const CoreTime core = core_time(plain);
  const double decisions = static_cast<double>(plain.latency_ms.size());
  if (decisions < 2 * kMixSize) {
    report_.fail("fewer than one mix cycle decided in the window");
    retire(*daemon);
    return;
  }
  // Whole pairs of mix cycles only, so the per-decision counts are exact.
  const std::size_t whole =
      plain.messages.size() / (2 * kMixSize) * (2 * kMixSize);

  if (!options_.trace) {
    // Per second of core time, slice by slice (kDaemonCores).
    report_.metric("decisions_per_s", median(core.decisions_per_s), "1/s");
    report_.metric("decision_p50_ms", median(core.latency_ms), "ms");
    report_.metric("ns_per_message", 1e9 / median(core.messages_per_s),
                   "ns");
    report_.metric("peak_rss_mb", static_cast<double>(plain.endpoint_rss) / 1e6,
                   "MB");
    report_.metric("setup_s", median(setups), "s");
    report_.metric("messages_per_decision",
                   sum(plain.messages, whole) / static_cast<double>(whole),
                   "count");
    report_.metric("payload_bytes_per_decision",
                   sum(plain.bytes, whole) / static_cast<double>(whole),
                   "bytes");
    negative_control(*daemon);
    retire(*daemon);
    return;
  }

  // The layers this workload must exercise; see README.md. The net
  // layer's error counters must stay 0 instead (retire()).
  report_.exercises(
      {"decision_p90_ms", "proofs_verified_per_s", "signatures_per_decision",
       "crypto.chain_cache_hit_rate",
       "svc.endpoint_cpu_ms_per_decision", "svc.reactor_cpu_ms_per_decision",
       "svc.frames_per_decision", "svc.wire_bytes_per_decision",
       "svc.wire_overhead_ratio", "svc.verify_stripe_hit_rate",
       "svc.metrics_scrape_ms", "svc.prove_p50_ms",
       "proof.store_light_hit_rate", "proof.verify_cold_us",
       "proof.verify_warm_us", "proof.bytes_per_proof"});
  Trace trace(200'000);
  const std::uint64_t timed_first =
      (plain.next_index + 2 * kMixSize - 1) / (2 * kMixSize) * (2 * kMixSize);
  const LoopResult timed =
      closed_loop(*daemon, seconds, timed_first, SIZE_MAX, &trace);
  report_.metric("trace.overhead_share",
                 1.0 - median(core_time(timed).decisions_per_s) /
                           median(core.decisions_per_s),
                 "ratio");
  if (const auto p90 = supported_percentile(core.latency_ms, 90)) {
    report_.metric("decision_p90_ms", *p90, "ms");
  }
  report_.metric("proofs_verified_per_s",
                 static_cast<double>(plain.verified_ok) / core.core_s,
                 "1/s");
  report_.metric("signatures_per_decision",
                 sum(plain.signatures, whole) / static_cast<double>(whole),
                 "count");

  const double completed =
      delta(before, after, "dr82_instances_completed_total");
  report_.metric("svc.endpoint_cpu_ms_per_decision",
                 (after.endpoint_cpu_ms - before.endpoint_cpu_ms) / completed,
                 "ms");
  report_.metric("svc.reactor_cpu_ms_per_decision",
                 (after.reactor_cpu_ms - before.reactor_cpu_ms) / completed,
                 "ms");
  report_.metric("svc.frames_per_decision",
                 delta(before, after, "dr82_frames_sent_total") / completed,
                 "count");
  const double wire = delta(before, after, "dr82_wire_bytes_by_correct_total");
  report_.metric("svc.wire_bytes_per_decision", wire / completed, "bytes");
  report_.metric("svc.wire_overhead_ratio",
                 wire / delta(before, after, "dr82_bytes_by_correct_total"),
                 "ratio");
  const double stripe_hits =
      delta(before, after, "dr82_verify_stripe_hits_total");
  const double stripe_misses =
      delta(before, after, "dr82_verify_stripe_misses_total");
  report_.metric("svc.verify_stripe_hit_rate",
                 stripe_hits / (stripe_hits + stripe_misses), "ratio");
  const double cache_hits = delta(before, after, "dr82_chain_cache_hits_total");
  const double cache_misses =
      delta(before, after, "dr82_chain_cache_misses_total");
  report_.metric("crypto.chain_cache_hit_rate",
                 cache_hits / (cache_hits + cache_misses), "ratio");
  report_.metric("svc.prove_p50_ms", median(plain.prove_ms), "ms");
  report_.metric("net.stale_frames_per_decision",
                 delta(before, after, "dr82_sync_stale_frames_total") /
                     completed,
                 "count");
  report_.metric("net.send_errors",
                 delta(before, after, "dr82_sync_send_errors_total"), "count");
  report_.metric("net.endpoints_degraded",
                 delta(before, after, "dr82_net_endpoints_degraded_total"),
                 "count");
  // Share of verify_proofs answers the store gave by digest lookup alone
  // (its duplicate path); extraction admits new proofs, never duplicates.
  const double light = delta(before, after, "dr82_proof_store_duplicate_total");
  const double verified = delta(before, after, "dr82_proof_verify_ok_total") +
                          delta(before, after, "dr82_proof_verify_fail_total");
  report_.metric("proof.store_light_hit_rate", light / verified, "ratio");

  std::vector<double> scrape_ms;
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span(&trace, "rpc.metrics");
    const Clock::time_point start = Clock::now();
    if (!daemon->client().metrics(kTimeout)) {
      report_.fail("metrics scrape failed");
    }
    scrape_ms.push_back(ms_between(start, Clock::now()));
  }
  report_.metric("svc.metrics_scrape_ms", median(scrape_ms), "ms");
  offline_verify(plain.fetched, &trace);
  negative_control(*daemon);
  retire(*daemon);
  if (!options_.trace_path.empty() &&
      !trace.write_chrome(options_.trace_path)) {
    report_.violation("cannot write the trace to " + options_.trace_path);
  }
  report_.meta("spans_kept", std::to_string(trace.kept()));
  report_.meta("spans_dropped", std::to_string(trace.dropped()));
}

}  // namespace

void run_daemon_workload(const Options& options, Report& report) {
  DaemonBench(options, report).run();
}

}  // namespace perfbench
