// The two simulator workloads.
//
//   sim-alg5-n6400         alg5[s=8], n=6400, t=8, HMAC, serial. The
//                          paper's O(n + t^2) algorithm at the size where
//                          memory grows faster than messages: decode,
//                          allocation, chain verification and the protocol
//                          step are the whole cost.
//   sim-phase-king-pooled  phase-king, n=800, t=8, unauthenticated, on a
//                          PhasePool of min(4, cores) threads: millions of
//                          one-vote messages make delivery, fan-out, merge
//                          and the pool barrier the whole cost, with no
//                          crypto. A crypto or proof change must not move it.
//
// Both run t silent faults at ids 1..t and reuse one sim::RunArenas across
// instances; every instance gets its own seed from --seed.
//
// The traced run measures half its window untraced (the reference for
// trace.overhead_share and the allocation counts) and half with every
// correct process wrapped in a timing sim::Process installed through
// sim::Runner::install. Afterwards it replays one instance's recorded
// payloads through the ba decoders and the harvested chain links through
// crypto::Verifier/Signer, and (pooled only) reruns seeds serially.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "adversary/strategies.h"
#include "ba/algorithm5.h"
#include "ba/exchange.h"
#include "ba/registry.h"
#include "ba/signed_value.h"
#include "check/oracles.h"
#include "report.h"
#include "sim/arenas.h"
#include "sim/runner.h"

namespace perfbench {
namespace {

// setup_s is the median of this many bring-ups (about 1.7 s each).
constexpr int kSetupCycles = 3;

using dr::Bytes;
using dr::ByteView;
using dr::ba::BAConfig;
using dr::sim::PhaseNum;
using dr::sim::ProcId;

struct Spec {
  dr::ba::Protocol protocol;
  BAConfig config;  // value is set per instance
  std::size_t threads = 1;
};

Spec make_spec(const Options& options) {
  Spec spec;
  if (options.workload == "sim-alg5-n6400") {
    spec.protocol = dr::ba::make_alg5_protocol(8);
    spec.config = options.toy ? BAConfig{400, 2, 0, 0}
                              : BAConfig{6400, 8, 0, 0};
  } else {
    spec.protocol = *dr::ba::find_protocol("phase-king");
    spec.config = options.toy ? BAConfig{60, 2, 0, 0}
                              : BAConfig{800, 8, 0, 0};
    spec.threads = std::min<std::size_t>(4, online_cores());
  }
  return spec;
}

BAConfig instance_config(const Spec& spec, std::uint64_t seed) {
  BAConfig config = spec.config;
  config.value = (seed >> 17) & 1;  // the transmitter's input, 0 or 1
  return config;
}

/// One timed on_phase call of one process.
struct PhaseCall {
  PhaseNum phase = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// The ba-layer probe: forwards to the protocol's process and times each
/// on_phase. One wrapper per process, stepped by one thread per phase, so
/// its call log needs no lock; it is reserved up front so the wrapper
/// allocates nothing inside the run.
class TimedProcess final : public dr::sim::Process {
 public:
  TimedProcess(std::unique_ptr<dr::sim::Process> inner,
               std::vector<PhaseCall>* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  void on_phase(dr::sim::Context& ctx) override {
    const std::int64_t start = Trace::now_ns();
    inner_->on_phase(ctx);
    calls_->push_back(
        {ctx.phase(), start, Trace::now_ns(), Trace::thread_index()});
  }
  std::optional<dr::sim::Value> decision() const override {
    return inner_->decision();
  }
  std::optional<Bytes> evidence() const override {
    return inner_->evidence();
  }

 private:
  std::unique_ptr<dr::sim::Process> inner_;
  std::vector<PhaseCall>* calls_;
};

/// What one instance leaves behind once its RunResult is dropped.
struct Outcome {
  std::uint64_t seed = 0;
  double wall_ms = 0;
  std::size_t messages = 0;
  std::size_t signatures = 0;
  std::size_t bytes = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  dr::sim::AllocReport allocs;
};

class SimBench {
 public:
  SimBench(const Options& options, Report& report)
      : options_(options), report_(report), spec_(make_spec(options)),
        profile_(dr::check::profile_for(spec_.protocol.name, spec_.config)) {}

  void run();

 private:
  /// Checks one finished instance; a violation counts it failed.
  bool check(const BAConfig& config, const dr::sim::RunResult& result);
  Outcome summarize(std::uint64_t seed, double wall_ms,
                    const dr::sim::RunResult& result) const;

  /// One instance through ba::run_scenario (the untraced path).
  std::optional<Outcome> run_plain(std::uint64_t seed, std::size_t threads);
  /// One instance through sim::Runner::install with timing wrappers.
  std::optional<Outcome> run_timed(std::uint64_t seed, std::uint64_t index);

  /// A fresh RunArenas plus one warm-up instance. Returns its seconds.
  double bring_up(std::uint64_t cycle);
  /// Runs instances until `seconds` have passed; returns the window's
  /// wall time in seconds.
  double window(double seconds, bool timed, std::uint64_t& next_index,
                std::vector<Outcome>& out);

  void report_end_to_end(double window_s, const std::vector<Outcome>& out,
                         double setup_s);
  void report_layers(double plain_s, const std::vector<Outcome>& plain,
                     double timed_s, const std::vector<Outcome>& timed);
  void replay_codec_and_crypto(std::uint64_t seed);
  void pool_speedup(const std::vector<Outcome>& pooled);

  const Options& options_;
  Report& report_;
  Spec spec_;
  dr::check::BoundProfile profile_;
  std::unique_ptr<dr::sim::RunArenas> arenas_;
  std::unique_ptr<Trace> trace_;

  // ba / sim layer accumulators of the timed window.
  double timed_wall_ns_ = 0;
  double covered_ns_ = 0;   // union of on_phase intervals, per phase
  double busy_ns_ = 0;      // sum of on_phase durations
  double critical_ns_ = 0;  // per phase: last end - first start
  std::vector<double> phase_ms_;
};

bool SimBench::check(const BAConfig& config,
                     const dr::sim::RunResult& result) {
  const auto verdict = dr::sim::check_byzantine_agreement(
      result, config.transmitter, config.value);
  if (!verdict.agreement || !verdict.validity) {
    report_.fail("instance broke agreement or validity");
    return false;
  }
  if (const auto broken = bound_violation(profile_, result.metrics)) {
    report_.fail(*broken);
    return false;
  }
  return true;
}

Outcome SimBench::summarize(std::uint64_t seed, double wall_ms,
                            const dr::sim::RunResult& result) const {
  const dr::sim::Metrics& m = result.metrics;
  return Outcome{seed,
                 wall_ms,
                 m.messages_by_correct(),
                 m.signatures_by_correct(),
                 m.bytes_by_correct(),
                 m.chain_cache_hits(),
                 m.chain_cache_misses(),
                 result.allocs};
}

std::vector<dr::ba::ScenarioFault> silent_faults(std::size_t t) {
  std::vector<dr::ba::ScenarioFault> faults;
  for (ProcId p = 1; p <= t; ++p) {
    faults.push_back({p, [](ProcId, const BAConfig&) {
                        return std::make_unique<dr::adversary::SilentProcess>();
                      }});
  }
  return faults;
}

std::optional<Outcome> SimBench::run_plain(std::uint64_t seed,
                                           std::size_t threads) {
  const BAConfig config = instance_config(spec_, seed);
  dr::ba::ScenarioOptions scenario;
  scenario.seed = seed;
  scenario.threads = threads;
  scenario.arenas = arenas_.get();
  report_.attempt();
  const Clock::time_point start = Clock::now();
  const dr::sim::RunResult result = dr::ba::run_scenario(
      spec_.protocol, config, scenario, silent_faults(config.t));
  const double wall_ms = ms_between(start, Clock::now());
  if (!check(config, result)) return std::nullopt;
  return summarize(seed, wall_ms, result);
}

/// The runner of one instance, as ba::run_scenario would build it: silent
/// faults at ids 1..t and the protocol everywhere else — each correct
/// process wrapped in a TimedProcess logging to calls[p] when `calls` is
/// given.
std::unique_ptr<dr::sim::Runner> make_runner(
    const Spec& spec, const BAConfig& config, dr::sim::RunConfig run_config,
    std::vector<std::vector<PhaseCall>>* calls) {
  run_config.n = config.n;
  run_config.t = config.t;
  run_config.transmitter = config.transmitter;
  run_config.value = config.value;
  auto runner = std::make_unique<dr::sim::Runner>(run_config);
  for (ProcId p = 1; p <= config.t; ++p) runner->mark_faulty(p);
  for (ProcId p = 0; p < config.n; ++p) {
    if (runner->is_faulty(p)) {
      runner->install(p, std::make_unique<dr::adversary::SilentProcess>());
    } else if (calls != nullptr) {
      runner->install(p, std::make_unique<TimedProcess>(
                             spec.protocol.make(p, config), &(*calls)[p]));
    } else {
      runner->install(p, spec.protocol.make(p, config));
    }
  }
  return runner;
}

std::optional<Outcome> SimBench::run_timed(std::uint64_t seed,
                                           std::uint64_t index) {
  const BAConfig config = instance_config(spec_, seed);
  const PhaseNum steps = spec_.protocol.steps(config);
  std::vector<std::vector<PhaseCall>> calls(config.n);
  for (auto& c : calls) c.reserve(steps);
  dr::sim::RunConfig run_config;
  run_config.seed = seed;
  run_config.threads = spec_.threads;
  run_config.arenas = arenas_.get();
  report_.attempt();
  const std::int64_t start_ns = Trace::now_ns();
  const Clock::time_point start = Clock::now();
  const dr::sim::RunResult result =
      make_runner(spec_, config, run_config, &calls)->run(steps);
  const double wall_ms = ms_between(start, Clock::now());
  const std::int64_t end_ns = Trace::now_ns();
  if (!check(config, result)) return std::nullopt;

  // Per phase: the union of the on_phase intervals (covered by process
  // work), their sum (busy), and first start to last end (critical path).
  // Runner self time is the instance's wall time outside the union.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> by_phase(
      steps + 1);
  Span instance_span{"instance", start_ns, end_ns, trace_->next_id(), 0,
                     index, Trace::thread_index(), 0, seed};
  trace_->add(instance_span);
  std::vector<Span> spans;
  for (ProcId p = 0; p < config.n; ++p) {
    for (const PhaseCall& c : calls[p]) {
      by_phase[c.phase].emplace_back(c.start_ns, c.end_ns);
      busy_ns_ += static_cast<double>(c.end_ns - c.start_ns);
      spans.push_back({"on_phase", c.start_ns, c.end_ns, trace_->next_id(),
                       instance_span.id, index, c.tid,
                       static_cast<std::uint32_t>(c.phase), p});
    }
  }
  trace_->add_all(spans);
  std::int64_t previous_start = -1;
  for (auto& intervals : by_phase) {
    if (intervals.empty()) continue;
    std::sort(intervals.begin(), intervals.end());
    std::int64_t cover_end = intervals.front().first;
    std::int64_t last_end = 0;
    for (const auto& [s, e] : intervals) {
      covered_ns_ += static_cast<double>(
          std::max<std::int64_t>(0, e - std::max(s, cover_end)));
      cover_end = std::max(cover_end, e);
      last_end = std::max(last_end, e);
    }
    critical_ns_ += static_cast<double>(last_end - intervals.front().first);
    if (previous_start >= 0) {
      phase_ms_.push_back(
          static_cast<double>(intervals.front().first - previous_start) / 1e6);
    }
    previous_start = intervals.front().first;
  }
  if (previous_start >= 0) {
    phase_ms_.push_back(static_cast<double>(end_ns - previous_start) / 1e6);
  }
  timed_wall_ns_ += static_cast<double>(end_ns - start_ns);
  return summarize(seed, wall_ms, result);
}

double SimBench::bring_up(std::uint64_t cycle) {
  const Clock::time_point start = Clock::now();
  arenas_.reset();
  arenas_ = std::make_unique<dr::sim::RunArenas>();
  // Warm-up seeds sit outside the window's seed stream.
  (void)run_plain(derive_seed(options_.seed, 1'000'000 + cycle),
                  spec_.threads);
  return s_between(start, Clock::now());
}

double SimBench::window(double seconds, bool timed, std::uint64_t& next_index,
                        std::vector<Outcome>& out) {
  const Clock::time_point start = Clock::now();
  do {
    const std::uint64_t index = next_index++;
    const std::uint64_t seed = derive_seed(options_.seed, index);
    std::optional<Outcome> outcome =
        timed ? run_timed(seed, index) : run_plain(seed, spec_.threads);
    if (outcome) out.push_back(*outcome);
  } while (s_between(start, Clock::now()) < seconds);
  return s_between(start, Clock::now());
}

double sum(const std::vector<Outcome>& out, std::size_t Outcome::*field) {
  double total = 0;
  for (const Outcome& o : out) total += static_cast<double>(o.*field);
  return total;
}

std::vector<double> walls(const std::vector<Outcome>& out) {
  std::vector<double> ms;
  for (const Outcome& o : out) ms.push_back(o.wall_ms);
  return ms;
}

void SimBench::report_end_to_end(double window_s,
                                 const std::vector<Outcome>& out,
                                 double setup_s) {
  if (out.empty()) return;
  const double decisions = static_cast<double>(out.size());
  const double messages = sum(out, &Outcome::messages);
  report_.metric("decisions_per_s", decisions / window_s, "1/s");
  report_.metric("decision_p50_ms", median(walls(out)), "ms");
  report_.metric("ns_per_message", window_s * 1e9 / messages, "ns");
  report_.metric("peak_rss_mb",
                 static_cast<double>(peak_rss_bytes(0)) / 1e6, "MB");
  report_.metric("setup_s", setup_s, "s");
  report_.metric("messages_per_decision", messages / decisions, "count");
  report_.metric("payload_bytes_per_decision",
                 sum(out, &Outcome::bytes) / decisions, "bytes");
}

void SimBench::report_layers(double plain_s,
                             const std::vector<Outcome>& plain,
                             double timed_s,
                             const std::vector<Outcome>& timed) {
  if (plain.empty() || timed.empty()) return;
  const double decisions = static_cast<double>(plain.size());
  const double messages = sum(plain, &Outcome::messages);
  const double threads = static_cast<double>(spec_.threads);
  const double plain_rate = decisions / plain_s;
  const double timed_rate = static_cast<double>(timed.size()) / timed_s;
  report_.metric("trace.overhead_share", 1.0 - timed_rate / plain_rate,
                 "ratio");
  report_.metric("signatures_per_decision",
                 sum(plain, &Outcome::signatures) / decisions, "count");

  report_.metric("sim.runner_self_share",
                 1.0 - covered_ns_ / timed_wall_ns_, "ratio");
  report_.metric("sim.phase_p50_ms", median(phase_ms_), "ms");
  report_.metric("sim.pool_busy_share", busy_ns_ / (threads * critical_ns_),
                 "ratio");
  report_.metric("ba.step_share", busy_ns_ / (threads * timed_wall_ns_),
                 "ratio");
  report_.metric("ba.step_us_per_message",
                 busy_ns_ / 1e3 / sum(timed, &Outcome::messages), "us");

  const double hits = sum(plain, &Outcome::cache_hits);
  const double lookups = hits + sum(plain, &Outcome::cache_misses);
  if (lookups > 0) {
    report_.metric("crypto.chain_cache_hit_rate", hits / lookups, "ratio");
  }

  // Allocation counts come from the untraced instances: the wrappers'
  // logs are reserved up front, but the untraced ones are the program.
  double blocks = 0;
  double bytes = 0;
  std::vector<double> steady;
  std::vector<double> high_water;
  for (const Outcome& o : plain) {
    blocks += static_cast<double>(o.allocs.total_blocks);
    bytes += static_cast<double>(o.allocs.total_bytes);
    steady.push_back(static_cast<double>(o.allocs.steady_blocks));
    high_water.push_back(
        static_cast<double>(o.allocs.arena_payload_high_water +
                            o.allocs.arena_scratch_high_water));
  }
  report_.metric("alloc.blocks_per_message", blocks / messages, "count");
  report_.metric("alloc.bytes_per_message", bytes / messages, "bytes");
  report_.metric("alloc.steady_blocks", median(steady), "count");
  report_.metric("arena.high_water_mb", median(high_water) / 1e6, "MB");
  const double per_instance = messages / decisions;
  report_.metric("mem.rss_bytes_per_message",
                 static_cast<double>(peak_rss_bytes(0)) / per_instance,
                 "bytes");
}

/// One chain link as the verifier sees it: who signed which prefix digest.
struct Link {
  ProcId signer = 0;
  dr::crypto::Digest digest{};
  dr::crypto::Signature sig;
};

void harvest(const dr::ba::SignedValue& sv,
             std::unordered_set<std::string>& seen, std::vector<Link>& links) {
  for (std::size_t i = 0; i < sv.chain.size(); ++i) {
    const Bytes& sig = sv.chain[i].sig;
    if (!seen.emplace(sig.begin(), sig.end()).second) continue;
    links.push_back({sv.chain[i].signer,
                     dr::ba::chain_prefix_digest(sv, i), sv.chain[i]});
  }
}

/// Decodes one Algorithm 5 payload by its shape: an alg5 message, a bare
/// signed value (the inner Algorithm 2), or Algorithm 4's attested
/// bundles. Returns false when no shape fits.
bool decode_payload(ByteView data, std::vector<dr::ba::SignedValue>* out) {
  if (auto msg = dr::ba::decode_alg5(data)) {
    if (out != nullptr) out->push_back(std::move(msg->first));
    return true;
  }
  if (auto sv = dr::ba::decode_signed_value(data)) {
    if (out != nullptr) out->push_back(std::move(*sv));
    return true;
  }
  dr::Reader bundle(data);
  const std::size_t count = bundle.seq();
  bool ok = bundle.ok();
  for (std::size_t i = 0; ok && i < count; ++i) {
    ok = dr::ba::decode_attested(bundle).has_value();
  }
  if (ok && bundle.done()) return true;
  dr::Reader single(data);
  return dr::ba::decode_attested(single).has_value() && single.done();
}

void SimBench::replay_codec_and_crypto(std::uint64_t seed) {
  const BAConfig config = instance_config(spec_, seed);
  dr::sim::RunConfig run_config;
  run_config.seed = seed;
  run_config.record_history = true;
  const auto owned = make_runner(spec_, config, run_config, nullptr);
  dr::sim::Runner& runner = *owned;
  report_.attempt();
  const dr::sim::RunResult result = runner.run(spec_.protocol.steps(config));
  if (!check(config, result)) return;

  std::vector<ByteView> payloads;
  for (PhaseNum k = 1; k <= result.history.phases(); ++k) {
    for (const auto& edge : result.history.phase(k).edges()) {
      if (!runner.is_faulty(edge.from)) payloads.push_back(edge.label.view());
    }
  }
  if (payloads.empty()) {
    report_.violation("the replayed instance recorded no payloads");
    return;
  }

  // Codec: every payload a correct processor sent, decoded once per pass
  // the way its receiver decodes it. A pass is one batch span.
  ScopedSpan replay(trace_.get(), "replay", 0, 0, seed);
  std::vector<double> pass_ns;
  const Clock::time_point start = Clock::now();
  while (pass_ns.size() < 3 || s_between(start, Clock::now()) < 0.3) {
    ScopedSpan pass(trace_.get(), "replay.decode", replay.id(), 0,
                    payloads.size());
    const Clock::time_point pass_start = Clock::now();
    std::size_t decoded = 0;
    for (const ByteView p : payloads) decoded += decode_payload(p, nullptr);
    pass_ns.push_back(ms_between(pass_start, Clock::now()) * 1e6);
    if (decoded != payloads.size()) {
      report_.violation("recorded payloads that no ba decoder accepts: " +
                        std::to_string(payloads.size() - decoded));
      return;
    }
  }
  report_.metric("codec.decode_ns_per_message",
                 median(pass_ns) / static_cast<double>(payloads.size()), "ns");

  // Crypto: the distinct chain links of the run, verified cold (no
  // VerifyCache) and re-signed by their signer's own key. The wire shapes
  // overlap (an attested bundle can parse as a signed value), so only
  // chains that verify are harvested, as a receiver would keep them.
  std::unordered_set<std::string> seen;  // signature bytes already taken
  std::vector<Link> links;
  std::vector<dr::ba::SignedValue> values;
  for (const ByteView p : payloads) {
    values.clear();
    decode_payload(p, &values);
    for (const auto& sv : values) {
      if (dr::ba::verify_chain(sv, runner.verifier())) {
        harvest(sv, seen, links);
      }
    }
  }
  if (links.empty()) {
    report_.violation("the replayed payloads hold no chain links");
    return;
  }
  std::vector<double> verify_ns;
  std::vector<double> sign_ns;
  const Clock::time_point crypto_start = Clock::now();
  while (verify_ns.size() < 3 || s_between(crypto_start, Clock::now()) < 0.3) {
    {
      ScopedSpan batch(trace_.get(), "replay.verify", replay.id(), 0,
                       links.size());
      const Clock::time_point t0 = Clock::now();
      std::size_t valid = 0;
      for (const Link& l : links) {
        valid += runner.verifier().verify(
            l.signer, ByteView(l.digest.data(), l.digest.size()), l.sig);
      }
      verify_ns.push_back(ms_between(t0, Clock::now()) * 1e6);
      if (valid != links.size()) {
        report_.violation("harvested chain links that do not verify");
        return;
      }
    }
    ScopedSpan batch(trace_.get(), "replay.sign", replay.id(), 0,
                     links.size());
    const Clock::time_point t0 = Clock::now();
    std::size_t equal = 0;
    for (const Link& l : links) {
      const dr::crypto::Signature again = runner.signer_for(l.signer).sign(
          l.signer, ByteView(l.digest.data(), l.digest.size()));
      equal += again == l.sig;
    }
    sign_ns.push_back(ms_between(t0, Clock::now()) * 1e6);
    if (equal != links.size()) {
      report_.violation("re-signing a harvested link gave other bytes");
      return;
    }
  }
  const double count = static_cast<double>(links.size());
  report_.metric("crypto.verify_ns_per_link", median(verify_ns) / count, "ns");
  report_.metric("crypto.sign_ns", median(sign_ns) / count, "ns");
}

void SimBench::pool_speedup(const std::vector<Outcome>& pooled) {
  const std::size_t k = std::min<std::size_t>(3, pooled.size());
  std::vector<double> serial_ms;
  std::vector<double> pooled_ms;
  for (std::size_t i = 0; i < k; ++i) {
    const std::optional<Outcome> serial = run_plain(pooled[i].seed, 1);
    if (!serial) return;
    if (serial->messages != pooled[i].messages) {
      report_.violation("serial and pooled runs of one seed differ");
      return;
    }
    serial_ms.push_back(serial->wall_ms);
    pooled_ms.push_back(pooled[i].wall_ms);
  }
  if (k > 0) {
    report_.metric("sim.pool_speedup", median(serial_ms) / median(pooled_ms),
                   "ratio");
  }
}

void SimBench::run() {
  report_.meta("threads", std::to_string(spec_.threads));
  report_.meta("n", std::to_string(spec_.config.n));
  report_.meta("t", std::to_string(spec_.config.t));
  report_.meta("protocol", spec_.protocol.name);
  if (!spec_.protocol.supports(spec_.config)) {
    report_.violation("configuration not supported by " + spec_.protocol.name);
    return;
  }
  std::uint64_t next_index = 0;
  if (!options_.trace) {
    std::vector<double> setups;
    for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
      setups.push_back(bring_up(static_cast<std::uint64_t>(cycle)));
    }
    std::vector<Outcome> out;
    const StealMeter steal;
    const double window_s = window(options_.seconds, false, next_index, out);
    report_.meta("steal_share", std::to_string(steal.share()));
    report_end_to_end(window_s, out, median(setups));
    return;
  }

  // The layers this workload must exercise; see README.md.
  report_.exercises({"sim.runner_self_share", "sim.phase_p50_ms",
                     "sim.pool_busy_share",
                     "ba.step_share", "ba.step_us_per_message",
                     "alloc.blocks_per_message", "alloc.bytes_per_message",
                     "arena.high_water_mb", "mem.rss_bytes_per_message"});
  if (spec_.protocol.authenticated) {
    report_.exercises({"signatures_per_decision",
                       "codec.decode_ns_per_message",
                       "crypto.verify_ns_per_link", "crypto.sign_ns",
                       "crypto.chain_cache_hit_rate"});
  }
  if (spec_.threads > 1) report_.exercises({"sim.pool_speedup"});
  trace_ = std::make_unique<Trace>(200'000);
  bring_up(0);
  std::vector<Outcome> plain;
  std::vector<Outcome> timed;
  const double plain_s = window(options_.seconds / 2, false, next_index, plain);
  const double timed_s = window(options_.seconds / 2, true, next_index, timed);
  report_layers(plain_s, plain, timed_s, timed);
  if (spec_.protocol.authenticated) {
    replay_codec_and_crypto(derive_seed(options_.seed, next_index++));
  }
  if (spec_.threads > 1) pool_speedup(plain);
  if (!options_.trace_path.empty() &&
      !trace_->write_chrome(options_.trace_path)) {
    report_.violation("cannot write the trace to " + options_.trace_path);
  }
  report_.meta("spans_kept", std::to_string(trace_->kept()));
  report_.meta("spans_dropped", std::to_string(trace_->dropped()));
}

}  // namespace

void run_sim_workload(const Options& options, Report& report) {
  SimBench(options, report).run();
}

}  // namespace perfbench
