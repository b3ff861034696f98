// Campaign benchmark: runs shadowprobe's two-phase decoy campaign on one
// workload, checks every export byte for byte, and prints either the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   campaign_bench --workload clean_sharded|lossy_sharded
//                  --seed N --seconds S --trace 0|1
//                  --golden tests/data/golden_campaign.json
//                  [--spans-out FILE]
//
// Every workload is the CLI's default campaign (scale 1, 25 simulated days,
// in-process stealing scheduler). One *round* runs that campaign once on
// each of the workload's topologies, whose seeds derive from --seed; the
// benchmark runs as many whole rounds as fit in --seconds, at least one.
// Topologies differ in how many VPs pass screening and how many paths
// Phase II sweeps, so one topology's wall time says little about the next
// seed's; averaging a round over several topologies is what keeps a run's
// figures steady from seed to seed. Each campaign runs in a forked child
// process, as each CLI campaign is its own process. Times are net of the
// time the hypervisor stole from the benchmark's CPUs (see Stopwatch) and
// for a sharded workload, scaled to a reference CPU speed (see CpuSpeed).
//
// Output checks, each counted in "attempted" and, on mismatch, "failed":
//   - a campaign at the golden settings (scale 0.25, seed 20240301, 6 days)
//     exports exactly tests/data/golden_campaign.json, on 1 shard and on 4;
//   - every repeat of a topology exports the bytes of its first run;
//   - lossy_sharded: a serial run of the first topology exports the same
//     bytes as the sharded run;
//   - --trace 1: the phase-by-phase traced run exports the same bytes as
//     the untraced run of the same topology.
//
// The last line on stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/campaign_plan.h"
#include "core/campaign_result.h"
#include "core/decoy.h"
#include "core/json_export.h"
#include "core/shard_backend.h"
#include "core/testbed.h"
#include "core/world.h"
#include "net/dns.h"
#include "net/http.h"
#include "net/ipv4.h"
#include "net/tls.h"
#include "shadow/profiles.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/routing.h"

using namespace shadowprobe;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps the compiler from discarding a computed value (the same barrier
/// google-benchmark's DoNotOptimize uses).
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  const char* name;
  bool lossy;
  /// Topologies per round. Sized so one round takes about 25 s on 4 cores
  /// (a run then ends well inside the time a benchmark run may take even
  /// when a loaded host halves the speed); more topologies would average
  /// out more of the seed-to-seed spread.
  int topologies;
};

// Both run on 4 shards. A serial campaign's speed follows the one CPU it
// runs on, which drifted by up to 25% within minutes with nothing stolen and
// which no reference kernel tracked (see CpuSpeed), so serial workloads were
// dropped; 4 shards average over 4 CPUs.
// clean_sharded: Phase-II per-hop forwarding dominates, and the barrier,
//   stealing and the serial merge/correlate tail show.
// lossy_sharded: every link carries a fault rule; retries, retransmit timers
//   and quarantine re-homing run.
constexpr int kShards = 4;
constexpr Workload kWorkloads[] = {
    {"clean_sharded", false, 10},
    {"lossy_sharded", true, 32},
};

constexpr int kCampaignDays = 25;
/// Stand-alone set-ups per run; setup_s is the median of their CPU times.
constexpr int kSetupRepeats = 64;

/// Topology seed `index` of a run: a splitmix64 mix of the workload seed,
/// kept below 2^31 so the exported config prints it unchanged.
std::uint64_t topology_seed(std::uint64_t seed, int index) {
  std::uint64_t z = seed * 0x100000001B3ULL + static_cast<std::uint64_t>(index) +
                    0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z & 0x7FFFFFFFULL;
}

core::TestbedConfig bed_config(std::uint64_t seed, double scale) {
  core::TestbedConfig config;
  config.topology.seed = seed;
  config.topology.apply_scale(scale);
  return config;
}

core::CampaignConfig campaign_config(int days, bool lossy) {
  core::CampaignConfig config;
  config.total_duration = static_cast<SimDuration>(days) * kDay;
  if (lossy) config.faults = sim::FaultProfile::parse("lossy").value();
  return config;
}

/// The CLI's deployment of ground-truth exhibitors.
core::CampaignEngine::Decorator exhibitors() {
  return [](core::Testbed& replica) -> std::shared_ptr<void> {
    return std::make_shared<shadow::ShadowDeployment>(
        shadow::deploy_standard_exhibitors(replica, shadow::ShadowConfig{}));
  };
}

// ---------------------------------------------------------------------------
// Stolen time. On a shared virtual machine the hypervisor runs other guests
// on our CPUs while a campaign wants them; that drifts the same code's wall
// time by 10-60% over minutes, and the drift moves whole runs, so no
// averaging inside a run removes it. The guest kernel counts it: /proc/stat
// reports the time each CPU was runnable but not run ("steal"), and a
// process's CPU time leaves it out. A campaign's time is therefore reported
// as its wall time times the share of the CPU time it asked for that it got,
// cpu / (cpu + steal): for a serial campaign that is the wall time less the
// stolen time, for a campaign on every CPU the wall time less the mean time
// stolen from each.

/// Time stolen from every CPU of the machine so far, summed; 0 where
/// /proc/stat cannot be read.
double stolen_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t ticks[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (std::uint64_t& field : ticks) stat >> field;
  if (!stat || cpu != "cpu") return 0.0;
  return static_cast<double>(ticks[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// CPU time of this process and of its children it has waited for.
double process_cpu_s() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage {};
    ::getrusage(who, &usage);
    for (const timeval& tv : {usage.ru_utime, usage.ru_stime}) {
      total += static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    }
  }
  return total;
}

/// A stopwatch that reads wall time net of stolen time (see above).
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_s_(process_cpu_s()), stolen_s_(stolen_s()) {}

  [[nodiscard]] double wall_s() const { return seconds_since(wall_); }
  [[nodiscard]] double stolen() const { return stolen_s() - stolen_s_; }
  /// Share of the CPU time this process asked for since the start that it got.
  [[nodiscard]] double run_share() const {
    double cpu = process_cpu_s() - cpu_s_;
    double wanted = cpu + stolen();
    return wanted > 0.0 ? cpu / wanted : 1.0;
  }
  [[nodiscard]] double seconds() const { return wall_s() * run_share(); }

 private:
  Clock::time_point wall_;
  double cpu_s_;
  double stolen_s_;
};

// ---------------------------------------------------------------------------
// CPU speed. With stolen time netted out, a CPU second still does 10-30%
// more or less work from one minute to the next, as other guests load the
// cores and memory they share with ours. A reference kernel run on every
// CPU the shard threads occupy, at once, before each campaign tracks that:
// its thread CPU time (which leaves stolen time out) is scaled to
// kReferenceKernelS, and every reported time is multiplied by
// kReferenceKernelS over the run's mean kernel time. (A serial campaign
// runs on one CPU, and scaling it by the mean of all four doubled its
// spread from seed to seed.)
// A kernel run that lost time to steal reads high even in CPU time (by 7%
// in a run whose kernels lost 38% of their wall time), so kernel runs whose
// wall time exceeds their CPU time by more than 2% are left out of the mean
// while any others are left. The kernel uses only the standard library, so
// no change to shadowprobe moves it.

constexpr double kReferenceKernelS = 0.018;
/// Kernel samples per CPU per CpuSpeed::sample().
constexpr int kKernelSamples = 3;
/// A kernel sample whose wall time exceeds its CPU time by more than this
/// factor was stolen from.
constexpr double kStolenKernelWall = 1.02;

double thread_cpu_s() {
  timespec now {};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

/// A toy event simulation on the standard library: a binary heap of timed
/// events, a hash-table next-hop lookup and a short payload allocation per
/// event, like the simulator's per-hop work.
struct KernelTime {
  double wall_s;
  double cpu_s;  ///< thread CPU time
};

KernelTime time_reference_kernel() {
  struct Event {
    std::uint64_t when;
    std::uint32_t node;
    bool operator<(const Event& other) const { return when > other.when; }
  };
  const Clock::time_point wall_start = Clock::now();
  const double cpu_start = thread_cpu_s();
  constexpr std::uint32_t kNodes = 4096;
  std::unordered_map<std::uint32_t, std::uint32_t> next_hop;
  for (std::uint32_t i = 0; i < kNodes; ++i) next_hop[i * 2654435761U] = (i * 7 + 1) % kNodes;
  std::priority_queue<Event> queue;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sink = 0;
  for (std::uint32_t i = 0; i < 600; ++i) queue.push({i, i % kNodes});
  for (int step = 0; step < 180000; ++step) {
    Event event = queue.top();
    queue.pop();
    auto hop = next_hop.find(event.node * 2654435761U);
    std::uint32_t next = hop == next_hop.end() ? 0 : hop->second;
    std::vector<std::uint8_t> payload(48 + (event.node & 63), static_cast<std::uint8_t>(next));
    sink += payload.back() + payload.size();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    queue.push({event.when + 1 + (x & 1023), next});
  }
  keep(sink);
  return {seconds_since(wall_start), thread_cpu_s() - cpu_start};
}

class CpuSpeed {
 public:
  /// Tracks the CPU speed for a campaign of `threads` shard threads.
  explicit CpuSpeed(int threads) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ::sched_getaffinity(0, sizeof(allowed), &allowed);
    for (int cpu = 0; cpu < CPU_SETSIZE && static_cast<int>(cpus_.size()) < threads; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  /// Runs the kernel kKernelSamples times on every CPU at once.
  void sample() {
    std::vector<std::vector<KernelTime>> per_cpu(cpus_.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      threads.emplace_back([cpu = cpus_[i], &samples = per_cpu[i]] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
        for (int n = 0; n < kKernelSamples; ++n) samples.push_back(time_reference_kernel());
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const auto& samples : per_cpu) {
      for (const KernelTime& time : samples) {
        (time.wall_s > kStolenKernelWall * time.cpu_s ? stolen_s_ : kernel_s_)
            .push_back(time.cpu_s);
      }
    }
  }

  /// Mean kernel CPU time over the run, of the samples not stolen from
  /// while there are any.
  [[nodiscard]] double kernel_s() const {
    return kernel_s_.empty() ? mean(stolen_s_) : mean(kernel_s_);
  }
  /// Samples in kernel_s() and in all.
  [[nodiscard]] std::size_t used() const {
    return kernel_s_.empty() ? stolen_s_.size() : kernel_s_.size();
  }
  [[nodiscard]] std::size_t taken() const { return kernel_s_.size() + stolen_s_.size(); }
  /// Multiplier taking a time measured in this run to the reference speed.
  [[nodiscard]] double factor() const {
    return taken() == 0 ? 1.0 : kReferenceKernelS / kernel_s();
  }

 private:
  std::vector<int> cpus_;
  std::vector<double> kernel_s_;  ///< CPU times of samples not stolen from
  std::vector<double> stolen_s_;  ///< CPU times of samples stolen from
};

// ---------------------------------------------------------------------------
// Child processes. Every campaign runs in a forked child, as each CLI run is
// its own process: the DNS label intern table is global and only grows, so
// a second campaign in one process would run against the first one's labels
// and inherit its heap. The child's peak RSS (wait4) is that campaign's own.

/// Named numbers a child reports back.
using Values = std::map<std::string, double>;

struct ChildOutput {
  Values values;
  std::string json;  ///< the campaign's exported bytes, if it exported
  double peak_rss_mb = 0.0;
};

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Wire form: "<length of the values text>\n", the values text ("name value"
// lines), then the exported JSON bytes verbatim.
std::string encode_output(const ChildOutput& out) {
  std::string text;
  for (const auto& [name, value] : out.values) text += name + " " + format_number(value) + "\n";
  return std::to_string(text.size()) + "\n" + text + out.json;
}

ChildOutput decode_output(const std::string& blob) {
  std::size_t newline = blob.find('\n');
  if (newline == std::string::npos) throw std::runtime_error("child sent no output");
  std::size_t length = std::stoul(blob.substr(0, newline));
  if (blob.size() - newline - 1 < length) throw std::runtime_error("child output truncated");
  ChildOutput out;
  std::istringstream text(blob.substr(newline + 1, length));
  std::string name;
  double value = 0.0;
  while (text >> name >> value) out.values[name] = value;
  out.json = blob.substr(newline + 1 + length);
  return out;
}

/// Runs `body` (returning a ChildOutput) in a forked child and waits for it.
/// Throws when the child fails; the child never returns into the caller.
template <typename Body>
ChildOutput in_child(Body&& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int status = 1;
    try {
      if (write_all(fds[1], encode_output(body()))) status = 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "campaign_bench child: %s\n", error.what());
    }
    ::close(fds[1]);
    ::_exit(status);
  }
  ::close(fds[1]);
  std::string blob;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    blob.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("campaign child failed");
  }
  ChildOutput out = decode_output(blob);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

// ---------------------------------------------------------------------------
// One campaign's outcome, as the metrics need it.

/// Counts of a finished campaign. Execution counters (events, hops, steals)
/// come from ShardExecutionStats; fault counters from CoverageStats.
Values facts_of(const core::CampaignResult& result) {
  Values v;
  double phase1 = 0.0, phase1_failed = 0.0;
  std::set<std::uint32_t> swept;
  for (const core::DecoyRecord& record : result.ledger.decoys()) {
    if (record.phase2) {
      swept.insert(record.path_id);
      continue;
    }
    ++phase1;
    if (!record.dest_responded) ++phase1_failed;
  }
  v["core.decoys"] = static_cast<double>(result.ledger.decoy_count());
  v["core.phase1_decoys"] = phase1;
  v["core.phase1_failed"] = phase1_failed;
  v["core.unsolicited"] = static_cast<double>(result.unsolicited.size());
  v["locate.findings"] = static_cast<double>(result.findings.size());
  v["locate.swept_paths"] = static_cast<double>(swept.size());
  v["screening.usable"] = result.screening.usable;
  v["screening.candidates"] = result.screening.candidates;

  const core::ShardExecutionStats& stats = result.shard_stats;
  double events = 0.0, high_water = 0.0, cancelled = 0.0, hops = 0.0, link_loss = 0.0;
  for (const sim::EventLoopStats& shard : stats.per_shard) {
    events += static_cast<double>(shard.processed);
    cancelled += static_cast<double>(shard.cancelled);
    high_water = std::max(high_water, static_cast<double>(shard.high_water));
  }
  // A hop is one link traversal: a router forwarding or the final delivery.
  for (const sim::NetworkCounters& shard : stats.per_shard_net) {
    hops += static_cast<double>(shard.forwarded + shard.delivered);
    link_loss += static_cast<double>(shard.link_loss);
  }
  v["sim.events"] = events;
  v["sim.hops"] = hops;
  v["sim.queue_high_water"] = high_water;
  v["sim.timers_cancelled"] = cancelled;
  v["sim.drops.link_loss"] = link_loss;
  v["core.event_imbalance"] = stats.event_imbalance();
  v["core.steals_completed"] = static_cast<double>(stats.steals_completed);
  v["core.steals_attempted"] = static_cast<double>(stats.steals_attempted);

  core::CoverageStats coverage = result.coverage.value_or(core::CoverageStats{});
  v["fault.retry_sends"] = static_cast<double>(coverage.retry_attempts);
  v["fault.tcp_retransmissions"] = static_cast<double>(coverage.tcp_retransmissions);
  v["fault.decoys_lost"] = static_cast<double>(coverage.decoys_lost);
  v["fault.quarantined_vps"] = static_cast<double>(coverage.vps_quarantined);
  return v;
}

/// The untraced campaign, driven exactly as the CLI drives it. Reports
/// setup_s (World build + per-shard instantiation), campaign_s (World build
/// through the exported bytes, net of stolen time), the campaign's wall time
/// and stolen CPU time, and its counts.
ChildOutput run_campaign(const core::TestbedConfig& bed, const core::CampaignConfig& config,
                         int shards) {
  return in_child([&] {
    ChildOutput out;
    Clock::time_point start = Clock::now();
    Stopwatch watch;
    core::CampaignEngine engine(bed, config, shards, exhibitors());
    double setup_s = seconds_since(start);
    core::CampaignResult result = engine.run();
    core::CampaignAnalysis analysis = core::analyze_campaign(engine.primary(), result, 1);
    out.json = core::export_campaign_json(engine.primary(), result, analysis);
    double campaign_s = watch.seconds();
    out.values = facts_of(result);
    out.values["setup_s"] = setup_s;
    out.values["campaign_s"] = campaign_s;
    out.values["wall_s"] = watch.wall_s();
    out.values["stolen_s"] = watch.stolen();
    return out;
  });
}

struct SetupTime {
  double wall_s;
  double cpu_s;  ///< summed over the threads that instantiate the shards
};

/// Set-up alone: World build + per-shard instantiation.
SetupTime run_setup(const core::TestbedConfig& bed, const core::CampaignConfig& config,
                    int shards) {
  ChildOutput out = in_child([&] {
    ChildOutput child;
    Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_s();
    core::CampaignEngine engine(bed, config, shards, exhibitors());
    child.values["cpu_s"] = process_cpu_s() - cpu_start;
    child.values["wall_s"] = seconds_since(start);
    return child;
  });
  return {out.values.at("wall_s"), out.values.at("cpu_s")};
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit.

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  void begin(std::string name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), seconds_since(origin_), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void end() {
    spans_[static_cast<std::size_t>(open_.back())].end_s = seconds_since(origin_);
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Total duration of the spans called `name`.
  [[nodiscard]] double seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name) total += span.end_s - span.start_s;
    }
    return total;
  }
  /// Duration of span `index` not covered by its direct children.
  [[nodiscard]] double self_seconds(int index) const {
    const Span& span = spans_[static_cast<std::size_t>(index)];
    double self = span.end_s - span.start_s;
    for (const Span& child : spans_) {
      if (child.parent == index) self -= child.end_s - child.start_s;
    }
    return self;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name) : tracer_(tracer) {
    tracer_.begin(std::move(name));
  }
  ~ScopedSpan() { tracer_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

// Merge steps of CampaignEngine::run, rebuilt from public calls so the
// traced run can time each phase.

template <typename Shard>
core::DecoyLedger merged_ledger(const core::CampaignPlan& plan,
                                const std::vector<Shard>& shards,
                                const core::Testbed& primary) {
  core::DecoyLedger merged;
  merged.seed_paths(plan.paths());
  for (const Shard& shard : shards) merged.merge(*shard.ledger);
  merged.finalize();
  merged.rebind_vps(primary.topology().vantage_points());
  return merged;
}

template <typename Shard>
std::vector<core::HoneypotHit> merged_hits(const std::vector<Shard>& shards) {
  std::vector<core::HoneypotHit> hits;
  for (const Shard& shard : shards) {
    hits.insert(hits.end(), shard.hits->begin(), shard.hits->end());
  }
  std::stable_sort(hits.begin(), hits.end(), core::hit_canonical_less);
  return hits;
}

template <typename Shard>
FlatSet<std::uint32_t> merged_replicated(const std::vector<Shard>& shards) {
  FlatSet<std::uint32_t> merged;
  for (const Shard& shard : shards) {
    for (std::uint32_t seq : shard.replicated) merged.insert(seq);
  }
  return merged;
}

struct TracedCampaign {
  Tracer tracer;
  std::shared_ptr<const core::World> world;
  core::CampaignResult result;
  std::string json;
};

/// The campaign of CampaignEngine::run for the in-process stealing backend,
/// phase by phase, with a span around each call into the engine's layers.
TracedCampaign run_traced(const core::TestbedConfig& bed, const core::CampaignConfig& config,
                          int shards) {
  TracedCampaign out;
  Tracer& tracer = out.tracer;
  core::CampaignResult& result = out.result;
  std::string& json = out.json;
  // Declared outside the root span: the untraced campaign_s also stops at
  // the exported bytes, before the shards are torn down.
  std::unique_ptr<core::InProcessBackend> backend;
  {
    ScopedSpan campaign(tracer, "campaign");
    {
      ScopedSpan span(tracer, "world.build");
      out.world = core::World::build(bed, exhibitors());
    }
    {
      ScopedSpan span(tracer, "core.instantiate");
      backend = std::make_unique<core::InProcessBackend>(bed, out.world, shards, config,
                                                         exhibitors());
    }
    core::Testbed& primary = *backend->context_testbed();
    const auto& vps = primary.topology().vantage_points();

    core::ScreeningReport report;
    std::vector<std::size_t> active;
    SimTime start = 0;
    {
      ScopedSpan span(tracer, "core.screening");
      core::ShardScreening screening = backend->run_screening(vps.size());
      report.candidates = static_cast<int>(vps.size());
      for (std::size_t i = 0; i < vps.size(); ++i) {
        switch (screening.verdicts[i]) {
          case core::ScreeningVerdict::kResidential:
            ++report.rejected_residential;
            break;
          case core::ScreeningVerdict::kTtlMangling:
            ++report.rejected_ttl_mangling;
            break;
          case core::ScreeningVerdict::kIntercepted:
            ++report.rejected_interception;
            break;
          case core::ScreeningVerdict::kUsable:
            active.push_back(i);
            break;
        }
      }
      report.usable = static_cast<int>(active.size());
      start = screening.clock;
    }

    core::CampaignPlan plan;
    {
      ScopedSpan span(tracer, "core.plan");
      plan = core::CampaignPlan::build_phase1(primary.topology(), config, active, start);
    }
    SimTime barrier = config.phase1_window + config.phase2_grace;
    std::vector<core::ShardBarrier> barriers;
    {
      ScopedSpan span(tracer, "core.phase1");
      barriers = backend->run_phase1(plan, barrier);
    }

    std::size_t rescheduled = 0;
    std::size_t schedule_from = plan.emissions().size();
    {
      ScopedSpan span(tracer, "core.barrier");
      std::set<std::size_t> quarantined;
      if (config.faults.enabled()) {
        std::set<std::uint32_t> cancelled;
        for (const core::ShardBarrier& shard : barriers) {
          quarantined.insert(shard.quarantined.begin(), shard.quarantined.end());
          cancelled.insert(shard.cancelled.begin(), shard.cancelled.end());
        }
        rescheduled = plan.reschedule_quarantined(cancelled, quarantined, active, barrier,
                                                  config.phase2_window);
      }
      core::DecoyLedger interim = merged_ledger(plan, barriers, primary);
      std::vector<core::HoneypotHit> hits = merged_hits(barriers);
      FlatSet<std::uint32_t> replicated = merged_replicated(barriers);
      std::vector<core::UnsolicitedRequest> so_far;
      {
        ScopedSpan classify(tracer, "core.barrier.classify");
        so_far = core::classify_unsolicited(interim, hits, &replicated,
                                            config.analysis_workers);
      }
      auto problematic = core::Correlator::problematic_paths(so_far);
      for (auto it = problematic.begin(); it != problematic.end();) {
        std::int32_t vp_index = plan.path(*it).vp_index;
        if (vp_index >= 0 && quarantined.count(static_cast<std::size_t>(vp_index)) != 0) {
          it = problematic.erase(it);
        } else {
          ++it;
        }
      }
      plan.extend_phase2(problematic, config, barrier);
    }

    std::vector<core::ShardFinal> finals;
    {
      ScopedSpan span(tracer, "core.phase2");
      finals = backend->run_phase2(plan, schedule_from, config.total_duration);
    }

    {
      ScopedSpan span(tracer, "core.merge");
      result.config = config;
      result.screening = report;
      result.ledger = merged_ledger(plan, finals, primary);
      result.hits = merged_hits(finals);
      result.replicated_seqs = merged_replicated(finals);
      result.shard_stats.requested_shards = shards;
      result.shard_stats.effective_shards = backend->shard_count();
      result.shard_stats.scheduler = core::SchedulerMode::kSteal;
      for (const core::ShardFinal& shard : finals) {
        for (const auto& [seq, hop] : shard.hops) result.hop_log.emplace(seq, hop);
        result.shard_stats.per_shard.push_back(shard.stats);
        result.shard_stats.per_shard_net.push_back(shard.net);
        result.shard_stats.steals_attempted += shard.steals_attempted;
        result.shard_stats.steals_completed += shard.steals_completed;
      }
      if (config.faults.enabled()) {
        core::CoverageStats coverage;
        coverage.phase1_planned = plan.phase1_count();
        for (const core::DecoyRecord& record : result.ledger.decoys()) {
          if (record.phase2) continue;
          ++coverage.decoys_attempted;
          if (record.dest_responded) ++coverage.decoys_delivered;
        }
        for (const core::ShardFinal& shard : finals) coverage.absorb(shard.coverage);
        coverage.decoys_rescheduled = rescheduled;
        result.coverage = coverage;
      }
      result.active_vps.reserve(active.size());
      for (std::size_t i : active) result.active_vps.push_back(&vps[i]);
    }
    {
      ScopedSpan span(tracer, "core.correlate");
      result.correlate(config.analysis_workers);
    }
    core::CampaignAnalysis analysis;
    {
      ScopedSpan span(tracer, "core.analyze");
      analysis = core::analyze_campaign(primary, result, 1);
    }
    {
      ScopedSpan span(tracer, "core.export");
      json = core::export_campaign_json(primary, result, analysis);
    }
  }
  backend.reset();
  return out;
}

// ---------------------------------------------------------------------------
// Substrate micro-timings on inputs drawn from the workload's own World.

/// Runs `body` `reps` times and returns the nanoseconds per unit of work,
/// `units` being the work one call of `body` does.
template <typename Body>
double ns_per_unit(int reps, double units, Body&& body) {
  Clock::time_point start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) body();
  return seconds_since(start) * 1e9 / (units * reps);
}

/// One decoy's addressing and domain: the shape the substrate layers see.
struct DecoySample {
  net::Ipv4Addr vp;
  net::Ipv4Addr dst;
  net::DnsName domain;
};

/// Up to 2048 decoys, evenly spaced through the ledger.
std::vector<DecoySample> samples_of(const core::CampaignResult& result) {
  std::vector<DecoySample> samples;
  const auto& decoys = result.ledger.decoys();
  constexpr std::size_t kSamples = 2048;
  std::size_t stride = std::max<std::size_t>(1, decoys.size() / kSamples);
  for (std::size_t i = 0; i < decoys.size(); i += stride) {
    samples.push_back({decoys[i].id.vp, decoys[i].id.dst, decoys[i].domain});
  }
  return samples;
}

struct MicroTimings {
  double forward_ns_per_hop = 0.0;
  double routing_ns_per_lookup = 0.0;
  double event_loop_ns_per_event = 0.0;
  double ipv4_ns = 0.0;
  double dns_ns = 0.0;
  double http_ns = 0.0;
  double tls_ns = 0.0;
};

// Decoy payload shapes, as VpAgent builds them.
net::HttpRequest http_decoy(const net::DnsName& domain) {
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/";
  request.headers.add("Host", domain.str());
  request.headers.add("User-Agent", "shadowprobe-measurement/1.0");
  request.headers.add("Accept", "*/*");
  return request;
}

net::TlsClientHello tls_decoy(const net::DnsName& domain) {
  net::TlsClientHello hello;
  hello.cipher_suites = {0x1301, 0x1302, 0x1303, 0xC02B, 0xC02F};
  hello.set_sni(domain.str());
  hello.set_supported_versions({0x0304, 0x0303});
  hello.set_alpn({"h2", "http/1.1"});
  return hello;
}

MicroTimings run_micro(const std::shared_ptr<const core::World>& world,
                       const std::vector<DecoySample>& samples, std::size_t queue_high_water) {
  MicroTimings out;
  const double n = static_cast<double>(samples.size());

  // Forwarding: destination host -> VP on a fresh, undecorated instance
  // (no taps, no handler at the VP), so each event is one link traversal.
  {
    std::unique_ptr<core::Testbed> bed = core::Testbed::instantiate(world);
    sim::Network& network = bed->net();
    struct Route {
      sim::NodeId from;
      net::Ipv4Header header;
      Bytes payload;
    };
    std::vector<Route> routes;
    for (const DecoySample& sample : samples) {
      sim::NodeId from = network.owner_of(sample.dst);
      if (from == sim::kInvalidNode) continue;
      net::Ipv4Header header;
      header.src = sample.dst;
      header.dst = sample.vp;
      header.ttl = 64;
      routes.push_back({from, header,
                        net::DnsMessage::query(1, sample.domain, net::DnsType::kA).encode()});
    }
    std::uint64_t hops_before = network.forwarded() + network.delivered();
    Clock::time_point start = Clock::now();
    for (int rep = 0; rep < 20; ++rep) {
      for (const Route& route : routes) {
        network.send(route.from, route.header, BytesView(route.payload));
      }
      bed->loop().run();
    }
    double elapsed = seconds_since(start);
    std::uint64_t hops = network.forwarded() + network.delivered() - hops_before;
    out.forward_ns_per_hop = ratio(elapsed * 1e9, static_cast<double>(hops));
  }

  // LPM: one table over the World's AS prefixes, probed with the decoys'
  // destinations and VPs.
  {
    sim::RoutingTable table;
    for (const topo::AsRecord& as : world->topology().ases()) table.add(as.prefix, as.border);
    table.set_default(0);
    std::vector<net::Ipv4Addr> probes;
    for (const DecoySample& sample : samples) {
      probes.push_back(sample.dst);
      probes.push_back(sample.vp);
    }
    out.routing_ns_per_lookup =
        ns_per_unit(200, static_cast<double>(probes.size()), [&] {
          for (net::Ipv4Addr addr : probes) {
            auto hop = table.lookup(addr);
            keep(hop);
          }
        });
  }

  // Event loop: batches as deep as the campaign's own queue high-water mark.
  {
    const std::size_t batch = std::max<std::size_t>(queue_high_water, 64);
    std::uint64_t sink = 0;
    out.event_loop_ns_per_event =
        ns_per_unit(1000, static_cast<double>(batch), [&] {
          sim::EventLoop loop;
          for (std::size_t i = 0; i < batch; ++i) {
            loop.schedule(static_cast<SimDuration>((i * 7919) % 997) * kMillisecond,
                          [&sink] { ++sink; });
          }
          loop.run();
        });
    keep(sink);
  }

  // Codecs on the decoys' experiment-domain shapes.
  out.dns_ns = ns_per_unit(50, n, [&] {
    for (const DecoySample& sample : samples) {
      Bytes wire = net::DnsMessage::query(77, sample.domain, net::DnsType::kA).encode();
      auto decoded = net::DnsMessage::decode(BytesView(wire));
      keep(decoded);
    }
  });
  out.http_ns = ns_per_unit(50, n, [&] {
    for (const DecoySample& sample : samples) {
      Bytes wire = http_decoy(sample.domain).encode();
      auto decoded = net::HttpRequest::decode(BytesView(wire));
      keep(decoded);
    }
  });
  out.tls_ns = ns_per_unit(50, n, [&] {
    for (const DecoySample& sample : samples) {
      Bytes wire = tls_decoy(sample.domain).encode_record();
      auto decoded = net::TlsClientHello::decode_record(BytesView(wire));
      keep(decoded);
    }
  });
  std::vector<std::pair<net::Ipv4Header, Bytes>> datagrams;
  for (const DecoySample& sample : samples) {
    net::Ipv4Header header;
    header.src = sample.vp;
    header.dst = sample.dst;
    datagrams.emplace_back(
        header, net::DnsMessage::query(77, sample.domain, net::DnsType::kA).encode());
  }
  out.ipv4_ns = ns_per_unit(200, n, [&] {
    for (const auto& [header, payload] : datagrams) {
      Bytes wire = header.encode(BytesView(payload));
      auto decoded = net::decode_ipv4(BytesView(wire));
      keep(decoded);
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< "numerator/denominator" for a ratio, else empty
};

std::string base_of(double num, double den) {
  return format_number(num) + "/" + format_number(den);
}

Metric ratio_metric(std::string name, double num, double den) {
  return {std::move(name), ratio(num, den), "ratio", base_of(num, den)};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_spans(const std::string& path, const Tracer& tracer, const std::string& workload,
                 std::uint64_t seed) {
  core::JsonWriter json;
  json.begin_object();
  json.key("workload").value(workload);
  json.key("topology_seed").value(static_cast<std::int64_t>(seed));
  json.key("spans").begin_array();
  for (const Tracer::Span& span : tracer.spans()) {
    json.begin_object();
    json.key("name").value(span.name);
    json.key("start_s").value(span.start_s);
    json.key("end_s").value(span.end_s);
    json.key("parent").value(span.parent);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path, std::ios::binary);
  out << json.str() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Span names of the traced run, each reported as "<name>_s".
constexpr const char* kPhaseSpans[] = {
    "world.build", "core.instantiate", "core.screening", "core.plan",
    "core.phase1", "core.barrier",     "core.phase2",    "core.merge",
    "core.correlate", "core.analyze",  "core.export",
};

/// The traced campaign plus the substrate micro-timings, in one child:
/// reports span durations and per-unit costs, writes the spans file. Every
/// time is scaled by the child's run share (see Stopwatch): the spans and
/// the micro-timings are too short to net out stolen time one by one.
ChildOutput run_traced_child(const core::TestbedConfig& bed, const core::CampaignConfig& config,
                             int shards, const std::string& spans_out,
                             const std::string& workload) {
  return in_child([&] {
    Stopwatch watch;
    TracedCampaign traced = run_traced(bed, config, shards);
    ChildOutput out;
    out.json = std::move(traced.json);
    const Tracer& tracer = traced.tracer;
    for (const char* name : kPhaseSpans) out.values[std::string(name) + "_s"] = tracer.seconds(name);
    out.values["trace.total_s"] = tracer.seconds("campaign");
    out.values["trace.uncovered_s"] = tracer.self_seconds(0);
    if (!spans_out.empty()) write_spans(spans_out, tracer, workload, bed.topology.seed);

    Values facts = facts_of(traced.result);
    MicroTimings micro =
        run_micro(traced.world, samples_of(traced.result),
                  static_cast<std::size_t>(facts.at("sim.queue_high_water")));
    out.values["sim.forward.ns_per_hop"] = micro.forward_ns_per_hop;
    out.values["sim.routing.ns_per_lookup"] = micro.routing_ns_per_lookup;
    out.values["sim.event_loop.ns_per_event"] = micro.event_loop_ns_per_event;
    out.values["net.ipv4.ns_per_msg"] = micro.ipv4_ns;
    out.values["net.dns.ns_per_msg"] = micro.dns_ns;
    out.values["net.http.ns_per_msg"] = micro.http_ns;
    out.values["net.tls.ns_per_msg"] = micro.tls_ns;
    const double share = watch.run_share();
    for (auto& [name, value] : out.values) value *= share;
    return out;
  });
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string golden;
  std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return std::nullopt;
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--golden") {
      args.golden = value;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_seed || args.seconds <= 0.0 || args.trace < 0 ||
      args.golden.empty() || args.workload.empty()) {
    return std::nullopt;
  }
  return args;
}

/// One topology's campaigns across the rounds of a run.
struct TopologySamples {
  std::uint64_t seed = 0;
  std::vector<double> campaign_s;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  Values facts;      ///< counts of the first campaign
  std::string json;  ///< export of the first campaign
};

int run(const Args& args, const Workload& workload) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "output check FAILED: %s\n", what.c_str());
    }
  };

  // Golden settings first: the program under test still produces the
  // checked-in reference bytes, serially and on 4 shards (the serial =
  // sharded identity).
  {
    std::string expected = read_file(args.golden);
    for (int shards : {1, kShards}) {
      ChildOutput golden =
          run_campaign(bed_config(20240301, 0.25), campaign_config(6, false), shards);
      check(golden.json == expected, std::to_string(shards) + "-shard golden export differs from " +
                                         args.golden);
    }
  }

  const core::CampaignConfig config = campaign_config(kCampaignDays, workload.lossy);
  std::vector<TopologySamples> topologies(static_cast<std::size_t>(workload.topologies));
  for (int i = 0; i < workload.topologies; ++i) {
    topologies[static_cast<std::size_t>(i)].seed = topology_seed(args.seed, i);
  }

  CpuSpeed speed(kShards);

  // Timed rounds: every topology once per round; another round only when
  // it fits in what is left of --seconds (so a run measures whole rounds,
  // at least one).
  Clock::time_point measure_start = Clock::now();
  int rounds = 0;
  double round_s = 0.0;
  double wall_s = 0.0, stolen = 0.0;
  do {
    Clock::time_point round_start = Clock::now();
    for (TopologySamples& topology : topologies) {
      speed.sample();
      ChildOutput run = run_campaign(bed_config(topology.seed, 1.0), config, kShards);
      wall_s += run.values.at("wall_s");
      stolen += run.values.at("stolen_s");
      topology.campaign_s.push_back(run.values.at("campaign_s"));
      topology.setup_s.push_back(run.values.at("setup_s"));
      topology.peak_rss_mb.push_back(run.peak_rss_mb);
      if (rounds == 0) {
        topology.facts = std::move(run.values);
        topology.json = std::move(run.json);
      } else {
        check(run.json == topology.json, "repeat of topology seed " +
                                             std::to_string(topology.seed) +
                                             " exported different bytes");
      }
    }
    ++rounds;
    round_s = seconds_since(round_start);
  } while (seconds_since(measure_start) + round_s <= args.seconds);
  const double measured_s = seconds_since(measure_start);
  speed.sample();

  // Set-up alone, repeated; setup_s is the median CPU time. A set-up takes
  // a few milliseconds, less than the 10 ms in which stolen time is counted,
  // and on a loaded host most of its wall time can be spent waiting for the
  // hypervisor to run an idle CPU that a shard's thread woke (in one run the
  // set-ups got 40% of the CPU time they asked for, and their median wall
  // time nearly doubled). CPU time leaves that wait out and still counts any
  // work moved into set-up.
  std::vector<double> setup_wall, setup_cpu;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const TopologySamples& topology = topologies[static_cast<std::size_t>(i) % topologies.size()];
    SetupTime setup = run_setup(bed_config(topology.seed, 1.0), config, kShards);
    setup_wall.push_back(setup.wall_s);
    setup_cpu.push_back(setup.cpu_s);
  }
  const double setup_s = median(setup_cpu);

  // The golden campaign has no fault profile; under one, check the serial =
  // sharded identity at the workload's own settings.
  const TopologySamples& first = topologies.front();
  if (workload.lossy) {
    ChildOutput serial = run_campaign(bed_config(first.seed, 1.0), config, 1);
    check(serial.json == first.json, "serial export differs from the 4-shard export "
                                     "(topology seed " + std::to_string(first.seed) + ")");
  }

  // Aggregates: each topology's median over its repeats, averaged over the
  // round's topologies.
  std::vector<double> campaign_med, rss_med, all_campaign;
  double decoys = 0.0, phase1 = 0.0, phase1_failed = 0.0;
  for (const TopologySamples& topology : topologies) {
    std::fprintf(stderr,
                 "  topology seed %llu: campaign_s %s, set-up wall %s, %.0f decoys, %.1f MB\n",
                 static_cast<unsigned long long>(topology.seed), join(topology.campaign_s).c_str(),
                 join(topology.setup_s).c_str(), topology.facts.at("core.decoys"),
                 median(topology.peak_rss_mb));
    campaign_med.push_back(median(topology.campaign_s));
    rss_med.push_back(median(topology.peak_rss_mb));
    all_campaign.insert(all_campaign.end(), topology.campaign_s.begin(),
                        topology.campaign_s.end());
    decoys += topology.facts.at("core.decoys");
    phase1 += topology.facts.at("core.phase1_decoys");
    phase1_failed += topology.facts.at("core.phase1_failed");
  }

  // The traced run, when asked for, also happens before the CPU-speed
  // factor is fixed, so it shares the factor with the untraced figures.
  std::optional<ChildOutput> traced;
  if (args.trace == 1) {
    speed.sample();
    traced = run_traced_child(bed_config(first.seed, 1.0), config, kShards,
                              args.spans_out, workload.name);
    speed.sample();
    check(traced->json == first.json, "traced export differs from the untraced export "
                                      "(topology seed " + std::to_string(first.seed) + ")");
  }
  const double factor = speed.factor();
  const double campaign_s = mean(campaign_med) * factor;
  const double decoys_per_topology = decoys / static_cast<double>(topologies.size());

  std::fprintf(stderr,
               "%s: %d round(s) over %zu topologies in %.1f s; %zu campaign samples, "
               "median %.3f s, max %.3f s\n",
               workload.name, rounds, topologies.size(), measured_s, all_campaign.size(),
               median(all_campaign), *std::max_element(all_campaign.begin(), all_campaign.end()));
  if (all_campaign.size() < 11) {
    std::fprintf(stderr,
                 "  no percentile of campaign_s has 10 samples beyond it at n=%zu; "
                 "the maximum is the tail figure\n",
                 all_campaign.size());
  } else {
    // The highest percentile with 10 samples beyond it.
    std::vector<double> sorted = all_campaign;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    std::fprintf(stderr, "  p%.1f of campaign_s: %.3f s (10 of %zu samples beyond it)\n",
                 100.0 * static_cast<double>(n - 10) / static_cast<double>(n), sorted[n - 11], n);
  }
  std::fprintf(stderr,
               "  %.2f CPU-s stolen from the machine's CPUs during %.2f s of campaign wall "
               "time; the times above are net of it\n",
               stolen, wall_s);
  std::fprintf(stderr, "  set-up: median %.4f ms of CPU time, %.4f ms of wall time, over %d\n",
               setup_s * 1e3, median(setup_wall) * 1e3, kSetupRepeats);
  std::fprintf(stderr,
               "  reference kernel: mean %.5f s of thread CPU time over %zu of %zu samples, "
               "so reported times are the ones above x %.4f (campaign_s %.4f s before "
               "scaling)\n",
               speed.kernel_s(), speed.used(), speed.taken(), factor, mean(campaign_med));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics.push_back({"campaign_s", campaign_s, "s", ""});
    metrics.push_back({"setup_s", setup_s * factor, "s", ""});
    metrics.push_back({"decoys_per_s", ratio(decoys_per_topology, campaign_s), "1/s",
                       base_of(decoys_per_topology, campaign_s)});
    metrics.push_back({"peak_rss_mb", mean(rss_med), "MB", ""});
    metrics.push_back(ratio_metric("decoy_delivery_ratio", phase1 - phase1_failed, phase1));
  } else {
    const Values& t = traced->values;
    const Values& f = first.facts;
    const double untraced_s = median(first.campaign_s) * factor;
    for (const char* name : kPhaseSpans) {
      std::string key = std::string(name) + "_s";
      metrics.push_back({key, t.at(key) * factor, "s", ""});
    }
    const double traced_s = t.at("trace.total_s") * factor;
    metrics.push_back({"trace.total_s", traced_s, "s", ""});
    metrics.push_back({"trace.uncovered_s", t.at("trace.uncovered_s") * factor, "s", ""});
    metrics.push_back({"trace.overhead_s", traced_s - untraced_s, "s", ""});
    for (const char* name : {"sim.forward.ns_per_hop", "sim.routing.ns_per_lookup",
                             "sim.event_loop.ns_per_event", "net.ipv4.ns_per_msg",
                             "net.dns.ns_per_msg", "net.http.ns_per_msg", "net.tls.ns_per_msg"}) {
      metrics.push_back({name, t.at(name) * factor, "ns", ""});
    }
    metrics.push_back({"sim.hops_per_s", ratio(f.at("sim.hops"), untraced_s), "1/s",
                       base_of(f.at("sim.hops"), untraced_s)});
    metrics.push_back(ratio_metric("sim.events_per_hop", f.at("sim.events"), f.at("sim.hops")));
    metrics.push_back({"core.event_imbalance", f.at("core.event_imbalance"), "ratio", ""});
    metrics.push_back(ratio_metric("core.steal_ratio", f.at("core.steals_completed"),
                                   f.at("core.steals_attempted")));
    metrics.push_back(ratio_metric("screening.usable_ratio", f.at("screening.usable"),
                                   f.at("screening.candidates")));
    metrics.push_back(ratio_metric("locate.located_ratio", f.at("locate.findings"),
                                   f.at("locate.swept_paths")));
    metrics.push_back(ratio_metric("decoy_fail_ratio", phase1_failed, phase1));
    for (const char* name : {"sim.hops", "sim.events", "sim.queue_high_water",
                             "sim.timers_cancelled", "sim.drops.link_loss",
                             "core.steals_completed", "fault.retry_sends",
                             "fault.tcp_retransmissions", "fault.decoys_lost",
                             "fault.quarantined_vps", "core.decoys", "core.unsolicited"}) {
      metrics.push_back({name, f.at(name), "count", ""});
    }
  }

  // Human-readable table, then the result line.
  std::printf("%s seed=%llu: %s\n", workload.name, static_cast<unsigned long long>(args.seed),
              args.trace == 0 ? "end-to-end metrics" : "per-layer metrics");
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %18.6f %-6s%s%s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.base.empty() ? "" : " base ", metric.base.c_str());
  }
  std::printf("  output checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + format_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--golden FILE [--spans-out FILE]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args->workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  set_log_level(LogLevel::kWarn);
  try {
    return run(*args, *workload);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "campaign_bench: %s\n", error.what());
    return 1;
  }
}
