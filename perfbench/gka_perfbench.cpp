// Phase-split benchmark of the ID-based group key agreement stack.
//
// One process runs one workload from one seed and times its three phases
// separately, from outside the library:
//
//   setup      gka::Authority + member enrollment + session construction,
//              repeated `setups` times (the median is reported);
//   formation  sim::ProtocolDriver::form() (one engine drain per group);
//   churn      a closed loop of join / leave / partition / admit calls that
//              runs until `--seconds` have passed AND every group finished
//              its fixed prefix of operations.
//
// Every operation is checked: the driver must report success, every current
// member must hold the same, fresh group key and the membership must match
// the one the benchmark tracks. Counters are read at the same boundaries
// through mpint::op_counts(), obs::Registry snapshots, the executor's
// bookkeeping and the driver's air accounting.
//
// Modes (see README.md in this directory for the metric definitions):
//   default   timed run; prints every metric, the first kCheckOps operation
//             records per group and the host fingerprint as one JSON line;
//   --check   fixed-size run (kCheckOps churn operations per group, one
//             setup) printing a digest of every deterministic output;
//             `--repeat` runs it twice in-process and fails on a mismatch.
//
//   gka_perfbench --workload paper_flat|hier_lossy|multigroup --seed N
//                 [--seconds S] [--trace] [--spans FILE] [--smoke]
//                 [--check [--repeat]]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hierarchical_session.h"
#include "ec/curve.h"
#include "energy/profiles.h"
#include "engine/executor.h"
#include "gka/params.h"
#include "gka/session.h"
#include "hash/hmac_drbg.h"
#include "hash/sha256.h"
#include "mpint/mod_context.h"
#include "mpint/random.h"
#include "net/parallel.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "sig/gq.h"
#include "sim/driver.h"
#include "sim/link.h"
#include "sim/scheduler.h"
#include "wire/codec.h"

using namespace idgka;

namespace {

using Clock = std::chrono::steady_clock;
using sim::SimTime;

/// Churn operations per group covered by the determinism checks: the check
/// run executes exactly this many, and the timed run's first records must
/// match them.
constexpr std::size_t kCheckOps = 12;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Full-precision number for the JSON output (JsonWriter rounds to %.3f).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  return v[idx == 0 ? 0 : idx - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ULL;
  return h;
}

energy::Ledger minus(const energy::Ledger& a, const energy::Ledger& b) {
  energy::Ledger d;
  for (std::size_t i = 0; i < energy::kOpCount; ++i) d.counts[i] = a.counts[i] - b.counts[i];
  d.tx_bits = a.tx_bits - b.tx_bits;
  d.rx_bits = a.rx_bits - b.rx_bits;
  d.tx_messages = a.tx_messages - b.tx_messages;
  d.rx_messages = a.rx_messages - b.rx_messages;
  return d;
}

mpint::OpCounts minus(const mpint::OpCounts& a, const mpint::OpCounts& b) {
  return {a.exps - b.exps, a.mod_muls - b.mod_muls, a.mod_sqrs - b.mod_sqrs,
          a.multi_exps - b.multi_exps};
}

std::uint64_t counter(const obs::Snapshot& delta, const std::string& name) {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

double ratio(double num_v, double den) { return den > 0.0 ? num_v / den : 0.0; }

// ------------------------------------------------------------------ spans

/// In-memory span log for the traced run: spans recorded around the
/// benchmark's own calls into the library, with parent links and the
/// process-wide mod-mul + mod-sqr count at both boundaries. Written once,
/// at the end. Inactive (every call a no-op) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool active) : active_(active), origin_(Clock::now()) {}

  int begin(const char* name, int parent) {
    if (!active_) return -1;
    const mpint::OpCounts ops = mpint::op_counts();
    const double t = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, t, t, ops.mod_muls + ops.mod_sqrs, 0});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id) {
    if (id < 0) return;
    const mpint::OpCounts ops = mpint::op_counts();
    const double t = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
    spans_[static_cast<std::size_t>(id)].mod_ops1 = ops.mod_muls + ops.mod_sqrs;
  }

  /// Writes every span plus a per-name summary whose self time is the span
  /// duration minus the part of it covered by its children.
  void write(const std::string& path) const {
    if (!active_ || path.empty()) return;
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
    struct Agg {
      std::uint64_t count = 0;
      double total_ms = 0.0;
      double self_ms = 0.0;
      std::uint64_t mod_ops = 0;
    };
    std::map<std::string, Agg> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> cover;
      for (const std::size_t c : children[i]) {
        cover.emplace_back(std::max(s.t0, spans_[c].t0), std::min(s.t1, spans_[c].t1));
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0;
      double reach = s.t0;
      for (const auto& [a, b] : cover) {
        const double lo = std::max(a, reach);
        if (b > lo) covered += b - lo;
        reach = std::max(reach, b);
      }
      Agg& agg = by_name[s.name];
      ++agg.count;
      agg.total_ms += (s.t1 - s.t0) * 1e3;
      agg.self_ms += (s.t1 - s.t0 - covered) * 1e3;
      agg.mod_ops += s.mod_ops1 - s.mod_ops0;
    }
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"start_s\":" << num(s.t0)
          << ",\"end_s\":" << num(s.t1) << ",\"mod_ops\":" << (s.mod_ops1 - s.mod_ops0) << "}";
    }
    out << "],\"self_time\":{";
    bool first = true;
    for (const auto& [name, agg] : by_name) {
      out << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << agg.count
          << ",\"total_ms\":" << num(agg.total_ms) << ",\"self_ms\":" << num(agg.self_ms)
          << ",\"mod_ops\":" << agg.mod_ops << "}";
      first = false;
    }
    out << "}}\n";
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double t0;
    double t1;
    std::uint64_t mod_ops0;
    std::uint64_t mod_ops1;
  };
  bool active_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent)
      : log_(log), id_(log.begin(name, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// -------------------------------------------------------------- workloads

enum class Kind { kJoin, kLeave, kPartition, kAdmit };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kJoin: return "join";
    case Kind::kLeave: return "leave";
    case Kind::kPartition: return "partition";
    case Kind::kAdmit: return "merge";
  }
  return "?";
}

struct Workload {
  std::string name;
  gka::SecurityProfile profile = gka::SecurityProfile::kTiny;
  bool hierarchical = false;
  std::size_t groups = 1;
  std::size_t members = 32;  ///< initial members per group
  cluster::ClusterConfig cluster;
  sim::DriverConfig driver;
  /// Churn operation i of every group is due at t0 + (i + 1) * spacing,
  /// where t0 is the end of the last group's formation.
  SimTime spacing_us = 0;
  /// Group g forms at g * stagger_us.
  SimTime stagger_us = 0;
  /// Churn operation kinds, repeated: J join, L leave, P partition, A admit
  /// back to the initial size. The pattern loses members between admits,
  /// so every admit is a batch.
  std::string pattern = "LLJLLJLLPA";
  /// Partition k departs partition_sizes[k % size] members.
  std::vector<std::size_t> partition_sizes = {4};
  /// total_s covers the first prefix_ops churn operations of every group.
  std::size_t prefix_ops = 100;
  /// Setups per timed run; setup_s is their median.
  std::size_t setups = 7;
  /// Upper bound on any frame the workload puts on air. The round timeout
  /// is sized from it, and a run whose largest frame exceeds it fails.
  std::size_t frame_bound_bytes = 0;
  /// Authority seeds are fixed per workload: a prime search's duration
  /// depends on its seed, so a fixed PKG keeps setup_s comparing the same
  /// work on every run. Member DRBGs and the churn trace follow --seed.
  std::uint64_t authority_seed = 0;
};

/// Base propagation + MAC latency of a seed's deployment: [1.75, 2.25] ms.
constexpr SimTime kMinLatencyUs = 1'750;
constexpr SimTime kMaxLatencyUs = 2'250;

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  // Each seed is its own deployment, so virtual latencies move with the seed.
  w.driver.link.latency_us =
      kMinLatencyUs + std::mt19937_64(seed ^ 0x6c6174ULL)() % (kMaxLatencyUs - kMinLatencyUs + 1);
  // Arrival-true latencies: a round resumes as soon as its last in-flight
  // copy lands. The link drops a lost copy when it is sent, so a loss is
  // retransmitted then rather than after the round timeout.
  w.driver.resume_on_arrival = true;
  if (name == "paper_flat") {
    w.profile = gka::SecurityProfile::kPaper;
    w.members = 32;
    w.spacing_us = 20 * sim::kUsPerSec;
    w.authority_seed = 0x70617065;
    // The largest frame is a join relay with the 32-member ring table
    // (~9.1 kB at 1024 bits): a 1.54 s round timeout.
    w.frame_bound_bytes = 9'600;
    if (smoke) w.prefix_ops = kCheckOps;
  } else if (name == "hier_lossy") {
    w.hierarchical = true;
    w.members = smoke ? 256 : 2048;
    w.cluster.min_cluster = 8;
    w.cluster.max_cluster = 24;
    const SimTime latency_us = w.driver.link.latency_us;
    w.driver.link = sim::LinkConfig::bursty(0.05);
    w.driver.link.latency_us = latency_us;
    w.spacing_us = 60 * sim::kUsPerSec;
    w.pattern = "LLJPLLJPA";
    w.partition_sizes = {8, 24, 16, 32};
    w.authority_seed = 0x68696572;
    // Clusters stay within 24 members; the largest frame is ~1.35 kB.
    w.frame_bound_bytes = 1'500;
    // Setup is ~2.5 s here; five of them keep the run short enough.
    w.setups = 5;
    if (smoke) w.prefix_ops = kCheckOps;
  } else if (name == "multigroup") {
    w.groups = smoke ? 4 : 16;
    w.members = 32;
    w.spacing_us = 10 * sim::kUsPerSec;
    w.stagger_us = 500 * sim::kUsPerMs;
    w.prefix_ops = smoke ? kCheckOps : 24;
    w.authority_seed = 0x6d756c74;
    // A 32-member kTiny join relay, ~2.75 kB.
    w.frame_bound_bytes = 2'900;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) w.setups = 1;
  // Without jitter a copy lands at most its frame's serialization time plus
  // the base latency after it was sent. The round timeout is twice the
  // largest frame's worst case, so no round times out with copies still in
  // flight.
  const double airtime_us =
      static_cast<double>(w.frame_bound_bytes) * 8.0 * 1e6 / w.driver.link.bandwidth_bps;
  w.driver.round_timeout_us = 2 * (static_cast<SimTime>(std::ceil(airtime_us)) + kMaxLatencyUs);
  return w;
}

struct Plan {
  Kind kind = Kind::kJoin;
  std::vector<std::uint32_t> ids;
};

/// Seeded churn trace of one group. The operation kinds follow the
/// workload's fixed pattern, so every seed runs the same mix and the latency
/// percentiles fall at the same place in it; the seed picks the leavers.
/// Admitted members get fresh ids, so a member's ledger never spans two
/// tenures.
class ChurnGen {
 public:
  /// `phase` shifts the group's position in the pattern, so concurrent
  /// groups run different kinds at the same instant.
  ChurnGen(const Workload& w, std::uint64_t seed, std::uint32_t next_id, std::size_t phase)
      : w_(w), rng_(seed), next_id_(next_id), step_(phase) {}

  Plan next(const std::vector<std::uint32_t>& members) {
    Plan plan;
    switch (w_.pattern[step_++ % w_.pattern.size()]) {
      case 'J':
        plan.kind = Kind::kJoin;
        plan.ids = {next_id_++};
        break;
      case 'L':
        plan.kind = Kind::kLeave;
        plan.ids = pick(members, 1);
        break;
      case 'P':
        plan.kind = Kind::kPartition;
        plan.ids = pick(members, w_.partition_sizes[partitions_++ % w_.partition_sizes.size()]);
        break;
      default:
        plan.kind = Kind::kAdmit;
        // At least one member: a group whose phase starts on an admit is
        // still at its initial size.
        for (std::size_t n = std::min(members.size(), w_.members - 1); n < w_.members; ++n) {
          plan.ids.push_back(next_id_++);
        }
        break;
    }
    return plan;
  }

 private:
  std::vector<std::uint32_t> pick(const std::vector<std::uint32_t>& members, std::size_t n) {
    std::vector<std::uint32_t> pool = members;
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < n; ++i) {
      std::uniform_int_distribution<std::size_t> at(i, pool.size() - 1);
      std::swap(pool[i], pool[at(rng_)]);
      out.push_back(pool[i]);
    }
    return out;
  }

  const Workload& w_;
  std::mt19937_64 rng_;
  std::uint32_t next_id_;
  std::size_t step_;
  std::size_t partitions_ = 0;
};

/// One churn operation as observed from outside.
struct OpRecord {
  Kind kind = Kind::kJoin;
  std::size_t batch = 0;
  bool ok = false;
  SimTime due_us = 0;
  SimTime start_us = 0;
  SimTime end_us = 0;
  double wall_ms = 0.0;
  std::uint64_t air_bits = 0;    ///< codec-true bits framed on air
  std::uint64_t paper_bits = 0;  ///< paper-accounted bits of the same frames
  std::size_t size_after = 0;
  int retransmissions = 0;  ///< flat sessions only (the driver's OpOutcome)
  /// mpint work of the call; only attributable with one group per process.
  mpint::OpCounts ops;
  std::uint64_t key_hash = 0;

  [[nodiscard]] std::string deterministic(bool with_ops) const {
    std::ostringstream s;
    s << kind_name(kind) << ',' << batch << ',' << ok << ',' << (end_us - due_us) << ','
      << (start_us - due_us) << ',' << air_bits << ',' << paper_bits << ',' << size_after
      << ',' << retransmissions << ',' << key_hash;
    if (with_ops) {
      s << ',' << ops.exps << ',' << ops.multi_exps << ',' << ops.mod_muls << ','
        << ops.mod_sqrs;
    }
    return s.str();
  }
};

/// Everything one group owns. Destruction order (reverse of declaration)
/// mirrors sim::ScenarioRunner: sessions, then the driver, then its
/// scheduler, then the authority the sessions enrolled with.
struct Group {
  std::size_t index = 0;
  std::unique_ptr<gka::Authority> authority;
  std::unique_ptr<sim::Scheduler> own_scheduler;  ///< single-group workloads
  std::unique_ptr<sim::ProtocolDriver> driver;
  std::unique_ptr<gka::GroupSession> flat;
  std::unique_ptr<cluster::HierarchicalSession> hier;

  std::vector<std::uint32_t> members;
  std::unique_ptr<ChurnGen> gen;
  sim::OpOutcome formed;
  bool form_ok = false;
  mpint::BigInt key;

  /// Ledger of each current member at the start of churn (absent: zero).
  std::map<std::uint32_t, energy::Ledger> base_ledger;
  /// Churn-phase ledger deltas of members that already left.
  energy::Ledger banked;
  std::vector<OpRecord> ops;
  Clock::time_point prefix_done{};
  std::vector<std::string> errors;

  [[nodiscard]] const mpint::BigInt& current_key() const {
    return flat ? flat->key() : hier->group_key();
  }

  /// Every current member holds the same non-zero key.
  [[nodiscard]] bool keys_agree() const {
    if (hier) return hier->all_members_agree() && !hier->group_key().is_zero();
    const auto& ms = flat->members();
    if (ms.empty() || ms.front().key.is_zero()) return false;
    return std::all_of(ms.begin(), ms.end(),
                       [&](const gka::MemberCtx& m) { return m.key == ms.front().key; });
  }

  void bank(std::uint32_t id) {
    const auto it = base_ledger.find(id);
    const energy::Ledger base = it == base_ledger.end() ? energy::Ledger{} : it->second;
    banked += minus(driver->member_ledger(id), base);
    if (it != base_ledger.end()) base_ledger.erase(it);
  }

  /// Churn-phase ledger of every member that was ever in the group.
  [[nodiscard]] energy::Ledger churn_ledger() const {
    energy::Ledger total = banked;
    for (const std::uint32_t id : members) {
      const auto it = base_ledger.find(id);
      total += minus(driver->member_ledger(id),
                     it == base_ledger.end() ? energy::Ledger{} : it->second);
    }
    return total;
  }
};

std::uint64_t key_hash(const mpint::BigInt& key) { return fnv1a(key.to_bytes_be()); }

// ------------------------------------------------------------------ runner

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool check = false;
  bool repeat = false;
  bool smoke = false;
  std::string spans_path;
};

struct Metric {
  double value;
  const char* unit;
};

/// One execution of a workload: setup, formation, churn.
class Bench {
 public:
  Bench(const Workload& w, const Options& opt, SpanLog& spans)
      : w_(w), opt_(opt), spans_(spans) {}
  ~Bench() { groups.clear(); }  // drivers before the shared executor
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  void run() {
    // The named curves are lazily built statics; build them before any
    // counter window opens so every setup repeats identical counted work.
    (void)ec::secp160r1();
    (void)ec::p256();
    ScopedSpan workload(spans_, "workload", -1);
    setup(workload.id());
    formation(workload.id());
    churn(workload.id());
  }

  [[nodiscard]] const Workload& workload() const { return w_; }

  // --- Results ---
  std::vector<double> setup_s, authority_ms, session_ms;
  mpint::OpCounts setup_ops;
  double form_s = 0.0;
  double churn_wall_s = 0.0, churn_cpu_s = 0.0, prefix_s = 0.0;
  mpint::OpCounts churn_ops;
  obs::Snapshot form_delta, churn_delta;
  std::uint64_t resumes = 0, events = 0, max_batch = 0;
  std::uint64_t churn_air_bits = 0, churn_paper_bits = 0;
  /// Largest frame encoded so far in the process (0 without IDGKA_OBS).
  std::uint64_t largest_frame_bytes = 0;
  energy::Ledger churn_ledger;
  std::vector<std::unique_ptr<Group>> groups;
  /// Violations that belong to no single group.
  std::vector<std::string> errors;

  [[nodiscard]] bool single() const { return w_.groups == 1; }
  [[nodiscard]] engine::Executor& executor() {
    return single() ? groups.front()->driver->executor() : *executor_;
  }

 private:
  // ---------------------------------------------------------------- setup
  void build_group(std::size_t g, int parent) {
    auto grp = std::make_unique<Group>();
    grp->index = g;
    const std::uint64_t session_seed = opt_.seed * 0x9e3779b97f4a7c15ULL + g;
    const std::uint32_t base_id = 1000 + static_cast<std::uint32_t>(g) * 1'000'000;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(spans_, "gka.Authority", parent);
      grp->authority = std::make_unique<gka::Authority>(w_.profile, w_.authority_seed + g);
    }
    const auto t1 = Clock::now();
    if (single()) {
      grp->own_scheduler = std::make_unique<sim::Scheduler>();
      grp->driver = std::make_unique<sim::ProtocolDriver>(*grp->own_scheduler, w_.driver,
                                                          session_seed ^ 0x6c696e6bULL);
    } else {
      grp->driver = std::make_unique<sim::ProtocolDriver>(*executor_, w_.driver,
                                                          session_seed ^ 0x6c696e6bULL);
    }
    for (std::size_t i = 0; i < w_.members; ++i) {
      grp->members.push_back(base_id + static_cast<std::uint32_t>(i));
    }
    {
      ScopedSpan span(spans_, w_.hierarchical ? "cluster.HierarchicalSession" : "gka.GroupSession",
                      parent);
      if (w_.hierarchical) {
        grp->hier = std::make_unique<cluster::HierarchicalSession>(
            *grp->authority, w_.cluster, grp->members, session_seed);
        grp->driver->attach(*grp->hier);
      } else {
        grp->flat = std::make_unique<gka::GroupSession>(*grp->authority, gka::Scheme::kProposed,
                                                        grp->members, session_seed);
        grp->driver->attach(*grp->flat);
      }
    }
    const auto t2 = Clock::now();
    authority_ms.push_back(seconds_between(t0, t1) * 1e3);
    session_ms.push_back(seconds_between(t1, t2) * 1e3);
    grp->gen = std::make_unique<ChurnGen>(w_, session_seed ^ 0x636875726eULL,
                                          base_id + static_cast<std::uint32_t>(w_.members), g);
    groups.push_back(std::move(grp));
  }

  void setup(int parent) {
    ScopedSpan phase(spans_, "phase.setup", parent);
    const std::size_t reps = opt_.check ? 1 : w_.setups;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      groups.clear();
      executor_.reset();
      scheduler_.reset();
      const mpint::OpCounts ops0 = mpint::op_counts();
      const auto t0 = Clock::now();
      if (!single()) {
        scheduler_ = std::make_unique<sim::Scheduler>();
        executor_ = std::make_unique<engine::Executor>(*scheduler_);
      }
      for (std::size_t g = 0; g < w_.groups; ++g) build_group(g, phase.id());
      setup_s.push_back(seconds_between(t0, Clock::now()));
      setup_ops = minus(mpint::op_counts(), ops0);
    }
  }

  // ------------------------------------------------------------ formation
  void formation(int parent) {
    ScopedSpan phase(spans_, "phase.formation", parent);
    const obs::Snapshot reg0 = obs::Registry::global().snapshot();
    const auto t0 = Clock::now();
    if (single()) {
      Group& g = *groups.front();
      ScopedSpan span(spans_, "sim.ProtocolDriver::form", phase.id());
      g.formed = g.driver->form();
    } else {
      ScopedSpan drain(spans_, "engine.Executor::drain", phase.id());
      for (auto& grp : groups) {
        executor_->submit("form", [this, g = grp.get(), parent = drain.id()](
                                      engine::ProtocolRun& run) {
          run.sleep_until(static_cast<SimTime>(g->index) * w_.stagger_us);
          ScopedSpan span(spans_, "sim.ProtocolDriver::form", parent);
          g->formed = g->driver->form();
        });
      }
      executor_->drain();
    }
    form_s = seconds_between(t0, Clock::now());
    for (auto& g : groups) {
      g->form_ok = g->formed.success && g->keys_agree();
      if (!g->form_ok) g->errors.push_back("formation failed");
      g->key = g->current_key();
    }
    form_delta = obs::Registry::global().snapshot().delta_since(reg0);
  }

  // ---------------------------------------------------------------- churn
  [[nodiscard]] std::size_t ops_per_group() const {
    return opt_.check ? kCheckOps : std::max(w_.prefix_ops, kCheckOps);
  }

  /// The closed loop of one group. `wait_until` advances virtual time to
  /// the next operation's due time (the host scheduler for one group, the
  /// group's ProtocolRun under the shared executor).
  void churn_loop(Group& g, Clock::time_point deadline,
                  const std::function<void(SimTime)>& wait_until, int parent) {
    if (!g.form_ok) return;
    const std::size_t min_ops = ops_per_group();
    // Past the deadline a group still finishes its pattern cycle, so a
    // run's operations are whole cycles and the latency percentiles fall
    // at the same place in the mix however many operations fit.
    const auto more = [&](std::size_t i) {
      if (i < min_ops) return true;
      if (opt_.check) return false;
      return Clock::now() < deadline || i % w_.pattern.size() != 0;
    };
    for (std::size_t i = 0; more(i); ++i) {
      const Plan plan = g.gen->next(g.members);
      OpRecord rec;
      rec.kind = plan.kind;
      rec.batch = plan.ids.size();
      rec.due_us = churn_t0_us_ + static_cast<SimTime>(i + 1) * w_.spacing_us;
      wait_until(rec.due_us);
      if (plan.kind == Kind::kLeave || plan.kind == Kind::kPartition) {
        for (const std::uint32_t id : plan.ids) g.bank(id);
      }
      const std::uint64_t air0 = g.driver->encoded_bits_on_air();
      const std::uint64_t paper0 = g.driver->bits_on_air();
      const mpint::OpCounts ops0 = mpint::op_counts();
      const auto t0 = Clock::now();
      sim::OpOutcome out;
      {
        ScopedSpan span(spans_, plan.kind == Kind::kJoin        ? "sim.ProtocolDriver::join"
                                : plan.kind == Kind::kLeave     ? "sim.ProtocolDriver::leave"
                                : plan.kind == Kind::kPartition ? "sim.ProtocolDriver::partition"
                                                                : "sim.ProtocolDriver::admit",
                        parent);
        switch (plan.kind) {
          case Kind::kJoin: out = g.driver->join(plan.ids.front()); break;
          case Kind::kLeave: out = g.driver->leave(plan.ids.front()); break;
          case Kind::kPartition: out = g.driver->partition(plan.ids); break;
          case Kind::kAdmit: out = g.driver->admit(plan.ids); break;
        }
      }
      rec.wall_ms = seconds_between(t0, Clock::now()) * 1e3;
      rec.ops = minus(mpint::op_counts(), ops0);
      rec.air_bits = g.driver->encoded_bits_on_air() - air0;
      rec.paper_bits = g.driver->bits_on_air() - paper0;
      rec.start_us = out.start_us;
      rec.end_us = out.end_us;
      rec.retransmissions = out.retransmissions;

      if (plan.kind == Kind::kJoin || plan.kind == Kind::kAdmit) {
        g.members.insert(g.members.end(), plan.ids.begin(), plan.ids.end());
      } else {
        std::erase_if(g.members, [&](std::uint32_t id) {
          return std::find(plan.ids.begin(), plan.ids.end(), id) != plan.ids.end();
        });
      }
      rec.size_after = g.driver->size();
      const bool agreed = g.keys_agree();
      const bool fresh = agreed && g.current_key() != g.key;
      rec.ok = out.success && agreed && fresh && rec.size_after == g.members.size();
      if (!rec.ok) {
        g.errors.push_back("op " + std::to_string(i) + " (" + kind_name(plan.kind) +
                           "): success=" + std::to_string(out.success) +
                           " agreed=" + std::to_string(agreed) + " fresh=" +
                           std::to_string(fresh) + " size=" + std::to_string(rec.size_after) +
                           "/" + std::to_string(g.members.size()));
        // Resynchronize so later operations pick real members.
        g.members = g.driver->member_ids();
      }
      if (agreed) g.key = g.current_key();
      rec.key_hash = agreed ? key_hash(g.key) : 0;
      g.ops.push_back(rec);
      if (g.ops.size() == w_.prefix_ops) g.prefix_done = Clock::now();
    }
    if (g.ops.size() < w_.prefix_ops) g.prefix_done = Clock::now();
  }

  void churn(int parent) {
    ScopedSpan phase(spans_, "phase.churn", parent);
    // One due-time grid for every group, starting when the last group has
    // formed: the groups' operations start at the same virtual instants,
    // which is where the executor can resume runs as one parallel batch.
    churn_t0_us_ = 0;
    for (auto& g : groups) churn_t0_us_ = std::max(churn_t0_us_, g->formed.end_us);
    for (auto& g : groups) {
      for (const std::uint32_t id : g->members) g->base_ledger[id] = g->driver->member_ledger(id);
    }
    engine::Executor& exec = executor();
    const std::uint64_t resumes0 = exec.resumes();
    const std::uint64_t events0 = exec.events_executed();
    std::uint64_t air0 = 0, paper0 = 0;
    for (auto& g : groups) {
      air0 += g->driver->encoded_bits_on_air();
      paper0 += g->driver->bits_on_air();
    }
    const obs::Snapshot reg0 = obs::Registry::global().snapshot();
    const mpint::OpCounts ops0 = mpint::op_counts();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(opt_.seconds));
    if (single()) {
      Group& g = *groups.front();
      sim::Scheduler& sched = *g.own_scheduler;
      churn_loop(
          g, deadline,
          [&sched](SimTime due) {
            if (sched.now() < due) sched.run_until(due);
          },
          phase.id());
    } else {
      ScopedSpan drain(spans_, "engine.Executor::drain", phase.id());
      for (auto& grp : groups) {
        executor_->submit("churn", [this, g = grp.get(), deadline,
                                    parent = drain.id()](engine::ProtocolRun& run) {
          churn_loop(*g, deadline, [&run](SimTime due) { run.sleep_until(due); }, parent);
        });
      }
      executor_->drain();
    }
    const auto t1 = Clock::now();
    churn_wall_s = seconds_between(t0, t1);
    churn_cpu_s = process_cpu_s() - cpu0;
    churn_ops = minus(mpint::op_counts(), ops0);
    churn_delta = obs::Registry::global().snapshot().delta_since(reg0);
    if (const auto it = churn_delta.histograms.find("wire.frame_bytes");
        it != churn_delta.histograms.end()) {
      largest_frame_bytes = it->second.max;
    }
    if (largest_frame_bytes > w_.frame_bound_bytes) {
      errors.push_back("largest frame " + std::to_string(largest_frame_bytes) +
                       " B exceeds the frame bound " + std::to_string(w_.frame_bound_bytes) +
                       " B the round timeout is sized from");
    }
    resumes = exec.resumes() - resumes0;
    events = exec.events_executed() - events0;
    max_batch = exec.max_batch();
    Clock::time_point prefix_end = t0;
    for (auto& g : groups) {
      prefix_end = std::max(prefix_end, g->prefix_done);
      churn_air_bits += g->driver->encoded_bits_on_air();
      churn_paper_bits += g->driver->bits_on_air();
      churn_ledger += g->churn_ledger();
    }
    churn_air_bits -= air0;
    churn_paper_bits -= paper0;
    prefix_s = seconds_between(t0, prefix_end);
  }

  const Workload& w_;
  const Options& opt_;
  SpanLog& spans_;
  SimTime churn_t0_us_ = 0;
  /// Shared clock and engine of the multi-group workload.
  std::unique_ptr<sim::Scheduler> scheduler_;
  std::unique_ptr<engine::Executor> executor_;
};

// ------------------------------------------------------------------ probes

/// Median ns per call of `fn` over 5 batches, each sized to ~10 ms.
template <typename Fn>
double probe_ns(Fn&& fn) {
  std::size_t n = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn();
    if (seconds_between(t0, Clock::now()) >= 0.01 || n >= (1u << 26)) break;
    n *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(n));
  }
  return median(per_call);
}

struct Probes {
  double mul_ns = 0, sqr_ns = 0, exp_us = 0, gq_hash_id_us = 0, sha256_mb_s = 0,
         drbg_160b_us = 0, encode_ns = 0, decode_ns = 0;
};

/// Largest frame the workload's protocols emit: a small session of the
/// workload's shape (sniffed on every network it creates) forms and runs
/// one of each membership operation.
wire::Frame largest_frame(const Workload& w, gka::Authority& authority) {
  wire::Frame largest;
  const auto hook = [&largest](net::Network& network) {
    network.set_frame_sniffer([&largest](const wire::Frame& f) {
      if (f.size() > largest.size()) largest = f;
    });
  };
  std::vector<std::uint32_t> ids;
  const std::size_t n = w.hierarchical ? 3 * w.cluster.max_cluster : w.members;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(7'000'000 + static_cast<std::uint32_t>(i));
  const std::uint32_t fresh = 7'900'000;
  if (w.hierarchical) {
    cluster::HierarchicalSession s(authority, w.cluster, ids, 99);
    s.set_network_hook(hook);
    (void)s.form();
    (void)s.join(fresh);
    (void)s.leave(ids[1]);
    (void)s.partition({ids[2], ids[30], ids[60]});
  } else {
    gka::GroupSession s(authority, gka::Scheme::kProposed, ids, 99);
    s.set_network_hook(hook);
    (void)s.form();
    (void)s.join(fresh);
    (void)s.leave(ids[1]);
    (void)s.partition({ids[2], ids[3], ids[4], ids[5]});
  }
  return largest;
}

Probes run_probes(const Workload& w, gka::Authority& authority) {
  Probes p;
  const gka::SystemParams& params = authority.params();
  const mpint::ModContext& ctx = *params.ctx_p;
  mpint::XoshiroRng rng(12345);
  mpint::Residue a = ctx.to_residue(mpint::random_below(rng, ctx.modulus()));
  const mpint::Residue b = ctx.to_residue(mpint::random_below(rng, ctx.modulus()));
  p.mul_ns = probe_ns([&] { ctx.mul(a, b, a); });
  p.sqr_ns = probe_ns([&] { ctx.sqr(a, a); });
  const mpint::BigInt e = mpint::random_below(rng, params.grp.q);
  p.exp_us = probe_ns([&] { ctx.exp(a, e, a); }) / 1e3;

  std::uint32_t id = 1;
  std::uint64_t sink = 0;
  p.gq_hash_id_us = probe_ns([&] { sink += sig::gq_hash_id(params.gq, id++).low_u64(); }) / 1e3;
  const std::vector<std::uint8_t> buf(64 * 1024, 0x5a);
  const double sha_ns = probe_ns([&] { sink += hash::Sha256::digest(buf)[0]; });
  p.sha256_mb_s = static_cast<double>(buf.size()) / (sha_ns * 1e-9) / 1e6;
  hash::HmacDrbg drbg(7, "perfbench");
  p.drbg_160b_us = probe_ns([&] { sink += mpint::random_bits(drbg, 160).low_u64(); }) / 1e3;

  const wire::Frame frame = largest_frame(w, authority);
  const net::Message msg = wire::decode(frame);
  p.encode_ns = probe_ns([&] { sink += wire::encode(msg).size(); });
  p.decode_ns = probe_ns([&] { sink += wire::decode(frame).sender; });
  if (sink == 42) std::fprintf(stderr, "#");  // keeps the probed calls live
  return p;
}

// ------------------------------------------------------------------ output

void write_fingerprint(obs::JsonWriter& j) {
  j.key("fingerprint").begin_object();
  j.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.kv("cpu_model", cpu_model());
  j.kv("threads", static_cast<std::uint64_t>(net::worker_count()));
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("idgka_obs", static_cast<bool>(IDGKA_OBS));
  j.kv("compiler", __VERSION__);
  j.end_object();
}

void write_metrics(obs::JsonWriter& j, const char* key,
                   const std::vector<std::pair<std::string, Metric>>& metrics) {
  j.key(key).begin_object();
  for (const auto& [name, m] : metrics) {
    j.key(name).begin_object();
    j.key("value").raw(num(m.value));
    j.kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
}

struct Tally {
  std::size_t attempted = 0, completed = 0;
  std::vector<double> wall_ms, vlat_ms;
  std::map<Kind, std::vector<double>> wall_by_kind;
  double max_lag_ms = 0.0;
  std::size_t member_events = 0;
};

Tally tally(const Bench& b) {
  Tally t;
  for (const auto& g : b.groups) {
    for (const OpRecord& r : g->ops) {
      ++t.attempted;
      t.member_events += r.batch;
      t.max_lag_ms = std::max(t.max_lag_ms, static_cast<double>(r.start_us - r.due_us) / 1e3);
      if (!r.ok) continue;
      ++t.completed;
      t.wall_ms.push_back(r.wall_ms);
      t.vlat_ms.push_back(static_cast<double>(r.end_us - r.due_us) / 1e3);
      t.wall_by_kind[r.kind].push_back(r.wall_ms);
    }
  }
  return t;
}

struct EnergySplit {
  double compute_mj, radio_mj, paper_mj;
};

EnergySplit energy_split(const Bench& b) {
  const energy::CpuProfile& cpu = energy::strongarm();
  const energy::RadioProfile& radio = energy::radio_100kbps();
  const double tx = static_cast<double>(counter(b.churn_delta, "net.tx_encoded_bits"));
  const double rx = static_cast<double>(counter(b.churn_delta, "net.rx_encoded_bits"));
  return {energy::ledger_compute_mj(b.churn_ledger, cpu),
          (tx * radio.tx_uj_per_bit + rx * radio.rx_uj_per_bit) / 1000.0,
          energy::ledger_energy_mj(b.churn_ledger, cpu, radio)};
}

std::vector<std::pair<std::string, Metric>> end_to_end(const Bench& b, const Tally& t) {
  const double n = static_cast<double>(t.completed);
  const EnergySplit e = energy_split(b);
  const double setup = median(b.setup_s);
  return {
      {"setup_s", {setup, "s"}},
      {"total_s", {setup + b.form_s + b.prefix_s, "s"}},
      {"rekeys_per_s", {ratio(n, b.churn_wall_s), "1/s"}},
      {"rekeys_per_cpu_s", {ratio(n, b.churn_cpu_s), "1/cpu_s"}},
      {"rekey_ms_p50", {percentile(t.wall_ms, 50), "ms"}},
      {"rekey_ms_p90", {percentile(t.wall_ms, 90), "ms"}},
      {"vlat_ms_p50", {percentile(t.vlat_ms, 50), "ms"}},
      {"vlat_ms_p90", {percentile(t.vlat_ms, 90), "ms"}},
      {"air_kbit_per_rekey", {ratio(static_cast<double>(b.churn_air_bits) / 1e3, n), "kbit"}},
      {"energy_mj_per_rekey", {ratio(e.compute_mj + e.radio_mj, n), "mJ"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
      {"success_rate", {ratio(n, static_cast<double>(t.attempted)), "ratio"}},
  };
}

std::vector<std::pair<std::string, Metric>> per_layer(Bench& b, const Tally& t, const Probes& p,
                                                      double overhead_pct) {
  const double n = static_cast<double>(t.completed);
  const obs::Snapshot& d = b.churn_delta;
  const auto per = [n](double v) { return ratio(v, n); };
  const auto c = [&d](const char* name) { return static_cast<double>(counter(d, name)); };
  const EnergySplit e = energy_split(b);
  double form_vlat_ms = 0.0;
  for (const auto& g : b.groups) {
    form_vlat_ms = std::max(form_vlat_ms, static_cast<double>(g->formed.latency_us()) / 1e3);
  }
  std::size_t depth = 1, count = 1;
  if (b.groups.front()->hier) {
    depth = b.groups.front()->hier->depth();
    count = b.groups.front()->hier->cluster_count();
  }
  const auto kind_p50 = [&t](Kind k) {
    const auto it = t.wall_by_kind.find(k);
    return it == t.wall_by_kind.end() ? 0.0 : percentile(it->second, 50);
  };
  const double muls = static_cast<double>(b.churn_ops.mod_muls);
  const double sqrs = static_cast<double>(b.churn_ops.mod_sqrs);
  return {
      {"gka.authority_ms", {median(b.authority_ms), "ms"}},
      {"gka.session_ms_per_member",
       {median(b.session_ms) / static_cast<double>(b.workload().members), "ms"}},
      {"mpint.exps_per_rekey", {per(static_cast<double>(b.churn_ops.exps)), "count"}},
      {"mpint.multi_exps_per_rekey", {per(static_cast<double>(b.churn_ops.multi_exps)), "count"}},
      {"mpint.mod_muls_per_rekey", {per(muls), "count"}},
      {"mpint.mod_sqrs_per_rekey", {per(sqrs), "count"}},
      {"mpint.mod_ops_setup",
       {static_cast<double>(b.setup_ops.mod_muls + b.setup_ops.mod_sqrs), "count"}},
      {"mpint.mul_ns", {p.mul_ns, "ns"}},
      {"mpint.sqr_ns", {p.sqr_ns, "ns"}},
      {"mpint.exp_us", {p.exp_us, "us"}},
      {"mpint.share_est", {ratio((muls * p.mul_ns + sqrs * p.sqr_ns) * 1e-9, b.churn_cpu_s),
                           "ratio"}},
      {"sig.gq_hash_id_us", {p.gq_hash_id_us, "us"}},
      {"hash.sha256_mb_s", {p.sha256_mb_s, "MB/s"}},
      {"hash.drbg_160b_us", {p.drbg_160b_us, "us"}},
      {"sim.form_ms", {b.form_s * 1e3, "ms"}},
      {"sim.form_vlat_ms", {form_vlat_ms, "ms"}},
      {"sim.join_ms_p50", {kind_p50(Kind::kJoin), "ms"}},
      {"sim.leave_ms_p50", {kind_p50(Kind::kLeave), "ms"}},
      {"sim.partition_ms_p50", {kind_p50(Kind::kPartition), "ms"}},
      {"sim.merge_ms_p50", {kind_p50(Kind::kAdmit), "ms"}},
      {"sim.events_per_rekey", {per(static_cast<double>(b.events)), "count"}},
      {"sim.start_lag_ms_max", {t.max_lag_ms, "ms"}},
      {"sim.rekey_samples", {n, "count"}},
      {"fail_rate", {1.0 - ratio(n, static_cast<double>(t.attempted)), "ratio"}},
      {"engine.rounds_per_rekey", {per(c("engine.rounds")), "count"}},
      {"engine.retx_ratio", {ratio(c("engine.retransmissions"), c("engine.rounds")), "ratio"}},
      {"engine.resumes_per_rekey", {per(static_cast<double>(b.resumes)), "count"}},
      {"engine.max_batch", {static_cast<double>(b.max_batch), "count"}},
      {"engine.cpu_over_wall", {ratio(b.churn_cpu_s, b.churn_wall_s), "ratio"}},
      {"net.tx_frames_per_rekey", {per(c("net.tx_frames")), "count"}},
      {"net.rx_copies_per_rekey", {per(c("net.rx_copies")), "count"}},
      {"net.drop_ratio", {ratio(c("net.drops"), c("net.drops") + c("net.rx_copies")), "ratio"}},
      {"wire.bytes_per_frame", {ratio(c("wire.encoded_bytes"), c("wire.encodes")), "B"}},
      {"wire.encoded_over_paper",
       {ratio(static_cast<double>(b.churn_air_bits), static_cast<double>(b.churn_paper_bits)),
        "ratio"}},
      {"wire.decodes_per_rekey", {per(c("wire.decodes")), "count"}},
      {"wire.decode_errors", {c("wire.decode_errors"), "count"}},
      {"wire.largest_frame_bytes", {static_cast<double>(b.largest_frame_bytes), "B"}},
      {"wire.encode_ns", {p.encode_ns, "ns"}},
      {"wire.decode_ns", {p.decode_ns, "ns"}},
      {"cluster.rekeys_per_event", {ratio(c("cluster.rekeys"), static_cast<double>(t.member_events)),
                                    "count"}},
      {"cluster.rekey_retries_per_rekey", {per(c("cluster.rekey_retries")), "count"}},
      {"cluster.depth", {static_cast<double>(depth), "count"}},
      {"cluster.count", {static_cast<double>(count), "count"}},
      {"energy.compute_mj_per_rekey", {per(e.compute_mj), "mJ"}},
      {"energy.radio_mj_per_rekey", {per(e.radio_mj), "mJ"}},
      {"energy.paper_mj_per_rekey", {per(e.paper_mj), "mJ"}},
      {"trace.overhead_pct", {overhead_pct, "%"}},
  };
}

}  // namespace

namespace {

/// Every deterministic output of a run, keyed for comparison: registry and
/// mpint counts per phase, engine bookkeeping, air bits, energy, virtual
/// latencies, and each group's formation and operation records.
std::map<std::string, std::string> digest(const Bench& b) {
  std::map<std::string, std::string> d;
  const auto add = [&d](const std::string& prefix, const obs::Snapshot& s) {
    for (const auto& [k, v] : s.counters) d[prefix + k] = std::to_string(v);
    for (const auto& [k, v] : s.probes) d[prefix + k] = std::to_string(v);
    for (const auto& [k, h] : s.histograms) {
      d[prefix + k] = std::to_string(h.count) + "/" + std::to_string(h.sum);
    }
  };
  add("formation.", b.form_delta);
  add("churn.", b.churn_delta);
  d["setup.mod_ops"] = std::to_string(b.setup_ops.mod_muls) + "/" +
                       std::to_string(b.setup_ops.mod_sqrs);
  d["churn.mpint"] = std::to_string(b.churn_ops.exps) + "/" +
                     std::to_string(b.churn_ops.multi_exps) + "/" +
                     std::to_string(b.churn_ops.mod_muls) + "/" +
                     std::to_string(b.churn_ops.mod_sqrs);
  d["churn.engine"] = std::to_string(b.resumes) + "/" + std::to_string(b.events) + "/" +
                      std::to_string(b.max_batch);
  d["churn.air"] = std::to_string(b.churn_air_bits) + "/" + std::to_string(b.churn_paper_bits);
  const EnergySplit e = energy_split(b);
  d["churn.energy"] = num(e.compute_mj) + "/" + num(e.radio_mj) + "/" + num(e.paper_mj);
  const Tally t = tally(b);
  d["churn.vlat"] = num(percentile(t.vlat_ms, 50)) + "/" + num(percentile(t.vlat_ms, 90));
  for (const auto& g : b.groups) {
    const std::string gp = "g" + std::to_string(g->index) + ".";
    d[gp + "form"] = std::to_string(g->form_ok) + "," + std::to_string(g->formed.latency_us());
    for (std::size_t i = 0; i < g->ops.size(); ++i) {
      d[gp + "op" + std::to_string(i)] = g->ops[i].deterministic(b.single());
    }
  }
  return d;
}

/// The first kCheckOps operation records of each group.
void write_records(obs::JsonWriter& j, const Bench& b) {
  j.key("records").begin_array();
  for (const auto& g : b.groups) {
    j.begin_array();
    for (std::size_t i = 0; i < std::min(kCheckOps, g->ops.size()); ++i) {
      j.value(g->ops[i].deterministic(b.single()));
    }
    j.end_array();
  }
  j.end_array();
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--spans") opt.spans_path = value();
    else if (a == "--trace") opt.trace = true;
    else if (a == "--check") opt.check = true;
    else if (a == "--repeat") opt.repeat = true;
    else if (a == "--smoke") opt.smoke = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (opt.seconds < 0) throw std::invalid_argument("--seconds must be >= 0");
  return opt;
}

double total_s(const Bench& b) { return median(b.setup_s) + b.form_s + b.prefix_s; }

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    const Workload w = make_workload(opt.workload, opt.seed, opt.smoke);
    obs::JsonWriter j;
    j.begin_object();
    j.kv("workload", w.name);
    j.kv("seed", opt.seed);
    j.kv("check", opt.check);
    write_fingerprint(j);

    SpanLog untraced(false);
    std::vector<std::string> errors;
    std::size_t attempted = 0, failed = 0;
    const auto collect = [&](const Bench& b) {
      errors.insert(errors.end(), b.errors.begin(), b.errors.end());
      for (const auto& g : b.groups) {
        attempted += 1 + g->ops.size();
        failed += g->form_ok ? 0 : 1;
        for (const OpRecord& r : g->ops) failed += r.ok ? 0 : 1;
        for (const std::string& e : g->errors) {
          errors.push_back("group " + std::to_string(g->index) + ": " + e);
        }
      }
    };

    if (opt.check) {
      Bench b(w, opt, untraced);
      b.run();
      collect(b);
      const auto d = digest(b);
      if (opt.repeat) {
        Bench again(w, opt, untraced);
        again.run();
        const auto d2 = digest(again);
        for (const auto& [k, v] : d) {
          const auto it = d2.find(k);
          if (it == d2.end() || it->second != v) {
            errors.push_back("in-process repeat differs at " + k + ": " + v + " vs " +
                             (it == d2.end() ? std::string("<missing>") : it->second));
          }
        }
        if (d2.size() != d.size()) errors.push_back("in-process repeat has other keys");
      }
      j.key("digest").begin_object();
      for (const auto& [k, v] : d) j.kv(k, v);
      j.end_object();
      write_records(j, b);
    } else {
      // The traced run's overhead is measured against an untraced run of
      // the same workload and seed that stops after the fixed prefix.
      double untraced_total = 0.0;
      if (opt.trace) {
        Options ref = opt;
        ref.trace = false;
        ref.seconds = 0;
        Bench r(w, ref, untraced);
        r.run();
        untraced_total = total_s(r);
      }
      SpanLog spans(opt.trace);
      Bench b(w, opt, spans);
      b.run();
      collect(b);
      const Tally t = tally(b);
      if (t.completed == 0) errors.push_back("no operation completed");
      if (opt.trace) {
        const Probes p = run_probes(w, *b.groups.front()->authority);
        const double overhead = (total_s(b) / untraced_total - 1.0) * 100.0;
        write_metrics(j, "metrics", per_layer(b, t, p, overhead));
        spans.write(opt.spans_path);
      } else {
        write_metrics(j, "metrics", end_to_end(b, t));
      }
      j.kv("rekey_samples", static_cast<std::uint64_t>(t.completed));
      j.key("setup_samples_s").begin_array();
      for (const double v : b.setup_s) j.raw(num(v));
      j.end_array();
      write_records(j, b);
    }
    j.kv("attempted", static_cast<std::uint64_t>(attempted));
    j.kv("failed", static_cast<std::uint64_t>(failed));
    j.key("errors").begin_array();
    for (std::size_t i = 0; i < std::min<std::size_t>(errors.size(), 20); ++i) j.value(errors[i]);
    j.end_array();
    j.kv("correct", errors.empty());
    j.end_object();
    std::printf("%s\n", j.str().c_str());
    return errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gka_perfbench: %s\n", e.what());
    return 2;
  }
}
