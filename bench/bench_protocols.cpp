// Library wall-clock benchmark: full protocol executions (all members
// simulated in-process, real cryptography) across schemes and group sizes,
// plus the dynamic events and the ING extension baseline.
//
// This measures the *implementation* (kTest parameter profile so the sweep
// stays fast); the paper-model energy numbers come from bench_fig1 /
// bench_table5.
#include <benchmark/benchmark.h>

#include "gka/ing.h"
#include "gka/session.h"
#include "sim/driver.h"

using namespace idgka;

namespace {

gka::Authority& authority() {
  static gka::Authority a(gka::SecurityProfile::kTest, 808);
  return a;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

void BM_Form(benchmark::State& state, gka::Scheme scheme) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    gka::GroupSession session(authority(), scheme, make_ids(n, 5000), seed++);
    const auto result = session.form();
    if (!result.success) state.SkipWithError("protocol failed");
    benchmark::DoNotOptimize(session.key());
  }
  state.SetComplexityN(state.range(0));
}

void BM_FormUnderLoss(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Independent 10% loss per copy on the driver's link.
  sim::DriverConfig lossy;
  lossy.link.loss_good = 0.1;
  lossy.link.loss_bad = 0.1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    gka::GroupSession session(authority(), gka::Scheme::kProposed, make_ids(n, 5100), seed);
    sim::Scheduler scheduler;
    sim::ProtocolDriver driver(scheduler, lossy, seed++);
    driver.attach(session);
    if (!driver.form().success) state.SkipWithError("protocol failed");
  }
}

void BM_Join(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gka::GroupSession session(authority(), gka::Scheme::kProposed, make_ids(n, 5200), 9);
  if (!session.form().success) return;
  std::uint32_t next = 60000;
  for (auto _ : state) {
    if (!session.join(next++).success) state.SkipWithError("join failed");
  }
}

void BM_JoinLeaveCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gka::GroupSession session(authority(), gka::Scheme::kProposed, make_ids(n, 5300), 10);
  if (!session.form().success) return;
  std::uint32_t next = 70000;
  for (auto _ : state) {
    if (!session.join(next).success) state.SkipWithError("join failed");
    if (!session.leave(next).success) state.SkipWithError("leave failed");
    ++next;
  }
}

void BM_Ing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 40;
  for (auto _ : state) {
    std::vector<gka::MemberCtx> members;
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(gka::make_member(
          authority().enroll(5400 + static_cast<std::uint32_t>(i)), seed));
    }
    ++seed;
    net::Network network;
    for (const auto& m : members) network.add_node(m.cred.id);
    const auto result = gka::run_ing(authority().params(), members, network);
    if (!result.success) state.SkipWithError("ing failed");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("BM_Form/Proposed",
                               [](benchmark::State& s) { BM_Form(s, gka::Scheme::kProposed); })
      ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();
  benchmark::RegisterBenchmark("BM_Form/SSN",
                               [](benchmark::State& s) { BM_Form(s, gka::Scheme::kSsn); })
      ->Arg(4)->Arg(8)->Arg(16);
  benchmark::RegisterBenchmark("BM_Form/BD_ECDSA",
                               [](benchmark::State& s) { BM_Form(s, gka::Scheme::kBdEcdsa); })
      ->Arg(4)->Arg(8)->Arg(16);
  benchmark::RegisterBenchmark("BM_Form/BD_DSA",
                               [](benchmark::State& s) { BM_Form(s, gka::Scheme::kBdDsa); })
      ->Arg(4)->Arg(8);
  benchmark::RegisterBenchmark("BM_Form/BD_SOK",
                               [](benchmark::State& s) { BM_Form(s, gka::Scheme::kBdSok); })
      ->Arg(4)->Arg(8);
  benchmark::RegisterBenchmark("BM_FormUnderLoss10pct", BM_FormUnderLoss)->Arg(8);
  benchmark::RegisterBenchmark("BM_Join", BM_Join)->Arg(8)->Arg(16);
  benchmark::RegisterBenchmark("BM_JoinLeaveCycle", BM_JoinLeaveCycle)->Arg(8);
  benchmark::RegisterBenchmark("BM_Ing", BM_Ing)->Arg(4)->Arg(8)->Arg(16);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
