// Table 4 reproduction: complexity of the dynamic protocols (BD
// re-execution vs the proposed Join/Leave/Merge/Partition).
//
// Paper rows are printed for n=100, m=20, ld=20; measured totals come from
// instrumented runs at a smaller group (totals follow the same formulas,
// which the test suite validates per-role).
#include <cstdio>

#include "bench_util.h"

using namespace idgka;
using namespace idgka::bench;

namespace {

struct Measured {
  int rounds = 0;
  std::uint64_t msgs = 0;
  std::uint64_t sign_gen = 0;
  std::uint64_t sign_ver = 0;
};

Measured sum_event(const gka::GroupSession& session, const gka::RunResult& result) {
  Measured m;
  m.rounds = result.rounds;
  using energy::Op;
  for (const auto& member : session.members()) {
    m.msgs += member.ledger.tx_messages;
    m.sign_gen += member.ledger.count(Op::kSignGenGq) + member.ledger.count(Op::kSignGenEcdsa);
    m.sign_ver += member.ledger.count(Op::kSignVerGq) + member.ledger.count(Op::kSignVerEcdsa);
  }
  return m;
}

}  // namespace

int main() {
  const std::size_t n = 100;
  const std::size_t m = 20;
  const std::size_t ld = 20;
  std::printf("=== Table 4: Complexity Analysis of Dynamic Protocols ===\n");
  std::printf("paper formulas at n=%zu, m=%zu, ld=%zu; measured at n=10, m=4, ld=3\n\n", n, m,
              ld);

  std::printf("%-22s %6s %10s %-22s %8s %9s\n", "protocol", "rounds", "msgs", "exps",
              "signGen", "signVer");
  rule('-', 86);
  for (const auto event : {gka::DynamicEvent::kJoin, gka::DynamicEvent::kLeave,
                           gka::DynamicEvent::kMerge, gka::DynamicEvent::kPartition}) {
    for (const bool baseline : {true, false}) {
      const auto row = gka::paper_table4(event, baseline, n, m, ld);
      std::printf("%-4s %-17s %6d %5llu (%s) %-22s %8llu %9llu\n",
                  baseline ? "BD" : "Ours", gka::dynamic_event_name(event), row.rounds,
                  static_cast<unsigned long long>(row.msg_count), row.msgs.c_str(),
                  row.exps.c_str(), static_cast<unsigned long long>(row.sign_gen),
                  static_cast<unsigned long long>(row.sign_ver));
    }
  }
  rule('-', 86);

  // Instrumented runs (proposed scheme) at a small group.
  gka::Authority authority(gka::SecurityProfile::kPaper, 31337);
  std::printf("\nmeasured (proposed scheme, instrumented run, totals across members):\n");

  {
    gka::GroupSession s(authority, gka::Scheme::kProposed, make_ids(10), 1);
    (void)s.form();
    s.reset_ledgers();
    const auto r = s.join(2000);
    const auto meas = sum_event(s, r);
    std::printf("  join      n=10 : rounds=%d msgs=%llu signGen=%llu signVer=%llu\n",
                meas.rounds, static_cast<unsigned long long>(meas.msgs),
                static_cast<unsigned long long>(meas.sign_gen),
                static_cast<unsigned long long>(meas.sign_ver));
  }
  {
    gka::GroupSession s(authority, gka::Scheme::kProposed, make_ids(10, 1100), 2);
    (void)s.form();
    s.reset_ledgers();
    const auto ids = s.member_ids();
    const auto r = s.leave(ids.back());
    const auto meas = sum_event(s, r);
    std::printf("  leave     n=10 : rounds=%d msgs=%llu signGen=%llu signVer=%llu "
                "(formula v+n-2 = %d)\n",
                meas.rounds, static_cast<unsigned long long>(meas.msgs),
                static_cast<unsigned long long>(meas.sign_gen),
                static_cast<unsigned long long>(meas.sign_ver),
                static_cast<int>((10 - 1 + 1) / 2 + 10 - 2));
  }
  {
    gka::GroupSession a(authority, gka::Scheme::kProposed, make_ids(6, 1200), 3);
    gka::GroupSession b(authority, gka::Scheme::kProposed, make_ids(4, 1300), 4);
    (void)a.form();
    (void)b.form();
    a.reset_ledgers();
    b.reset_ledgers();
    const auto r = a.merge(b);
    const auto meas = sum_event(a, r);
    std::printf("  merge  6+4     : rounds=%d msgs=%llu signGen=%llu signVer=%llu\n",
                meas.rounds, static_cast<unsigned long long>(meas.msgs),
                static_cast<unsigned long long>(meas.sign_gen),
                static_cast<unsigned long long>(meas.sign_ver));
  }
  {
    gka::GroupSession s(authority, gka::Scheme::kProposed, make_ids(10, 1400), 5);
    (void)s.form();
    s.reset_ledgers();
    const auto ids = s.member_ids();
    const auto r = s.partition({ids[7], ids[8], ids[9]});
    const auto meas = sum_event(s, r);
    std::printf("  partition ld=3 : rounds=%d msgs=%llu signGen=%llu signVer=%llu "
                "(formula v+n-2ld = %d)\n",
                meas.rounds, static_cast<unsigned long long>(meas.msgs),
                static_cast<unsigned long long>(meas.sign_gen),
                static_cast<unsigned long long>(meas.sign_ver), static_cast<int>((10 - 3 + 1) / 2 + 10 - 6));
  }
  std::printf("\nnote: our join measures 4 protocol messages against the paper's "
              "count of 5 (see README, Deviations from the paper).\n");
  return 0;
}
