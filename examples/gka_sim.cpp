// gka_sim — scenario-driven simulator CLI.
//
// Drives a group through a membership-event script and prints the paper-
// model energy report, so deployment questions ("what does a day of churn
// cost my fleet?") can be answered without writing C++.
//
// Usage:
//   gka_sim [--scheme proposed|bd-sok|bd-ecdsa|bd-dsa|ssn]
//           [--profile paper|test] [--loss RATE] [--seed N]
//           [--radio 100kbps|wlan] EVENT...
// Events:
//   form:ID1,ID2,...      initial group (required first)
//   join:ID               one member joins
//   leave:ID              one member leaves
//   part:ID1,ID2,...      several members leave at once
//
// The group runs on a sim::ProtocolDriver; --loss RATE in [0, 1) is the
// independent per-copy loss probability of its link.
//
// Example:
//   gka_sim --scheme proposed form:1,2,3,4,5 join:6 leave:2 part:3,4
#include <cstdio>
#include <cstring>
#include <string>

#include "energy/profiles.h"
#include "gka/session.h"
#include "sim/driver.h"

using namespace idgka;

namespace {

std::vector<std::uint32_t> parse_ids(const std::string& csv) {
  std::vector<std::uint32_t> ids;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos ? csv.npos : comma - pos);
    ids.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return ids;
}

int usage() {
  std::fprintf(stderr,
               "usage: gka_sim [--scheme proposed|bd-sok|bd-ecdsa|bd-dsa|ssn]\n"
               "               [--profile paper|test] [--loss RATE] [--seed N]\n"
               "               [--radio 100kbps|wlan] form:1,2,3 [join:4] [leave:2] "
               "[part:1,3]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gka::Scheme scheme = gka::Scheme::kProposed;
  gka::SecurityProfile profile = gka::SecurityProfile::kTest;
  double loss = 0.0;
  std::uint64_t seed = 1;
  const energy::RadioProfile* radio = &energy::wlan_spectrum24();
  std::vector<std::string> events;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--scheme") {
      const char* v = next();
      if (v == nullptr) return usage();
      const std::string s = v;
      if (s == "proposed") scheme = gka::Scheme::kProposed;
      else if (s == "bd-sok") scheme = gka::Scheme::kBdSok;
      else if (s == "bd-ecdsa") scheme = gka::Scheme::kBdEcdsa;
      else if (s == "bd-dsa") scheme = gka::Scheme::kBdDsa;
      else if (s == "ssn") scheme = gka::Scheme::kSsn;
      else return usage();
    } else if (arg == "--profile") {
      const char* v = next();
      if (v == nullptr) return usage();
      profile = std::strcmp(v, "paper") == 0 ? gka::SecurityProfile::kPaper
                                             : gka::SecurityProfile::kTest;
    } else if (arg == "--loss") {
      const char* v = next();
      if (v == nullptr) return usage();
      loss = std::stod(v);
      if (loss < 0.0 || loss >= 1.0) return usage();
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return usage();
      seed = std::stoull(v);
    } else if (arg == "--radio") {
      const char* v = next();
      if (v == nullptr) return usage();
      radio = std::strcmp(v, "100kbps") == 0 ? &energy::radio_100kbps()
                                             : &energy::wlan_spectrum24();
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      events.push_back(arg);
    }
  }
  if (events.empty() || events.front().rfind("form:", 0) != 0) return usage();

  std::printf("scheme=%s profile=%s loss=%.2f radio=%s\n", gka::scheme_name(scheme),
              profile == gka::SecurityProfile::kPaper ? "paper(1024)" : "test(256)", loss,
              radio->name.c_str());
  gka::Authority authority(profile, seed);
  sim::DriverConfig channel;
  channel.link.loss_good = loss;
  channel.link.loss_bad = loss;
  sim::Scheduler scheduler;
  std::unique_ptr<gka::GroupSession> session;
  std::unique_ptr<sim::ProtocolDriver> driver;  // destroyed before the session

  for (const std::string& event : events) {
    const std::size_t colon = event.find(':');
    const std::string kind = event.substr(0, colon);
    const std::string args = colon == std::string::npos ? "" : event.substr(colon + 1);
    sim::OpOutcome result;
    if (kind == "form") {
      driver.reset();
      session = std::make_unique<gka::GroupSession>(authority, scheme, parse_ids(args), seed);
      driver = std::make_unique<sim::ProtocolDriver>(scheduler, channel, seed);
      driver->attach(*session);
      result = driver->form();
    } else if (session == nullptr) {
      std::fprintf(stderr, "error: first event must be form:...\n");
      return 2;
    } else if (kind == "join") {
      result = driver->join(parse_ids(args).at(0));
    } else if (kind == "leave") {
      result = driver->leave(parse_ids(args).at(0));
    } else if (kind == "part") {
      result = driver->partition(parse_ids(args));
    } else {
      std::fprintf(stderr, "error: unknown event '%s'\n", kind.c_str());
      return 2;
    }
    if (!result.success) {
      std::fprintf(stderr, "error: event '%s' failed\n", event.c_str());
      return 1;
    }
    std::printf("%-20s members=%2zu rounds=%d retx=%d key=%s...\n", event.c_str(),
                session->size(), result.rounds, result.retransmissions,
                session->key().to_hex().substr(0, 16).c_str());
  }

  std::printf("\nper-node energy (StrongARM + %s):\n", radio->name.c_str());
  double total = 0.0;
  for (const std::uint32_t id : session->member_ids()) {
    const auto& ledger = session->ledger(id);
    const double mj = energy::ledger_energy_mj(ledger, energy::strongarm(), *radio);
    total += mj;
    std::printf("  node %5u: %10.2f mJ  (%llu modexp, %llu tx / %llu rx msgs)\n", id, mj,
                static_cast<unsigned long long>(ledger.count(energy::Op::kModExp)),
                static_cast<unsigned long long>(ledger.tx_messages),
                static_cast<unsigned long long>(ledger.rx_messages));
  }
  std::printf("  group total: %.2f mJ\n", total);
  return 0;
}
