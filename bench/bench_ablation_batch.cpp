// Ablation A: GQ batch verification vs individual verification.
//
// This is the design choice that makes the proposed protocol O(1) in
// verification: Eq. (2) checks all n Round-2 signatures with one
// exponentiation pair. The ablation measures wall-clock for both paths at
// several group sizes and prints the energy-model consequence.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "energy/profiles.h"
#include "hash/hmac_drbg.h"
#include "mpint/mod_context.h"
#include "sig/gq.h"

using namespace idgka;

namespace {

struct BatchFixture {
  sig::GqParams params;
  std::shared_ptr<const mpint::ModContext> ctx;
  std::vector<sig::GqIdentity> identities;
  std::vector<sig::BigInt> s_values;
  std::vector<sig::GqSignature> individual;
  std::vector<std::vector<std::uint8_t>> messages;
  sig::BigInt c;
  std::vector<std::uint8_t> z;
};

BatchFixture make_fixture(std::size_t n) {
  static hash::HmacDrbg rng(99, "ablation-batch");
  static const sig::GqPkg pkg = [] {
    hash::HmacDrbg prng(7, "ablation-params");
    return sig::GqPkg(prng, 1024, 24);
  }();

  BatchFixture f;
  f.params = pkg.params();
  f.ctx = std::make_shared<const mpint::ModContext>(f.params.n);
  f.z = {0x01, 0x02, 0x03};
  std::vector<sig::GqSigner> signers;
  std::vector<sig::GqSigner::Commitment> commits;
  sig::BigInt t_prod{1};
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(3000 + i);
    f.identities.push_back(sig::gq_identity(f.params, id));
    signers.emplace_back(f.params, id, pkg.extract(f.identities.back()));
    commits.push_back(signers.back().commit(rng));
    t_prod = mpint::mod_mul(t_prod, commits.back().t, f.params.n);
  }
  f.c = sig::gq_challenge(t_prod.to_bytes_be(), f.z);
  for (std::size_t i = 0; i < n; ++i) {
    f.s_values.push_back(signers[i].respond(commits[i], f.c));
    // Individual-verification arm: one standalone signature per member.
    f.messages.push_back({static_cast<std::uint8_t>(i)});
    f.individual.push_back(signers[i].sign(f.messages.back(), rng));
  }
  return f;
}

void BM_BatchVerify(benchmark::State& state) {
  const auto f = make_fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sig::gq_batch_verify(f.params, *f.ctx, f.identities, f.s_values, f.c, f.z));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BatchVerify)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_IndividualVerify(benchmark::State& state) {
  const auto f = make_fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bool all = true;
    for (std::size_t i = 0; i < f.identities.size(); ++i) {
      all &= sig::gq_verify(f.params, *f.ctx, f.identities[i], f.messages[i], f.individual[i]);
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndividualVerify)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Ablation A: batch vs individual GQ verification ===\n");
  std::printf("energy model: batch = 1 x 18.2 mJ per member regardless of n;\n");
  std::printf("individual  = (n-1) x 18.2 mJ per member "
              "(n=100: 18.2 mJ vs 1801.8 mJ, 99x).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
