// Table 2 reproduction: computational energy / timing cost of the
// cryptographic primitives.
//
// Prints the paper's per-op table (StrongARM mJ + ms, P-III-450 ms, and the
// Eq.-4 extrapolation), then google-benchmark measurements of *this
// implementation* of every primitive on the build host — the paper's shape
// check is the ratio structure (e.g. SOK verification >> everything else).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "ec/curve.h"
#include "energy/profiles.h"
#include "hash/hmac_drbg.h"
#include "mpint/mod_context.h"
#include "mpint/prime.h"
#include "pairing/tate.h"
#include "sig/dsa.h"
#include "sig/ecdsa.h"
#include "sig/gq.h"
#include "sig/sok.h"

using namespace idgka;

namespace {

// Shared fixtures at the paper's parameter sizes.
struct Fixtures {
  hash::HmacDrbg rng{20240612, "bench-table2"};
  mpint::SchnorrGroup grp = mpint::generate_schnorr_group(rng, 1024, 160, 24);
  mpint::ModContext mont{grp.p};
  mpint::GqModulus gq_mod = mpint::generate_gq_modulus(rng, 1024, mpint::BigInt{65537}, 24);
  sig::GqPkg gq_pkg{mpint::GqModulus(gq_mod)};
  mpint::SupersingularParams ss =
      mpint::generate_supersingular_params(rng, 512, 160, 24);
  pairing::SsGroup ss_group{ss};
  pairing::TatePairing tate{ss_group};
  sig::SokPkg sok_pkg{ss_group, rng};
  sig::DsaParams dsa = sig::dsa_generate_params(rng, 1024, 160, 24);
  mpint::ModContext dsa_ctx{dsa.p};  // derived once, like the GQ and ECDSA rows
  sig::DsaKeyPair dsa_key = sig::dsa_generate_keypair(dsa, dsa_ctx, rng);
  sig::EcdsaKeyPair ec_key = sig::ecdsa_generate_keypair(ec::secp160r1(), rng);
};

Fixtures& fx() {
  static Fixtures f;
  return f;
}

const std::vector<std::uint8_t> kMsg = {'t', 'a', 'b', 'l', 'e', '2'};

void BM_ModExp1024(benchmark::State& state) {
  auto& f = fx();
  const auto base = mpint::random_below(f.rng, f.grp.p);
  const auto exp = mpint::random_below(f.rng, f.grp.q);
  for (auto _ : state) benchmark::DoNotOptimize(f.mont.exp(base, exp));
}
BENCHMARK(BM_ModExp1024);

void BM_TatePairing(benchmark::State& state) {
  auto& f = fx();
  const auto p = f.ss_group.generator();
  const auto q = f.ss_group.map_to_point(std::string_view{"other"});
  for (auto _ : state) benchmark::DoNotOptimize(f.tate.pair(p, q));
}
BENCHMARK(BM_TatePairing);

void BM_ScalarMul160(benchmark::State& state) {
  auto& f = fx();
  const auto& curve = ec::secp160r1();
  const auto k = mpint::random_below(f.rng, curve.order());
  for (auto _ : state) benchmark::DoNotOptimize(curve.mul(k, curve.generator()));
}
BENCHMARK(BM_ScalarMul160);

void BM_SignGenDsa(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::dsa_sign(f.dsa, f.dsa_ctx, f.dsa_key, kMsg, f.rng));
  }
}
BENCHMARK(BM_SignGenDsa);

void BM_SignVerDsa(benchmark::State& state) {
  auto& f = fx();
  const auto sig = sig::dsa_sign(f.dsa, f.dsa_ctx, f.dsa_key, kMsg, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::dsa_verify(f.dsa, f.dsa_ctx, f.dsa_key.y, kMsg, sig));
  }
}
BENCHMARK(BM_SignVerDsa);

void BM_SignGenEcdsa(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::ecdsa_sign(ec::secp160r1(), f.ec_key, kMsg, f.rng));
  }
}
BENCHMARK(BM_SignGenEcdsa);

void BM_SignVerEcdsa(benchmark::State& state) {
  auto& f = fx();
  const auto sig = sig::ecdsa_sign(ec::secp160r1(), f.ec_key, kMsg, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::ecdsa_verify(ec::secp160r1(), f.ec_key.q, kMsg, sig));
  }
}
BENCHMARK(BM_SignVerEcdsa);

void BM_SignGenSok(benchmark::State& state) {
  auto& f = fx();
  const auto key = f.sok_pkg.extract(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::sok_sign(f.ss_group, 42, key, kMsg, f.rng));
  }
}
BENCHMARK(BM_SignGenSok);

void BM_SignVerSok(benchmark::State& state) {
  auto& f = fx();
  const auto key = f.sok_pkg.extract(42);
  const auto sig = sig::sok_sign(f.ss_group, 42, key, kMsg, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::sok_verify(f.tate, f.sok_pkg.public_key(), 42, kMsg, sig));
  }
}
BENCHMARK(BM_SignVerSok);

void BM_SignGenGq(benchmark::State& state) {
  auto& f = fx();
  const sig::GqSigner signer(f.gq_pkg.params(), 42,
                             f.gq_pkg.extract(sig::gq_identity(f.gq_pkg.params(), 42)));
  for (auto _ : state) benchmark::DoNotOptimize(signer.sign(kMsg, f.rng));
}
BENCHMARK(BM_SignGenGq);

void BM_SignVerGq(benchmark::State& state) {
  auto& f = fx();
  const sig::GqIdentity identity = sig::gq_identity(f.gq_pkg.params(), 42);
  const sig::GqSigner signer(f.gq_pkg.params(), 42, f.gq_pkg.extract(identity));
  const auto sig = signer.sign(kMsg, f.rng);
  const mpint::ModContext ctx(f.gq_pkg.params().n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::gq_verify(f.gq_pkg.params(), ctx, identity, kMsg, sig));
  }
}
BENCHMARK(BM_SignVerGq);

void print_paper_table() {
  using energy::Op;
  const auto& sa = energy::strongarm();
  const auto& p3 = energy::pentium3_450();
  std::printf("=== Table 2: Computational Energy Cost (paper model) ===\n");
  std::printf("%-18s %14s %14s %14s\n", "operation", "StrongARM mJ", "StrongARM ms",
              "P-III 450 ms");
  const Op ops[] = {Op::kModExp,      Op::kMapToPoint,  Op::kTatePairing, Op::kScalarMul,
                    Op::kSignGenDsa,  Op::kSignGenEcdsa, Op::kSignGenSok,  Op::kSignGenGq,
                    Op::kSignVerDsa,  Op::kSignVerEcdsa, Op::kSignVerSok,  Op::kSignVerGq};
  for (const Op op : ops) {
    std::printf("%-18s %14.2f %14.2f %14.2f\n", std::string(energy::op_name(op)).c_str(),
                sa.mj(op), sa.ms(op), p3.ms(op));
  }
  // Eq. (4) sanity: extrapolating the P-III Tate timing reproduces the
  // paper's StrongARM figures.
  const auto tate = energy::extrapolate_from_p3(44.4);
  std::printf("\nEq.(4) check: Tate 44.4 ms (P-III) -> %.1f ms / %.1f mJ StrongARM "
              "(paper: 191.5 ms / 47.0 mJ)\n\n",
              tate.strongarm_ms, tate.strongarm_mj);
  std::printf("--- measured timings of this implementation on the build host follow ---\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_paper_table();
  // Register MapToPoint late (it uses std::string concatenation fixed below).
  benchmark::RegisterBenchmark("BM_MapToPoint", [](benchmark::State& state) {
    auto& f = fx();
    std::uint32_t ctr = 0;
    for (auto _ : state) {
      std::array<std::uint8_t, 4> id{};
      for (int i = 0; i < 4; ++i) id[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(ctr >> (24 - i * 8));
      ++ctr;
      benchmark::DoNotOptimize(f.ss_group.map_to_point(id));
    }
  });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
