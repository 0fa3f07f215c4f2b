// Ablation B: multiprecision-arithmetic design choices.
//
// Two parts:
//
//  1. Fixed-base comparison (always runs, writes BENCH_crypto.json): the
//     shared ModContext's windowed ladder vs the fixed-base comb table, at
//     256/1024-bit moduli. The 1024-bit fixed-base row is the acceptance
//     gate: the process exits non-zero below a 2.5x speedup over the ladder.
//     Also races the dedicated Montgomery squaring kernel against the
//     general multiply at 1024/2048 bits (gate: >= 1.25x) — whichever pair
//     ModContext picked on this host, named in the table's kernel column
//     ("mulx" fixed-width or "portable"; stdout only, never in the JSON,
//     so the baseline stays host-independent) — and proves
//     steady-state ModContext::exp allocation-free via the operator-new
//     interposer in bench_util.h (gate: 0 heap allocs/op). Times
//     mod_inverse and gcd against a reference extended Euclid at
//     192/1024/2048 bits (gate: <= 1 heap alloc per inverse, its result),
//     and times SHA-256, a 160-bit HMAC-DRBG draw and AES-128-CBC
//     decryption (no gate). Each speedup bar times its two sides in
//     alternating reps and gates on the median of the per-rep ratios, so
//     host load during one rep moves both sides of that rep's ratio.
//
//  2. The Google-Benchmark microsuite (windowed Montgomery vs naive
//     square-and-multiply, Karatsuba crossover, mod-mul, inverse). Runs only
//     when benchmark CLI arguments are given, e.g.
//       ./bench_ablation_mpint --benchmark_filter=.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

// Interpose global operator new/delete for this binary: the residue-engine
// section gates on steady-state ModContext::exp performing zero heap
// allocations per op, measured via bench::heap_alloc_count() deltas.
#define IDGKA_BENCH_COUNT_ALLOCS
#include "bench_util.h"
#include "hash/hmac_drbg.h"
#include "hash/sha256.h"
#include "mpint/mod_context.h"
#include "mpint/random.h"
#include "symc/modes.h"

using namespace idgka;
using mpint::BigInt;

namespace {

BigInt random_odd(std::size_t bits, std::uint64_t seed) {
  hash::HmacDrbg rng(seed, "ablation-mpint");
  BigInt m = mpint::random_bits(rng, bits);
  if (m.is_even()) m += BigInt{1};
  return m;
}

// ------------------------------------------------------------------------
// Part 1: windowed ladder vs fixed-base comb + BENCH_crypto.json
// ------------------------------------------------------------------------

struct CryptoRow {
  std::size_t bits = 0;
  double ctx_us = 0.0;         // shared ModContext, windowed exp
  double fixed_us = 0.0;       // shared ModContext + fixed-base comb
  double table_build_us = 0.0; // one-time comb precomputation
  std::size_t table_kib = 0;
  unsigned teeth = 0;
  std::uint64_t ctx_mod_muls_op = 0;  // deterministic mod-mul count per ctx.exp
  double speedup_fixed = 0.0;         // median paired ctx/fixed ratio (gated)
};

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename F>
double time_us(int iters, F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return us_since(t0) / iters;
}

// Best-of-N per-op time of an ungated variant: the minimum over repetitions
// sheds scheduler noise on shared runners.
template <typename F>
double best_of(int reps, int iters, F&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double us = time_us(iters, body);
    if (r == 0 || us < best) best = us;
  }
  return best;
}

// Both sides of a gated speedup, timed in alternating reps (`base` first on
// even reps, `fast` first on odd ones) so a burst of host load lands on both
// sides of a ratio alike. The bar reads the median of the per-rep ratios
// base/fast; each side's reported time is its best rep.
struct Paired {
  double base_us = 0.0;
  double fast_us = 0.0;
  double ratio = 0.0;
};

template <typename Base, typename Fast>
Paired paired(int reps, int iters, Base&& base, Fast&& fast) {
  Paired p;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    double base_us = 0.0;
    double fast_us = 0.0;
    if (r % 2 == 0) {
      base_us = time_us(iters, base);
      fast_us = time_us(iters, fast);
    } else {
      fast_us = time_us(iters, fast);
      base_us = time_us(iters, base);
    }
    if (r == 0 || base_us < p.base_us) p.base_us = base_us;
    if (r == 0 || fast_us < p.fast_us) p.fast_us = fast_us;
    ratios.push_back(base_us / fast_us);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  p.ratio = ratios.size() % 2 == 1 ? ratios[mid] : (ratios[mid - 1] + ratios[mid]) / 2.0;
  return p;
}

CryptoRow run_comparison(std::size_t bits, int iters, int reps) {
  CryptoRow row;
  row.bits = bits;
  const BigInt m = random_odd(bits, 1);
  hash::HmacDrbg rng(2, "ctx-vs-shim");  // label seeds the baseline exponents
  const BigInt g = mpint::random_below(rng, m);
  std::vector<BigInt> exps;
  exps.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) exps.push_back(mpint::random_bits(rng, bits));

  BigInt sink;
  const mpint::ModContext ctx(m);
  // Fixed-base comb on top of the shared context.
  auto t0 = std::chrono::steady_clock::now();
  const mpint::FixedBaseTable table = ctx.make_fixed_base(g, bits);
  row.table_build_us = us_since(t0);
  row.table_kib = table.table_bytes() / 1024;
  row.teeth = table.teeth();
  // Shared context's windowed exponentiation against the comb.
  const Paired p = paired(
      reps, iters,
      [&] {
        for (const BigInt& e : exps) sink = ctx.exp(g, e);
        benchmark::DoNotOptimize(sink);
      },
      [&] {
        for (const BigInt& e : exps) sink = ctx.exp(table, e);
        benchmark::DoNotOptimize(sink);
      });
  row.ctx_us = p.base_us;
  row.fixed_us = p.fast_us;
  row.speedup_fixed = p.ratio;

  // Cross-check: both paths must agree on the last exponent.
  if (ctx.exp(table, exps.back()) != ctx.exp(g, exps.back())) {
    std::fprintf(stderr, "FATAL: fixed-base result disagrees with ctx.exp at %zu bits\n",
                 bits);
    std::exit(2);
  }

  // Deterministic cost model: the counter delta for one windowed exp.
  const mpint::OpCounts c0 = mpint::op_counts();
  sink = ctx.exp(g, exps.back());
  benchmark::DoNotOptimize(sink);
  row.ctx_mod_muls_op = mpint::op_counts().mod_muls - c0.mod_muls;
  return row;
}

// ------------------------------------------------------------------------
// Multi-exponentiation: joint evaluation vs a chain of independent exps.
// ------------------------------------------------------------------------

struct MultiExpRow {
  const char* engine = "";  // "straus" (interleaved) or "pippenger" (buckets)
  std::size_t arity = 0;
  double seq_us = 0.0;    // prod of arity independent ctx.exp calls
  double joint_us = 0.0;  // one ctx.multi_exp call
  std::uint64_t seq_mod_muls = 0;    // deterministic counts for one op
  std::uint64_t joint_mod_muls = 0;
  double speedup = 0.0;  // median paired seq/joint ratio (gated)
};

MultiExpRow run_multi_exp(const char* engine, std::size_t arity, std::size_t mod_bits,
                          std::size_t exp_bits, int iters, int reps) {
  MultiExpRow row;
  row.engine = engine;
  row.arity = arity;
  const BigInt m = random_odd(mod_bits, 11);
  hash::HmacDrbg rng(12, "multi-exp");
  const mpint::ModContext ctx(m);
  std::vector<BigInt> bases(arity);
  std::vector<BigInt> exps(arity);
  for (BigInt& b : bases) b = mpint::random_below(rng, m);
  for (BigInt& e : exps) e = mpint::random_bits(rng, exp_bits);

  const auto sequential = [&] {
    BigInt acc = ctx.exp(bases[0], exps[0]);
    for (std::size_t t = 1; t < arity; ++t) acc = ctx.mul(acc, ctx.exp(bases[t], exps[t]));
    return acc;
  };

  BigInt sink;
  const Paired p = paired(
      reps, iters,
      [&] {
        for (int i = 0; i < iters; ++i) sink = sequential();
        benchmark::DoNotOptimize(sink);
      },
      [&] {
        for (int i = 0; i < iters; ++i) sink = ctx.multi_exp(bases, exps);
        benchmark::DoNotOptimize(sink);
      });
  row.seq_us = p.base_us;
  row.joint_us = p.fast_us;
  row.speedup = p.ratio;

  // Deterministic mod-mul counts for one op of each flavour, and the
  // equivalence cross-check that makes the wall-clock race meaningful.
  const mpint::OpCounts c0 = mpint::op_counts();
  const BigInt seq = sequential();
  const mpint::OpCounts c1 = mpint::op_counts();
  const BigInt joint = ctx.multi_exp(bases, exps);
  const mpint::OpCounts c2 = mpint::op_counts();
  row.seq_mod_muls = c1.mod_muls - c0.mod_muls;
  row.joint_mod_muls = c2.mod_muls - c1.mod_muls;
  if (seq != joint) {
    std::fprintf(stderr, "FATAL: multi_exp disagrees with sequential exps at arity %zu\n",
                 arity);
    std::exit(2);
  }
  return row;
}

// ------------------------------------------------------------------------
// Residue kernels: dedicated squaring vs general multiply, and the
// zero-allocation contract of steady-state exponentiation.
// ------------------------------------------------------------------------

struct ResidueRow {
  std::size_t bits = 0;
  const char* kernel = "";       // ModContext::kernel() for this width on this host
  double mul_us = 0.0;           // ctx.mul(a, b, out) — general multiply kernel
  double sqr_us = 0.0;           // ctx.sqr(a, out) — dedicated squaring kernel
  double exp_allocs_per_op = 0.0;  // heap allocations per steady-state ctx.exp
  double speedup_sqr = 0.0;        // median paired mul/sqr ratio (gated)
};

ResidueRow run_residue_kernels(std::size_t bits, int iters, int reps) {
  ResidueRow row;
  row.bits = bits;
  const BigInt m = random_odd(bits, 21);
  hash::HmacDrbg rng(22, "residue-kernels");
  const BigInt ga = mpint::random_below(rng, m);
  const BigInt gb = mpint::random_below(rng, m);
  const mpint::ModContext ctx(m);
  row.kernel = ctx.kernel();

  const mpint::Residue a = ctx.to_residue(ga);
  const mpint::Residue b = ctx.to_residue(gb);

  // Correctness first: the squaring kernel must agree with mul(a, a).
  mpint::Residue via_mul(ctx);
  mpint::Residue via_sqr(ctx);
  ctx.mul(a, a, via_mul);
  ctx.sqr(a, via_sqr);
  if (ctx.from_residue(via_mul) != ctx.from_residue(via_sqr)) {
    std::fprintf(stderr, "FATAL: mont_sqr disagrees with mont_mul(a, a) at %zu bits\n",
                 bits);
    std::exit(2);
  }

  // Chained in place so every iteration sees a fresh operand; both loops pay
  // the same per-call counter fold, so the ratio isolates the kernels.
  mpint::Residue acc(ctx);
  const Paired p = paired(
      reps, iters,
      [&] {
        acc = a;
        for (int i = 0; i < iters; ++i) ctx.mul(acc, b, acc);
        benchmark::DoNotOptimize(acc);
      },
      [&] {
        acc = a;
        for (int i = 0; i < iters; ++i) ctx.sqr(acc, acc);
        benchmark::DoNotOptimize(acc);
      });
  row.mul_us = p.base_us;
  row.sqr_us = p.fast_us;
  row.speedup_sqr = p.ratio;

  // Zero-allocation contract: after one warm-up exp (thread-local arena pool
  // grabbed, output residue sized), further exps must not touch the heap.
  const BigInt e = mpint::random_bits(rng, bits);
  mpint::Residue out(ctx);
  ctx.exp(a, e, out);  // warm-up
  constexpr int kAllocProbeOps = 64;
  const std::uint64_t allocs0 = bench::heap_alloc_count();
  for (int i = 0; i < kAllocProbeOps; ++i) ctx.exp(a, e, out);
  row.exp_allocs_per_op =
      static_cast<double>(bench::heap_alloc_count() - allocs0) / kAllocProbeOps;
  benchmark::DoNotOptimize(out);
  return row;
}

// ------------------------------------------------------------------------
// Inversion: the binary GCD core behind mod_inverse / gcd vs the extended
// Euclid over BigInt::divmod that it replaced (kept here only as the
// timing reference), plus the core's allocation count per inverse.
// ------------------------------------------------------------------------

// Extended Euclid as mod_inverse ran it before the binary GCD core: both
// Bezout coefficients, one divmod and two multiplies per step.
BigInt euclid_inverse(const BigInt& a, const BigInt& m) {
  BigInt old_r = a, r = m;
  BigInt old_s = 1, s = 0;
  BigInt old_t = 0, t = 1;
  while (!r.is_zero()) {
    BigInt q, rem;
    BigInt::divmod(old_r, r, q, rem);
    old_r = std::exchange(r, std::move(rem));
    old_s = std::exchange(s, old_s - q * s);
    old_t = std::exchange(t, old_t - q * t);
  }
  return old_s.mod(m);
}

struct InverseRow {
  std::size_t bits = 0;
  double inv_us = 0.0;         // mpint::mod_inverse
  double gcd_us = 0.0;         // mpint::gcd (unit check, no inverse)
  double euclid_inv_us = 0.0;  // euclid_inverse above
  double inv_allocs_per_op = 0.0;
};

InverseRow run_inverse(std::size_t bits, int iters, int euclid_iters, int reps) {
  InverseRow row;
  row.bits = bits;
  const BigInt m = random_odd(bits, 31);
  hash::HmacDrbg rng(32, "inverse");
  // Cycle through distinct operands so the branch predictor cannot learn one
  // operand's step pattern.
  std::vector<BigInt> ops(64);
  for (BigInt& a : ops) a = mpint::random_unit(rng, m);
  for (const BigInt& a : ops) {
    if (mpint::mod_inverse(a, m) != euclid_inverse(a, m)) {
      std::fprintf(stderr, "FATAL: mod_inverse disagrees with Euclid at %zu bits\n", bits);
      std::exit(2);
    }
  }
  row.inv_us = best_of(reps, iters, [&] {
    for (int i = 0; i < iters; ++i) benchmark::DoNotOptimize(mpint::mod_inverse(ops[i % 64], m));
  });
  row.gcd_us = best_of(reps, iters, [&] {
    for (int i = 0; i < iters; ++i) benchmark::DoNotOptimize(mpint::gcd(ops[i % 64], m));
  });
  row.euclid_inv_us = best_of(reps, euclid_iters, [&] {
    for (int i = 0; i < euclid_iters; ++i) {
      benchmark::DoNotOptimize(euclid_inverse(ops[i % 64], m));
    }
  });
  const std::uint64_t allocs0 = bench::heap_alloc_count();
  for (const BigInt& a : ops) benchmark::DoNotOptimize(mpint::mod_inverse(a, m));
  row.inv_allocs_per_op =
      static_cast<double>(bench::heap_alloc_count() - allocs0) / static_cast<double>(ops.size());
  return row;
}

// ------------------------------------------------------------------------
// Symmetric primitives: the before-numbers for SHA-NI / AES-NI kernels.
// ------------------------------------------------------------------------

struct SymmetricRow {
  double sha256_us_per_kib = 0.0;
  double drbg_160b_us = 0.0;  // one mpint::random_bits(drbg, 160), as perfbench probes it
  double aes_cbc_decrypt_us_per_kib = 0.0;
};

SymmetricRow run_symmetric(int reps) {
  SymmetricRow row;
  const std::vector<std::uint8_t> kib(1024, 0x5a);
  constexpr int kShaIters = 2000;
  row.sha256_us_per_kib = best_of(reps, kShaIters, [&] {
    for (int i = 0; i < kShaIters; ++i) benchmark::DoNotOptimize(hash::Sha256::digest(kib));
  });
  hash::HmacDrbg drbg(7, "symmetric");
  constexpr int kDrbgIters = 20000;
  row.drbg_160b_us = best_of(reps, kDrbgIters, [&] {
    for (int i = 0; i < kDrbgIters; ++i) {
      benchmark::DoNotOptimize(mpint::random_bits(drbg, 160));
    }
  });
  std::array<std::uint8_t, symc::Aes128::kKeySize> key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  const symc::Aes128 aes(key);
  const symc::Aes128::Block iv{};
  const std::vector<std::uint8_t> ct = symc::cbc_encrypt(aes, iv, kib);
  constexpr int kAesIters = 1000;
  row.aes_cbc_decrypt_us_per_kib = best_of(reps, kAesIters, [&] {
    for (int i = 0; i < kAesIters; ++i) benchmark::DoNotOptimize(symc::cbc_decrypt(aes, iv, ct));
  });
  return row;
}

int run_crypto_bench() {
  std::printf("=== ModContext windowed ladder vs fixed-base comb ===\n");
  std::printf("%6s %12s %12s %9s %10s %8s\n", "bits", "ctx us/op", "fixed us/op", "fixed x",
              "build us", "tbl KiB");

  std::vector<CryptoRow> rows;
  rows.push_back(run_comparison(256, 96, 5));
  rows.push_back(run_comparison(1024, 24, 5));
  for (const CryptoRow& r : rows) {
    std::printf("%6zu %12.1f %12.1f %8.2fx %10.1f %8zu\n", r.bits, r.ctx_us, r.fixed_us,
                r.speedup_fixed, r.table_build_us, r.table_kib);
  }

  std::printf("\n=== Joint multi-exponentiation vs sequential exp chains ===\n");
  std::printf("%-10s %6s %12s %12s %9s %10s %11s\n", "engine", "arity", "seq us/op",
              "joint us/op", "joint x", "seq muls", "joint muls");
  std::vector<MultiExpRow> multi;
  multi.push_back(run_multi_exp("straus", 4, 1024, 256, 16, 5));
  multi.push_back(run_multi_exp("pippenger", 32, 1024, 256, 4, 5));
  for (const MultiExpRow& r : multi) {
    std::printf("%-10s %6zu %12.1f %12.1f %8.2fx %10llu %11llu\n", r.engine, r.arity,
                r.seq_us, r.joint_us, r.speedup,
                static_cast<unsigned long long>(r.seq_mod_muls),
                static_cast<unsigned long long>(r.joint_mod_muls));
  }

  std::printf("\n=== Residue kernels: dedicated squaring vs general mont_mul ===\n");
  std::printf("%6s %9s %12s %12s %9s %14s\n", "bits", "kernel", "mul us/op", "sqr us/op",
              "sqr x", "exp allocs/op");
  std::vector<ResidueRow> residue;
  residue.push_back(run_residue_kernels(1024, 200000, 7));
  residue.push_back(run_residue_kernels(2048, 60000, 7));
  for (const ResidueRow& r : residue) {
    std::printf("%6zu %9s %12.4f %12.4f %8.2fx %14.2f\n", r.bits, r.kernel, r.mul_us,
                r.sqr_us, r.speedup_sqr, r.exp_allocs_per_op);
  }

  std::printf("\n=== Inversion: binary GCD core vs extended Euclid over divmod ===\n");
  std::printf("%6s %10s %10s %14s %9s %14s\n", "bits", "inv us", "gcd us", "euclid inv us",
              "inv x", "inv allocs/op");
  std::vector<InverseRow> inverse;
  inverse.push_back(run_inverse(192, 20000, 2000, 5));
  inverse.push_back(run_inverse(1024, 2000, 200, 5));
  inverse.push_back(run_inverse(2048, 600, 60, 5));
  for (const InverseRow& r : inverse) {
    std::printf("%6zu %10.2f %10.2f %14.2f %8.1fx %14.2f\n", r.bits, r.inv_us, r.gcd_us,
                r.euclid_inv_us, r.euclid_inv_us / r.inv_us, r.inv_allocs_per_op);
  }

  const SymmetricRow sym = run_symmetric(5);
  std::printf("\n=== Symmetric primitives (portable) ===\n");
  std::printf("SHA-256 %.2f us/KiB, HMAC-DRBG 160-bit draw %.2f us, AES-128-CBC decrypt "
              "%.2f us/KiB\n",
              sym.sha256_us_per_kib, sym.drbg_160b_us, sym.aes_cbc_decrypt_us_per_kib);

  std::ofstream out("BENCH_crypto.json");
  out << "{\"bench\":\"crypto_context\",\"runs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CryptoRow& r = rows[i];
    if (i > 0) out << ',';
    char buf[360];
    std::snprintf(buf, sizeof buf,
                  "{\"bits\":%zu,\"ctx_us_op\":%.2f,"
                  "\"fixed_base_us_op\":%.2f,"
                  "\"speedup_fixed_base\":%.2f,\"comb_teeth\":%u,"
                  "\"table_kib\":%zu,\"table_build_us\":%.1f,"
                  "\"ctx_mod_muls_op\":%llu}",
                  r.bits, r.ctx_us, r.fixed_us, r.speedup_fixed, r.teeth, r.table_kib,
                  r.table_build_us,
                  static_cast<unsigned long long>(r.ctx_mod_muls_op));
    out << buf;
  }
  out << "],\"multi_exp\":[";
  for (std::size_t i = 0; i < multi.size(); ++i) {
    const MultiExpRow& r = multi[i];
    if (i > 0) out << ',';
    char buf[280];
    std::snprintf(buf, sizeof buf,
                  "{\"engine\":\"%s\",\"arity\":%zu,\"seq_us_op\":%.1f,"
                  "\"joint_us_op\":%.1f,\"speedup\":%.2f,"
                  "\"seq_mod_muls\":%llu,\"joint_mod_muls\":%llu}",
                  r.engine, r.arity, r.seq_us, r.joint_us, r.speedup,
                  static_cast<unsigned long long>(r.seq_mod_muls),
                  static_cast<unsigned long long>(r.joint_mod_muls));
    out << buf;
  }
  out << "],\"residue\":[";
  for (std::size_t i = 0; i < residue.size(); ++i) {
    const ResidueRow& r = residue[i];
    if (i > 0) out << ',';
    char buf[200];
    // _us fields are host timing (CI-ignored); allocs_per_op is exact.
    std::snprintf(buf, sizeof buf,
                  "{\"bits\":%zu,\"mont_mul_us\":%.4f,\"mont_sqr_us\":%.4f,"
                  "\"mont_sqr_speedup\":%.2f,\"exp_allocs_per_op\":%.2f}",
                  r.bits, r.mul_us, r.sqr_us, r.speedup_sqr, r.exp_allocs_per_op);
    out << buf;
  }
  out << "],\"inverse\":[";
  for (std::size_t i = 0; i < inverse.size(); ++i) {
    const InverseRow& r = inverse[i];
    if (i > 0) out << ',';
    char buf[200];
    // _us fields are host timing (CI-ignored); allocs_per_op is exact.
    std::snprintf(buf, sizeof buf,
                  "{\"bits\":%zu,\"inv_us\":%.2f,\"gcd_us\":%.2f,\"euclid_inv_us\":%.2f,"
                  "\"inv_allocs_per_op\":%.2f}",
                  r.bits, r.inv_us, r.gcd_us, r.euclid_inv_us, r.inv_allocs_per_op);
    out << buf;
  }
  char sym_buf[200];
  std::snprintf(sym_buf, sizeof sym_buf,
                "],\"symmetric\":{\"sha256_us_per_kib\":%.3f,\"drbg_160b_us\":%.3f,"
                "\"aes_cbc_decrypt_us_per_kib\":%.3f}}\n",
                sym.sha256_us_per_kib, sym.drbg_160b_us, sym.aes_cbc_decrypt_us_per_kib);
  out << sym_buf;
  out.close();
  std::printf("\nwrote BENCH_crypto.json (%zu + %zu + %zu + %zu rows)\n", rows.size(),
              multi.size(), residue.size(), inverse.size());

  // Every bar is evaluated and printed, so one flaky timing bar cannot hide
  // the verdict of the others (the deterministic allocation bars included).
  int rc = 0;
  const double gate = rows.back().speedup_fixed;
  if (gate < 2.5) {
    std::printf("FAILED: 1024-bit fixed-base speedup over the ladder %.2fx < 2.5x "
                "acceptance bar\n",
                gate);
    rc = 1;
  } else {
    std::printf("1024-bit fixed-base speedup over the ladder %.2fx >= 2.5x acceptance bar\n",
                gate);
  }
  if (multi[0].speedup < 1.5) {
    std::printf("FAILED: arity-4 joint multi-exp %.2fx < 1.5x acceptance bar\n",
                multi[0].speedup);
    rc = 1;
  } else {
    std::printf("arity-4 joint multi-exp %.2fx >= 1.5x acceptance bar\n", multi[0].speedup);
  }
  if (multi[1].speedup < 2.0) {
    std::printf("FAILED: width-32 bucket multi-exp %.2fx < 2x acceptance bar\n",
                multi[1].speedup);
    rc = 1;
  } else {
    std::printf("width-32 bucket multi-exp %.2fx >= 2x acceptance bar\n", multi[1].speedup);
  }
  for (const ResidueRow& r : residue) {
    if (r.speedup_sqr < 1.25) {
      std::printf("FAILED: %zu-bit mont_sqr %.2fx < 1.25x acceptance bar\n", r.bits,
                  r.speedup_sqr);
      rc = 1;
    } else {
      std::printf("%zu-bit mont_sqr %.2fx >= 1.25x acceptance bar\n", r.bits,
                  r.speedup_sqr);
    }
    if (r.exp_allocs_per_op != 0.0) {
      std::printf("FAILED: %zu-bit steady-state exp performs %.2f heap allocs/op (want 0)\n",
                  r.bits, r.exp_allocs_per_op);
      rc = 1;
    } else {
      std::printf("%zu-bit steady-state exp: 0 heap allocs/op\n", r.bits);
    }
  }
  for (const InverseRow& r : inverse) {
    if (r.inv_allocs_per_op > 1.0) {
      std::printf("FAILED: %zu-bit mod_inverse performs %.2f heap allocs/op (want <= 1, "
                  "the result's limbs)\n",
                  r.bits, r.inv_allocs_per_op);
      rc = 1;
    } else {
      std::printf("%zu-bit mod_inverse: %.2f heap allocs/op <= 1\n", r.bits,
                  r.inv_allocs_per_op);
    }
  }
  return rc;
}

// ------------------------------------------------------------------------
// Part 2: Google-Benchmark microsuite
// ------------------------------------------------------------------------

void BM_ModContextExp(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = random_odd(bits, 1);
  hash::HmacDrbg rng(2, "pow");
  const BigInt base = mpint::random_below(rng, m);
  const BigInt exp = mpint::random_bits(rng, bits);
  const mpint::ModContext ctx(m);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.exp(base, exp));
}
BENCHMARK(BM_ModContextExp)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FixedBaseExp(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = random_odd(bits, 1);
  hash::HmacDrbg rng(2, "pow");
  const BigInt base = mpint::random_below(rng, m);
  const BigInt exp = mpint::random_bits(rng, bits);
  const mpint::ModContext ctx(m);
  const mpint::FixedBaseTable table = ctx.make_fixed_base(base, bits);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.exp(table, exp));
}
BENCHMARK(BM_FixedBaseExp)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_NaiveSquareMultiply(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = random_odd(bits, 1);
  hash::HmacDrbg rng(2, "pow");
  const BigInt base = mpint::random_below(rng, m);
  const BigInt exp = mpint::random_bits(rng, bits);
  for (auto _ : state) {
    BigInt acc{1};
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      acc = mpint::mod_mul(acc, acc, m);
      if (exp.bit(i)) acc = mpint::mod_mul(acc, base, m);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_NaiveSquareMultiply)->Arg(256)->Arg(512)->Arg(1024);

void BM_Multiply(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  hash::HmacDrbg rng(3, "mul");
  const BigInt a = mpint::random_bits(rng, bits);
  const BigInt b = mpint::random_bits(rng, bits);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
// 1536 limbs*64 = below Karatsuba threshold; larger sizes cross it.
BENCHMARK(BM_Multiply)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)->Arg(16384);

void BM_ModMul(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = random_odd(bits, 4);
  hash::HmacDrbg rng(5, "modmul");
  const BigInt a = mpint::random_below(rng, m);
  const BigInt b = mpint::random_below(rng, m);
  for (auto _ : state) benchmark::DoNotOptimize(mpint::mod_mul(a, b, m));
}
BENCHMARK(BM_ModMul)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModContextMul(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = random_odd(bits, 4);
  hash::HmacDrbg rng(5, "modmul");
  const BigInt a = mpint::random_below(rng, m);
  const BigInt b = mpint::random_below(rng, m);
  const mpint::ModContext ctx(m);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.mul(a, b));
}
BENCHMARK(BM_ModContextMul)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModInverse(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = random_odd(bits, 6);
  hash::HmacDrbg rng(7, "inv");
  BigInt a = mpint::random_below(rng, m);
  while (!mpint::gcd(a, m).is_one()) a = mpint::random_below(rng, m);
  for (auto _ : state) benchmark::DoNotOptimize(mpint::mod_inverse(a, m));
}
BENCHMARK(BM_ModInverse)->Arg(192)->Arg(256)->Arg(1024)->Arg(2048);

}  // namespace

int main(int argc, char** argv) {
  const int rc = run_crypto_bench();
  if (rc != 0) return rc;
  if (argc > 1) {  // microsuite only on request (e.g. --benchmark_filter=.)
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
