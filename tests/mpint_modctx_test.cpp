// Property tests for the modular-arithmetic context layer: ModContext
// exponentiation, multiplication and products cross-checked against naive
// square-and-multiply over mod_mul, every sliding-window width, fixed-base
// comb tables, the residue API, the process-wide operation counters, and
// the Montgomery kernels behind them: every limb count from 1 to 33, and
// the fixed-width kernels against the portable loops.
#include "mpint/mod_context.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mpint/mont_kernels.h"
#include "mpint/random.h"

namespace idgka::mpint {
namespace {

// Reference oracle: plain square-and-multiply over mod_mul.
BigInt naive_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt acc{1};
  acc = acc.mod(m);
  const BigInt b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = mod_mul(acc, acc, m);
    if (exp.bit(i)) acc = mod_mul(acc, b, m);
  }
  return acc;
}

TEST(ModContext, RejectsDegenerateModulus) {
  EXPECT_THROW(ModContext(BigInt{0}), std::invalid_argument);
  EXPECT_THROW(ModContext(BigInt{1}), std::invalid_argument);
  EXPECT_THROW(ModContext(BigInt{-7}), std::invalid_argument);
  EXPECT_THROW(ModContext(BigInt{2}), std::invalid_argument);     // even
  EXPECT_THROW(ModContext(BigInt{1000}), std::invalid_argument);  // even
  EXPECT_NO_THROW(ModContext(BigInt{3}));
}

TEST(ModContext, ExpMatchesNaiveOn500RandomTriples) {
  XoshiroRng rng(2026);
  for (int i = 0; i < 500; ++i) {
    // Mixed sizes (1..4 limbs), odd moduli.
    const std::size_t bits = 16 + static_cast<std::size_t>(rng.next_u64() % 240);
    BigInt m = random_bits(rng, bits);
    if (m.is_even()) m += BigInt{1};
    const BigInt base = random_bits(rng, 8 + static_cast<std::size_t>(rng.next_u64() % 256));
    const BigInt exp = random_bits(rng, 1 + static_cast<std::size_t>(rng.next_u64() % 160));
    const ModContext ctx(m);
    EXPECT_EQ(ctx.exp(base, exp), naive_pow(base, exp, m))
        << "triple " << i << ": base=" << base.to_hex() << " exp=" << exp.to_hex()
        << " m=" << m.to_hex();
  }
}

TEST(ModContext, ExpEdgeCases) {
  for (const std::uint64_t mod : {101ULL, 255ULL}) {  // prime + composite
    const BigInt m{mod};
    const ModContext ctx(m);
    EXPECT_EQ(ctx.exp(BigInt{5}, BigInt{0}), BigInt{1});           // exp = 0
    EXPECT_EQ(ctx.exp(BigInt{5}, BigInt{1}), BigInt{5});           // exp = 1
    EXPECT_EQ(ctx.exp(BigInt{0}, BigInt{5}), BigInt{});            // base = 0
    EXPECT_EQ(ctx.exp(BigInt{0}, BigInt{0}), BigInt{1});           // 0^0 = 1
    EXPECT_EQ(ctx.exp(m + BigInt{3}, BigInt{2}), BigInt{9});       // base >= m
    EXPECT_EQ(ctx.exp(-BigInt{1}, BigInt{2}), BigInt{1});          // negative base
  }
  // Negative exponent inverts the base (odd modulus, invertible base).
  const ModContext ctx(BigInt{101});
  EXPECT_EQ(ctx.mul(ctx.exp(BigInt{7}, BigInt{-3}), ctx.exp(BigInt{7}, BigInt{3})), BigInt{1});
  EXPECT_THROW((void)ctx.exp(BigInt{0}, BigInt{-1}), std::domain_error);
}

TEST(ModContext, ExponentLawsAcrossWindowSizes) {
  XoshiroRng rng(31);
  BigInt m = random_bits(rng, 512);
  if (m.is_even()) m += BigInt{1};
  const BigInt g = random_below(rng, m);
  const ModContext ctx(m);
  // fit_window() picks the window from the exponent width: <= 23 bits run
  // 2-bit windows, <= 79 bits 3, <= 239 bits 4, and wider ones the 5 bits a
  // 512-bit modulus allows.
  for (const std::size_t bits : {20U, 70U, 200U, 300U}) {
    const BigInt a = random_bits(rng, bits);
    const BigInt b = random_bits(rng, bits);
    // g^(a+b) == g^a * g^b, (g^a)^b == (g^b)^a, and the naive ladder agrees.
    EXPECT_EQ(ctx.mul(ctx.exp(g, a), ctx.exp(g, b)), ctx.exp(g, a + b)) << bits << " bits";
    EXPECT_EQ(ctx.exp(ctx.exp(g, a), b), ctx.exp(ctx.exp(g, b), a)) << bits << " bits";
    EXPECT_EQ(ctx.exp(g, a), naive_pow(g, a, m)) << bits << " bits";
  }
}

TEST(ModContext, FixedBaseCombMatchesGenericExp) {
  XoshiroRng rng(47);
  for (int rep = 0; rep < 8; ++rep) {
    BigInt m = random_bits(rng, 256 + static_cast<std::size_t>(rep) * 64);
    if (m.is_even()) m += BigInt{1};
    const ModContext ctx(m);
    const BigInt g = random_below(rng, m);
    // Table widths: narrower than the 6 teeth (one-bit blocks), the GKA's
    // 160-bit q, and a width the teeth do not divide.
    for (const std::size_t exp_bits : {std::size_t{5}, std::size_t{160}, std::size_t{517}}) {
      const FixedBaseTable table = ctx.make_fixed_base(g, exp_bits);
      EXPECT_EQ(table.teeth(), 6U);
      EXPECT_GT(table.table_bytes(), 0U);
      for (int i = 0; i < 12; ++i) {
        const BigInt e = random_bits(rng, 1 + static_cast<std::size_t>(rng.next_u64() % exp_bits));
        EXPECT_EQ(ctx.exp(table, e), ctx.exp(g, e)) << "width " << exp_bits;
      }
      // Edges: zero, one, all-ones at full width, and overflow fallback.
      EXPECT_EQ(ctx.exp(table, BigInt{0}), BigInt{1});
      EXPECT_EQ(ctx.exp(table, BigInt{1}), g.mod(m));
      const BigInt full = (BigInt{1} << exp_bits) - BigInt{1};
      EXPECT_EQ(ctx.exp(table, full), ctx.exp(g, full));
      const BigInt wide = BigInt{1} << (exp_bits + 5);  // wider than the table
      EXPECT_EQ(ctx.exp(table, wide), ctx.exp(g, wide));
    }
  }
}

TEST(ModContext, FixedBaseTableRejectsForeignModulus) {
  const ModContext a(BigInt{101});
  const ModContext b(BigInt{103});
  const FixedBaseTable table = a.make_fixed_base(BigInt{5}, 32);
  EXPECT_THROW((void)b.exp(table, BigInt{3}), std::invalid_argument);
}

TEST(ModContext, OpCountersTrackWork) {
  const ModContext ctx(BigInt{101});
  const OpCounts before = op_counts();
  for (int i = 0; i < 7; ++i) (void)ctx.exp(BigInt{5}, BigInt{1 + i});
  (void)ctx.mul(BigInt{5}, BigInt{6});
  const OpCounts after = op_counts();
  EXPECT_EQ(after.exps - before.exps, 7U);
  EXPECT_GT(after.mod_muls, before.mod_muls);
}

// ------------------------------------------------------------ multi-exp ---

TEST(ModContext, MultiExpMatchesNaiveOn500RandomTuples) {
  XoshiroRng rng(7177);
  for (int i = 0; i < 500; ++i) {
    const std::size_t bits = 16 + static_cast<std::size_t>(rng.next_u64() % 240);
    BigInt m = random_bits(rng, bits);
    if (m.is_even()) m += BigInt{1};
    // Arities spanning both engines: 1..8 hits Straus, > 8 hits Pippenger.
    const std::size_t arity = 1 + static_cast<std::size_t>(rng.next_u64() % 24);
    std::vector<BigInt> bases(arity);
    std::vector<BigInt> exps(arity);
    BigInt want{1};
    want = want.mod(m);
    for (std::size_t t = 0; t < arity; ++t) {
      bases[t] = random_bits(rng, 8 + static_cast<std::size_t>(rng.next_u64() % 128));
      // Mixed widths so narrow and wide partitions both fill: some tiny
      // (Pippenger bucket shapes), some > 64 bits (Straus shapes).
      const std::size_t ebits = 1 + static_cast<std::size_t>(rng.next_u64() % 96);
      exps[t] = random_bits(rng, ebits);
      want = mod_mul(want, naive_pow(bases[t], exps[t], m), m);
    }
    const ModContext ctx(m);
    EXPECT_EQ(ctx.multi_exp(bases, exps), want)
        << "tuple " << i << ": arity=" << arity << " m=" << m.to_hex();
  }
}

TEST(ModContext, MultiExpArityOneDegeneratesToExp) {
  XoshiroRng rng(7178);
  BigInt m = random_bits(rng, 256);
  if (m.is_even()) m += BigInt{1};
  const ModContext ctx(m);
  for (int i = 0; i < 20; ++i) {
    const std::vector<BigInt> base{random_below(rng, m)};
    const std::vector<BigInt> exp{random_bits(rng, 200)};
    EXPECT_EQ(ctx.multi_exp(base, exp), ctx.exp(base[0], exp[0]));
  }
}

TEST(ModContext, MultiExpZeroAndNegativeExponents) {
  const ModContext ctx(BigInt{101});
  // Zero exponents drop out entirely.
  {
    const std::vector<BigInt> bases{BigInt{5}, BigInt{7}, BigInt{9}};
    const std::vector<BigInt> exps{BigInt{0}, BigInt{3}, BigInt{0}};
    EXPECT_EQ(ctx.multi_exp(bases, exps), ctx.exp(BigInt{7}, BigInt{3}));
  }
  // All-zero exponents: the empty product.
  {
    const std::vector<BigInt> bases{BigInt{5}};
    const std::vector<BigInt> exps{BigInt{0}};
    EXPECT_EQ(ctx.multi_exp(bases, exps), BigInt{1});
  }
  // A negative exponent swaps in the inverted base: 7^3 * 7^{-3} = 1.
  {
    const std::vector<BigInt> bases{BigInt{7}, BigInt{7}};
    const std::vector<BigInt> exps{BigInt{3}, BigInt{-3}};
    EXPECT_EQ(ctx.multi_exp(bases, exps), BigInt{1});
  }
  // Non-invertible base with a negative exponent still throws.
  {
    const std::vector<BigInt> bases{BigInt{0}};
    const std::vector<BigInt> exps{BigInt{-1}};
    EXPECT_THROW((void)ctx.multi_exp(bases, exps), std::domain_error);
  }
}

TEST(ModContext, MultiExpRejectsMismatchedSpans) {
  const ModContext ctx(BigInt{101});
  const std::vector<BigInt> bases{BigInt{2}, BigInt{3}};
  const std::vector<BigInt> exps{BigInt{4}};
  EXPECT_THROW((void)ctx.multi_exp(bases, exps), std::invalid_argument);
}

TEST(ModContext, ProductMatchesSequentialMul) {
  XoshiroRng rng(7180);
  // One to twenty limbs; each step also checks the pairwise mul().
  for (const std::size_t bits : {192U, 64U, 640U, 1280U}) {
    BigInt m = random_bits(rng, bits);
    if (m.is_even()) m += BigInt{1};
    const ModContext ctx(m);
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                    std::size_t{17}, std::size_t{64}}) {
      std::vector<BigInt> values(count);
      BigInt want{1};
      want = want.mod(m);
      for (BigInt& v : values) {
        v = random_bits(rng, 8 + static_cast<std::size_t>(rng.next_u64() % 256));
        EXPECT_EQ(ctx.mul(want, v), mod_mul(want, v, m)) << bits << " bits";
        want = mod_mul(want, v, m);
      }
      EXPECT_EQ(ctx.product(values), want) << "count " << count << " bits " << bits;
    }
  }
}

TEST(ModContext, MultiExpCounterTracksCalls) {
  const ModContext ctx(BigInt{101});
  const std::vector<BigInt> bases{BigInt{3}, BigInt{5}};
  const std::vector<BigInt> exps{BigInt{11}, BigInt{13}};
  const OpCounts before = op_counts();
  (void)ctx.multi_exp(bases, exps);
  (void)ctx.multi_exp(bases, exps);
  const OpCounts after = op_counts();
  EXPECT_EQ(after.multi_exps - before.multi_exps, 2U);
  EXPECT_GT(after.mod_muls, before.mod_muls);
  EXPECT_EQ(after.exps, before.exps);  // joint calls are not plain exps
}

// ------------------------------------------------------------ residues ---

TEST(ModContext, ResidueChainMatchesBigIntOn500RandomTriples) {
  XoshiroRng rng(40406);
  for (int i = 0; i < 500; ++i) {
    // Mixed widths (1..4 limbs), odd moduli.
    const std::size_t bits = 16 + static_cast<std::size_t>(rng.next_u64() % 240);
    BigInt m = random_bits(rng, bits);
    if (m.is_even()) m += BigInt{1};
    const BigInt a = random_bits(rng, 8 + static_cast<std::size_t>(rng.next_u64() % 256));
    const BigInt b = random_bits(rng, 8 + static_cast<std::size_t>(rng.next_u64() % 256));
    const BigInt e = random_bits(rng, 1 + static_cast<std::size_t>(rng.next_u64() % 160));
    const ModContext ctx(m);

    // Round trip is the identity on canonical values.
    EXPECT_EQ(ctx.from_residue(ctx.to_residue(a)), a.mod(m));

    // add / sub / mul / sqr / exp through the residue domain against the
    // BigInt API (the Montgomery form is linear, so +/- commute with
    // conversion).
    const Residue ra = ctx.to_residue(a);
    const Residue rb = ctx.to_residue(b);
    Residue r;
    ctx.add(ra, rb, r);
    EXPECT_EQ(ctx.from_residue(r), (a + b).mod(m)) << "triple " << i << " m=" << m.to_hex();
    ctx.sub(ra, rb, r);
    EXPECT_EQ(ctx.from_residue(r), (a - b).mod(m)) << "triple " << i << " m=" << m.to_hex();
    ctx.mul(ra, rb, r);
    EXPECT_EQ(ctx.from_residue(r), ctx.mul(a, b)) << "triple " << i << " m=" << m.to_hex();
    ctx.sqr(ra, r);
    EXPECT_EQ(ctx.from_residue(r), ctx.mul(a, a)) << "triple " << i << " m=" << m.to_hex();
    ctx.exp(ra, e, r);
    EXPECT_EQ(ctx.from_residue(r), ctx.exp(a, e))
        << "triple " << i << ": a=" << a.to_hex() << " e=" << e.to_hex() << " m=" << m.to_hex();
  }
}

TEST(ModContext, ResidueEdgeCases) {
  for (const std::uint64_t mod : {101ULL, 255ULL}) {  // prime + composite
    const BigInt m{mod};
    const ModContext ctx(m);
    const Residue zero = ctx.to_residue(BigInt{});
    const Residue one = ctx.one_residue();
    const Residue top = ctx.to_residue(m - BigInt{1});  // p - 1
    EXPECT_EQ(ctx.from_residue(zero), BigInt{});
    EXPECT_EQ(ctx.from_residue(one), BigInt{1});
    EXPECT_EQ(ctx.from_residue(ctx.to_residue(m)), BigInt{});         // wraps
    EXPECT_EQ(ctx.from_residue(ctx.to_residue(m + BigInt{5})), BigInt{5});
    Residue r;
    ctx.sqr(top, r);
    EXPECT_EQ(ctx.from_residue(r), BigInt{1});  // (p-1)^2 = 1 mod p
    ctx.mul(top, one, r);
    EXPECT_EQ(ctx.from_residue(r), m - BigInt{1});
    ctx.exp(zero, BigInt{0}, r);
    EXPECT_EQ(ctx.from_residue(r), BigInt{1});  // 0^0 = 1
    ctx.exp(top, BigInt{3}, r);
    EXPECT_EQ(ctx.from_residue(r), ctx.exp(m - BigInt{1}, BigInt{3}));
  }
}

TEST(ModContext, ResidueOpsAreAliasingSafe) {
  XoshiroRng rng(40407);
  BigInt m = random_bits(rng, 512);
  if (m.is_even()) m += BigInt{1};
  const ModContext ctx(m);
  const BigInt a = random_below(rng, m);
  const BigInt e{0x1d3557};
  const Residue ra = ctx.to_residue(a);

  Residue want;
  ctx.add(ra, ra, want);
  Residue r = ra;
  ctx.add(r, r, r);  // out aliases both operands
  EXPECT_EQ(ctx.from_residue(r), ctx.from_residue(want));

  r = ra;
  ctx.sub(r, r, r);
  EXPECT_TRUE(r.is_zero());

  ctx.mul(ra, ra, want);
  r = ra;
  ctx.mul(r, r, r);
  EXPECT_EQ(ctx.from_residue(r), ctx.from_residue(want));

  ctx.sqr(ra, want);
  r = ra;
  ctx.sqr(r, r);
  EXPECT_EQ(ctx.from_residue(r), ctx.from_residue(want));

  ctx.exp(ra, e, want);
  r = ra;
  ctx.exp(r, e, r);
  EXPECT_EQ(ctx.from_residue(r), ctx.from_residue(want));
}

TEST(ModContext, ResidueAccumulationMatchesProductAndMultiExp) {
  XoshiroRng rng(40408);
  BigInt m = random_bits(rng, 384);
  if (m.is_even()) m += BigInt{1};
  const ModContext ctx(m);
  std::vector<BigInt> bases(6);
  std::vector<BigInt> exps(6);
  Residue prod = ctx.one_residue();
  Residue joint = ctx.one_residue();
  for (std::size_t i = 0; i < bases.size(); ++i) {
    bases[i] = random_below(rng, m);
    exps[i] = random_bits(rng, 64);
    Residue term = ctx.to_residue(bases[i]);
    ctx.mul(prod, term, prod);
    ctx.exp(term, exps[i], term);
    ctx.mul(joint, term, joint);
  }
  EXPECT_EQ(ctx.from_residue(prod), ctx.product(bases));
  EXPECT_EQ(ctx.from_residue(joint), ctx.multi_exp(bases, exps));
}

TEST(ModContext, SqrCounterTracksDedicatedKernel) {
  const ModContext ctx(BigInt{101});
  const Residue r = ctx.to_residue(BigInt{7});
  Residue out;
  const OpCounts before = op_counts();
  for (int i = 0; i < 5; ++i) ctx.sqr(r, out);
  ctx.mul(r, r, out);
  const OpCounts mid = op_counts();
  EXPECT_EQ(mid.mod_sqrs - before.mod_sqrs, 5U);  // mul never counts as sqr
  // Square-heavy exponent ladders attribute their squarings to mod_sqrs.
  (void)ctx.exp(BigInt{5}, BigInt{0xffff});
  const OpCounts after = op_counts();
  EXPECT_GT(after.mod_sqrs, mid.mod_sqrs);
  EXPECT_GT(after.mod_muls, mid.mod_muls);
}

TEST(ModContext, TransientContextMatchesShared) {
  // Context derivation is deterministic: a context built per call agrees
  // with one shared across calls.
  XoshiroRng rng(59);
  BigInt m = random_bits(rng, 192);
  if (m.is_even()) m += BigInt{1};
  const ModContext ctx(m);
  for (int i = 0; i < 20; ++i) {
    const BigInt base = random_below(rng, m);
    const BigInt e = random_bits(rng, 96);
    EXPECT_EQ(ModContext(m).exp(base, e), ctx.exp(base, e));
  }
}

// ------------------------------------------------------------- kernels ---

// Moduli for one limb count k: a random odd one with its top bit set,
// 2^(64k) - 1 (every limb all ones, so every carry fires) and
// 2^(64k-1) + 1 (the smallest top limb a k-limb modulus can have).
std::vector<BigInt> kernel_moduli(std::size_t k, Rng& rng) {
  const std::size_t bits = 64 * k;
  BigInt random = random_bits(rng, bits);
  if (random.is_even()) random += BigInt{1};
  return {random, (BigInt{1} << bits) - BigInt{1}, (BigInt{1} << (bits - 1)) + BigInt{1}};
}

// Operands for one modulus: 0, 1, m - 1 and two random values below m.
std::vector<BigInt> kernel_operands(const BigInt& m, Rng& rng) {
  return {BigInt{}, BigInt{1}, m - BigInt{1}, random_below(rng, m), random_below(rng, m)};
}

bool is_fixed_width(std::size_t k) { return k == 3 || k == 16; }

TEST(ModContextKernels, ResidueOpsMatchBigIntAtEveryWidth) {
  XoshiroRng rng(2121);
  for (std::size_t k = 1; k <= 33; ++k) {
    for (const BigInt& m : kernel_moduli(k, rng)) {
      const ModContext ctx(m);
      ASSERT_EQ(ctx.limb_count(), k);
      const std::vector<BigInt> ops = kernel_operands(m, rng);
      const BigInt e = random_bits(rng, 1 + static_cast<std::size_t>(rng.next_u64() % 96));
      for (const BigInt& a : ops) {
        const Residue ra = ctx.to_residue(a);
        Residue r;
        ctx.sqr(ra, r);
        EXPECT_EQ(ctx.from_residue(r), mod_mul(a, a, m)) << "k=" << k << " m=" << m.to_hex();
        ctx.exp(ra, e, r);
        EXPECT_EQ(ctx.from_residue(r), naive_pow(a, e, m))
            << "k=" << k << " m=" << m.to_hex() << " e=" << e.to_hex();
        for (const BigInt& b : ops) {  // includes a == b
          ctx.mul(ra, ctx.to_residue(b), r);
          EXPECT_EQ(ctx.from_residue(r), mod_mul(a, b, m)) << "k=" << k << " m=" << m.to_hex();
        }
      }
    }
  }
}

TEST(ModContextKernels, SelectionFollowsWidthAndCpu) {
  XoshiroRng rng(2122);
  for (std::size_t k = 1; k <= 33; ++k) {
    const ModContext ctx(kernel_moduli(k, rng)[0]);
    std::string want = "portable";
#if defined(__x86_64__)
    if (detail::cpu_has_bmi2() && is_fixed_width(k)) want = "mulx";
#endif
    EXPECT_EQ(ctx.kernel(), want) << "k=" << k;
  }
}

#if defined(__x86_64__)

// Calls the fixed K-limb kernels and the portable loops on the same raw
// Montgomery-domain inputs; both must write the same limbs.
template <std::size_t K>
void check_fixed_against_portable(Rng& rng) {
  using detail::Limb;
  for (const BigInt& m : kernel_moduli(K, rng)) {
    Limb n[K];
    m.copy_limbs_to(n, K);
    const Limb n0_inv = detail::neg_inv64(n[0]);
    std::vector<BigInt> ops = kernel_operands(m, rng);
    for (int i = 0; i < 40; ++i) ops.push_back(random_below(rng, m));
    Limb scratch[2 * K + 2];
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Limb a[K];
      ops[i].copy_limbs_to(a, K);
      Limb want[K];
      Limb got[K];
      detail::mont_sqr_portable(a, want, scratch, n, n0_inv, K);
      detail::mont_sqr_fixed<K>(a, got, scratch, n, n0_inv, K);
      EXPECT_EQ(std::memcmp(want, got, sizeof want), 0)
          << "sqr K=" << K << " m=" << m.to_hex() << " a=" << ops[i].to_hex();
      for (std::size_t j = 0; j < ops.size(); j += 1 + i % 3) {
        Limb b[K];
        ops[j].copy_limbs_to(b, K);
        detail::mont_mul_portable(a, b, want, scratch, n, n0_inv, K);
        detail::mont_mul_fixed<K>(a, b, got, scratch, n, n0_inv, K);
        EXPECT_EQ(std::memcmp(want, got, sizeof want), 0)
            << "mul K=" << K << " m=" << m.to_hex() << " a=" << ops[i].to_hex()
            << " b=" << ops[j].to_hex();
      }
    }
  }
}

TEST(ModContextKernels, FixedKernelsMatchPortable) {
  if (!detail::cpu_has_bmi2()) GTEST_SKIP() << "CPU lacks BMI2 (mulx)";
  XoshiroRng rng(2123);
  check_fixed_against_portable<3>(rng);
  check_fixed_against_portable<16>(rng);
}

#endif  // __x86_64__

}  // namespace
}  // namespace idgka::mpint
