#include "mpint/mod_context.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "mpint/mont_kernels.h"
#include "obs/trace.h"

namespace idgka::mpint {

namespace {

using detail::neg_inv64;
using detail::reduce_once;
using detail::u128;
using Limb = BigInt::Limb;

std::atomic<std::uint64_t> g_exps{0};
std::atomic<std::uint64_t> g_mod_muls{0};
std::atomic<std::uint64_t> g_mod_sqrs{0};
std::atomic<std::uint64_t> g_multi_exps{0};

// Shrink the window for short exponents so the 2^w-entry table pays for
// itself (thresholds follow the usual bits-per-window break-even points).
unsigned fit_window(unsigned w, std::size_t exp_bits) {
  const unsigned cap = exp_bits <= 23 ? 2 : exp_bits <= 79 ? 3 : exp_bits <= 239 ? 4 : w;
  return cap < w ? cap : w;
}

// ------------------------------------------------------------------ arena
//
// Thread-local bump allocator backing every Montgomery working set: window
// tables, kernel scratch, conversion temporaries. The pool is one fixed block
// allocated at first use per thread; frames mark/release a watermark, so a
// steady-state exponentiation — any nesting of exp/mul/sqr/comb walks —
// performs zero heap allocations. A frame that overflows the pool (only the
// widest Pippenger bucket sets) falls back to individually heap-allocated
// blocks released with the frame. Pool storage never moves, so pointers
// handed out by an outer frame stay valid across nested frames.

constexpr std::size_t kPoolLimbs = 16384;  // 128 KiB per thread

class LimbArena {
 public:
  Limb* alloc(std::size_t n) {
    // Once per thread, left uninitialized: only pages a frame actually
    // touches become resident.
    if (!pool_) pool_ = std::make_unique_for_overwrite<Limb[]>(kPoolLimbs);
    if (top_ + n <= kPoolLimbs) {
      Limb* p = pool_.get() + top_;
      top_ += n;
      return p;
    }
    overflow_.push_back(std::make_unique<Limb[]>(n));
    return overflow_.back().get();
  }

 private:
  friend class ArenaFrame;
  std::unique_ptr<Limb[]> pool_;  // kPoolLimbs, never reallocated: stable pointers
  std::size_t top_ = 0;
  std::vector<std::unique_ptr<Limb[]>> overflow_;
};

/// RAII watermark over the thread arena; everything alloc()ed through the
/// frame is released at scope exit. Buffers are NOT zero-initialized.
class ArenaFrame {
 public:
  explicit ArenaFrame(LimbArena& a)
      : arena_(a), top_(a.top_), overflow_(a.overflow_.size()) {}
  ~ArenaFrame() {
    arena_.top_ = top_;
    arena_.overflow_.resize(overflow_);
  }
  ArenaFrame(const ArenaFrame&) = delete;
  ArenaFrame& operator=(const ArenaFrame&) = delete;

  Limb* alloc(std::size_t n) { return arena_.alloc(n); }

 private:
  LimbArena& arena_;
  std::size_t top_;
  std::size_t overflow_;
};

LimbArena& tls_arena() {
  static thread_local LimbArena arena;
  return arena;
}

void check_residue(const ModContext& ctx, const Residue& r) {
  if (r.size() != ctx.limb_count()) {
    throw std::invalid_argument("ModContext: residue sized for another context");
  }
}

}  // namespace

OpCounts op_counts() {
  return OpCounts{g_exps.load(std::memory_order_relaxed),
                  g_mod_muls.load(std::memory_order_relaxed),
                  g_mod_sqrs.load(std::memory_order_relaxed),
                  g_multi_exps.load(std::memory_order_relaxed)};
}

#if IDGKA_OBS
namespace {
/// Surfaces the crypto op counters in obs::Registry snapshots as probes —
/// read lazily at snapshot time, zero cost on the arithmetic hot path.
const bool g_crypto_probes = [] {
  obs::Registry::global().register_probe(
      "crypto.exps", [] { return g_exps.load(std::memory_order_relaxed); });
  obs::Registry::global().register_probe(
      "crypto.mod_muls", [] { return g_mod_muls.load(std::memory_order_relaxed); });
  obs::Registry::global().register_probe(
      "crypto.mod_sqrs", [] { return g_mod_sqrs.load(std::memory_order_relaxed); });
  obs::Registry::global().register_probe(
      "crypto.multi_exps", [] { return g_multi_exps.load(std::memory_order_relaxed); });
  return true;
}();
}  // namespace
#endif

Residue::Residue(const ModContext& ctx) { resize(ctx.limb_count()); }

void ModContext::fold(const Ops& ops) const {
  if (ops.muls != 0) g_mod_muls.fetch_add(ops.muls, std::memory_order_relaxed);
  if (ops.sqrs != 0) g_mod_sqrs.fetch_add(ops.sqrs, std::memory_order_relaxed);
}

ModContext::ModContext(BigInt modulus) : n_(std::move(modulus)) {
  if (n_ <= BigInt{1} || n_.is_even()) {
    throw std::invalid_argument("ModContext: modulus must be odd and > 1");
  }
  window_ = n_.bit_length() >= 512 ? 5 : 4;
  n_limbs_ = n_.limbs();
  k_ = n_limbs_.size();
  n0_inv_ = neg_inv64(n_limbs_[0]);
  kernels_ = select_kernels(k_);
  rr_limbs_ = (BigInt{1} << (2 * 64 * k_)).mod(n_).limbs();
  rr_limbs_.resize(k_, 0);
  // one_mont_ = 1 * R mod n.
  one_mont_.assign(k_, 0);
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  Limb* one = frame.alloc(k_);
  std::memset(one, 0, k_ * sizeof(Limb));
  one[0] = 1;
  mont_mul_raw(one, rr_limbs_.data(), one_mont_.data(), scratch);
}

// ------------------------------------------------------------ raw kernels

// The fixed-width mulx kernels for the widths the benchmarked workloads run
// (kTiny 3, kPaper 16) when the CPU has BMI2; the portable loops for every
// other width and host.
ModContext::Kernels ModContext::select_kernels(std::size_t k) {
#if defined(__x86_64__)
  if (detail::cpu_has_bmi2()) {
    switch (k) {
      case 3: return {detail::mont_mul_fixed<3>, detail::mont_sqr_fixed<3>, "mulx"};
      case 16: return {detail::mont_mul_fixed<16>, detail::mont_sqr_fixed<16>, "mulx"};
      default: break;
    }
  }
#endif
  return {detail::mont_mul_portable, detail::mont_sqr_portable, "portable"};
}

void ModContext::mont_mul_raw(const Limb* a, const Limb* b, Limb* out,
                              Limb* scratch) const {
  kernels_.mul(a, b, out, scratch, n_limbs_.data(), n0_inv_, k_);
}

void ModContext::mont_sqr_raw(const Limb* a, Limb* out, Limb* scratch) const {
  kernels_.sqr(a, out, scratch, n_limbs_.data(), n0_inv_, k_);
}

void ModContext::load_canonical(const BigInt& a, Limb* out) const {
  // Operands are usually already in [0, n); skip the division then.
  if (!a.negative() && a < n_) {
    a.copy_limbs_to(out, k_);
  } else {
    a.mod(n_).copy_limbs_to(out, k_);
  }
}

void ModContext::to_mont_raw(const BigInt& a, Limb* out, Limb* scratch, Ops& ops) const {
  ArenaFrame frame(tls_arena());
  Limb* tmp = frame.alloc(k_);
  load_canonical(a, tmp);
  ++ops.muls;
  mont_mul_raw(tmp, rr_limbs_.data(), out, scratch);
}

BigInt ModContext::from_mont_raw(const Limb* a, Limb* scratch, Ops& ops) const {
  ArenaFrame frame(tls_arena());
  Limb* one = frame.alloc(k_);
  std::memset(one, 0, k_ * sizeof(Limb));
  one[0] = 1;
  Limb* res = frame.alloc(k_);
  ++ops.muls;
  mont_mul_raw(a, one, res, scratch);
  return BigInt::from_limbs(res, k_);
}

// ------------------------------------------------------- exponentiation

void ModContext::exp_mont_raw(const Limb* base, const BigInt& e, Limb* out,
                              Ops& ops) const {
  const std::size_t bits = e.bit_length();
  if (bits == 0) {
    std::memcpy(out, one_mont_.data(), k_ * sizeof(Limb));
    return;
  }

  // Sliding-window exponentiation over odd powers only: the table holds
  // base^1, base^3, ..., base^(2^w - 1), which halves the precompute cost
  // versus a full 2^w table, and windows are anchored on set bits so runs
  // of zeros cost squarings alone. `out` may alias `base`: the base is
  // copied into the table before the accumulator is first written.
  const unsigned w = fit_window(window_, bits);
  const std::size_t tsize = std::size_t{1} << (w - 1);
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  Limb* odd = frame.alloc(tsize * k_);  // odd + j*k_ holds base^(2j+1)
  std::memcpy(odd, base, k_ * sizeof(Limb));
  if (tsize > 1) {
    Limb* sq = frame.alloc(k_);
    ++ops.sqrs;
    mont_sqr_raw(odd, sq, scratch);
    for (std::size_t j = 1; j < tsize; ++j) {
      ++ops.muls;
      mont_mul_raw(odd + (j - 1) * k_, sq, odd + j * k_, scratch);
    }
  }

  Limb* acc = out;
  bool started = false;
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!e.bit(static_cast<std::size_t>(i))) {
      ++ops.sqrs;
      mont_sqr_raw(acc, acc, scratch);
      --i;
      continue;
    }
    // Longest window of at most w bits ending on a set bit: [j, i].
    std::ptrdiff_t j = i - static_cast<std::ptrdiff_t>(w) + 1;
    if (j < 0) j = 0;
    while (!e.bit(static_cast<std::size_t>(j))) ++j;
    std::size_t digit = 0;
    for (std::ptrdiff_t b = i; b >= j; --b) {
      digit = (digit << 1) | (e.bit(static_cast<std::size_t>(b)) ? 1U : 0U);
    }
    if (started) {
      for (std::ptrdiff_t b = i; b >= j; --b) {
        ++ops.sqrs;
        mont_sqr_raw(acc, acc, scratch);
      }
      ++ops.muls;
      mont_mul_raw(acc, odd + (digit >> 1) * k_, acc, scratch);
    } else {
      std::memcpy(acc, odd + (digit >> 1) * k_, k_ * sizeof(Limb));
      started = true;
    }
    i = j - 1;
  }
}

BigInt ModContext::exp_any(const BigInt& base, const BigInt& e, Ops& ops) const {
  if (e.negative()) return exp_any(mod_inverse(base, n_), -e, ops);
  if (e.bit_length() == 0) return BigInt{1};
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  Limb* acc = frame.alloc(k_);
  to_mont_raw(base, acc, scratch, ops);
  exp_mont_raw(acc, e, acc, ops);
  return from_mont_raw(acc, scratch, ops);
}

BigInt ModContext::exp(const BigInt& base, const BigInt& e) const {
  Ops ops;
  BigInt r = exp_any(base, e, ops);
  g_exps.fetch_add(1, std::memory_order_relaxed);
  fold(ops);
  return r;
}

BigInt ModContext::mul(const BigInt& a, const BigInt& b) const {
  Ops ops;
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  Limb* am = frame.alloc(k_);
  Limb* bm = frame.alloc(k_);
  to_mont_raw(a, am, scratch, ops);
  to_mont_raw(b, bm, scratch, ops);
  ++ops.muls;
  mont_mul_raw(am, bm, am, scratch);
  BigInt r = from_mont_raw(am, scratch, ops);
  fold(ops);
  return r;
}

BigInt ModContext::inv(const BigInt& a) const { return mod_inverse(a, n_); }

// ---------------------------------------------------- multi-exponentiation

namespace {

// Bits [pos, pos + w) of |e| as a window digit.
std::size_t exp_digit(const BigInt& e, std::size_t pos, unsigned w) {
  std::size_t digit = 0;
  for (unsigned b = 0; b < w; ++b) {
    if (e.bit(pos + b)) digit |= std::size_t{1} << b;
  }
  return digit;
}

std::size_t max_exp_bits(std::span<const BigInt* const> exps) {
  std::size_t bits = 0;
  for (const BigInt* e : exps) bits = std::max(bits, e->bit_length());
  return bits;
}

}  // namespace

// Shamir/Straus interleaved joint exponentiation: one shared squaring chain
// over the widest exponent, with a per-base window table. Per window
// position: w squarings plus at most one table multiply per base.
void ModContext::straus_mont(std::span<const Residue* const> bases,
                             std::span<const BigInt* const> exps, Limb* out,
                             Ops& ops) const {
  const std::size_t arity = bases.size();
  if (arity == 1) {
    exp_mont_raw(bases[0]->limbs(), *exps[0], out, ops);
    return;
  }
  const std::size_t bits = max_exp_bits(exps);
  const unsigned w = fit_window(window_, bits);
  const std::size_t windows = (bits + w - 1) / w;

  // tables[t] + j*k_ = base_t^j (j >= 1) in the Montgomery domain, built
  // lazily up to the largest window digit that exponent actually produces —
  // a term with a short or sparse exponent pays only for the powers it uses.
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  std::vector<Limb*> tables(arity, nullptr);
  for (std::size_t t = 0; t < arity; ++t) {
    std::size_t max_digit = 0;
    for (std::size_t win = 0; win < windows; ++win) {
      max_digit = std::max(max_digit, exp_digit(*exps[t], win * w, w));
    }
    if (max_digit == 0) continue;
    Limb* table = frame.alloc((max_digit + 1) * k_);
    tables[t] = table;
    std::memcpy(table + k_, bases[t]->limbs(), k_ * sizeof(Limb));
    for (std::size_t j = 2; j <= max_digit; ++j) {
      ++ops.muls;
      mont_mul_raw(table + (j - 1) * k_, table + k_, table + j * k_, scratch);
    }
  }

  bool started = false;
  for (std::size_t win = windows; win-- > 0;) {
    if (started) {
      for (unsigned s = 0; s < w; ++s) {
        ++ops.sqrs;
        mont_sqr_raw(out, out, scratch);
      }
    }
    for (std::size_t t = 0; t < arity; ++t) {
      const std::size_t digit = exp_digit(*exps[t], win * w, w);
      if (digit == 0) continue;
      if (started) {
        ++ops.muls;
        mont_mul_raw(out, tables[t] + digit * k_, out, scratch);
      } else {
        std::memcpy(out, tables[t] + digit * k_, k_ * sizeof(Limb));
        started = true;
      }
    }
  }
  if (!started) std::memcpy(out, one_mont_.data(), k_ * sizeof(Limb));
}

// Pippenger bucket aggregation for wide products: per c-bit window, each
// base lands in the bucket of its digit, and the window sum
// prod_j bucket[j]^j falls out of one suffix-product sweep — per-window
// cost is O(n + 2^c) multiplies instead of O(n * c) squarings.
void ModContext::pippenger_mont(std::span<const Residue* const> bases,
                                std::span<const BigInt* const> exps, Limb* out,
                                Ops& ops) const {
  const std::size_t n = bases.size();
  const std::size_t bits = max_exp_bits(exps);

  // Window width by direct cost argmin. Per window: ~n bucket fills, up to
  // min(n, buckets) running-product multiplies, and — because the suffix
  // sweep must touch every index below the highest occupied bucket — up to
  // `buckets` window-sum multiplies.
  unsigned c = 1;
  std::uint64_t best_cost = ~0ULL;
  for (unsigned cand = 1; cand <= 16 && (std::size_t{1} << cand) <= 4 * n + 4; ++cand) {
    const std::uint64_t windows = (bits + cand - 1) / cand;
    const std::uint64_t buckets = (std::size_t{1} << cand) - 1;
    const std::uint64_t cost =
        windows * (n + std::min<std::uint64_t>(n, buckets) + buckets);
    if (cost < best_cost) {
      best_cost = cost;
      c = cand;
    }
  }

  const std::size_t windows = (bits + c - 1) / c;
  const std::size_t nbuckets = std::size_t{1} << c;
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  Limb* bucket = frame.alloc(nbuckets * k_);
  Limb* occupied = frame.alloc(nbuckets);  // 0/1 flags, limb-sized for arena reuse
  Limb* running = frame.alloc(k_);
  Limb* wsum = frame.alloc(k_);
  bool started = false;
  for (std::size_t win = windows; win-- > 0;) {
    if (started) {
      for (unsigned s = 0; s < c; ++s) {
        ++ops.sqrs;
        mont_sqr_raw(out, out, scratch);
      }
    }
    std::memset(occupied, 0, nbuckets * sizeof(Limb));
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t digit = exp_digit(*exps[t], win * c, c);
      if (digit == 0) continue;
      Limb* slot = bucket + digit * k_;
      if (occupied[digit] == 0) {
        std::memcpy(slot, bases[t]->limbs(), k_ * sizeof(Limb));
        occupied[digit] = 1;
      } else {
        ++ops.muls;
        mont_mul_raw(slot, bases[t]->limbs(), slot, scratch);
      }
    }
    // prod_j bucket[j]^j == prod of running suffix products.
    bool have_running = false;
    bool have_wsum = false;
    for (std::size_t j = nbuckets; j-- > 1;) {
      if (occupied[j] != 0) {
        if (!have_running) {
          std::memcpy(running, bucket + j * k_, k_ * sizeof(Limb));
          have_running = true;
        } else {
          ++ops.muls;
          mont_mul_raw(running, bucket + j * k_, running, scratch);
        }
      }
      if (!have_running) continue;
      if (!have_wsum) {
        std::memcpy(wsum, running, k_ * sizeof(Limb));
        have_wsum = true;
      } else {
        ++ops.muls;
        mont_mul_raw(wsum, running, wsum, scratch);
      }
    }
    if (!have_wsum) continue;
    if (started) {
      ++ops.muls;
      mont_mul_raw(out, wsum, out, scratch);
    } else {
      std::memcpy(out, wsum, k_ * sizeof(Limb));
      started = true;
    }
  }
  if (!started) std::memcpy(out, one_mont_.data(), k_ * sizeof(Limb));
}

BigInt ModContext::multi_exp(std::span<const BigInt> bases, std::span<const BigInt> exps) const {
  if (bases.size() != exps.size()) {
    throw std::invalid_argument("ModContext::multi_exp: bases/exps size mismatch");
  }
  Ops ops;
  // Terms with negative exponents swap in the inverted base; zero
  // exponents drop out. Everything else is partitioned by exponent width:
  // narrow exponents (<= 64 bits) and wide ones run as separate joint
  // products so a batch of small scalars never pays wide-ladder squarings.
  std::vector<BigInt> inverted;
  inverted.reserve(bases.size());
  std::vector<Residue> mont_bases(bases.size());
  std::vector<const Residue*> narrow_b, wide_b;
  std::vector<const BigInt*> narrow_e, wide_e;
  constexpr std::size_t kNarrowBits = 64;
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (exps[i].is_zero()) continue;
    const BigInt* e = &exps[i];
    mont_bases[i].resize(k_);
    if (e->negative()) {
      inverted.push_back(-exps[i]);
      to_mont_raw(mod_inverse(bases[i], n_), mont_bases[i].limbs(), scratch, ops);
      e = &inverted.back();
    } else {
      to_mont_raw(bases[i], mont_bases[i].limbs(), scratch, ops);
    }
    if (e->bit_length() <= kNarrowBits) {
      narrow_b.push_back(&mont_bases[i]);
      narrow_e.push_back(e);
    } else {
      wide_b.push_back(&mont_bases[i]);
      wide_e.push_back(e);
    }
  }
  Limb* acc = frame.alloc(k_);
  Limb* part = frame.alloc(k_);
  bool have = false;
  for (const bool narrow : {true, false}) {
    const auto& b = narrow ? narrow_b : wide_b;
    const auto& e = narrow ? narrow_e : wide_e;
    if (b.empty()) continue;
    if (b.size() <= 8) {
      straus_mont(b, e, part, ops);
    } else {
      pippenger_mont(b, e, part, ops);
    }
    if (have) {
      ++ops.muls;
      mont_mul_raw(acc, part, acc, scratch);
    } else {
      std::memcpy(acc, part, k_ * sizeof(Limb));
      have = true;
    }
  }
  if (!have) std::memcpy(acc, one_mont_.data(), k_ * sizeof(Limb));
  const BigInt r = from_mont_raw(acc, scratch, ops);
  g_multi_exps.fetch_add(1, std::memory_order_relaxed);
  fold(ops);
  return r;
}

BigInt ModContext::product(std::span<const BigInt> values) const {
  if (values.empty()) return BigInt{1};
  // Conversion-free Montgomery chain: mont_mul over canonical residues
  // accumulates an R^{-(k-1)} deficit across k factors, cancelled by a
  // single multiply with R^k (i.e. the Montgomery form of R^{k-1}) — so a
  // k-term product costs k + O(log k) multiplies, not 2k.
  Ops ops;
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  Limb* acc = frame.alloc(k_);
  Limb* tmp = frame.alloc(k_);
  load_canonical(values[0], acc);
  for (std::size_t i = 1; i < values.size(); ++i) {
    load_canonical(values[i], tmp);
    ++ops.muls;
    mont_mul_raw(acc, tmp, acc, scratch);
  }
  const std::uint64_t deficit = values.size() - 1;
  if (deficit > 0) {
    Limb* fix = frame.alloc(k_);
    exp_mont_raw(rr_limbs_.data(), BigInt{deficit}, fix, ops);
    ++ops.muls;
    mont_mul_raw(acc, fix, acc, scratch);
  }
  fold(ops);
  return BigInt::from_limbs(acc, k_);
}

// ------------------------------------------------------- fixed-base comb

void ModContext::exp_comb_raw(const FixedBaseTable& table, const BigInt& e, Limb* out,
                              Ops& ops) const {
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  const std::size_t d = table.block_;
  bool started = false;
  for (std::size_t pos = d; pos-- > 0;) {
    if (started) {
      ++ops.sqrs;
      mont_sqr_raw(out, out, scratch);
    }
    std::size_t digit = 0;
    for (unsigned tooth = 0; tooth < FixedBaseTable::kTeeth; ++tooth) {
      if (e.bit(tooth * d + pos)) digit |= std::size_t{1} << tooth;
    }
    if (digit != 0) {
      if (started) {
        ++ops.muls;
        mont_mul_raw(out, table.entry(digit), out, scratch);
      } else {
        std::memcpy(out, table.entry(digit), k_ * sizeof(Limb));
        started = true;
      }
    }
  }
  if (!started) std::memcpy(out, one_mont_.data(), k_ * sizeof(Limb));  // e == 0
}

BigInt ModContext::exp_comb(const FixedBaseTable& table, const BigInt& e,
                            Ops& ops) const {
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  Limb* acc = frame.alloc(k_);
  exp_comb_raw(table, e, acc, ops);
  return from_mont_raw(acc, scratch, ops);
}

BigInt ModContext::exp(const FixedBaseTable& table, const BigInt& e) const {
  if (table.mod_fingerprint_ != n_.limbs()) {
    throw std::invalid_argument("ModContext::exp: fixed-base table from another modulus");
  }
  Ops ops;
  BigInt r;
  if (!e.negative() && e.bit_length() <= table.bits_) {
    r = exp_comb(table, e, ops);
  } else {
    r = exp_any(table.base_, e, ops);
  }
  g_exps.fetch_add(1, std::memory_order_relaxed);
  fold(ops);
  return r;
}

FixedBaseTable ModContext::make_fixed_base(const BigInt& base,
                                           std::size_t max_exp_bits) const {
  FixedBaseTable t;
  t.base_ = base.mod(n_);
  t.mod_fingerprint_ = n_.limbs();
  t.bits_ = max_exp_bits == 0 ? 1 : max_exp_bits;
  constexpr unsigned h = FixedBaseTable::kTeeth;
  t.block_ = (t.bits_ + h - 1) / h;
  t.stride_ = k_;

  Ops ops;
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  // P[i] = base^(2^(i*d)) in Montgomery form.
  Limb* p = frame.alloc(h * k_);
  to_mont_raw(t.base_, p, scratch, ops);
  for (unsigned i = 1; i < h; ++i) {
    Limb* pi = p + i * k_;
    std::memcpy(pi, p + (i - 1) * k_, k_ * sizeof(Limb));
    for (std::size_t s = 0; s < t.block_; ++s) {
      ++ops.sqrs;
      mont_sqr_raw(pi, pi, scratch);
    }
  }
  // T[j] = prod over set bits i of j: P[i]; filled via lowest-set-bit split.
  t.table_.assign((std::size_t{1} << h) * k_, 0);
  Limb* tab = t.table_.data();
  std::memcpy(tab, one_mont_.data(), k_ * sizeof(Limb));
  for (std::size_t j = 1; j < (std::size_t{1} << h); ++j) {
    unsigned low = 0;
    while (((j >> low) & 1U) == 0) ++low;
    const std::size_t rest = j & (j - 1);
    if (rest == 0) {
      std::memcpy(tab + j * k_, p + low * k_, k_ * sizeof(Limb));
    } else {
      ++ops.muls;
      mont_mul_raw(tab + rest * k_, p + low * k_, tab + j * k_, scratch);
    }
  }
  fold(ops);
  return t;
}

// ----------------------------------------------------------- residue API

Residue ModContext::to_residue(const BigInt& a) const {
  Residue r;
  r.resize(k_);
  Ops ops;
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  to_mont_raw(a, r.limbs(), scratch, ops);
  fold(ops);
  return r;
}

BigInt ModContext::from_residue(const Residue& r) const {
  check_residue(*this, r);
  Ops ops;
  ArenaFrame frame(tls_arena());
  Limb* scratch = frame.alloc(2 * k_ + 2);
  BigInt out = from_mont_raw(r.limbs(), scratch, ops);
  fold(ops);
  return out;
}

Residue ModContext::one_residue() const {
  Residue r;
  r.assign(one_mont_.data(), k_);
  return r;
}

void ModContext::add(const Residue& a, const Residue& b, Residue& out) const {
  check_residue(*this, a);
  check_residue(*this, b);
  // The Montgomery form is linear: a*R + b*R = (a + b)*R.
  const std::size_t k = k_;
  const Limb* n = n_limbs_.data();
  if (out.size() != k) out.resize(k);
  const Limb* pa = a.limbs();
  const Limb* pb = b.limbs();
  Limb* po = out.limbs();
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(pa[i]) + pb[i] + carry;
    po[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
  // Operands are < n, so the sum is < 2n: reduce_once settles it (and is
  // safe with t == out — it decides before it writes).
  reduce_once(po, carry, n, k, po);
}

void ModContext::sub(const Residue& a, const Residue& b, Residue& out) const {
  check_residue(*this, a);
  check_residue(*this, b);
  const std::size_t k = k_;
  const Limb* n = n_limbs_.data();
  if (out.size() != k) out.resize(k);
  const Limb* pa = a.limbs();
  const Limb* pb = b.limbs();
  Limb* po = out.limbs();
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ai = pa[i];
    const Limb bi = pb[i];
    po[i] = ai - bi - borrow;
    borrow = (ai < bi || (ai == bi && borrow != 0)) ? 1 : 0;
  }
  if (borrow != 0) {  // a < b: wrap back into [0, n) by adding the modulus
    Limb carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 s = static_cast<u128>(po[i]) + n[i] + carry;
      po[i] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
  }
}

void ModContext::mul(const Residue& a, const Residue& b, Residue& out) const {
  check_residue(*this, a);
  check_residue(*this, b);
  Ops ops;
  if (out.size() != k_) out.resize(k_);
  ++ops.muls;
  // Single-kernel call: a small stack buffer beats even the bump arena (no
  // TLS access, no frame bookkeeping) for inline-width moduli.
  if (k_ <= Residue::kInlineLimbs) {
    Limb scratch[2 * Residue::kInlineLimbs + 2];
    mont_mul_raw(a.limbs(), b.limbs(), out.limbs(), scratch);
  } else {
    ArenaFrame frame(tls_arena());
    mont_mul_raw(a.limbs(), b.limbs(), out.limbs(), frame.alloc(2 * k_ + 2));
  }
  fold(ops);
}

void ModContext::sqr(const Residue& a, Residue& out) const {
  check_residue(*this, a);
  Ops ops;
  if (out.size() != k_) out.resize(k_);
  ++ops.sqrs;
  if (k_ <= Residue::kInlineLimbs) {
    Limb scratch[2 * Residue::kInlineLimbs + 2];
    mont_sqr_raw(a.limbs(), out.limbs(), scratch);
  } else {
    ArenaFrame frame(tls_arena());
    mont_sqr_raw(a.limbs(), out.limbs(), frame.alloc(2 * k_ + 2));
  }
  fold(ops);
}

void ModContext::exp(const Residue& base, const BigInt& e, Residue& out) const {
  check_residue(*this, base);
  Ops ops;
  if (out.size() != k_) out.resize(k_);
  if (!e.negative()) {
    exp_mont_raw(base.limbs(), e, out.limbs(), ops);
  } else {
    // Negative exponent: round-trip through BigInt inversion.
    ArenaFrame frame(tls_arena());
    Limb* scratch = frame.alloc(2 * k_ + 2);
    const BigInt r = exp_any(from_mont_raw(base.limbs(), scratch, ops), e, ops);
    to_mont_raw(r, out.limbs(), scratch, ops);
  }
  g_exps.fetch_add(1, std::memory_order_relaxed);
  fold(ops);
}

// ------------------------------------------------------------- utilities

bool sqrt_mod_p3(const ModContext& ctx, const BigInt& a, BigInt& out) {
  const BigInt& p = ctx.modulus();
  if ((p.low_u64() & 3U) != 3U) {
    throw std::domain_error("sqrt_mod_p3: requires p % 4 == 3");
  }
  const BigInt candidate = ctx.exp(a.mod(p), (p + BigInt{1}) >> 2);
  if (ctx.mul(candidate, candidate) != a.mod(p)) return false;
  out = candidate;
  return true;
}

}  // namespace idgka::mpint
