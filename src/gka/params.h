// System parameters and the trust authority (PKG + certificate authority).
//
// The paper's Setup: a PKG generates the GQ modulus (n = p'q', e, d) and the
// key-agreement group (1024-bit p, 160-bit q | p-1, generator g). That is all
// an `Authority` builds up front, and `enroll(id)` issues only the GQ
// credential (S_U plus the public identity verifiers check it against).
//
// The baselines' machinery — SOK pairing parameters and master key, DSA
// parameters and CA, the ECDSA CA — is built on first use, each from its own
// DRBG substream derived from (seed, scheme label), and `enroll(id, scheme)`
// adds only that scheme's part. So the proposed scheme never pays for the
// baselines, and no scheme's keys depend on which other schemes ran.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "ec/curve.h"
#include "mpint/mod_context.h"
#include "mpint/prime.h"
#include "pairing/tate.h"
#include "pki/certificate.h"
#include "sig/dsa.h"
#include "sig/ecdsa.h"
#include "sig/gq.h"
#include "sig/sok.h"

namespace idgka::gka {

using mpint::BigInt;

/// Parameter size profiles.
enum class SecurityProfile {
  kPaper,  ///< the paper's sizes: |p| = 1024, |q| = 160, |n| = 1024
  kTest,   ///< fast CI sizes: |p| = 256, |q| = 160, |n| = 256
  kTiny,   ///< property-sweep sizes: |p| = 192, |q| = 128, |n| = 192
};

/// Size triple for a profile: (|p|, |q|, |n|) bits.
struct ProfileSizes {
  std::size_t p_bits;
  std::size_t q_bits;
  std::size_t gq_bits;
  std::size_t ss_p_bits;
  std::size_t ss_q_bits;
};
[[nodiscard]] ProfileSizes profile_sizes(SecurityProfile profile);

/// Modular-arithmetic view of the (p, q, g) key-agreement group, threaded
/// down into the ring computations (gka::bd) so they never re-derive
/// per-modulus state or re-exponentiate the generator from scratch.
struct GroupCtx {
  const mpint::ModContext& p;       ///< mod-p context
  const BigInt& q;                  ///< exponent group order
  const mpint::FixedBaseTable& g;   ///< comb table for the generator

  /// Fixed-base g^e mod p through the comb table.
  [[nodiscard]] BigInt gpow(const BigInt& e) const { return p.exp(g, e); }
};

/// Shared public parameters for the key-agreement group and GQ signatures.
struct SystemParams {
  mpint::SchnorrGroup grp;  ///< (p, q, g) — BD exponentiation group
  sig::GqParams gq;         ///< (n, e) — GQ verification parameters
  SecurityProfile profile = SecurityProfile::kTest;

  /// Cached modular context for mod-p arithmetic (shared, immutable).
  std::shared_ptr<const mpint::ModContext> ctx_p;
  /// Cached modular context for mod-n arithmetic.
  std::shared_ptr<const mpint::ModContext> ctx_n;
  /// Fixed-base comb table for the group generator g (exponents mod q).
  std::shared_ptr<const mpint::FixedBaseTable> g_comb;
  /// SSN authenticator base h in Z_n^* (pure function of the GQ params) and
  /// its comb table (exponents up to |n| bits).
  BigInt h_ssn;
  std::shared_ptr<const mpint::FixedBaseTable> h_comb;

  /// g^e mod p through the cached comb table — the protocols' hottest call.
  [[nodiscard]] BigInt gpow(const BigInt& e) const { return ctx_p->exp(*g_comb, e); }
  /// h^e mod n through the cached comb table (SSN authenticators).
  [[nodiscard]] BigInt hpow(const BigInt& e) const { return ctx_n->exp(*h_comb, e); }
  /// The ring-computation view handed to gka::bd.
  [[nodiscard]] GroupCtx group() const { return GroupCtx{*ctx_p, grp.q, *g_comb}; }

  [[nodiscard]] std::size_t element_bits() const { return grp.p.bit_length(); }
  [[nodiscard]] std::size_t gq_t_bits() const { return gq.n.bit_length(); }
  [[nodiscard]] std::size_t gq_s_bits() const { return gq.n.bit_length(); }
};

/// Protocol variant (the five columns of Table 1).
enum class Scheme { kProposed, kBdSok, kBdEcdsa, kBdDsa, kSsn };

/// Per-member credentials. The GQ part is always issued; each baseline part
/// is filled only by `Authority::enroll(id, scheme)` for that scheme.
struct MemberCredentials {
  std::uint32_t id = 0;
  // Proposed scheme and SSN (GQ ID-based).
  BigInt gq_secret;              ///< S_U = H(U)^d mod n
  sig::GqIdentity gq_identity;   ///< U, H(U), H(U)^{-1}: what verifiers check
  // SOK baseline.
  ec::Point sok_secret;  ///< S_ID = s * MapToPoint(ID)
  // Certificate-based baselines.
  sig::DsaKeyPair dsa_key;
  pki::Certificate dsa_cert;
  sig::EcdsaKeyPair ecdsa_key;
  pki::Certificate ecdsa_cert;
};

/// The trusted authority: GQ PKG, plus the SOK PKG and DSA/ECDSA CAs built
/// on first use.
///
/// Deterministic under (profile, seed); a fixed seed reproduces identical
/// parameters and credentials, which the tests and benches rely on. The
/// baseline accessors are safe to call concurrently; enrollment is not.
class Authority {
 public:
  Authority(SecurityProfile profile, std::uint64_t seed);
  ~Authority();
  Authority(const Authority&) = delete;
  Authority& operator=(const Authority&) = delete;

  [[nodiscard]] const SystemParams& params() const { return params_; }

  // SOK baseline (built on first use).
  [[nodiscard]] const pairing::SsGroup& ss_group() const;
  [[nodiscard]] const pairing::TatePairing& tate() const;
  [[nodiscard]] const ec::Point& sok_public_key() const;
  // DSA baseline (built on first use).
  [[nodiscard]] const sig::DsaParams& dsa_params() const;
  /// Cached mod-p context for the DSA baseline parameters.
  [[nodiscard]] const mpint::ModContext& dsa_ctx() const;
  [[nodiscard]] const pki::CertificateAuthority& dsa_ca() const;
  // ECDSA baseline (built on first use).
  [[nodiscard]] const ec::Curve& curve() const { return ec::secp160r1(); }
  [[nodiscard]] const pki::CertificateAuthority& ecdsa_ca() const;

  /// The paper's Extract: the member's GQ secret and public identity.
  [[nodiscard]] MemberCredentials enroll(std::uint32_t id);
  /// enroll(id) plus the credential part `scheme` authenticates with
  /// (nothing more for kProposed and kSsn).
  [[nodiscard]] MemberCredentials enroll(std::uint32_t id, Scheme scheme);

 private:
  struct SokBaseline;
  struct DsaBaseline;
  struct EcdsaBaseline;
  SokBaseline& sok() const;
  DsaBaseline& dsa() const;
  EcdsaBaseline& ecdsa() const;

  std::uint64_t seed_;
  ProfileSizes sizes_;
  int mr_rounds_;
  SystemParams params_;
  std::unique_ptr<sig::GqPkg> gq_pkg_;
  mutable std::once_flag sok_once_;
  mutable std::once_flag dsa_once_;
  mutable std::once_flag ecdsa_once_;
  mutable std::unique_ptr<SokBaseline> sok_;
  mutable std::unique_ptr<DsaBaseline> dsa_;
  mutable std::unique_ptr<EcdsaBaseline> ecdsa_;
};

}  // namespace idgka::gka
