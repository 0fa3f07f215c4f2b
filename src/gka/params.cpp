#include "gka/params.h"

#include "hash/hmac_drbg.h"

namespace idgka::gka {

ProfileSizes profile_sizes(SecurityProfile profile) {
  switch (profile) {
    case SecurityProfile::kPaper:
      return ProfileSizes{1024, 160, 1024, 512, 160};
    case SecurityProfile::kTest:
      return ProfileSizes{256, 160, 256, 256, 120};
    case SecurityProfile::kTiny:
      return ProfileSizes{192, 128, 192, 192, 96};
  }
  return ProfileSizes{256, 160, 256, 256, 120};
}

// Each baseline owns a DRBG substream derived from (seed, scheme label): it
// seeds the baseline's parameters and keys here and every later enrollment
// for that scheme, so no stream depends on which other schemes ran.
struct Authority::SokBaseline {
  hash::HmacDrbg rng;
  pairing::SsGroup group;
  pairing::TatePairing tate;
  sig::SokPkg pkg;

  SokBaseline(std::uint64_t seed, const ProfileSizes& sizes, int mr)
      : rng(seed, "idgka-authority|sok"),
        group(mpint::generate_supersingular_params(rng, sizes.ss_p_bits, sizes.ss_q_bits, mr)),
        tate(group),
        pkg(group, rng) {}
};

struct Authority::DsaBaseline {
  hash::HmacDrbg rng;
  sig::DsaParams params;
  std::shared_ptr<const mpint::ModContext> ctx;
  pki::CertificateAuthority ca;

  DsaBaseline(std::uint64_t seed, const ProfileSizes& sizes, int mr)
      : rng(seed, "idgka-authority|dsa"),
        params(sig::dsa_generate_params(rng, sizes.p_bits, sizes.q_bits, mr)),
        ctx(std::make_shared<const mpint::ModContext>(params.p)),
        ca(params, ctx, rng) {}
};

struct Authority::EcdsaBaseline {
  hash::HmacDrbg rng;
  pki::CertificateAuthority ca;

  explicit EcdsaBaseline(std::uint64_t seed)
      : rng(seed, "idgka-authority|ecdsa"), ca(ec::secp160r1(), rng) {}
};

Authority::Authority(SecurityProfile profile, std::uint64_t seed)
    : seed_(seed),
      sizes_(profile_sizes(profile)),
      mr_rounds_(profile == SecurityProfile::kPaper ? 32 : 16) {
  // The paper's Setup only. Draw order (group, then GQ modulus) is fixed:
  // it decides p, q, g, n and e.
  hash::HmacDrbg rng(seed, "idgka-authority");
  params_.profile = profile;
  params_.grp = mpint::generate_schnorr_group(rng, sizes_.p_bits, sizes_.q_bits, mr_rounds_);
  gq_pkg_ = std::make_unique<sig::GqPkg>(rng, sizes_.gq_bits, mr_rounds_);
  params_.gq = gq_pkg_->params();
  params_.ctx_p = std::make_shared<const mpint::ModContext>(params_.grp.p);
  params_.ctx_n = std::make_shared<const mpint::ModContext>(params_.gq.n);
  // Fixed-base comb tables: every member exponentiates the same g (mod p,
  // exponents mod q) and the same SSN base h (mod n, exponents up to |n|).
  params_.g_comb = std::make_shared<const mpint::FixedBaseTable>(
      params_.ctx_p->make_fixed_base(params_.grp.g, params_.grp.q.bit_length()));
  params_.h_ssn = sig::gq_hash_id(params_.gq, 0xFFFFFFFFU);  // reserved "system" id
  params_.h_comb = std::make_shared<const mpint::FixedBaseTable>(
      params_.ctx_n->make_fixed_base(params_.h_ssn, params_.gq.n.bit_length()));
}

Authority::~Authority() = default;

Authority::SokBaseline& Authority::sok() const {
  std::call_once(sok_once_,
                 [&] { sok_ = std::make_unique<SokBaseline>(seed_, sizes_, mr_rounds_); });
  return *sok_;
}

Authority::DsaBaseline& Authority::dsa() const {
  std::call_once(dsa_once_,
                 [&] { dsa_ = std::make_unique<DsaBaseline>(seed_, sizes_, mr_rounds_); });
  return *dsa_;
}

Authority::EcdsaBaseline& Authority::ecdsa() const {
  std::call_once(ecdsa_once_, [&] { ecdsa_ = std::make_unique<EcdsaBaseline>(seed_); });
  return *ecdsa_;
}

const pairing::SsGroup& Authority::ss_group() const { return sok().group; }
const pairing::TatePairing& Authority::tate() const { return sok().tate; }
const ec::Point& Authority::sok_public_key() const { return sok().pkg.public_key(); }
const sig::DsaParams& Authority::dsa_params() const { return dsa().params; }
const mpint::ModContext& Authority::dsa_ctx() const { return *dsa().ctx; }
const pki::CertificateAuthority& Authority::dsa_ca() const { return dsa().ca; }
const pki::CertificateAuthority& Authority::ecdsa_ca() const { return ecdsa().ca; }

MemberCredentials Authority::enroll(std::uint32_t id) {
  MemberCredentials cred;
  cred.id = id;
  cred.gq_identity = sig::gq_identity(params_.gq, id);
  cred.gq_secret = gq_pkg_->extract(cred.gq_identity);
  return cred;
}

MemberCredentials Authority::enroll(std::uint32_t id, Scheme scheme) {
  MemberCredentials cred = enroll(id);
  switch (scheme) {
    case Scheme::kProposed:
    case Scheme::kSsn:
      break;
    case Scheme::kBdSok:
      cred.sok_secret = sok().pkg.extract(id);
      break;
    case Scheme::kBdDsa: {
      DsaBaseline& b = dsa();
      cred.dsa_key = sig::dsa_generate_keypair(b.params, *b.ctx, b.rng);
      cred.dsa_cert = b.ca.issue(id, pki::encode_dsa_public(b.params, cred.dsa_key.y), b.rng);
      break;
    }
    case Scheme::kBdEcdsa: {
      EcdsaBaseline& b = ecdsa();
      cred.ecdsa_key = sig::ecdsa_generate_keypair(curve(), b.rng);
      cred.ecdsa_cert = b.ca.issue(id, pki::encode_ec_public(curve(), cred.ecdsa_key.q), b.rng);
      break;
    }
  }
  return cred;
}

}  // namespace idgka::gka
