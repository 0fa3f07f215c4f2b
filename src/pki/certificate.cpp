#include "pki/certificate.h"

#include <stdexcept>

namespace idgka::pki {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

}  // namespace

std::vector<std::uint8_t> Certificate::tbs_bytes() const {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(algorithm));
  put_u32(out, subject_id);
  put_u64(out, serial);
  put_u64(out, not_before);
  put_u64(out, not_after);
  put_u32(out, static_cast<std::uint32_t>(subject_public_key.size()));
  out.insert(out.end(), subject_public_key.begin(), subject_public_key.end());
  return out;
}

CertificateAuthority::CertificateAuthority(sig::DsaParams params,
                                           std::shared_ptr<const mpint::ModContext> ctx_p,
                                           mpint::Rng& rng)
    : algorithm_(CertAlgorithm::kDsa),
      dsa_params_(std::move(params)),
      dsa_ctx_(std::move(ctx_p)) {
  if (!dsa_ctx_) dsa_ctx_ = std::make_shared<const mpint::ModContext>(dsa_params_->p);
  dsa_key_ = sig::dsa_generate_keypair(*dsa_params_, *dsa_ctx_, rng);
}

CertificateAuthority::CertificateAuthority(const ec::Curve& curve, mpint::Rng& rng)
    : algorithm_(CertAlgorithm::kEcdsa), curve_(&curve) {
  ec_key_ = sig::ecdsa_generate_keypair(curve, rng);
}

Certificate CertificateAuthority::issue(std::uint32_t subject_id,
                                        std::vector<std::uint8_t> public_key,
                                        mpint::Rng& rng, std::uint64_t validity_seconds) {
  Certificate cert;
  cert.algorithm = algorithm_;
  cert.subject_id = subject_id;
  cert.serial = next_serial_++;
  cert.not_before = now_;
  cert.not_after = now_ + validity_seconds;
  cert.subject_public_key = std::move(public_key);
  const auto tbs = cert.tbs_bytes();
  if (algorithm_ == CertAlgorithm::kDsa) {
    const auto sig = sig::dsa_sign(*dsa_params_, *dsa_ctx_, *dsa_key_, tbs, rng);
    cert.sig_r = sig.r;
    cert.sig_s = sig.s;
  } else {
    const auto sig = sig::ecdsa_sign(*curve_, *ec_key_, tbs, rng);
    cert.sig_r = sig.r;
    cert.sig_s = sig.s;
  }
  return cert;
}

bool CertificateAuthority::verify(const Certificate& cert, std::uint64_t at_time) const {
  if (cert.algorithm != algorithm_) return false;
  const std::uint64_t when = at_time == 0 ? now_ : at_time;
  if (when < cert.not_before || when > cert.not_after) return false;
  const auto tbs = cert.tbs_bytes();
  if (algorithm_ == CertAlgorithm::kDsa) {
    return sig::dsa_verify(*dsa_params_, *dsa_ctx_, dsa_key_->y, tbs,
                           sig::DsaSignature{cert.sig_r, cert.sig_s});
  }
  return sig::ecdsa_verify(*curve_, ec_key_->q, tbs,
                           sig::EcdsaSignature{cert.sig_r, cert.sig_s});
}

std::vector<std::uint8_t> encode_ec_public(const ec::Curve& curve, const ec::Point& pub) {
  if (pub.infinity) throw std::invalid_argument("encode_ec_public: infinity");
  const std::size_t fb = curve.field_bytes();
  std::vector<std::uint8_t> out;
  out.reserve(1 + 2 * fb);
  out.push_back(0x04);  // uncompressed
  const auto xb = pub.x.to_bytes_be(fb);
  const auto yb = pub.y.to_bytes_be(fb);
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

std::optional<ec::Point> decode_ec_public(const ec::Curve& curve,
                                          std::span<const std::uint8_t> bytes) {
  const std::size_t fb = curve.field_bytes();
  if (bytes.size() != 1 + 2 * fb || bytes[0] != 0x04) return std::nullopt;
  ec::Point pt{BigInt::from_bytes_be(bytes.subspan(1, fb)),
               BigInt::from_bytes_be(bytes.subspan(1 + fb, fb)), false};
  if (!curve.is_on_curve(pt)) return std::nullopt;
  return pt;
}

std::vector<std::uint8_t> encode_dsa_public(const sig::DsaParams& params, const BigInt& y) {
  return y.to_bytes_be((params.p.bit_length() + 7) / 8);
}

std::optional<BigInt> decode_dsa_public(const sig::DsaParams& params,
                                        std::span<const std::uint8_t> bytes) {
  if (bytes.size() != (params.p.bit_length() + 7) / 8) return std::nullopt;
  BigInt y = BigInt::from_bytes_be(bytes);
  if (y <= BigInt{1} || y >= params.p) return std::nullopt;
  return y;
}

}  // namespace idgka::pki
