#include "crypto/sortition.hpp"

#include <cmath>

#include "util/require.hpp"

namespace roleshare::crypto {

std::uint64_t SortitionResult::priority() const {
  std::uint64_t best = 0;
  for (std::uint64_t j = 0; j < sub_users; ++j) {
    const Hash256 h = HashBuilder("roleshare.priority")
                          .add(vrf.output)
                          .add_u64(j)
                          .build();
    best = std::max(best, h.prefix_u64());
  }
  return best;
}

std::uint64_t binomial_inversion(double ratio, std::int64_t stake, double p) {
  RS_REQUIRE(ratio >= 0.0 && ratio < 1.0, "sortition ratio in [0,1)");
  RS_REQUIRE(stake >= 0, "non-negative stake");
  RS_REQUIRE(p >= 0.0 && p <= 1.0, "selection probability in [0,1]");
  if (stake == 0 || p == 0.0) return 0;
  if (p >= 1.0) return static_cast<std::uint64_t>(stake);

  // Walk the Binomial(stake, p) pmf: pmf(0) = (1-p)^w, then the standard
  // recurrence pmf(k+1) = pmf(k) * (w-k)/(k+1) * p/(1-p). For large w and
  // tiny p the pmf underflows gracefully; the cumulative sum is monotone so
  // the walk terminates.
  const double w = static_cast<double>(stake);
  const double odds = p / (1.0 - p);
  double pmf = std::pow(1.0 - p, w);
  double cdf = pmf;
  std::uint64_t k = 0;
  while (ratio >= cdf && k < static_cast<std::uint64_t>(stake)) {
    pmf *= (w - static_cast<double>(k)) / (static_cast<double>(k) + 1.0) *
           odds;
    cdf += pmf;
    ++k;
    if (pmf <= 0.0) {
      // Numerical tail exhausted: everything beyond here has measure ~0.
      // Treat the remaining ratio mass as the final bucket.
      return ratio >= cdf ? static_cast<std::uint64_t>(stake) : k;
    }
  }
  return k;
}

SortitionResult sortition(const KeyPair& key, const VrfInput& input,
                          std::int64_t stake, const SortitionParams& params) {
  RS_REQUIRE(params.expected_stake > 0, "expected committee stake");
  RS_REQUIRE(params.total_stake > 0, "total stake");
  RS_REQUIRE(stake >= 0 && stake <= params.total_stake, "stake in range");

  const VrfOutput vrf = vrf_evaluate(key, input);
  const double p = static_cast<double>(params.expected_stake) /
                   static_cast<double>(params.total_stake);
  const std::uint64_t j =
      binomial_inversion(vrf.ratio(), stake, std::min(p, 1.0));
  return SortitionResult{j, vrf};
}

void sortition_batch_into(const std::vector<KeyPair>& keys,
                          const VrfInput& input,
                          const std::vector<std::int64_t>& stakes,
                          const SortitionParams& params,
                          std::vector<SortitionResult>& results,
                          const util::InnerExecutor& exec) {
  RS_REQUIRE(keys.size() == stakes.size(), "keys/stakes size mismatch");
  RS_REQUIRE(params.expected_stake > 0, "expected committee stake");
  RS_REQUIRE(params.total_stake > 0, "total stake");
  results.resize(keys.size());

  // Everything constant across the batch is computed once: the VRF input
  // message, the selection probability, and the padded SHA-256 message
  // templates for the two per-node hashes
  //   proof  = H("roleshare.sig" || pk || msg)       (sign under pk)
  //   output = H("roleshare.vrf.out" || proof)
  // so the per-node cost is two slot writes and two compress runs.
  const Hash256 msg = input.message();
  const double p =
      std::min(static_cast<double>(params.expected_stake) /
                   static_cast<double>(params.total_stake),
               1.0);

  FixedHasher sign_layout("roleshare.sig");
  const std::size_t pk_slot = sign_layout.add_hash_slot();
  sign_layout.add(msg);
  const Sha256Fixed sign_template = sign_layout.build_template();

  FixedHasher out_layout("roleshare.vrf.out");
  const std::size_t proof_slot = out_layout.add_hash_slot();
  const Sha256Fixed out_template = out_layout.build_template();

  exec.for_each_chunk(
      keys.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        // Per-chunk template copies: workers overwrite slots concurrently.
        Sha256Fixed sign_fixed = sign_template;
        Sha256Fixed out_fixed = out_template;
        for (std::size_t v = begin; v < end; ++v) {
          RS_REQUIRE(stakes[v] >= 0 && stakes[v] <= params.total_stake,
                     "stake in range");
          write_hash_slot(sign_fixed, pk_slot, keys[v].public_key().value);
          const Hash256 proof(sign_fixed.digest());
          write_hash_slot(out_fixed, proof_slot, proof);
          SortitionResult& r = results[v];
          r.vrf.proof = Signature{proof};
          r.vrf.output = Hash256(out_fixed.digest());
          r.sub_users = binomial_inversion(r.vrf.output.ratio(), stakes[v], p);
        }
      });
}

std::uint64_t verify_sortition(const PublicKey& pk, const VrfInput& input,
                               const VrfOutput& vrf, std::int64_t stake,
                               const SortitionParams& params) {
  RS_REQUIRE(params.expected_stake > 0, "expected committee stake");
  RS_REQUIRE(params.total_stake > 0, "total stake");
  if (!vrf_verify(pk, input, vrf)) return 0;
  const double p = static_cast<double>(params.expected_stake) /
                   static_cast<double>(params.total_stake);
  return binomial_inversion(vrf.ratio(), stake, std::min(p, 1.0));
}

}  // namespace roleshare::crypto
