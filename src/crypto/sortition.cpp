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

bool surely_unselected(double ratio, std::int64_t stake, double p) {
  // binomial_inversion returns 0 exactly when ratio < P = pow(q, w), with
  // q = fl(1 - p) and w = double(stake): its walk starts at cdf = P and
  // steps (and so returns at least 1) only while ratio >= cdf. Let
  // B = fl(fl(1 - fl(w * d)) - 2^-40). Claim: ratio < B implies
  // ratio < P.
  //  1. q >= 0.5, so d = 1 - q is exact (Sterbenz) and lies in [0, 0.5].
  //  2. Bernoulli's inequality, (1 - d)^w >= 1 - w * d for real w >= 1
  //     and d in [0, 1], bounds the exact power: q^w >= 1 - w * d. A
  //     positive integer stake makes w >= 1.
  //  3. t = fl(w * d) >= w * d * (1 - 2^-53). If t >= 1, then
  //     fl(1 - t) <= 0 and B < 0 <= ratio: nothing is certified. Else
  //     fl(1 - t) <= 1 - w * d + 2^-52, and B <= 1 - w * d - 2^-40 +
  //     2^-51 <= q^w - 2^-41.
  //  4. q^w < 1, so one ulp of it is at most 2^-53, and pow is within
  //     1 ulp (glibc documents under 1): P > q^w - 2^-53 > B > ratio.
  // The margin 2^-40 absorbs the roundings of steps 3 and 4 with room to
  // spare, and it holds whether the compiler fuses 1 - w * d or not.
  if (stake <= 0 || !(p > 0.0)) return false;
  const double q = 1.0 - p;
  if (!(q >= 0.5)) return false;
  const double d = 1.0 - q;
  const double w = static_cast<double>(stake);
  return ratio < (1.0 - w * d) - 0x1.0p-40;
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

namespace {

/// The signature message KeyPair::sign hashes for `msg`,
/// H("roleshare.sig" || pk || msg), as a fixed layout: 101 bytes, so
/// two blocks. The pk slot is bytes 29–60 and block 2 starts at byte 64,
/// so block 1 holds only the tag, pk and three bytes of msg's constant
/// length prefix u64le(32).
Sha256Fixed signature_template(const Hash256& msg, std::size_t& pk_slot) {
  FixedHasher layout("roleshare.sig");
  pk_slot = layout.add_hash_slot();
  layout.add(msg);
  const Sha256Fixed fixed = layout.build_template();
  RS_ENSURE(pk_slot + 32 <= 64 && fixed.message_len() > 64,
            "signature block 1 depends on pk alone");
  return fixed;
}

}  // namespace

SignerTable::SignerTable(const std::vector<KeyPair>& keys)
    : states_(keys.size()) {
  // Any msg gives the same block 1; only the pk slot varies.
  std::size_t pk_slot = 0;
  const Sha256Fixed sign_template = signature_template(Hash256{}, pk_slot);
  std::array<Sha256Fixed, 2> sign_fixed = {sign_template, sign_template};
  for_each_lane_group(0, keys.size(), [&](auto lanes, std::size_t v) {
    constexpr std::size_t L = decltype(lanes)::value;
    Sha256Lanes<L> states;
    std::array<const std::uint8_t*, L> blocks;
    for (std::size_t l = 0; l < L; ++l) {
      write_hash_slot(sign_fixed[l], pk_slot, keys[v + l].public_key().value);
      states[l] = sha256_initial_state();
      blocks[l] = sign_fixed[l].data();
    }
    sha256_compress_lanes<L>(states, blocks);
    for (std::size_t l = 0; l < L; ++l) states_[v + l] = states[l];
  });
}

void sortition_batch_into(const SignerTable& signers, const VrfInput& input,
                          const std::vector<std::int64_t>& stakes,
                          const SortitionParams& params,
                          std::vector<SortitionResult>& results,
                          const util::InnerExecutor& exec) {
  RS_REQUIRE(signers.size() == stakes.size(), "signers/stakes size mismatch");
  RS_REQUIRE(params.expected_stake > 0, "expected committee stake");
  RS_REQUIRE(params.total_stake > 0, "total stake");
  results.resize(stakes.size());

  // Everything constant across the batch is computed once: the VRF input
  // message, the selection probability, the signature's second block
  //   proof  = H("roleshare.sig" || pk || msg)  (block 1: signers' table)
  // and the padded template of the output message
  //   output = H("roleshare.vrf.out" || proof)  (65 bytes, two blocks),
  // so a node costs three compressions, run two nodes at a time.
  std::size_t pk_slot = 0;
  const Sha256Fixed sign_template =
      signature_template(input.message(), pk_slot);
  const std::uint8_t* const sign_block2 = sign_template.data() + 64;
  const double p =
      std::min(static_cast<double>(params.expected_stake) /
                   static_cast<double>(params.total_stake),
               1.0);

  FixedHasher out_layout("roleshare.vrf.out");
  const std::size_t proof_slot = out_layout.add_hash_slot();
  const Sha256Fixed out_template = out_layout.build_template();

  exec.for_each_chunk(
      stakes.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        // Per-chunk template copies, one per lane: workers overwrite
        // their proof slots concurrently.
        std::array<Sha256Fixed, 2> out_fixed = {out_template, out_template};
        for_each_lane_group(begin, end, [&](auto lanes, std::size_t v) {
          constexpr std::size_t L = decltype(lanes)::value;
          Sha256Lanes<L> states;
          std::array<const std::uint8_t*, L> blocks;
          for (std::size_t l = 0; l < L; ++l) {
            RS_REQUIRE(stakes[v + l] >= 0 &&
                           stakes[v + l] <= params.total_stake,
                       "stake in range");
            states[l] = signers.state(v + l);
            blocks[l] = sign_block2;
          }
          sha256_compress_lanes<L>(states, blocks);
          std::array<Digest, L> proofs;
          for (std::size_t l = 0; l < L; ++l) {
            proofs[l] = sha256_digest_of(states[l]);
            write_hash_slot(out_fixed[l], proof_slot, proofs[l]);
            states[l] = sha256_initial_state();
            blocks[l] = out_fixed[l].data();
          }
          sha256_compress_lanes<L>(states, blocks);
          for (std::size_t l = 0; l < L; ++l) blocks[l] += 64;
          sha256_compress_lanes<L>(states, blocks);
          for (std::size_t l = 0; l < L; ++l) {
            SortitionResult& r = results[v + l];
            r.vrf.proof = Signature{Hash256(proofs[l])};
            r.vrf.output = Hash256(sha256_digest_of(states[l]));
            const double ratio = r.vrf.output.ratio();
            const std::int64_t stake = stakes[v + l];
            r.sub_users = surely_unselected(ratio, stake, p)
                              ? 0
                              : binomial_inversion(ratio, stake, p);
          }
        });
      });
}

void sortition_batch_into(const std::vector<KeyPair>& keys,
                          const VrfInput& input,
                          const std::vector<std::int64_t>& stakes,
                          const SortitionParams& params,
                          std::vector<SortitionResult>& results,
                          const util::InnerExecutor& exec) {
  RS_REQUIRE(keys.size() == stakes.size(), "keys/stakes size mismatch");
  sortition_batch_into(SignerTable(keys), input, stakes, params, results,
                       exec);
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
