#include "gen/domain_gen.hpp"

#include <algorithm>

namespace roleshare::testgen {

namespace pgen = util::proptest::gen;

Gen<std::string> byte_string(std::size_t max_len) {
  // Weighted toward the bytes that exercise the JSON escaper: quotes,
  // backslashes, control characters (NUL included) and high bytes.
  auto byte = pgen::one_of<std::int64_t>({
      pgen::int_range(0x20, 0x7e),                        // printable ASCII
      pgen::element_of<std::int64_t>({'"', '\\', '/', '\n', '\r', '\t',
                                      '\b', '\f', 0x00, 0x01, 0x1f, 0x7f,
                                      0x80, 0xc3, 0xe2, 0xff}),
  });
  return pgen::vector_of(std::move(byte), 0, max_len)
      .map([](const std::vector<std::int64_t>& bytes) {
        std::string s;
        s.reserve(bytes.size());
        for (const std::int64_t b : bytes)
          s.push_back(static_cast<char>(static_cast<unsigned char>(b)));
        return s;
      });
}

Gen<std::vector<std::int64_t>> stake_vector(std::size_t min_n,
                                            std::size_t max_n) {
  // ~1 in 8 nodes holds zero stake — the "pays nothing to the stakeless"
  // edge the conservation properties must keep exercising.
  auto stake = pgen::one_of<std::int64_t>({
      pgen::int_range(1, 100),
      pgen::constant<std::int64_t>(0),
      pgen::int_range(1, 100),
      pgen::int_range(1, 100),
      pgen::int_range(100, 10'000),
      pgen::int_range(1, 100),
      pgen::int_range(1, 100),
      pgen::int_range(1, 100),
  });
  return pgen::vector_of(std::move(stake), min_n, max_n);
}

Gen<econ::RoleSnapshot> role_snapshot(std::size_t min_n, std::size_t max_n) {
  auto node = pgen::tuple_of(pgen::int_range(0, 10'000),  // stake (0 allowed)
                             pgen::int_range(0, 19));     // role tag
  return pgen::vector_of(std::move(node), min_n, max_n)
      .map([](const std::vector<std::tuple<std::int64_t, std::int64_t>>& v) {
        std::vector<consensus::Role> roles;
        std::vector<std::int64_t> stakes;
        roles.reserve(v.size());
        stakes.reserve(v.size());
        for (const auto& [stake, tag] : v) {
          roles.push_back(tag == 0 ? consensus::Role::Leader
                          : tag <= 3 ? consensus::Role::Committee
                                     : consensus::Role::Other);
          stakes.push_back(stake);
        }
        return econ::RoleSnapshot(std::move(roles), std::move(stakes));
      });
}

Gen<sim::NetworkConfig> network_config(std::size_t min_nodes,
                                       std::size_t max_nodes) {
  return pgen::tuple_of(
             pgen::size_range(min_nodes, max_nodes),  // node_count
             pgen::int_range(1, 1'000'000'000),       // seed
             pgen::int_range(2, 6),                   // fan_out
             pgen::int_range(1, 5),                   // stake_lo
             pgen::int_range(10, 100),                // stake_hi
             pgen::real_range(0.0, 0.35),             // defection_rate
             pgen::real_range(0.0, 0.15),             // faulty_rate
             pgen::real_range(5.0, 40.0),             // delay_lo_ms
             pgen::real_range(60.0, 200.0),           // delay_hi_ms
             pgen::real_range(0.0, 0.3))              // degrade prob
      .map([](const auto& t) {
        const auto& [nodes, seed, fan, slo, shi, defect, faulty, dlo, dhi,
                     degrade] = t;
        sim::NetworkConfig c;
        c.node_count = nodes;
        c.seed = static_cast<std::uint64_t>(seed);
        c.fan_out = static_cast<std::size_t>(fan);
        c.stake_lo = slo;
        c.stake_hi = shi;
        c.defection_rate = defect;
        c.faulty_rate = faulty;
        c.delay_lo_ms = dlo;
        c.delay_hi_ms = dhi;
        c.synchrony.degrade_probability = degrade;
        return c;
      });
}

Gen<sim::ChurnSchedule> churn_schedule() {
  return pgen::tuple_of(pgen::real_range(0.0, 0.25),  // leave
                        pgen::real_range(0.0, 0.5),   // join
                        pgen::int_range(4, 8))        // min_live
      .map([](const auto& t) {
        const auto& [leave, join, min_live] = t;
        sim::ChurnSchedule s;
        s.leave_probability = leave;
        s.join_probability = join;
        s.min_live = static_cast<std::size_t>(min_live);
        return s;
      });
}

Gen<sim::ScenarioPolicyConfig> scenario_policy() {
  return pgen::tuple_of(
             pgen::element_of<sim::PolicyKind>(
                 {sim::PolicyKind::Scripted, sim::PolicyKind::AdaptiveDefect,
                  sim::PolicyKind::StakeCorrelatedDefect}),
             pgen::real_range(0.0, 0.5),  // defect_at_bottom
             pgen::real_range(0.0, 0.5),  // defect_at_top
             churn_schedule())
      .map([](const auto& t) {
        const auto& [kind, bottom, top, churn] = t;
        sim::ScenarioPolicyConfig c;
        c.kind = kind;
        c.defect_at_bottom = bottom;
        c.defect_at_top = top;
        c.churn = churn;
        return c;
      });
}

Gen<std::vector<std::pair<std::size_t, std::size_t>>> shard_tiling(
    std::size_t runs_total) {
  RS_REQUIRE(runs_total >= 1, "shard_tiling requires at least one run");
  const std::size_t max_cuts = std::min<std::size_t>(4, runs_total - 1);
  return pgen::vector_of(pgen::size_range(1, std::max<std::size_t>(
                                                 1, runs_total - 1)),
                         0, max_cuts)
      .map([runs_total](std::vector<std::size_t> cuts) {
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        std::vector<std::pair<std::size_t, std::size_t>> windows;
        std::size_t begin = 0;
        for (const std::size_t c : cuts) {
          windows.emplace_back(begin, c);
          begin = c;
        }
        windows.emplace_back(begin, runs_total);
        return windows;
      });
}

namespace {

Gen<util::json::Value> json_number() {
  return pgen::one_of<util::json::Value>({
      pgen::real_range(-1e9, 1e9).map(
          [](double v) { return util::json::Value(v); }),
      pgen::int_range(-1'000'000'000'000'000, 1'000'000'000'000'000)
          .map([](std::int64_t v) {
            return util::json::Value(static_cast<double>(v));
          }),
      pgen::element_of<double>({0.0, -0.0, 1e308, -1e308, 5e-324,
                                2.2250738585072014e-308, 0.1, 1.0 / 3.0,
                                6.02214076e23, -1.7976931348623157e308})
          .map([](double v) { return util::json::Value(v); }),
  });
}

}  // namespace

Gen<util::json::Value> json_value(std::size_t max_depth) {
  using util::json::Value;
  std::vector<Gen<Value>> alts = {
      pgen::constant(Value()),
      pgen::boolean().map([](bool b) { return Value(b); }),
      json_number(),
      byte_string(12).map([](const std::string& s) { return Value(s); }),
  };
  if (max_depth > 0) {
    alts.push_back(pgen::vector_of(json_value(max_depth - 1), 0, 4)
                       .map([](const std::vector<Value>& elems) {
                         Value arr = Value::array();
                         for (const Value& e : elems) arr.push_back(e);
                         return arr;
                       }));
    alts.push_back(
        pgen::vector_of(
            pgen::pair_of(byte_string(6), json_value(max_depth - 1)), 0, 4)
            .map([](const std::vector<std::pair<std::string, Value>>& kvs) {
              Value obj = Value::object();
              for (std::size_t i = 0; i < kvs.size(); ++i)
                // Index suffix keeps keys unique (the parser rejects
                // duplicate keys by contract).
                obj.set(kvs[i].first + "#" + std::to_string(i),
                        kvs[i].second);
              return obj;
            }));
  }
  return pgen::one_of(std::move(alts));
}

}  // namespace roleshare::testgen
