// Property-based testing layered under GoogleTest (DESIGN.md §8).
//
// A property is a predicate that must hold for *every* value a generator
// can produce; the framework samples the generator N times, and on the
// first failing value it greedily walks the value's shrink tree toward a
// minimal counterexample, then reports both the shrunk value and the
// seeds needed to replay the exact failing case. Self-contained (no
// rapidcheck; the build box is offline) but mirrors the
// RC_GTEST_PROP_WITH_PARAMS pattern: per-test case counts, overridable
// through the environment so nightly deep runs push cheap properties to
// tens of thousands of cases.
//
// Seeding contract (the project's Rng stream discipline):
//   root        = Rng(ROLESHARE_PROP_SEED or kDefaultSeed)
//   test stream = root.split("Suite.Name")
//   check k     = test_stream.split(k)        (k-th check() in the test)
//   case i seed = check_stream.derive_seed(i)
//   case i rng  = Rng(case_seed)
// A failure prints case_seed; ROLESHARE_PROP_CASE_SEED=<case_seed> (with
// --gtest_filter to select the test) re-runs exactly that case — no
// dependence on the case count or position in the run.
//
// Environment knobs:
//   ROLESHARE_PROP_CASES         absolute case-count override (all checks)
//   ROLESHARE_PROP_SCALE         multiplier on each check's default count
//   ROLESHARE_PROP_SEED          root seed (decimal)
//   ROLESHARE_PROP_CASE_SEED     replay exactly one case from its seed
//   ROLESHARE_PROP_ARTIFACT_DIR  write minimized-counterexample repro
//                                files here on failure (CI uploads them)
//
// The PROP_TEST_WITH_PARAMS macro expands to a gtest TEST, so this header
// must be included after <gtest/gtest.h>; the framework itself carries no
// gtest dependency (Checker just records failures).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace roleshare::util::proptest {

inline constexpr std::uint64_t kDefaultSeed = 0x726f'6c65'7368'6172ULL;

// ---------------------------------------------------------------------
// Shrinkable<T>: a value plus a lazily computed list of smaller
// candidates, each itself shrinkable — the rose tree rapidcheck uses,
// flattened to "children on demand". Generators return the tree root;
// the shrinker descends greedily (first failing child wins) until no
// child fails or the evaluation budget runs out.

template <typename T>
struct Shrinkable {
  // Aggregate on purpose: Shrinkable<T>{value, children} needs no
  // default constructor on T (RoleSnapshot lacks one).
  T value;
  /// Immediate shrink candidates, most aggressive first. Null = leaf.
  std::function<std::vector<Shrinkable<T>>()> children;

  std::vector<Shrinkable<T>> shrinks() const {
    return children ? children() : std::vector<Shrinkable<T>>{};
  }
};

template <typename T>
Shrinkable<T> shrinkable_leaf(T value) {
  return Shrinkable<T>{std::move(value), nullptr};
}

/// Integer shrink tree toward `origin` (clamped 0 by the int generators):
/// candidates are origin, then the halving sequence v - (v-origin)/2^k.
inline Shrinkable<std::int64_t> shrinkable_int(std::int64_t v,
                                               std::int64_t origin) {
  Shrinkable<std::int64_t> s;
  s.value = v;
  if (v == origin) return s;
  s.children = [v, origin]() {
    std::vector<Shrinkable<std::int64_t>> kids;
    for (std::int64_t step = v - origin; step != 0; step /= 2)
      kids.push_back(shrinkable_int(v - step, origin));
    return kids;
  };
  return s;
}

/// Real shrink tree toward `origin`: origin itself, the integral
/// truncation, then halving toward v (bounded depth — binary64 halving
/// would otherwise produce ~1000 candidates).
inline Shrinkable<double> shrinkable_real(double v, double origin) {
  Shrinkable<double> s;
  s.value = v;
  if (v == origin) return s;
  s.children = [v, origin]() {
    std::vector<Shrinkable<double>> kids;
    kids.push_back(shrinkable_real(origin, origin));
    const double trunc = std::trunc(v);
    if (trunc != v && ((origin <= trunc && trunc < v) ||
                       (v < trunc && trunc <= origin)))
      kids.push_back(shrinkable_real(trunc, origin));
    double delta = (v - origin) / 2;
    for (int i = 0; i < 16 && v - delta != v && v - delta != origin; ++i) {
      kids.push_back(shrinkable_real(v - delta, origin));
      delta /= 2;
    }
    return kids;
  };
  return s;
}

/// Maps a shrink tree through `f`, preserving the shrink structure of the
/// underlying value — this is what makes Gen::map shrink correctly.
template <typename T, typename F>
auto map_shrinkable(const Shrinkable<T>& s, F f)
    -> Shrinkable<std::decay_t<decltype(f(s.value))>> {
  using U = std::decay_t<decltype(f(s.value))>;
  std::function<std::vector<Shrinkable<U>>()> kids_fn;
  if (s.children) {
    kids_fn = [s, f]() {
      std::vector<Shrinkable<U>> kids;
      for (const auto& c : s.shrinks()) kids.push_back(map_shrinkable(c, f));
      return kids;
    };
  }
  return Shrinkable<U>{f(s.value), std::move(kids_fn)};
}

/// Prunes shrink candidates that fail `pred` (they stay unexplored — a
/// filtered generator never presents an invalid counterexample).
template <typename T, typename P>
Shrinkable<T> filter_shrinkable(Shrinkable<T> s, P pred) {
  if (!s.children) return s;
  auto inner = s.children;
  s.children = [inner, pred]() {
    std::vector<Shrinkable<T>> kids;
    for (auto& c : inner())
      if (pred(c.value)) kids.push_back(filter_shrinkable(std::move(c), pred));
    return kids;
  };
  return s;
}

/// Vector shrink tree: drop chunks of elements first (largest chunks
/// most aggressive), then shrink individual elements in place.
template <typename T>
Shrinkable<std::vector<T>> shrinkable_vector(
    std::vector<Shrinkable<T>> elems, std::size_t min_len) {
  Shrinkable<std::vector<T>> s{{}, nullptr};
  s.value.reserve(elems.size());
  for (const auto& e : elems) s.value.push_back(e.value);
  s.children = [elems = std::move(elems), min_len]() {
    std::vector<Shrinkable<std::vector<T>>> kids;
    const std::size_t n = elems.size();
    // Chunk removals, halving chunk sizes.
    for (std::size_t chunk = n; chunk >= 1; chunk /= 2) {
      if (n < chunk || n - chunk < min_len) continue;
      for (std::size_t start = 0; start + chunk <= n; start += chunk) {
        std::vector<Shrinkable<T>> rest;
        rest.reserve(n - chunk);
        for (std::size_t i = 0; i < n; ++i)
          if (i < start || i >= start + chunk) rest.push_back(elems[i]);
        kids.push_back(shrinkable_vector(std::move(rest), min_len));
      }
      if (chunk == 1) break;
    }
    // Per-element shrinks.
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& c : elems[i].shrinks()) {
        std::vector<Shrinkable<T>> copy = elems;
        copy[i] = std::move(c);
        kids.push_back(shrinkable_vector(std::move(copy), min_len));
      }
    }
    return kids;
  };
  return s;
}

// ---------------------------------------------------------------------
// Gen<T>: a function Rng& -> Shrinkable<T> with combinators.

template <typename T>
class Gen {
 public:
  using value_type = T;
  using Fn = std::function<Shrinkable<T>(Rng&)>;

  explicit Gen(Fn fn) : fn_(std::move(fn)) {
    RS_REQUIRE(fn_ != nullptr, "Gen constructed from a null function");
  }

  Shrinkable<T> generate(Rng& rng) const { return fn_(rng); }

  /// Composes a pure function over the generated values; shrinking maps
  /// the underlying value's shrink tree through `f`.
  template <typename F>
  auto map(F f) const -> Gen<std::decay_t<decltype(f(std::declval<T>()))>> {
    using U = std::decay_t<decltype(f(std::declval<T>()))>;
    Fn self = fn_;
    return Gen<U>([self, f](Rng& rng) {
      return map_shrinkable(self(rng), f);
    });
  }

  /// Keeps only values satisfying `pred`: regenerates up to `max_tries`
  /// times (throws std::runtime_error if the predicate is too sparse) and
  /// prunes shrink candidates that violate it.
  Gen<T> filter(std::function<bool(const T&)> pred,
                std::size_t max_tries = 100) const {
    Fn self = fn_;
    return Gen<T>([self, pred, max_tries](Rng& rng) {
      for (std::size_t i = 0; i < max_tries; ++i) {
        Shrinkable<T> s = self(rng);
        if (pred(s.value)) return filter_shrinkable(std::move(s), pred);
      }
      throw std::runtime_error(
          "Gen::filter: predicate rejected " + std::to_string(max_tries) +
          " consecutive candidates — generator and filter are mismatched");
    });
  }

 private:
  Fn fn_;
};

namespace gen {

/// Uniform integer in [lo, hi], shrinking toward clamp(0, lo, hi).
inline Gen<std::int64_t> int_range(std::int64_t lo, std::int64_t hi) {
  RS_REQUIRE(lo <= hi, "gen::int_range requires lo <= hi");
  const std::int64_t origin = std::clamp<std::int64_t>(0, lo, hi);
  return Gen<std::int64_t>([lo, hi, origin](Rng& rng) {
    return shrinkable_int(rng.uniform_int(lo, hi), origin);
  });
}

/// Uniform size_t in [lo, hi], shrinking toward lo.
inline Gen<std::size_t> size_range(std::size_t lo, std::size_t hi) {
  return int_range(static_cast<std::int64_t>(lo),
                   static_cast<std::int64_t>(hi))
      .map([](std::int64_t v) { return static_cast<std::size_t>(v); });
}

/// Uniform double in [lo, hi), shrinking toward clamp(0, lo, hi).
inline Gen<double> real_range(double lo, double hi) {
  RS_REQUIRE(lo < hi, "gen::real_range requires lo < hi");
  const double origin = std::clamp(0.0, lo, hi);
  return Gen<double>([lo, hi, origin](Rng& rng) {
    return shrinkable_real(rng.uniform_real(lo, hi), origin);
  });
}

inline Gen<bool> boolean() {
  return Gen<bool>([](Rng& rng) {
    Shrinkable<bool> s;
    s.value = rng.bernoulli(0.5);
    if (s.value) {
      s.children = []() {
        return std::vector<Shrinkable<bool>>{shrinkable_leaf(false)};
      };
    }
    return s;
  });
}

template <typename T>
Gen<T> constant(T value) {
  return Gen<T>([value](Rng&) { return shrinkable_leaf(value); });
}

/// Uniform pick from a fixed table, shrinking toward earlier entries.
template <typename T>
Gen<T> element_of(std::vector<T> table) {
  RS_REQUIRE(!table.empty(), "gen::element_of requires a non-empty table");
  const std::size_t n = table.size();
  return size_range(0, n - 1).map(
      [table = std::move(table)](std::size_t i) { return table[i]; });
}

/// Uniform pick among alternative generators. Shrinks within the chosen
/// alternative only (no cross-alternative jumps).
template <typename T>
Gen<T> one_of(std::vector<Gen<T>> alts) {
  RS_REQUIRE(!alts.empty(), "gen::one_of requires a non-empty alternative set");
  return Gen<T>([alts = std::move(alts)](Rng& rng) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(alts.size()) - 1));
    return alts[i].generate(rng);
  });
}

/// Vector of `elem` draws with a length drawn from [min_len, max_len].
/// Shrinks by dropping element chunks (never below min_len), then by
/// shrinking elements in place.
template <typename T>
Gen<std::vector<T>> vector_of(Gen<T> elem, std::size_t min_len,
                              std::size_t max_len) {
  RS_REQUIRE(min_len <= max_len, "gen::vector_of requires min_len <= max_len");
  return Gen<std::vector<T>>([elem = std::move(elem), min_len,
                              max_len](Rng& rng) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(min_len), static_cast<std::int64_t>(max_len)));
    std::vector<Shrinkable<T>> elems;
    elems.reserve(len);
    for (std::size_t i = 0; i < len; ++i) elems.push_back(elem.generate(rng));
    return shrinkable_vector(std::move(elems), min_len);
  });
}

namespace detail {

template <typename Tuple, std::size_t... Is>
Shrinkable<Tuple> shrinkable_tuple_impl(
    std::tuple<Shrinkable<std::tuple_element_t<Is, Tuple>>...> parts,
    std::index_sequence<Is...> seq) {
  Shrinkable<Tuple> s{Tuple{std::get<Is>(parts).value...}, nullptr};
  s.children = [parts = std::move(parts), seq]() {
    std::vector<Shrinkable<Tuple>> kids;
    // Shrink one component at a time, in component order.
    (
        [&] {
          for (auto& c : std::get<Is>(parts).shrinks()) {
            auto copy = parts;
            std::get<Is>(copy) = std::move(c);
            kids.push_back(shrinkable_tuple_impl<Tuple>(std::move(copy), seq));
          }
        }(),
        ...);
    return kids;
  };
  return s;
}

}  // namespace detail

/// Independent draws combined into a std::tuple; shrinks componentwise.
template <typename... Ts>
Gen<std::tuple<Ts...>> tuple_of(Gen<Ts>... gens) {
  return Gen<std::tuple<Ts...>>(
      [... gens = std::move(gens)](Rng& rng) {
        // Left-to-right evaluation: brace-init guarantees draw order.
        std::tuple<Shrinkable<Ts>...> parts{gens.generate(rng)...};
        return detail::shrinkable_tuple_impl<std::tuple<Ts...>>(
            std::move(parts), std::index_sequence_for<Ts...>{});
      });
}

template <typename A, typename B>
Gen<std::pair<A, B>> pair_of(Gen<A> a, Gen<B> b) {
  return tuple_of(std::move(a), std::move(b))
      .map([](const std::tuple<A, B>& t) {
        return std::pair<A, B>{std::get<0>(t), std::get<1>(t)};
      });
}

}  // namespace gen

// ---------------------------------------------------------------------
// Value printing for counterexample reports. Anything streamable prints
// through operator<<; doubles print %.17g (copy-pasteable exactly);
// vectors/pairs/tuples recurse; everything else prints a placeholder —
// pass an explicit printer to Checker::check for those.

namespace detail {

template <typename T, typename = void>
struct is_streamable : std::false_type {};
template <typename T>
struct is_streamable<T, std::void_t<decltype(std::declval<std::ostream&>()
                                             << std::declval<const T&>())>>
    : std::true_type {};

template <typename T>
struct is_vector : std::false_type {};
template <typename T>
struct is_vector<std::vector<T>> : std::true_type {};

template <typename T>
struct is_tuple_like : std::false_type {};
template <typename... Ts>
struct is_tuple_like<std::tuple<Ts...>> : std::true_type {};
template <typename A, typename B>
struct is_tuple_like<std::pair<A, B>> : std::true_type {};

}  // namespace detail

template <typename T>
std::string describe(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(v));
    return buf;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "\"" + v + "\"";
  } else if constexpr (detail::is_vector<T>::value) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ", ";
      out += describe(v[i]);
    }
    return out + "]";
  } else if constexpr (detail::is_tuple_like<T>::value) {
    std::string out = "(";
    bool first = true;
    std::apply(
        [&](const auto&... parts) {
          ((out += (first ? "" : ", ") + describe(parts), first = false), ...);
        },
        v);
    return out + ")";
  } else if constexpr (detail::is_streamable<T>::value) {
    std::ostringstream os;
    os << v;
    return os.str();
  } else {
    return "<value of an unprintable type — pass a printer to check()>";
  }
}

// ---------------------------------------------------------------------
// Checker: runs properties, shrinks failures, assembles the report.

/// Property outcome when a plain bool is not expressive enough: `note`
/// travels into the failure report alongside the counterexample.
struct Verdict {
  bool ok = true;
  std::string note;
};

/// Case-count / seed configuration after environment resolution.
struct PropParams {
  std::size_t cases = 0;
  std::uint64_t root_seed = kDefaultSeed;
  std::optional<std::uint64_t> replay_case_seed;
  std::size_t max_shrink_evals = 4000;
};

/// Resolves the effective parameters for one check: the environment
/// overrides (ROLESHARE_PROP_CASES / _SCALE / _SEED / _CASE_SEED) applied
/// to the test's default case count.
PropParams resolve_params(std::size_t default_cases);

class Checker {
 public:
  Checker(std::string test_id, std::size_t default_cases);
  /// Hermetic form for the framework's own tests: `params` is taken as
  /// given, with no environment resolution.
  Checker(std::string test_id, PropParams params);

  const std::string& test_id() const { return test_id_; }
  const PropParams& params() const { return params_; }

  bool failed() const { return !failure_message_.empty(); }
  const std::string& failure_message() const { return failure_message_; }

  /// Runs `property` against params().cases draws of `g`; on the first
  /// failure, shrinks greedily and records the report (also written to
  /// ROLESHARE_PROP_ARTIFACT_DIR when set). Returns true when the
  /// property held for every case. Later checks still run after a
  /// failure — each check() is an independent property.
  template <typename T, typename Prop>
  bool check(const Gen<T>& g, Prop&& property) {
    return check(g, std::forward<Prop>(property),
                 [](const T& v) { return describe(v); });
  }

  template <typename T, typename Prop, typename Print>
  bool check(const Gen<T>& g, Prop&& property, Print&& printer) {
    const std::size_t check_index = checks_run_++;
    Rng check_stream = test_stream_.split(check_index);
    const std::size_t cases = params_.replay_case_seed ? 1 : params_.cases;
    for (std::size_t i = 0; i < cases; ++i) {
      const std::uint64_t case_seed = params_.replay_case_seed
                                          ? *params_.replay_case_seed
                                          : check_stream.derive_seed(i);
      Rng rng(case_seed);
      std::optional<Shrinkable<T>> root;
      try {
        root.emplace(g.generate(rng));
      } catch (const std::exception& e) {
        record_failure(check_index, i, case_seed, 0, 0,
                       "<generator threw before producing a value>",
                       std::string("generator exception: ") + e.what());
        return false;
      }
      Shrinkable<T>& drawn = *root;
      Verdict v = eval(property, drawn.value);
      if (v.ok) continue;
      // Greedy descent: first failing child becomes the new candidate.
      std::size_t evals = 0;
      std::size_t steps = 0;
      bool progress = true;
      while (progress && evals < params_.max_shrink_evals) {
        progress = false;
        for (auto& cand : drawn.shrinks()) {
          if (++evals > params_.max_shrink_evals) break;
          Verdict cv = eval(property, cand.value);
          if (!cv.ok) {
            // emplace, not assignment: T need not be assignable.
            root.emplace(std::move(cand));
            v = std::move(cv);
            ++steps;
            progress = true;
            break;
          }
        }
      }
      record_failure(check_index, i, case_seed, steps, evals,
                     printer(drawn.value), v.note);
      return false;
    }
    return true;
  }

 private:
  template <typename Prop, typename T>
  static Verdict eval(Prop& property, const T& value) {
    try {
      using R = decltype(property(value));
      if constexpr (std::is_void_v<R>) {
        property(value);
        return Verdict{};
      } else if constexpr (std::is_same_v<std::decay_t<R>, Verdict>) {
        return property(value);
      } else {
        return Verdict{static_cast<bool>(property(value)), {}};
      }
    } catch (const std::exception& e) {
      return Verdict{false, std::string("exception: ") + e.what()};
    } catch (...) {
      return Verdict{false, "non-standard exception"};
    }
  }

  void record_failure(std::size_t check_index, std::size_t case_index,
                      std::uint64_t case_seed, std::size_t shrink_steps,
                      std::size_t shrink_evals,
                      const std::string& counterexample,
                      const std::string& note);

  std::string test_id_;
  PropParams params_;
  Rng test_stream_;
  std::size_t checks_run_ = 0;
  std::string failure_message_;
};

}  // namespace roleshare::util::proptest

// ---------------------------------------------------------------------
// The gtest glue. PROP_TEST_WITH_PARAMS(Suite, Name, cases) mirrors
// RC_GTEST_PROP_WITH_PARAMS: the body receives `prop` (a Checker&) and
// calls prop.check(gen, property) one or more times; the expansion FAILs
// the gtest case with the full shrink report when any check failed.
// Requires <gtest/gtest.h> to be included first.
#define PROP_TEST_WITH_PARAMS(Suite, Name, Cases)                            \
  static void RsPropImpl_##Suite##_##Name(                                   \
      ::roleshare::util::proptest::Checker& prop);                           \
  TEST(Suite, Name) {                                                        \
    ::roleshare::util::proptest::Checker prop(#Suite "." #Name, (Cases));    \
    RsPropImpl_##Suite##_##Name(prop);                                       \
    if (prop.failed()) FAIL() << prop.failure_message();                     \
  }                                                                          \
  static void RsPropImpl_##Suite##_##Name(                                   \
      ::roleshare::util::proptest::Checker& prop)

#define PROP_TEST(Suite, Name) PROP_TEST_WITH_PARAMS(Suite, Name, 200)
