#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

#include "crypto/sha256.hpp"
#include "trace.hpp"
#include "util/hex.hpp"

namespace rsbench {

namespace json = roleshare::util::json;

Records::Records(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) throw std::runtime_error("cannot write " + path);
}

Records::~Records() { std::fclose(file_); }

void Records::write(const json::Value& record) {
  const std::string line = record.dump() + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

void Records::metric(const std::string& name, double value,
                     const char* unit) {
  json::Value v = json::Value::object();
  v.set("kind", "metric");
  v.set("name", name);
  v.set("value", value);
  v.set("unit", unit);
  write(v);
}

void Records::check(const std::string& name, bool ok,
                    const std::string& detail) {
  json::Value v = json::Value::object();
  v.set("kind", "check");
  v.set("name", name);
  v.set("ok", ok);
  v.set("detail", detail);
  write(v);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {
double peak_rss_mb(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}
}  // namespace

double peak_rss_self_mb() { return peak_rss_mb(RUSAGE_SELF); }
double peak_rss_children_mb() { return peak_rss_mb(RUSAGE_CHILDREN); }

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::string sha256_hex(std::string_view text) {
  const auto digest = roleshare::crypto::sha256(text);
  return roleshare::util::to_hex(digest);
}

// ------------------------------------------------------------------ Tracer

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name)
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

void Tracer::append_to(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& span : spans_) {
    json::Value v = json::Value::object();
    v.set("name", span.name);
    v.set("start_ns", span.start_ns);
    v.set("end_ns", span.end_ns);
    v.set("parent", span.parent);
    v.set("run", run_id_);
    out << v.dump() << '\n';
  }
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0)
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
  }
  std::vector<SelfTime> table;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto [it, fresh] = slot.try_emplace(spans_[i].name, table.size());
    if (fresh) table.push_back({spans_[i].name, 0, 0.0, 0.0});
    SelfTime& row = table[it->second];
    const double total =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    ++row.count;
    row.total_ms += total / 1e6;
    row.self_ms += (total - child_ns[i]) / 1e6;
  }
  return table;
}

std::vector<double> span_file_durations_ms(const std::string& path,
                                           std::string_view name) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<double> out;
  std::string line;
  while (std::getline(in, line)) {
    const json::Value v = json::parse(line);
    if (v.at("name").as_string() != name) continue;
    out.push_back((v.at("end_ns").as_number() - v.at("start_ns").as_number()) /
                  1e6);
  }
  return out;
}

}  // namespace rsbench
