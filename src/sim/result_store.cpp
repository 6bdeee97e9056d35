#include "sim/result_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/framed_io.hpp"
#include "util/require.hpp"

namespace roleshare::sim {

namespace fs = std::filesystem;
namespace framed = util::framed;

namespace {

constexpr std::uint32_t kStoreMagic = framed::magic4('R', 'S', 'R', 'S');
constexpr std::uint16_t kStoreVersion = 1;
constexpr const char* kEntrySuffix = ".rsr";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Frames key id + payload into one entry file's bytes.
std::string encode_entry(const ResultKey& key, std::string_view payload) {
  framed::Writer w(kStoreMagic, kStoreVersion);
  w.begin_section("key");
  w.put_string(key.id());
  w.end_section();
  w.begin_section("payload");
  w.put_string(payload);
  w.end_section();
  return w.finish();
}

/// Inverts encode_entry; throws framed::Error on any corruption. When
/// `expected_id` is non-empty the stored key id must match it (the
/// file-name digest collision guard).
std::string decode_entry(std::string_view bytes, const std::string& origin,
                         const std::string& expected_id) {
  framed::Reader r(bytes, kStoreMagic, kStoreVersion, origin);
  r.begin_section("key");
  const std::string id = r.get_string();
  r.end_section();
  if (!expected_id.empty() && id != expected_id) {
    throw framed::Error(origin + ": entry holds key \"" + id +
                        "\" but \"" + expected_id +
                        "\" was requested — digest collision or tampered "
                        "entry");
  }
  r.begin_section("payload");
  std::string payload = r.get_string();
  r.end_section();
  r.finish();
  return payload;
}

}  // namespace

std::string ResultKey::id() const {
  RS_REQUIRE(!kind.empty() && !bench.empty() && !spec_hash.empty(),
             "ResultKey needs kind, bench and spec_hash");
  RS_REQUIRE(run_begin < run_end,
             "ResultKey window [" + std::to_string(run_begin) + ", " +
                 std::to_string(run_end) + ") is empty");
  return kind + "/" + bench + "/" + spec_hash + "/" + to_string(backend) +
         "/[" + std::to_string(run_begin) + "," + std::to_string(run_end) +
         ")";
}

std::string ResultKey::entry_name() const {
  return hex16(framed::fnv1a_64(id())) + kEntrySuffix;
}

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {
  RS_REQUIRE(!root_.empty(), "ResultStore needs a directory path");
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec || !fs::is_directory(root_)) {
    throw std::runtime_error("result store root " + root_ +
                             " is not a usable directory" +
                             (ec ? ": " + ec.message() : ""));
  }
}

std::string ResultStore::entry_path(const ResultKey& key) const {
  return (fs::path(root_) / key.entry_name()).string();
}

std::optional<std::string> ResultStore::lookup(const ResultKey& key) const {
  const std::string path = entry_path(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;
  try {
    return decode_entry(util::read_file(path), path, key.id());
  } catch (const std::exception&) {
    // Corrupt, truncated, foreign or unreadable — a recompute, never a
    // failed sweep. gc() reaps such entries.
    return std::nullopt;
  }
}

std::string ResultStore::insert(const ResultKey& key,
                                std::string_view payload) {
  const std::string final_path = entry_path(key);
  util::write_file_atomically(final_path, encode_entry(key, payload));
  return final_path;
}

GcStats ResultStore::gc(std::uint64_t max_total_bytes) {
  GcStats stats;
  struct Entry {
    fs::path path;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<Entry> valid;

  for (const fs::directory_entry& de : fs::directory_iterator(root_)) {
    const fs::path& path = de.path();
    const std::string name = path.filename().string();
    // Orphaned temp files (a writer died mid-insert) are corrupt debris.
    if (name.find(".tmp.") != std::string::npos) {
      fs::remove(path);
      ++stats.corrupt_removed;
      continue;
    }
    if (name.size() < 5 ||
        name.compare(name.size() - 4, 4, kEntrySuffix) != 0) {
      continue;  // not ours — leave foreign files alone
    }
    bool ok = false;
    try {
      decode_entry(util::read_file(path.string()), path.string(), "");
      ok = true;
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      fs::remove(path);
      ++stats.corrupt_removed;
      continue;
    }
    valid.push_back({path, de.file_size(), de.last_write_time()});
  }

  if (max_total_bytes > 0) {
    std::uint64_t total = 0;
    for (const Entry& e : valid) total += e.bytes;
    // Oldest first; ties broken by path for determinism.
    std::sort(valid.begin(), valid.end(), [](const Entry& a, const Entry& b) {
      return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
    });
    std::size_t keep_from = 0;
    while (total > max_total_bytes && keep_from < valid.size()) {
      total -= valid[keep_from].bytes;
      fs::remove(valid[keep_from].path);
      ++stats.evicted;
      ++keep_from;
    }
    valid.erase(valid.begin(),
                valid.begin() + static_cast<std::ptrdiff_t>(keep_from));
  }

  stats.entries_kept = valid.size();
  for (const Entry& e : valid) stats.bytes_kept += e.bytes;
  return stats;
}

}  // namespace roleshare::sim
