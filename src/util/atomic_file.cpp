#include "util/atomic_file.hpp"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include <unistd.h>

namespace roleshare::util {

void write_file_atomically(const std::string& path, std::string_view bytes) {
  // Unique temp name per writer: pid + a process-wide counter.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp_path =
      path + ".tmp." +
      std::to_string(static_cast<unsigned long>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1));
  const auto fail = [&](const std::string& what) {
    std::error_code ignored;
    std::filesystem::remove(tmp_path, ignored);
    throw std::runtime_error(what + " — " + path + " is unchanged");
  };

  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot create temp file " + tmp_path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // close() flushes; a failed flush or a failed earlier write both leave
  // the stream failed.
  out.close();
  if (!out) fail("short write to temp file " + tmp_path);
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) fail("cannot rename " + tmp_path + " into place: " + ec.message());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace roleshare::util
