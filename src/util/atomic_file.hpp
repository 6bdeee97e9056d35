// Whole-file replacement that never leaves a half-written target: the
// one write path of shard partials, checkpoints, series documents and
// result-store entries (DESIGN.md §9.3).
#pragma once

#include <string>
#include <string_view>

namespace roleshare::util {

/// Replaces `path` with `bytes`. The bytes go to a unique temp file in
/// the target's directory (`<path>.tmp.<pid>.<seq>`, so the rename stays
/// within one filesystem), which is flushed, checked and renamed over
/// `path` — readers see the old file or the new one, never a torn one,
/// and concurrent writers of one path all succeed (last rename wins).
/// On any failure the temp file is removed, `path` keeps its previous
/// contents, and std::runtime_error names `path`. No fsync: a rename
/// survives a process crash, not a power loss.
void write_file_atomically(const std::string& path, std::string_view bytes);

}  // namespace roleshare::util
