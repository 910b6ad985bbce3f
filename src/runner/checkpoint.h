// Sweep checkpoint file: the completed points of a sweep with their CSV row
// values.  The header and any resumed prefix are written once (atomically,
// tmp + rename); after that every completed point appends one record and
// flushes it, so a commit costs the same at point 10 as at point 10,000.
//
// Format v2 (text, line-based):
//   nvsram-sweep-checkpoint v2
//   name=<runner name>
//   columns=<c1,c2,...>
//   point=<index> rows=<k>
//   <v1> <v2> ... *<crc32 hex>   (k lines, values in %.17g round-trip
//                                 precision; CRC-32 of the value text)
//   ...
//   [end]                        (optional; older writers emitted it)
//
// The per-row CRC makes corruption detectable, not just truncation: on
// load, a garbled or torn tail (bad CRC, short record, malformed header
// line) rewinds the resume set to the last record that verified cleanly
// and logs a warning — the damaged points are simply recomputed.  A crash
// mid-append leaves exactly such a torn tail.  v1 files (no CRC suffix)
// still load, so checkpoints written before the format bump resume
// unchanged.
//
// A checkpoint whose name or column list does not match the running sweep
// is stale and ignored.  Values round-trip exactly through %.17g, so a
// resumed sweep reproduces byte-identical CSV output.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace nvsram::runner {

using Rows = std::vector<std::vector<double>>;

namespace checkpoint {

// Loads the completed points of `path`.  Returns an empty map when the file
// is absent or stale (name/columns mismatch); returns the longest valid
// prefix (with a logged warning) when the tail is truncated, garbled, or
// fails its CRC; drops indices >= n_points.
std::map<std::size_t, Rows> load(const std::string& path,
                                 const std::string& name,
                                 const std::vector<std::string>& columns,
                                 std::size_t n_points);

// Atomically replaces `path` with the given completed set (format v2).
// Throws std::runtime_error when the file cannot be written.
void store(const std::string& path, const std::string& name,
           const std::vector<std::string>& columns,
           const std::map<std::size_t, Rows>& done);

// Append handle on a checkpoint that store() has written.
class Appender {
 public:
  // Opens `path` for appending; throws std::runtime_error on failure.
  explicit Appender(const std::string& path);
  // Appends one point record and flushes it to the OS, so it survives a
  // process kill right after.  Throws std::runtime_error on a write error.
  void append(std::size_t index, const Rows& rows);

 private:
  std::string path_;
  std::ofstream out_;
  std::string buffer_;
};

// Deletes the checkpoint file if present.
void remove(const std::string& path);

}  // namespace checkpoint
}  // namespace nvsram::runner
