#include "runner/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/crc32.h"
#include "util/log.h"

namespace nvsram::runner::checkpoint {

namespace {

constexpr const char* kMagicV1 = "nvsram-sweep-checkpoint v1";
constexpr const char* kMagicV2 = "nvsram-sweep-checkpoint v2";

std::string join_columns(const std::vector<std::string>& columns) {
  std::string out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out += ',';
    out += columns[i];
  }
  return out;
}

// Formats one row's value text (shared by store and the CRC check so the
// checksummed bytes are exactly the bytes written).
std::string format_row(const std::vector<double>& row) {
  std::string text;
  char buf[64];
  for (std::size_t i = 0; i < row.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", row[i]);
    if (i) text += ' ';
    text += buf;
  }
  return text;
}

// Appends one point record (header line plus one CRC-suffixed line per
// row) to `out`.
void format_record(std::size_t index, const Rows& rows, std::string& out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "point=%zu rows=%zu\n", index, rows.size());
  out += buf;
  for (const auto& row : rows) {
    const std::string text = format_row(row);
    std::snprintf(buf, sizeof(buf), " *%08x\n", util::crc32(text));
    out += text;
    out += buf;
  }
}

}  // namespace

std::map<std::size_t, Rows> load(const std::string& path,
                                 const std::string& name,
                                 const std::vector<std::string>& columns,
                                 std::size_t n_points) {
  std::map<std::size_t, Rows> done;
  std::ifstream in(path);
  if (!in) return done;

  std::string line;
  if (!std::getline(in, line)) return done;
  const bool v2 = line == kMagicV2;
  if (!v2 && line != kMagicV1) return done;
  if (!std::getline(in, line) || line != "name=" + name) return done;
  if (!std::getline(in, line) || line != "columns=" + join_columns(columns)) {
    return done;
  }

  // Every exit below this point returns the records that verified cleanly:
  // a damaged tail rewinds, it does not invalidate the whole file.
  auto rewind = [&](const std::string& why) {
    util::log_warn() << "checkpoint " << path << ": " << why
                     << "; resuming from the last valid prefix (" << done.size()
                     << " point" << (done.size() == 1 ? "" : "s") << ")";
    return done;
  };

  while (std::getline(in, line)) {
    if (line == "end") break;
    std::size_t index = 0, n_rows = 0;
    if (std::sscanf(line.c_str(), "point=%zu rows=%zu", &index, &n_rows) != 2) {
      return rewind("malformed record header '" + line + "'");
    }
    Rows rows;
    rows.reserve(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      if (!std::getline(in, line)) {
        return rewind("truncated mid-record at point " + std::to_string(index));
      }
      std::string values = line;
      if (v2) {
        const std::size_t star = line.rfind(" *");
        unsigned long crc = 0;
        if (star == std::string::npos ||
            std::sscanf(line.c_str() + star + 2, "%lx", &crc) != 1) {
          return rewind("missing row CRC at point " + std::to_string(index));
        }
        values = line.substr(0, star);
        if (static_cast<std::uint32_t>(crc) != util::crc32(values)) {
          return rewind("row CRC mismatch at point " + std::to_string(index));
        }
      }
      std::istringstream is(values);
      std::vector<double> row;
      double v = 0.0;
      while (is >> v) row.push_back(v);
      if (row.size() != columns.size() || !is.eof()) {
        return rewind("garbled row at point " + std::to_string(index));
      }
      rows.push_back(std::move(row));
    }
    if (index < n_points) done.emplace(index, std::move(rows));
  }
  return done;
}

void store(const std::string& path, const std::string& name,
           const std::vector<std::string>& columns,
           const std::map<std::size_t, Rows>& done) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot write " + tmp);
    }
    out << kMagicV2 << '\n'
        << "name=" << name << '\n'
        << "columns=" << join_columns(columns) << '\n';
    std::string records;
    for (const auto& [index, rows] : done) format_record(index, rows, records);
    out << records;
    out.flush();
    if (!out) {
      throw std::runtime_error("checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  }
}

Appender::Appender(const std::string& path)
    : path_(path), out_(path, std::ios::app) {
  if (!out_) throw std::runtime_error("checkpoint: cannot append to " + path);
}

void Appender::append(std::size_t index, const Rows& rows) {
  buffer_.clear();
  format_record(index, rows, buffer_);
  out_ << buffer_;
  out_.flush();
  if (!out_) throw std::runtime_error("checkpoint: write failed for " + path_);
}

void remove(const std::string& path) { std::remove(path.c_str()); }

}  // namespace nvsram::runner::checkpoint
