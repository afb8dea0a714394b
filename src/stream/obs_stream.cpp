#include "stream/obs_stream.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace tomo::stream {

namespace {

/// The `congested <path> <snapshot>...` rows of a block — the body shared
/// by classic files and stream windows. Congested = the good bit is clear;
/// paths never congested get no row.
void write_congested_rows(std::ostream& os,
                          const sim::MeasurementBlock& block) {
  for (sim::PathId p = 0; p < block.path_count; ++p) {
    const std::uint64_t* good = block.good_row(p);
    bool any = false;
    for (std::size_t n = 0; n < block.snapshot_count; ++n) {
      if ((good[n / 64] >> (n % 64)) & 1) continue;
      if (!any) {
        os << "congested " << p;
        any = true;
      }
      os << ' ' << n;
    }
    if (any) os << '\n';
  }
}

}  // namespace

void write_observations(std::ostream& os, const sim::MeasurementBlock& block) {
  TOMO_REQUIRE(!block.empty(), "cannot serialize an empty measurement block");
  os << "tomo-observations v1\n";
  os << "paths " << block.path_count << " snapshots " << block.snapshot_count
     << '\n';
  write_congested_rows(os, block);
}

void save_observations(const std::string& filename,
                       const sim::MeasurementBlock& block) {
  std::ofstream os(filename);
  TOMO_REQUIRE(os.good(), "cannot open " + filename + " for writing");
  write_observations(os, block);
  TOMO_REQUIRE(os.good(), "failed writing " + filename);
}

sim::MeasurementBlock read_trace(std::istream& is, std::size_t expected_paths) {
  ObsStreamReader reader(is, expected_paths);
  sim::MeasurementBlock all;
  while (auto window = reader.next()) {
    if (reader.batch_format()) return std::move(*window);
    all.append(*window);
  }
  reader.require_complete();
  TOMO_REQUIRE(!all.empty(), "trace contains no observations");
  return all;
}

sim::MeasurementBlock load_trace(const std::string& filename,
                                 std::size_t expected_paths) {
  std::ifstream is(filename);
  TOMO_REQUIRE(is.good(), "cannot open " + filename);
  return read_trace(is, expected_paths);
}

ObsStreamWriter::ObsStreamWriter(std::ostream& os, std::size_t path_count)
    : os_(os), path_count_(path_count) {
  TOMO_REQUIRE(path_count > 0, "obs stream needs at least one path");
  os_ << "tomo-obs-stream v1\n";
  os_ << "paths " << path_count << '\n';
  os_.flush();
}

void ObsStreamWriter::write_window(const sim::MeasurementBlock& window) {
  TOMO_REQUIRE(!closed_, "obs stream already closed");
  TOMO_REQUIRE(window.path_count == path_count_,
               "window path count does not match the stream header");
  os_ << "window " << window.snapshot_count << '\n';
  write_congested_rows(os_, window);
  os_ << "end\n";
  os_.flush();
}

void ObsStreamWriter::close() {
  if (closed_) return;
  closed_ = true;
  os_ << "close\n";
  os_.flush();
}

ObsStreamReader::ObsStreamReader(std::istream& is, std::size_t expected_paths)
    : is_(is), expected_paths_(expected_paths) {}

void ObsStreamReader::fail(const std::string& what) const {
  throw Error("obs-stream line " + std::to_string(line_no_) + ": " + what);
}

void ObsStreamReader::require_complete() const {
  if (!carry_.empty()) {
    throw Error("obs-stream line " + std::to_string(line_no_ + 1) +
                ": input ends in an unterminated line");
  }
  if (pending_.has_value()) {
    throw Error("obs-stream line " + std::to_string(pending_line_) +
                ": window cut off before its 'end' marker");
  }
}

/// Rejects dimensions whose bit block (paths x ceil(snapshots / 64) words)
/// is above kMaxBlockBits, before anything is allocated.
void ObsStreamReader::check_block_size(std::size_t paths,
                                       std::size_t snapshots) const {
  const std::size_t max_words = kMaxBlockBits / 64;
  const std::size_t words = snapshots / 64 + (snapshots % 64 != 0 ? 1 : 0);
  if (paths > max_words / words) {
    fail("observation block of " + std::to_string(paths) + " paths x " +
         std::to_string(snapshots) + " snapshots is over the " +
         std::to_string(kMaxBlockBits >> 23) + " MiB block cap");
  }
}

bool ObsStreamReader::parse_line(std::string line) {
  ++line_no_;
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  std::istringstream ls(line);
  std::string tag;
  if (!(ls >> tag)) return false;

  if (!have_header_) {
    std::string version;
    const bool known =
        tag == "tomo-obs-stream" || tag == "tomo-observations";
    if (!known || !(ls >> version) || version != "v1") {
      fail("expected 'tomo-obs-stream v1' or 'tomo-observations v1'");
    }
    batch_ = tag == "tomo-observations";
    have_header_ = true;
    return false;
  }
  if (closed_) fail("content after the close marker");

  if (tag == "paths") {
    if (paths_ != 0) fail("duplicate dimension line");
    std::size_t snapshots = 0;
    if (batch_) {
      std::string snap_tag;
      if (!(ls >> paths_ >> snap_tag >> snapshots) ||
          snap_tag != "snapshots") {
        fail("malformed dimension line");
      }
      if (paths_ == 0 || snapshots == 0) fail("empty observation matrix");
    } else if (!(ls >> paths_) || paths_ == 0) {
      fail("malformed paths line");
    }
    if (expected_paths_ != 0 && paths_ != expected_paths_) {
      fail("header declares " + std::to_string(paths_) +
           " paths but the topology has " + std::to_string(expected_paths_));
    }
    check_block_size(paths_, batch_ ? snapshots : 1);
    if (batch_) {
      pending_ = sim::MeasurementBlock::all_good(paths_, snapshots);
      pending_line_ = line_no_;
    }
    return false;
  }
  if (tag == "window") {
    if (batch_) fail("window marker in a batch observation file");
    if (paths_ == 0) fail("window before the paths line");
    if (pending_.has_value()) fail("nested window");
    std::size_t count = 0;
    if (!(ls >> count) || count == 0) fail("malformed window line");
    check_block_size(paths_, count);
    pending_ = sim::MeasurementBlock::all_good(paths_, count);
    pending_line_ = line_no_;
    return false;
  }
  if (tag == "congested") {
    if (!pending_.has_value()) {
      fail(batch_ ? "congested line before dimensions"
                  : "congested line outside a window");
    }
    std::size_t p = 0;
    if (!(ls >> p)) fail("malformed congested line");
    if (p >= paths_) fail("path id out of range");
    std::uint64_t* row = pending_->good_row(p);
    std::size_t n = 0;
    while (ls >> n) {
      if (n >= pending_->snapshot_count) fail("snapshot id out of range");
      row[n / 64] &= ~(std::uint64_t{1} << (n % 64));
    }
    return false;
  }
  if (tag == "end") {
    if (batch_) fail("end marker in a batch observation file");
    if (!pending_.has_value()) fail("end without a window");
    pending_->recount();
    return true;
  }
  if (tag == "close") {
    if (batch_) fail("close marker in a batch observation file");
    if (pending_.has_value()) fail("close inside a window");
    closed_ = true;
    return false;
  }
  fail("unknown tag '" + tag + "'");
}

std::optional<sim::MeasurementBlock> ObsStreamReader::next() {
  if (closed_) return std::nullopt;
  std::string line;
  while (std::getline(is_, line)) {
    if (is_.eof()) {
      if (batch_) {
        // A complete classic file whose last line lacks a newline: parse
        // it, then fall through to the single-window finalization.
        if (!carry_.empty()) {
          line = carry_ + line;
          carry_.clear();
        }
        parse_line(std::move(line));
        break;
      }
      // The trailing line has no terminator yet — it may still be mid-
      // write by the producer. Buffer it; a retry after clear() resumes.
      carry_ += line;
      return std::nullopt;
    }
    if (!carry_.empty()) {
      line = carry_ + line;
      carry_.clear();
    }
    if (parse_line(std::move(line))) {
      sim::MeasurementBlock window = std::move(*pending_);
      pending_.reset();
      return window;
    }
  }
  if (batch_ && pending_.has_value()) {
    // Classic complete file: EOF is the delimiter of its single window.
    pending_->recount();
    closed_ = true;
    sim::MeasurementBlock block = std::move(*pending_);
    pending_.reset();
    return block;
  }
  return std::nullopt;
}

}  // namespace tomo::stream
