#include "src/dist/journal.h"

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/util/crc32.h"

namespace revisim::dist {
namespace {

// The last byte is the layout version: "2" since kDone records carry the
// wire v4 SubtreeResult summary.
constexpr char kJournalMagic[8] = {'R', 'V', 'S', 'J', 'R', 'N', 'L', '2'};

enum RecordType : std::uint8_t {
  kConfig = 1,
  kCreated = 2,
  kDone = 3,
  kDiscarded = 4,
};

void encode_config(WireWriter& w, const JournalConfig& c) {
  w.str(c.tag);
  w.u64(c.max_steps);
  w.u64(c.max_executions);
  w.u64(c.max_crashes);
  w.u8(c.por ? 1 : 0);
  w.u8(c.dedupe ? 1 : 0);
  w.u8(c.record_traces ? 1 : 0);
}

JournalConfig decode_config(WireReader& r) {
  JournalConfig c;
  c.tag = r.str();
  c.max_steps = r.u64();
  c.max_executions = r.u64();
  c.max_crashes = r.u64();
  c.por = r.u8() != 0;
  c.dedupe = r.u8() != 0;
  c.record_traces = r.u8() != 0;
  r.expect_done();
  return c;
}

}  // namespace

void JournalWriter::create(const std::string& path,
                           const JournalConfig& config) {
  std::lock_guard<std::mutex> g(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw WireError("journal: cannot create " + path + ": " +
                    std::strerror(errno));
  }
  if (std::fwrite(kJournalMagic, 1, sizeof kJournalMagic, file_) !=
      sizeof kJournalMagic) {
    throw WireError("journal: short write to " + path);
  }
  body_.clear();
  encode_config(body_, config);
  record(kConfig, body_);
}

void JournalWriter::append_to(const std::string& path) {
  std::lock_guard<std::mutex> g(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw WireError("journal: cannot append to " + path + ": " +
                    std::strerror(errno));
  }
}

void JournalWriter::close() {
  std::lock_guard<std::mutex> g(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void JournalWriter::record(std::uint8_t type, const WireWriter& payload) {
  if (file_ == nullptr) {
    return;
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t head[5];
  for (int i = 0; i < 4; ++i) {
    head[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  head[4] = type;
  std::uint32_t crc = util::crc32(0, head + 4, 1);
  crc = util::crc32(crc, payload.data(), payload.size());
  std::uint8_t tail[4];
  for (int i = 0; i < 4; ++i) {
    tail[i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  if (std::fwrite(head, 1, sizeof head, file_) != sizeof head ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size() ||
      std::fwrite(tail, 1, sizeof tail, file_) != sizeof tail) {
    throw WireError("journal: short write");
  }
  std::fflush(file_);
}

void JournalWriter::job_created(std::uint64_t id, bool has_parent,
                                std::uint64_t parent,
                                const std::vector<runtime::ProcessId>& prefix,
                                const std::vector<runtime::ProcessId>& choices,
                                const std::vector<runtime::ProcessId>& sleep,
                                std::uint32_t sleep_inherited) {
  std::lock_guard<std::mutex> g(mu_);
  body_.clear();
  body_.u64(id);
  body_.u8(has_parent ? 1 : 0);
  body_.u64(parent);
  body_.schedule(prefix);
  body_.schedule(choices);
  body_.schedule(sleep);
  body_.u32(sleep_inherited);
  record(kCreated, body_);
}

void JournalWriter::job_done(std::uint64_t id,
                             const check::detail::SubtreeResult& result) {
  std::lock_guard<std::mutex> g(mu_);
  body_.clear();
  body_.u64(id);
  encode_subtree_result(body_, result);
  record(kDone, body_);
}

void JournalWriter::job_discarded(std::uint64_t id) {
  std::lock_guard<std::mutex> g(mu_);
  body_.clear();
  body_.u64(id);
  record(kDiscarded, body_);
}

JournalContents read_journal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw WireError("journal: cannot read " + path + ": " +
                    std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  {
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  constexpr std::size_t kStem = sizeof kJournalMagic - 1;
  if (bytes.size() < sizeof kJournalMagic ||
      std::memcmp(bytes.data(), kJournalMagic, kStem) != 0) {
    throw WireError("journal: " + path + " is not a revisim run journal");
  }
  if (bytes[kStem] != static_cast<std::uint8_t>(kJournalMagic[kStem])) {
    throw WireError("journal: " + path + " has layout version " +
                    std::string(1, static_cast<char>(bytes[kStem])) +
                    ", this binary reads " +
                    std::string(1, kJournalMagic[kStem]));
  }

  JournalContents out;
  std::unordered_map<std::uint64_t, std::size_t> index;
  bool have_config = false;
  std::size_t off = sizeof kJournalMagic;
  while (off < bytes.size()) {
    // A record that does not fully fit, or fails its crc, is the torn
    // tail: stop and report how much was dropped.
    if (bytes.size() - off < 9) {
      break;
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= std::uint32_t{bytes[off + i]} << (8 * i);
    }
    if (len > kMaxFrameBytes || bytes.size() - off < 9 + std::size_t{len}) {
      break;
    }
    const std::uint8_t type = bytes[off + 4];
    const std::uint8_t* payload = bytes.data() + off + 5;
    std::uint32_t want = 0;
    for (int i = 0; i < 4; ++i) {
      want |= std::uint32_t{bytes[off + 5 + len + i]} << (8 * i);
    }
    std::uint32_t crc = util::crc32(0, &type, 1);
    crc = util::crc32(crc, payload, len);
    if (crc != want) {
      break;
    }

    // A record that passed its crc but does not parse (unknown id/type,
    // reader underflow) is corruption a tear cannot explain: WireError
    // propagates to the caller.
    WireReader r(payload, len);
    {
      switch (type) {
        case kConfig:
          out.config = decode_config(r);
          have_config = true;
          break;
        case kCreated: {
          JournalJob job;
          job.id = r.u64();
          job.has_parent = r.u8() != 0;
          job.parent = r.u64();
          job.prefix = r.schedule();
          job.choices = r.schedule();
          job.sleep = r.schedule();
          job.sleep_inherited = r.u32();
          r.expect_done();
          index[job.id] = out.jobs.size();
          out.jobs.push_back(std::move(job));
          break;
        }
        case kDone: {
          const std::uint64_t id = r.u64();
          check::detail::SubtreeResult result = decode_subtree_result(r);
          r.expect_done();
          const auto it = index.find(id);
          if (it == index.end()) {
            throw WireError("journal: done record for unknown job " +
                            std::to_string(id));
          }
          out.jobs[it->second].done = true;
          out.jobs[it->second].result = std::move(result);
          break;
        }
        case kDiscarded: {
          const std::uint64_t id = r.u64();
          r.expect_done();
          const auto it = index.find(id);
          if (it == index.end()) {
            throw WireError("journal: discard record for unknown job " +
                            std::to_string(id));
          }
          out.jobs[it->second].discarded = true;
          break;
        }
        default:
          throw WireError("journal: unknown record type " +
                          std::to_string(type));
      }
    }
    off += 9 + std::size_t{len};
  }
  out.dropped_tail_bytes = bytes.size() - off;
  if (!have_config) {
    throw WireError("journal: " + path + " has no config record");
  }
  return out;
}

}  // namespace revisim::dist
