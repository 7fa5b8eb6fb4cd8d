#include "src/dist/wire.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/crc32.h"

namespace revisim::dist {
namespace {

using runtime::ProcessId;

constexpr std::uint64_t kWireCrashBit = std::uint64_t{1} << 63;

// The largest pid a wire entry can carry on this host: ProcessId may be
// narrower than 64 bits, and its own top bit is the crash flag.
constexpr std::uint64_t kMaxWirePid =
    static_cast<std::uint64_t>(runtime::kCrashEntryBit) - 1;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

sockaddr_in ipv4_address(const std::string& host, std::uint16_t port,
                         const char* who) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw WireError(std::string(who) + ": bad host address " + host);
  }
  return addr;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

std::uint64_t entry_to_wire(ProcessId entry) {
  if (runtime::is_crash_entry(entry)) {
    return static_cast<std::uint64_t>(runtime::crash_entry_target(entry)) |
           kWireCrashBit;
  }
  return static_cast<std::uint64_t>(entry);
}

ProcessId entry_from_wire(std::uint64_t wire) {
  const bool crash = (wire & kWireCrashBit) != 0;
  const std::uint64_t pid = wire & ~kWireCrashBit;
  if (pid > kMaxWirePid) {
    throw WireError("wire schedule entry pid " + std::to_string(pid) +
                    " does not fit the host ProcessId");
  }
  const auto p = static_cast<ProcessId>(pid);
  return crash ? runtime::make_crash_entry(p) : p;
}

// --- WireWriter --------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::str(const std::string& v) {
  if (v.size() > kMaxFrameBytes) {
    throw WireError("string too large to serialize");
  }
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void WireWriter::schedule(const std::vector<ProcessId>& entries) {
  if (entries.size() > kMaxFrameBytes / 8) {
    throw WireError("schedule too large to serialize");
  }
  u32(static_cast<std::uint32_t>(entries.size()));
  for (const ProcessId e : entries) {
    entry(e);
  }
}

void WireWriter::region(const check::detail::Donation& d) {
  schedule(d.prefix);
  schedule(d.choices);
}

void WireWriter::fingerprint(util::Fingerprint fp) {
  u64(fp.hi);
  u64(fp.lo);
}

// --- WireReader --------------------------------------------------------------

void WireReader::need(std::size_t n) const {
  if (size_ - off_ < n) {
    throw WireError("truncated wire payload (need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(off_) + " of " +
                    std::to_string(size_) + ")");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return p_[off_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (std::uint16_t{p_[off_ + i]} << (8 * i)));
  }
  off_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{p_[off_ + i]} << (8 * i);
  }
  off_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{p_[off_ + i]} << (8 * i);
  }
  off_ += 8;
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string v(reinterpret_cast<const char*>(p_ + off_), n);
  off_ += n;
  return v;
}

std::vector<ProcessId> WireReader::schedule() {
  const std::uint32_t n = u32();
  // Each entry is 8 bytes; reject counts the remaining payload cannot hold
  // before reserving (a corrupt count must not become a huge allocation).
  need(static_cast<std::size_t>(n) * 8);
  std::vector<ProcessId> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v.push_back(entry());
  }
  return v;
}

check::detail::Donation WireReader::region() {
  check::detail::Donation d;
  d.prefix = schedule();
  d.choices = schedule();
  return d;
}

util::Fingerprint WireReader::fingerprint() {
  util::Fingerprint fp;
  fp.hi = u64();
  fp.lo = u64();
  return fp;
}

void WireReader::expect_done() const {
  if (off_ != size_) {
    throw WireError("trailing bytes in wire payload (" +
                    std::to_string(size_ - off_) + " unread)");
  }
}

// --- typed messages ----------------------------------------------------------

void encode_hello(WireWriter& w, const HelloMsg& m) {
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u32(m.worker);
  w.u64(m.session);
  w.u32(m.heartbeat_interval_ms);
  w.u32(m.heartbeat_timeout_ms);
  w.u64(m.options.max_steps);
  w.u64(m.options.max_crashes);
  w.u8(m.options.record_traces ? 1 : 0);
  w.u8(m.options.dedupe_states ? 1 : 0);
  w.u8(m.options.dedupe_audit ? 1 : 0);
  w.u64(m.live_interval);
  w.str(m.world);
}

HelloMsg decode_hello(WireReader& r) {
  if (r.u32() != kWireMagic) {
    throw WireError("hello: bad magic (not a revisim coordinator?)");
  }
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("hello: wire version " + std::to_string(version) +
                    ", this binary speaks " + std::to_string(kWireVersion));
  }
  HelloMsg m;
  m.worker = r.u32();
  m.session = r.u64();
  m.heartbeat_interval_ms = r.u32();
  m.heartbeat_timeout_ms = r.u32();
  m.options.max_steps = static_cast<std::size_t>(r.u64());
  m.options.max_crashes = static_cast<std::size_t>(r.u64());
  m.options.record_traces = r.u8() != 0;
  m.options.dedupe_states = r.u8() != 0;
  m.options.dedupe_audit = r.u8() != 0;
  m.live_interval = r.u64();
  m.world = r.str();
  r.expect_done();
  return m;
}

void encode_hello_ack(WireWriter& w, const HelloAckMsg& m) {
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u8(m.ok ? 1 : 0);
  w.str(m.error);
  w.u64(m.session);
}

HelloAckMsg decode_hello_ack(WireReader& r) {
  if (r.u32() != kWireMagic) {
    throw WireError("hello-ack: bad magic (not a revisim worker?)");
  }
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("hello-ack: wire version " + std::to_string(version) +
                    ", this binary speaks " + std::to_string(kWireVersion));
  }
  HelloAckMsg m;
  m.ok = r.u8() != 0;
  m.error = r.str();
  m.session = r.u64();
  r.expect_done();
  return m;
}

void encode_job(WireWriter& w, const JobMsg& m) {
  w.u64(m.id);
  w.u64(m.budget);
  w.u64(m.fault_after);
  w.region(m.region);
  w.u8(m.no_dedupe ? 1 : 0);
}

JobMsg decode_job(WireReader& r) {
  JobMsg m;
  m.id = r.u64();
  m.budget = r.u64();
  m.fault_after = r.u64();
  m.region = r.region();
  m.no_dedupe = r.u8() != 0;
  r.expect_done();
  return m;
}

void encode_subtree_result(WireWriter& w,
                           const check::detail::SubtreeResult& s) {
  w.u64(s.executions);
  w.u8(s.fully_explored ? 1 : 0);
  w.u8(s.violation.has_value() ? 1 : 0);
  w.str(s.violation.has_value() ? *s.violation : std::string());
  w.schedule(s.witness);
  w.u64(s.violation_index);
  w.u64(s.subtrees_pruned);
  w.u64(s.states_seen);
  w.u64(s.donations);
}

check::detail::SubtreeResult decode_subtree_result(WireReader& r) {
  check::detail::SubtreeResult s;
  s.executions = static_cast<std::size_t>(r.u64());
  s.fully_explored = r.u8() != 0;
  const bool has_violation = r.u8() != 0;
  std::string violation = r.str();
  if (has_violation) {
    s.violation = std::move(violation);
  }
  s.witness = r.schedule();
  s.violation_index = static_cast<std::size_t>(r.u64());
  s.subtrees_pruned = static_cast<std::size_t>(r.u64());
  s.states_seen = static_cast<std::size_t>(r.u64());
  s.donations = static_cast<std::size_t>(r.u64());
  return s;
}

// replay_steps_saved rides outside the shared summary, so the run journal's
// kDone records (which reuse it) keep their layout.
void encode_job_result(WireWriter& w, const JobResultMsg& m) {
  w.u64(m.id);
  encode_subtree_result(w, m.result);
  w.u64(m.result.replay_steps_saved);
}

JobResultMsg decode_job_result(WireReader& r) {
  JobResultMsg m;
  m.id = r.u64();
  m.result = decode_subtree_result(r);
  m.result.replay_steps_saved = r.u64();
  r.expect_done();
  return m;
}

void encode_job_error(WireWriter& w, const JobErrorMsg& m) {
  w.u64(m.id);
  w.str(m.message);
}

JobErrorMsg decode_job_error(WireReader& r) {
  JobErrorMsg m;
  m.id = r.u64();
  m.message = r.str();
  r.expect_done();
  return m;
}

void encode_live(WireWriter& w, const LiveMsg& m) {
  w.u64(m.id);
  w.u64(m.executions);
}

LiveMsg decode_live(WireReader& r) {
  LiveMsg m;
  m.id = r.u64();
  m.executions = r.u64();
  r.expect_done();
  return m;
}

void encode_donate(WireWriter& w, const DonateMsg& m) {
  w.u64(m.parent);
  w.region(m.region);
}

DonateMsg decode_donate(WireReader& r) {
  DonateMsg m;
  m.parent = r.u64();
  m.region = r.region();
  r.expect_done();
  return m;
}

void encode_credit(WireWriter& w, const CreditMsg& m) {
  w.u64(m.id);
  w.u64(m.budget);
  w.u8(m.abort ? 1 : 0);
}

CreditMsg decode_credit(WireReader& r) {
  CreditMsg m;
  m.id = r.u64();
  m.budget = r.u64();
  m.abort = r.u8() != 0;
  r.expect_done();
  return m;
}

void encode_fp_batch(WireWriter& w, const FpBatchMsg& m) {
  if (m.fps.size() > kMaxFrameBytes / 16) {
    throw WireError("fingerprint batch too large to serialize");
  }
  if (m.has_canonical && m.canonicals.size() != m.fps.size()) {
    throw WireError("fingerprint batch canonical count mismatch");
  }
  w.u32(static_cast<std::uint32_t>(m.fps.size()));
  for (const util::Fingerprint fp : m.fps) {
    w.fingerprint(fp);
  }
  w.u8(m.has_canonical ? 1 : 0);
  if (m.has_canonical) {
    for (const std::string& c : m.canonicals) {
      w.str(c);
    }
  }
}

FpBatchMsg decode_fp_batch(WireReader& r) {
  FpBatchMsg m;
  const std::uint32_t n = r.u32();
  r.need_ahead(static_cast<std::size_t>(n) * 16);
  m.fps.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.fps.push_back(r.fingerprint());
  }
  m.has_canonical = r.u8() != 0;
  if (m.has_canonical) {
    m.canonicals.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      m.canonicals.push_back(r.str());
    }
  }
  r.expect_done();
  return m;
}

void encode_ping(WireWriter& w, const PingMsg& m) { w.u64(m.nonce); }

PingMsg decode_ping(WireReader& r) {
  PingMsg m;
  m.nonce = r.u64();
  r.expect_done();
  return m;
}

void encode_pong(WireWriter& w, const PongMsg& m) { w.u64(m.nonce); }

PongMsg decode_pong(WireReader& r) {
  PongMsg m;
  m.nonce = r.u64();
  r.expect_done();
  return m;
}

// --- framing -----------------------------------------------------------------

std::uint32_t frame_payload_size(const std::uint8_t* header) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= std::uint32_t{header[i]} << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    throw WireError("oversized frame (" + std::to_string(len) + " bytes)");
  }
  return len;
}

void parse_frame(const std::uint8_t* header, const std::uint8_t* payload,
                 std::size_t payload_len, Frame& frame,
                 std::uint32_t expected_seq) {
  frame.payload.assign(payload, payload + payload_len);
  std::uint32_t seq = 0;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    seq |= std::uint32_t{header[5 + i]} << (8 * i);
    crc |= std::uint32_t{header[9 + i]} << (8 * i);
  }
  frame.type = static_cast<MsgType>(header[4]);
  frame.seq = seq;
  // The crc covers type + seq bytes + payload.
  std::uint32_t want = util::crc32(0, header + 4, 5);
  want = util::crc32(want, frame.payload.data(), frame.payload.size());
  if (want != crc) {
    throw WireError("frame crc mismatch (corrupted stream)");
  }
  if (seq != expected_seq) {
    throw WireError("frame sequence " + std::to_string(seq) + ", expected " +
                    std::to_string(expected_seq) +
                    " (dropped or duplicated frame)");
  }
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const WireWriter& body, std::uint32_t seq) {
  if (body.size() > kMaxFrameBytes) {
    throw WireError("frame payload too large");
  }
  out.reserve(out.size() + kFrameHeaderBytes + body.size());
  const std::size_t base = out.size();
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  out.push_back(static_cast<std::uint8_t>(type));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
  }
  std::uint32_t crc = util::crc32(0, out.data() + base + 4, 5);
  crc = util::crc32(crc, body.data(), body.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  out.insert(out.end(), body.data(), body.data() + body.size());
}

bool wait_readable(int fd, int timeout_ms) {
  struct pollfd pfd {};
  pfd.fd = fd;
  pfd.events = POLLIN;
  // EINTR must resume with the REMAINING time, not the full timeout: under
  // a signal storm (profilers, sanitizer timers) restarting the full poll
  // would extend the wait unboundedly.
  using Clock = std::chrono::steady_clock;
  const bool forever = timeout_ms < 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(forever ? 0 : timeout_ms);
  int remaining = timeout_ms;
  for (;;) {
    const int r = ::poll(&pfd, 1, remaining);
    if (r < 0) {
      if (errno == EINTR) {
        if (!forever) {
          const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
          remaining = static_cast<int>(std::max<long long>(left.count(), 0));
        }
        continue;
      }
      throw WireError(errno_text("poll"));
    }
    return r > 0;
  }
}

// --- TCP helpers -------------------------------------------------------------

int listen_tcp(const std::string& host, std::uint16_t& port) {
  sockaddr_in addr = ipv4_address(host, port, "listen_tcp");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw WireError(errno_text("socket"));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = errno_text("bind/listen");
    ::close(fd);
    throw WireError(err);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string err = errno_text("getsockname");
    ::close(fd);
    throw WireError(err);
  }
  port = ntohs(addr.sin_port);
  return fd;
}

int accept_tcp(int listen_fd, int timeout_ms) {
  if (!wait_readable(listen_fd, timeout_ms)) {
    return -1;
  }
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno != EINTR) {
      throw WireError(errno_text("accept"));
    }
  }
}

int connect_tcp_async(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = ipv4_address(host, port, "connect_tcp_async");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw WireError(errno_text("socket"));
  }
  set_nodelay(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 &&
      errno != EINPROGRESS) {
    const std::string err = errno_text("connect");
    ::close(fd);
    throw WireError(err);
  }
  return fd;
}

}  // namespace revisim::dist
