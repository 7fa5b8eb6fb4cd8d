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
#include <sys/uio.h>
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

util::Fingerprint WireReader::fingerprint() {
  util::Fingerprint fp;
  fp.hi = u64();
  fp.lo = u64();
  return fp;
}

void WireReader::raw(std::uint8_t* out, std::size_t n) {
  need(n);
  std::copy(p_ + off_, p_ + off_ + n, out);
  off_ += n;
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
  w.u64(m.max_steps);
  w.u64(m.max_crashes);
  w.u8(m.record_traces ? 1 : 0);
  w.u8(m.dedupe_states ? 1 : 0);
  w.u8(m.dedupe_audit ? 1 : 0);
  w.u8(m.dedupe_adaptive ? 1 : 0);
  w.u8(m.por ? 1 : 0);
  w.u64(m.live_interval);
  w.str(m.world);
  w.u64(m.f);
  w.u64(m.m);
  w.u64(m.step_budget);
  w.u64(m.probe_interval);
  w.u32(m.fp_batch);
  w.u32(m.fp_window);
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
  m.max_steps = r.u64();
  m.max_crashes = r.u64();
  m.record_traces = r.u8() != 0;
  m.dedupe_states = r.u8() != 0;
  m.dedupe_audit = r.u8() != 0;
  m.dedupe_adaptive = r.u8() != 0;
  m.por = r.u8() != 0;
  m.live_interval = r.u64();
  m.world = r.str();
  m.f = r.u64();
  m.m = r.u64();
  m.step_budget = r.u64();
  m.probe_interval = r.u64();
  m.fp_batch = r.u32();
  m.fp_window = r.u32();
  r.expect_done();
  return m;
}

void encode_hello_ack(WireWriter& w, const HelloAckMsg& m) {
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u8(m.ok ? 1 : 0);
  w.str(m.error);
  w.u8(m.resume ? 1 : 0);
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
  m.resume = r.u8() != 0;
  m.session = r.u64();
  r.expect_done();
  return m;
}

void encode_job(WireWriter& w, const JobMsg& m) {
  w.u64(m.id);
  w.u64(m.budget);
  w.u64(m.fault_after);
  w.schedule(m.prefix);
  w.schedule(m.choices);
  w.schedule(m.sleep);
  w.u32(m.sleep_inherited);
  w.u8(m.no_dedupe ? 1 : 0);
}

JobMsg decode_job(WireReader& r) {
  JobMsg m;
  m.id = r.u64();
  m.budget = r.u64();
  m.fault_after = r.u64();
  m.prefix = r.schedule();
  m.choices = r.schedule();
  m.sleep = r.schedule();
  m.sleep_inherited = r.u32();
  if (m.sleep_inherited > m.sleep.size()) {
    throw WireError("job sleep_inherited exceeds sleep size");
  }
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
  w.u64(s.por_skipped);
  w.u64(s.dependent_wakeups);
  w.u64(s.footprint_bytes);
  w.u8(s.dedupe_disabled ? 1 : 0);
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
  s.por_skipped = static_cast<std::size_t>(r.u64());
  s.dependent_wakeups = static_cast<std::size_t>(r.u64());
  s.footprint_bytes = r.u64();
  s.dedupe_disabled = r.u8() != 0;
  return s;
}

void encode_job_result(WireWriter& w, const JobResultMsg& m) {
  w.u64(m.id);
  encode_subtree_result(w, m.result);
}

JobResultMsg decode_job_result(WireReader& r) {
  JobResultMsg m;
  m.id = r.u64();
  m.result = decode_subtree_result(r);
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
  w.schedule(m.prefix);
  w.schedule(m.choices);
  w.schedule(m.sleep);
  w.u32(m.sleep_inherited);
}

DonateMsg decode_donate(WireReader& r) {
  DonateMsg m;
  m.parent = r.u64();
  m.prefix = r.schedule();
  m.choices = r.schedule();
  m.sleep = r.schedule();
  m.sleep_inherited = r.u32();
  if (m.sleep_inherited > m.sleep.size()) {
    throw WireError("donate sleep_inherited exceeds sleep size");
  }
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

void encode_fp_insert(WireWriter& w, const FpInsertMsg& m) {
  w.fingerprint(m.fp);
  w.u8(m.has_canonical ? 1 : 0);
  w.str(m.canonical);
}

FpInsertMsg decode_fp_insert(WireReader& r) {
  FpInsertMsg m;
  m.fp = r.fingerprint();
  m.has_canonical = r.u8() != 0;
  m.canonical = r.str();
  r.expect_done();
  return m;
}

void encode_fp_reply(WireWriter& w, const FpReplyMsg& m) {
  w.u8(m.was_new ? 1 : 0);
}

FpReplyMsg decode_fp_reply(WireReader& r) {
  FpReplyMsg m;
  m.was_new = r.u8() != 0;
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

void encode_fp_verdicts(WireWriter& w, const FpVerdictsMsg& m) {
  if (m.bitmap.size() != (static_cast<std::size_t>(m.count) + 7) / 8) {
    throw WireError("verdict bitmap length disagrees with verdict count");
  }
  w.u32(m.count);
  w.data(m.bitmap.data(), m.bitmap.size());
}

FpVerdictsMsg decode_fp_verdicts(WireReader& r) {
  FpVerdictsMsg m;
  m.count = r.u32();
  const std::size_t bytes = (static_cast<std::size_t>(m.count) + 7) / 8;
  m.bitmap.resize(bytes);
  r.raw(m.bitmap.data(), bytes);
  // A bitmap longer than the count claims verdicts for entries that do not
  // exist; expect_done rejects the trailing bytes.
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

namespace {

void send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw WireError(errno_text("send"));
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
}

// Returns false on EOF before the first byte; throws on mid-read EOF.
bool recv_all(int fd, std::uint8_t* data, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, data + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw WireError(errno_text("recv"));
    }
    if (r == 0) {
      if (got == 0 && eof_ok) {
        return false;
      }
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

// Verifies the crc (over type + seq bytes + payload) and the per-direction
// sequence number of a frame whose payload already sits in frame.payload.
void verify_frame(Frame& frame, const std::uint8_t header[kFrameHeaderBytes],
                  std::uint32_t expected_seq) {
  std::uint32_t seq = 0;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    seq |= std::uint32_t{header[5 + i]} << (8 * i);
    crc |= std::uint32_t{header[9 + i]} << (8 * i);
  }
  frame.type = static_cast<MsgType>(header[4]);
  frame.seq = seq;
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

// Reads the payload after a complete 13-byte header, then verifies.
void recv_frame_body(int fd, Frame& frame,
                     const std::uint8_t header[kFrameHeaderBytes],
                     std::uint32_t expected_seq) {
  const std::uint32_t len = frame_payload_size(header);
  frame.payload.resize(len);
  if (len > 0) {
    recv_all(fd, frame.payload.data(), len, /*eof_ok=*/false);
  }
  verify_frame(frame, header, expected_seq);
}

}  // namespace

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
  verify_frame(frame, header, expected_seq);
}

void build_frame(std::vector<std::uint8_t>& out, MsgType type,
                 const WireWriter& body, std::uint32_t seq) {
  out.clear();
  append_frame(out, type, body, seq);
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

void send_bytes(int fd, const std::uint8_t* data, std::size_t n) {
  send_all(fd, data, n);
}

void send_frame(int fd, MsgType type, const WireWriter& body,
                std::uint32_t seq) {
  if (body.size() > kMaxFrameBytes) {
    throw WireError("frame payload too large");
  }
  std::uint8_t header[kFrameHeaderBytes];
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  header[4] = static_cast<std::uint8_t>(type);
  for (int i = 0; i < 4; ++i) {
    header[5 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  std::uint32_t crc = util::crc32(0, header + 4, 5);
  crc = util::crc32(crc, body.data(), body.size());
  for (int i = 0; i < 4; ++i) {
    header[9 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  // One scatter-gather write: header + payload leave in a single syscall
  // (and, on TCP, usually a single segment) with no assembly copy.
  iovec iov[2];
  iov[0] = {header, sizeof header};
  iov[1] = {const_cast<std::uint8_t*>(body.data()), body.size()};
  std::size_t total = sizeof header + body.size();
  int iov_at = 0;
  while (total > 0) {
    msghdr mh{};
    mh.msg_iov = iov + iov_at;
    mh.msg_iovlen = 2 - iov_at;
    const ssize_t sent = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw WireError(errno_text("sendmsg"));
    }
    total -= static_cast<std::size_t>(sent);
    std::size_t left = static_cast<std::size_t>(sent);
    while (left > 0 && left >= iov[iov_at].iov_len) {
      left -= iov[iov_at].iov_len;
      iov[iov_at].iov_len = 0;
      ++iov_at;
    }
    if (left > 0) {
      iov[iov_at].iov_base = static_cast<std::uint8_t*>(iov[iov_at].iov_base) + left;
      iov[iov_at].iov_len -= left;
    }
  }
}

bool recv_frame(int fd, Frame& frame, std::uint32_t expected_seq) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!recv_all(fd, header, sizeof header, /*eof_ok=*/true)) {
    return false;
  }
  recv_frame_body(fd, frame, header, expected_seq);
  return true;
}

int try_recv_frame(int fd, Frame& frame, std::uint32_t expected_seq) {
  std::uint8_t header[kFrameHeaderBytes];
  std::size_t got = 0;
  // First probe non-blockingly; once any header byte arrives the peer has
  // committed to a frame, so finishing the read blockingly cannot stall
  // beyond one in-flight message.
  while (got < sizeof header) {
    const ssize_t r =
        ::recv(fd, header + got, sizeof(header) - got, got == 0 ? MSG_DONTWAIT : 0);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (got == 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return 0;
      }
      throw WireError(errno_text("recv"));
    }
    if (r == 0) {
      if (got == 0) {
        return -1;
      }
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  recv_frame_body(fd, frame, header, expected_seq);
  return 1;
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
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw WireError(errno_text("socket"));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw WireError("listen_tcp: bad host address " + host);
  }
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
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    if (errno != EINTR) {
      throw WireError(errno_text("accept"));
    }
  }
}

int connect_tcp(const std::string& host, std::uint16_t port,
                std::chrono::milliseconds deadline,
                std::uint64_t jitter_seed) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw WireError("connect_tcp: bad host address " + host);
  }
  // Jittered exponential backoff under a caller-supplied deadline: a
  // freshly forked worker can race the coordinator's listen(), and a
  // reconnecting fleet must not re-dial in lockstep (the jitter seed
  // de-synchronizes workers that lost the coordinator at the same instant).
  using Clock = std::chrono::steady_clock;
  const Clock::time_point give_up = Clock::now() + deadline;
  std::uint64_t rng = jitter_seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  auto next_jitter = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::string last_err = "unreachable";
  int attempts = 0;
  std::uint64_t backoff_us = 2'000;  // 2ms, doubling to a 200ms ceiling
  for (;;) {
    ++attempts;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw WireError(errno_text("socket"));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    last_err = errno_text("connect");
    ::close(fd);
    if (Clock::now() >= give_up) {
      break;
    }
    // Sleep backoff/2 .. backoff, capped so the final attempt lands near
    // the deadline instead of overshooting it by a whole backoff step.
    std::uint64_t sleep_us = backoff_us / 2 + next_jitter() % (backoff_us / 2 + 1);
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        give_up - Clock::now());
    sleep_us = std::min<std::uint64_t>(
        sleep_us, static_cast<std::uint64_t>(std::max<long long>(left.count(), 0)));
    if (sleep_us > 0) {
      ::usleep(static_cast<useconds_t>(sleep_us));
    }
    backoff_us = std::min<std::uint64_t>(backoff_us * 2, 200'000);
  }
  throw WireError("connect_tcp " + host + ":" + std::to_string(port) +
                  " failed after " + std::to_string(attempts) +
                  " attempt(s) over " + std::to_string(deadline.count()) +
                  " ms: " + last_err);
}

}  // namespace revisim::dist
