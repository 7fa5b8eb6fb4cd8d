// Versioned binary wire format for the distributed schedule explorer.
//
// The unit of distribution is the prefix-identified job the in-process
// work-stealing explorer already uses: a pure (schedule prefix, choice
// list) value plus the donated sleep-set pids.  Everything that crosses the
// socket is a function of those values and of the options - no pointers, no
// worlds (the worker rebuilds its root world and replays the prefix) - so
// the encoding below is a straight transcription.
//
// Encoding rules, version 4 (v4 dropped the warm-pool capacity from kHello
// and replay_steps_saved from the kJobResult summary):
//   - All integers are fixed-width little-endian, written byte by byte
//     (shift/mask), so the format is identical across host endianness and
//     word size.
//   - Schedule entries travel as u64 with bit 63 as the crash flag,
//     re-encoded from the host representation (runtime::kCrashEntryBit sits
//     at the top of a size_t, which need not be 64 bits): a step entry is
//     the pid, a crash entry is the target pid with bit 63 set.  Decoding
//     rejects pids that do not fit the host ProcessId.
//   - Sequences are u32 count + items; strings are u32 length + raw bytes.
//   - Fingerprints are hi u64 + lo u64.
//   - A frame is [u32 payload length][u8 message type][u32 sequence]
//     [u32 crc][payload].  The sequence number counts frames per direction
//     from 0; the crc is CRC-32 over type + sequence + payload.  A crc
//     mismatch means a corrupted stream; a sequence mismatch means a frame
//     was dropped or duplicated in between.  Either is a WireError: the
//     receiver cuts the connection and recovery happens one level up
//     (job re-queue on the coordinator, reconnect on the worker) - there is
//     deliberately no retransmission layer, because the job protocol is
//     already idempotent under connection loss.  Payloads above
//     kMaxFrameBytes are rejected as corruption.
//
// Message catalogue (direction, payload):
//   kHello      C->W  magic, version, worker index, session token,
//                     heartbeat interval/timeout, exploration options,
//                     registry world spec (empty world name = the worker
//                     was forked from the coordinator and already owns the
//                     factory), live-counter interval
//   kHelloAck   W->C  magic, version, ok flag + error text (unknown world,
//                     version skew), resume flag + session token (a
//                     reconnecting worker echoes its prior session)
//   kJob        C->W  job id, execution budget, fault_after (test
//                     instrumentation), prefix, choices, sleep pids,
//                     no_dedupe flag (re-run of a lost deduped attempt)
//   kJobResult  W->C  job id + the full SubtreeResult summary
//   kJobError   W->C  job id + exception text (retry/degradation path)
//   kLive       W->C  job id + executions so far (cap-credit input)
//   kDonate     W->C  parent job id + a donated (prefix, choices, sleep)
//                     region, the steal-request response
//   kCredit     C->W  job id + remaining execution budget; abort flag cuts
//                     the job entirely (lex-earlier regions secured the
//                     cap, or a lex-earlier violation)
//   kStealReq   C->W  empty; asks the worker to split its current job
//   kFpInsert   W->C  fingerprint + optional canonical state text (audit);
//                     first local sighting, forwarded to the shard service
//                     (v2 synchronous path, kept for one-off inserts)
//   kFpReply    C->W  was_new flag (claim-then-walk verdict)
//   kFpBatch    W->C  a window of fingerprints in one frame (+ parallel
//                     canonical texts in audit mode); the async pipeline's
//                     claim request
//   kFpVerdicts C->W  packed was_new bitmap, bit i answering entry i of the
//                     oldest unanswered kFpBatch (batches are answered
//                     strictly in order)
//   kShutdown   C->W  empty; the run is over
//   kPing       both  liveness probe with an echo nonce; legal at any
//                     protocol point, answered with kPong
//   kPong       both  echo of a kPing nonce
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/check/explore_core.h"
#include "src/runtime/trace.h"
#include "src/util/fingerprint.h"

namespace revisim::dist {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kWireMagic = 0x4d535652u;  // "RVSM"
inline constexpr std::uint16_t kWireVersion = 4;
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;
// [u32 len][u8 type][u32 seq][u32 crc]
inline constexpr std::size_t kFrameHeaderBytes = 13;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kJob = 3,
  kJobResult = 4,
  kJobError = 5,
  kLive = 6,
  kDonate = 7,
  kCredit = 8,
  kStealReq = 9,
  kFpInsert = 10,
  kFpReply = 11,
  kShutdown = 12,
  kPing = 13,
  kPong = 14,
  kFpBatch = 15,
  kFpVerdicts = 16,
};

// --- schedule entries --------------------------------------------------------

// Host schedule entry <-> machine-independent u64 (bit 63 = crash flag).
[[nodiscard]] std::uint64_t entry_to_wire(runtime::ProcessId entry);
// Throws WireError if the pid does not fit the host ProcessId.
[[nodiscard]] runtime::ProcessId entry_from_wire(std::uint64_t wire);

// --- primitive encoder/decoder ----------------------------------------------

// Append-only little-endian byte buffer.  Each connection keeps ONE writer
// and clears it per message, so steady-state serialization allocates
// nothing (the backing vector keeps its high-water capacity).
class WireWriter {
 public:
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void str(const std::string& v);
  void entry(runtime::ProcessId e) { u64(entry_to_wire(e)); }
  void schedule(const std::vector<runtime::ProcessId>& entries);
  void fingerprint(util::Fingerprint fp);
  void data(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked reader over a received payload; throws WireError on
// truncation, oversized counts, or trailing bytes (expect_done).
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  runtime::ProcessId entry() { return entry_from_wire(u64()); }
  std::vector<runtime::ProcessId> schedule();
  util::Fingerprint fingerprint();
  void raw(std::uint8_t* out, std::size_t n);

  [[nodiscard]] bool done() const { return off_ == size_; }
  void expect_done() const;
  // Pre-check that `n` bytes remain, without consuming them - rejects a
  // corrupt element count before it becomes a huge reserve().
  void need_ahead(std::size_t n) const { need(n); }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* p_;
  std::size_t size_;
  std::size_t off_ = 0;
};

// --- typed messages ----------------------------------------------------------

struct HelloMsg {
  std::uint32_t worker = 0;  // index assigned by the coordinator
  // Session token assigned by the coordinator; a worker that reconnects
  // echoes its prior token in HelloAck to resume the session.
  std::uint64_t session = 0;
  // Liveness layer: ping every interval, declare the peer dead after
  // timeout of silence.  interval 0 = heartbeats off.
  std::uint32_t heartbeat_interval_ms = 0;
  std::uint32_t heartbeat_timeout_ms = 0;
  // Exploration options shipped once per connection; the per-job execution
  // budget rides on each kJob instead (it depends on the cap bound).
  std::uint64_t max_steps = 64;
  std::uint64_t max_crashes = 0;
  bool record_traces = false;
  bool dedupe_states = false;
  bool dedupe_audit = false;
  bool dedupe_adaptive = false;
  bool por = false;
  std::uint64_t live_interval = 256;  // executions between kLive messages
  // Abort-probe pump cadence: the worker drains coordinator frames every
  // `probe_interval`-th abort probe (ScheduleExploreOptions::
  // dist_probe_interval, validated >= 1).
  std::uint64_t probe_interval = 16;
  // Fingerprint pipeline: claims ship in kFpBatch frames of up to fp_batch
  // entries, and at most fp_window claims may be awaiting verdicts before
  // the worker blocks (the bounded speculation window).
  std::uint32_t fp_batch = 32;
  std::uint32_t fp_window = 128;
  // Registry world (src/check/crash_worlds.h) for cluster workers; an empty
  // name means the worker holds the factory already (fork mode).
  std::string world;
  std::uint64_t f = 0;
  std::uint64_t m = 0;
  std::uint64_t step_budget = 0;
};

struct HelloAckMsg {
  bool ok = true;
  std::string error;
  // resume: this connection re-handshakes an existing session; `session`
  // then carries the prior token (otherwise it echoes hello.session).
  bool resume = false;
  std::uint64_t session = 0;
};

struct JobMsg {
  std::uint64_t id = 0;
  std::uint64_t budget = 0;       // max executions for this job
  std::uint64_t fault_after = 0;  // test hook: _exit after N executions
  std::vector<runtime::ProcessId> prefix;
  std::vector<runtime::ProcessId> choices;  // empty = all choices (seed job)
  std::vector<runtime::ProcessId> sleep;
  // Leading entries of `sleep` that are inherited sleepers (wakeup-counting)
  // rather than the donor's explored elder siblings; see Donation.
  std::uint32_t sleep_inherited = 0;
  // Re-run of a job whose previous attempt died mid-walk with dedupe on:
  // the worker must walk the whole region unpruned (and donate it onward
  // unpruned), because the lost attempt's fingerprint claims have no owner.
  bool no_dedupe = false;
};

struct JobResultMsg {
  std::uint64_t id = 0;
  check::detail::SubtreeResult result;
};

struct JobErrorMsg {
  std::uint64_t id = 0;
  std::string message;
};

struct LiveMsg {
  std::uint64_t id = 0;
  std::uint64_t executions = 0;
};

struct DonateMsg {
  std::uint64_t parent = 0;  // job the region was split from
  std::vector<runtime::ProcessId> prefix;
  std::vector<runtime::ProcessId> choices;
  std::vector<runtime::ProcessId> sleep;
  std::uint32_t sleep_inherited = 0;  // as in JobMsg
};

struct CreditMsg {
  std::uint64_t id = 0;
  std::uint64_t budget = 0;  // remaining executions; ignored when abort
  bool abort = false;
};

struct FpInsertMsg {
  util::Fingerprint fp;
  bool has_canonical = false;  // audit mode ships the canonical state text
  std::string canonical;
};

struct FpReplyMsg {
  bool was_new = false;
};

struct FpBatchMsg {
  std::vector<util::Fingerprint> fps;
  // Audit mode ships canonical state texts parallel to `fps`; decode
  // rejects a canonical list whose length disagrees with the batch.
  bool has_canonical = false;
  std::vector<std::string> canonicals;
};

struct FpVerdictsMsg {
  // Number of verdicts; must equal the oldest unanswered batch's size.
  std::uint32_t count = 0;
  // ceil(count / 8) bytes; bit i (little-endian within each byte) is the
  // was_new verdict for batch entry i.  encode/decode reject a bitmap
  // whose length disagrees with `count`.
  std::vector<std::uint8_t> bitmap;

  [[nodiscard]] bool was_new(std::uint32_t i) const {
    return (bitmap[i >> 3] >> (i & 7)) & 1u;
  }
  void set(std::uint32_t i, bool v) {
    if (v) {
      bitmap[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
    } else {
      bitmap[i >> 3] &= static_cast<std::uint8_t>(~(1u << (i & 7)));
    }
  }
  void resize(std::uint32_t n) {
    count = n;
    bitmap.assign((n + 7) / 8, 0);
  }
};

struct PingMsg {
  std::uint64_t nonce = 0;
};

struct PongMsg {
  std::uint64_t nonce = 0;
};

// The SubtreeResult transcription shared by kJobResult and the run
// journal's job-done records (src/dist/journal.h).  decode does not call
// expect_done: callers may follow with their own fields.
void encode_subtree_result(WireWriter& w,
                           const check::detail::SubtreeResult& s);
[[nodiscard]] check::detail::SubtreeResult decode_subtree_result(
    WireReader& r);

void encode_hello(WireWriter& w, const HelloMsg& m);
[[nodiscard]] HelloMsg decode_hello(WireReader& r);
void encode_hello_ack(WireWriter& w, const HelloAckMsg& m);
[[nodiscard]] HelloAckMsg decode_hello_ack(WireReader& r);
void encode_job(WireWriter& w, const JobMsg& m);
[[nodiscard]] JobMsg decode_job(WireReader& r);
void encode_job_result(WireWriter& w, const JobResultMsg& m);
[[nodiscard]] JobResultMsg decode_job_result(WireReader& r);
void encode_job_error(WireWriter& w, const JobErrorMsg& m);
[[nodiscard]] JobErrorMsg decode_job_error(WireReader& r);
void encode_live(WireWriter& w, const LiveMsg& m);
[[nodiscard]] LiveMsg decode_live(WireReader& r);
void encode_donate(WireWriter& w, const DonateMsg& m);
[[nodiscard]] DonateMsg decode_donate(WireReader& r);
void encode_credit(WireWriter& w, const CreditMsg& m);
[[nodiscard]] CreditMsg decode_credit(WireReader& r);
void encode_fp_insert(WireWriter& w, const FpInsertMsg& m);
[[nodiscard]] FpInsertMsg decode_fp_insert(WireReader& r);
void encode_fp_reply(WireWriter& w, const FpReplyMsg& m);
[[nodiscard]] FpReplyMsg decode_fp_reply(WireReader& r);
void encode_fp_batch(WireWriter& w, const FpBatchMsg& m);
[[nodiscard]] FpBatchMsg decode_fp_batch(WireReader& r);
void encode_fp_verdicts(WireWriter& w, const FpVerdictsMsg& m);
[[nodiscard]] FpVerdictsMsg decode_fp_verdicts(WireReader& r);
void encode_ping(WireWriter& w, const PingMsg& m);
[[nodiscard]] PingMsg decode_ping(WireReader& r);
void encode_pong(WireWriter& w, const PongMsg& m);
[[nodiscard]] PongMsg decode_pong(WireReader& r);

// --- framing over a connected socket ----------------------------------------

struct Frame {
  MsgType type{};
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;  // reused across recv_frame calls

  [[nodiscard]] WireReader reader() const {
    return WireReader(payload.data(), payload.size());
  }
};

// Serializes one complete frame (header + payload) into `out` (cleared
// first).  Exposed so the fault-injection channel can mutate the byte
// stream below the framing layer; send_frame is build + send.
void build_frame(std::vector<std::uint8_t>& out, MsgType type,
                 const WireWriter& body, std::uint32_t seq);

// Appends one complete frame to `out` WITHOUT clearing it - the
// frame-coalescing tx-buffer path; build_frame is clear + append.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const WireWriter& body, std::uint32_t seq);

// Writes raw bytes with MSG_NOSIGNAL; throws WireError on I/O failure (a
// dead peer surfaces as an error, never a SIGPIPE).
void send_bytes(int fd, const std::uint8_t* data, std::size_t n);

// Writes one frame carrying the given per-direction sequence number as a
// single scatter-gather write (header + payload in one sendmsg, no
// assembly copy).  Callers own the counter (see fault_channel.h's Channel,
// which wraps fd + both counters); throws WireError on I/O failure.
void send_frame(int fd, MsgType type, const WireWriter& body,
                std::uint32_t seq);

// Reads the payload length out of a 13-byte frame header; throws WireError
// when it exceeds kMaxFrameBytes (stream corruption).
[[nodiscard]] std::uint32_t frame_payload_size(const std::uint8_t* header);

// Verifies and unpacks one complete frame whose header and payload bytes
// are already in memory - the buffered (epoll) receive path.  Same crc /
// sequence / size checks as recv_frame.
void parse_frame(const std::uint8_t* header, const std::uint8_t* payload,
                 std::size_t payload_len, Frame& frame,
                 std::uint32_t expected_seq);

// Blocking receive.  Returns false on clean EOF at a frame boundary; throws
// WireError on I/O failure, truncated frames, oversized payloads, crc
// mismatch, or a sequence number other than `expected_seq` (a dropped or
// duplicated frame in between).
bool recv_frame(int fd, Frame& frame, std::uint32_t expected_seq);

// Non-blocking poll-then-receive: 1 = frame received, 0 = nothing pending,
// -1 = EOF.  Once a frame header byte is visible the rest is read
// blockingly (the peer has committed to sending it).
int try_recv_frame(int fd, Frame& frame, std::uint32_t expected_seq);

// Blocks until fd is readable or `timeout_ms` expires; true = readable.
// EINTR restarts the poll with the REMAINING time (monotonic deadline), so
// a signal storm cannot extend the timeout.  Negative timeout = forever.
bool wait_readable(int fd, int timeout_ms);

// --- minimal TCP helpers -----------------------------------------------------

// Listens on host:port (port 0 = ephemeral; the chosen port is written
// back).  Throws WireError on failure.
int listen_tcp(const std::string& host, std::uint16_t& port);
// Accepts one connection; -1 on timeout.  Throws WireError on failure.
int accept_tcp(int listen_fd, int timeout_ms);
// Connects to host:port, retrying with jittered exponential backoff until
// `deadline` elapses (a freshly forked worker can race the coordinator's
// listen(), and reconnecting workers dial a coordinator that may take a
// moment to come back).  `jitter_seed` perturbs the backoff so a fleet of
// workers does not reconnect in lockstep.  Throws WireError naming the
// attempt count and the last errno on failure.
int connect_tcp(const std::string& host, std::uint16_t port,
                std::chrono::milliseconds deadline =
                    std::chrono::milliseconds(5000),
                std::uint64_t jitter_seed = 0);

}  // namespace revisim::dist
