// Versioned binary wire format for the distributed schedule explorer.
//
// The unit of distribution is the prefix-identified job the in-process
// work-stealing explorer already uses: a pure (schedule prefix, choice
// list) value.  Everything that crosses the
// socket is a function of those values and of the options - no pointers, no
// worlds (the worker rebuilds its root world and replays the prefix) - so
// the encoding below is a straight transcription.
//
// Version history; a peer speaking any other version is refused at the
// handshake by name, never misparsed:
//   v2  the frame header gained the sequence number and crc; kPing/kPong
//   v3  the batched fingerprint pipeline (kFpBatch claims answered by
//       kFpVerdicts) and its hello fields
//   v4  dropped the warm-pool capacity from kHello and replay_steps_saved
//       from the kJobResult summary
//   v5  dropped kFpInsert, kFpReply and kFpVerdicts and the fp_batch /
//       fp_window hello fields: workers dedupe against their own tables and
//       kFpBatch became a one-way report
//   v6  dropped the dedupe_adaptive hello flag and the dedupe_disabled
//       result-summary flag
//   v7  dropped the probe-interval hello field
//   v8  dropped the resume flag from kHelloAck: only the coordinator dials,
//       and a re-dial starts a fresh session
//   v9  kHello carries the registry world as one spec string
//       (src/check/worlds.h) in place of a world name and its f / m /
//       budget fields
//   v10 kJobResult carries replay_steps_saved again, after the summary:
//       the steps the job's checkpoint restores saved
//   v11 dropped partial-order reduction: its kHello flag, its per-region
//       schedule and count, and its three SubtreeResult summary counters
//
// Encoding rules:
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
//     (job re-queue and re-dial on the coordinator) - there is
//     deliberately no retransmission layer, because the job protocol is
//     already idempotent under connection loss.  Payloads above
//     kMaxFrameBytes are rejected as corruption.
//
// Message catalogue (direction, payload):
//   kHello      C->W  magic, version, worker index, session token,
//                     heartbeat interval/timeout, exploration options but
//                     max_executions, live-counter interval, registry
//                     world spec (empty = the worker was forked from the
//                     coordinator and already owns the factory)
//   kHelloAck   W->C  magic, version, ok flag + error text (a spec the
//                     worker's registry refuses, version skew), the hello's
//                     session token echoed
//   kJob        C->W  job id, execution budget, fault_after (test
//                     instrumentation), prefix, choices,
//                     no_dedupe flag (re-run of a lost deduped attempt)
//   kJobResult  W->C  job id + the SubtreeResult summary + replay_steps_saved
//   kJobError   W->C  job id + exception text (retry/degradation path)
//   kLive       W->C  job id + executions so far (cap-credit input)
//   kDonate     W->C  parent job id + a donated (prefix, choices) region,
//                     the steal-request response
//   kCredit     C->W  job id + remaining execution budget; abort flag cuts
//                     the job entirely (lex-earlier regions secured the
//                     cap, or a lex-earlier violation)
//   kStealReq   C->W  empty; asks the worker to split its current job
//   kFpBatch    W->C  up to kFpBatchSize first sightings of the worker's
//                     own state table (+ parallel canonical texts in audit
//                     mode); a one-way report the coordinator folds into
//                     the run's distinct-state count and collision audit -
//                     it is never answered
//   kShutdown   C->W  empty; the run is over
//   kPing       both  liveness probe with an echo nonce; legal at any
//                     protocol point, answered with kPong
//   kPong       both  echo of a kPing nonce
#pragma once

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
inline constexpr std::uint16_t kWireVersion = 11;
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;
// [u32 len][u8 type][u32 seq][u32 crc]
inline constexpr std::size_t kFrameHeaderBytes = 13;

// Codes 10, 11 and 16 carried the v2-v4 fingerprint RPCs; they stay
// unassigned so a stray old frame can never decode as something else.
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
  kShutdown = 12,
  kPing = 13,
  kPong = 14,
  kFpBatch = 15,
};

// Fingerprints per kFpBatch report frame.  A worker sends a frame when its
// batch fills and flushes the remainder before every kJobResult/kJobError.
inline constexpr std::size_t kFpBatchSize = 4096;

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
  // A job region: the prefix and choices schedules.
  void region(const check::detail::Donation& d);
  void fingerprint(util::Fingerprint fp);

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
  check::detail::Donation region();
  util::Fingerprint fingerprint();

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
  // Token the coordinator assigns per connection; the ack echoes it, so an
  // ack that answers some other hello is refused.
  std::uint64_t session = 0;
  // Liveness layer: ping every interval, declare the peer dead after
  // timeout of silence.  interval 0 = heartbeats off.
  std::uint32_t heartbeat_interval_ms = 0;
  std::uint32_t heartbeat_timeout_ms = 0;
  // Exploration options shipped once per connection: every field but
  // max_executions, whose per-job budget rides on each kJob instead (it
  // depends on the cap bound).
  check::ScheduleExploreOptions options;
  std::uint64_t live_interval = 256;  // executions between kLive messages
  // Registry world spec (src/check/worlds.h) for cluster workers; empty
  // means the worker holds the factory already (fork mode).
  std::string world;
};

struct HelloAckMsg {
  bool ok = true;
  std::string error;
  std::uint64_t session = 0;  // hello.session, echoed
};

struct JobMsg {
  std::uint64_t id = 0;
  std::uint64_t budget = 0;       // max executions for this job
  std::uint64_t fault_after = 0;  // test hook: _exit after N executions
  // Prefix and choices (empty = all choices: the seed job); see Donation.
  check::detail::Donation region;
  // Re-run of a job whose previous attempt was lost with dedupe on: the
  // worker must walk the whole region unpruned (and donate it onward
  // unpruned), because worker tables may hold states of regions the
  // requeue cancelled (see JobLedger::requeue_or_fail, job_ledger.h).
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
  check::detail::Donation region;
};

struct CreditMsg {
  std::uint64_t id = 0;
  std::uint64_t budget = 0;  // remaining executions; ignored when abort
  bool abort = false;
};

struct FpBatchMsg {
  std::vector<util::Fingerprint> fps;
  // Audit mode ships canonical state texts parallel to `fps`; decode
  // rejects a canonical list whose length disagrees with the batch.
  bool has_canonical = false;
  std::vector<std::string> canonicals;
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
void encode_fp_batch(WireWriter& w, const FpBatchMsg& m);
[[nodiscard]] FpBatchMsg decode_fp_batch(WireReader& r);
void encode_ping(WireWriter& w, const PingMsg& m);
[[nodiscard]] PingMsg decode_ping(WireReader& r);
void encode_pong(WireWriter& w, const PongMsg& m);
[[nodiscard]] PongMsg decode_pong(WireReader& r);

// --- framing over a connected socket ----------------------------------------

struct Frame {
  MsgType type{};
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;  // reused across receives

  [[nodiscard]] WireReader reader() const {
    return WireReader(payload.data(), payload.size());
  }
};

// Appends one complete frame (header + payload) to `out` without clearing
// it: the coalescing tx buffer of fault_channel.h's Channel, the one send
// path both endpoints use.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const WireWriter& body, std::uint32_t seq);

// Reads the payload length out of a 13-byte frame header; throws WireError
// when it exceeds kMaxFrameBytes (stream corruption).
[[nodiscard]] std::uint32_t frame_payload_size(const std::uint8_t* header);

// Verifies and unpacks one complete frame whose header and payload bytes
// are already in memory (Channel::buffered_recv's parse step).  Throws
// WireError on a crc mismatch or a sequence number other than
// `expected_seq` (a dropped or duplicated frame in between).
void parse_frame(const std::uint8_t* header, const std::uint8_t* payload,
                 std::size_t payload_len, Frame& frame,
                 std::uint32_t expected_seq);

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
// The coordinator's only dial, first dial and re-dial alike: one
// non-blocking connect attempt that returns the fd at once, usually with
// the connect still in progress.  The first write on it would-block until
// the connect lands and fails with the connect's errno if it does not, so
// an event loop learns the outcome from its ordinary send path.  Throws
// WireError when the attempt fails outright.
int connect_tcp_async(const std::string& host, std::uint16_t port);

}  // namespace revisim::dist
