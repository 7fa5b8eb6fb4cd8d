// Deterministic network fault injection for the distributed explorer.
//
// Channel is the framed-I/O object both endpoints own: a connected
// non-blocking socket, the per-direction sequence counters every frame
// header carries, and the buffers frames are coalesced into and parsed out
// of.  Given a FaultPlan it perturbs its OWN send path -
// drop, duplicate, delay, stall, truncate mid-frame, one-way partition,
// hard cut - while the receive path stays honest, so a test faults the
// worker->coordinator direction by handing the worker a plan and the
// reverse by handing one to the coordinator.
//
// Every fault is either detected or survived deterministically:
//   - drop/duplicate: the sequence number gap/repeat is caught by the
//     peer's next recv as a WireError, which cuts the connection and hands
//     recovery to the coordinator's job re-queue and re-dial.  Heartbeats
//     guarantee a next frame exists, so a dropped frame can stall the run
//     for at most one heartbeat interval.
//   - truncate/cut: the peer sees a mid-frame EOF or crc mismatch.
//   - one-way partition: the peer hears silence and declares the
//     connection dead after its heartbeat timeout - the "hung peer"
//     detector, as opposed to a delay shorter than the timeout, which is
//     survived in place.
//   - delay/stall: sleeps before the send; a stall longer than the
//     heartbeat timeout is indistinguishable from a hang, by design.
//
// Rate faults (drop/dup/delay) draw from a seeded xorshift generator and
// keep firing for the life of the plan.  Positional faults (stall_at,
// cut_after, truncate_at, partition_after) fire once per PLAN, not per
// connection: after firing they disarm themselves, so the re-dialed
// connection runs clean and the run converges to the fault-free result -
// which is exactly what the bit-parity fault tests assert.  That is why the
// coordinator keeps one plan per worker slot across re-dials, and a worker
// one plan for its whole process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/dist/wire.h"

namespace revisim::dist {

struct FaultPlan {
  std::uint64_t seed = 1;  // rate-fault rng seed
  double drop_rate = 0;    // P(outbound frame silently dropped)
  double dup_rate = 0;     // P(outbound frame sent twice)
  double delay_rate = 0;   // P(outbound frame delayed delay_ms)
  std::uint32_t delay_ms = 0;
  // Positional one-shot faults, keyed by the channel's 1-based outbound
  // frame count; 0 = off.  Self-disarming (see above).
  std::uint64_t stall_at = 0;  // sleep stall_ms before sending frame N
  std::uint32_t stall_ms = 0;
  std::uint64_t cut_after = 0;     // send frame N, then shut the socket down
  std::uint64_t truncate_at = 0;   // send only half of frame N, then shut down
  std::uint64_t partition_after = 0;  // swallow every send from frame N on

  [[nodiscard]] bool any() const {
    return drop_rate > 0 || dup_rate > 0 || delay_rate > 0 || stall_at != 0 ||
           cut_after != 0 || truncate_at != 0 || partition_after != 0;
  }
};

// Parses "key=value[,key=value...]" with keys seed, drop, dup, delay_rate,
// delay_ms, stall_at, stall_ms, cut_after, truncate_at, partition_after.
// Throws std::invalid_argument on unknown keys or malformed numbers.
FaultPlan parse_fault_plan(const std::string& spec);

// Log-friendly rendering of the armed faults ("drop=0.02,cut_after=40").
std::string fault_plan_text(const FaultPlan& plan);

// Re-seeds a plan for worker `index`, so a fleet sharing one spec does not
// fault in lockstep.
FaultPlan derive_fault_plan(const FaultPlan& plan, std::size_t index);

// A connected socket plus the framing state (send/recv sequence numbers)
// and an optional fault plan applied to sends.  One I/O path serves both
// endpoints: the socket is non-blocking, enqueue() commits frames to a
// per-connection tx buffer (faults apply here, at commit-to-stream order)
// and flush() writes everything pending in as few syscalls as the socket
// takes, while buffered_recv() parses frames out of an rx buffer fed by
// non-blocking reads.  The coordinator's epoll loop drives these directly;
// the worker uses send() and wait().
// Not thread-safe: one thread owns the channel (the epoll loop, or the
// single-threaded worker).
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() { close(); }

  // Points the channel at a (re)connected fd: closes any previous fd,
  // switches the new one to O_NONBLOCK, reserves the tx/rx buffers once
  // for the life of the connection, and resets the sequence counters and
  // per-connection fault state.  The fault plan pointer survives adoption
  // (positional faults that already fired stay disarmed).  Throws
  // WireError if the fd cannot be made non-blocking.
  void adopt(int fd);
  void close();
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  // Attaches a fault plan (not owned; may be nullptr).  The plan object is
  // mutated as positional faults disarm, so sharing one plan across
  // connections gives fire-once semantics.
  void set_faults(FaultPlan* plan);

  // Commits one frame to the tx buffer without writing to the socket.
  // Faults fire here - the enqueue order is the stream order - so the
  // injection matrix composes with coalesced sends.  Throws WireError if
  // the socket fails or a previously fired cut/truncate left it dead.
  void enqueue(MsgType type, const WireWriter& body);

  // enqueue() plus a flush that waits for socket space until everything
  // pending is on the wire.
  void send(MsgType type, const WireWriter& body);

  // Writes everything enqueued in as few send calls as the socket
  // accepts.  Returns true when the tx buffer drained; false when the
  // socket would block (arm EPOLLOUT and call again on writability).
  bool flush();

  // Buffered receive: parses one frame out of the rx buffer, reading the
  // socket only while no complete frame is buffered.  1 = frame, 0 = no
  // complete frame available yet, -1 = EOF at a frame boundary with the
  // buffer consumed.  Throws WireError on mid-frame EOF, crc/seq mismatch,
  // or I/O failure.  Call until 0 before waiting on the fd: later frames
  // may already sit in the buffer.
  int buffered_recv(Frame& frame);

  // True when the socket turns readable within timeout_ms (-1 = forever).
  bool wait(int timeout_ms) { return wait_readable(fd_, timeout_ms); }

 private:
  [[nodiscard]] bool chance(double p);
  // Waits for socket space until flush() drains the tx buffer.
  void flush_all();

  int fd_ = -1;
  FaultPlan* faults_ = nullptr;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t sent_frames_ = 0;
  std::uint32_t send_seq_ = 0;
  std::uint32_t recv_seq_ = 0;
  bool broken_ = false;       // cut/truncate fired on this connection
  bool partitioned_ = false;  // partition fired on this connection
  bool cut_on_drain_ = false;  // cut_after fired; shut down once tx_ drains
  bool rx_eof_ = false;
  // Coalescing buffers, reserved once per connection: frames are appended
  // back to back in tx_ (tx_off_ = bytes already on the wire) and parsed
  // out of rx_ (rx_pos_ = bytes already consumed).
  std::vector<std::uint8_t> tx_;
  std::size_t tx_off_ = 0;
  std::vector<std::uint8_t> rx_;
  std::size_t rx_pos_ = 0;
};

}  // namespace revisim::dist
