#include "src/dist/fault_channel.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

namespace revisim::dist {

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault plan item '" + item +
                                  "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    try {
      if (key == "seed") {
        plan.seed = std::stoull(value);
      } else if (key == "drop") {
        plan.drop_rate = std::stod(value);
      } else if (key == "dup") {
        plan.dup_rate = std::stod(value);
      } else if (key == "delay_rate") {
        plan.delay_rate = std::stod(value);
      } else if (key == "delay_ms") {
        plan.delay_ms = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "stall_at") {
        plan.stall_at = std::stoull(value);
      } else if (key == "stall_ms") {
        plan.stall_ms = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "cut_after") {
        plan.cut_after = std::stoull(value);
      } else if (key == "truncate_at") {
        plan.truncate_at = std::stoull(value);
      } else if (key == "partition_after") {
        plan.partition_after = std::stoull(value);
      } else {
        throw std::invalid_argument("unknown fault plan key '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      throw std::invalid_argument("fault plan value '" + value +
                                  "' for key '" + key + "' is malformed");
    }
  }
  return plan;
}

std::string fault_plan_text(const FaultPlan& plan) {
  std::string out;
  auto add = [&out](const std::string& piece) {
    if (!out.empty()) {
      out += ',';
    }
    out += piece;
  };
  if (plan.drop_rate > 0) {
    add("drop=" + std::to_string(plan.drop_rate));
  }
  if (plan.dup_rate > 0) {
    add("dup=" + std::to_string(plan.dup_rate));
  }
  if (plan.delay_rate > 0) {
    add("delay=" + std::to_string(plan.delay_ms) + "ms@" +
        std::to_string(plan.delay_rate));
  }
  if (plan.stall_at != 0) {
    add("stall_at=" + std::to_string(plan.stall_at) + "x" +
        std::to_string(plan.stall_ms) + "ms");
  }
  if (plan.cut_after != 0) {
    add("cut_after=" + std::to_string(plan.cut_after));
  }
  if (plan.truncate_at != 0) {
    add("truncate_at=" + std::to_string(plan.truncate_at));
  }
  if (plan.partition_after != 0) {
    add("partition_after=" + std::to_string(plan.partition_after));
  }
  return out.empty() ? "none" : out;
}

FaultPlan derive_fault_plan(const FaultPlan& plan, std::size_t index) {
  FaultPlan derived = plan;
  derived.seed = plan.seed + static_cast<std::uint64_t>(index) * 1000003ull;
  return derived;
}

void Channel::adopt(int fd) {
  close();
  fd_ = fd;
  sent_frames_ = 0;
  send_seq_ = 0;
  recv_seq_ = 0;
  broken_ = false;
  partitioned_ = false;
  cut_on_drain_ = false;
  rx_eof_ = false;
  tx_.clear();
  tx_off_ = 0;
  rx_.clear();
  rx_pos_ = 0;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw WireError(std::string("fcntl O_NONBLOCK: ") + std::strerror(errno));
  }
  tx_.reserve(std::size_t{64} << 10);
  rx_.reserve(std::size_t{64} << 10);
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Channel::set_faults(FaultPlan* plan) {
  faults_ = plan;
  if (plan != nullptr) {
    rng_ = plan->seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  }
}

bool Channel::chance(double p) {
  if (p <= 0) {
    return false;
  }
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return static_cast<double>(rng_ >> 11) * 0x1.0p-53 < p;
}

void Channel::send(MsgType type, const WireWriter& body) {
  enqueue(type, body);
  flush_all();
}

// The fault pipeline: commits the (possibly perturbed) frame bytes to tx_;
// the enqueue order is the stream order.
void Channel::enqueue(MsgType type, const WireWriter& body) {
  if (fd_ < 0 || broken_) {
    throw WireError("connection cut by fault injection");
  }
  if (faults_ == nullptr || !faults_->any()) {
    append_frame(tx_, type, body, send_seq_++);
    ++sent_frames_;
    return;
  }
  ++sent_frames_;

  // Timing faults first: they perturb when, not whether, the bytes land.
  if (faults_->stall_at != 0 && sent_frames_ == faults_->stall_at) {
    const std::uint32_t ms = faults_->stall_ms;
    faults_->stall_at = 0;  // one-shot
    ::usleep(static_cast<useconds_t>(ms) * 1000);
  } else if (chance(faults_->delay_rate)) {
    ::usleep(static_cast<useconds_t>(faults_->delay_ms) * 1000);
  }

  if (faults_->partition_after != 0 &&
      sent_frames_ >= faults_->partition_after) {
    faults_->partition_after = 0;  // disarm for the next connection
    partitioned_ = true;
  }
  if (partitioned_) {
    ++send_seq_;  // the peer never hears this frame, or any after it
    return;
  }

  if (faults_->truncate_at != 0 && sent_frames_ == faults_->truncate_at) {
    faults_->truncate_at = 0;  // one-shot
    const std::size_t before = tx_.size();
    append_frame(tx_, type, body, send_seq_++);
    const std::size_t frame = tx_.size() - before;
    tx_.resize(before + (frame < 2 ? 1 : frame / 2));
    // Push the torn bytes out as far as the socket allows before dying, so
    // the peer observes a mid-frame EOF rather than a silent vanish.
    flush();
    ::shutdown(fd_, SHUT_RDWR);
    broken_ = true;
    throw WireError("fault injection: frame truncated mid-send");
  }

  if (chance(faults_->drop_rate)) {
    ++send_seq_;  // the gap surfaces at the peer's next recv
    return;
  }

  const bool duplicate = chance(faults_->dup_rate);
  append_frame(tx_, type, body, send_seq_);
  if (duplicate) {
    append_frame(tx_, type, body, send_seq_);  // same seq: a true dup
  }
  ++send_seq_;

  if (faults_->cut_after != 0 && sent_frames_ >= faults_->cut_after) {
    faults_->cut_after = 0;  // one-shot
    cut_on_drain_ = true;  // shut down after this frame's bytes land
  }
}

bool Channel::flush() {
  while (tx_off_ < tx_.size()) {
    const ssize_t sent =
        ::send(fd_, tx_.data() + tx_off_, tx_.size() - tx_off_, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return false;
      }
      throw WireError(std::string("send: ") + std::strerror(errno));
    }
    tx_off_ += static_cast<std::size_t>(sent);
  }
  tx_.clear();
  tx_off_ = 0;
  if (cut_on_drain_) {
    cut_on_drain_ = false;
    ::shutdown(fd_, SHUT_RDWR);
    broken_ = true;
  }
  return true;
}

void Channel::flush_all() {
  while (!flush()) {
    struct pollfd pfd {};
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    ::poll(&pfd, 1, -1);
  }
}

int Channel::buffered_recv(Frame& frame) {
  for (;;) {
    const std::size_t avail = rx_.size() - rx_pos_;
    if (avail >= kFrameHeaderBytes) {
      const std::uint8_t* header = rx_.data() + rx_pos_;
      const std::uint32_t len = frame_payload_size(header);
      if (avail >= kFrameHeaderBytes + len) {
        parse_frame(header, header + kFrameHeaderBytes, len, frame, recv_seq_);
        ++recv_seq_;
        rx_pos_ += kFrameHeaderBytes + len;
        if (rx_pos_ == rx_.size()) {
          rx_.clear();
          rx_pos_ = 0;
        } else if (rx_pos_ >= (std::size_t{1} << 20)) {
          // Compact occasionally so a long-lived connection cannot grow the
          // buffer with already-consumed bytes.
          rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(rx_pos_));
          rx_pos_ = 0;
        }
        return 1;
      }
    }
    if (rx_eof_) {
      if (rx_.size() == rx_pos_) {
        return -1;
      }
      throw WireError("connection closed mid-frame");
    }
    std::uint8_t chunk[16 << 10];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return 0;
      }
      throw WireError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      rx_eof_ = true;
      continue;
    }
    rx_.insert(rx_.end(), chunk, chunk + n);
  }
}

}  // namespace revisim::dist
