#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/value.hpp"

namespace e2e {
namespace {

constexpr uint8_t kFrameHeaders = 1;
constexpr uint8_t kFrameData = 2;
constexpr uint8_t kFrameEnd = 3;
constexpr uint8_t kFrameRst = 4;
constexpr uint64_t kCallBit = uint64_t{1} << 62;

void PutLe(std::string& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t GetLe(const unsigned char* p, int bytes) {
  uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

bool ReadExact(int fd, char* buf, size_t n) {
  while (n > 0) {
    ssize_t got = ::read(fd, buf, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string EncodeRequest(uint64_t stream_id, const std::string& path,
                          const std::string& body) {
  laminar::Value envelope = laminar::Value::MakeObject();
  envelope["method"] = "POST";
  envelope["path"] = path;
  envelope["headers"] = laminar::Value::MakeObject();
  envelope["body"] = body;
  std::string payload = envelope.ToJson();
  std::string frame;
  frame.reserve(13 + payload.size());
  PutLe(frame, payload.size(), 4);
  frame.push_back(static_cast<char>(kFrameHeaders));
  PutLe(frame, stream_id, 8);
  frame += payload;
  return frame;
}

std::unique_ptr<WireConn> WireConn::Dial(uint16_t port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    *error = std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::unique_ptr<WireConn>(new WireConn(fd));
}

WireConn::WireConn(int fd) : fd_(fd) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

WireConn::~WireConn() {
  ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void WireConn::BindSlots(std::vector<Slot>* slots, uint64_t base,
                         std::atomic<size_t>* completed) {
  std::scoped_lock lock(call_mu_);
  slots_ = slots;
  base_ = base;
  completed_ = completed;
}

bool WireConn::Write(const std::string& frame) {
  std::scoped_lock lock(write_mu_);
  const char* p = frame.data();
  size_t n = frame.size();
  while (n > 0) {
    ssize_t put = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<size_t>(put);
  }
  return true;
}

CallResult WireConn::Call(const std::string& path, const std::string& body) {
  uint64_t id;
  {
    std::scoped_lock lock(call_mu_);
    id = kCallBit | (2 * next_call_id_++ + 1);
    calls_[id];  // pending entry; DATA accumulates here
  }
  if (!Write(EncodeRequest(id, path, body))) return {};
  std::unique_lock lock(call_mu_);
  call_cv_.wait(lock, [&] {
    return closed_.load() || calls_.at(id).status != 0;
  });
  CallResult result = std::move(calls_.at(id));
  calls_.erase(id);
  return result;
}

void WireConn::ReaderLoop() {
  while (true) {
    unsigned char header[13];
    if (!ReadExact(fd_, reinterpret_cast<char*>(header), sizeof header)) break;
    uint64_t len = GetLe(header, 4);
    uint8_t type = header[4];
    uint64_t stream_id = GetLe(header + 5, 8);
    std::string payload(len, '\0');
    if (len > 0 && !ReadExact(fd_, payload.data(), len)) break;
    OnFrame(type, stream_id, std::move(payload), NowNs());
  }
  FailAll();
}

void WireConn::OnFrame(uint8_t type, uint64_t stream_id, std::string payload,
                       int64_t at_ns) {
  int status = 0;
  if (type == kFrameEnd && payload.size() >= 4) {
    status = static_cast<int>(
        GetLe(reinterpret_cast<const unsigned char*>(payload.data()), 4));
  } else if (type == kFrameRst) {
    status = 599;  // stream reset: counted as a failed request
  } else if (type != kFrameData) {
    return;
  }
  std::scoped_lock lock(call_mu_);
  if (stream_id & kCallBit) {
    auto it = calls_.find(stream_id);
    if (it == calls_.end()) return;
    if (type == kFrameData || type == kFrameRst) it->second.body += payload;
    if (status != 0) {
      it->second.status = status;
      call_cv_.notify_all();
    }
    return;
  }
  const uint64_t index = stream_id / 2;
  if (slots_ == nullptr || index < base_ || index - base_ >= slots_->size()) {
    return;
  }
  Slot& slot = (*slots_)[index - base_];
  if (slot.done.load(std::memory_order_relaxed)) return;
  slot.resp_bytes += static_cast<uint32_t>(13 + payload.size());
  if (type == kFrameData) {
    if (slot.first_data_ns == 0) slot.first_data_ns = at_ns;
    slot.body += payload;
    return;
  }
  if (type == kFrameRst) slot.body += payload;
  slot.status = status;
  slot.end_ns = at_ns;
  slot.done.store(true, std::memory_order_release);
  completed_->fetch_add(1, std::memory_order_release);
}

void WireConn::FailAll() {
  std::scoped_lock lock(call_mu_);
  closed_.store(true);
  call_cv_.notify_all();
}

}  // namespace e2e
