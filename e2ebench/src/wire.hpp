// A minimal client for the Laminar wire protocol, written for measurement.
//
// The library's HttpConnection hands chunks to whichever thread pops them,
// so a response's arrival time would be when the generator got round to it.
// WireConn instead owns one reader thread per socket that parses frames and
// stamps each DATA/END frame with the steady clock the moment it is read.
//
// Frame layout (the codec in src/net/http.cpp): u32 payload_len | u8 type |
// u64 stream_id | payload, little-endian. HEADERS carries the request
// envelope {"method","path","headers","body"}, END a u32 status.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace e2e {

/// Steady-clock nanoseconds.
int64_t NowNs();

/// Encodes one HEADERS frame for a POST of `body` to `path`.
std::string EncodeRequest(uint64_t stream_id, const std::string& path,
                          const std::string& body);

/// Timing and outcome of one scheduled request. The sender writes the first
/// block before the request leaves; the connection's reader writes the
/// second block when frames arrive. The two blocks never overlap in time
/// for one slot, and `done` (release/acquire) publishes the reader's block.
struct Slot {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  uint32_t req_bytes = 0;

  int64_t first_data_ns = 0;
  int64_t end_ns = 0;
  int status = 0;  ///< HTTP status from END; 0 = no END (failed)
  uint32_t resp_bytes = 0;
  std::string body;
  std::atomic<bool> done{false};
};

struct CallResult {
  int status = 0;  ///< 0 = connection failed
  std::string body;
};

class WireConn {
 public:
  /// Connects to 127.0.0.1:port. Null on failure (message in *error).
  static std::unique_ptr<WireConn> Dial(uint16_t port, std::string* error);
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Slots addressed by load-phase stream ids: stream id 2 * (base + i) + 1
  /// is slot i. Frames for ids outside the bound range are ignored, so a
  /// straggler from an earlier phase cannot land in a later one.
  void BindSlots(std::vector<Slot>* slots, uint64_t base,
                 std::atomic<size_t>* completed);

  /// Writes a pre-encoded HEADERS frame. False once the socket failed.
  bool Write(const std::string& frame);

  /// Blocking request/response on a private stream id.
  CallResult Call(const std::string& path, const std::string& body);

 private:
  explicit WireConn(int fd);
  void ReaderLoop();
  void OnFrame(uint8_t type, uint64_t stream_id, std::string payload,
               int64_t at_ns);
  void FailAll();

  int fd_;
  std::mutex write_mu_;
  std::atomic<bool> closed_{false};

  std::vector<Slot>* slots_ = nullptr;
  uint64_t base_ = 0;
  std::atomic<size_t>* completed_ = nullptr;

  std::mutex call_mu_;
  std::condition_variable call_cv_;
  std::unordered_map<uint64_t, CallResult> calls_;  ///< finished calls
  uint64_t next_call_id_ = 1;

  std::thread reader_;  ///< last: uses every member above
};

}  // namespace e2e
