// A laminar_serve child process: spawned with --port 0 --stdin-eof, its
// port parsed from the startup banner, stopped by closing its stdin (then
// SIGKILL if it does not exit), and always reaped.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

class ServerProcess {
 public:
  /// Starts `binary` with `extra_args`. Check ok() afterwards.
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& extra_args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool ok() const { return port_ != 0; }
  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  const std::string& error() const { return error_; }

  /// Peak resident set (VmHWM) in MB; 0 when unreadable.
  double PeakRssMb() const;

  /// Stops and reaps the process. Idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  uint16_t port_ = 0;
  std::string error_;
};

}  // namespace e2e
