#include "server_proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace e2e {
namespace {

constexpr int kBannerTimeoutMs = 30000;

/// Reads stdout until the banner line arrives; returns the parsed port.
uint16_t ReadBannerPort(int fd, std::string* error) {
  std::string text;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(kBannerTimeoutMs);
  while (text.find('\n') == std::string::npos) {
    int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    if (left <= 0) {
      *error = "timed out waiting for the laminar_serve banner";
      return 0;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, left) <= 0) continue;
    char buf[256];
    ssize_t got = ::read(fd, buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      *error = "laminar_serve exited before printing its banner";
      return 0;
    }
    text.append(buf, static_cast<size_t>(got));
  }
  size_t colon = text.rfind(':', text.find('\n'));
  if (colon == std::string::npos) {
    *error = "unparseable banner: " + text;
    return 0;
  }
  return static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& extra_args) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    error_ = std::strerror(errno);
    return;
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    error_ = std::strerror(errno);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return;
  }
  std::vector<std::string> args = {binary, "--port", "0", "--stdin-eof"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "e2ebench: exec %s: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (pid_ < 0) {
    error_ = std::strerror(errno);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    return;
  }
  stdin_fd_ = in_pipe[1];
  port_ = ReadBannerPort(out_pipe[0], &error_);
  ::close(out_pipe[0]);  // the server writes nothing else to stdout
  if (port_ == 0) Stop();
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  int status = 0;
  for (int i = 0; i < 200; ++i) {  // up to 10 s for a clean exit
    pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_ || (got < 0 && errno != EINTR)) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

}  // namespace e2e
