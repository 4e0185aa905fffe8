#include "durability/file_io.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace dynopt {

Status PwriteAll(int fd, const void* data, size_t n, uint64_t offset) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite failed: " +
                             std::string(std::strerror(errno)));
    }
    p += w;
    n -= static_cast<size_t>(w);
    offset += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

}  // namespace dynopt
