// The write-all loop behind every durable file: the WAL, the data file,
// archive segments, the MANIFEST and base images, and restored clones.

#ifndef DYNOPT_DURABILITY_FILE_IO_H_
#define DYNOPT_DURABILITY_FILE_IO_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace dynopt {

/// Writes all `n` bytes of `data` at `offset`, resuming after short writes
/// and EINTR. Does not sync.
Status PwriteAll(int fd, const void* data, size_t n, uint64_t offset);

}  // namespace dynopt

#endif  // DYNOPT_DURABILITY_FILE_IO_H_
