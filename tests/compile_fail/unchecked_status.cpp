// unchecked-status: a dropped FsClient::pread result hides a short read.
// Must fail with: ignoring return value of ... FsClient::pread.
#include <cstdint>
#include <vector>

#include "fsim/posix_fs.hpp"

void read_header(bitio::fsim::FsClient& io, int fd) {
  std::vector<std::uint8_t> header(64);
  io.pread(fd, 0, header);
}
