#include "fsim/posix_fs.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/table.hpp"

namespace bitio::fsim {

SharedFs::SharedFs(int ost_count, bool store_data,
                   StripeSettings default_stripe)
    : store_(ost_count, store_data, default_stripe) {}

void SharedFs::append_op(const TraceOp& op) {
  if (!tracing_) return;
  // Coalesce a sequential write with the immediately preceding one from the
  // same client and file.  Faulted ops are never coalesced so each injection
  // stays attributable.  (The lock is already held by the caller.)
  if (op.kind == OpKind::write && op.fault == FaultKind::none &&
      !trace_.empty()) {
    TraceOp& last = trace_.back();
    if (last.kind == OpKind::write && last.fault == FaultKind::none &&
        last.client == op.client && last.lane == op.lane &&
        last.file == op.file && last.offset + last.bytes == op.offset) {
      last.bytes += op.bytes;
      last.op_count += op.op_count;
      return;
    }
  }
  trace_.push_back(op);
}

void SharedFs::set_fault_plan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan.validate();
  fault_plan_ = std::move(plan);
}

void SharedFs::clear_fault_plan() {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_plan_.reset();
}

std::uint64_t SharedFs::injected_fault_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_plan_ ? fault_plan_->injected_count() : 0;
}

bool SharedFs::should_crash(int rank, std::uint64_t step) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_plan_ && fault_plan_->should_crash(rank, step);
}

FaultKind SharedFs::next_write_fault(const FileNode& node, ClientId client,
                                     std::uint64_t bytes) {
  if (!fault_plan_) return FaultKind::none;
  const auto fault = fault_plan_->next_write_fault(node.path, client, bytes);
  return fault ? *fault : FaultKind::none;
}

std::uint64_t SharedFs::traced_bytes_written() const {
  std::uint64_t sum = 0;
  for (const auto& op : trace_)
    if (op.kind == OpKind::write || op.kind == OpKind::batch_write)
      sum += op.bytes;
  return sum;
}

std::uint64_t SharedFs::traced_bytes_read() const {
  std::uint64_t sum = 0;
  for (const auto& op : trace_)
    if (op.kind == OpKind::read) sum += op.bytes;
  return sum;
}

void FsClient::mkdir(const std::string& path) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  fs_->store_.mkdirs(path);
  fs_->append_op({.client = client_, .lane = lane_, .kind = OpKind::mkdir});
}

void FsClient::setstripe(const std::string& dir, StripeSettings settings) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  fs_->store_.set_dir_stripe(dir, settings);
}

StripeLayout FsClient::getstripe(const std::string& file) const {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  return fs_->store_.file(file).layout;
}

std::string FsClient::getstripe_text(const std::string& file) const {
  const StripeLayout layout = getstripe(file);
  std::string out = file + "\n";
  out += strfmt("lmm_stripe_count:  %d\n", layout.settings.stripe_count);
  out += strfmt("lmm_stripe_size:   %llu\n",
                static_cast<unsigned long long>(layout.settings.stripe_size));
  out += strfmt("lmm_pattern:       %s\n", layout.pattern.c_str());
  out += strfmt("lmm_stripe_offset: %d\n", layout.stripe_offset);
  out += "\tobdidx\t\tobjid\t\tobjid\t\tgroup\n";
  for (std::size_t i = 0; i < layout.ost_indices.size(); ++i) {
    out += strfmt("\t%6d\t%12llu\t%#14llx\t%#10llx\n", layout.ost_indices[i],
                  static_cast<unsigned long long>(layout.object_ids[i]),
                  static_cast<unsigned long long>(layout.object_ids[i]),
                  static_cast<unsigned long long>(i));
  }
  return out;
}

bool FsClient::exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  return fs_->store_.file_exists(path) || fs_->store_.dir_exists(path);
}

std::uint64_t FsClient::stat_size(const std::string& path) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  const FileNode& node = fs_->store_.file(path);
  fs_->append_op({.client = client_, .file = node.id, .lane = lane_,
                  .kind = OpKind::stat});
  return node.size;
}

void FsClient::unlink(const std::string& path) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  const FileId id = fs_->store_.file(path).id;
  fs_->store_.unlink(path);
  fs_->append_op({.client = client_, .file = id, .lane = lane_,
                  .kind = OpKind::unlink});
}

void FsClient::rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  const FileId id = fs_->store_.file(from).id;
  fs_->store_.rename(from, to);
  fs_->append_op({.client = client_, .file = id, .lane = lane_,
                  .kind = OpKind::rename});
}

int FsClient::open(const std::string& path, OpenMode mode) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  FileNode* node = nullptr;
  OpKind meta = OpKind::open;
  switch (mode) {
    case OpenMode::create:
      node = &fs_->store_.create_file(path);
      meta = OpKind::create;
      break;
    case OpenMode::create_or_truncate:
      node = fs_->store_.find_file(path);
      if (node) {
        fs_->store_.truncate(*node, 0);
        meta = OpKind::open;
      } else {
        node = &fs_->store_.create_file(path);
        meta = OpKind::create;
      }
      break;
    case OpenMode::write:
    case OpenMode::append:
    case OpenMode::read:
      node = &fs_->store_.file(path);
      break;
  }
  return open_node(*node, mode, meta);
}

int FsClient::reopen(FileId file, OpenMode mode) {
  if (mode == OpenMode::create || mode == OpenMode::create_or_truncate)
    throw UsageError("reopen: a create mode needs a path");
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  const FileNode& node = fs_->store_.file_by_id(file);
  if (!node.linked)
    throw IoError("reopen: '" + node.path + "' is no longer linked");
  return open_node(node, mode, OpKind::open);
}

int FsClient::open_node(const FileNode& node, OpenMode mode, OpKind meta) {
  SharedFs::Descriptor desc;
  desc.file = node.id;
  desc.client = client_;
  desc.position = mode == OpenMode::append ? node.size : 0;
  desc.writable = mode != OpenMode::read;
  desc.open = true;
  fs_->append_op({.client = client_, .file = node.id, .lane = lane_,
                  .kind = meta});
  if (fs_->closed_fds_.empty()) {
    fs_->fds_.push_back(desc);
    return int(fs_->fds_.size() - 1);
  }
  const int fd = fs_->closed_fds_.top();
  fs_->closed_fds_.pop();
  fs_->fds_[std::size_t(fd)] = desc;
  return fd;
}

namespace {
SharedFs::Descriptor& checked_fd(std::vector<SharedFs::Descriptor>& fds,
                                 int fd, ClientId client) {
  if (fd < 0 || std::size_t(fd) >= fds.size() || !fds[std::size_t(fd)].open)
    throw IoError("bad file descriptor " + std::to_string(fd));
  auto& desc = fds[std::size_t(fd)];
  if (desc.client != client)
    throw IoError("descriptor " + std::to_string(fd) +
                  " belongs to another client");
  return desc;
}
}  // namespace

namespace {
/// Whether `fault` fails the write before anything is persisted.
bool fails_write(FaultKind fault) {
  return fault == FaultKind::eio || fault == FaultKind::enospc ||
         fault == FaultKind::stall;
}

/// "<call>: injected <fault> on '<path>'", the message of a failed write.
std::string injected_message(const char* call, FaultKind fault,
                             const std::string& path) {
  return std::string(call) + ": injected " + fault_name(fault) + " on '" +
         path + "'";
}

/// Failure tail shared by the data-write entry points: the caller has
/// already traced the failed attempt.  A stall (an unresponsive OST) is a
/// TimeoutError, eio/enospc an IoError.
[[noreturn]] void throw_injected(const char* call, FaultKind fault,
                                 const std::string& path) {
  if (fault == FaultKind::stall)
    throw TimeoutError(injected_message(call, fault, path));
  throw IoError(injected_message(call, fault, path));
}
}  // namespace

void FsClient::write(int fd, std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  if (!desc.writable) throw IoError("write: descriptor is read-only");
  FileNode& node = fs_->store_.file_by_id(desc.file);
  const FaultKind fault = fs_->next_write_fault(node, client_, data.size());
  if (fails_write(fault)) {
    fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                    .kind = OpKind::write, .fault = fault,
                    .offset = desc.position});
    throw_injected("write", fault, node.path);
  }
  std::uint64_t persist = data.size();
  if (fault == FaultKind::torn_write)
    persist = fs_->fault_plan_->torn_prefix(fs_->fault_plan_->injected_count(),
                                            data.size());
  fs_->store_.pwrite(node, desc.position, data.data(), persist);
  if (fault == FaultKind::bit_flip && fs_->store_.stores_data() &&
      !data.empty()) {
    const std::uint64_t bit = fs_->fault_plan_->flip_bit_index(
        fs_->fault_plan_->injected_count(), data.size());
    node.data[desc.position + bit / 8] ^= std::uint8_t(1u << (bit % 8));
  }
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .kind = OpKind::write, .fault = fault,
                  .offset = desc.position, .bytes = persist});
  // The caller saw a successful full write (torn tails are a *silent*
  // failure, discovered only on verification).
  desc.position += data.size();
}

void FsClient::pwrite(int fd, std::uint64_t offset,
                      std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  if (!desc.writable) throw IoError("pwrite: descriptor is read-only");
  FileNode& node = fs_->store_.file_by_id(desc.file);
  const FaultKind fault = fs_->next_write_fault(node, client_, data.size());
  if (fails_write(fault)) {
    fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                    .kind = OpKind::write, .fault = fault, .offset = offset});
    throw_injected("pwrite", fault, node.path);
  }
  std::uint64_t persist = data.size();
  if (fault == FaultKind::torn_write)
    persist = fs_->fault_plan_->torn_prefix(fs_->fault_plan_->injected_count(),
                                            data.size());
  fs_->store_.pwrite(node, offset, data.data(), persist);
  if (fault == FaultKind::bit_flip && fs_->store_.stores_data() &&
      !data.empty()) {
    const std::uint64_t bit = fs_->fault_plan_->flip_bit_index(
        fs_->fault_plan_->injected_count(), data.size());
    node.data[offset + bit / 8] ^= std::uint8_t(1u << (bit % 8));
  }
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .kind = OpKind::write, .fault = fault, .offset = offset,
                  .bytes = persist});
}

void FsClient::write_simulated(int fd, std::uint64_t bytes,
                               std::uint32_t op_count) {
  if (op_count == 0) throw UsageError("write_simulated: op_count must be > 0");
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  if (!desc.writable)
    throw IoError("write_simulated: descriptor is read-only");
  FileNode& node = fs_->store_.file_by_id(desc.file);
  const FaultKind fault = fs_->next_write_fault(node, client_, bytes);
  if (fails_write(fault)) {
    fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                    .kind = OpKind::write, .fault = fault,
                    .offset = desc.position});
    throw_injected("write_simulated", fault, node.path);
  }
  std::uint64_t persist = bytes;
  if (fault == FaultKind::torn_write)
    persist = fs_->fault_plan_->torn_prefix(fs_->fault_plan_->injected_count(),
                                            bytes);
  node.size = std::max(node.size, desc.position + persist);
  if (fs_->store_.stores_data() && node.data.size() < node.size)
    node.data.resize(node.size, 0);
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .op_count = op_count, .kind = OpKind::write, .fault = fault,
                  .offset = desc.position, .bytes = persist});
  desc.position += bytes;
}

void FsClient::read_simulated(int fd, std::uint64_t bytes,
                              std::uint32_t op_count) {
  if (op_count == 0) throw UsageError("read_simulated: op_count must be > 0");
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  const FileNode& node = fs_->store_.file_by_id(desc.file);
  const std::uint64_t avail =
      desc.position < node.size ? node.size - desc.position : 0;
  const std::uint64_t n = std::min(bytes, avail);
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .op_count = op_count, .kind = OpKind::read,
                  .offset = desc.position, .bytes = n});
  desc.position += n;
}

std::uint64_t FsClient::read(int fd, std::span<std::uint8_t> out) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  const FileNode& node = fs_->store_.file_by_id(desc.file);
  const std::uint64_t n =
      fs_->store_.pread(node, desc.position, out.data(), out.size());
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .kind = OpKind::read, .offset = desc.position, .bytes = n});
  desc.position += n;
  return n;
}

std::uint64_t FsClient::pread(int fd, std::uint64_t offset,
                              std::span<std::uint8_t> out) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  const FileNode& node = fs_->store_.file_by_id(desc.file);
  const std::uint64_t n =
      fs_->store_.pread(node, offset, out.data(), out.size());
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .kind = OpKind::read, .offset = offset, .bytes = n});
  return n;
}

std::uint64_t FsClient::fd_size(int fd) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  return fs_->store_.file_by_id(desc.file).size;
}

FileId FsClient::fd_file(int fd) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  return checked_fd(fs_->fds_, fd, client_).file;
}

void FsClient::seek(int fd, std::uint64_t position) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  desc.position = position;
}

void FsClient::fsync(int fd) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .kind = OpKind::fsync});
}

void FsClient::close(int fd) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  auto& desc = checked_fd(fs_->fds_, fd, client_);
  desc.open = false;
  fs_->closed_fds_.push(fd);
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .kind = OpKind::close});
}

std::vector<std::uint8_t> FsClient::read_all(const std::string& path) {
  std::uint64_t size = 0;
  {
    std::lock_guard<std::mutex> lock(fs_->mutex_);
    size = fs_->store_.file(path).size;
  }
  const int fd = open(path, OpenMode::read);
  std::vector<std::uint8_t> out(size);
  const std::uint64_t n = read(fd, out);
  close(fd);
  out.resize(n);
  return out;
}

void FsClient::write_file(const std::string& path,
                          std::span<const std::uint8_t> data) {
  const int fd = open(path, OpenMode::create);
  write(fd, data);
  close(fd);
}

void FsClient::transfer(int fd, ClientId peer, std::uint64_t bytes,
                        bool intra_node, std::uint32_t op_count) {
  if (op_count == 0) throw UsageError("transfer: op_count must be > 0");
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  // Unlike read/write, a gather transfer targets a descriptor another
  // client opened by design: the sender ships its payload toward the
  // aggregator that owns the destination file.  Only the file identity is
  // needed, so skip the ownership half of checked_fd.
  if (fd < 0 || std::size_t(fd) >= fs_->fds_.size() ||
      !fs_->fds_[std::size_t(fd)].open)
    throw IoError("bad file descriptor " + std::to_string(fd));
  const auto& desc = fs_->fds_[std::size_t(fd)];
  fs_->append_op({.client = client_, .file = desc.file, .lane = lane_,
                  .op_count = op_count, .peer = peer, .kind = OpKind::xfer,
                  .tag = intra_node ? TraceTag::shm_gather
                                    : TraceTag::net_gather,
                  .bytes = bytes});
}

void FsClient::charge_cpu(double seconds, TraceTag tag) {
  // A negative duration would complete the op before it starts, breaking
  // the replay's time order.
  if (!(seconds >= 0.0) || !std::isfinite(seconds))
    throw UsageError("charge_cpu: seconds must be finite and >= 0, got " +
                     std::to_string(seconds));
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  fs_->append_op({.client = client_, .lane = lane_, .kind = OpKind::cpu,
                  .tag = tag, .cpu_seconds = seconds});
}

void FsClient::note_fault(FaultKind kind) {
  std::lock_guard<std::mutex> lock(fs_->mutex_);
  fs_->append_op({.client = client_, .lane = lane_, .kind = OpKind::cpu,
                  .tag = TraceTag::fault, .fault = kind});
}

// ---------------------------------------------------------------- queue pair

SubmissionQueue::SubmissionQueue(FsClient client, std::size_t depth,
                                 bool coalesce)
    : io_(client), depth_(depth), coalesce_(coalesce) {
  if (depth_ == 0)
    throw UsageError("SubmissionQueue: depth must be > 0");
  sqes_.reserve(depth_);
}

void SubmissionQueue::push(Sqe sqe) {
  if (!try_push(sqe))
    throw UsageError("SubmissionQueue::push: ring is full (depth " +
                     std::to_string(depth_) + "); submit() first");
}

bool SubmissionQueue::try_push(Sqe& sqe) {
  if (sqes_.size() >= depth_) return false;
  sqes_.push_back(std::move(sqe));
  return true;
}

std::vector<Cqe> SubmissionQueue::submit() {
  std::vector<Cqe> cqes;
  if (sqes_.empty()) return cqes;
  SharedFs& fs = io_.shared();
  const ClientId client = io_.client();
  const std::uint32_t lane = io_.lane();
  std::lock_guard<std::mutex> lock(fs.mutex_);

  // Validate every descriptor before touching any sqe: a bad fd is a
  // programming error and must not leave a half-processed batch behind.
  for (const Sqe& sqe : sqes_) {
    const auto& desc = checked_fd(fs.fds_, sqe.fd, client);
    if (!desc.writable) throw IoError("submit: descriptor is read-only");
    if (sqe.simulated_bytes > 0 && !sqe.iov.empty())
      throw UsageError(
          "submit: an sqe is either payload (iov) or size-only "
          "(simulated_bytes), not both");
  }

  cqes.reserve(sqes_.size());

  // The first trace record of the batch carries the doorbell tag: the
  // timing replay charges batch_setup_s only there, so setup is amortized
  // over the whole submission.
  bool doorbell = true;
  // Coalescing accumulator: a run of adjacent fault-free sqes on one file
  // becomes a single vectored trace record (op_count = sqes merged).
  struct Run {
    FileId file = kNoFile;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint32_t sqes = 0;
  };
  Run run;
  const auto trace_op = [&](TraceOp op) {
    if (doorbell) {
      op.tag = TraceTag::doorbell;
      doorbell = false;
    }
    fs.append_op(op);
  };
  const auto flush_run = [&] {
    if (run.sqes == 0) return;
    trace_op({.client = client, .file = run.file, .lane = lane,
              .op_count = run.sqes, .kind = OpKind::batch_write,
              .offset = run.offset, .bytes = run.bytes});
    run = Run{};
  };

  for (Sqe& sqe : sqes_) {
    Cqe cqe;
    cqe.user_data = sqe.user_data;
    cqe.bytes_requested = sqe.bytes();
    auto& desc = checked_fd(fs.fds_, sqe.fd, client);
    FileNode& node = fs.store_.file_by_id(desc.file);
    const FaultKind fault =
        fs.next_write_fault(node, client, cqe.bytes_requested);
    cqe.fault = fault;
    if (fails_write(fault)) {
      flush_run();
      trace_op({.client = client, .file = desc.file, .lane = lane,
                .kind = OpKind::batch_write, .fault = fault,
                .offset = sqe.offset});
      cqe.ok = false;
      cqe.error = injected_message("submit", fault, node.path);
      cqes.push_back(std::move(cqe));
      continue;
    }
    std::uint64_t persist = cqe.bytes_requested;
    if (fault == FaultKind::torn_write)
      persist = fs.fault_plan_->torn_prefix(
          fs.fault_plan_->injected_count(), cqe.bytes_requested);
    std::uint64_t written = 0;
    for (const auto& segment : sqe.iov) {
      if (written >= persist) break;
      const std::uint64_t n =
          std::min<std::uint64_t>(segment.size(), persist - written);
      fs.store_.pwrite(node, sqe.offset + written, segment.data(), n);
      written += n;
    }
    if (sqe.simulated_bytes > 0) {
      // Size-only sqe: grow the node like write_simulated does.
      node.size = std::max(node.size, sqe.offset + persist);
      if (fs.store_.stores_data() && node.data.size() < node.size)
        node.data.resize(node.size, 0);
    }
    if (fault == FaultKind::bit_flip && fs.store_.stores_data() &&
        persist > 0) {
      const std::uint64_t bit = fs.fault_plan_->flip_bit_index(
          fs.fault_plan_->injected_count(), persist);
      node.data[sqe.offset + bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }
    cqe.bytes_persisted = persist;
    if (fault != FaultKind::none) {
      // Faulted records are never coalesced, so each injection stays
      // attributable in the trace.
      flush_run();
      trace_op({.client = client, .file = desc.file, .lane = lane,
                .kind = OpKind::batch_write, .fault = fault,
                .offset = sqe.offset, .bytes = persist});
    } else if (coalesce_ && run.sqes > 0 && run.file == desc.file &&
               run.offset + run.bytes == sqe.offset) {
      run.bytes += persist;
      run.sqes += 1;
    } else {
      flush_run();
      run = {desc.file, sqe.offset, persist, 1};
      if (!coalesce_) flush_run();
    }
    cqes.push_back(std::move(cqe));
  }
  flush_run();
  sqes_.clear();
  return cqes;
}

}  // namespace bitio::fsim
