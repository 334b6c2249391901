#pragma once
// In-memory object store with Lustre-flavoured semantics: a directory tree
// whose files carry a RAID0 stripe layout over simulated OSTs.
//
// This is the *correctness* half of the storage simulator: bytes written
// through PosixFs land here and can be read back bit-exactly, and
// `lfs getstripe`-style layout queries (Listing 1 in the paper) are answered
// from the recorded layout.  The *timing* half (fsim::StorageModel) replays
// the operation trace against a queueing model.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fsim/types.hpp"

namespace bitio::fsim {

/// Split "a/b/c" into {"a","b","c"}; leading '/' and repeated '/' ignored.
std::vector<std::string> split_path(const std::string& path);
/// Parent of "a/b/c" is "a/b"; parent of "a" is "".
std::string parent_path(const std::string& path);
/// Last component of the path.
std::string base_name(const std::string& path);

struct FileNode {
  FileId id = kNoFile;
  std::string path;
  std::vector<std::uint8_t> data;   // absent when store_data is off
  std::uint64_t size = 0;           // authoritative size
  StripeLayout layout;
  std::uint64_t create_order = 0;   // global creation sequence number
};

struct DirNode {
  std::string path;
  StripeSettings default_stripe;    // inherited by files created inside
  bool has_explicit_stripe = false;
  std::map<std::string, std::unique_ptr<DirNode>, std::less<>> dirs;
  std::map<std::string, FileId, std::less<>> files;
};

/// The shared store.  Not thread-safe by itself; PosixFs serializes access.
class ObjectStore {
public:
  /// `ost_count` bounds stripe placement; `store_data=false` keeps only
  /// sizes (used by large modelled runs that never read back).
  explicit ObjectStore(int ost_count, bool store_data = true,
                       StripeSettings default_stripe = {});

  int ost_count() const { return ost_count_; }
  bool stores_data() const { return store_data_; }

  // -- namespace operations ------------------------------------------------
  /// Create directories along the path (mkdir -p).  Returns the leaf.
  DirNode& mkdirs(std::string_view path);
  bool dir_exists(const std::string& path) const;
  bool file_exists(const std::string& path) const;

  /// `lfs setstripe` on a directory: future files inherit these settings.
  void set_dir_stripe(const std::string& path, StripeSettings settings);
  StripeSettings dir_stripe(const std::string& path) const;

  /// Create a file (parent directories are created implicitly, matching the
  /// behaviour of the real code which mkdir-s its output tree up front).
  /// `stripe_override` beats the directory default.  Fails if it exists,
  /// or if the store already holds kNoFile files.
  FileNode& create_file(const std::string& path,
                        std::optional<StripeSettings> stripe_override = {});

  /// Lookup: one probe of the path index when `path` is spelled the way
  /// the index keys it ("a/b/c"); other spellings ("/a//b/c") are
  /// normalized on the miss.  nullptr if there is no such file.
  FileNode* find_file(const std::string& path);
  const FileNode* find_file(const std::string& path) const;
  /// Lookup; throws IoError if missing.
  FileNode& file(const std::string& path);
  const FileNode& file(const std::string& path) const;
  FileNode& file_by_id(FileId id);
  const FileNode& file_by_id(FileId id) const;
  /// Files ever created, unlinked ones included: ids run 0..file_count()-1.
  std::size_t file_count() const { return files_.size(); }

  void unlink(const std::string& path);

  /// Atomic namespace move: `to` is replaced if it exists (POSIX rename
  /// semantics — the commit primitive for write-tmp-then-rename manifests).
  /// Both paths must be files; throws IoError if `from` is missing.
  void rename(const std::string& from, const std::string& to);

  /// All files under `path` (recursive), in creation order.
  std::vector<const FileNode*> list_recursive(const std::string& path) const;
  /// Every file in the store, in creation order.
  std::vector<const FileNode*> all_files() const;

  // -- data operations (used by PosixFs) ------------------------------------
  void pwrite(FileNode& node, std::uint64_t offset,
              const std::uint8_t* data, std::uint64_t n);
  std::uint64_t pread(const FileNode& node, std::uint64_t offset,
                      std::uint8_t* out, std::uint64_t n) const;
  /// Drop stored bytes for a file (truncate-to-zero + rewrite pattern used
  /// by checkpoint "iteration 0 overwrite").
  void truncate(FileNode& node, std::uint64_t size);

private:
  const DirNode* find_dir(std::string_view path) const;
  DirNode* find_dir(std::string_view path);
  StripeLayout make_layout(StripeSettings settings);

  int ost_count_;
  bool store_data_;
  DirNode root_;
  std::vector<std::unique_ptr<FileNode>> files_;  // index == FileId
  // Every file in the namespace, keyed by its path's components joined
  // with single '/'.  Kept in step with the tree by create_file, unlink
  // and rename; the tree still answers directory queries and listings.
  std::unordered_map<std::string, FileId> path_index_;
  std::uint64_t next_create_order_ = 0;
  std::uint64_t next_object_id_ = 0x11b00000;  // cosmetic, Listing-1 style
  int next_ost_ = 0;                           // round-robin base allocation
};

}  // namespace bitio::fsim
