#include "fsim/object_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace bitio::fsim {

namespace {

/// Pops the next component off the front of `rest` as a view into it;
/// empty once none is left.  Leading, trailing and repeated '/' are
/// skipped, like split_path.
std::string_view next_component(std::string_view& rest) {
  const std::size_t begin = rest.find_first_not_of('/');
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(begin);
  const std::string_view part = rest.substr(0, rest.find('/'));
  rest.remove_prefix(part.size());
  return part;
}

/// The path index's key: the components joined with single '/'.
std::string canonical_path(std::string_view path) {
  std::string out;
  out.reserve(path.size());
  for (auto part = next_component(path); !part.empty();
       part = next_component(path)) {
    if (!out.empty()) out += '/';
    out += part;
  }
  return out;
}

/// Parent directory and last component of a file path, as views into it.
struct SplitPath {
  std::string_view parent;
  std::string_view name;
};

SplitPath split_file_path(std::string_view path) {
  while (!path.empty() && path.back() == '/') path.remove_suffix(1);
  if (path.empty()) throw UsageError("base_name: empty path");
  const std::size_t slash = path.rfind('/');
  if (slash == std::string_view::npos) return {{}, path};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

}  // namespace

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string_view rest = path;
  for (auto part = next_component(rest); !part.empty();
       part = next_component(rest))
    parts.emplace_back(part);
  return parts;
}

std::string parent_path(const std::string& path) {
  auto parts = split_path(path);
  if (parts.size() <= 1) return "";
  std::string out;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (i) out += '/';
    out += parts[i];
  }
  return out;
}

std::string base_name(const std::string& path) {
  return std::string(split_file_path(path).name);
}

ObjectStore::ObjectStore(int ost_count, bool store_data,
                         StripeSettings default_stripe)
    : ost_count_(ost_count), store_data_(store_data) {
  if (ost_count <= 0) throw UsageError("ObjectStore: need at least one OST");
  root_.path = "";
  root_.default_stripe = default_stripe;
  root_.has_explicit_stripe = true;
}

DirNode& ObjectStore::mkdirs(std::string_view path) {
  DirNode* node = &root_;
  for (auto part = next_component(path); !part.empty();
       part = next_component(path)) {
    if (const auto it = node->dirs.find(part); it != node->dirs.end()) {
      node = it->second.get();
      continue;
    }
    std::string sub_path =
        node->path.empty() ? std::string(part)
                           : node->path + "/" + std::string(part);
    if (path_index_.find(sub_path) != path_index_.end())
      throw IoError("mkdirs: '" + sub_path + "' is a file");
    auto sub = std::make_unique<DirNode>();
    sub->path = std::move(sub_path);
    // Inherit striping from the parent, Lustre-style.
    sub->default_stripe = node->default_stripe;
    node = node->dirs.emplace(std::string(part), std::move(sub))
               .first->second.get();
  }
  return *node;
}

const DirNode* ObjectStore::find_dir(std::string_view path) const {
  const DirNode* node = &root_;
  for (auto part = next_component(path); !part.empty();
       part = next_component(path)) {
    const auto it = node->dirs.find(part);
    if (it == node->dirs.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

bool ObjectStore::dir_exists(const std::string& path) const {
  return find_dir(path) != nullptr;
}

bool ObjectStore::file_exists(const std::string& path) const {
  return find_file(path) != nullptr;
}

void ObjectStore::set_dir_stripe(const std::string& path,
                                 StripeSettings settings) {
  if (settings.stripe_count <= 0 || settings.stripe_size == 0)
    throw UsageError("setstripe: count and size must be positive");
  if (settings.stripe_count > ost_count_)
    throw UsageError("setstripe: stripe count " +
                     std::to_string(settings.stripe_count) + " exceeds " +
                     std::to_string(ost_count_) + " OSTs");
  DirNode& dir = mkdirs(path);
  dir.default_stripe = settings;
  dir.has_explicit_stripe = true;
}

StripeSettings ObjectStore::dir_stripe(const std::string& path) const {
  const DirNode* dir = find_dir(path);
  if (!dir) throw IoError("dir_stripe: no such directory '" + path + "'");
  return dir->default_stripe;
}

StripeLayout ObjectStore::make_layout(StripeSettings settings) {
  StripeLayout layout;
  layout.settings = settings;
  layout.stripe_offset = next_ost_;
  for (int i = 0; i < settings.stripe_count; ++i) {
    layout.ost_indices.push_back((next_ost_ + i) % ost_count_);
    layout.object_ids.push_back(next_object_id_);
    next_object_id_ += 0x15263;  // arbitrary stride, purely cosmetic
  }
  // Lustre allocates the next file's first object on a different OST to
  // balance load; emulate with a simple rotation.
  next_ost_ = (next_ost_ + settings.stripe_count) % ost_count_;
  return layout;
}

FileNode& ObjectStore::create_file(
    const std::string& path, std::optional<StripeSettings> stripe_override) {
  const auto [parent, name] = split_file_path(path);
  DirNode& dir = mkdirs(parent);
  if (dir.dirs.find(name) != dir.dirs.end())
    throw IoError("create_file: '" + path + "' is a directory");
  if (files_.size() >= std::size_t(kNoFile))
    throw IoError("create_file: the store is out of file ids");
  if (!path_index_.try_emplace(canonical_path(path), FileId(files_.size()))
           .second)
    throw IoError("create_file: '" + path + "' exists");

  auto node = std::make_unique<FileNode>();
  node->id = FileId(files_.size());
  node->path = path;
  node->layout =
      make_layout(stripe_override ? *stripe_override : dir.default_stripe);
  files_.push_back(std::move(node));
  return *files_.back();
}

const FileNode* ObjectStore::find_file(const std::string& path) const {
  if (const auto it = path_index_.find(path); it != path_index_.end())
    return files_[it->second].get();
  // A miss: no such file, or a path spelled with extra slashes.  The
  // index holds no empty key, so a path with no components (the root
  // directory) finds no file.
  const std::string key = canonical_path(path);
  if (key == path) return nullptr;
  const auto it = path_index_.find(key);
  return it == path_index_.end() ? nullptr : files_[it->second].get();
}

FileNode* ObjectStore::find_file(const std::string& path) {
  return const_cast<FileNode*>(
      static_cast<const ObjectStore*>(this)->find_file(path));
}

FileNode& ObjectStore::file(const std::string& path) {
  if (FileNode* node = find_file(path)) return *node;
  throw IoError("file: no such file '" + path + "'");
}

const FileNode& ObjectStore::file(const std::string& path) const {
  return const_cast<ObjectStore*>(this)->file(path);
}

FileNode& ObjectStore::file_by_id(FileId id) {
  if (id >= files_.size() || !files_[id])
    throw IoError("file_by_id: bad id " + std::to_string(id));
  return *files_[id];
}

const FileNode& ObjectStore::file_by_id(FileId id) const {
  return const_cast<ObjectStore*>(this)->file_by_id(id);
}

void ObjectStore::unlink(const std::string& path) {
  const auto it = path_index_.find(canonical_path(path));
  if (it == path_index_.end())
    throw IoError("unlink: no such file '" + path + "'");
  // The FileNode stays alive (only the namespace entry goes away) so that
  // trace replay can still resolve layouts of files written before unlink.
  files_[it->second]->linked = false;
  path_index_.erase(it);
}

void ObjectStore::rename(const std::string& from, const std::string& to) {
  const auto src = path_index_.find(canonical_path(from));
  if (src == path_index_.end())
    throw IoError("rename: no such file '" + from + "'");
  const FileId id = src->second;
  const auto [dst_parent, dst_name] = split_file_path(to);
  DirNode& dst_dir = mkdirs(dst_parent);
  if (dst_dir.dirs.find(dst_name) != dst_dir.dirs.end())
    throw IoError("rename: '" + to + "' is a directory");
  path_index_.erase(src);
  // Replaces any existing entry, like POSIX, which unlinks the old file.
  const auto [dst, fresh] = path_index_.try_emplace(canonical_path(to), id);
  if (!fresh) {
    files_[dst->second]->linked = false;
    dst->second = id;
  }
  files_[id]->path = to;
}

namespace {
/// True if `file` names something strictly below directory `dir`,
/// comparing components in place, whatever the spelling of either.
bool lies_under(std::string_view file, std::string_view dir) {
  for (auto part = next_component(dir); !part.empty();
       part = next_component(dir))
    if (next_component(file) != part) return false;
  return !next_component(file).empty();
}
}  // namespace

std::vector<const FileNode*> ObjectStore::list_recursive(
    const std::string& path) const {
  if (!find_dir(path))
    throw IoError("list_recursive: no such directory '" + path + "'");
  std::vector<const FileNode*> out;
  for (const auto& node : files_)
    if (node->linked && lies_under(node->path, path)) out.push_back(node.get());
  return out;
}

std::vector<const FileNode*> ObjectStore::all_files() const {
  return list_recursive("");
}

void ObjectStore::pwrite(FileNode& node, std::uint64_t offset,
                         const std::uint8_t* data, std::uint64_t n) {
  node.size = std::max(node.size, offset + n);
  if (!store_data_) return;
  if (node.data.size() < offset + n) node.data.resize(offset + n, 0);
  std::memcpy(node.data.data() + offset, data, n);
}

std::uint64_t ObjectStore::pread(const FileNode& node, std::uint64_t offset,
                                 std::uint8_t* out, std::uint64_t n) const {
  if (!store_data_)
    throw IoError("pread: store was configured without data retention");
  if (offset >= node.size) return 0;
  const std::uint64_t avail = std::min(n, node.size - offset);
  std::memcpy(out, node.data.data() + offset, avail);
  return avail;
}

void ObjectStore::truncate(FileNode& node, std::uint64_t size) {
  node.size = size;
  if (store_data_) node.data.resize(size, 0);
}

}  // namespace bitio::fsim
