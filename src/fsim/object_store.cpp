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
    if (node->files.find(part) != node->files.end())
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

DirNode* ObjectStore::find_dir(std::string_view path) {
  return const_cast<DirNode*>(
      static_cast<const ObjectStore*>(this)->find_dir(path));
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
  if (dir.files.find(name) != dir.files.end())
    throw IoError("create_file: '" + path + "' exists");
  if (dir.dirs.find(name) != dir.dirs.end())
    throw IoError("create_file: '" + path + "' is a directory");
  if (files_.size() >= std::size_t(kNoFile))
    throw IoError("create_file: the store is out of file ids");

  auto node = std::make_unique<FileNode>();
  node->id = FileId(files_.size());
  node->path = path;
  node->layout =
      make_layout(stripe_override ? *stripe_override : dir.default_stripe);
  node->create_order = next_create_order_++;
  dir.files.emplace(std::string(name), node->id);
  path_index_.emplace(canonical_path(path), node->id);
  files_.push_back(std::move(node));
  return *files_.back();
}

const FileNode* ObjectStore::find_file(const std::string& path) const {
  if (const auto it = path_index_.find(path); it != path_index_.end())
    return files_[it->second].get();
  // A miss: no such file, or a path spelled with extra slashes.
  const std::string key = canonical_path(path);
  if (key.empty()) throw UsageError("base_name: empty path");
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
  const auto [parent, name] = split_file_path(path);
  DirNode* dir = find_dir(parent);
  if (!dir) throw IoError("unlink: no such file '" + path + "'");
  auto it = dir->files.find(name);
  if (it == dir->files.end())
    throw IoError("unlink: no such file '" + path + "'");
  // The FileNode stays alive (only the namespace entry goes away) so that
  // trace replay can still resolve layouts of files written before unlink.
  files_[it->second]->linked = false;
  dir->files.erase(it);
  path_index_.erase(canonical_path(path));
}

void ObjectStore::rename(const std::string& from, const std::string& to) {
  const auto [src_parent, src_name] = split_file_path(from);
  DirNode* src_dir = find_dir(src_parent);
  if (!src_dir) throw IoError("rename: no such file '" + from + "'");
  auto src = src_dir->files.find(src_name);
  if (src == src_dir->files.end())
    throw IoError("rename: no such file '" + from + "'");
  const FileId id = src->second;
  const auto [dst_parent, dst_name] = split_file_path(to);
  DirNode& dst_dir = mkdirs(dst_parent);
  if (dst_dir.dirs.find(dst_name) != dst_dir.dirs.end())
    throw IoError("rename: '" + to + "' is a directory");
  src_dir->files.erase(src);
  // Replaces any existing entry, like POSIX, which unlinks the old file.
  const auto [dst, fresh] =
      dst_dir.files.try_emplace(std::string(dst_name), id);
  if (!fresh) {
    files_[dst->second]->linked = false;
    dst->second = id;
  }
  path_index_.erase(canonical_path(from));
  path_index_.insert_or_assign(canonical_path(to), id);
  files_[id]->path = to;
}

namespace {
void collect(const DirNode& dir,
             const std::vector<std::unique_ptr<FileNode>>& files,
             std::vector<const FileNode*>& out) {
  for (const auto& [name, id] : dir.files) {
    (void)name;
    if (files[id]) out.push_back(files[id].get());
  }
  for (const auto& [name, sub] : dir.dirs) {
    (void)name;
    collect(*sub, files, out);
  }
}
}  // namespace

std::vector<const FileNode*> ObjectStore::list_recursive(
    const std::string& path) const {
  const DirNode* dir = find_dir(path);
  if (!dir) throw IoError("list_recursive: no such directory '" + path + "'");
  std::vector<const FileNode*> out;
  collect(*dir, files_, out);
  std::sort(out.begin(), out.end(),
            [](const FileNode* a, const FileNode* b) {
              return a->create_order < b->create_order;
            });
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
