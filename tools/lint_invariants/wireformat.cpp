// wire-format — fingerprints of every serialized surface.
//
// Each FormatSurface names the functions that define a wire format (the
// serializer and any field tables it loops over) and the version constant
// that must move with them.  The fingerprint is an FNV-1a hash over their
// normalized output-writing statements (token
// text joined by single spaces — whitespace and comments cannot shift
// it), checked against the committed golden
// tools/lint_invariants/format_fingerprints.txt.  The gate this buys:
// serialized fields cannot change silently — a drift with an unchanged
// version constant always fails, and a drift with a bumped version fails
// until the golden is regenerated, so the golden diff (and the version
// bump) are part of the reviewed change.

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "analysis_util.hpp"
#include "index.hpp"
#include "lint.hpp"

namespace bitio::lint {

namespace {

const char* const kRule = "wire-format";

struct Entry {
  std::string version;  // "<const>:<value>", value with spaces removed
  std::string fp;       // 16 hex chars
};

std::string hex16(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex;
  for (int shift = 60; shift >= 0; shift -= 4)
    out << "0123456789abcdef"[(value >> shift) & 0xf];
  return out.str();
}

/// The serializer function for `anchor` ("encode_step" or
/// "EpochManifest::to_json") inside `file`; nullptr when absent.
const FunctionSym* find_anchor(const FileInfo& file,
                               const std::string& anchor) {
  std::string qual, name = anchor;
  const std::size_t sep = anchor.rfind("::");
  if (sep != std::string::npos) {
    qual = anchor.substr(0, sep);
    name = anchor.substr(sep + 2);
  }
  for (const auto& fn : file.functions)
    if (fn.name == name && fn.has_body() &&
        (qual.empty() ? fn.qualifier.empty() : fn.qualifier == qual))
      return &fn;
  // Inline in-class definition.
  for (const auto& cls : file.classes)
    for (const auto& fn : cls.methods)
      if (fn.name == name && fn.has_body() &&
          (qual.empty() ||
           cls.name == qual ||
           (cls.name.size() > qual.size() + 2 &&
            cls.name.compare(cls.name.size() - qual.size(), qual.size(),
                             qual) == 0)))
        return &fn;
  return nullptr;
}

bool writes_output(const std::string& ident) {
  // Raw byte-vector emission plus the util::BinWriter method vocabulary
  // (u8/u32/.../dims) the miniBP encoders write through.
  return ident.rfind("put_", 0) == 0 || ident == "push_back" ||
         ident == "insert" || ident == "append" || ident == "emplace_back" ||
         ident == "u8" || ident == "u16" || ident == "u32" ||
         ident == "u64" || ident == "f64" || ident == "str" ||
         ident == "bytes" || ident == "dims";
}

/// Normalized output-writing statements of the serializer body.
std::string surface_text(const FileInfo& file, const FunctionSym& fn) {
  std::string out;
  std::string stmt;
  bool selected = false;
  for (std::size_t i = fn.body_begin + 1;
       i < fn.body_end && i < file.tokens.size(); ++i) {
    const Token& t = file.tokens[i];
    if (t.text == ";") {
      if (selected && !stmt.empty()) {
        out += stmt;
        out += '\n';
      }
      stmt.clear();
      selected = false;
      continue;
    }
    if (t.kind == Token::Kind::str ||
        (t.kind == Token::Kind::ident && writes_output(t.text)))
      selected = true;
    if (!stmt.empty()) stmt += ' ';
    stmt += t.text;
  }
  return out;
}

/// "<const>:<value>" for the surface's version constant, "" when absent.
std::string version_token(const FileInfo& file, const std::string& name) {
  const std::regex def(std::string("\\b") + name + R"(\s*=\s*([^;,}\n]+))");
  std::smatch m;
  if (!std::regex_search(file.code, m, def)) return {};
  std::string value = m[1].str();
  std::string compact;
  for (const char c : value)
    if (!std::isspace(static_cast<unsigned char>(c))) compact += c;
  return name + ":" + compact;
}

/// Compute one surface's golden entry; diagnostics on structural failure.
bool compute_entry(const SemanticIndex& index, const FormatSurface& s,
                   Entry& entry, std::size_t& anchor_line,
                   std::vector<Diagnostic>& out) {
  const FileInfo* file = index.file(s.file);
  if (!file) {
    out.push_back({s.file, 1, kRule,
                   "surface '" + s.id + "': file is missing from the tree"});
    return false;
  }
  std::string text;
  for (const std::string& anchor : s.anchors) {
    const FunctionSym* fn = find_anchor(*file, anchor);
    if (!fn) {
      out.push_back({s.file, 1, kRule,
                     "surface '" + s.id + "': anchor '" + anchor +
                         "' not found — update the surface table in "
                         "tools/lint_invariants if it moved"});
      return false;
    }
    const std::string fn_text = surface_text(*file, *fn);
    if (fn_text.empty()) {
      // An empty extraction would make the fingerprint vacuous — refuse so
      // a refactor onto an unrecognized emit helper cannot hollow the gate.
      out.push_back({s.file, fn->line, kRule,
                     "surface '" + s.id + "': no output-writing statements "
                         "recognized in '" + anchor +
                         "' — teach writes_output() the new emit vocabulary"});
      return false;
    }
    text += fn_text;
    anchor_line = fn->line;
  }
  const FileInfo* vfile = index.file(s.version_file);
  if (!vfile) {
    out.push_back({s.version_file, 1, kRule,
                   "surface '" + s.id + "': version file is missing"});
    return false;
  }
  entry.version = version_token(*vfile, s.version_const);
  if (entry.version.empty()) {
    out.push_back({s.version_file, 1, kRule,
                   "surface '" + s.id + "': version constant '" +
                       s.version_const + "' not found"});
    return false;
  }
  entry.fp = hex16(fnv1a64(text));
  return true;
}

std::map<std::string, Entry> parse_golden(const std::string& text) {
  std::map<std::string, Entry> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string id, version, fp;
    row >> id >> version >> fp;
    if (id.empty() || version.rfind("version=", 0) != 0 ||
        fp.rfind("fp=", 0) != 0)
      continue;
    out[id] = {version.substr(8), fp.substr(3)};
  }
  return out;
}

std::string read_golden(const SemanticIndex& index,
                        const std::string& golden_rel, bool& exists) {
  const std::filesystem::path path =
      std::filesystem::path(index.root()) / golden_rel;
  std::ifstream in(path, std::ios::binary);
  exists = bool(in);
  if (!exists) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string render_golden(
    const std::vector<std::pair<std::string, Entry>>& entries) {
  std::ostringstream out;
  out << "# Wire-format fingerprints — generated by\n"
         "#   bitio-analyzer --update-fingerprints <repo-root>\n"
         "# One line per serialized surface: the version constant's current\n"
         "# value and an FNV-1a hash of the serializer's output-writing\n"
         "# statements.  The wire-format lint rule fails when a serializer\n"
         "# drifts from this file; see README \"Static analysis\".\n";
  for (const auto& [id, entry] : entries)
    out << id << " version=" << entry.version << " fp=" << entry.fp << "\n";
  return out.str();
}

}  // namespace

const char kFingerprintGoldenRel[] =
    "tools/lint_invariants/format_fingerprints.txt";

const std::vector<FormatSurface>& default_format_surfaces() {
  static const std::vector<FormatSurface> surfaces = {
      {"minibp-step", "src/bp/format.cpp", {"encode_step"},
       "src/bp/format.hpp", "kMdMagic"},
      {"minibp-index", "src/bp/format.cpp", {"put_index_entry"},
       "src/bp/format.hpp", "kIdxMagic"},
      {"minibp-footer", "src/bp/format.cpp", {"encode_footer"},
       "src/bp/format.hpp", "kFtrMagic"},
      {"czp1-frame", "src/compress/parallel.cpp",
       {"ParallelCodec::compress_append"}, "src/compress/parallel.cpp",
       "kFrameVersion"},
      {"drsnlog", "src/darshan/darshan.cpp",
       {"job_counters", "file_record_counters", "DarshanLog::serialize"},
       "src/darshan/darshan.cpp", "kLogMagic"},
      {"ckpt-manifest", "src/resil/chain_source.cpp",
       {"EpochManifest::to_json"}, "src/resil/chain_source.hpp",
       "kManifestVersion"},
  };
  return surfaces;
}

std::vector<Diagnostic> check_wire_format(
    const SemanticIndex& index, const std::vector<FormatSurface>& surfaces,
    const std::string& golden_rel) {
  std::vector<Diagnostic> out;
  bool have_golden = false;
  const auto golden = parse_golden(read_golden(index, golden_rel, have_golden));
  if (!have_golden) {
    out.push_back({golden_rel, 1, kRule,
                   "fingerprint golden is missing — run bitio-analyzer "
                   "--update-fingerprints and commit it"});
    return out;
  }
  for (const FormatSurface& s : surfaces) {
    Entry current;
    std::size_t line = 1;
    if (!compute_entry(index, s, current, line, out)) continue;
    const auto it = golden.find(s.id);
    if (it == golden.end()) {
      out.push_back({golden_rel, 1, kRule,
                     "surface '" + s.id +
                         "' has no golden entry — run --update-fingerprints"});
      continue;
    }
    const Entry& gold = it->second;
    const bool fp_same = current.fp == gold.fp;
    const bool ver_same = current.version == gold.version;
    if (fp_same && ver_same) continue;
    if (!fp_same && ver_same) {
      out.push_back(
          {s.file, line, kRule,
           "surface '" + s.id + "' (" + s.anchors.back() +
               ") changed its serialized fields but " + s.version_const +
               " still reads " + gold.version.substr(gold.version.find(':') + 1) +
               " — bump the version constant and regenerate the golden "
               "(--update-fingerprints)"});
    } else {
      out.push_back(
          {s.file, line, kRule,
           "surface '" + s.id + "' golden entry is stale (" +
               (fp_same ? "version constant moved" : "fields and version moved") +
               ") — rerun --update-fingerprints and commit " + golden_rel});
    }
  }
  return out;
}

std::vector<Diagnostic> check_wire_format(const SemanticIndex& index) {
  return check_wire_format(index, default_format_surfaces(),
                           kFingerprintGoldenRel);
}

std::vector<Diagnostic> check_wire_format(const std::string& root) {
  return check_wire_format(SemanticIndex::build(root));
}

std::vector<Diagnostic> update_fingerprints(
    const SemanticIndex& index, const std::vector<FormatSurface>& surfaces,
    const std::string& golden_rel) {
  std::vector<Diagnostic> out;
  bool have_golden = false;
  const auto golden = parse_golden(read_golden(index, golden_rel, have_golden));
  std::vector<std::pair<std::string, Entry>> entries;
  for (const FormatSurface& s : surfaces) {
    Entry current;
    std::size_t line = 1;
    if (!compute_entry(index, s, current, line, out)) continue;
    if (have_golden) {
      const auto it = golden.find(s.id);
      // The gate --update-fingerprints must not be able to bypass:
      // fields changed, version did not.
      if (it != golden.end() && it->second.fp != current.fp &&
          it->second.version == current.version) {
        out.push_back(
            {s.file, line, kRule,
             "refusing to update surface '" + s.id +
                 "': serialized fields changed but " + s.version_const +
                 " did not — bump the version constant first"});
        continue;
      }
    }
    entries.emplace_back(s.id, current);
  }
  if (!out.empty()) return out;
  const std::filesystem::path path =
      std::filesystem::path(index.root()) / golden_rel;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << render_golden(entries);
  if (!file)
    out.push_back({golden_rel, 1, kRule, "failed to write the golden file"});
  return out;
}

std::vector<Diagnostic> update_fingerprints(const SemanticIndex& index) {
  return update_fingerprints(index, default_format_surfaces(),
                             kFingerprintGoldenRel);
}

}  // namespace bitio::lint
