#include "lint.hpp"

#include <algorithm>
#include <cstdio>
#include <regex>
#include <sstream>

#include "analysis_util.hpp"
#include "index.hpp"

namespace bitio::lint {

std::string format_diagnostic(const Diagnostic& diag) {
  return diag.file + ":" + std::to_string(diag.line) + ": [" + diag.rule +
         "] " + diag.message;
}

std::string strip_comments(const std::string& text) {
  std::string out = text;
  enum class State { code, string, chr, line_comment, block_comment };
  State state = State::code;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::code:
        if (c == '/' && next == '/') {
          state = State::line_comment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::block_comment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::string;
        } else if (c == '\'') {
          state = State::chr;
        }
        break;
      case State::string:
        if (c == '\\')
          ++i;
        else if (c == '"')
          state = State::code;
        break;
      case State::chr:
        if (c == '\\')
          ++i;
        else if (c == '\'')
          state = State::code;
        break;
      case State::line_comment:
        if (c == '\n')
          state = State::code;
        else
          out[i] = ' ';
        break;
      case State::block_comment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::string strip_string_literals(const std::string& text) {
  std::string out = text;
  enum class State { code, string, chr };
  State state = State::code;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    switch (state) {
      case State::code:
        if (c == '"')
          state = State::string;
        else if (c == '\'')
          state = State::chr;
        break;
      case State::string:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::chr:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + std::size_t(std::count(text.begin(),
                                    text.begin() +
                                        std::ptrdiff_t(std::min(
                                            pos, text.size())),
                                    '\n'));
}

// --- raw-io ----------------------------------------------------------------

std::vector<Diagnostic> check_raw_io(const SemanticIndex& index) {
  std::vector<Diagnostic> out;
  // Tokens that reach the real file system behind fsim's back.  fprintf is
  // allowed only with stderr (console logging); everything else must go
  // through fsim::FsClient so the trace and Darshan capture see it.
  static const std::regex banned(
      R"((\bfopen\s*\()|(\bfwrite\s*\()|(\bfread\s*\()|(\bfscanf\s*\()|(\bfputs\s*\()|(\bstd::ofstream\b)|(\bstd::ifstream\b)|(\bstd::fstream\b)|(\bstd::filesystem\b)|(\bfprintf\s*\(\s*(?!stderr\b)))");
  bool any_src = false;
  for (const auto& f : index.files()) {
    const bool in_src = f.rel.rfind("src/", 0) == 0;
    any_src |= in_src;
    if (!in_src && f.rel.rfind("bench/", 0) != 0 &&
        f.rel.rfind("examples/", 0) != 0)
      continue;
    // fsim is the one layer allowed to model/own file access.
    if (f.rel.rfind("src/fsim/", 0) == 0) continue;
    for (auto it = std::sregex_iterator(f.nostr.begin(), f.nostr.end(),
                                        banned);
         it != std::sregex_iterator(); ++it) {
      const std::size_t line = line_of(f.nostr, std::size_t(it->position()));
      // Host-side probes genuinely outside the simulated storage path may
      // opt out on the line itself.
      if (line_has_marker(f, line, "lint: allow-raw-io")) continue;
      out.push_back(
          {f.rel, line, "raw-io",
           "raw file I/O ('" + it->str() +
               "...') outside src/fsim — route it through fsim::FsClient "
               "so the trace, replay, and Darshan capture observe it, or "
               "annotate '// lint: allow-raw-io' for host-side probes"});
    }
  }
  if (!any_src)
    out.push_back({"src", 1, "raw-io", "no src/ directory under lint root"});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.file != b.file ? a.file < b.file : a.line < b.line;
  });
  return out;
}

std::vector<Diagnostic> check_raw_io(const std::string& root) {
  return check_raw_io(SemanticIndex::build(root));
}

// --- driver ----------------------------------------------------------------

std::vector<Diagnostic> run_all(const SemanticIndex& index) {
  std::vector<Diagnostic> out;
  using IndexRule = std::vector<Diagnostic> (*)(const SemanticIndex&);
  for (const IndexRule rule :
       {static_cast<IndexRule>(check_raw_io),
        static_cast<IndexRule>(check_lock_order),
        static_cast<IndexRule>(check_wire_format),
        static_cast<IndexRule>(check_unchecked_status),
        static_cast<IndexRule>(check_pool_pairing),
        static_cast<IndexRule>(check_submit_reap),
        static_cast<IndexRule>(check_include_graph)}) {
    auto found = rule(index);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

std::vector<Diagnostic> run_all(const std::string& root) {
  return run_all(SemanticIndex::build(root));
}

std::string diagnostics_json(const std::vector<Diagnostic>& diags) {
  const auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c & 0xff);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::ostringstream out;
  out << "{\"count\": " << diags.size() << ", \"diagnostics\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out << (i ? ",\n  " : "\n  ") << "{\"file\": \"" << escape(d.file)
        << "\", \"line\": " << d.line << ", \"rule\": \"" << escape(d.rule)
        << "\", \"message\": \"" << escape(d.message) << "\"}";
  }
  out << (diags.empty() ? "]}" : "\n]}") << "\n";
  return out.str();
}

}  // namespace bitio::lint
