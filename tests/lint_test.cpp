// Fixture tests for tools/lint_invariants: each rule runs against a tiny
// synthetic tree with one seeded violation and must report the exact
// file:line, then the whole suite runs against the real sources and must
// come back clean (the same invariant the `lint`-labeled ctest enforces).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using bitio::lint::Diagnostic;

namespace {

/// A throwaway fixture tree rooted in the test's temp dir.
class FixtureTree {
public:
  FixtureTree() : root_(fs::path(testing::TempDir()) / unique_name()) {
    fs::create_directories(root_);
  }
  ~FixtureTree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  std::string root() const { return root_.string(); }

  void write(const std::string& rel, const std::string& text) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << text;
  }

private:
  static std::string unique_name() {
    static int counter = 0;
    return "lint_fixture_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++);
  }

  fs::path root_;
};

/// 1-based line of the first occurrence of `needle` in `text` — the tests
/// derive expected line numbers from the fixture source itself so edits to
/// the fixtures cannot silently desynchronize the assertions.
std::size_t expect_line(const std::string& text, const std::string& needle) {
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << "fixture lost marker: " << needle;
  return bitio::lint::line_of(text, at);
}

bool has_diag(const std::vector<Diagnostic>& diags, const std::string& file,
              std::size_t line, const std::string& substring) {
  for (const auto& d : diags) {
    if (d.file == file && d.line == line &&
        d.message.find(substring) != std::string::npos)
      return true;
  }
  return false;
}

std::string dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const auto& d : diags) out += bitio::lint::format_diagnostic(d) + "\n";
  return out;
}

}  // namespace

TEST(LintHelpers, StripCommentsPreservesLineStructure) {
  const std::string text = "int a; // trailing\n/* block\n spans */ int b;\n";
  const std::string stripped = bitio::lint::strip_comments(text);
  EXPECT_EQ(stripped.size(), text.size());
  EXPECT_EQ(bitio::lint::line_of(stripped, stripped.find("int b")), 3u);
  EXPECT_EQ(stripped.find("trailing"), std::string::npos);
  EXPECT_EQ(stripped.find("spans"), std::string::npos);
}

TEST(LintHelpers, StripStringLiteralsBlanksContents) {
  const std::string text = "call(\"std::ofstream inside\");\n";
  const std::string stripped = bitio::lint::strip_string_literals(text);
  EXPECT_EQ(stripped.find("ofstream"), std::string::npos);
  EXPECT_NE(stripped.find("call("), std::string::npos);
}

TEST(LintRawIo, FlagsNakedFileIoOutsideFsim) {
  FixtureTree tree;
  const std::string bad =
      "#include <fstream>\n"
      "void leak() {\n"
      "  std::ofstream out(\"direct.txt\");\n"
      "}\n";
  tree.write("src/core/bad.cpp", bad);
  // The same token inside fsim, a comment, or a string must not fire.
  tree.write("src/fsim/ok.cpp", "void fsim_owns() { auto f = fopen; }\n");
  tree.write("src/util/ok.cpp",
             "// std::ofstream mentioned in prose\n"
             "const char* doc = \"std::ofstream\";\n"
             "void log_ok() { fprintf(stderr, \"x\"); }\n");

  const auto diags = bitio::lint::check_raw_io(tree.root());
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/bad.cpp",
                       expect_line(bad, "std::ofstream"), "raw file I/O"))
      << dump(diags);
}

// The invariant the `lint` ctest label enforces, exercised from the unit
// suite too: the real tree is clean under every rule.
TEST(LintRealTree, AllRulesPass) {
  const auto diags = bitio::lint::run_all(BITIO_SOURCE_ROOT);
  EXPECT_TRUE(diags.empty()) << dump(diags);
}
