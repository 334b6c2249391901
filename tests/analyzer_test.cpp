// bitio-analyzer internals: units for the semantic index building blocks
// (tokenizer, symbol table, include scanner) plus seeded-violation fixture
// trees for the cross-file rules (lock-order, wire-format,
// unchecked-status, pool-pairing, submit-reap, include-graph), each
// asserting the exact
// file:line of the seeded violation.  Finally the cross-file rules run
// against the real sources and must come back clean.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace fs = std::filesystem;
using bitio::lint::Diagnostic;
using bitio::lint::SemanticIndex;
using bitio::lint::Token;

namespace {

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
    return "analyzer_fixture_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++);
  }

  fs::path root_;
};

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

std::vector<std::string> texts(const std::vector<Token>& toks) {
  std::vector<std::string> out;
  for (const auto& t : toks) out.push_back(t.text);
  return out;
}

bool has_token(const std::vector<Token>& toks, const std::string& text) {
  for (const auto& t : toks)
    if (t.text == text) return true;
  return false;
}

}  // namespace

// --- tokenizer --------------------------------------------------------------

TEST(AnalyzerTokenizer, RawStringIsOneToken) {
  const auto toks = bitio::lint::tokenize(
      "auto s = R\"x(quote \" paren ) brace { )y\" )x\";\nint after;\n");
  // The raw string survives as a single literal token; the braces and
  // quotes inside it cannot desynchronize anything downstream.
  bool found = false;
  for (const auto& t : toks)
    if (t.kind == Token::Kind::str &&
        t.text.find("paren ) brace {") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
  EXPECT_TRUE(has_token(toks, "after"));
  EXPECT_FALSE(has_token(toks, "paren"));
}

TEST(AnalyzerTokenizer, NestedTemplatesAndScopeFusion) {
  const auto toks =
      bitio::lint::tokenize("std::map<std::string, std::vector<int>> m;");
  const auto t = texts(toks);
  const std::vector<std::string> expected = {
      "std", "::", "map", "<",   "std", "::", "string", ",", "std", "::",
      "vector", "<", "int", ">", ">",   "m",  ";"};
  EXPECT_EQ(t, expected);
}

TEST(AnalyzerTokenizer, ArrowFusedAndStringsOpaque) {
  const auto toks = bitio::lint::tokenize(
      "ptr->call(\"a // not a comment\");\nchar c = '}';\n");
  EXPECT_TRUE(has_token(toks, "->"));
  EXPECT_FALSE(has_token(toks, "comment"));
  // The char literal is one token, so its brace cannot unbalance matching.
  bool chr = false;
  for (const auto& t : toks)
    if (t.kind == Token::Kind::chr && t.text == "'}'") chr = true;
  EXPECT_TRUE(chr);
}

TEST(AnalyzerTokenizer, PreprocessorLinesSkipped) {
  const auto toks = bitio::lint::tokenize(
      "#define FOO(x) expand(x) \\\n    more(x)\nint kept = 1;\n");
  EXPECT_FALSE(has_token(toks, "expand"));
  EXPECT_FALSE(has_token(toks, "more"));  // continuation line skipped too
  EXPECT_TRUE(has_token(toks, "kept"));
  // Line numbers survive the skip: `kept` sits on line 3.
  for (const auto& t : toks) {
    if (t.text == "kept") {
      EXPECT_EQ(t.line, 3u);
    }
  }
}

// --- include scanner --------------------------------------------------------

TEST(AnalyzerIncludes, ConditionalIncludesAreKept) {
  const std::string text =
      "#if defined(USE_A)\n"
      "#include \"a/first.hpp\"\n"
      "#else\n"
      "#include <vector>\n"
      "#endif\n"
      "#  include \"b/second.hpp\"\n";
  const auto incs = bitio::lint::scan_includes(text);
  ASSERT_EQ(incs.size(), 3u);
  EXPECT_EQ(incs[0].target, "a/first.hpp");
  EXPECT_FALSE(incs[0].angled);
  EXPECT_EQ(incs[0].line, 2u);
  EXPECT_EQ(incs[1].target, "vector");
  EXPECT_TRUE(incs[1].angled);
  EXPECT_EQ(incs[2].target, "b/second.hpp");
  EXPECT_EQ(incs[2].line, 6u);
}

// --- symbol table -----------------------------------------------------------

TEST(AnalyzerSymbols, ClassMembersMethodsAndAnnotations) {
  FixtureTree tree;
  const std::string header =
      "#include \"util/thread_annotations.hpp\"\n"
      "namespace bitio::bp {\n"
      "class Base {};\n"
      "class Thing : public Base {\n"
      "public:\n"
      "  Thing(int seed, std::string name);\n"
      "  void poke() REQUIRES(mutex_);\n"
      "  int peek() const;\n"
      "private:\n"
      "  util::Mutex mutex_ ACQUIRED_BEFORE(drain_mutex_);\n"
      "  util::Mutex drain_mutex_;\n"
      "  std::map<std::string, std::vector<int>> table_;\n"
      "};\n"
      "}  // namespace bitio::bp\n";
  tree.write("src/bp/thing.hpp", header);
  tree.write("src/bp/thing.cpp",
             "#include \"bp/thing.hpp\"\n"
             "namespace bitio::bp {\n"
             "int Thing::peek() const { return 1; }\n"
             "}\n");

  const SemanticIndex index = SemanticIndex::build(tree.root());
  const auto* cls = index.find_class("Thing");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->name, "bp::Thing");
  ASSERT_EQ(cls->bases.size(), 1u);
  EXPECT_EQ(cls->bases[0], "Base");

  ASSERT_EQ(cls->members.size(), 3u);
  EXPECT_EQ(cls->members[0].name, "mutex_");  // not the annotation's arg
  EXPECT_EQ(cls->members[0].type, "util::Mutex");
  EXPECT_NE(cls->members[0].annotations.find("ACQUIRED_BEFORE"),
            std::string::npos);
  EXPECT_NE(cls->members[0].annotations.find("drain_mutex_"),
            std::string::npos);
  EXPECT_EQ(cls->members[1].name, "drain_mutex_");
  EXPECT_EQ(cls->members[2].name, "table_");
  EXPECT_NE(cls->members[2].type.find("map"), std::string::npos);

  const auto* poke = index.method_declaration(*cls, "poke");
  ASSERT_NE(poke, nullptr);
  EXPECT_NE(poke->annotations.find("REQUIRES"), std::string::npos);
  EXPECT_FALSE(poke->has_body());

  const auto defs = index.method_definitions(*cls, "peek");
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_TRUE(defs[0].fn->has_body());
  EXPECT_EQ(defs[0].file->rel, "src/bp/thing.cpp");
}

// --- include-graph ----------------------------------------------------------

TEST(AnalyzerIncludeGraph, FlagsCycleAtClosingInclude) {
  FixtureTree tree;
  tree.write("src/core/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n");
  const std::string b = "#pragma once\n#include \"core/a.hpp\"\n";
  tree.write("src/core/b.hpp", b);
  tree.write("src/core/ok.hpp", "#pragma once\n#include <vector>\n");

  const auto diags = bitio::lint::check_include_graph(tree.root());
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/b.hpp",
                       expect_line(b, "#include \"core/a.hpp\""),
                       "include cycle"))
      << dump(diags);
}

TEST(AnalyzerIncludeGraph, FlagsBpInternalIncludeOutsideBp) {
  FixtureTree tree;
  const std::string user =
      "#include \"bp/engine.hpp\"\n"
      "#include \"bp/stream.hpp\"\n";
  tree.write("src/core/user.cpp", user);
  // bench/ may include bp internals (micro-benchmarks drive them directly).
  tree.write("bench/micro.cpp", "#include \"bp/stream.hpp\"\n");

  const auto diags = bitio::lint::check_include_graph(tree.root());
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/user.cpp",
                       expect_line(user, "#include \"bp/stream.hpp\""),
                       "writer internals"))
      << dump(diags);
}

// --- lock-order -------------------------------------------------------------

TEST(AnalyzerLockOrder, FlagsTwoMutexInversion) {
  FixtureTree tree;
  const std::string src =
      "namespace bitio::core {\n"
      "class Pair {\n"
      "public:\n"
      "  void forward() {\n"
      "    util::MutexLock l1(mu_a_);\n"
      "    util::MutexLock l2(mu_b_);\n"
      "  }\n"
      "  void backward() {\n"
      "    util::MutexLock l3(mu_b_);\n"
      "    util::MutexLock l4(mu_a_);\n"
      "  }\n"
      "private:\n"
      "  util::Mutex mu_a_;\n"
      "  util::Mutex mu_b_;\n"
      "};\n"
      "}  // namespace bitio::core\n";
  tree.write("src/core/pair.cpp", src);

  const auto diags = bitio::lint::check_lock_order(tree.root());
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "lock-order");
  // The closing edge is backward()'s second acquisition (b held, a taken).
  EXPECT_TRUE(has_diag(diags, "src/core/pair.cpp", expect_line(src, "l4"),
                       "lock-order cycle"))
      << dump(diags);
  EXPECT_NE(diags[0].message.find("mu_a_"), std::string::npos);
  EXPECT_NE(diags[0].message.find("mu_b_"), std::string::npos);
}

TEST(AnalyzerLockOrder, ConsistentOrderIsClean) {
  FixtureTree tree;
  tree.write("src/core/pair.cpp",
             "namespace bitio::core {\n"
             "class Pair {\n"
             "public:\n"
             "  void one() {\n"
             "    util::MutexLock l1(mu_a_);\n"
             "    util::MutexLock l2(mu_b_);\n"
             "  }\n"
             "  void two() {\n"
             "    util::MutexLock l3(mu_a_);\n"
             "    util::MutexLock l4(mu_b_);\n"
             "  }\n"
             "private:\n"
             "  util::Mutex mu_a_;\n"
             "  util::Mutex mu_b_;\n"
             "};\n"
             "}\n");
  const auto diags = bitio::lint::check_lock_order(tree.root());
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(AnalyzerLockOrder, CrossFunctionCycleThroughCall) {
  FixtureTree tree;
  const std::string src =
      "namespace bitio::core {\n"
      "class Owner {\n"
      "public:\n"
      "  void outer() {\n"
      "    util::MutexLock l1(mu_a_);\n"
      "    helper();\n"
      "  }\n"
      "  void other() {\n"
      "    util::MutexLock l2(mu_b_);\n"
      "    util::MutexLock l3(mu_a_);\n"
      "  }\n"
      "private:\n"
      "  void helper() {\n"
      "    util::MutexLock l4(mu_b_);\n"
      "  }\n"
      "  util::Mutex mu_a_;\n"
      "  util::Mutex mu_b_;\n"
      "};\n"
      "}  // namespace bitio::core\n";
  tree.write("src/core/owner.cpp", src);

  // outer() holds a and calls helper() which takes b; other() inverts.
  const auto diags = bitio::lint::check_lock_order(tree.root());
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "lock-order");
  EXPECT_NE(diags[0].message.find("cycle"), std::string::npos);
}

// --- wire-format ------------------------------------------------------------

namespace {

std::vector<bitio::lint::FormatSurface> toy_surface() {
  return {{"toy", "src/toy/fmt.cpp", {"encode"}, "src/toy/fmt.hpp",
           "kToyVersion"}};
}

}  // namespace

TEST(AnalyzerWireFormat, FieldChangeWithoutVersionBumpFails) {
  FixtureTree tree;
  tree.write("src/toy/fmt.hpp", "constexpr int kToyVersion = 1;\n");
  const std::string v1 =
      "void encode(Bytes& out) {\n"
      "  out.push_back('T');\n"
      "  put_u32(out, 7);\n"
      "}\n";
  tree.write("src/toy/fmt.cpp", v1);

  // No golden yet: the check demands one, update writes it, check passes.
  {
    const SemanticIndex index = SemanticIndex::build(tree.root());
    auto diags =
        bitio::lint::check_wire_format(index, toy_surface(), "golden.txt");
    ASSERT_EQ(diags.size(), 1u) << dump(diags);
    EXPECT_NE(diags[0].message.find("missing"), std::string::npos);
    diags =
        bitio::lint::update_fingerprints(index, toy_surface(), "golden.txt");
    EXPECT_TRUE(diags.empty()) << dump(diags);
    diags =
        bitio::lint::check_wire_format(index, toy_surface(), "golden.txt");
    EXPECT_TRUE(diags.empty()) << dump(diags);
  }

  // Serialize one more field without touching kToyVersion: the check fails
  // at the serializer, and --update-fingerprints refuses to look away.
  const std::string v2 =
      "void encode(Bytes& out) {\n"
      "  out.push_back('T');\n"
      "  out.push_back('X');\n"
      "  put_u32(out, 7);\n"
      "}\n";
  tree.write("src/toy/fmt.cpp", v2);
  {
    const SemanticIndex index = SemanticIndex::build(tree.root());
    auto diags =
        bitio::lint::check_wire_format(index, toy_surface(), "golden.txt");
    ASSERT_EQ(diags.size(), 1u) << dump(diags);
    EXPECT_TRUE(has_diag(diags, "src/toy/fmt.cpp",
                         expect_line(v2, "void encode"),
                         "bump the version constant"))
        << dump(diags);
    diags =
        bitio::lint::update_fingerprints(index, toy_surface(), "golden.txt");
    ASSERT_EQ(diags.size(), 1u) << dump(diags);
    EXPECT_NE(diags[0].message.find("refusing"), std::string::npos);
  }

  // Bumping the version unblocks the update, after which the check passes.
  tree.write("src/toy/fmt.hpp", "constexpr int kToyVersion = 2;\n");
  {
    const SemanticIndex index = SemanticIndex::build(tree.root());
    auto diags =
        bitio::lint::check_wire_format(index, toy_surface(), "golden.txt");
    ASSERT_EQ(diags.size(), 1u) << dump(diags);  // stale until regenerated
    EXPECT_NE(diags[0].message.find("--update-fingerprints"),
              std::string::npos);
    diags =
        bitio::lint::update_fingerprints(index, toy_surface(), "golden.txt");
    EXPECT_TRUE(diags.empty()) << dump(diags);
    diags =
        bitio::lint::check_wire_format(index, toy_surface(), "golden.txt");
    EXPECT_TRUE(diags.empty()) << dump(diags);
  }
}

TEST(AnalyzerWireFormat, FormattingOnlyChangeKeepsFingerprint) {
  FixtureTree tree;
  tree.write("src/toy/fmt.hpp", "constexpr int kToyVersion = 1;\n");
  tree.write("src/toy/fmt.cpp",
             "void encode(Bytes& out) {\n"
             "  out.push_back('T');\n"
             "}\n");
  {
    const SemanticIndex index = SemanticIndex::build(tree.root());
    const auto diags =
        bitio::lint::update_fingerprints(index, toy_surface(), "golden.txt");
    ASSERT_TRUE(diags.empty()) << dump(diags);
  }
  // Reformat: comments, whitespace, line breaks — the fingerprint holds.
  tree.write("src/toy/fmt.cpp",
             "// the toy wire format\n"
             "void encode(Bytes& out)\n"
             "{\n"
             "  out.push_back(\n"
             "      'T');  // magic\n"
             "}\n");
  const SemanticIndex index = SemanticIndex::build(tree.root());
  const auto diags =
      bitio::lint::check_wire_format(index, toy_surface(), "golden.txt");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// --- unchecked-status -------------------------------------------------------

TEST(AnalyzerUncheckedStatus, FlagsDroppedResultOnly) {
  FixtureTree tree;
  tree.write("src/fsim/client.hpp",
             "namespace bitio::fsim {\n"
             "class FsClient {\n"
             "public:\n"
             "  int open_file(const char* path);\n"
             "  int close_file(int fd);\n"
             "  void note(int fd);\n"
             "};\n"
             "}\n");
  const std::string use =
      "#include \"fsim/client.hpp\"\n"
      "namespace bitio::core {\n"
      "void use(fsim::FsClient& client) {\n"
      "  client.open_file(\"a\");\n"
      "  int fd = client.open_file(\"b\");\n"
      "  (void)client.close_file(fd);\n"
      "  client.note(fd);\n"
      "  client.close_file(fd);  // lint: ignore-status\n"
      "}\n"
      "}\n";
  tree.write("src/core/use.cpp", use);

  const auto diags = bitio::lint::check_unchecked_status(tree.root());
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/use.cpp",
                       expect_line(use, "client.open_file(\"a\")"),
                       "drops"))
      << dump(diags);
  EXPECT_EQ(diags[0].rule, "unchecked-status");
}

// --- pool-pairing -----------------------------------------------------------

TEST(AnalyzerPoolPairing, FlagsLeakAndEarlyReturn) {
  FixtureTree tree;
  tree.write("src/compress/pool.hpp",
             "namespace bitio::cz {\n"
             "class BufferPool {\n"
             "public:\n"
             "  Bytes acquire(std::size_t n);\n"
             "  void release(Bytes b);\n"
             "};\n"
             "}\n");
  const std::string use =
      "#include \"compress/pool.hpp\"\n"
      "namespace bitio::core {\n"
      "int bail_path(cz::BufferPool& pool, bool bail) {\n"
      "  Bytes buf = pool.acquire(16);\n"
      "  if (bail) return -1;\n"
      "  pool.release(std::move(buf));\n"
      "  return 0;\n"
      "}\n"
      "void drops(cz::BufferPool& pool) {\n"
      "  Bytes lost = pool.acquire(8);\n"
      "}\n"
      "void fine(cz::BufferPool& pool) {\n"
      "  Bytes buf = pool.acquire(8);\n"
      "  pool.release(std::move(buf));\n"
      "}\n"
      "}\n";
  tree.write("src/core/poolsites.cpp", use);

  const auto diags = bitio::lint::check_pool_pairing(tree.root());
  ASSERT_EQ(diags.size(), 2u) << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/poolsites.cpp",
                       expect_line(use, "if (bail) return -1;"),
                       "early return leaks"))
      << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/poolsites.cpp",
                       expect_line(use, "pool.acquire(8);"),
                       "never released"))
      << dump(diags);
}

// --- submit-reap ------------------------------------------------------------

TEST(AnalyzerSubmitReap, FlagsUnreapedSubmitAndEarlyReturn) {
  FixtureTree tree;
  tree.write("src/fsim/ring.hpp",
             "namespace bitio::fsim {\n"
             "class SubmissionQueue {\n"
             "public:\n"
             "  void push(Sqe sqe);\n"
             "  std::size_t submit();\n"
             "  std::vector<Cqe> reap_all();\n"
             "  CompletionQueue& completions();\n"
             "};\n"
             "}\n");
  const std::string use =
      "#include \"fsim/ring.hpp\"\n"
      "namespace bitio::core {\n"
      "void drain_helper(fsim::SubmissionQueue& sq);\n"
      "std::size_t forgets(fsim::SubmissionQueue& sq) {\n"
      "  const std::size_t n = sq.submit();\n"
      "  return n;\n"
      "}\n"
      "int bails(fsim::SubmissionQueue& sq, bool bail) {\n"
      "  sq.submit();\n"
      "  if (bail) return -1;\n"
      "  use_cqes(sq.reap_all());\n"
      "  return 0;\n"
      "}\n"
      "void fine(fsim::SubmissionQueue& sq) {\n"
      "  sq.submit();\n"
      "  use_cqes(sq.reap_all());\n"
      "}\n"
      "void delegates(fsim::SubmissionQueue& sq) {\n"
      "  sq.submit();\n"
      "  drain_helper(sq);\n"
      "}\n"
      "void opts_out(fsim::SubmissionQueue& sq) {\n"
      "  sq.submit();  // lint: ignore-reap\n"
      "}\n"
      "}\n";
  tree.write("src/core/ringsites.cpp", use);

  const auto diags = bitio::lint::check_submit_reap(tree.root());
  ASSERT_EQ(diags.size(), 2u) << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/ringsites.cpp",
                       expect_line(use, "const std::size_t n = sq.submit();"),
                       "never reaped"))
      << dump(diags);
  EXPECT_TRUE(has_diag(diags, "src/core/ringsites.cpp",
                       expect_line(use, "if (bail) return -1;"),
                       "early return drops"))
      << dump(diags);
  EXPECT_EQ(diags[0].rule, "submit-reap");
}

// --- real tree --------------------------------------------------------------

TEST(AnalyzerRealTree, CrossFileRulesPass) {
  const SemanticIndex index = SemanticIndex::build(BITIO_SOURCE_ROOT);
  EXPECT_TRUE(bitio::lint::check_lock_order(index).empty())
      << dump(bitio::lint::check_lock_order(index));
  EXPECT_TRUE(bitio::lint::check_wire_format(index).empty())
      << dump(bitio::lint::check_wire_format(index));
  EXPECT_TRUE(bitio::lint::check_unchecked_status(index).empty())
      << dump(bitio::lint::check_unchecked_status(index));
  EXPECT_TRUE(bitio::lint::check_pool_pairing(index).empty())
      << dump(bitio::lint::check_pool_pairing(index));
  EXPECT_TRUE(bitio::lint::check_submit_reap(index).empty())
      << dump(bitio::lint::check_submit_reap(index));
  EXPECT_TRUE(bitio::lint::check_include_graph(index).empty())
      << dump(bitio::lint::check_include_graph(index));
}

TEST(AnalyzerRealTree, LockOrderDotDescribesRealMutexes) {
  const SemanticIndex index = SemanticIndex::build(BITIO_SOURCE_ROOT);
  const std::string dot = bitio::lint::lock_order_dot(index);
  EXPECT_NE(dot.find("digraph lock_order"), std::string::npos);
  // The bp writer's drain handshake is the canonical ordered pair.
  EXPECT_NE(dot.find("mutex_"), std::string::npos);
}
