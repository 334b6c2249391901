#pragma once
// bitio-analyzer — in-tree static analysis for the bitio sources
// (tools/lint_invariants).
//
// The codebase keeps cross-file invariants that the compiler cannot check:
// all file I/O goes through the fsim layer, mutexes are acquired in one
// global order, serialized wire formats only change together with their
// version constants, status-returning fsim/bp APIs are never silently
// dropped, pooled buffers are always recycled, batched queue-pair
// submissions are always reaped, and nothing outside src/bp reaches into
// the bp writer internals.  Invariants the compiler *can* check are left
// to it: the name lists (config keys, Darshan counters, engines,
// topologies, aggregation modes) each have one owner table that every
// consumer loops over, and the OpKind switches are exhaustive under
// -Werror=switch.
//
// Every rule runs over one shared SemanticIndex (see index.hpp): raw-io
// uses a regex over the index's pre-stripped text, while the cross-file
// rules (lock-order, wire-format, unchecked-status, pool-pairing,
// submit-reap, include-graph) use its token streams and symbol tables.
// Violations are file:line diagnostics; the `lint`-labeled ctest runs the
// whole suite over the real tree, and tests/lint_test.cpp +
// tests/analyzer_test.cpp run each rule against fixture trees with
// seeded violations.
//
// The analyses are deliberately heuristic, not AST-based: the tree has no
// guaranteed clang on the build host, and every invariant here survives
// formatting changes at the token level.

#include <cstddef>
#include <string>
#include <vector>

namespace bitio::lint {

class SemanticIndex;  // index.hpp

/// One violation, pointing at the source line that must change.
struct Diagnostic {
  std::string file;     // path relative to the scanned root
  std::size_t line = 0; // 1-based
  std::string rule;     // rule id: "raw-io", "lock-order", ...
  std::string message;
};

/// `file:line: [rule] message` — the format editors and CI logs understand.
std::string format_diagnostic(const Diagnostic& diag);

// --- source-text helpers (exposed for the fixture tests) -------------------

/// Replace //-comments and /*...*/ comments with spaces, preserving line
/// structure so byte offsets still map to the original line numbers.
std::string strip_comments(const std::string& text);

/// Additionally blank out string and character literals (for rules that
/// must not match tokens inside strings).  Input should already be
/// comment-stripped.
std::string strip_string_literals(const std::string& text);

/// 1-based line number of byte offset `pos` in `text`.
std::size_t line_of(const std::string& text, std::size_t pos);

// --- rules -----------------------------------------------------------------
//
// Every rule has two overloads: the SemanticIndex one does the work; the
// string one builds a throwaway index over `root` first (fixture tests and
// single-rule CLI runs use it).  run_all builds the index once.

/// raw-io: no naked stdio/iostream file access outside src/fsim, scanned
/// across src/, bench/, and examples/ (tools/ and tests/ are exempt).  All
/// file traffic must go through fsim::FsClient so the trace, the timing
/// replay, and the Darshan capture see it.  (fprintf to stderr is allowed:
/// console logging is not file I/O.)  Escape hatch for host-side probes
/// that are genuinely outside the simulated storage path:
/// `// lint: allow-raw-io` on the flagged line.
std::vector<Diagnostic> check_raw_io(const std::string& root);
std::vector<Diagnostic> check_raw_io(const SemanticIndex& index);

// --- cross-file analyses (the bitio-analyzer additions) --------------------

/// lock-order: build the mutex acquisition-order graph from MutexLock /
/// lock_guard / unique_lock construction sites, REQUIRES/ACQUIRE
/// annotations, and ACQUIRED_BEFORE declarations, propagated across
/// resolved call sites; fail on any cycle (a cross-function lock-order
/// inversion is a potential deadlock that clang's per-function
/// -Wthread-safety cannot see).
std::vector<Diagnostic> check_lock_order(const std::string& root);
std::vector<Diagnostic> check_lock_order(const SemanticIndex& index);

/// The acquisition-order graph in Graphviz DOT form (declared edges
/// dashed), for embedding in DESIGN.md.
std::string lock_order_dot(const SemanticIndex& index);

/// One serialized wire surface the fingerprint rule guards: the functions
/// that define the format, and the version constant that must move with
/// them.
struct FormatSurface {
  std::string id;             // golden-file key, e.g. "minibp-step"
  std::string file;           // rel path holding the anchors
  // The serializer, e.g. "encode_step" or "EpochManifest::to_json", after
  // any functions defining field tables it loops over: the fingerprint
  // covers every anchor, so adding a table row moves it too.
  std::vector<std::string> anchors;
  std::string version_file;   // rel path declaring the version constant
  std::string version_const;  // e.g. "kMdMagic"
};

/// The six production surfaces: miniBP step metadata, index entry and
/// footer, CZP1 frame header, the Darshan DRSNLOG counter tables and
/// serializer, checkpoint MANIFEST.
const std::vector<FormatSurface>& default_format_surfaces();

/// Path of the committed golden, relative to the index root.
extern const char kFingerprintGoldenRel[];

/// wire-format: fingerprint every surface's serializer (normalized
/// output-writing statements, FNV-1a 64) and compare against the golden.
/// A fingerprint drift with an unchanged version constant fails — fields
/// cannot change without bumping the version; a drift with a bumped
/// version fails until the golden is regenerated (--update-fingerprints),
/// so the golden diff is part of the reviewed change.
std::vector<Diagnostic> check_wire_format(const std::string& root);
std::vector<Diagnostic> check_wire_format(const SemanticIndex& index);
std::vector<Diagnostic> check_wire_format(
    const SemanticIndex& index, const std::vector<FormatSurface>& surfaces,
    const std::string& golden_rel);

/// Regenerate the golden (returns the new content via writing the file).
/// Refuses — returning the blocking diagnostics — when a surface's
/// fingerprint changed while its version constant did not: bump the
/// version first.
std::vector<Diagnostic> update_fingerprints(const SemanticIndex& index);
std::vector<Diagnostic> update_fingerprints(
    const SemanticIndex& index, const std::vector<FormatSurface>& surfaces,
    const std::string& golden_rel);

/// unchecked-status: a call of a value-returning fsim::FsClient /
/// fsim::SharedFs / bp::Reader method must consume the result — dropping
/// it as an expression statement hides injected faults and short reads.
/// Escape hatch: `// lint: ignore-status` on the call line; `(void)`
/// casts count as consumption.
std::vector<Diagnostic> check_unchecked_status(const std::string& root);
std::vector<Diagnostic> check_unchecked_status(const SemanticIndex& index);

/// pool-pairing: a buffer acquired from a cz::BufferPool must be moved,
/// released, or returned on every path out of the acquiring function —
/// an early `return` between acquire and hand-off leaks the buffer out
/// of the pool's steady-state set.  Escape hatch: `// lint: ignore-pool`.
std::vector<Diagnostic> check_pool_pairing(const std::string& root);
std::vector<Diagnostic> check_pool_pairing(const SemanticIndex& index);

/// submit-reap: every fsim::SubmissionQueue::submit() must have a
/// reachable reap — a reap()/reap_all()/completions() use on the same
/// queue (or the queue handed by reference to a helper that reaps) —
/// otherwise the batch's per-sqe fault results are silently dropped.  An
/// early `return` between submit and reap is flagged like pool-pairing's
/// early-return leak.  Escape hatch: `// lint: ignore-reap`.
std::vector<Diagnostic> check_submit_reap(const std::string& root);
std::vector<Diagnostic> check_submit_reap(const SemanticIndex& index);

/// include-graph: no #include cycles under src/, and no file outside
/// src/bp may include the bp writer internals (bp/writer.hpp,
/// bp/stream.hpp, bp/format.hpp) — the engine seam (bp/engine.hpp,
/// bp/types.hpp, bp/reader.hpp, bp/query.hpp) is the supported surface.
std::vector<Diagnostic> check_include_graph(const std::string& root);
std::vector<Diagnostic> check_include_graph(const SemanticIndex& index);

/// All rules.  The string overload builds the index once (the analyzer
/// CLI and the real-tree test use it).  Diagnostics are ordered by rule.
std::vector<Diagnostic> run_all(const std::string& root);
std::vector<Diagnostic> run_all(const SemanticIndex& index);

/// Diagnostics as a JSON report (`analyze-report` mode): an object with a
/// "diagnostics" array of {file, line, rule, message} and a "count".
std::string diagnostics_json(const std::vector<Diagnostic>& diags);

}  // namespace bitio::lint
