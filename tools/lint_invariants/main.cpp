// bitio-analyzer — the in-tree static analysis driver (see lint.hpp).
//
//   bitio-analyzer [options] [root]
//
//   --rule <id>            run only the named rule (repeatable)
//   --json                 analyze-report mode: dump diagnostics as JSON
//                          on stdout instead of human-readable lines
//   --dot <path>           also write the lock-order acquisition graph as
//                          Graphviz DOT to <path> ("-" for stdout)
//   --update-fingerprints  regenerate tools/lint_invariants/
//                          format_fingerprints.txt (refuses when fields
//                          changed without a version bump)
//   --list                 print the rule ids and exit
//
// `root` defaults to the current directory and must be a repository
// checkout (the rules look under <root>/src).  The semantic index is
// built once and shared by every rule.  Exit status: 0 clean, 1
// violations found, 2 bad usage.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace {

using bitio::lint::Diagnostic;
using bitio::lint::SemanticIndex;

struct Rule {
  const char* id;
  std::vector<Diagnostic> (*run)(const SemanticIndex&);
};

constexpr Rule kRules[] = {
    {"raw-io", bitio::lint::check_raw_io},
    {"lock-order", bitio::lint::check_lock_order},
    {"wire-format", bitio::lint::check_wire_format},
    {"unchecked-status", bitio::lint::check_unchecked_status},
    {"pool-pairing", bitio::lint::check_pool_pairing},
    {"submit-reap", bitio::lint::check_submit_reap},
    {"include-graph", bitio::lint::check_include_graph},
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bitio-analyzer [--rule <id>]... [--json] "
               "[--dot <path>] [--update-fingerprints] [--list] [root]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> selected;
  std::string dot_path;
  bool json = false;
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rule" || arg == "--dot") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bitio-analyzer: %s needs an argument\n",
                     arg.c_str());
        return 2;
      }
      if (arg == "--rule")
        selected.emplace_back(argv[++i]);
      else
        dot_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--update-fingerprints") {
      update = true;
    } else if (arg == "--list") {
      for (const Rule& rule : kRules) std::printf("%s\n", rule.id);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bitio-analyzer: unknown option '%s'\n",
                   arg.c_str());
      usage(stderr);
      return 2;
    } else {
      root = arg;
    }
  }
  for (const auto& id : selected) {
    bool known = false;
    for (const Rule& rule : kRules) known = known || id == rule.id;
    if (!known) {
      std::fprintf(stderr, "bitio-analyzer: unknown rule '%s' (--list)\n",
                   id.c_str());
      return 2;
    }
  }

  const SemanticIndex index = SemanticIndex::build(root);

  std::vector<Diagnostic> diagnostics;
  int rules_run = 0;
  if (update) {
    // Fingerprint regeneration replaces the check run; other selected
    // rules still run so `--update-fingerprints` cannot hide violations.
    auto found = bitio::lint::update_fingerprints(index);
    diagnostics.insert(diagnostics.end(), found.begin(), found.end());
    ++rules_run;
  }
  for (const Rule& rule : kRules) {
    if (update && std::string(rule.id) == "wire-format") continue;
    if (!selected.empty()) {
      bool wanted = false;
      for (const auto& id : selected) wanted = wanted || id == rule.id;
      if (!wanted) continue;
    }
    ++rules_run;
    auto found = rule.run(index);
    diagnostics.insert(diagnostics.end(), found.begin(), found.end());
  }
  if (rules_run == 0) {
    std::fprintf(stderr, "bitio-analyzer: no matching rules\n");
    return 2;
  }

  if (!dot_path.empty()) {
    const std::string dot = bitio::lint::lock_order_dot(index);
    if (dot_path == "-") {
      std::fputs(dot.c_str(), stdout);
    } else {
      std::ofstream out(dot_path, std::ios::binary | std::ios::trunc);
      out << dot;
      if (!out) {
        std::fprintf(stderr, "bitio-analyzer: cannot write '%s'\n",
                     dot_path.c_str());
        return 2;
      }
    }
  }

  if (json) {
    std::fputs(bitio::lint::diagnostics_json(diagnostics).c_str(), stdout);
  } else {
    for (const auto& diag : diagnostics)
      std::fprintf(stderr, "%s\n",
                   bitio::lint::format_diagnostic(diag).c_str());
    std::fprintf(stderr, "bitio-analyzer: %d rule(s), %zu violation(s)\n",
                 rules_run, diagnostics.size());
  }
  return diagnostics.empty() ? 0 : 1;
}
