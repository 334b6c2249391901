#pragma once
// Seeded, deterministic fault injection for the simulated file system.
//
// A FaultPlan is a list of rules; SharedFs consults the plan on every data
// write (FsClient::write / pwrite / write_simulated).  A rule fires either
// on the nth write whose path matches (deterministic positional targeting,
// `nth`) or with a seeded per-write probability (`probability`) — both are
// reproducible across runs because the draw is a pure hash of (seed, global
// write ordinal).  Fired rules inject:
//
//   torn_write  only a prefix of the extent is persisted; the caller sees
//               success (the classic lost-tail failure a crash leaves behind)
//   bit_flip    the extent is persisted, then one deterministically chosen
//               bit inside it is flipped (silent corruption)
//   eio/enospc  the call throws IoError before persisting anything
//               (transient failures the resilience layer retries through)
//   rank_crash  not applied at the write layer: the harness asks
//               should_crash(rank, step) at step boundaries
//   stall       the call throws TimeoutError before persisting anything:
//               an unresponsive OST, failed on the simulated clock rather
//               than waited out on the host's (bp's drain retries it)
//
// Every injection is recorded as a TraceOp with TraceOp::fault set, so
// Darshan capture and timing replay can attribute faults per (rank, file).
// Plans parse from the `[io.fault_plan]` TOML table (see core::Bit1IoConfig)
// and compare by value for config round-trip tests.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fsim/types.hpp"
#include "util/json.hpp"

namespace bitio::fsim {

/// One injection rule.  `path` is a substring match against the target file
/// path ("" matches every file).  Exactly one of `nth` (1-based ordinal
/// among this rule's matching writes) or `probability` selects the firing
/// writes; `times` bounds total firings (0 = unlimited).
struct FaultRule {
  FaultKind kind = FaultKind::bit_flip;
  std::string path;              // substring of the file path; "" = any
  std::uint64_t nth = 0;         // fire on the nth matching write (1-based)
  double probability = 0.0;      // per-matching-write firing probability
  int times = 1;                 // max firings; 0 = unlimited
  int rank = -1;                 // restrict to a client; -1 = any.
                                 // For rank_crash: the crashing rank.
  std::uint64_t step = 0;        // rank_crash only: crash at this step

  friend bool operator==(const FaultRule& a, const FaultRule& b) = default;
};

FaultKind fault_kind_from_name(const std::string& name);

/// The plan: rules plus the seed that makes probabilistic draws
/// reproducible.  Rule state (match/fire counters) lives in the plan, so a
/// plan installed into a SharedFs is consumed as the run progresses.
class FaultPlan {
public:
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, std::vector<FaultRule> rules);

  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultRule>& rules() const { return rules_; }
  bool empty() const { return rules_.empty(); }

  /// Throws UsageError on an inconsistent rule (unknown kind, probability
  /// outside [0,1], neither — or both — of nth and probability set,
  /// rank_crash without a rank or with a rank already scheduled to crash).
  /// Errors name the offending rule index.
  void validate() const;

  /// Decide the fault (if any) for a data write of `bytes` to `path` by
  /// `client`.  Mutates rule counters; call exactly once per write attempt.
  /// First matching rule wins.
  std::optional<FaultKind> next_write_fault(const std::string& path,
                                            ClientId client,
                                            std::uint64_t bytes);

  /// rank_crash rules: should `rank` die at `step`?  (Harness-level; does
  /// not consume rule firings so every rank observes the same answer.)
  bool should_crash(int rank, std::uint64_t step) const;

  /// Deterministic bit index to flip inside an extent of `bytes` bytes
  /// (pure function of the seed and the firing ordinal).
  std::uint64_t flip_bit_index(std::uint64_t firing, std::uint64_t bytes) const;
  /// Deterministic prefix (in bytes) to keep of a torn write; always
  /// shorter than `bytes` for bytes > 0.
  std::uint64_t torn_prefix(std::uint64_t firing, std::uint64_t bytes) const;

  std::uint64_t injected_count() const { return injected_; }

  /// Parse from the Json tree of the `[io.fault_plan]` TOML table:
  ///   seed = 42
  ///   rules = [ { kind = "bit_flip", path = "epoch_1", nth = 1 } ]
  static FaultPlan from_json(const Json& table);
  /// Render back to the TOML fragment from_json accepts (lossless).
  std::string to_toml() const;

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) {
    return a.seed_ == b.seed_ && a.rules_ == b.rules_;
  }

private:
  std::uint64_t seed_ = 0;
  std::vector<FaultRule> rules_;
  // Per-rule running counters, parallel to rules_.
  std::vector<std::uint64_t> matches_;
  std::vector<std::uint64_t> firings_;
  std::uint64_t write_ordinal_ = 0;  // global write attempts seen
  std::uint64_t injected_ = 0;
};

}  // namespace bitio::fsim
