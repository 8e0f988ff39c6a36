#pragma once
// psched-lint: the project contract checker. A dependency-free token-level
// scanner that machine-checks the invariants every determinism claim in this
// repo rests on (byte-identical parallel sweeps, fork/naive FST byte-equality,
// bit-exact campaign resume). Each contract is a named, individually
// suppressible rule; the full catalog with rationale lives in
// docs/static_analysis.md.
//
// Suppression syntax (reason is mandatory), e.g.:
//   // psched-lint: allow(unordered-iter): order-insensitive count, not output
// On a code line it suppresses that rule on that line; on a line of its own it
// suppresses the rule on the next line carrying code. A suppression without a
// reason, or naming an unknown rule, is itself a finding (bad-suppression).

#include <filesystem>
#include <string>
#include <vector>

namespace psched::lint {

enum class Rule {
  kRawRng,          ///< randomness outside util::Rng (src/util/rng.*)
  kWallClock,       ///< wall-clock reads outside sanctioned files
  kParallelFpAccum, ///< compound assignment inside parallel_for/submit lambdas
  kSchedulerClone,  ///< Scheduler subclass without a clone() override
  kRawFileWrite,    ///< direct file writes outside util::atomic_write_file
  kUnorderedIter,   ///< iterating an unordered container without justification
  kRawEnv,          ///< getenv of a registry-owned variable outside its registry
  kBadSuppression,  ///< malformed psched-lint comment (diagnostic, not a contract); keep last
};

/// Stable rule id used in reports and allow(<rule>) comments.
const char* rule_name(Rule rule);

/// One-line description of what `rule` enforces (the --list-rules catalog).
const char* rule_summary(Rule rule);

/// Parse an allow(<name>) rule id; returns false for unknown names.
/// kBadSuppression is internal and deliberately not nameable.
bool rule_from_name(const std::string& name, Rule& out);

struct Finding {
  std::string file;  ///< path as given to the linter
  int line = 0;      ///< 1-based
  Rule rule = Rule::kRawRng;
  std::string message;
};

/// One translation unit to scan. `sibling_header` optionally carries the text
/// of the same-stem .hpp so container declarations in the header are visible
/// when linting the .cpp (the unordered-iter rule needs this).
struct FileInput {
  std::string path;
  std::string content;
  std::string sibling_header;  ///< empty = none
};

/// Scan one file; findings are suppression-filtered and sorted by line.
std::vector<Finding> lint_file(const FileInput& input);

/// Read each path (pairing .cpp files with a same-stem header in the same
/// directory when present) and scan it. Unreadable paths throw.
std::vector<Finding> lint_paths(const std::vector<std::filesystem::path>& paths);

/// Scan every C++ source under root/src, root/tools, root/bench.
std::vector<Finding> lint_tree(const std::filesystem::path& root);

/// "file:line: [rule] message" — the one report format, shared by CLI & tests.
std::string format_finding(const Finding& finding);

}  // namespace psched::lint
