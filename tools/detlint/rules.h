// detlint rules: the project's determinism & safety invariants as token-level
// checks. See DESIGN.md §7 for the rule table and rationale.
//
//   DL000 io-error               a listed file could not be read (always exit 2)
//   DL001 wall-clock             ambient time/entropy source in simulated code
//   DL002 assert                 assert() vanishes under NDEBUG; use CHECK
//   DL003 unordered-iter         iteration over std::unordered_{map,set}
//   DL004 pointer-sort           sort comparator ordered by raw pointer value
//   DL005 unseeded-shuffle       std::shuffle/std::sample without project RNG
//   DL006 pragma-once            header missing #pragma once
//   DL007 using-namespace-header using namespace at header scope
//   DL008 naked-new              raw new/delete outside allowlisted files
//   DL009 std-function-hot-path  std::function in hot-path headers (src/vm, src/sim)
//   DL010 subsystem-layering     include back-edge against the declared layer DAG,
//                                include cycle, or src/ subsystem missing from the DAG
//   DL011 hot-path-alloc         allocation (new/make_unique/std::string/growing
//                                push_back) in a declared hot-path file
//   DL012 observational-purity   observer-side code calling a non-const mutator of a
//                                watched simulation class
//   DL013 dead-symbol            function declared in a src/ header, referenced by no
//                                TU
//
// DL010–DL013 are cross-TU: they need every analyzed file's tokens/includes at
// once and are activated by their detlint.toml sections (layers / paths /
// classes) — without config they are inert, so fixture runs stay pinned.
//
// Findings can be suppressed three ways, all reviewable in diffs:
//   * inline:  // detlint:allow(rule-name) justification   (same line)
//   * above:   a comment-only line directly before the finding
//   * config:  [rule.<name>] allow = [...] in tools/detlint/detlint.toml
// An annotation without a justification does not suppress.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "tools/detlint/config.h"
#include "tools/detlint/lexer.h"

namespace detlint {

// Warn-tier findings are reported but do not fail the build; a rule starts at
// kWarn while the tree is being brought to zero and is promoted once clean
// (every rule is error-tier today).
enum class Severity { kError, kWarn };

struct RuleInfo {
  const char* id;    // stable machine ID, e.g. "DL003"
  const char* name;  // kebab-case name used in suppressions/config
  Severity severity;
  const char* hint;  // one-line fix-it
};

// All rules, in ID order. Exposed for docs/tests.
const std::vector<RuleInfo>& AllRules();

// Registry lookup by stable ID ("DL010"); CHECK-fails on an unknown ID, so a
// cross-TU pass can never report under an unregistered rule.
const RuleInfo& RuleById(const char* id);

struct Finding {
  std::string file;  // repo-relative path
  int line = 0;
  const RuleInfo* rule = nullptr;
  std::string message;
};

// Findings are ordered by (file, line, rule ID) so output is deterministic.
// Every finding carries a non-null rule (IO failures use DL000).
bool FindingLess(const Finding& a, const Finding& b);

// Appends a finding for `rule` at `file`:`line` unless the line carries a
// justified inline suppression or the file is allowlisted for the rule.
// Shared by the per-file runner and the cross-TU passes so all four
// suppression paths behave identically everywhere.
void ReportUnlessSuppressed(const LexedFile& file, const RuleInfo& rule, int line,
                            std::string message, const Config& config,
                            std::vector<Finding>* out);

// Runs every per-file rule over one lexed file. `extra_unordered_names` seeds
// the unordered-iter rule with container names declared in the file's includes
// (members declared in a class header but iterated in its .cc).
std::vector<Finding> RunRules(const LexedFile& file, const Config& config,
                              const std::vector<std::string>& extra_unordered_names);

// Names of variables declared with std::unordered_map/std::unordered_set in
// `file` — harvested from headers to cross-seed RunRules on their .cc files.
std::vector<std::string> CollectUnorderedNames(const LexedFile& file);

// Collects *.h / *.cc files under each of `paths` (files or directories
// relative to `root`), '/'-separated, sorted, deduplicated, with any
// [scan] exclude prefixes from `config` dropped (fixture corpora live inside
// tools/ and must not be linted as production code). Returns false and sets
// *error on IO failure.
bool CollectSourceFiles(const std::string& root, const std::vector<std::string>& paths,
                        const Config& config, std::vector<std::string>* files,
                        std::string* error);

// Analyzes `rel_paths` (files, '/'-separated, relative to `root`). Reads each
// file, cross-seeds unordered container names along quoted #include edges, runs
// all per-file rules, then the cross-TU passes (include graph / layering,
// observational purity, dead symbols), and returns findings sorted by
// FindingLess. IO failures surface as DL000 findings on line 0.
std::vector<Finding> AnalyzeFiles(const std::string& root,
                                  const std::vector<std::string>& rel_paths,
                                  const Config& config);

}  // namespace detlint
