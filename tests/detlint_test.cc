// detlint self-tests: every rule fires on its dirty fixture at the exact
// file:line, stays silent on its clean twin, and every suppression mechanism
// works. The final test runs the real analyzer + real config over the real
// tree and requires zero findings — the same gate the `detlint` CMake target
// and the CI lint job enforce, so a violation fails the unit suite too.
//
// DETLINT_SOURCE_ROOT is injected by tests/CMakeLists.txt.

#include "tools/detlint/rules.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tools/detlint/config.h"
#include "tools/detlint/lexer.h"

namespace detlint {
namespace {

std::string FixtureRoot() {
  return std::string(DETLINT_SOURCE_ROOT) + "/tools/detlint/fixtures";
}

// Runs the analyzer over fixture files and reduces findings to (id, line).
std::vector<std::pair<std::string, int>> Lint(const std::vector<std::string>& files,
                                              const Config& config = Config()) {
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& f : AnalyzeFiles(FixtureRoot(), files, config)) {
    EXPECT_NE(f.rule, nullptr) << f.file << ": " << f.message;
    if (f.rule != nullptr) {
      out.emplace_back(f.rule->id, f.line);
    }
  }
  return out;
}

using Expected = std::vector<std::pair<std::string, int>>;

TEST(DetlintRules, WallClockDirtyFiresPerSource) {
  EXPECT_EQ(Lint({"wall_clock_dirty.cc"}),
            (Expected{{"DL001", 9},
                      {"DL001", 10},
                      {"DL001", 11},
                      {"DL001", 12},
                      {"DL001", 13},
                      {"DL001", 14},
                      {"DL001", 15}}));
}

TEST(DetlintRules, WallClockCleanIsSilent) {
  EXPECT_EQ(Lint({"wall_clock_clean.cc"}), Expected{});
}

TEST(DetlintRules, WallClockConfigAllowlistSuppressesWholeFile) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.wall-clock]\nallow = [\"wall_clock_dirty.cc\"]\n",
                           &error))
      << error;
  EXPECT_EQ(Lint({"wall_clock_dirty.cc"}, config), Expected{});
}

TEST(DetlintRules, AssertDirtyFires) {
  EXPECT_EQ(Lint({"assert_dirty.cc"}), (Expected{{"DL002", 5}}));
}

TEST(DetlintRules, AssertCleanIsSilent) {
  EXPECT_EQ(Lint({"assert_clean.cc"}), Expected{});
}

TEST(DetlintRules, UnorderedIterDirtyFiresOnBothLoopForms) {
  EXPECT_EQ(Lint({"unordered_iter_dirty.cc"}),
            (Expected{{"DL003", 10}, {"DL003", 13}}));
}

TEST(DetlintRules, UnorderedIterCleanIsSilent) {
  EXPECT_EQ(Lint({"unordered_iter_clean.cc"}), Expected{});
}

TEST(DetlintRules, UnorderedIterSuppressionsWithReasonSilence) {
  EXPECT_EQ(Lint({"unordered_iter_suppressed.cc"}), Expected{});
}

TEST(DetlintRules, SuppressionWithoutReasonDoesNotSuppress) {
  EXPECT_EQ(Lint({"unordered_iter_bad_suppression.cc"}), (Expected{{"DL003", 10}}));
}

TEST(DetlintRules, UnorderedMemberDeclaredInHeaderIterInCc) {
  // The member is declared in unordered_member.h; the loop lives in the .cc.
  // Both files must be in the batch for the cross-file seed to connect them.
  EXPECT_EQ(Lint({"unordered_member.h", "unordered_member.cc"}),
            (Expected{{"DL003", 7}}));
}

TEST(DetlintRules, PointerSortDirtyFires) {
  EXPECT_EQ(Lint({"pointer_sort_dirty.cc"}), (Expected{{"DL004", 12}}));
}

TEST(DetlintRules, PointerSortCleanIsSilent) {
  EXPECT_EQ(Lint({"pointer_sort_clean.cc"}), Expected{});
}

TEST(DetlintRules, ShuffleDirtyFires) {
  EXPECT_EQ(Lint({"shuffle_dirty.cc"}), (Expected{{"DL005", 8}}));
}

TEST(DetlintRules, ShuffleCleanIsSilent) {
  EXPECT_EQ(Lint({"shuffle_clean.cc"}), Expected{});
}

TEST(DetlintRules, PragmaOnceDirtyFiresAtLineOne) {
  EXPECT_EQ(Lint({"pragma_once_dirty.h"}), (Expected{{"DL006", 1}}));
}

TEST(DetlintRules, PragmaOnceCleanIsSilent) {
  EXPECT_EQ(Lint({"pragma_once_clean.h"}), Expected{});
}

TEST(DetlintRules, UsingNamespaceDirtyFires) {
  EXPECT_EQ(Lint({"using_namespace_dirty.h"}), (Expected{{"DL007", 6}}));
}

TEST(DetlintRules, UsingNamespaceCleanIsSilent) {
  EXPECT_EQ(Lint({"using_namespace_clean.h"}), Expected{});
}

TEST(DetlintRules, NakedNewDirtyFiresOnNewAndDelete) {
  EXPECT_EQ(Lint({"naked_new_dirty.cc"}), (Expected{{"DL008", 8}, {"DL008", 10}}));
}

TEST(DetlintRules, NakedNewCleanIsSilent) {
  EXPECT_EQ(Lint({"naked_new_clean.cc"}), Expected{});
}

TEST(DetlintRules, StdFunctionHotPathFiresOnParamAndAlias) {
  EXPECT_EQ(Lint({"src/vm/hot_fn_dirty.h"}), (Expected{{"DL009", 7}, {"DL009", 9}}));
}

TEST(DetlintRules, StdFunctionHotPathSuppressionSilences) {
  EXPECT_EQ(Lint({"src/vm/hot_fn_suppressed.h"}), Expected{});
}

TEST(DetlintRules, StdFunctionOutsideHotPathIsSilent) {
  EXPECT_EQ(Lint({"hot_fn_elsewhere.h"}), Expected{});
}

// ---- DL000: IO failures are findings under a real rule, not nullptr. ----

TEST(DetlintRules, UnreadableFileYieldsIoErrorFinding) {
  const std::vector<Finding> findings =
      AnalyzeFiles(FixtureRoot(), {"no_such_fixture.cc"}, Config());
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_NE(findings[0].rule, nullptr);
  EXPECT_STREQ(findings[0].rule->id, "DL000");
  EXPECT_EQ(findings[0].rule->severity, Severity::kError);
  EXPECT_EQ(findings[0].line, 0);
  EXPECT_EQ(findings[0].file, "no_such_fixture.cc");
}

// ---- DL010: subsystem layering over the include graph. ----

Config LayeringConfig() {
  Config config;
  std::string error;
  // Multi-line array on purpose: the real detlint.toml writes the DAG this way.
  EXPECT_TRUE(config.Parse("[rule.subsystem-layering]\n"
                           "layers = [\n"
                           "  \"sim\",\n"
                           "  \"mem trace\",\n"
                           "  \"harness\",\n"
                           "]\n",
                           &error))
      << error;
  return config;
}

TEST(DetlintRules, LayeringBackEdgeFiresAtTheIncludeLine) {
  EXPECT_EQ(Lint({"src/sim/back_edge.cc", "src/harness/high.h"}, LayeringConfig()),
            (Expected{{"DL010", 2}}));
}

TEST(DetlintRules, LayeringDownwardEdgeIsClean) {
  EXPECT_EQ(Lint({"src/harness/uses_sim.cc", "src/sim/low.h"}, LayeringConfig()),
            Expected{});
}

TEST(DetlintRules, LayeringCycleFiresOnceAtTheSmallestFile) {
  EXPECT_EQ(Lint({"src/mem/cyc_a.h", "src/mem/cyc_b.h"}, LayeringConfig()),
            (Expected{{"DL010", 4}}));
}

TEST(DetlintRules, LayeringUnrankedSubsystemFires) {
  EXPECT_EQ(Lint({"src/rogue/lost.cc"}, LayeringConfig()), (Expected{{"DL010", 1}}));
}

TEST(DetlintRules, LayeringInlineSuppressionOnIncludeLineSilences) {
  EXPECT_EQ(Lint({"src/sim/back_edge_suppressed.cc", "src/harness/high.h"},
                 LayeringConfig()),
            Expected{});
}

TEST(DetlintRules, LayeringConfigAllowlistSilences) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.subsystem-layering]\n"
                           "layers = [\"sim\", \"harness\"]\n"
                           "allow = [\"src/sim/back_edge.cc\"]\n",
                           &error))
      << error;
  EXPECT_EQ(Lint({"src/sim/back_edge.cc", "src/harness/high.h"}, config), Expected{});
}

TEST(DetlintRules, LayeringInertWithoutConfig) {
  // No layers declared: the same back-edge batch reports nothing.
  EXPECT_EQ(Lint({"src/sim/back_edge.cc", "src/harness/high.h"}), Expected{});
}

// ---- DL011: allocation in declared hot-path files. ----

Config HotPathConfig() {
  Config config;
  std::string error;
  EXPECT_TRUE(config.Parse("[rule.hot-path-alloc]\npaths = [\"src/vm/\"]\n", &error))
      << error;
  return config;
}

TEST(DetlintRules, HotPathAllocFiresOnEveryAllocationForm) {
  // new also fires DL008 (line 16, plus the delete on 18); both rules report.
  EXPECT_EQ(Lint({"src/vm/alloc_dirty.cc"}, HotPathConfig()),
            (Expected{{"DL011", 9},
                      {"DL011", 10},
                      {"DL011", 14},
                      {"DL011", 15},
                      {"DL008", 16},
                      {"DL011", 16},
                      {"DL008", 18}}));
}

TEST(DetlintRules, HotPathAllocCleanIsSilent) {
  EXPECT_EQ(Lint({"src/vm/alloc_clean.cc"}, HotPathConfig()), Expected{});
}

TEST(DetlintRules, HotPathAllocSameLineAndAboveLineSuppressionsSilence) {
  EXPECT_EQ(Lint({"src/vm/alloc_suppressed.cc"}, HotPathConfig()), Expected{});
}

TEST(DetlintRules, HotPathAllocConfigAllowlistSilences) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.hot-path-alloc]\n"
                           "paths = [\"src/vm/\"]\n"
                           "allow = [\"src/vm/alloc_dirty.cc\"]\n"
                           "[rule.naked-new]\n"
                           "allow = [\"src/vm/alloc_dirty.cc\"]\n",
                           &error))
      << error;
  EXPECT_EQ(Lint({"src/vm/alloc_dirty.cc"}, config), Expected{});
}

TEST(DetlintRules, HotPathAllocInertOutsideDeclaredPaths) {
  // Same allocations, but the file is outside the configured path set: only
  // the always-on naked-new rule reports.
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.hot-path-alloc]\npaths = [\"src/sim/\"]\n", &error))
      << error;
  EXPECT_EQ(Lint({"src/vm/alloc_dirty.cc"}, config),
            (Expected{{"DL008", 16}, {"DL008", 18}}));
}

// ---- DL012: observational purity of src/trace. ----

Config PurityConfig() {
  Config config;
  std::string error;
  EXPECT_TRUE(config.Parse("[rule.observational-purity]\n"
                           "paths = [\"src/trace/\"]\n"
                           "classes = [\"Machine\"]\n",
                           &error))
      << error;
  return config;
}

TEST(DetlintRules, PurityMutatorCallFromTraceFires) {
  // The mutator set is harvested from machine_api.h, a different file in the
  // batch — the cross-TU wiring, not just per-file matching.
  EXPECT_EQ(Lint({"src/trace/purity_dirty.cc", "src/harness/machine_api.h"},
                 PurityConfig()),
            (Expected{{"DL012", 7}}));
}

TEST(DetlintRules, PurityConstReadsAreClean) {
  EXPECT_EQ(Lint({"src/trace/purity_clean.cc", "src/harness/machine_api.h"},
                 PurityConfig()),
            Expected{});
}

TEST(DetlintRules, PuritySuppressionSilences) {
  EXPECT_EQ(Lint({"src/trace/purity_suppressed.cc", "src/harness/machine_api.h"},
                 PurityConfig()),
            Expected{});
}

TEST(DetlintRules, PurityConfigAllowlistSilences) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.observational-purity]\n"
                           "paths = [\"src/trace/\"]\n"
                           "classes = [\"Machine\"]\n"
                           "allow = [\"src/trace/purity_dirty.cc\"]\n",
                           &error))
      << error;
  EXPECT_EQ(Lint({"src/trace/purity_dirty.cc", "src/harness/machine_api.h"}, config),
            Expected{});
}

TEST(DetlintRules, PurityMutatorCallOutsideTraceIsClean) {
  // The same call from a non-trace file is not a finding.
  EXPECT_EQ(Lint({"src/harness/machine_api.h"}, PurityConfig()), Expected{});
}

// ---- DL013: cross-TU dead symbols. ----

Config DeadSymbolConfig() {
  Config config;
  std::string error;
  EXPECT_TRUE(config.Parse("[rule.dead-symbol]\npaths = [\"src/\"]\n", &error)) << error;
  return config;
}

TEST(DetlintRules, DeadSymbolFiresAtTheHeaderDeclaration) {
  EXPECT_EQ(Lint({"src/dead/api.h", "src/dead/api.cc"}, DeadSymbolConfig()),
            (Expected{{"DL013", 7}}));
}

TEST(DetlintRules, DeadSymbolIsErrorTier) {
  EXPECT_EQ(RuleById("DL013").severity, Severity::kError);
  EXPECT_EQ(RuleById("DL010").severity, Severity::kError);
  EXPECT_EQ(RuleById("DL011").severity, Severity::kError);
  EXPECT_EQ(RuleById("DL012").severity, Severity::kError);
}

TEST(DetlintRules, DeadSymbolSuppressionSilences) {
  EXPECT_EQ(Lint({"src/dead/api_suppressed.h"}, DeadSymbolConfig()), Expected{});
}

TEST(DetlintRules, DeadSymbolConfigAllowlistSilences) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.dead-symbol]\n"
                           "paths = [\"src/\"]\n"
                           "allow = [\"src/dead/api.h\"]\n",
                           &error))
      << error;
  EXPECT_EQ(Lint({"src/dead/api.h", "src/dead/api.cc"}, config), Expected{});
}

TEST(DetlintRules, DeadSymbolInertWithoutConfig) {
  EXPECT_EQ(Lint({"src/dead/api.h", "src/dead/api.cc"}), Expected{});
}

// ---- DL014: host libm calls outside the det_math shim. ----

TEST(DetlintRules, HostLibmFiresOnEveryCallForm) {
  EXPECT_EQ(Lint({"src/common/libm_dirty.cc"}),
            (Expected{{"DL014", 6}, {"DL014", 7}, {"DL014", 8}, {"DL014", 9}, {"DL014", 10}}));
}

TEST(DetlintRules, HostLibmSkipsShimMembersAndDeclarations) {
  EXPECT_EQ(Lint({"src/common/libm_clean.cc"}), Expected{});
}

TEST(DetlintRules, HostLibmConfigAllowlistSilences) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.host-libm]\nallow = [\"src/common/libm_dirty.cc\"]\n",
                           &error))
      << error;
  EXPECT_EQ(Lint({"src/common/libm_dirty.cc"}, config), Expected{});
}

// ---- Lexer: rule sites after multi-line raw strings keep exact lines. ----

TEST(DetlintLexer, RuleSiteAfterMultiLineRawStringHasExactLine) {
  EXPECT_EQ(Lint({"raw_string_lines.cc"}), (Expected{{"DL002", 9}}));
}

TEST(DetlintConfig, RejectsMalformedInput) {
  Config config;
  std::string error;
  EXPECT_FALSE(config.Parse("[trouble]\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(config.Parse("allow = [\"x\"]\n", &error));  // key outside section
  EXPECT_FALSE(config.Parse("[rule.a]\nallow = [\"unterminated\n", &error));
  EXPECT_FALSE(config.Parse("[rule.a]\nmystery = [\"x\"]\n", &error));
}

TEST(DetlintConfig, DirectoryAllowlistMatchesSubtree) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.wall-clock]\nallow = [\"bench/\"]\n", &error)) << error;
  EXPECT_TRUE(config.IsPathAllowed("wall-clock", "bench/sim_throughput.cc"));
  EXPECT_TRUE(config.IsPathAllowed("wall-clock", "bench/sub/dir.cc"));
  EXPECT_FALSE(config.IsPathAllowed("wall-clock", "src/sim/event_queue.cc"));
  EXPECT_FALSE(config.IsPathAllowed("assert", "bench/sim_throughput.cc"));
}

TEST(DetlintConfig, RngTokensOverrideDefaults) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.unseeded-shuffle]\nrng_tokens = [\"Entropy\"]\n",
                           &error))
      << error;
  ASSERT_EQ(config.RngTokens().size(), 1u);
  EXPECT_EQ(config.RngTokens()[0], "Entropy");
  const Config defaults;
  EXPECT_EQ(defaults.RngTokens().size(), 2u);
}

TEST(DetlintLexer, StringsCommentsAndRawStringsAreStripped) {
  const LexedFile file = Lex("strip.cc",
                             "// assert(1) in a comment\n"
                             "const char* s = \"assert(2) in a string\";\n"
                             "const char* r = R\"(assert(3) raw)\";\n"
                             "int after = 4;\n");
  for (const Token& tok : file.tokens) {
    EXPECT_NE(tok.text, "assert");
  }
  // The token after the raw string still carries the right line number.
  bool saw_after = false;
  for (const Token& tok : file.tokens) {
    if (tok.text == "after") {
      EXPECT_EQ(tok.line, 4);
      saw_after = true;
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(DetlintRules, AllRulesHaveStableIdsAndHints) {
  const auto& rules = AllRules();
  ASSERT_EQ(rules.size(), 15u);
  EXPECT_STREQ(rules.front().id, "DL000");
  EXPECT_STREQ(rules.back().id, "DL014");
  for (const RuleInfo& rule : rules) {
    EXPECT_NE(std::string(rule.name), "");
    EXPECT_NE(std::string(rule.hint), "");
  }
}

TEST(DetlintConfig, MultiLineArraysParse) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[rule.subsystem-layering]\n"
                           "layers = [\n"
                           "  \"common\",        # rank 0\n"
                           "  \"mem topology\",  # rank 1, shared\n"
                           "]\n",
                           &error))
      << error;
  ASSERT_EQ(config.Layers().size(), 2u);
  EXPECT_EQ(config.Layers()[0], "common");
  EXPECT_EQ(config.Layers()[1], "mem topology");
  EXPECT_FALSE(config.Parse("[rule.a]\nallow = [\n  \"never closed\",\n", &error));
}

TEST(DetlintConfig, ScanExcludeDropsSubtreeFromCollection) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.Parse("[scan]\nexclude = [\"src/vm/\"]\n", &error)) << error;
  std::vector<std::string> files;
  ASSERT_TRUE(CollectSourceFiles(FixtureRoot(), {"src"}, config, &files, &error))
      << error;
  EXPECT_FALSE(files.empty());
  for (const std::string& f : files) {
    EXPECT_NE(f.rfind("src/vm/", 0), 0u) << f;
  }
  EXPECT_FALSE(config.Parse("[scan]\nmystery = [\"x\"]\n", &error));
}

// DESIGN.md section 7's rule table must match the registry row for row — the
// same table `detlint --list-rules` emits, so docs cannot drift silently.
TEST(DetlintDocs, DesignRuleTableMatchesRegistry) {
  std::ifstream in(std::string(DETLINT_SOURCE_ROOT) + "/DESIGN.md");
  ASSERT_TRUE(in.is_open());
  std::vector<std::pair<std::string, std::string>> doc_rows;  // (id, name)
  std::vector<std::string> doc_tiers;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| DL", 0) != 0) {
      continue;
    }
    // | DL001 | wall-clock | error | ... |
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream row(line);
    while (std::getline(row, cell, '|')) {
      const size_t begin = cell.find_first_not_of(" \t");
      const size_t end = cell.find_last_not_of(" \t");
      cells.push_back(begin == std::string::npos
                          ? ""
                          : cell.substr(begin, end - begin + 1));
    }
    ASSERT_GE(cells.size(), 4u) << line;
    doc_rows.emplace_back(cells[1], cells[2]);
    doc_tiers.push_back(cells[3]);
  }
  const auto& rules = AllRules();
  ASSERT_EQ(doc_rows.size(), rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(doc_rows[i].first, rules[i].id);
    EXPECT_EQ(doc_rows[i].second, rules[i].name);
    EXPECT_EQ(doc_tiers[i],
              rules[i].severity == Severity::kError ? "error" : "warn");
  }
}

// The gate itself: the checked-in tree, linted with the checked-in config,
// has zero findings. Mirrors `cmake --build build --target detlint` and the
// CI lint job.
TEST(DetlintTree, CleanTreeHasZeroFindings) {
  const std::string root = DETLINT_SOURCE_ROOT;
  Config config;
  std::string error;
  ASSERT_TRUE(config.Load(root + "/tools/detlint/detlint.toml", &error)) << error;
  std::vector<std::string> files;
  ASSERT_TRUE(CollectSourceFiles(root, {"src", "bench", "tests", "examples", "tools"},
                                 config, &files, &error))
      << error;
  EXPECT_GT(files.size(), 100u);  // the whole surface, not a subset
  // The fixture corpus is intentionally dirty and must have been excluded.
  for (const std::string& f : files) {
    EXPECT_NE(f.rfind("tools/detlint/fixtures/", 0), 0u) << f;
  }
  // Zero findings of ANY severity: warn-tier sites are triaged (deleted or
  // annotated), never left to rot.
  const std::vector<Finding> findings = AnalyzeFiles(root, files, config);
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule->id << "] " << f.message;
  }
}

// The same lint without tests/: a src/ function that only a test calls shows up as a
// dead symbol (DL013) unless its declaration names the test that needs it.
TEST(DetlintTree, NoSrcFunctionLivesOnlyForTests) {
  const std::string root = DETLINT_SOURCE_ROOT;
  Config config;
  std::string error;
  ASSERT_TRUE(config.Load(root + "/tools/detlint/detlint.toml", &error)) << error;
  std::vector<std::string> files;
  ASSERT_TRUE(CollectSourceFiles(root, {"src", "bench", "examples"}, config, &files, &error))
      << error;
  EXPECT_GT(files.size(), 100u);
  for (const Finding& f : AnalyzeFiles(root, files, config)) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule->id << "] " << f.message;
  }
}

}  // namespace
}  // namespace detlint
