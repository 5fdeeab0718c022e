#include "tools/detlint/rules.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "tools/detlint/graph.h"
#include "tools/detlint/symbols.h"
#include "tools/detlint/tokens.h"

namespace detlint {
namespace {

const RuleInfo kIoError = {
    "DL000", "io-error", Severity::kError,
    "a listed file could not be read — fix the path or permissions; detlint exits 2 "
    "(lint broke) rather than 1 (tree dirty)"};
const RuleInfo kWallClock = {
    "DL001", "wall-clock", Severity::kError,
    "all time must come from the simulated clock (src/common/time.h) and all randomness "
    "from a seeded Rng (src/common/rng.h); bench wall-timing belongs in the config "
    "allowlist"};
const RuleInfo kAssert = {
    "DL002", "assert", Severity::kError,
    "use CHECK/CHECK_EQ/... from src/common/check.h — assert() compiles out under NDEBUG"};
const RuleInfo kUnorderedIter = {
    "DL003", "unordered-iter", Severity::kError,
    "iterate a deterministically ordered copy (or a std::map keyed by a value), or "
    "annotate the line: // detlint:allow(unordered-iter) <why order cannot leak>"};
const RuleInfo kPointerSort = {
    "DL004", "pointer-sort", Severity::kError,
    "sort by a value key (vpn, id, tick) — pointer order differs from run to run"};
const RuleInfo kUnseededShuffle = {
    "DL005", "unseeded-shuffle", Severity::kError,
    "pass a seeded project RNG (see rng_tokens in tools/detlint/detlint.toml)"};
const RuleInfo kPragmaOnce = {
    "DL006", "pragma-once", Severity::kError,
    "add #pragma once as the first directive of the header"};
const RuleInfo kUsingNamespaceHeader = {
    "DL007", "using-namespace-header", Severity::kError,
    "qualify the names or move the using-directive into a .cc file"};
const RuleInfo kNakedNew = {
    "DL008", "naked-new", Severity::kError,
    "use std::make_unique/containers; raw allocation files are allowlisted in "
    "tools/detlint/detlint.toml"};
const RuleInfo kStdFunctionHotPath = {
    "DL009", "std-function-hot-path", Severity::kError,
    "hot-path headers (src/vm, src/sim) must not traffic in std::function — every "
    "capture heap-allocates and every call is an indirect dispatch; use a template "
    "visitor or InlineFunction (src/common/inline_function.h)"};
const RuleInfo kSubsystemLayering = {
    "DL010", "subsystem-layering", Severity::kError,
    "includes must follow the layer DAG in tools/detlint/detlint.toml "
    "([rule.subsystem-layering] layers, lowest first); invert the dependency, move the "
    "shared type down a layer, or re-rank the subsystem in a reviewed config diff"};
const RuleInfo kHotPathAlloc = {
    "DL011", "hot-path-alloc", Severity::kError,
    "declared hot-path files must not allocate: preallocate in setup (reserve/fixed "
    "arrays), use SlotArena (src/common/slab.h) or InlineFunction; setup-only sites "
    "take an inline allow with the justification"};
const RuleInfo kObservationalPurity = {
    "DL012", "observational-purity", Severity::kError,
    "observer-side code (src/trace) must not call mutators of the simulation — take "
    "const refs, copy into the trace ring, or move the logic to the simulation side; "
    "this is the static twin of the trace on/off bitwise-identity proof"};
const RuleInfo kDeadSymbol = {
    "DL013", "dead-symbol", Severity::kError,
    "delete the function or its declaration; if it is API surface kept on purpose, "
    "annotate the declaration: // detlint:allow(dead-symbol) <why it stays>"};
const RuleInfo kHostLibm = {
    "DL014", "host-libm", Severity::kError,
    "call det_math::Log/Exp/Pow/Log2 (src/common/det_math.h): log, exp, pow and log2 "
    "need not be correctly rounded, so a bare call ties simulated results to the host "
    "libm; the shim is the one allowlisted caller"};

// Keywords that legitimately precede a call expression; any other identifier
// directly before `name(` makes it a declaration (`SimTime time() const`), not
// a call.
bool IsExpressionKeyword(const std::string& text) {
  static const std::set<std::string> kKeywords = {
      "return", "co_return", "co_yield", "co_await", "throw", "case",
      "else",   "do",        "and",      "or",       "not"};
  return kKeywords.count(text) != 0;
}

class RuleRunner {
 public:
  RuleRunner(const LexedFile& file, const Config& config,
             const std::vector<std::string>& extra_unordered_names)
      : file_(file), config_(config), t_(file.tokens) {
    for (const std::string& name : CollectUnorderedNames(file)) {
      unordered_names_.insert(name);
    }
    for (const std::string& name : extra_unordered_names) {
      unordered_names_.insert(name);
    }
  }

  std::vector<Finding> Run() {
    WallClock();
    Assert();
    UnorderedIter();
    PointerSort();
    UnseededShuffle();
    HeaderHygiene();
    NakedNew();
    StdFunctionHotPath();
    HotPathAlloc();
    HostLibm();
    std::sort(findings_.begin(), findings_.end(), FindingLess);
    findings_.erase(std::unique(findings_.begin(), findings_.end(),
                                [](const Finding& a, const Finding& b) {
                                  return a.file == b.file && a.line == b.line &&
                                         a.rule == b.rule;
                                }),
                    findings_.end());
    return std::move(findings_);
  }

 private:
  void Report(const RuleInfo& rule, int line, std::string message) {
    ReportUnlessSuppressed(file_, rule, line, std::move(message), config_, &findings_);
  }

  // DL001: ambient time / entropy identifiers, and ambient-function calls.
  void WallClock() {
    static const std::set<std::string> kBannedIdentifiers = {
        "system_clock", "steady_clock", "high_resolution_clock", "random_device"};
    static const std::set<std::string> kBannedCalls = {
        "time", "rand", "srand", "getenv", "gettimeofday", "clock_gettime"};
    for (size_t i = 0; i < t_.size(); ++i) {
      const Token& tok = t_.At(i);
      if (tok.kind != TokenKind::kIdentifier) {
        continue;
      }
      if (kBannedIdentifiers.count(tok.text) != 0) {
        Report(kWallClock, tok.line, "ambient entropy/clock source '" + tok.text + "'");
        continue;
      }
      if (kBannedCalls.count(tok.text) != 0 && t_.IsPunct(i + 1, '(') &&
          !t_.IsMemberAccess(i)) {
        // Skip declarations: `SimTime time() const` has a type name before it.
        const Token& prev = t_.At(i == 0 ? 0 : i - 1);
        if (i > 0 && prev.kind == TokenKind::kIdentifier &&
            !IsExpressionKeyword(prev.text)) {
          continue;
        }
        Report(kWallClock, tok.line, "call to ambient function '" + tok.text + "()'");
      }
    }
  }

  // DL002: assert( outside member access. ASSERT_EQ/static_assert are distinct
  // identifier tokens and never match.
  void Assert() {
    for (size_t i = 0; i < t_.size(); ++i) {
      if (t_.IsId(i, "assert") && t_.IsPunct(i + 1, '(') && !t_.IsMemberAccess(i)) {
        Report(kAssert, t_.At(i).line, "assert() vanishes under NDEBUG");
      }
    }
  }

  // DL003: range-for over an unordered container, or an explicit iterator walk
  // via <name>.begin()/cbegin()/rbegin().
  void UnorderedIter() {
    for (size_t i = 0; i < t_.size(); ++i) {
      // Range-for: `for ( ... : range-expr )` with a top-level single `:`.
      if (t_.IsId(i, "for") && t_.IsPunct(i + 1, '(')) {
        const size_t close = t_.MatchBalanced(i + 1, '(', ')');
        if (close == Tokens::kNpos) {
          continue;
        }
        size_t colon = Tokens::kNpos;
        int depth = 0;
        bool classic_for = false;
        for (size_t j = i + 1; j <= close; ++j) {
          if (t_.IsPunct(j, '(') || t_.IsPunct(j, '[') || t_.IsPunct(j, '{')) {
            ++depth;
          } else if (t_.IsPunct(j, ')') || t_.IsPunct(j, ']') || t_.IsPunct(j, '}')) {
            --depth;
          } else if (depth == 1 && t_.IsPunct(j, ';')) {
            classic_for = true;
            break;
          } else if (depth == 1 && t_.IsPunct(j, ':') && !t_.IsPunct(j - 1, ':') &&
                     !t_.IsPunct(j + 1, ':')) {
            colon = j;
            break;
          }
        }
        if (classic_for || colon == Tokens::kNpos) {
          continue;
        }
        for (size_t j = colon + 1; j < close; ++j) {
          const Token& tok = t_.At(j);
          if (tok.kind != TokenKind::kIdentifier) {
            continue;
          }
          if (tok.text == "unordered_map" || tok.text == "unordered_set" ||
              (unordered_names_.count(tok.text) != 0 && !t_.IsMemberAccess(j))) {
            Report(kUnorderedIter, t_.At(i).line,
                   "range-for over unordered container '" + tok.text + "'");
            break;
          }
        }
      }
      // Iterator walk: name.begin( / name.cbegin( / name.rbegin(.
      const Token& tok = t_.At(i);
      if (tok.kind == TokenKind::kIdentifier && unordered_names_.count(tok.text) != 0 &&
          t_.IsPunct(i + 1, '.')) {
        const Token& member = t_.At(i + 2);
        if (member.kind == TokenKind::kIdentifier &&
            (member.text == "begin" || member.text == "cbegin" ||
             member.text == "rbegin" || member.text == "crbegin") &&
            t_.IsPunct(i + 3, '(')) {
          Report(kUnorderedIter, tok.line,
                 "iterator over unordered container '" + tok.text + "'");
        }
      }
    }
  }

  // DL004: std::sort/std::stable_sort whose lambda comparator orders two
  // pointer-typed parameters by their raw values (`a < b`, `&a < &b`).
  void PointerSort() {
    for (size_t i = 0; i + 4 < t_.size(); ++i) {
      size_t name = t_.MatchStdQualified(i, "sort");
      if (name == Tokens::kNpos) {
        name = t_.MatchStdQualified(i, "stable_sort");
      }
      if (name == Tokens::kNpos || !t_.IsPunct(name + 1, '(')) {
        continue;
      }
      const size_t call_close = t_.MatchBalanced(name + 1, '(', ')');
      if (call_close == Tokens::kNpos) {
        continue;
      }
      CheckComparatorLambda(name + 2, call_close);
    }
  }

  void CheckComparatorLambda(size_t begin, size_t end) {
    // Find a lambda introducer `[` ... `]` `(` inside the call.
    for (size_t i = begin; i < end; ++i) {
      if (!t_.IsPunct(i, '[')) {
        continue;
      }
      const size_t intro_close = t_.MatchBalanced(i, '[', ']');
      if (intro_close == Tokens::kNpos || intro_close >= end ||
          !t_.IsPunct(intro_close + 1, '(')) {
        continue;
      }
      const size_t params_close = t_.MatchBalanced(intro_close + 1, '(', ')');
      if (params_close == Tokens::kNpos || params_close >= end) {
        continue;
      }
      // Parameters: pointer-ness = a `*` token anywhere in the parameter,
      // name = the parameter's last identifier.
      std::set<std::string> pointer_params;
      std::string last_ident;
      bool saw_star = false;
      for (size_t j = intro_close + 2; j <= params_close; ++j) {
        if (t_.IsPunct(j, ',') || j == params_close) {
          if (saw_star && !last_ident.empty()) {
            pointer_params.insert(last_ident);
          }
          last_ident.clear();
          saw_star = false;
          continue;
        }
        if (t_.IsPunct(j, '*')) {
          saw_star = true;
        } else if (t_.At(j).kind == TokenKind::kIdentifier) {
          last_ident = t_.At(j).text;
        }
      }
      if (pointer_params.empty()) {
        return;
      }
      // Body: first `{` after the parameter list (skips mutable/noexcept and a
      // trailing return type).
      size_t body_open = Tokens::kNpos;
      for (size_t j = params_close + 1; j < end; ++j) {
        if (t_.IsPunct(j, '{')) {
          body_open = j;
          break;
        }
      }
      if (body_open == Tokens::kNpos) {
        return;
      }
      const size_t body_close = t_.MatchBalanced(body_open, '{', '}');
      const size_t stop = body_close == Tokens::kNpos ? end : body_close;
      for (size_t j = body_open + 1; j < stop; ++j) {
        if (!(t_.IsPunct(j, '<') || t_.IsPunct(j, '>'))) {
          continue;
        }
        // Skip <=, >=, <<, >>, -> and template-ish neighbors.
        if (t_.IsPunct(j + 1, '=') || t_.IsPunct(j + 1, '<') || t_.IsPunct(j + 1, '>') ||
            t_.IsPunct(j - 1, '<') || t_.IsPunct(j - 1, '>') || t_.IsPunct(j - 1, '-')) {
          continue;
        }
        if (BareParam(j - 1, pointer_params, /*left=*/true) &&
            BareParam(j + 1, pointer_params, /*left=*/false)) {
          Report(kPointerSort, t_.At(j).line,
                 "sort comparator orders by raw pointer value");
          return;
        }
      }
      return;  // only inspect the first lambda (the comparator)
    }
  }

  // True when token i is a bare occurrence of a pointer parameter (possibly
  // behind a unary `&`), not a member access like a->field.
  bool BareParam(size_t i, const std::set<std::string>& params, bool left) {
    const Token& tok = t_.At(i);
    if (tok.kind != TokenKind::kIdentifier || params.count(tok.text) == 0) {
      return false;
    }
    if (left) {
      // a->field < b  — the identifier left of `<` must not be a member name.
      if (t_.IsMemberAccess(i)) {
        return false;
      }
    } else {
      // a < b->field  — the identifier right of `<` must not start an access.
      if (t_.IsPunct(i + 1, '.') || (t_.IsPunct(i + 1, '-') && t_.IsPunct(i + 2, '>'))) {
        return false;
      }
    }
    return true;
  }

  // DL005: std::shuffle / std::sample whose arguments never mention a project
  // RNG marker token.
  void UnseededShuffle() {
    for (size_t i = 0; i + 4 < t_.size(); ++i) {
      size_t name = t_.MatchStdQualified(i, "shuffle");
      if (name == Tokens::kNpos) {
        name = t_.MatchStdQualified(i, "sample");
      }
      if (name == Tokens::kNpos || !t_.IsPunct(name + 1, '(')) {
        continue;
      }
      const size_t close = t_.MatchBalanced(name + 1, '(', ')');
      if (close == Tokens::kNpos) {
        continue;
      }
      bool seeded = false;
      for (size_t j = name + 2; j < close && !seeded; ++j) {
        const Token& tok = t_.At(j);
        if (tok.kind != TokenKind::kIdentifier) {
          continue;
        }
        for (const std::string& marker : config_.RngTokens()) {
          if (tok.text.find(marker) != std::string::npos) {
            seeded = true;
            break;
          }
        }
      }
      if (!seeded) {
        Report(kUnseededShuffle, t_.At(name).line,
               "std::" + t_.At(name).text + " without a seeded project RNG argument");
      }
    }
  }

  // DL006 + DL007: header-only hygiene.
  void HeaderHygiene() {
    if (!IsHeaderPath(file_.path)) {
      return;
    }
    if (!file_.has_pragma_once) {
      Report(kPragmaOnce, 1, "header is missing #pragma once");
    }
    for (size_t i = 0; i + 1 < t_.size(); ++i) {
      if (t_.IsId(i, "using") && t_.IsId(i + 1, "namespace")) {
        Report(kUsingNamespaceHeader, t_.At(i).line,
               "using-directive at header scope leaks into every includer");
      }
    }
  }

  // DL008: raw new / delete. `operator new/delete` declarations and
  // `= delete;` function deletion are not allocations.
  void NakedNew() {
    for (size_t i = 0; i < t_.size(); ++i) {
      const bool is_new = t_.IsId(i, "new");
      const bool is_delete = t_.IsId(i, "delete");
      if (!is_new && !is_delete) {
        continue;
      }
      if (i > 0 && t_.IsId(i - 1, "operator")) {
        continue;
      }
      if (is_delete &&
          (t_.IsPunct(i + 1, ';') || t_.IsPunct(i + 1, ',') || t_.IsPunct(i + 1, ')') ||
           t_.IsPunct(i + 1, '>'))) {
        continue;  // deleted function / defaulted-family contexts
      }
      Report(kNakedNew, t_.At(i).line,
             is_new ? "raw new expression" : "raw delete expression");
    }
  }

  // DL009: any std::function mention in a hot-path header. Scoped to headers under
  // src/vm/ and src/sim/ — the layers the per-access and per-event loops live in —
  // where a std::function parameter or member means a heap-allocated callable and an
  // indirect call on paths that run millions of times per simulated second. Aliases
  // count too: exporting `using Fn = std::function<...>` from a hot-path header just
  // moves the allocation to the caller.
  void StdFunctionHotPath() {
    if (!IsHeaderPath(file_.path)) {
      return;
    }
    if (file_.path.rfind("src/vm/", 0) != 0 && file_.path.rfind("src/sim/", 0) != 0) {
      return;
    }
    for (size_t i = 0; i < t_.size(); ++i) {
      if (t_.MatchStdQualified(i, "function") != Tokens::kNpos) {
        Report(kStdFunctionHotPath, t_.At(i).line,
               "std::function in hot-path header " + file_.path);
      }
    }
  }

  // DL011: allocation in a declared hot-path file ([rule.hot-path-alloc] paths):
  // non-placement `new`, make_unique/make_shared, std::string construction (a
  // `std::string` mention that is not a reference), and growing container calls
  // (push_back / emplace_back / resize). PR 8 made these files allocation-free;
  // this keeps them that way. Placement new is storage reuse, not allocation,
  // and is skipped; `std::string&` binds without constructing and is skipped.
  void HotPathAlloc() {
    if (!config_.IsPathInRuleSet(kHotPathAlloc.name, file_.path)) {
      return;
    }
    static const std::set<std::string> kGrowers = {"push_back", "emplace_back", "resize"};
    for (size_t i = 0; i < t_.size(); ++i) {
      if (t_.IsId(i, "new") && !t_.IsPunct(i + 1, '(') &&
          !(i > 0 && t_.IsId(i - 1, "operator"))) {
        Report(kHotPathAlloc, t_.At(i).line, "heap allocation (new) on a hot path");
        continue;
      }
      const Token& tok = t_.At(i);
      if (tok.kind != TokenKind::kIdentifier) {
        continue;
      }
      if ((tok.text == "make_unique" || tok.text == "make_shared") &&
          t_.IsPunct(i + 1, '<')) {
        Report(kHotPathAlloc, tok.line, "heap allocation (" + tok.text + ") on a hot path");
        continue;
      }
      size_t name = t_.MatchStdQualified(i, "string");
      if (name != Tokens::kNpos && !t_.IsPunct(name + 1, '&')) {
        Report(kHotPathAlloc, tok.line,
               "std::string construction on a hot path (references are fine)");
        continue;
      }
      if (kGrowers.count(tok.text) != 0 && t_.IsPunct(i + 1, '(') && t_.IsMemberAccess(i)) {
        Report(kHotPathAlloc, tok.line,
               "growing container call '" + tok.text + "' on a hot path");
      }
    }
  }

  // DL014: a call to log, exp, pow or log2 in src/, bare, `::`- or std::-qualified.
  // Member calls, other namespaces' functions of the same name, and declarations (a type
  // name before the name) are not libm calls.
  void HostLibm() {
    if (file_.path.rfind("src/", 0) != 0) {
      return;
    }
    static const std::set<std::string> kLibm = {"log", "exp", "pow", "log2"};
    for (size_t i = 0; i < t_.size(); ++i) {
      const Token& tok = t_.At(i);
      if (tok.kind != TokenKind::kIdentifier || kLibm.count(tok.text) == 0 ||
          !t_.IsPunct(i + 1, '(') || t_.IsMemberAccess(i)) {
        continue;
      }
      if (t_.IsScopeQualified(i)) {
        if (i >= 3 && t_.IsAnyId(i - 3) && !t_.IsId(i - 3, "std")) {
          continue;
        }
      } else if (i > 0 && t_.IsAnyId(i - 1) && !IsExpressionKeyword(t_.At(i - 1).text)) {
        continue;
      }
      Report(kHostLibm, tok.line, "host libm call '" + tok.text + "()'");
    }
  }

  const LexedFile& file_;
  const Config& config_;
  Tokens t_;
  std::set<std::string> unordered_names_;
  std::vector<Finding> findings_;
};

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      kIoError,          kWallClock,       kAssert,
      kUnorderedIter,    kPointerSort,     kUnseededShuffle,
      kPragmaOnce,       kUsingNamespaceHeader, kNakedNew,
      kStdFunctionHotPath, kSubsystemLayering, kHotPathAlloc,
      kObservationalPurity, kDeadSymbol, kHostLibm};
  return kRules;
}

const RuleInfo& RuleById(const char* id) {
  for (const RuleInfo& rule : AllRules()) {
    if (std::strcmp(rule.id, id) == 0) {
      return rule;
    }
  }
  // Unreachable for registered IDs; a typo in a cross-TU pass fails loudly.
  std::abort();
}

bool FindingLess(const Finding& a, const Finding& b) {
  if (a.file != b.file) {
    return a.file < b.file;
  }
  if (a.line != b.line) {
    return a.line < b.line;
  }
  return std::strcmp(a.rule->id, b.rule->id) < 0;
}

void ReportUnlessSuppressed(const LexedFile& file, const RuleInfo& rule, int line,
                            std::string message, const Config& config,
                            std::vector<Finding>* out) {
  if (config.IsPathAllowed(rule.name, file.path)) {
    return;
  }
  if (IsSuppressed(file, line, rule.name)) {
    return;
  }
  out->push_back(Finding{file.path, line, &rule, std::move(message)});
}

std::vector<std::string> CollectUnorderedNames(const LexedFile& file) {
  std::vector<std::string> names;
  const Tokens t(file.tokens);
  for (size_t i = 0; i < t.size(); ++i) {
    if (!(t.IsId(i, "unordered_map") || t.IsId(i, "unordered_set"))) {
      continue;
    }
    if (!t.IsPunct(i + 1, '<')) {
      continue;
    }
    // Walk the template argument list by angle-bracket depth.
    int depth = 0;
    size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t.IsPunct(j, '<')) {
        ++depth;
      } else if (t.IsPunct(j, '>')) {
        if (--depth == 0) {
          break;
        }
      } else if (t.IsPunct(j, ';')) {
        break;  // malformed / not a declaration
      }
    }
    if (j >= t.size() || depth != 0) {
      continue;
    }
    // Skip declarator decorations (`>& samples`, `>* p`, `> const& m`) so
    // reference/pointer parameters still register as unordered containers.
    size_t k = j + 1;
    while (t.IsPunct(k, '&') || t.IsPunct(k, '*') || t.IsId(k, "const")) {
      ++k;
    }
    const Token& after = t.At(k);
    if (after.kind != TokenKind::kIdentifier) {
      continue;  // `>::iterator`, `>{...}` temporaries, etc.
    }
    if (t.IsPunct(k + 1, '(')) {
      continue;  // function declaration returning the container
    }
    names.push_back(after.text);
  }
  return names;
}

std::vector<Finding> RunRules(const LexedFile& file, const Config& config,
                              const std::vector<std::string>& extra_unordered_names) {
  return RuleRunner(file, config, extra_unordered_names).Run();
}

bool CollectSourceFiles(const std::string& root, const std::vector<std::string>& paths,
                        const Config& config, std::vector<std::string>* files,
                        std::string* error) {
  namespace fs = std::filesystem;
  const fs::path root_path(root);
  auto excluded = [&config](const std::string& rel) {
    for (const std::string& entry : config.ScanExcludes()) {
      if (!entry.empty() && entry.back() == '/') {
        if (rel.compare(0, entry.size(), entry) == 0) {
          return true;
        }
      } else if (rel == entry) {
        return true;
      }
    }
    return false;
  };
  for (const std::string& rel : paths) {
    const fs::path full = root_path / rel;
    std::error_code ec;
    if (fs::is_regular_file(full, ec)) {
      if (!excluded(rel)) {
        files->push_back(rel);
      }
      continue;
    }
    if (!fs::is_directory(full, ec)) {
      *error = "no such file or directory: " + full.string();
      return false;
    }
    for (fs::recursive_directory_iterator it(full, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        *error = "cannot walk " + full.string() + ": " + ec.message();
        return false;
      }
      if (!it->is_regular_file()) {
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc") {
        continue;
      }
      const std::string rel_path = fs::relative(it->path(), root_path).generic_string();
      if (!excluded(rel_path)) {
        files->push_back(rel_path);
      }
    }
  }
  std::sort(files->begin(), files->end());
  files->erase(std::unique(files->begin(), files->end()), files->end());
  return true;
}

std::vector<Finding> AnalyzeFiles(const std::string& root,
                                  const std::vector<std::string>& rel_paths,
                                  const Config& config) {
  std::vector<Finding> findings;
  std::map<std::string, LexedFile> lexed;          // rel path -> lexed file
  std::map<std::string, std::vector<std::string>> header_names;
  for (const std::string& rel : rel_paths) {
    std::ifstream in(root + "/" + rel, std::ios::binary);
    if (!in) {
      findings.push_back(Finding{rel, 0, &kIoError, "cannot read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    LexedFile file = Lex(rel, buf.str());
    if (IsHeaderPath(rel)) {
      header_names[rel] = CollectUnorderedNames(file);
    }
    lexed.emplace(rel, std::move(file));
  }
  for (const auto& [rel, file] : lexed) {
    // Cross-seed container names from this file's directly included project
    // headers, so members declared in foo.h are known when foo.cc iterates.
    std::vector<std::string> extra;
    for (const IncludeRef& inc : file.includes) {
      const auto it = header_names.find(inc.path);
      if (it != header_names.end()) {
        extra.insert(extra.end(), it->second.begin(), it->second.end());
      }
    }
    std::vector<Finding> file_findings = RunRules(file, config, extra);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  // Cross-TU passes: the include graph and the symbol layer see every file in
  // the batch at once.
  for (auto* pass : {&CheckLayering, &CheckObservationalPurity, &CheckDeadSymbols}) {
    std::vector<Finding> pass_findings = (*pass)(lexed, config);
    findings.insert(findings.end(), pass_findings.begin(), pass_findings.end());
  }
  std::sort(findings.begin(), findings.end(), FindingLess);
  return findings;
}

}  // namespace detlint
