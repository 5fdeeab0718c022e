// detlint symbol layer: function boundaries and per-file symbol sets, harvested
// from the lexer's token stream — still no compiler frontend.
//
// Three consumers:
//   * DL012 observational-purity: NonConstMethods() harvests the mutator-name
//     set of watched classes (Machine, MigrationEngine, TenantRegistry) from
//     their headers; any `.name(` / `->name(` call in observer-side code whose
//     name is in the set is a finding. This is the static analogue of the
//     trace subsystem's bitwise on/off-identity proof.
//   * DL013 dead-symbol: ParseFunctions() marks every declaration/definition
//     name token, so a name occurrence anywhere *else* counts as a reference;
//     a function declared in a src/ header with zero references is dead.
//   * future passes that need "who declares / who calls" without a build.
//
// The parser is conservative by construction: when a token sequence is
// ambiguous it classifies toward "reference", which can only under-report
// DL013 (a live function is never flagged because a use was missed — the
// failure mode is a dead function surviving, never a live one failing the lint).

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/detlint/config.h"
#include "tools/detlint/lexer.h"
#include "tools/detlint/rules.h"

namespace detlint {

// One function declaration or definition found in a file.
struct FunctionSym {
  std::string name;       // unqualified name
  std::string qualifier;  // enclosing class, or "Class" from a Class::name definition
  int line = 0;
  size_t name_index = 0;  // token index of the name in the file's token stream
  bool is_definition = false;  // a body follows in this file
};

// Per-file symbol harvest.
struct FileSymbols {
  std::vector<FunctionSym> functions;
  // Token indexes that are declaration/definition name positions — every other
  // occurrence of a name is a reference.
  std::set<size_t> decl_name_indexes;
};

// Parses function boundaries: free functions, class methods (in-body and
// out-of-line `Class::name` definitions), declarations ending in ';'.
// Constructors, destructors, and operators are recognized and skipped — they
// are structural, not symbols a dead-code pass should reason about.
FileSymbols ParseFunctions(const LexedFile& file);

// Non-const member function names of `class_name` harvested from `file`
// (methods of nested classes excluded). Empty when the class has no body here.
std::set<std::string> NonConstMethods(const LexedFile& file, const std::string& class_name);

// DL012: files in the rule's `paths` set may not call (via `.`/`->`/`::`) any
// non-const method of a class in the rule's `classes` set.
std::vector<Finding> CheckObservationalPurity(
    const std::map<std::string, LexedFile>& files, const Config& config);

// DL013: functions declared in headers under the rule's `paths` set with no
// reference from any analyzed TU. References include preprocessor directive
// bodies (macro-expanded calls count as uses).
std::vector<Finding> CheckDeadSymbols(const std::map<std::string, LexedFile>& files,
                                      const Config& config);

}  // namespace detlint
