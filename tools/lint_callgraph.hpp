// Token-level C++ call-graph front end for the pprox_lint --ct pass. There
// is no libclang in the container, so this is the same comment/string-
// stripping + scope-stack machinery the flow linter uses, grown
// function-grained: it records, for every function definition across all
// TUs, the qualified name and the *body token spans* (index ranges into the
// TU token stream). The pass replays the spans with its own leaf
// vocabulary — the parser itself knows nothing about secrets.
//
// Overloads and #ifdef-twin definitions merge into one node whose spans
// accumulate; effects computed by a pass are therefore unioned across all
// definitions — conservative in the right direction (DESIGN.md §13.9).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace cg {

struct Tok {
  std::string text;
  std::size_t line = 0;  ///< 1-based
};

bool is_ident_char(char c);
bool is_ident_tok(const std::string& t);

/// Strips comments, string/char literals, and preprocessor lines while
/// preserving line structure (so a `#define` body is not parsed as code and
/// token line numbers stay real).
std::vector<std::string> code_lines(const std::vector<std::string>& raw);

std::vector<Tok> tokenize(const std::vector<std::string>& code);

/// "a::b::c" -> "c"; names without "::" pass through.
std::string last_component(const std::string& qname);

std::string json_escape(const std::string& s);

/// One contiguous function-body token range: [begin, end) into
/// Graph::tus[tu].toks, where toks[end] is the body's closing '}'.
struct Span {
  int tu = -1;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One merged function node.
struct Fn {
  std::string qname;
  std::string cls;  ///< qualified name minus the last component
  std::string file;  ///< first definition site
  std::size_t line = 0;
  std::vector<Span> bodies;
};

struct Tu {
  std::string path;
  std::vector<Tok> toks;
};

struct Graph {
  std::vector<Tu> tus;
  std::vector<Fn> fns;
  std::map<std::string, int> index;  // qname -> fns index

  Fn& get_or_create(const std::string& qname);

  /// Parses one TU's tokens into the graph; keeps the tokens alive in
  /// `tus` so passes can replay body spans.
  void add_tu(std::string path, std::vector<Tok> toks);
};

// --- suppression comments --------------------------------------------------

/// Parsed `// <MARKER>(aspect[,aspect]): reason` suppression on one line.
struct Suppression {
  unsigned effects = 0;
  bool bare = false;  ///< reason missing — rejected, suppresses nothing
};

/// Scans raw source lines for `marker` (e.g. "PPROX-CT-OK(") and parses
/// the aspect list via `from_name`. The mandatory ": <why>" contract is
/// shared: a bare suppression gets effects=0 and bare=true.
std::map<std::size_t, Suppression> scan_suppressions(
    const std::vector<std::string>& raw, const std::string& marker,
    unsigned (*from_name)(const std::string&));

// --- call-name resolution --------------------------------------------------

/// Index of scanned functions by last name component, for unqualified and
/// virtual-call fallback resolution.
std::map<std::string, std::vector<int>> index_by_last(const Graph& g);

/// Resolves a written call name to scanned-function indices using the
/// documented policy (DESIGN.md §13.9 steps 2–3): qualified names match
/// exactly or by trailing "::"-aligned suffix; unqualified/member calls
/// prefer the caller's own class, else fall back to every scanned function
/// with that last component (the virtual-call over-approximation). Builtin
/// leaf tables and neutral-member skips are the caller's business and must
/// be applied *before* this.
std::vector<int> resolve_name(
    const Graph& g, const std::map<std::string, std::vector<int>>& by_last,
    const Fn& caller, const std::string& name);

// --- findings and keyed baselines ------------------------------------------

struct Finding {
  std::string rule;
  std::string key;  ///< line-free ratchet key
  std::string path;
  std::size_t line = 0;
  std::string message;
  std::string chain;  ///< "root -> ... -> leaf"
};

/// Reads the `"<anchor>": [{"key": ..., "why": ...}, ...]` entry list from a
/// baseline file into key -> why. Returns false when the file is unreadable
/// or the anchor is missing.
bool parse_keyed_baseline(const std::string& path, const std::string& anchor,
                          std::map<std::string, std::string>& entries);

/// Writes `{"<anchor>": [...]}` with sorted, deduplicated entries.
bool write_keyed_baseline(const std::string& path, const std::string& anchor,
                          const std::map<std::string, std::string>& entries);

/// Shared tail of a pass's run(): sort, print (plain or --json), apply the
/// --baseline ratchet or --baseline-write regeneration, return the exit
/// code (0 clean/within-baseline, 1 findings/regressions, 2 IO errors).
struct ReportSpec {
  std::string mode;        ///< --json "mode" field, e.g. "ct"
  std::string anchor;      ///< baseline top-level key
  std::string what;        ///< human label, e.g. "constant-time"
  std::string bare_rule;   ///< bare-suppression rule name (never baselinable)
  std::string default_why; ///< why for --baseline-write entries without one
  bool json = false;
  std::string baseline;
  std::string baseline_write;
};

int report(const ReportSpec& spec, std::vector<Finding>& findings,
           std::size_t files);

}  // namespace cg
