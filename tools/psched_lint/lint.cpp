#include "psched_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace psched::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule metadata
// ---------------------------------------------------------------------------

struct RuleInfo {
  Rule rule;
  const char* name;
  const char* summary;  ///< one line for --list-rules
};

constexpr RuleInfo kRules[] = {
    {Rule::kRawRng, "raw-rng", "randomness outside util::Rng (seeded, forkable streams only)"},
    {Rule::kWallClock, "wall-clock",
     "wall-clock reads outside sanctioned files (simulation time only)"},
    {Rule::kParallelFpAccum, "parallel-fp-accum",
     "compound accumulation in parallel_for/submit lambdas (serial reductions only)"},
    {Rule::kSchedulerClone, "scheduler-clone",
     "Scheduler subclass missing the clone() override (fork contract)"},
    {Rule::kRawFileWrite, "raw-file-write",
     "direct file writes outside util::atomic_write_file (durability contract)"},
    {Rule::kUnorderedIter, "unordered-iter",
     "unordered-container iteration without a sorted order or a reason"},
    {Rule::kRawEnv, "raw-env",
     "getenv of PSCHED_FAULT*/PSCHED_TRACE outside the owning registry (read-once arming)"},
    {Rule::kBadSuppression, "bad-suppression", "malformed psched-lint comment"},
};

bool ends_with(const std::string& path, const char* suffix) {
  const std::string tail(suffix);
  return path.size() >= tail.size() &&
         path.compare(path.size() - tail.size(), tail.size(), tail) == 0;
}

// Files where a rule's flagged construct IS the sanctioned implementation.
// Matched by path suffix so the list works from any checkout location (and is
// itself testable through fixture files mirroring these suffixes). raw-env
// sanctions per variable instead; see kOwnedEnv.
struct Sanction {
  Rule rule;
  const char* path_suffix;
};

constexpr Sanction kSanctions[] = {
    // The one place randomness is allowed to touch <random> directly.
    {Rule::kRawRng, "src/util/rng.hpp"},
    {Rule::kRawRng, "src/util/rng.cpp"},
    // StopToken deadlines are the one legitimate monotonic-clock consumer:
    // they bound wall time of a run, they never feed simulation results.
    {Rule::kWallClock, "src/util/stop_token.cpp"},
    // The durability layer itself: atomic_write_file's tmp+rename dance and
    // the journal's O_APPEND fd are the sanctioned raw-write call sites.
    {Rule::kRawFileWrite, "src/util/atomic_file.cpp"},
    {Rule::kRawFileWrite, "src/scenario/journal.cpp"},
    // The chaos harness bounds *child process* wall time (hang detection,
    // kill legs); like StopToken deadlines, none of it feeds results.
    {Rule::kWallClock, "tools/psched_chaos.cpp"},
    // src/obs/clock.cpp is the ONE sanctioned trace timestamp source: span
    // timing never feeds simulation results.
    {Rule::kWallClock, "src/obs/clock.cpp"},
};

bool is_sanctioned(Rule rule, const std::string& path) {
  for (const Sanction& s : kSanctions)
    if (s.rule == rule && ends_with(path, s.path_suffix)) return true;
  return false;
}

// Environment variables owned by a registry (rule raw-env): the one file that
// may read each, and what everyone else should call instead.
struct OwnedEnv {
  const char* prefix;  ///< variable-name prefix, matched against string literals
  const char* owner;   ///< path suffix of the sanctioned reader
  const char* advice;
};

constexpr OwnedEnv kOwnedEnv[] = {
    {"PSCHED_FAULT", "src/util/fault.cpp", "query util::fault (check/inject/report)"},
    {"PSCHED_TRACE", "src/obs/obs.cpp",
     "use obs::armed()/obs::arm()/obs::set_exit_trace_path()"},
};

// ---------------------------------------------------------------------------
// Comment/string stripping (line structure preserved)
// ---------------------------------------------------------------------------

struct Comment {
  int line = 0;       ///< line the comment starts on
  bool own_line = false;  ///< nothing but whitespace precedes it on that line
  std::string text;
};

struct Literal {
  int line = 0;       ///< line the string literal starts on
  std::string text;   ///< contents, escapes kept verbatim
};

// Replaces comments, string/char literal contents, and preprocessor
// directives with spaces so the tokenizer only ever sees code. Newlines are
// kept, so token line numbers match the original file. String literal texts
// are preserved out-of-band for the rules that need them (raw-env).
struct StripResult {
  std::string code;
  std::vector<Comment> comments;
  std::vector<Literal> literals;
};

StripResult strip(const std::string& src) {
  StripResult out;
  out.code.assign(src.size(), ' ');
  for (std::size_t i = 0; i < src.size(); ++i)
    if (src[i] == '\n') out.code[i] = '\n';

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString, kPreproc };
  State state = State::kCode;
  int line = 1;
  bool line_has_code = false;  // a non-whitespace code char seen on this line
  std::string raw_delim;       // raw string closing delimiter: )delim"
  Comment current;
  Literal literal;

  std::size_t i = 0;
  while (i < src.size()) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          current = Comment{line, !line_has_code, ""};
          i += 2;
          continue;
        }
        if (c == '/' && next == '*') {
          state = State::kBlockComment;
          current = Comment{line, !line_has_code, ""};
          i += 2;
          continue;
        }
        if (c == '#' && !line_has_code) {
          state = State::kPreproc;
          ++i;
          continue;
        }
        if (c == 'R' && next == '"' &&
            (i == 0 || (!std::isalnum(static_cast<unsigned char>(src[i - 1])) && src[i - 1] != '_'))) {
          std::size_t j = i + 2;
          std::string delim;
          while (j < src.size() && src[j] != '(') delim += src[j++];
          raw_delim = ")" + delim + "\"";
          out.code[i] = '"';  // keep a placeholder so the literal stays one token
          literal = Literal{line, ""};
          state = State::kRawString;
          i = j + 1;
          continue;
        }
        if (c == '"') {
          out.code[i] = '"';
          literal = Literal{line, ""};
          state = State::kString;
          line_has_code = true;
          ++i;
          continue;
        }
        if (c == '\'') {
          out.code[i] = '\'';
          state = State::kChar;
          line_has_code = true;
          ++i;
          continue;
        }
        if (c == '\n') {
          ++line;
          line_has_code = false;
        } else {
          out.code[i] = c;
          if (!std::isspace(static_cast<unsigned char>(c))) line_has_code = true;
        }
        ++i;
        continue;
      case State::kLineComment:
        if (c == '\n') {
          out.comments.push_back(current);
          state = State::kCode;
          ++line;
          line_has_code = false;
        } else {
          current.text += c;
        }
        ++i;
        continue;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out.comments.push_back(current);
          state = State::kCode;
          i += 2;
          continue;
        }
        if (c == '\n') {
          ++line;
          current.text += ' ';
        } else {
          current.text += c;
        }
        ++i;
        continue;
      case State::kString:
        if (c == '\\' && next != '\0') {
          literal.text += c;
          literal.text += next;
          i += 2;
          continue;
        }
        if (c == '"') {
          out.code[i] = '"';
          out.literals.push_back(literal);
          state = State::kCode;
        } else if (c == '\n') {
          ++line;  // unterminated; keep line counts honest
          out.literals.push_back(literal);
          state = State::kCode;
        } else {
          literal.text += c;
        }
        ++i;
        continue;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          i += 2;
          continue;
        }
        if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        } else if (c == '\n') {
          ++line;
          state = State::kCode;
        }
        ++i;
        continue;
      case State::kRawString:
        if (c == '\n') ++line;
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          out.code[i + raw_delim.size() - 1] = '"';
          out.literals.push_back(literal);
          i += raw_delim.size();
          state = State::kCode;
          continue;
        }
        literal.text += c;
        ++i;
        continue;
      case State::kPreproc:
        // Directives (incl. #include <...> whose angle payload would
        // otherwise leak tokens) are invisible to the rules. Honour line
        // continuations.
        if (c == '\\' && next == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (c == '\n') {
          ++line;
          line_has_code = false;
          state = State::kCode;
        }
        ++i;
        continue;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment)
    out.comments.push_back(current);
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kLiteral };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<Token> tokenize(const std::string& code) {
  static const char* kTwoCharOps[] = {"::", "->", "+=", "-=", "*=", "/=", "==", "!=",
                                      "<=", ">=", "&&", "||", "++", "--", "<<", ">>"};
  std::vector<Token> tokens;
  int line = 1;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      tokens.push_back({Token::Kind::kLiteral, std::string(1, c), line});
      // literal contents were blanked; skip to the closing quote if adjacent
      ++i;
      while (i < code.size() && (code[i] == ' ')) ++i;
      if (i < code.size() && code[i] == c) ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < code.size() && ident_char(code[j])) ++j;
      tokens.push_back({Token::Kind::kIdent, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < code.size() && (ident_char(code[j]) || code[j] == '.')) ++j;
      tokens.push_back({Token::Kind::kNumber, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    bool matched = false;
    for (const char* op : kTwoCharOps) {
      if (code.compare(i, 2, op) == 0) {
        tokens.push_back({Token::Kind::kPunct, op, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return tokens;
}

// Index of the token matching the opener at `open` ('(' -> ')', '{' -> '}',
// '[' -> ']'); tokens.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open,
                          const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].text == open_text) ++depth;
    else if (tokens[i].text == close_text && --depth == 0) return i;
  }
  return tokens.size();
}

// Skip a template argument list starting at tokens[i] == "<"; returns the
// index one past the matching ">". ">>" closes two levels.
std::size_t skip_template_args(const std::vector<Token>& tokens, std::size_t i) {
  int depth = 0;
  for (; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (t == "<") ++depth;
    else if (t == ">") {
      if (--depth == 0) return i + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t == ";") {
      return i;  // malformed / not actually a template — bail out
    }
  }
  return i;
}

bool is_ident(const std::vector<Token>& tokens, std::size_t i, const char* text) {
  return i < tokens.size() && tokens[i].kind == Token::Kind::kIdent && tokens[i].text == text;
}

bool any_of_idents(const Token& token, std::initializer_list<const char*> names) {
  if (token.kind != Token::Kind::kIdent) return false;
  for (const char* name : names)
    if (token.text == name) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void add(std::vector<Finding>& out, const std::string& file, int line, Rule rule,
         std::string message) {
  out.push_back(Finding{file, line, rule, std::move(message)});
}

// Rule raw-rng: randomness outside util::Rng. rand()-family and
// std::random_device are banned on sight; a standard engine constructed
// without a seed is banned (a seeded one outside rng.* is still suspect, but
// the contract as stated bans only unseeded construction — util::Rng::fork
// is the sanctioned way to derive streams).
void rule_raw_rng(const std::vector<Token>& tokens, const std::string& file,
                  std::vector<Finding>& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (any_of_idents(t, {"random_device"})) {
      add(out, file, t.line, Rule::kRawRng,
          "std::random_device is nondeterministic; all randomness must flow through "
          "util::Rng (seeded, forkable) so one seed reproduces every experiment");
      continue;
    }
    if (any_of_idents(t, {"rand", "srand", "rand_r", "drand48", "lrand48", "mrand48"}) &&
        i + 1 < tokens.size() && tokens[i + 1].text == "(") {
      add(out, file, t.line, Rule::kRawRng,
          "C rand()-family uses hidden global state; use util::Rng so streams are "
          "seeded, forkable, and thread-independent");
      continue;
    }
    if (any_of_idents(t, {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
                          "default_random_engine", "ranlux24", "ranlux48", "knuth_b"})) {
      // type [ident] ; | , | ) | ()| {}  -> default-constructed = unseeded
      std::size_t j = i + 1;
      bool unseeded = false;
      if (j < tokens.size() && tokens[j].kind == Token::Kind::kIdent) {
        const std::size_t k = j + 1;
        if (k < tokens.size()) {
          const std::string& after = tokens[k].text;
          if (after == ";")
            unseeded = true;
          else if ((after == "(" || after == "{") && k + 1 < tokens.size() &&
                   (tokens[k + 1].text == ")" || tokens[k + 1].text == "}"))
            unseeded = true;
        }
      } else if (j + 1 < tokens.size() && tokens[j].text == "(" && tokens[j + 1].text == ")") {
        unseeded = true;  // temporary: std::mt19937()
      }
      if (unseeded)
        add(out, file, t.line, Rule::kRawRng,
            "unseeded standard RNG engine (" + t.text +
                ") — construct util::Rng from an explicit seed instead, so runs are "
                "reproducible bit-for-bit");
    }
  }
}

// Rule wall-clock: simulation time is the only time. Any wall/monotonic clock
// read outside the sanctioned deadline plumbing makes results depend on when
// (or how fast) the host ran the experiment.
void rule_wall_clock(const std::vector<Token>& tokens, const std::string& file,
                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (any_of_idents(t, {"system_clock", "steady_clock", "high_resolution_clock",
                          "gettimeofday", "clock_gettime", "timespec_get", "localtime",
                          "localtime_r", "gmtime", "gmtime_r", "mktime", "strftime"})) {
      add(out, file, t.line, Rule::kWallClock,
          t.text +
              " reads host time; simulation time (engine now()) is the only time — "
              "results must not depend on when or how fast the host ran");
      continue;
    }
    if (any_of_idents(t, {"time", "clock"}) && i + 1 < tokens.size() && tokens[i + 1].text == "(" &&
        i > 0) {
      // Only a call in expression context is the C library function; `long
      // time() const` declarations and `obj.time()` member calls are not.
      static const char* kExprContext[] = {"(",  ",",  "=",  ";",  "{",  "}", "return", "<",
                                           ">",  "+",  "-",  "*",  "/",  "?", ":",      "::",
                                           "&&", "||", "==", "!=", "<=", ">=", "!"};
      bool expr = false;
      for (const char* prev : kExprContext)
        if (tokens[i - 1].text == prev) expr = true;
      if (expr)
        add(out, file, t.line, Rule::kWallClock,
            "C " + t.text + "() reads host time; simulation time is the only time");
    }
  }
}

// Rule parallel-fp-accum: the serial-reduction contract from PRs 2/4. Byte-
// identical sweeps at any --jobs level hold because parallel lambdas only
// ever write per-index slots; any compound accumulation in one is either a
// data race or a nondeterministic floating-point reduction order.
struct LambdaBody {
  std::string name;  ///< empty for unnamed
  std::size_t begin = 0, end = 0;  ///< token indices of { ... } body (exclusive of braces)
};

std::vector<LambdaBody> collect_named_lambdas(const std::vector<Token>& tokens) {
  std::vector<LambdaBody> lambdas;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    if (tokens[i + 1].text != "=" || tokens[i + 2].text != "[") continue;
    std::size_t j = match_forward(tokens, i + 2, "[", "]");
    if (j >= tokens.size()) continue;
    ++j;
    if (j < tokens.size() && tokens[j].text == "(") {
      j = match_forward(tokens, j, "(", ")");
      if (j >= tokens.size()) continue;
      ++j;
    }
    // skip specifiers (mutable, noexcept, -> ret) up to the body brace
    std::size_t guard = 0;
    while (j < tokens.size() && tokens[j].text != "{" && tokens[j].text != ";" && guard++ < 16)
      ++j;
    if (j >= tokens.size() || tokens[j].text != "{") continue;
    const std::size_t close = match_forward(tokens, j, "{", "}");
    if (close >= tokens.size()) continue;
    lambdas.push_back(LambdaBody{tokens[i].text, j + 1, close});
  }
  return lambdas;
}

void flag_compound_assign(const std::vector<Token>& tokens, std::size_t begin, std::size_t end,
                          const std::string& file, std::vector<Finding>& out) {
  for (std::size_t i = begin; i < end && i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (t == "+=" || t == "-=" || t == "*=" || t == "/=")
      add(out, file, tokens[i].line, Rule::kParallelFpAccum,
          "compound assignment ('" + t +
              "') inside a parallel_for/submit lambda — parallel tasks may only write "
              "per-index slots; run reductions serially so results are byte-identical "
              "at every --jobs level");
  }
}

void rule_parallel_fp_accum(const std::vector<Token>& tokens, const std::string& file,
                            std::vector<Finding>& out) {
  const std::vector<LambdaBody> lambdas = collect_named_lambdas(tokens);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_ident(tokens, i, "parallel_for") && !is_ident(tokens, i, "submit")) continue;
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
    const std::size_t close = match_forward(tokens, i + 1, "(", ")");
    if (close >= tokens.size()) continue;
    // Inline lambdas (and any other accumulating expression) in the call.
    flag_compound_assign(tokens, i + 2, close, file, out);
    // Named lambdas passed as arguments: lint their bodies, wherever defined.
    for (std::size_t a = i + 2; a < close; ++a) {
      if (tokens[a].kind != Token::Kind::kIdent) continue;
      for (const LambdaBody& lambda : lambdas)
        if (lambda.name == tokens[a].text)
          flag_compound_assign(tokens, lambda.begin, lambda.end, file, out);
    }
  }
}

// Rule scheduler-clone: the fork contract from PR 4. fork_for_arrival deep-
// copies the policy via Scheduler::clone(); a subclass without an override
// inherits the nullptr default and silently loses fork support (the
// policy-knowledge FST then throws at runtime instead of being caught here).
void rule_scheduler_clone(const std::vector<Token>& tokens, const std::string& file,
                          std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!is_ident(tokens, i, "class") && !is_ident(tokens, i, "struct")) continue;
    if (tokens[i + 1].kind != Token::Kind::kIdent) continue;
    const std::string& class_name = tokens[i + 1].text;
    // Find the introducer: ';' = forward declaration, '{' = body. The base
    // clause lives between ':' and '{'.
    std::size_t colon = 0, open = 0;
    for (std::size_t j = i + 2; j < tokens.size(); ++j) {
      const std::string& t = tokens[j].text;
      if (t == ";") break;
      if (t == ":" && colon == 0) colon = j;
      if (t == "{") {
        open = j;
        break;
      }
    }
    if (open == 0 || colon == 0) continue;
    bool derives_scheduler = false;
    for (std::size_t j = colon + 1; j < open; ++j)
      if (is_ident(tokens, j, "Scheduler")) derives_scheduler = true;
    if (!derives_scheduler) continue;
    const std::size_t close = match_forward(tokens, open, "{", "}");
    bool has_clone = false;
    for (std::size_t j = open + 1; j < close && j + 1 < tokens.size(); ++j)
      if (is_ident(tokens, j, "clone") && tokens[j + 1].text == "(") has_clone = true;
    if (!has_clone)
      add(out, file, tokens[i].line, Rule::kSchedulerClone,
          "class " + class_name +
              " derives from Scheduler but does not override clone() — every policy "
              "must be deep-copyable or the forkable engine (policy-knowledge FST, "
              "what-if forks) silently loses support for it");
  }
}

// Rule raw-file-write: the PR 6 durability contract. A results store written
// through a plain ofstream/fopen can be torn by a crash; util::atomic_write_file
// (tmp + fsync + rename) and the journal's fsynced O_APPEND fd are the only
// sanctioned write paths.
void rule_raw_file_write(const std::vector<Token>& tokens, const std::string& file,
                         std::vector<Finding>& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (any_of_idents(t, {"ofstream"})) {
      add(out, file, t.line, Rule::kRawFileWrite,
          "direct std::ofstream write — durable outputs must go through "
          "util::atomic_write_file so a crash can never leave a torn file");
      continue;
    }
    if (any_of_idents(t, {"fopen", "freopen", "creat"}) && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      add(out, file, t.line, Rule::kRawFileWrite,
          t.text + "() opens a raw write path — use util::atomic_write_file");
      continue;
    }
    // `::open(` in the global namespace; `Foo::open` qualified names are not
    // it (but `return ::open(...)` is — `return` is a keyword, not a scope).
    if (t.text == "open" && i > 0 && tokens[i - 1].text == "::" &&
        (i < 2 || tokens[i - 2].kind != Token::Kind::kIdent ||
         tokens[i - 2].text == "return")) {
      add(out, file, t.line, Rule::kRawFileWrite,
          "raw ::open() — file descriptors that write results must come from the "
          "durability layer (util::atomic_write_file / the campaign journal)");
    }
  }
}

// Rule unordered-iter: iteration order of unordered containers varies across
// libstdc++ versions, hashes, and insertion histories. Anything that feeds
// output, result ordering, or a floating-point reduction must iterate in a
// sorted/stable order, or carry an explicit justification.
std::vector<std::string> collect_unordered_names(const std::vector<Token>& tokens) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!any_of_idents(tokens[i],
                       {"unordered_map", "unordered_set", "unordered_multimap",
                        "unordered_multiset"}))
      continue;
    std::size_t j = i + 1;
    if (j < tokens.size() && tokens[j].text == "<") j = skip_template_args(tokens, j);
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" || is_ident(tokens, j, "const")))
      ++j;
    if (j < tokens.size() && tokens[j].kind == Token::Kind::kIdent) names.push_back(tokens[j].text);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void rule_unordered_iter(const std::vector<Token>& tokens, const std::vector<Token>& header_tokens,
                         const std::string& file, std::vector<Finding>& out) {
  std::vector<std::string> names = collect_unordered_names(tokens);
  const std::vector<std::string> header_names = collect_unordered_names(header_tokens);
  names.insert(names.end(), header_names.begin(), header_names.end());
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  if (names.empty()) return;
  const auto is_unordered = [&](const Token& t) {
    return t.kind == Token::Kind::kIdent &&
           std::binary_search(names.begin(), names.end(), t.text);
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // range-for whose range expression mentions an unordered container
    if (is_ident(tokens, i, "for") && i + 1 < tokens.size() && tokens[i + 1].text == "(") {
      const std::size_t close = match_forward(tokens, i + 1, "(", ")");
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (tokens[j].text == "(") ++depth;
        else if (tokens[j].text == ")") --depth;
        else if (tokens[j].text == ":" && depth == 1 && colon == 0) colon = j;
        else if (tokens[j].text == ";") { colon = 0; break; }  // classic for
      }
      if (colon != 0)
        for (std::size_t j = colon + 1; j < close; ++j)
          if (is_unordered(tokens[j])) {
            add(out, file, tokens[i].line, Rule::kUnorderedIter,
                "iterating '" + tokens[j].text +
                    "' (unordered container): iteration order is nondeterministic — "
                    "sort keys first, or justify with psched-lint: allow(unordered-iter)");
            break;
          }
    }
    // iterator-based: name.begin() / name.cbegin()
    if (is_unordered(tokens[i]) && i + 2 < tokens.size() && tokens[i + 1].text == "." &&
        (is_ident(tokens, i + 2, "begin") || is_ident(tokens, i + 2, "cbegin")))
      add(out, file, tokens[i].line, Rule::kUnorderedIter,
          "iterating '" + tokens[i].text +
              "' (unordered container): iteration order is nondeterministic — sort "
              "keys first, or justify with psched-lint: allow(unordered-iter)");
  }
}

// Rule raw-env: each registry (the fault registry, the obs layer) parses its
// arming variables exactly once at static init, so every fault point and
// instrumentation site shares one consistent view for the whole process.
// Chaos runs are reproducible, and traced vs untraced stores are comparable,
// only because arming cannot change mid-run. A getenv of an owned variable
// anywhere else re-reads the environment at some later, racy point and
// silently diverges from its registry. The sanction is per variable: the
// fault registry reading PSCHED_TRACE still fires. Setting the variables
// (setenv in a test or harness) is fine; only reads are owned.
void rule_raw_env(const std::vector<Token>& tokens, const std::vector<Literal>& literals,
                  const std::string& file, std::vector<Finding>& out) {
  for (const Literal& literal : literals)
    for (const OwnedEnv& env : kOwnedEnv) {
      if (literal.text.rfind(env.prefix, 0) != 0 || ends_with(file, env.owner)) continue;
      bool env_read = false;
      for (const Token& t : tokens)
        if ((t.line == literal.line || t.line + 1 == literal.line) &&
            any_of_idents(t, {"getenv", "secure_getenv"}))
          env_read = true;
      if (env_read)
        add(out, file, literal.line, Rule::kRawEnv,
            "getenv(\"" + literal.text + "\") outside its registry — " + env.prefix +
                "* is read once at startup by " + env.owner + "; " + env.advice +
                " instead of re-reading the environment");
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppression {
  Rule rule = Rule::kRawRng;
  int line = 0;
  bool own_line = false;
};

void parse_suppressions(const std::vector<Comment>& comments, const std::string& file,
                        std::vector<Suppression>& suppressions, std::vector<Finding>& out) {
  for (const Comment& comment : comments) {
    const std::size_t tag = comment.text.find("psched-lint:");
    if (tag == std::string::npos) continue;
    std::size_t p = tag + std::string("psched-lint:").size();
    while (p < comment.text.size() && std::isspace(static_cast<unsigned char>(comment.text[p])))
      ++p;
    // Only engage when the next word is `allow` — prose that merely mentions
    // the tool ("psched-lint: the contract checker") is not a directive. A
    // near-miss like `allow raw-rng` IS treated as one, so typos fail loudly.
    if (comment.text.compare(p, 5, "allow") != 0) continue;
    if (comment.text.compare(p, 6, "allow(") != 0) {
      add(out, file, comment.line, Rule::kBadSuppression,
          "malformed psched-lint comment: expected 'psched-lint: allow(<rule>): <reason>'");
      continue;
    }
    p += 6;
    const std::size_t close = comment.text.find(')', p);
    if (close == std::string::npos) {
      add(out, file, comment.line, Rule::kBadSuppression,
          "malformed psched-lint comment: unterminated allow(");
      continue;
    }
    const std::string name = comment.text.substr(p, close - p);
    Rule rule;
    if (!rule_from_name(name, rule)) {
      add(out, file, comment.line, Rule::kBadSuppression,
          "unknown rule '" + name + "' in psched-lint: allow(...)");
      continue;
    }
    // The reason is mandatory: a suppression that doesn't say *why* is a
    // contract violation with extra steps.
    std::size_t r = close + 1;
    while (r < comment.text.size() &&
           (std::isspace(static_cast<unsigned char>(comment.text[r])) ||
            comment.text[r] == ':' || comment.text[r] == '-'))
      ++r;
    if (r >= comment.text.size()) {
      add(out, file, comment.line, Rule::kBadSuppression,
          "psched-lint: allow(" + name +
              ") needs a reason: 'psched-lint: allow(" + name + "): <why this is safe>'");
      continue;
    }
    suppressions.push_back(Suppression{rule, comment.line, comment.own_line});
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("psched-lint: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool lintable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" || ext == ".hh" ||
         ext == ".h" || ext == ".hxx";
}

}  // namespace

const char* rule_name(Rule rule) {
  for (const RuleInfo& info : kRules)
    if (info.rule == rule) return info.name;
  return "unknown";
}

const char* rule_summary(Rule rule) {
  for (const RuleInfo& info : kRules)
    if (info.rule == rule) return info.summary;
  return "";
}

bool rule_from_name(const std::string& name, Rule& out) {
  for (const RuleInfo& info : kRules) {
    if (info.rule == Rule::kBadSuppression) continue;
    if (name == info.name) {
      out = info.rule;
      return true;
    }
  }
  return false;
}

std::vector<Finding> lint_file(const FileInput& input) {
  const StripResult stripped = strip(input.content);
  const std::vector<Token> tokens = tokenize(stripped.code);
  std::vector<Token> header_tokens;
  if (!input.sibling_header.empty())
    header_tokens = tokenize(strip(input.sibling_header).code);

  std::vector<Finding> findings;
  if (!is_sanctioned(Rule::kRawRng, input.path)) rule_raw_rng(tokens, input.path, findings);
  if (!is_sanctioned(Rule::kWallClock, input.path)) rule_wall_clock(tokens, input.path, findings);
  rule_parallel_fp_accum(tokens, input.path, findings);
  rule_scheduler_clone(tokens, input.path, findings);
  if (!is_sanctioned(Rule::kRawFileWrite, input.path))
    rule_raw_file_write(tokens, input.path, findings);
  rule_unordered_iter(tokens, header_tokens, input.path, findings);
  rule_raw_env(tokens, stripped.literals, input.path, findings);

  std::vector<Suppression> suppressions;
  parse_suppressions(stripped.comments, input.path, suppressions, findings);

  // A standalone suppression covers the next line that has any code on it.
  const auto next_code_line = [&](int line) {
    int best = 0;
    for (const Token& t : tokens)
      if (t.line > line && (best == 0 || t.line < best)) best = t.line;
    return best;
  };
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool suppressed = false;
    if (f.rule != Rule::kBadSuppression)
      for (const Suppression& s : suppressions)
        if (s.rule == f.rule &&
            (s.line == f.line || (s.own_line && next_code_line(s.line) == f.line)))
          suppressed = true;
    if (!suppressed) kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return rule_name(a.rule) < std::string(rule_name(b.rule));
  });
  return kept;
}

std::vector<Finding> lint_paths(const std::vector<fs::path>& paths) {
  std::vector<Finding> findings;
  for (const fs::path& path : paths) {
    FileInput input;
    input.path = path.generic_string();
    input.content = read_file(path);
    const std::string ext = path.extension().string();
    if (ext == ".cpp" || ext == ".cc" || ext == ".cxx") {
      for (const char* header_ext : {".hpp", ".hh", ".h"}) {
        fs::path header = path;
        header.replace_extension(header_ext);
        if (fs::exists(header)) {
          input.sibling_header = read_file(header);
          break;
        }
      }
    }
    std::vector<Finding> file_findings = lint_file(input);
    findings.insert(findings.end(), std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::vector<Finding> lint_tree(const fs::path& root) {
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "oracles", "tools", "bench"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base))
      if (entry.is_regular_file() && lintable_extension(entry.path()))
        paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return lint_paths(paths);
}

std::string format_finding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << rule_name(finding.rule) << "] "
      << finding.message;
  return out.str();
}

}  // namespace psched::lint
