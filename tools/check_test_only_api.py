#!/usr/bin/env python3
"""Fail on public library names that only tests reach.

A name declared in a `src/**/*.hpp` is *test-only* when it appears in
`tests/` or `oracles/`, but every occurrence of it in the program trees
(`src/`, `tools/`, `bench/`, `examples/`, `campaignbench/src/`) is its own
declaration or definition: nothing but the tests calls it, so it is library
surface kept alive by its own unit tests.

The scan is token-level, with comments and string literals stripped:

  * Declarations are taken from headers: an identifier outside every
    function body, parenthesis and template argument list, followed by one
    of `( ; = { [ , } :`. Its key is the name qualified by its enclosing
    namespaces and classes, minus the top-level `psched` (`Profile::free_at`,
    `util::fault::disarm_all`).
  * Declaration and definition sites under `src/` do not count as uses:
    such a declarator in a header or `.cpp`, and in a `.cpp` a `Class::`
    qualifier at namespace scope (`double Class::name(...) {`).
  * Every other occurrence in the program trees is a use, including the
    bodies of `#define`s. Uses are matched by bare identifier, so two
    declarations that share a name share their uses. A function only counts
    as used where the name is called or passed as a value (`name(`,
    `f(a, name)`, `&name`), so a variable or field of the same name does not
    hide it. A member function counts only where it is called or its address
    is taken (`name(`, `&Class::name`): a local of the same name passed as a
    value (`std::move(name)`, `getline(in, name)`) does not keep it alive. A
    constructor is covered by its class, and the names in its member
    initializer list (`) : a(x), b(y)`) are uses, not declarations.

Test-support names that stay on purpose are listed in the allowlist, one
`key  reason` per line (`#` starts a comment); the reason is mandatory. An
entry whose name is no longer declared, or is no longer test-only, is stale
and fails too, so the list cannot outlive what it excuses.

Usage:
  tools/check_test_only_api.py [--root DIR] [--allow FILE] [--list]

--list prints every test-only key with its state (allowed / NEW) and exits 0.
"""

import argparse
import os
import re
import sys

PROGRAM_DIRS = ("src", "tools", "bench", "examples", "campaignbench/src")
TEST_DIRS = ("tests", "oracles")
SOURCE_SUFFIXES = (".hpp", ".cpp")

KEYWORDS = frozenset("""
    alignas alignof and asm auto bool break case catch char char8_t char16_t
    char32_t class const consteval constexpr constinit const_cast continue
    co_await co_return co_yield decltype default delete do double dynamic_cast
    else enum explicit export extern false final float for friend goto if
    inline int long mutable namespace new noexcept not nullptr operator or
    override private protected public register reinterpret_cast requires
    return short signed sizeof static static_assert static_cast struct switch
    template this thread_local throw true try typedef typeid typename union
    unsigned using virtual void volatile wchar_t while std
""".split())

DECLARATOR_FOLLOWERS = frozenset(["(", ";", "=", "{", "[", ",", "}", ":"])
# A function name passed as a value (a callback, a comparator): `f(x, name)`,
# `= &name;`, `return name;`.
VALUE_BEFORE = frozenset(["&", ",", "(", "=", "return", "{"])
VALUE_AFTER = frozenset([",", ")", ";", "}"])
SCOPE_KEYWORDS = frozenset(["namespace", "class", "struct", "union", "enum"])

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|->|>>|\d[\w.']*|\S")


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, keeping newlines."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == 'R' and text.startswith('R"', i) and not (i and (text[i - 1].isalnum() or
                                                                  text[i - 1] == "_")):
            k = text.find("(", i + 2)
            delim = ")" + text[i + 2:k] + '"'
            j = text.find(delim, k)
            j = n if j < 0 else j + len(delim)
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            if c == "'" and i and text[i - 1].isalnum():  # digit separator: 1'000
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def logical_lines(text):
    """Join backslash-continued lines; yields (is_directive, define_body, line)."""
    pending = ""
    for line in text.split("\n"):
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line, pending = pending + line, ""
        stripped = line.lstrip()
        if stripped.startswith("#"):
            body = re.sub(r"^#\s*define\s+\w+(\([^)]*\))?", "", stripped)
            yield True, body if body != stripped else "", line
        else:
            yield False, "", line


class Scan:
    """Declarations, declaration sites and uses in one source file."""

    def __init__(self, path, is_header):
        self.declared = []  # (qualified key, is a function, is a member function)
        self.decl_sites = {}  # bare name -> count
        self.uses = {}  # bare name -> count
        self.calls = {}  # bare name -> uses that can name a function
        self.member_refs = {}  # bare name -> calls and `&Class::name` uses
        with open(path, encoding="utf-8", errors="replace") as handle:
            text = strip_comments_and_strings(handle.read())
        code = []
        for directive, define_body, line in logical_lines(text):
            if directive:
                for tok in TOKEN_RE.findall(define_body):
                    if re.match(r"[A-Za-z_]", tok) and tok not in KEYWORDS:
                        self._use(tok, call=True, member_ref=True)
            else:
                code.append(line)
        self._walk(TOKEN_RE.findall("\n".join(code)), is_header)

    def _use(self, name, call, member_ref):
        self.uses[name] = self.uses.get(name, 0) + 1
        if call:
            self.calls[name] = self.calls.get(name, 0) + 1
        if member_ref:
            self.member_refs[name] = self.member_refs.get(name, 0) + 1

    @staticmethod
    def _address_of_member(toks, i):
        """True when toks[i] ends a qualified name whose address is taken: `&A::B::name`."""
        j = i
        while j >= 2 and toks[j - 1] == "::" and re.match(r"[A-Za-z_]", toks[j - 2]):
            j -= 2
        return j < i and j >= 1 and toks[j - 1] == "&"

    def _walk(self, toks, is_header):
        # Each open brace is a scope (namespace/class/enum, name or None,
        # whether it is a class) or a body (function body, initializer,
        # lambda): ("body", None, False).
        braces = []
        statement = []  # tokens since the last ; { } at this level
        parens = angles = 0
        init_list = False  # inside a constructor's `) : a(x), b(y)`
        in_body = 0
        n = len(toks)
        for i, tok in enumerate(toks):
            if tok == "{":
                kind = self._scope_of(statement) if not in_body else None
                braces.append(kind or ("body", None, False))
                if not kind:
                    in_body += 1
                statement, parens, angles, init_list = [], 0, 0, False
                continue
            if tok == "}":
                if braces and braces.pop()[0] == "body":
                    in_body -= 1
                statement, parens, angles, init_list = [], 0, 0, False
                continue
            if tok == ";":
                statement, parens, angles, init_list = [], 0, 0, False
                continue
            statement.append(tok)
            prev = toks[i - 1] if i else ""
            nxt = toks[i + 1] if i + 1 < n else ""
            call = nxt == "(" or (prev in VALUE_BEFORE and nxt in VALUE_AFTER)
            address_of_member = self._address_of_member(toks, i)
            member_ref = nxt == "(" or address_of_member
            if in_body:
                if re.match(r"[A-Za-z_]", tok) and tok not in KEYWORDS:
                    self._use(tok, call, member_ref)
                continue
            if tok == ":" and parens == 0 and prev in (")", "noexcept"):
                init_list = True
            if tok == "(":
                parens += 1
            elif tok == ")":
                parens = max(0, parens - 1)
            elif tok == "<" and parens == 0 and i and toks[i - 1] != "operator":
                angles += 1
            elif tok == ">" and parens == 0 and angles:
                angles -= 1
            elif tok == ">>" and parens == 0 and angles:
                angles = max(0, angles - 2)
            if not re.match(r"[A-Za-z_]", tok) or tok in KEYWORDS:
                continue
            if prev in ("operator", "~", ".", "->"):
                self._use(tok, call, member_ref)
                continue
            declarator = (not init_list and not address_of_member and parens == 0
                          and angles == 0 and nxt in DECLARATOR_FOLLOWERS)
            qualified_def = (not is_header and parens == 0 and angles == 0 and nxt == "::"
                             and self._at_namespace_scope(braces))
            if declarator and (prev != "::" or not is_header):
                self.decl_sites[tok] = self.decl_sites.get(tok, 0) + 1
                constructor = bool(braces) and braces[-1][1] == tok
                if is_header and prev != "::" and not constructor:
                    member = nxt == "(" and bool(braces) and braces[-1][2]
                    self.declared.append((self._key(braces, tok), nxt == "(", member))
            elif qualified_def:
                self.decl_sites[tok] = self.decl_sites.get(tok, 0) + 1
            else:
                self._use(tok, call, member_ref)

    @staticmethod
    def _scope_of(statement):
        words = [t for t in statement if t not in ("public", "private", "protected", ":")]
        if words[:1] == ["template"]:
            depth, j = 0, 1
            for j in range(1, len(words)):
                depth += words[j] == "<"
                depth -= words[j] == ">"
                if depth == 0:
                    break
            words = words[j + 1:]
        if words[:1] == ["extern"]:
            return ("namespace", None, False)
        if not words or words[0] not in SCOPE_KEYWORDS:
            return None
        if "=" in words or "(" in words:
            return None  # struct X x = {...}; struct X f() {...}
        names = [t for t in words[1:] if re.match(r"[A-Za-z_]", t)
                 and t not in KEYWORDS]
        if words[0] == "enum":
            return ("enum", names[0] if names else None, False)
        if words[0] == "namespace":  # namespace a::b {
            return ("scope", "::".join(names) or None, False)
        return ("scope", names[0] if names else None, True)

    @staticmethod
    def _at_namespace_scope(braces):
        return all(kind == "scope" for kind, _, _ in braces)

    @staticmethod
    def _key(braces, name):
        key = "::".join([scope for _, scope, _ in braces if scope] + [name])
        return key[len("psched::"):] if key.startswith("psched::") else key


def source_files(root, dirs):
    for top in dirs:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_SUFFIXES):
                    yield os.path.join(dirpath, name)


def test_only_keys(root):
    """(declared keys, the test-only subset)."""
    declared = {}  # key -> (bare name, is a function, is a member function)
    decl_sites, uses, calls, member_refs, test_uses = {}, {}, {}, {}, {}

    def add(table, counts):
        for name, count in counts.items():
            table[name] = table.get(name, 0) + count

    for path in source_files(root, PROGRAM_DIRS):
        in_src = os.path.relpath(path, root).startswith("src" + os.sep)
        scan = Scan(path, is_header=path.endswith(".hpp"))
        if in_src:
            for key, function, member in scan.declared:
                declared[key] = (key.rsplit("::", 1)[-1], function, member)
            add(decl_sites, scan.decl_sites)
        else:  # outside src/ a declaration is a user of what it names
            add(uses, scan.decl_sites)
        add(uses, scan.uses)
        add(calls, scan.calls)
        add(member_refs, scan.member_refs)
    for path in source_files(root, TEST_DIRS):
        scan = Scan(path, is_header=False)
        add(test_uses, scan.uses)
        add(test_uses, scan.decl_sites)

    def used(name, function, member):
        # A function is used where it is called or passed, a member function
        # where it is called or its address is taken; a variable or field of
        # the same name elsewhere does not keep either alive.
        table = member_refs if member else calls if function else uses
        return table.get(name, 0) > 0

    return declared, {key for key, (name, function, member) in declared.items()
                      if test_uses.get(name) and not used(name, function, member)}


def read_allowlist(path):
    allowed, errors = {}, []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split(None, 1)
            if len(fields) < 2:
                errors.append("%s:%d: %r has no reason" % (path, number, fields[0]))
            elif fields[0] in allowed:
                errors.append("%s:%d: %r is listed twice" % (path, number, fields[0]))
            else:
                allowed[fields[0]] = number
    return allowed, errors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.join(os.path.dirname(__file__), ".."))
    parser.add_argument("--allow", help="allowlist (default tools/test_only_api.allow)")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv[1:])
    root = os.path.abspath(args.root)
    allow_path = args.allow or os.path.join(root, "tools", "test_only_api.allow")

    declared, test_only = test_only_keys(root)
    allowed, errors = read_allowlist(allow_path)
    if args.list:
        for key in sorted(test_only):
            print("%-8s %s" % ("allowed" if key in allowed else "NEW", key))
        return 0
    for key in sorted(test_only - set(allowed)):
        errors.append("test-only API: %s is declared in src/ but only tests/ or oracles/ use "
                      "it; delete it, or list it with a reason in %s"
                      % (key, os.path.relpath(allow_path, root)))
    for key, number in sorted(allowed.items()):
        if key not in declared:
            errors.append("%s:%d: stale entry %s: no longer declared in src/"
                          % (allow_path, number, key))
        elif key not in test_only:
            errors.append("%s:%d: stale entry %s: no longer test-only"
                          % (allow_path, number, key))
    for error in errors:
        print(error)
    if errors:
        return 1
    print("test-only API guard: %d declared names, %d allowlisted test-only"
          % (len(declared), len(allowed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
