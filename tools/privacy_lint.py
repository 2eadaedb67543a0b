#!/usr/bin/env python3
"""privacy_lint: static checks for the DP invariants the type system can't see.

The differential-privacy guarantees of this codebase rest on a handful of
source-level disciplines that neither the compiler nor the thread-safety
analysis can enforce. This lint encodes them as lightweight lexical checks
(comment/string-stripped regex + brace-depth scoping — no libclang
dependency) so CI fails when a refactor quietly violates one:

  noise-containment   Randomness (Rng, SampleLaplace, the Laplace/noisy-max
                      mechanisms) may only appear in the layers that are
                      ALLOWED to randomize: src/common (definitions),
                      src/dp, src/engine, src/core, src/baseline. The
                      serving, storage, sharding, and counting layers
                      (src/server, src/store, src/shard, src/data, src/fim)
                      are privacy-blind by design — a shard worker that
                      could draw noise could also double-draw it, and a
                      storage layer that touches an Rng could persist
                      something derived from unreleased randomness.

  lease-resolution    Every function that Acquire()s a BudgetLease must
                      visibly resolve it: Commit() it, move it
                      onward, or return it. A lease that is silently
                      dropped still fails closed (the destructor charges
                      the full reservation), but code that RELIES on that
                      is almost always a missing-commit bug — the query
                      pays worst case instead of actual spend.

  wire-after-noise    A function that draws noise must not also touch the
                      shard wire (shardwire::). Exact integer counts merge
                      across shards BEFORE any noise draw; a noised value
                      serialized back over the wire would let one query
                      consume two independent draws (breaking the ε
                      accounting) or leak a worker-local noised count.

  count-seam          Every exact count a mechanism reads goes through a
                      CountExecutor (src/core/count_exec.h). In src/, the
                      raw counters CountPairSupports(, CountBasisBins( and
                      the VerticalIndex bitmap bin counter
                      BitmapBasisBins( may be called only by the
                      executors — core/batch_exec.cc and src/shard/ —
                      besides their own declarations and definitions. A
                      direct call elsewhere is a second counting path
                      that the sharded, served, batched and subsampled
                      queries do not share.

  failpoint-manifest  Every fault-injection site name — static
                      failpoint::Hit("...") literals, the dynamic
                      <prefix>_{write,rename,append,sync} families minted
                      by store/io, and every site referenced by tests and
                      harnesses — must be listed in
                      tools/failpoint_sites.txt. An unregistered site is
                      invisible to the crash-recovery matrix; a stale
                      manifest entry means coverage silently evaporated.

  test-only-api       Every function or method declared in a src/ header
                      is named somewhere in src/, tools/, bench/,
                      examples/ or perfbench/ besides its own declaration
                      and definition (a call in its own .cc counts;
                      recursion and tests/ do not). A method is named
                      only by a call `name(` or a qualified `::name`, so
                      a field or variable that shares its name does not
                      count. Library code that only a test reaches is
                      deleted, or moved under tests/ when a test compares
                      against it.

False positives are suppressed in tools/privacy_lint_suppressions.txt,
one `rule path-substring` pair per line; a test-only-api entry names one
function (`Class::Method` or `Function`) instead of a path, and one that
names no test-only function is itself a finding. `--self-test` runs each
rule against a seeded violation and fails unless every rule fires.

Usage:
  tools/privacy_lint.py [--root .] [--self-test] [-v]
Exit status: 0 clean, 1 findings, 2 self-test failure.
"""

import argparse
import collections
import os
import re
import sys

NOISE_TOKENS = re.compile(
    r"\b(Rng|SampleLaplace|LaplaceInverseCdf|LaplaceMechanism|"
    r"LaplaceNoiseVariance|NoisyMax|LaplaceOrderStatistics)\b")
NOISE_ALLOWED_DIRS = (
    "src/common/", "src/dp/", "src/engine/", "src/core/", "src/baseline/")
PRIVACY_BLIND_DIRS = (
    "src/server/", "src/store/", "src/shard/", "src/data/", "src/fim/")

WIRE_TOKEN = re.compile(r"\bshardwire::")

RAW_COUNTERS = r"(CountPairSupports|CountBasisBins|BitmapBasisBins)"
RAW_COUNT_CALL = re.compile(rf"\b{RAW_COUNTERS}\s*\(")
COUNT_SEAM_ALLOWED = ("src/core/batch_exec.cc", "src/shard/")
# A declaration or definition: the name, maybe `Class::`-qualified,
# follows its return type (`std::vector<uint64_t>` or `Result<...>`),
# i.e. a `>` that does not end a `->` member access.
RAW_COUNT_DEFINITION = re.compile(
    rf"(?<!-)>\s*(?:\w+::)?{RAW_COUNTERS}\s*\($")

LEASE_BIND = re.compile(r"\bBudgetLease\s+(\w+)\s*[,;)]")
LEASE_RESOLVED = (
    "{name}.Commit(", "std::move({name})", "return {name};")

HIT_LITERAL = re.compile(r'failpoint::Hit\(\s*"([^"]+)"')
# Dynamic families: AtomicWriteFile(..., "prefix") mints prefix_write +
# prefix_rename; AppendFile::Open(..., "prefix") mints prefix_append +
# prefix_sync (store/io.h documents both).
ATOMIC_WRITE_PREFIX = re.compile(r'AtomicWriteFile\([^;]*?"(\w+)"\s*\)')
APPEND_OPEN_PREFIX = re.compile(r'AppendFile::Open\([^;]*?"(\w+)"\s*\)')
# Sites referenced by tests/harnesses: failpoint::Configure("spec") and
# PRIVBASIS_FAILPOINTS="spec" strings; a spec is comma-separated
# site=action[:arg][@skip] terms.
SPEC_STRING = re.compile(
    r'(?:Configure\(|PRIVBASIS_FAILPOINTS[^"]*)"((?:\w+=[\w:@]+,?)+)"')

# test-only-api: the trees whose mentions of a name count as use, and
# words that look like a declaration `name(` without declaring a function.
PRODUCT_DIRS = ("src", "tools", "bench", "examples", "perfbench")
NOT_A_FUNCTION = frozenset((
    "alignas", "alignof", "auto", "bool", "char", "decltype", "double",
    "explicit", "float", "for", "if", "int", "long", "noexcept", "operator",
    "requires", "return", "short", "signed", "sizeof", "static_assert",
    "switch", "template", "throw", "unsigned", "void", "while"))
TOKEN = re.compile(r"[A-Za-z_]\w*|[{};]")
CALL_NAME = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CALL_OR_QUALIFIED = re.compile(
    r"(?<=::)\s*([A-Za-z_]\w*)|\b([A-Za-z_]\w*)(?=\s*\()")
TYPE_BEFORE = re.compile(r"(?:[\w>*&]|::)\s*$")
# The text before a `{` that opens a namespace or a class body, whose
# members are declarations; any other brace opens statements or data.
NAMESPACE_HEAD = re.compile(r"\b(?:namespace\b[^;{}()]*|extern\s*)$")
CLASS_HEAD = re.compile(
    r"^\s*(?:(?:public|private|protected)\s*:\s*)*"
    r"(?:template\s*<.*>\s*)?(?:class|struct|union)\b(.*)$", re.DOTALL)
PREPROCESSOR = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.MULTILINE)

MANIFEST = "tools/failpoint_sites.txt"
SUPPRESSIONS = "tools/privacy_lint_suppressions.txt"

LINE_COMMENT = re.compile(r"//[^\n]*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')
CHAR_LIT = re.compile(r"'(?:[^'\\\n]|\\.)'")


def strip_code(text):
    """Blanks comments/strings/chars, preserving line structure."""
    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))
    text = BLOCK_COMMENT.sub(blank, text)
    text = LINE_COMMENT.sub(blank, text)
    text = STRING_LIT.sub(blank, text)
    return CHAR_LIT.sub(blank, text)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def enclosing_scope(code, pos):
    """(start, end) of the innermost top-level brace block containing pos.

    Tracks depth from the file start; a "function scope" for our purposes
    is the outermost depth-0 → depth-1 block (namespace braces in this
    tree wrap whole files, so scan inside the last depth-1 block when the
    file opens with a namespace — handled by treating `namespace ... {`
    blocks as transparent).
    """
    # Positions where non-namespace depth-0/1 blocks open.
    opens = []  # stack of (pos, transparent)
    best = (0, len(code))
    i = 0
    while i < len(code):
        ch = code[i]
        if ch == "{":
            head = code[max(0, i - 120):i]
            transparent = re.search(r"\bnamespace\b[^;{}]*$", head) is not None
            transparent = transparent or re.search(
                r"\bextern\s+\"C\"\s*$", head) is not None
            opens.append((i, transparent))
        elif ch == "}":
            if opens:
                start, transparent = opens.pop()
                if not transparent and start <= pos <= i:
                    # Innermost non-transparent block wins only if every
                    # enclosing block still on the stack is transparent —
                    # that makes it the function body, not an if-block.
                    if all(t for _, t in opens):
                        best = (start, i + 1)
        i += 1
    return best


class Finding:
    def __init__(self, rule, path, line, message, symbol=None):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.symbol = symbol  # test-only-api: the function it names

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def check_noise_containment(path, code, raw):
    del raw
    findings = []
    if not path.startswith(PRIVACY_BLIND_DIRS):
        return findings
    for match in NOISE_TOKENS.finditer(code):
        findings.append(Finding(
            "noise-containment", path, line_of(code, match.start()),
            f"randomness token `{match.group(1)}` in privacy-blind layer "
            f"(allowed only under {', '.join(NOISE_ALLOWED_DIRS)})"))
    return findings


def check_lease_resolution(path, code, raw):
    del raw
    findings = []
    if not path.startswith("src/"):
        return findings
    for match in LEASE_BIND.finditer(code):
        name = match.group(1)
        start, end = enclosing_scope(code, match.start())
        scope = code[match.start():end]
        resolved = any(
            pattern.format(name=name) in scope for pattern in LEASE_RESOLVED)
        # The lease's own implementation file defines Commit/move itself.
        if path.endswith("accountant.cc") or path.endswith("accountant.h"):
            continue
        if not resolved:
            findings.append(Finding(
                "lease-resolution", path, line_of(code, match.start()),
                f"BudgetLease `{name}` is neither committed nor moved on "
                "any path in this scope; the destructor will charge the "
                "FULL reservation — if that is intended, commit "
                "explicitly or suppress"))
    return findings


def check_wire_after_noise(path, code, raw):
    del raw
    findings = []
    if not path.startswith("src/"):
        return findings
    for match in NOISE_TOKENS.finditer(code):
        start, end = enclosing_scope(code, match.start())
        scope = code[start:end]
        wire = WIRE_TOKEN.search(scope)
        if wire:
            findings.append(Finding(
                "wire-after-noise", path, line_of(code, match.start()),
                f"`{match.group(1)}` and shardwire:: in one scope: noised "
                "values must never cross the shard wire (exact counts "
                "merge before any draw)"))
    return findings


def check_count_seam(path, code, raw):
    del raw
    findings = []
    if not path.startswith("src/") or path.startswith(COUNT_SEAM_ALLOWED):
        return findings
    for match in RAW_COUNT_CALL.finditer(code):
        head = code[max(0, match.start() - 200):match.end()]
        if RAW_COUNT_DEFINITION.search(head):
            continue  # the declaration or definition itself
        findings.append(Finding(
            "count-seam", path, line_of(code, match.start()),
            f"direct `{match.group(1)}` call: count through the query's "
            "CountExecutor (only core/batch_exec.cc and src/shard/ may "
            "scan)"))
    return findings


def collect_sites(root, rel_paths):
    """All failpoint site names the tree defines or references."""
    sites = {}  # name -> first "path:line"
    for path in rel_paths:
        raw = open(os.path.join(root, path), encoding="utf-8",
                   errors="replace").read()
        if path.endswith((".cc", ".h")):
            code = raw  # literals matter here; do not strip strings
            for match in HIT_LITERAL.finditer(code):
                sites.setdefault(match.group(1),
                                 f"{path}:{line_of(code, match.start())}")
            for match in ATOMIC_WRITE_PREFIX.finditer(code):
                for op in ("write", "rename"):
                    sites.setdefault(
                        f"{match.group(1)}_{op}",
                        f"{path}:{line_of(code, match.start())}")
            for match in APPEND_OPEN_PREFIX.finditer(code):
                for op in ("append", "sync"):
                    sites.setdefault(
                        f"{match.group(1)}_{op}",
                        f"{path}:{line_of(code, match.start())}")
        for match in SPEC_STRING.finditer(raw):
            for term in match.group(1).split(","):
                if "=" in term:
                    sites.setdefault(
                        term.split("=", 1)[0],
                        f"{path}:{line_of(raw, match.start())}")
    return sites


def check_failpoint_manifest(root, rel_paths):
    findings = []
    manifest_path = os.path.join(root, MANIFEST)
    if not os.path.exists(manifest_path):
        return [Finding("failpoint-manifest", MANIFEST, 1,
                        "manifest file missing")]
    manifest = set()
    with open(manifest_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                manifest.add(line)
    used = collect_sites(root, rel_paths)
    for name, where in sorted(used.items()):
        if name not in manifest:
            path, _, line = where.partition(":")
            findings.append(Finding(
                "failpoint-manifest", path, int(line or 1),
                f"failpoint site `{name}` is not registered in {MANIFEST}"))
    for name in sorted(manifest - set(used)):
        findings.append(Finding(
            "failpoint-manifest", MANIFEST, 1,
            f"manifest lists `{name}` but no code or test references it"))
    return findings


def scan_names(code):
    """Function declarations and name uses in one stripped source file.

    Returns (declarations, uses, calls). A declaration is `name(` at
    namespace or class scope after a type or `Class::`, outside
    parentheses and before any `=`: a function declared or defined
    there, as (name, qualified name, line). Every other mention of an
    identifier is a use, counted in the `uses` Counter, except a call
    inside the function's own body; `calls` counts the uses in call
    (`name(`) or qualified (`::name`) form. Macro bodies count as uses.
    """
    uses = collections.Counter()
    calls = collections.Counter()
    for directive in PREPROCESSOR.findall(code):
        uses.update(re.findall(r"[A-Za-z_]\w*", directive))
        calls.update(CALL_OR_QUALIFIED.findall(directive))
    code = PREPROCESSOR.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), code)
    declarations = []
    scopes = []  # (kind, owner): "ns"/None, "class"/class, "body"/function
    head_start = 0
    for match in TOKEN.finditer(code):
        token = match.group(0)
        if token in "{};":
            if token == "{":
                head = code[head_start:match.start()]
                class_head = CLASS_HEAD.match(head)
                if scopes and scopes[-1][0] == "body":
                    scopes.append(scopes[-1])
                elif NAMESPACE_HEAD.search(head):
                    scopes.append(("ns", None))
                elif class_head:
                    key = re.split(r"(?<!:):(?!:)", class_head.group(1))[0]
                    names = re.findall(r"\b(?!final\b)[A-Za-z_]\w*", key)
                    scopes.append(("class", names[-1] if names else None))
                else:
                    names = CALL_NAME.findall(head)
                    scopes.append(("body", names[0] if names else None))
            elif token == "}" and scopes:
                scopes.pop()
            head_start = match.end()
            continue
        kind, owner = scopes[-1] if scopes else ("ns", None)
        before = code[head_start:match.start()]
        called = (re.match(r"\s*\(", code[match.end():]) is not None or
                  re.search(r"::\s*$", before) is not None)
        if kind == "body":
            if token != owner:
                uses[token] += 1
                calls[token] += called
        elif (re.match(r"\s*\(", code[match.end():]) and
              TYPE_BEFORE.search(before) and "=" not in before and
              before.count("(") == before.count(")") and
              token not in NOT_A_FUNCTION and token != owner and
              not token.isupper() and not token.startswith("__") and
              not re.search(rf"\b{token}\s*::\s*$", before)):
            qualified = f"{owner}::{token}" if owner else token
            declarations.append((token, qualified,
                                 line_of(code, match.start())))
        else:
            uses[token] += 1
            calls[token] += called
    return declarations, uses, calls


def check_test_only_api(root):
    """Header functions that nothing outside tests/ names (test-only-api)."""
    uses = collections.Counter()
    calls = collections.Counter()
    header_declarations = []
    for sub in PRODUCT_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, sub)):
            for name in sorted(names):
                if not name.endswith((".cc", ".cpp", ".h")):
                    continue
                full = os.path.join(dirpath, name)
                path = os.path.relpath(full, root).replace(os.sep, "/")
                raw = open(full, encoding="utf-8", errors="replace").read()
                declarations, file_uses, file_calls = scan_names(
                    strip_code(raw))
                uses.update(file_uses)
                calls.update(file_calls)
                if path.startswith("src/") and path.endswith(".h"):
                    header_declarations.extend(
                        (path, decl) for decl in declarations)
    findings = []
    for path, (token, qualified, line) in header_declarations:
        # A method is used only where it is called or named `Class::m`:
        # a field or local sharing its bare name is not a use.
        if not (calls if "::" in qualified else uses)[token]:
            findings.append(Finding(
                "test-only-api", path, line,
                f"only tests call `{qualified}`: delete it, move it "
                "under tests/ if a test compares against it, or suppress "
                "it naming the test that reads product state through it",
                symbol=qualified))
    return findings


FILE_RULES = (check_noise_containment, check_lease_resolution,
              check_wire_after_noise, check_count_seam)


def lint_tree(root, verbose=False):
    rel_paths = []
    for sub in ("src", "tests", "tools"):
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".cc", ".h", ".py")):
                    rel_paths.append(os.path.relpath(
                        os.path.join(dirpath, name), root))
    rel_paths.sort()

    suppressions = []  # (rule, path substring or function, line)
    sup_path = os.path.join(root, SUPPRESSIONS)
    if os.path.exists(sup_path):
        with open(sup_path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if line:
                    rule, _, target = line.partition(" ")
                    suppressions.append((rule, target.strip(), number))

    findings = []
    for path in rel_paths:
        if not path.endswith((".cc", ".h")):
            continue
        raw = open(os.path.join(root, path), encoding="utf-8",
                   errors="replace").read()
        code = strip_code(raw)
        for rule in FILE_RULES:
            findings.extend(rule(path.replace(os.sep, "/"), code, raw))
    findings.extend(check_failpoint_manifest(root, rel_paths))
    findings.extend(check_test_only_api(root))

    def suppresses(entry, finding):
        rule, target, _ = entry
        if finding.rule != rule:
            return False
        if rule == "test-only-api":  # one function, never a file
            return finding.symbol == target
        return target in finding.path

    kept = []
    used = set()
    for finding in findings:
        matches = [e for e in suppressions if suppresses(e, finding)]
        if matches:
            used.update(matches)
            if verbose:
                print(f"suppressed: {finding}")
            continue
        kept.append(finding)
    for rule, target, number in suppressions:
        if rule == "test-only-api" and (rule, target, number) not in used:
            kept.append(Finding(
                rule, SUPPRESSIONS, number,
                f"suppression names `{target}`, which is not a test-only "
                "function: remove the entry"))
    return kept


# (rule, path, seeded violation) triples; every one must fire its rule.
SELF_TEST_CASES = (
    ("noise-containment",
        "src/shard/evil.cc",
        "namespace privbasis {\n"
        "void Leak() { Rng rng(7); (void)SampleLaplace(rng, 1.0); }\n"
        "}\n"),
    ("lease-resolution",
        "src/engine/evil.cc",
        "namespace privbasis {\n"
        "Status Spend(Accountant& a) {\n"
        "  PRIVBASIS_ASSIGN_OR_RETURN(BudgetLease lease, a.Acquire(1.0, \"x\"));\n"
        "  return Status::OK();\n"
        "}\n"
        "}\n"),
    ("wire-after-noise",
        "src/core/evil.cc",
        "namespace privbasis {\n"
        "void Ship(Rng& rng) {\n"
        "  double noised = SampleLaplace(rng, 1.0);\n"
        "  shardwire::WriteFrame(noised);\n"
        "}\n"
        "}\n"),
    ("count-seam",
        "src/core/evil.cc",
        "namespace privbasis {\n"
        "std::vector<uint64_t> CountPairSupports(const Db& db,\n"
        "                                        const Items& f);\n"
        "Status Step3(const Db& db, const Items& f) {\n"
        "  std::vector<uint64_t> counts = CountPairSupports(db, f);\n"
        "  return Status::OK();\n"
        "}\n"
        "}\n"),
    # The bitmap bin counter, reached through a `->` (whose `>` must not
    # read as the end of a return type).
    ("count-seam",
     "src/core/evil.cc",
     "namespace privbasis {\n"
     "Status Step5(const Index* index, const BasisSet& b) {\n"
     "  auto bins = index->BitmapBasisBins(b.bases(), nullptr);\n"
     "  return Status::OK();\n"
     "}\n"
     "}\n"),
)


def self_test(root):
    failures = []
    for rule_name, path, snippet in SELF_TEST_CASES:
        code = strip_code(snippet)
        hits = []
        for rule in FILE_RULES:
            hits.extend(rule(path, code, snippet))
        if not any(f.rule == rule_name for f in hits):
            failures.append(f"rule `{rule_name}` did not fire on its "
                            f"seeded violation in {path}")
    # failpoint-manifest: a reference to an unregistered site must be
    # caught. Simulate by asking for sites over a synthetic file list.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "tools"))
        os.makedirs(os.path.join(tmp, "src"))
        with open(os.path.join(tmp, MANIFEST), "w", encoding="utf-8") as fh:
            fh.write("known_site\n")
        with open(os.path.join(tmp, "src/evil.cc"), "w",
                  encoding="utf-8") as fh:
            fh.write('auto a = failpoint::Hit("unregistered_site");\n'
                     'auto b = failpoint::Hit("known_site");\n')
        hits = check_failpoint_manifest(tmp, ["src/evil.cc"])
        if not any(f.rule == "failpoint-manifest" and
                   "unregistered_site" in f.message for f in hits):
            failures.append("rule `failpoint-manifest` did not flag an "
                            "unregistered site")
    # test-only-api: a header function only a test (and its own
    # recursion) calls must be caught; one a tool calls must not. A
    # method that a tool never calls is caught even where a field of
    # the same name is read.
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            "src/evil.h": "namespace privbasis {\n"
                          "int OnlyTests(int n);\n"
                          "int Used();\n"
                          "struct Stats { int count = 0; };\n"
                          "class Runner {\n"
                          " public:\n"
                          "  int count() const { return count_; }\n"
                          "  int size() const { return count_; }\n"
                          " private:\n"
                          "  int count_ = 0;\n"
                          "};\n"
                          "}\n",
            "src/evil.cc": "namespace privbasis {\n"
                           "int OnlyTests(int n) {\n"
                           "  return n ? OnlyTests(n - 1) : 0;\n"
                           "}\n"
                           "int Used() { return 1; }\n"
                           "}\n",
            "tools/main.cc": "int main() {\n"
                             "  privbasis::Stats stats;\n"
                             "  privbasis::Runner runner;\n"
                             "  return privbasis::Used() + stats.count +\n"
                             "         runner.size();\n"
                             "}\n",
            "tests/evil_test.cc": "int x = privbasis::OnlyTests(3);\n"
                                  "int y = privbasis::Runner().count();\n",
        }
        for rel, text in files.items():
            os.makedirs(os.path.join(tmp, os.path.dirname(rel)),
                        exist_ok=True)
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as fh:
                fh.write(text)
        flagged = {f.symbol for f in check_test_only_api(tmp)}
        if flagged != {"OnlyTests", "Runner::count"}:
            failures.append("rule `test-only-api` flagged "
                            f"{sorted(flagged)}, want ['OnlyTests', "
                            "'Runner::count']")
    # And the real tree must be clean, or CI green means nothing.
    real = lint_tree(root)
    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}", file=sys.stderr)
        return 2
    if real:
        print("self-test FAILED: tree not clean (fix or suppress):",
              file=sys.stderr)
        for finding in real:
            print(f"  {finding}", file=sys.stderr)
        return 2
    rules = {rule for rule, _, _ in SELF_TEST_CASES}
    print(f"privacy_lint self-test: all {len(rules) + 2} rules fire on "
          f"{len(SELF_TEST_CASES) + 2} seeded violations; tree clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)
    findings = lint_tree(root, verbose=args.verbose)
    for finding in findings:
        print(finding)
    if findings:
        print(f"privacy_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("privacy_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
