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
                      visibly resolve it: Commit()/CommitAll() it, move it
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
                      raw scans CountPairSupports( and CountBasisBins( may
                      be called only by the executors — core/batch_exec.cc
                      and src/shard/ — besides their own definitions. A
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

False positives are suppressed in tools/privacy_lint_suppressions.txt,
one `rule path-substring` pair per line. `--self-test` runs each rule
against a seeded violation and fails unless every rule fires.

Usage:
  tools/privacy_lint.py [--root .] [--self-test] [-v]
Exit status: 0 clean, 1 findings, 2 self-test failure.
"""

import argparse
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

RAW_COUNT_CALL = re.compile(r"\b(CountPairSupports|CountBasisBins)\s*\(")
COUNT_SEAM_ALLOWED = ("src/core/batch_exec.cc", "src/shard/")
# A definition: the name follows its return type (`std::vector<uint64_t>`
# or `Result<...>`), i.e. a `>` then whitespace.
RAW_COUNT_DEFINITION = re.compile(
    r">\s*(CountPairSupports|CountBasisBins)\s*\($")

LEASE_BIND = re.compile(r"\bBudgetLease\s+(\w+)\s*[,;)]")
LEASE_RESOLVED = (
    ".Commit(", ".CommitAll(", "std::move({name})", "return {name};")

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
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

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
            pattern.format(name=name) in scope
            for pattern in (f"{name}.Commit(", f"{name}.CommitAll(",
                            f"std::move({name})", f"return {name};"))
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

    suppressions = []
    sup_path = os.path.join(root, SUPPRESSIONS)
    if os.path.exists(sup_path):
        with open(sup_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    rule, _, path_sub = line.partition(" ")
                    suppressions.append((rule, path_sub.strip()))

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

    kept = []
    for finding in findings:
        if any(finding.rule == rule and path_sub in finding.path
               for rule, path_sub in suppressions):
            if verbose:
                print(f"suppressed: {finding}")
            continue
        kept.append(finding)
    return kept


SELF_TEST_CASES = {
    "noise-containment": (
        "src/shard/evil.cc",
        "namespace privbasis {\n"
        "void Leak() { Rng rng(7); (void)SampleLaplace(rng, 1.0); }\n"
        "}\n"),
    "lease-resolution": (
        "src/engine/evil.cc",
        "namespace privbasis {\n"
        "Status Spend(Accountant& a) {\n"
        "  PRIVBASIS_ASSIGN_OR_RETURN(BudgetLease lease, a.Acquire(1.0, \"x\"));\n"
        "  return Status::OK();\n"
        "}\n"
        "}\n"),
    "wire-after-noise": (
        "src/core/evil.cc",
        "namespace privbasis {\n"
        "void Ship(Rng& rng) {\n"
        "  double noised = SampleLaplace(rng, 1.0);\n"
        "  shardwire::WriteFrame(noised);\n"
        "}\n"
        "}\n"),
    "count-seam": (
        "src/core/evil.cc",
        "namespace privbasis {\n"
        "std::vector<uint64_t> CountPairSupports(const Db& db,\n"
        "                                        const Items& f);\n"
        "Status Step3(const Db& db, const Items& f) {\n"
        "  std::vector<uint64_t> counts = CountPairSupports(db, f);\n"
        "  return Status::OK();\n"
        "}\n"
        "}\n"),
}


def self_test(root):
    failures = []
    for rule_name, (path, snippet) in SELF_TEST_CASES.items():
        code = strip_code(snippet)
        hits = []
        for rule in FILE_RULES:
            hits.extend(rule(path, code, snippet))
        if not any(f.rule == rule_name for f in hits):
            failures.append(f"rule `{rule_name}` did not fire on its "
                            f"seeded violation")
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
    print(f"privacy_lint self-test: all {len(SELF_TEST_CASES) + 1} rules "
          "fire on seeded violations; tree clean")
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
