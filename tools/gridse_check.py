#!/usr/bin/env python3
"""gridse_check: project-invariant checker for the gridse tree.

Compile-commands-driven lint for invariants that neither the compiler nor
clang-tidy enforces, because they are *project* conventions:

  naked-mutex      std::mutex / std::lock_guard / std::unique_lock /
                   std::scoped_lock outside src/analysis/.  The rest of the
                   tree must use analysis::Mutex + analysis::LockGuard so
                   every lock is named, participates in lock-order (deadlock)
                   detection under GRIDSE_DEBUG_SYNC, and carries the Clang
                   Thread Safety capability annotations.
  raw-getenv       getenv() outside src/runtime/resilience.*.  Environment
                   access goes through runtime::env_value() so configuration
                   reads are greppable in one place and testable.
  fault-hook       transport primitives (send_all / recv_all / recv_some /
                   ::send / ::recv / ::connect) in src/runtime or src/medici
                   files that contain no FAULT_POINT / FAULT_DROP hook, plus
                   a manifest of known fault sites that must keep existing
                   and must equal the fault::kKnownSites list.
                   New transport code must be chaos-testable.
  locked-requires  *_locked() function declarations without a
                   GRIDSE_REQUIRES(...) annotation.  The _locked suffix is
                   the project contract for "caller holds the lock"; the
                   annotation makes Clang enforce it.
  guarded-field    field declarations whose same-line comment says
                   "guarded by" / "protected by" without a
                   GRIDSE_GUARDED_BY(...) annotation.  Prose invariants rot;
                   annotated ones are compiler-checked.
  metric-name      metric registrations in src/ (OBS_COUNTER_ADD /
                   OBS_GAUGE_SET / OBS_HISTOGRAM_OBSERVE / OBS_COUNTS_OBSERVE
                   / OBS_SPAN and registry .counter()/.gauge()/.histogram())
                   whose literal name does not follow the
                   `subsystem.noun[_unit]` grammar: lowercase snake-case
                   segments joined by dots, at least two segments.  Dynamic
                   names are tolerated when the literal prefix ends in `.`
                   (e.g. "medici.endpoint.bytes.to." + key).  Registering the
                   same literal name under two different instrument kinds in
                   one file is also flagged — the registry would race the
                   types at runtime.  Tests are exempt (toy names).
  orphan-module    a src/**/X.hpp that no file in src/, tools/, bench/ or
                   examples/ includes, other than its own X.cpp.  A module
                   only its tests call is a cost, not a feature: delete it,
                   or suppress it with the reason it stays.

Suppressions (tools/gridse_check_suppressions.txt by default):
  each non-comment line is `<rule> <path-glob> [reason...]`; a finding whose
  rule matches and whose repo-relative path fnmatches the glob is reported as
  suppressed instead of failing the run.  Unused suppressions are warnings.
Inline escape hatch: a line containing `gridse-check: allow(<rule>)` in a
  comment suppresses that rule on that line (use sparingly; prefer fixing).

Self-test (--self-test): runs every rule over the marker-annotated corpus in
  tests/analysis/check_corpus/ and verifies each rule both fires where a
  `(EXPECT: <rule>)` marker says it must and is suppressed where an
  `(EXPECT-SUPPRESSED: <rule>)` marker plus the corpus suppression file says
  it must, with zero stray findings.  The tree-level rules (the fault-site
  manifest, orphan-module) are self-tested directly: the real tree is clean
  and a synthetic violation fires.  Registered in ctest as
  gridse_check_selftest.

Exit status: 0 clean (or all findings suppressed), 1 findings, 2 usage/IO.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

RULES = (
    "naked-mutex",
    "raw-getenv",
    "fault-hook",
    "locked-requires",
    "guarded-field",
    "metric-name",
    "orphan-module",
)
# Rules checked over the whole tree rather than line by line; the corpus
# markers cannot cover them.
TREE_RULES = ("orphan-module",)

# Directories scanned in a tree run, relative to the repo root.
SCAN_DIRS = ("src", "tests", "bench", "tools", "examples")
# The corpus deliberately violates every rule; never scan it as tree code.
EXCLUDE_PARTS = ("tests/analysis/check_corpus",)
SOURCE_SUFFIXES = (".cpp", ".hpp", ".cc", ".h")

# Known fault-injection sites: site name -> file that must keep its hook.
# Deleting a hook (or renaming a site without updating the chaos plans and
# this manifest) breaks every recorded fault plan silently; fail loudly here.
# The keys must equal fault::kKnownSites in KNOWN_SITES_HEADER, the list
# FaultPlan::parse validates rule sites against.
KNOWN_SITES_HEADER = "src/fault/fault.hpp"
KNOWN_SITES_RE = re.compile(r"kKnownSites\s*=[^{]*\{(.*?)\}\);", re.S)
REQUIRED_FAULT_SITES = {
    "socket.send": "src/runtime/socket.cpp",
    "socket.recv": "src/runtime/socket.cpp",
    "socket.connect": "src/runtime/socket.cpp",
    "mailbox.deliver": "src/runtime/mailbox.cpp",
    "wire.read": "src/medici/wire.cpp",
    "wire.write": "src/medici/wire.cpp",
    "relay.forward": "src/medici/router.cpp",
    "client.send": "src/medici/mw_client.cpp",
    "topology.apply": "src/fault/topology_replay.cpp",
}

NAKED_MUTEX_RE = re.compile(
    r"std\s*::\s*(?:mutex|recursive_mutex|timed_mutex|shared_mutex)\b"
    r"|std\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_GETENV_RE = re.compile(r"\b(?:std\s*::\s*)?(?:secure_)?getenv\s*\(")
# Invocations only: `obj.send_all(...)` / `ptr->recv_some(...)` / POSIX
# `::send(...)`.  Plain declarations (socket.hpp) are not transport sites.
TRANSPORT_PRIMITIVE_RE = re.compile(
    r"(?:\.|->)\s*(?:send_all|recv_all|recv_some|sendto|recvfrom)\s*\("
    r"|::\s*(?:send|recv|connect|sendto|recvfrom)\s*\("
)
FAULT_HOOK_RE = re.compile(r"\bFAULT_(?:POINT|DROP)\s*\(")
# A *_locked declaration: something type-ish before the name, then `(`.
# Qualified names (Foo::bar_locked) are out-of-line definitions whose
# annotation lives on the in-class declaration, so they are exempt.
LOCKED_DECL_RE = re.compile(
    r"^\s*(?:\[\[\s*nodiscard\s*\]\]\s*)?"
    r"(?:(?:static|inline|constexpr|virtual|explicit|friend)\s+)*"
    r"[A-Za-z_][\w:<>,*&\s]*?[\s&*]((?:\w+\s*::\s*)?)(\w+_locked)\s*\("
)
GUARDED_COMMENT_RE = re.compile(r"(?://|/\*).*(?:guarded|protected)\s+by",
                                re.IGNORECASE)
GUARDED_ANNOT_RE = re.compile(r"\bGRIDSE_(?:PT_)?GUARDED_BY\s*\(")
# Metric registration sites.  The literal lives in the raw line (string
# literals are blanked in the stripped code), so the site token is matched
# against code and the name extracted from raw.
METRIC_SITE_RE = re.compile(
    r"\b(?:OBS_(?P<macro>COUNTER_ADD|GAUGE_SET|HISTOGRAM_OBSERVE|"
    r"COUNTS_OBSERVE|SPAN)"
    r"|(?:\.|->)\s*(?P<method>counter|gauge|histogram))"
    r"\s*\(\s*\"(?P<name>[^\"]*)\"(?P<plus>\s*\+)?"
)
# subsystem.noun[_unit]: >= 2 dot-separated lowercase snake segments.
METRIC_NAME_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+")
# Dynamic-name prefix: grammar-clean segments, ending at a segment boundary.
METRIC_PREFIX_RE = re.compile(r"(?:[a-z][a-z0-9_]*\.)+")
METRIC_KIND = {
    "COUNTER_ADD": "counter", "GAUGE_SET": "gauge",
    "HISTOGRAM_OBSERVE": "histogram", "COUNTS_OBSERVE": "histogram",
    "SPAN": "span",
    "counter": "counter", "gauge": "gauge", "histogram": "histogram",
}

ALLOW_RE = re.compile(r"gridse-check:\s*allow\(\s*([\w-]+)\s*\)")
EXPECT_RE = re.compile(r"EXPECT(-SUPPRESSED)?:\s*([\w-]+)")
CHECK_PATH_RE = re.compile(r"//\s*CHECK-PATH:\s*(\S+)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)
# The directories whose includes make a src/ header live: the library
# itself and the programs built on it, not the tests.
MODULE_USER_DIRS = ("src", "tools", "bench", "examples")


@dataclass(frozen=True)
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str


def strip_code_line(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Remove comments and string/char literals; return (code, still_in_block)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        ch = line[i]
        two = line[i : i + 2]
        if two == "//":
            break
        if two == "/*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(" ")  # keep column content neutral
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def code_lines(lines: list[str]) -> list[str]:
    stripped = []
    in_block = False
    for raw in lines:
        code, in_block = strip_code_line(raw, in_block)
        stripped.append(code)
    return stripped


def statement_tail(code: list[str], start: int, limit: int = 8) -> str:
    """Join code lines from `start` until a `;` or `{` terminator (inclusive)."""
    parts = []
    for j in range(start, min(start + limit, len(code))):
        parts.append(code[j])
        if ";" in code[j] or "{" in code[j]:
            break
    return " ".join(parts)


def check_file(rel: str, raw_lines: list[str]) -> list[Finding]:
    """Run every rule over one file. `rel` uses forward slashes."""
    findings: list[Finding] = []
    code = code_lines(raw_lines)
    in_analysis = rel.startswith("src/analysis/")
    is_resilience = rel in ("src/runtime/resilience.cpp",
                            "src/runtime/resilience.hpp")
    in_transport = rel.startswith(("src/runtime/", "src/medici/"))
    has_fault_hook = any(FAULT_HOOK_RE.search(c) for c in code)
    # metric-name applies to production code only; tests/bench register toy
    # names ("x", "lat") on purpose-built registries.
    in_metric_scope = rel.startswith("src/")
    metric_kinds: dict[str, tuple[str, int]] = {}

    for idx, line in enumerate(code):
        lineno = idx + 1
        raw = raw_lines[idx]

        if not in_analysis and NAKED_MUTEX_RE.search(line):
            findings.append(Finding(
                rel, lineno, "naked-mutex",
                "use analysis::Mutex / analysis::LockGuard (named, "
                "lock-order-checked, capability-annotated) instead of the "
                "std primitive; raw std::mutex is reserved for src/analysis/"))

        if not is_resilience and RAW_GETENV_RE.search(line):
            findings.append(Finding(
                rel, lineno, "raw-getenv",
                "read the environment through runtime::env_value() "
                "(src/runtime/resilience.hpp) instead of getenv()"))

        if in_transport and not has_fault_hook \
                and TRANSPORT_PRIMITIVE_RE.search(line):
            findings.append(Finding(
                rel, lineno, "fault-hook",
                "transport primitive in a file with no FAULT_POINT/"
                "FAULT_DROP hook; new transport paths must be "
                "chaos-testable (see src/fault/fault.hpp)"))

        m = LOCKED_DECL_RE.match(line)
        if m and not m.group(1):  # unqualified => declaration, not defn
            stmt = statement_tail(code, idx)
            if "GRIDSE_REQUIRES" not in stmt \
                    and "GRIDSE_NO_THREAD_SAFETY_ANALYSIS" not in stmt:
                findings.append(Finding(
                    rel, lineno, "locked-requires",
                    f"{m.group(2)}() follows the *_locked naming contract "
                    "but has no GRIDSE_REQUIRES(<mutex>) annotation"))

        if in_metric_scope:
            for m in METRIC_SITE_RE.finditer(raw):
                token = m.group("macro") or m.group("method")
                if token not in line:
                    continue  # the site itself is commented out
                name = m.group("name")
                kind = METRIC_KIND[token]
                if m.group("plus"):
                    if not METRIC_PREFIX_RE.fullmatch(name):
                        findings.append(Finding(
                            rel, lineno, "metric-name",
                            f"dynamic metric prefix \"{name}\" must be "
                            "grammar-clean dot-terminated segments "
                            "(e.g. \"medici.endpoint.bytes.to.\")"))
                    continue
                if not METRIC_NAME_RE.fullmatch(name):
                    findings.append(Finding(
                        rel, lineno, "metric-name",
                        f"metric \"{name}\" violates the "
                        "subsystem.noun[_unit] grammar (lowercase "
                        "snake-case segments joined by dots, >= 2 "
                        "segments)"))
                    continue
                prev = metric_kinds.get(name)
                if prev is not None and prev[0] != kind:
                    findings.append(Finding(
                        rel, lineno, "metric-name",
                        f"metric \"{name}\" re-registered as a {kind}; "
                        f"already a {prev[0]} at line {prev[1]} — one "
                        "name, one instrument kind"))
                elif prev is None:
                    metric_kinds[name] = (kind, lineno)

        if GUARDED_COMMENT_RE.search(raw):
            stripped = line.strip()
            # Only field/statement lines: prose in pure-comment lines is fine.
            if stripped and ";" in stripped \
                    and not GUARDED_ANNOT_RE.search(statement_tail(code, idx)):
                findings.append(Finding(
                    rel, lineno, "guarded-field",
                    "comment claims a lock guards this declaration; state "
                    "it as GRIDSE_GUARDED_BY(<mutex>) so Clang enforces it"))

    # Drop findings the author explicitly allowed inline.
    kept = []
    for f in findings:
        allow = ALLOW_RE.search(raw_lines[f.line - 1])
        if allow and allow.group(1) == f.rule:
            continue
        kept.append(f)
    return kept


def check_fault_manifest(root: Path) -> list[Finding]:
    findings = []
    header = root / KNOWN_SITES_HEADER
    text = (header.read_text(encoding="utf-8", errors="replace")
            if header.is_file() else "")
    m = KNOWN_SITES_RE.search(text)
    known = set(re.findall(r'"([^"]+)"', m.group(1))) if m else set()
    if known != set(REQUIRED_FAULT_SITES):
        findings.append(Finding(
            KNOWN_SITES_HEADER, 1, "fault-hook",
            "fault::kKnownSites and REQUIRED_FAULT_SITES in "
            "tools/gridse_check.py disagree: only in kKnownSites "
            f"{sorted(known - set(REQUIRED_FAULT_SITES))}, only in the "
            f"manifest {sorted(set(REQUIRED_FAULT_SITES) - known)}"))
    for site, rel in sorted(REQUIRED_FAULT_SITES.items()):
        path = root / rel
        if not path.is_file():
            findings.append(Finding(rel, 1, "fault-hook",
                                    f"file hosting fault site \"{site}\" "
                                    "is missing"))
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        if not re.search(r"FAULT_(?:POINT|DROP)\s*\(\s*\"" + re.escape(site)
                         + r"\"", text):
            findings.append(Finding(
                rel, 1, "fault-hook",
                f"required fault site \"{site}\" disappeared; recorded "
                "chaos plans reference it (update REQUIRED_FAULT_SITES in "
                "tools/gridse_check.py if the rename is deliberate)"))
    return findings


def check_orphan_modules(root: Path) -> list[Finding]:
    src = root / "src"
    included_by: dict[Path, set[Path]] = {}
    for d in MODULE_USER_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in base.rglob("*"):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for inc in INCLUDE_RE.findall(text):
                # Includes resolve against -I src or the including file's
                # own directory.
                for target in (src / inc, path.parent / inc):
                    included_by.setdefault(target.resolve(), set()).add(path)
    findings = []
    for header in sorted(src.rglob("*.hpp")):
        own = header.with_suffix(".cpp")
        users = included_by.get(header.resolve(), set()) - {own}
        if not users:
            rel = header.relative_to(root).as_posix()
            findings.append(Finding(
                rel, 1, "orphan-module",
                "no file in src/, tools/, bench/ or examples/ includes this "
                "header (its own .cpp aside); delete the module or suppress "
                "it with the reason it stays"))
    return findings


def load_suppressions(path: Path) -> list[tuple[str, str, str]]:
    """Return [(rule, glob, reason)]; tolerate a missing file."""
    entries = []
    if not path.is_file():
        return entries
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 2 or parts[0] not in RULES:
            print(f"{path}:{lineno}: malformed suppression: {raw!r}",
                  file=sys.stderr)
            sys.exit(2)
        entries.append((parts[0], parts[1],
                        parts[2] if len(parts) > 2 else ""))
    return entries


def split_suppressed(findings, suppressions):
    active, suppressed = [], []
    used = [False] * len(suppressions)
    for f in findings:
        hit = None
        for i, (rule, glob, _) in enumerate(suppressions):
            if rule == f.rule and fnmatch.fnmatch(f.path, glob):
                hit = i
                break
        if hit is None:
            active.append(f)
        else:
            used[hit] = True
            suppressed.append(f)
    unused = [s for s, u in zip(suppressions, used) if not u]
    return active, suppressed, unused


def enumerate_sources(root: Path, build_dir: Path | None) -> list[Path]:
    files: set[Path] = set()
    db = build_dir / "compile_commands.json" if build_dir else None
    if db and db.is_file():
        for entry in json.loads(db.read_text(encoding="utf-8")):
            p = Path(entry["file"])
            if not p.is_absolute():
                p = Path(entry["directory"]) / p
            try:
                rel = p.resolve().relative_to(root)
            except ValueError:
                continue
            if rel.parts and rel.parts[0] in SCAN_DIRS:
                files.add(root / rel)
    # Compile databases list only translation units; headers carry most of
    # the annotations, so always walk the scan dirs as well.
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            for p in base.rglob("*"):
                if p.suffix in SOURCE_SUFFIXES and p.is_file():
                    files.add(p)
    out = []
    for p in sorted(files):
        rel = p.relative_to(root).as_posix()
        if any(rel.startswith(ex) for ex in EXCLUDE_PARTS):
            continue
        out.append(p)
    return out


def run_tree(root: Path, build_dir: Path | None, supp_path: Path,
             verbose: bool) -> int:
    sources = enumerate_sources(root, build_dir)
    if not sources:
        print(f"gridse_check: no sources found under {root}", file=sys.stderr)
        return 2
    findings: list[Finding] = []
    for path in sources:
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8",
                               errors="replace").splitlines()
        findings.extend(check_file(rel, lines))
    findings.extend(check_fault_manifest(root))
    findings.extend(check_orphan_modules(root))

    suppressions = load_suppressions(supp_path)
    active, suppressed, unused = split_suppressed(findings, suppressions)

    for f in active:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if verbose:
        for f in suppressed:
            print(f"{f.path}:{f.line}: [{f.rule}] suppressed "
                  f"(tools/{supp_path.name})")
    for rule, glob, _ in unused:
        print(f"gridse_check: warning: unused suppression: {rule} {glob}",
              file=sys.stderr)
    print(f"gridse_check: {len(sources)} files, {len(active)} finding(s), "
          f"{len(suppressed)} suppressed.", file=sys.stderr)
    return 1 if active else 0


@contextlib.contextmanager
def _patched_manifest(sites: dict[str, str]):
    """Temporarily swap REQUIRED_FAULT_SITES (self-test only)."""
    global REQUIRED_FAULT_SITES
    saved = REQUIRED_FAULT_SITES
    REQUIRED_FAULT_SITES = sites
    try:
        yield
    finally:
        REQUIRED_FAULT_SITES = saved


def run_self_test(root: Path) -> int:
    corpus = root / "tests" / "analysis" / "check_corpus"
    if not corpus.is_dir():
        print(f"gridse_check: corpus missing: {corpus}", file=sys.stderr)
        return 2
    suppressions = load_suppressions(corpus / "suppressions.txt")
    failures = []
    seen_expected: dict[str, int] = {r: 0 for r in RULES
                                     if r not in TREE_RULES}
    for path in sorted(corpus.glob("*.cc")):
        lines = path.read_text(encoding="utf-8").splitlines()
        virtual = path.relative_to(root).as_posix()
        for line in lines:
            m = CHECK_PATH_RE.search(line)
            if m:
                virtual = m.group(1)
                break

        expect_active: dict[int, str] = {}
        expect_supp: dict[int, str] = {}
        for idx, line in enumerate(lines):
            m = EXPECT_RE.search(line)
            if m:
                (expect_supp if m.group(1) else expect_active)[idx + 1] = \
                    m.group(2)

        findings = check_file(virtual, lines)
        active, suppressed, _ = split_suppressed(findings, suppressions)
        got_active = {(f.line, f.rule) for f in active}
        got_supp = {(f.line, f.rule) for f in suppressed}

        for lineno, rule in expect_active.items():
            seen_expected[rule] += 1
            if (lineno, rule) not in got_active:
                failures.append(f"{path.name}:{lineno}: expected [{rule}] "
                                "to fire, it did not")
        for lineno, rule in expect_supp.items():
            seen_expected[rule] += 1
            if (lineno, rule) not in got_supp:
                failures.append(f"{path.name}:{lineno}: expected [{rule}] "
                                "to fire AND be suppressed, it was not")
        for lineno, rule in sorted(got_active):
            if expect_active.get(lineno) != rule:
                failures.append(f"{path.name}:{lineno}: stray [{rule}] "
                                "finding with no EXPECT marker")

    for rule, count in seen_expected.items():
        if count == 0:
            failures.append(f"corpus has no EXPECT coverage for [{rule}]")

    # The fault-site manifest is tree-level, not line-level, so the corpus
    # markers can't cover it; self-test it directly: the real tree must
    # satisfy every recorded site, and the rule must fire for a site whose
    # hosting file has vanished.
    for f in check_fault_manifest(root):
        failures.append(f"manifest: real tree violates required fault "
                        f"sites: {f.path}: {f.message}")
    ghost = dict(REQUIRED_FAULT_SITES)
    ghost["corpus.ghost"] = "src/runtime/does_not_exist.cpp"
    with _patched_manifest(ghost):
        fired = [f for f in check_fault_manifest(root)
                 if "corpus.ghost" in f.message and "is missing" in f.message]
    if not fired:
        failures.append("manifest: rule did not fire for a missing "
                        "fault-site file")
    dropped = dict(REQUIRED_FAULT_SITES)
    dropped.pop("client.send")
    with _patched_manifest(dropped):
        fired = [f for f in check_fault_manifest(root)
                 if "disagree" in f.message and "client.send" in f.message]
    if not fired:
        failures.append("manifest: rule did not fire when the manifest "
                        "drifted from fault::kKnownSites")

    # orphan-module: the real tree is clean under its suppressions, and in
    # a synthetic tree exactly the header only its own .cpp and a test
    # include fires.
    tree_supp = load_suppressions(root / "tools" /
                                  "gridse_check_suppressions.txt")
    active, _, _ = split_suppressed(check_orphan_modules(root), tree_supp)
    for f in active:
        failures.append(f"orphan-module: real tree has an unsuppressed "
                        f"orphan: {f.path}")
    with tempfile.TemporaryDirectory() as tmp:
        synthetic = Path(tmp)
        for rel, text in {
                "src/m/used.hpp": "",
                "src/m/used.cpp": '#include "m/used.hpp"\n',
                "src/m/lonely.hpp": '#include "used.hpp"\n',
                "src/m/lonely.cpp": '#include "m/lonely.hpp"\n',
                "tests/m/lonely_test.cpp": '#include "m/lonely.hpp"\n',
                "tools/cli.cpp": '#include "m/used.hpp"\n'}.items():
            (synthetic / rel).parent.mkdir(parents=True, exist_ok=True)
            (synthetic / rel).write_text(text, encoding="utf-8")
        fired = [f.path for f in check_orphan_modules(synthetic)]
    if fired != ["src/m/lonely.hpp"]:
        failures.append(f"orphan-module: synthetic tree gave {fired}, "
                        "expected exactly src/m/lonely.hpp")
    for msg in failures:
        print(f"gridse_check self-test: FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("gridse_check self-test: all corpus expectations met.",
          file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build dir with compile_commands.json "
                             "(default: <root>/build if present)")
    parser.add_argument("--suppressions", type=Path, default=None,
                        help="suppression file (default: "
                             "tools/gridse_check_suppressions.txt)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker against the corpus in "
                             "tests/analysis/check_corpus/")
    parser.add_argument("--verbose", action="store_true",
                        help="also print suppressed findings")
    ns = parser.parse_args()

    root = ns.root.resolve()
    if ns.self_test:
        return run_self_test(root)
    build_dir = ns.build_dir or (root / "build")
    supp = ns.suppressions or (root / "tools" /
                               "gridse_check_suppressions.txt")
    return run_tree(root, build_dir if build_dir.is_dir() else None, supp,
                    ns.verbose)


if __name__ == "__main__":
    sys.exit(main())
