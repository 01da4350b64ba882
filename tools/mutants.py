"""Run tier-1 against one-edit mutants of src/ and report which ones it kills.

Each mutant is one (file, exact old text, new text) edit kept in MUTANTS
below. For each, the script copies src/, tests/, tools/, perfbench/ (whose
traced names tests/test_api.py reads) and README.md (whose count of the
public names it reads) into a temporary directory, applies the edit there
and runs the mutated file's own tests with -x:
tests/test_<stem>.py, or tests/test_api.py for the package's __init__.py.
Only when they all pass does it run the whole tier-1 suite with -x. It
prints "killed" when some test fails or "survived" when every test passes.
The working tree is never modified. It first runs the suite on the
unmutated copy, because a suite that already fails would kill every mutant.
Standard library only, apart from the suite's own pytest and hypothesis;
not part of tier-1. A mutant its own tests miss costs one full suite run,
so expect several minutes:

    python3 tools/mutants.py

Edits that cannot change any result are kept apart in EQUIVALENT, each with
its reason; they are checked to match and printed, never run. Exit status 0
means every mutant was killed; 1 means some survived or an edit no longer
matches its file exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml", "README.md")

# (name, file under src/crtcount, exact old text, new text)
MUTANTS = [
    (
        "pairing floor boundary",
        "bounds.py",
        "    if span < length:\n",
        "    if span <= length:\n",
    ),
    (
        "bound_intervals leftover overlap",
        "bounds.py",
        "    extra = rem_a + rem_b - g\n",
        "    extra = rem_a + rem_b - g + 1\n",
    ),
    (
        "extremal_profile guard sends a full profile to the refusal checks",
        "bounds.py",
        "0 <= size <= cap * length\n",
        "0 <= size < cap * length\n",
    ),
    (
        "extremal_profile guard sends a length at the cap to the refusal checks",
        "bounds.py",
        "length <= residues.ENUMERATION_CAP",
        "length < residues.ENUMERATION_CAP",
    ),
    (
        "extremal_profile guard sends a cap at INT64_MAX to the refusal checks",
        "bounds.py",
        "cap <= INT64_MAX):",
        "cap < INT64_MAX):",
    ),
    (
        "pairing floor swaps the boundary and overlap tags",
        "bounds.py",
        '        value, tag = leftover_a * leftover_b, "boundary"\n',
        '        value, tag = leftover_a * leftover_b, "overlap"\n',
    ),
    (
        "pairing floor leftover takes the other side's cap",
        "bounds.py",
        "leftover_a = size_a - filled_a * cap_a\n",
        "leftover_a = size_a - filled_a * cap_b\n",
    ),
    (
        "pairing floor leftover takes the other side's filled count",
        "bounds.py",
        "leftover_b = size_b - filled_b * cap_b\n",
        "leftover_b = size_b - filled_a * cap_b\n",
    ),
    (
        "arc overlap past the top",
        "residues.py",
        "max(0, min(len_a, end_b - g))",
        "max(0, min(len_a, end_b - g + 1))",
    ),
    (
        "set-interval leftover arc",
        "residues.py",
        "(r - start) % g < extra",
        "(r - start) % g <= extra",
    ),
    (
        "density guarantee strict inequality",
        "bounds.py",
        "3 * size_a > m",
        "3 * size_a >= m",
    ),
    (
        "extremal profile leftover run",
        "bounds.py",
        "(leftover,) * (zeros >= 0)",
        "(leftover,) * (zeros > 0)",
    ),
    (
        "runner modular step",
        "runner.py",
        "first += 3 * slow - offset",
        "first += 3 * slow - offset + 1",
    ),
    (
        "witness threshold refuses 1/3",
        "runner.py",
        "    return 3 * near >= q\n",
        "    return 3 * near > q\n",
    ),
    (
        "witness keeps the far side for runner m",
        "runner.py",
        "near_m = r_m if 2 * r_m <= period_m else period_m - r_m",
        "near_m = period_m - r_m if 2 * r_m <= period_m else r_m",
    ),
    (
        "witness takes runner n's residue as its distance",
        "runner.py",
        "near_n = r_n if 2 * r_n <= period_n else period_n - r_n",
        "near_n = r_n",
    ),
    (
        "witness near side drops the factor 2",
        "runner.py",
        "r_m if 2 * r_m <= period_m",
        "r_m if r_m <= period_m",
    ),
    (
        "witness pairs each distance with the other runner",
        "runner.py",
        "(_reduced(near_m, period_m), _reduced(near_n, period_n))",
        "(_reduced(near_n, period_n), _reduced(near_m, period_m))",
    ),
    (
        "witness fractions skip the gcd reduction",
        "runner.py",
        "    g = gcd(numerator, denominator)\n",
        "    g = 1\n",
    ),
    (
        "runner guard never fires",
        "runner.py",
        "    if denominator > INT64_MAX:\n",
        "    if False:\n",
    ),
    (
        "runner guard drops the factor 3",
        "runner.py",
        "_checked_mul(3 * m, n)",
        "_checked_mul(m, n)",
    ),
    (
        "distant arc length",
        "runner.py",
        "length = (runners - 1) * period // (runners + 1) + 1",
        "length = (runners - 1) * period // (runners + 1)",
    ),
    (
        "_checked_mul lower edge",
        "congruence.py",
        "if not -INT64_MAX - 1 <= product",
        "if not -INT64_MAX <= product",
    ),
    (
        "system residue reduction",
        "congruence.py",
        "items.append((residue % modulus, modulus))",
        "items.append((residue, modulus))",
    ),
    (
        "enumeration walks the larger side",
        "residues.py",
        "    if a.size > b.size:\n",
        "    if a.size < b.size:\n",
    ),
    (
        "window kernel skips the wrapped window at -1",
        "residues.py",
        "range(arc.start - m if arc.start + length > m else arc.start, span, m)",
        "range(arc.start, span, m)",
    ),
    (
        "window rule refuses its boundary",
        "residues.py",
        "span // arc.modulus <= other.size",
        "span // arc.modulus < other.size",
    ),
    (
        "window periods keep the first period's offset",
        "residues.py",
        "            low = 0\n",
        "",
    ),
    (
        "windows on the arc with the smaller modulus",
        "residues.py",
        "(a, b) if a.modulus >= b.modulus else (b, a)",
        "(a, b) if a.modulus <= b.modulus else (b, a)",
    ),
    (
        "window slice takes its top member",
        "residues.py",
        "bisect_left(members, high)]",
        "bisect_left(members, high + 1)]",
    ),
    (
        "window partner's wrapped piece one too long",
        "residues.py",
        "min(high, wrapped)",
        "min(high, wrapped + 1)",
    ),
    (
        "last window left unclipped at the lcm",
        "residues.py",
        "min(first + length, span)",
        "first + length",
    ),
    (
        "interval members() drops its cap",
        "residues.py",
        '        _within_cap(self.length, "interval of {} members", self.length)\n',
        "",
    ),
    (
        "text output drops a field",
        "cli.py",
        'if key != "status":',
        'if key not in ("status", "case"):',
    ),
    (
        "enumeration cap off by one",
        "residues.py",
        '_within_cap(span, "scan range {}", span)',
        '_within_cap(span - 1, "scan range {}", span)',
    ),
    (
        "enumeration unsorted",
        "residues.py",
        "    found.sort()\n",
        "",
    ),
    (
        "bulk build swaps the slot setters",
        "congruence.py",
        "map(SolutionClass.residue.__set__, classes, residues)",
        "map(SolutionClass.modulus.__set__, classes, residues)",
    ),
    (
        "set-set tally reads one set twice",
        "residues.py",
        "[r % g for r in b.members]",
        "[r % g for r in a.members]",
    ),
    (
        "pairing floor refuses INT64_MAX itself",
        "bounds.py",
        "    if value > INT64_MAX:\n        _refuse_bound(value)\n    return _new(",
        "    if value >= INT64_MAX:\n        _refuse_bound(value)\n    return _new(",
    ),
    (
        "interval floor refuses INT64_MAX itself",
        "bounds.py",
        "    if value > INT64_MAX:\n        _refuse_bound(value)\n    return value\n",
        "    if value >= INT64_MAX:\n        _refuse_bound(value)\n    return value\n",
    ),
    (
        "refusal shows a Fraction as one integer",
        "congruence.py",
        "        if n.denominator != 1:\n"
        '            return f"{_shown(n.numerator)}/{_shown(n.denominator)}"\n',
        "",
    ),
    (
        "size refusal formats with str()",
        "bounds.py",
        'f"size {_shown(size_a)} out of range',
        'f"size {size_a} out of range',
    ),
    (
        "interval iteration wraps one too far",
        "residues.py",
        "range(end - self.modulus))",
        "range(end - self.modulus + 1))",
    ),
    (
        "package API drops solve",
        "congruence.py",
        '    "solve",\n',
        "",
    ),
    (
        "cli imports json at module level",
        "cli.py",
        "import functools\nimport math\n",
        "import functools\nimport json\nimport math\n",
    ),
    (
        "package API drops the residues names",
        "__init__.py",
        " + residues.__all__",
        "",
    ),
    (
        "size guard sends a full set to the refusal check",
        "bounds.py",
        "0 <= size_a <= m and 0 <= size_b <= n):\n"
        "        _check_sizes(m, n, size_a, size_b)\n"
        "    g = math.gcd(m, n)\n"
        "    return _pairing_floor(",
        "0 <= size_a < m and 0 <= size_b <= n):\n"
        "        _check_sizes(m, n, size_a, size_b)\n"
        "    g = math.gcd(m, n)\n"
        "    return _pairing_floor(",
    ),
    (
        "parser table edits a help string",
        "cli.py",
        'help="also list the solution residues"',
        'help="also list the solutions"',
    ),
    (
        "parser table swaps a metavar",
        "cli.py",
        'metavar="M,N"',
        'metavar="N,M"',
    ),
    (
        "dispatch skips argparse when the plain reader defers",
        "cli.py",
        "        if args is None:  # help",
        "        if not argv:  # help",
    ),
    (
        "plain reader takes an option value starting with a dash",
        "cli.py",
        'if token[:1] == "-" or choices is not None',
        "if choices is not None",
    ),
    (
        "plain reader lets a broken nargs=+ run through",
        "cli.py",
        "elif runs > 1 or not words:",
        "elif runs > 2 or not words:",
    ),
    (
        "plain reader drops the choices check",
        "cli.py",
        " or choices is not None and value not in choices:",
        ":",
    ),
    (
        "plain reader reads an unseen value-taking option as False",
        "cli.py",
        "            if dest not in values:\n                return None\n",
        "            values.setdefault(dest, False)\n",
    ),
    (
        "plain reader ignores a row's dest",
        "cli.py",
        'dest = keywords.get("dest", flag[2:])',
        "dest = flag[2:]",
    ),
    (
        "plain reader reads a store_true flag given = as set",
        "cli.py",
        "                if joined:  # argparse refuses it\n                    return None\n",
        "",
    ),
    (
        "plain reader takes the next token over a joined value",
        "cli.py",
        'value if joined else next(tokens, "-")',
        'next(tokens, "-")',
    ),
    (
        "plain reader drops a store_true flag's False default",
        "cli.py",
        "        for dest in switches:  # an unseen flag reads False\n"
        "            values.setdefault(dest, False)\n",
        "",
    ),
    (
        "reader table drops the nargs=+ mark",
        "cli.py",
        'keywords.get("nargs") == "+"',
        "False",
    ),
    (
        "set parse reports the unstripped token",
        "cli.py",
        "                token = token.strip()\n",
        "",
    ),
    (
        "set parse lets a duplicate through",
        "cli.py",
        "                if residue in seen:\n",
        "                if False:\n",
    ),
    (
        "residue set drops its duplicate check",
        "residues.py",
        "if any(map(eq, ordered, islice(ordered, 1, None))):",
        "if False:",
    ),
    (
        "cli imports argparse at module level",
        "cli.py",
        "import sys\nfrom collections.abc import Sequence\n",
        "import argparse\nimport sys\nfrom collections.abc import Sequence\n",
    ),
    (
        "bounds imports typing at module level",
        "bounds.py",
        "import collections\nimport math\n",
        "import collections\nimport math\nimport typing\n",
    ),
    (
        "lift inverts modulo n, not n/g",
        "congruence.py",
        "pow(m // g, -1, n // g)",
        "pow(m // g, -1, n)",
    ),
    (
        "solve reduces the lift modulo m2, not the lcm",
        "congruence.py",
        "(residue + k * (target - residue)) % lcm",
        "(residue + k * (target - residue)) % m2",
    ),
    (
        "enumeration keeps k when it swaps the collections",
        "residues.py",
        "a, b, k = b, a, 1 - k",
        "a, b, k = b, a, k",
    ),
    (
        "enumeration leaves the lift unreduced",
        "residues.py",
        "(alpha + k * (beta - alpha)) % span for",
        "alpha + k * (beta - alpha) for",
    ),
    (
        "positivity refusal lets zero through",
        "congruence.py",
        "    if value < 1:\n",
        "    if value < 0:\n",
    ),
    (
        "text output keeps the list commas",
        "cli.py",
        'repr(value)[1:-1].replace(",", "")',
        "repr(value)[1:-1]",
    ),
    (
        "option type converts a dash value",
        "cli.py",
        'return [] if token == "--" else convert(token)',
        "return convert(token)",
    ),
    (
        "option type loses its converter's name",
        "cli.py",
        "    read.__name__ = convert.__name__\n",
        "",
    ),
    (
        "positionals get the dash-value type too",
        "cli.py",
        'if flag[0] == "-" and keywords.get("action") != "store_true":',
        'if keywords.get("action") != "store_true":',
    ),
]

# Edits that cannot change any result, each with the reason; listed and
# matched like MUTANTS, never run. (name, file, old text, new text, reason)
EQUIVALENT = [
    (
        "interval floor adds a zero leftover overlap",
        "bounds.py",
        "if extra > 0 else blocks",
        "if extra >= 0 else blocks",
        "when extra == 0 both branches give blocks",
    ),
    (
        "witness near side at exactly half the period",
        "runner.py",
        "r_m if 2 * r_m <= period_m",
        "r_m if 2 * r_m < period_m",
        "when 2r = q both branches give r = q - r",
    ),
    (
        "witness drops its time-in-[0, 1) check",
        "runner.py",
        "        and 0 <= first < denominator\n",
        "",
        "the line before keeps first within [f, 2f], and 2f < 3mn",
    ),
    (
        "witness time check lets a negative time through",
        "runner.py",
        "0 <= first < denominator",
        "-1 <= first < denominator",
        "first starts at the larger speed and only grows",
    ),
    (
        "runner guard fires at exactly INT64_MAX",
        "runner.py",
        "if denominator > INT64_MAX:",
        "if denominator >= INT64_MAX:",
        "3 does not divide 2**63 - 1, so 3mn never equals INT64_MAX",
    ),
]


def run_suite(tree: Path, *paths: str) -> subprocess.CompletedProcess:
    """Tier-1 with -x on the copy at tree, or only the test files at paths,
    importing crtcount from its src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *paths],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )


def last_line(proc: subprocess.CompletedProcess) -> str:
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else proc.stderr.strip()


def copy_tree(destination: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            skipped = shutil.ignore_patterns("__pycache__", "out")  # out/: benchmark runs
            shutil.copytree(source, destination / name, ignore=skipped)
        else:
            shutil.copy2(source, destination / name)


def main() -> int:
    stale = []
    for name, filename, old, *_ in MUTANTS + EQUIVALENT:
        found = (ROOT / "src" / "crtcount" / filename).read_text().count(old)
        if found != 1:
            stale.append(f"{name}: {old!r} occurs {found} times in {filename}")
    if stale:
        print("stale edits, nothing run:", *stale, sep="\n  ", flush=True)
        return 1

    killed = 0
    with tempfile.TemporaryDirectory(prefix="crtcount-mutants-") as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        baseline = run_suite(tree)
        if baseline.returncode != 0:
            print(f"unmutated suite fails, nothing run: {last_line(baseline)}", flush=True)
            return 1
        print(f"unmutated: {last_line(baseline)}", flush=True)
        for name, filename, old, new in MUTANTS:
            target = tree / "src" / "crtcount" / filename
            original = target.read_text()
            target.write_text(original.replace(old, new))
            owner = "api" if filename == "__init__.py" else filename.removesuffix(".py")
            try:
                proc = run_suite(tree, f"tests/test_{owner}.py")
                if proc.returncode == 0:
                    proc = run_suite(tree)
            finally:
                target.write_text(original)
            outcome = "killed" if proc.returncode != 0 else "survived"
            killed += proc.returncode != 0
            print(f"{outcome:8}  {name}  ({last_line(proc)})", flush=True)
    for name, *_, reason in EQUIVALENT:
        print(f"{'equivalent':8}  {name}  ({reason})", flush=True)
    survived = len(MUTANTS) - killed
    print(
        f"killed {killed} of {len(MUTANTS)}, survived {survived}, {len(EQUIVALENT)} equivalent not run",
        flush=True,
    )
    return 0 if survived == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
