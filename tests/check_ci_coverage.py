#!/usr/bin/env python3
"""Fails when a bench or example program runs nowhere in CI.

    python3 tests/check_ci_coverage.py [repo_root]

Lists every nk_add_bench target in bench/CMakeLists.txt and every
nk_add_example target in examples/CMakeLists.txt. Each must be named in a
`run:` command of .github/workflows/ci.yml, or be on UNGATED below with the
reason no CI step gates it. An UNGATED entry that names no target is an
error too, so the list cannot go stale. Exits 0 when every target is
covered, 1 otherwise (printing the offenders).
"""
import os
import re
import sys

# Targets no CI step gates, and why. CI may still run them for artifacts.
_MICROBENCH = ("wall-clock microbench; its gate waits for noise-floor "
               "comparisons (ROADMAP item 6)")
UNGATED = {
    "table1_memcpy_latency": _MICROBENCH,
    "nqe_copy": _MICROBENCH,
    "shm_throughput": _MICROBENCH,
    "fig5_flexibility": "the full run takes 170-199 s and has no smoke "
                        "mode yet (ROADMAP items 3 and 8)",
}


def targets(path, function):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return re.findall(rf"^\s*{function}\(\s*([A-Za-z0-9_]+)", text, re.M)


def run_commands(path):
    """The text of every `run:` command in a workflow file."""
    out = []
    block_indent = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            indent = len(line) - len(line.lstrip())
            if block_indent is not None:
                if not line.strip() or indent > block_indent:
                    out.append(line)
                    continue
                block_indent = None
            m = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
            if not m:
                continue
            rest = m.group(2).strip()
            if rest[:1] in ("|", ">"):
                block_indent = len(m.group(1))
            else:
                out.append(rest)
    return "\n".join(out)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    names = (targets(os.path.join(root, "bench", "CMakeLists.txt"),
                     "nk_add_bench") +
             targets(os.path.join(root, "examples", "CMakeLists.txt"),
                     "nk_add_example"))
    ci = run_commands(os.path.join(root, ".github", "workflows", "ci.yml"))
    missing = [n for n in names if n not in UNGATED and
               not re.search(rf"(?<![\w.-]){n}(?![\w.-])", ci)]
    stale = sorted(set(UNGATED) - set(names))
    for n in missing:
        print(f"check_ci_coverage: {n} runs in no CI step; run it in "
              f".github/workflows/ci.yml or list it in UNGATED with a reason")
    for n in stale:
        print(f"check_ci_coverage: UNGATED lists {n}, which is no target")
    if not names:
        print("check_ci_coverage: found no bench or example targets")
        return 1
    if missing or stale:
        return 1
    print(f"check_ci_coverage: {len(names)} targets, "
          f"{len(names) - len(UNGATED)} run in CI, {len(UNGATED)} listed "
          f"as ungated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
