#!/usr/bin/env bash
# Test coverage of src/: builds build-cov/ with --coverage -O0, runs the
# whole ctest suite, and reads the counters with gcov, which ships with gcc.
# Prints the unexecuted lines of each src/ module and every src/ function
# that no test calls, leaving out lambdas and Result<> instantiations.
# Exits non-zero when a never-called function is missing from the survivor
# list below; each survivor carries a one-line reason.
# Usage: scripts/coverage.sh [jobs]
set -euo pipefail

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"
root="$(cd "$(dirname "$0")/.." && pwd)"
dir="$root/build-cov"

cmake -S "$root" -B "$dir" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "$dir" -j "$jobs"
find "$dir" -name '*.gcda' -delete
ctest --test-dir "$dir" --output-on-failure -j "$jobs"

# Never-called functions that stay, one per line: the qualified name (no
# parameter list), " -- ", and why it stays.
survivors="$(cat <<'EOF'
dynopt::(anonymous namespace)::StateName -- names a crash outcome in a golden-twin mismatch message
dynopt::EmpiricalCost::Sample -- CostDistribution override; the Monte-Carlo validators sample only hyperbolas under test
dynopt::operator<< -- prints a Status in test failure messages
EOF
)"

python3 - "$root" "$dir" "$survivors" <<'PY'
import json, os, subprocess, sys
from collections import defaultdict

root, build, survivor_text = sys.argv[1], sys.argv[2], sys.argv[3]
src = os.path.join(root, "src") + os.sep

def qualified(name):
    """The demangled name without its parameter list and qualifiers."""
    end = name.rfind(")")
    depth = 0
    for i in range(end, -1, -1):
        depth += {")": 1, "(": -1}.get(name[i], 0)
        if depth == 0:
            return name[:i]
    return name

# Every object counts, tests included: an inline src/ function a test
# calls is reached even where a src/ object emits an uncalled copy.
lines = defaultdict(int)      # (file, line) -> max count over objects
calls = defaultdict(int)      # (file, qualified name) -> max count
for base, _, files in os.walk(build):
    for f in files:
        if not f.endswith(".gcda"):
            continue
        out = subprocess.run(["gcov", "--json-format", "--stdout",
                              os.path.join(base, f)],
                             capture_output=True, text=True, cwd=build,
                             check=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            for entry in json.loads(doc)["files"]:
                path = os.path.normpath(os.path.join(build, entry["file"]))
                if not path.startswith(src):
                    continue
                rel = path[len(src):]
                for ln in entry["lines"]:
                    key = (rel, ln["line_number"])
                    lines[key] = max(lines[key], ln["count"])
                for fn in entry["functions"]:
                    name = fn["demangled_name"]
                    if "lambda" in name or "Result<" in name:
                        continue
                    key = (rel, qualified(name))
                    calls[key] = max(calls[key], fn["execution_count"])

total = defaultdict(int)
missed = defaultdict(int)
for (rel, _), count in lines.items():
    module = rel.split(os.sep)[0]
    total[module] += 1
    missed[module] += count == 0
print("unexecuted lines by src/ module:")
for module in sorted(total, key=lambda m: -missed[m] / total[m]):
    print(f"  {module:12s} {missed[module]:5d} of {total[module]:5d}"
          f"  {100.0 * missed[module] / total[module]:5.1f}%")
all_missed, all_total = sum(missed.values()), sum(total.values())
print(f"  {'all':12s} {all_missed:5d} of {all_total:5d}"
      f"  {100.0 * all_missed / all_total:5.1f}%")

survivors = {}
for line in survivor_text.splitlines():
    if line.strip():
        name, _, reason = line.partition(" -- ")
        survivors[name.strip()] = reason.strip()
never = sorted({name for (rel, name), n in calls.items() if n == 0} -
               {name for (rel, name), n in calls.items() if n > 0})
unlisted = [n for n in never if n not in survivors]
print(f"\nfunctions never called: {len(never)}")
for name in never:
    print(f"  {name}" + (f"  -- {survivors[name]}" if name in survivors
                         else "  -- NOT ON THE SURVIVOR LIST"))
stale = sorted(set(survivors) - set(never))
for name in stale:
    print(f"  (survivor now called or gone: {name})")
if unlisted:
    print(f"\n{len(unlisted)} never-called function(s) missing from the "
          "survivor list in scripts/coverage.sh")
    sys.exit(1)
PY
