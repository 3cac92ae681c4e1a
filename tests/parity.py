"""Byte parity of two source trees on a fixed command-line corpus.

    python tests/parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a gropes package, such as the
src directories of two checkouts.  Every run is `python -m gropes ...` with
PYTHONPATH set to one of them, on the same input and with the same --trace
path, and the exit code, stdout, stderr and trace bytes must match.  Each
step reads the old tree's output of the step before it, so one difference
does not hide the rest.  The script prints the number of runs and the first
difference, and exits 1 on any difference.

The corpus: generate on seeds 1-100, a tenth of them adversarial; pipeline
--trace on each kernel (--force on the adversarial ones); split --trace on
each kernel's first grope; tips, class, boundary, render and validate on
each split document; lcs on inverted commutators and products, and on words
with --word.  It takes a few minutes.  Standard library only; pytest does
not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = range(1, 101)
EXPRESSIONS = [
    "[x1,x2]^-1",
    "[[x1,x2]^-1,x3]",
    "[x1,[x2,x3]^-1]^-1",
    "[x1^-1,x2^-1]^-1",
    "[[x1,x2],x1]^-2",
    "[[x1,x2],[x3,x4]]^-1",
    "[x1,x2]*[x3,x4]^-1",
    "([x1,x2]*[x2,x3])^-1",
    "[[x1,x2]*[x1,x3],x4]^-1",
    "[[[x1,x2],x3]^-1,x4]*[x1,x4]",
    "([[x1,x2],x3]*[x2,x3]^-1)^-1",
    "[x1,x2",
]
WORDS = ["x1*x2*x1^-1*x2^-1", "x2*x1*x2^-1*x1^-1*x3", "x1^3*x2^-3", "1", "x1*x1^-1"]


def generate_argv(seed: int) -> list[str]:
    """Small kernels: labels 1-3 and one or two pairs; every tenth seed adversarial."""
    argv = ["generate", "--seed", str(seed)]
    if seed % 10 == 0:
        return argv + ["--labels", str(2 + seed // 10 % 3), "--adversarial"]
    return argv + ["--labels", str(1 + seed % 3), "--pairs", str(1 + seed % 2)]


class Parity:
    """Runs each command under both trees and keeps the first difference."""

    def __init__(self, old: str, new: str, work: Path):
        self.trees = (old, new)
        self.work = work
        self.trace = work / "trace.jsonl"
        self.runs = 0
        self.first: str | None = None

    def file(self, name: str, data: bytes) -> str:
        path = self.work / name
        path.write_bytes(data)
        return str(path)

    def run(self, argv: list[str]) -> bytes:
        """Run argv under both trees and return the old tree's stdout.

        A "{trace}" in argv stands for the trace path, the same for both.
        """
        argv = [str(self.trace) if a == "{trace}" else a for a in argv]
        outcomes = []
        for src in self.trees:
            self.trace.unlink(missing_ok=True)
            env = {**os.environ, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "gropes", *argv], capture_output=True, env=env
            )
            trace = self.trace.read_bytes() if self.trace.exists() else None
            outcomes.append((proc.returncode, proc.stdout, proc.stderr, trace))
        self.runs += 1
        if self.first is None and outcomes[0] != outcomes[1]:
            fields = ("exit code", "stdout", "stderr", "trace")
            differ = [f for f, a, b in zip(fields, *outcomes) if a != b]
            self.first = f"gropes {' '.join(argv)}: {', '.join(differ)} differ"
        return outcomes[0][1]


def corpus(p: Parity) -> None:
    for seed in SEEDS:
        gen = generate_argv(seed)
        kernel = p.run(gen)
        kernel_path = p.file(f"kernel{seed}.json", kernel)
        force = ["--force"] if "--adversarial" in gen else []
        p.run(["pipeline", *force, "--trace", "{trace}", kernel_path])
        try:
            first = json.loads(kernel)["gropes"][0]
        except (ValueError, LookupError, TypeError):
            continue  # generate refused; the difference, if any, is already recorded
        grope_path = p.file(f"grope{seed}.json", json.dumps(first).encode())
        split = p.file(f"split{seed}.json", p.run(["split", "--trace", "{trace}", grope_path]))
        for command in ("tips", "class", "boundary", "render", "validate"):
            p.run([command, split])
    for text in EXPRESSIONS:
        p.run(["lcs", text])
    for text in WORDS:
        p.run(["lcs", "--word", text])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tests/parity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = (str(Path(a).resolve()) for a in argv)
    with tempfile.TemporaryDirectory() as work:
        p = Parity(old, new, Path(work))
        corpus(p)
    print(f"{p.runs} runs, each under both trees")
    if p.first is not None:
        print(f"first difference: {p.first}")
        return 1
    print("no differences")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
