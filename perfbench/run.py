#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds two binaries of the `perfbench`
package from source (offline): the default build, which gives the
end-to-end metrics, and the `traced` build, which compiles the
repository's work counters and stage histograms for the per-layer
metrics. Build products go to `$CARGO_TARGET_DIR` (default
`.bench_build`), in `plain/` and `traced/`.

With `--trace 0` the default binary runs the workload for `--seconds`.
With `--trace 1` the default binary first runs one round of the
workload's inputs for the untraced rate, then the traced binary runs the
same round with spans on; the spans go to `<target>/spans/`.

The last line of standard output is the benchmark's JSON result. Build
errors, a missing result or a failed output check exit non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(variant):
    """Builds one binary variant and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        raise RuntimeError("the repository's crates are missing; run from a full checkout")
    out = os.path.join(target_dir(), variant)
    cmd = ["cargo", "build", "--offline", "--locked", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", out]
    if variant == "traced":
        cmd += ["--features", "traced"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    # Build output goes to stderr so the result stays the last stdout line.
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return os.path.join(out, "release", "perfbench")


def run(binary, args, capture):
    proc = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not capture:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{os.path.basename(binary)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    try:
        plain = build("plain")
        traced = build("traced")
        common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
        if a.trace == 0:
            run(plain, common + ["--trace", "0"], capture=False)
            return 0
        reference = run(plain, common + ["--trace", "0", "--rounds", "1"], capture=True)
        rate = reference["metrics"]["slots_per_s"]["value"]
        spans_dir = os.path.join(target_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{a.workload}-seed{a.seed}.jsonl")
        run(traced, common + ["--trace", "1", "--untraced-slots-per-s", repr(rate),
                              "--spans", spans], capture=False)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
