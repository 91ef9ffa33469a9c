#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload search_mix --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench); build output goes to stderr so the last
line of stdout stays the benchmark's JSON result. Every other argument is
passed to laminar_e2ebench unchanged.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "laminar_e2ebench", "laminar_serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_digest(root: Path) -> str:
    """Digest of the sources the benchmark builds and of its own files."""
    h = hashlib.sha256()
    for top in ("src", "examples", "e2ebench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def revision(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main() -> int:
    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "e2ebench"
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [str(build_dir / "laminar_e2ebench"),
           "--serve", str(build_dir / "laminar_serve"),
           "--config", str(HERE / "workloads.json"),
           "--work-dir", str(build_dir / "work"),
           "--manifest", str(root / "BENCHMARK.json"),
           "--source-digest", source_digest(HERE.parent),
           "--revision", revision(HERE.parent)] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
