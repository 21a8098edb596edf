#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch_dblp --seed 1 --seconds 30 --trace 0

Every flag is forwarded to the maroon_perfbench program (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; relative paths resolve
against the repository root. Build output goes to stderr, so the last line
of stdout is the run's JSON result. Exits non-zero without a result when the
build or the run fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"


def build_root() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(build_dir: Path) -> Path:
    """Configures (once) and builds maroon_perfbench; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the maroon sources (CMakeLists.txt, src/) are "
                 "not next to perfbench/; nothing to build")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "maroon_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "maroon_perfbench"


def main() -> int:
    out = build_root()
    try:
        binary = build(out / "build")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", str(out / "work")]
    return subprocess.run([str(binary), *args], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
