"""Builds saga and the helper binary from the checkout, and stamps results
with the machine and build they came from."""

import hashlib
import os
import platform
import subprocess
import sys

BUILD_SUBDIR = os.path.join(".bench_build", "perfbench")
# Trees whose content defines the build, for the source digest (the
# benchmark may run from a checkout that is not a git repository).
SOURCE_TREES = ["CMakeLists.txt", "src", "tools", "perfbench/CMakeLists.txt", "perfbench/src"]


class BuildError(RuntimeError):
    pass


class Build:
    """Paths of one configured and built benchmark tree."""

    def __init__(self, root):
        self.root = root
        self.dir = os.path.join(root, BUILD_SUBDIR)
        self.saga = os.path.join(self.dir, "saga", "tools", "saga")
        self.tool = os.path.join(self.dir, "perfbench_tool")

    def ensure(self):
        """Configures (once) and builds saga_cli and perfbench_tool. Compiler
        output goes to stderr so stdout stays the result channel."""
        if not os.path.isfile(os.path.join(self.root, "src", "CMakeLists.txt")):
            raise BuildError("no saga sources in %s" % self.root)
        if not os.path.isfile(os.path.join(self.dir, "CMakeCache.txt")):
            self._run(["cmake", "-S", os.path.join(self.root, "perfbench"), "-B", self.dir,
                       "-DCMAKE_BUILD_TYPE=Release"])
        self._run(["cmake", "--build", self.dir, "-j", str(os.cpu_count() or 1),
                   "--target", "saga_cli", "perfbench_tool"])
        for path in (self.saga, self.tool):
            if not os.access(path, os.X_OK):
                raise BuildError("build produced no %s" % path)

    def _run(self, args):
        proc = subprocess.run(args, cwd=self.root, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BuildError("%s failed with exit code %d" % (" ".join(args), proc.returncode))

    def cache(self):
        """CMakeCache.txt entries as a dict."""
        entries = {}
        with open(os.path.join(self.dir, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith(("#", "//")) or "=" not in line:
                    continue
                key, _, value = line.rstrip("\n").partition("=")
                entries[key.partition(":")[0]] = value
        return entries


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest(root):
    """sha256 over the relative paths and bytes of the build's source trees."""
    digest = hashlib.sha256()
    for tree in SOURCE_TREES:
        path = os.path.join(root, tree)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path) for name in names)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def stamp(build, workload, seed, trace, seconds):
    """Machine and build identity of a result."""
    cache = build.cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS", ""),
                                   cache.get("CMAKE_CXX_FLAGS_%s" % build_type.upper(), "")]))
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": (version.stdout.splitlines() or [compiler])[0],
        "flags": flags,
        "build_type": build_type,
        "git_sha": git_sha(build.root),
        "source_digest": source_digest(build.root),
        "saga_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("SAGA_")},
        "python": platform.python_version(),
    }
