"""Child processes: wall time and peak RSS from wait4, and cleanup."""

import os
import subprocess
import tempfile
import threading
import time


class ChildError(RuntimeError):
    pass


def run(args, cwd, stdout=subprocess.DEVNULL, timeout=120.0):
    """Runs a command to completion; returns (wall_s, peak_rss_mib). Raises
    ChildError on a non-zero exit or a timeout (after killing the child)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, stdout=stdout, stderr=err)
        status, rss = wait(proc, timeout)
        wall = time.perf_counter() - start
        if status != 0:
            err.seek(0)
            text = err.read().decode(errors="replace").strip()
            raise ChildError("%s exited %d: %s" % (os.path.basename(args[0]), status, text[-500:]))
    return wall, rss


def wait(proc, timeout):
    """Reaps ``proc`` with wait4; returns (exit code, peak RSS in MiB). Kills
    it if it is still running after ``timeout`` seconds."""
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted (SIGTERM, ^C): leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        with lock:
            reaped = True
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0
