"""Checks that need a fresh interpreter: a time limit on a whole run, another
int-from-str limit or hash seed, or the peak memory of one workload."""

import compileall
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import logsine

SRC = str(Path(logsine.__file__).resolve().parents[1])


def run_fresh(args, code=0, *, env=None, timeout=60, stdin=""):
    """Run ``python -m logsine *args``, or the program ``args`` when it is a str,
    in a new interpreter with the package on its path and ``env`` set, which may put
    another copy of it there (:func:`compiled_copy`), and assert
    that it exits ``code`` within ``timeout`` seconds, with at most one line on
    stderr and no traceback.  Returns the finished process.

    The interpreter is started from sh, so that its ru_maxrss is its own: Linux
    starts a child's at its parent's resident set, which is pytest's here.  Its
    own session lets a timeout stop it too, not only the shell."""
    argv = ["-c", args] if isinstance(args, str) else ["-m", "logsine", *args]
    with subprocess.Popen(["sh", "-c", '"$@" || exit', "sh", sys.executable, *argv],
                          env={**os.environ, "PYTHONPATH": SRC, **(env or {})}, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert (proc.returncode, "Traceback" in err) == (code, False), err
    assert err.count("\n") <= 1, err
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def compiled_copy(dest: Path) -> str:
    """Copy the package into ``dest`` and compile it to bytecode there; returns the
    directory to put on PYTHONPATH.  An interpreter that imports it reads the .pyc files,
    whether or not it may write bytecode, so the peak of compiling from source, which
    comes before any reading a program takes after its imports, cannot hide what it grows."""
    shutil.copytree(Path(SRC) / "logsine", dest / "logsine", ignore=shutil.ignore_patterns("__pycache__"))
    compiled = compileall.compile_dir(dest / "logsine", quiet=1)
    assert compiled, "the package did not compile"
    return str(dest)
