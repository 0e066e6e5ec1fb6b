"""Run a Python command from a small process, so that its max RSS is its own.

A child's max RSS starts at its parent's resident size.  Started from
pytest, which holds tens of MB, a command would read pytest's size as its
peak, and growth in its own RUSAGE_SELF would read 0 up to that size.  The
launcher holds about 10 MB, below any bound the tests set.
"""

import subprocess
import sys

_LAUNCHER = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:]).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def launch(*argv, stdout=subprocess.PIPE) -> subprocess.Popen:
    """Start ``python *argv`` under the launcher, so that commands can run at once."""
    return subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE
    )


def finish(proc: subprocess.Popen, timeout: float = 120) -> tuple[bytes, int]:
    """The command's stdout and its max RSS in KiB, once it has exited 0."""
    out, err = proc.communicate(timeout=timeout)
    assert proc.returncode == 0, err.decode()
    return out, int(err.split()[-1])
