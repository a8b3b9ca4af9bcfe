"""Find a Python 3.10 interpreter, for the tests that run the package
under the oldest version it supports.

A pyenv shim for python3.10 runs nothing unless a 3.10 version is
selected, so when the plain call fails the finder selects an installed
3.10.* through PYENV_VERSION and tries once more.
"""

import shutil
import subprocess

import pytest


def python_3_10(env):
    """The python3.10 on PATH and the environment to run it in: env, with
    PYENV_VERSION set if a pyenv shim needs it.  Skips the calling test
    when no Python 3.10 runs."""
    exe = shutil.which("python3.10")
    if exe is None:
        pytest.skip("python3.10 is not on PATH")
    env = dict(env)

    def probe():
        return subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                              capture_output=True, text=True, timeout=30, env=env)

    started = probe()
    if started.stdout.strip() != "(3, 10)" and shutil.which("pyenv"):
        installed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True,
                                   text=True, timeout=30).stdout.split()
        version = next((v for v in installed if v.startswith("3.10.")), None)
        if version is not None:
            env["PYENV_VERSION"] = version
            started = probe()
    if started.stdout.strip() != "(3, 10)":
        pytest.skip(f"python3.10 on PATH does not run: {started.stderr.strip()[:80]!r}")
    return exe, env
