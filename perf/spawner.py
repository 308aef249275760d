"""The benchmark's spawner: starts, times and reaps every child run.

``wait4`` reports a child's peak RSS including the memory of the
process that started it: ``subprocess`` starts children with vfork, and
Linux folds the starting address space's high-water mark into the
child's at exec.  The harness grows as it reads stores and imports
``repro``, so children are started by this small interpreter instead.
It is a plain subprocess of the harness (``multiprocessing`` would leave
a resource-tracker process behind), speaking one JSON line per request
and per reply::

    request:  {"argv": [...], "stdout": PATH}
    reply:    {"ok": ChildRun fields} or {"error": TEXT}

It exits when its stdin closes, or on SIGTERM, which it also gets when
the harness dies; a child still running is killed and reaped first.
Each child leads its own session, and
the spawner is the child subreaper of everything the child starts, so
after a run it kills what is left of the child's process group (pool
workers, resource trackers) and reaps it: no process outlives its run.
"""

import ctypes
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"

#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_S = 120.0
#: How long the leftovers of a child's process group may take to die.
REAP_TIMEOUT_S = 30.0
#: ``prctl`` options: the signal sent when the parent dies, and adopting
#: orphaned descendants.
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


@dataclass
class ChildRun:
    returncode: int
    launch: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    #: stderr lines with the spawner's ``perf_counter`` at arrival (the
    #: same clock as the harness's on Linux).
    lines: List[Tuple[float, str]]
    load_before: List[float]
    load_after: List[float]


def child_env() -> Dict[str, str]:
    # No inherited REPRO_STORE_DIR or REPRO_FLIGHT_DIR may send a
    # child's writes outside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def loadavg() -> List[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return []


def run_child(argv: List[str], stdout_path: str) -> ChildRun:
    """Run one child to completion, timestamping its stderr lines.

    On a timeout or an interrupt the child's whole group is killed;
    on every path out, what is left of the group is reaped.
    """
    load_before = loadavg()
    env = child_env()
    with open(stdout_path, "w+", encoding="utf-8") as out:
        launch = time.perf_counter()
        env["PERF_LAUNCH"] = repr(launch)
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=out,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            lines = _read_lines(proc.stderr, launch + CHILD_TIMEOUT_S)
            # stderr reached end-of-file: the child is exiting.
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            _kill_group(proc.pid)
            proc.returncode = -signal.SIGKILL  # reaped below
            raise
        finally:
            proc.stderr.close()
            reap_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return ChildRun(
        returncode=proc.returncode,
        launch=launch,
        wall_s=end - launch,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        lines=lines,
        load_before=load_before,
        load_after=loadavg(),
    )


def _read_lines(pipe, deadline: float) -> List[Tuple[float, str]]:
    fd = pipe.fileno()
    lines: List[Tuple[float, str]] = []
    pending = b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError(f"child still running after {CHILD_TIMEOUT_S}s")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        now = time.perf_counter()
        if not chunk:
            break
        *complete, pending = (pending + chunk).split(b"\n")
        lines.extend((now, line.decode("utf-8", "replace")) for line in complete)
    if pending:
        lines.append((time.perf_counter(), pending.decode("utf-8", "replace")))
    return lines


def _kill_group(pgid: int) -> bool:
    """SIGKILL every process of the group; False once none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        return True
    except ProcessLookupError:
        return False


def reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it
    is gone, reaping the members that were reparented to this process
    (all of them, where the subreaper could be set)."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while _kill_group(pgid):
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass  # no children left; the rest belong to another reaper
        if time.monotonic() > deadline:
            raise TimeoutError(f"process group {pgid} still alive")
        time.sleep(0.005)


def attach() -> None:
    """Adopt orphaned descendants, so they can be reaped here, and get
    SIGTERM if the harness dies (Linux ``prctl``; elsewhere orphans go to
    init, and ``reap_group`` still waits until they are gone)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def serve(requests, replies) -> None:
    """One child per request line until the request stream ends."""
    for line in requests:
        request = json.loads(line)
        try:
            run = run_child(request["argv"], request["stdout"])
            reply = {"ok": asdict(run)}
        except Exception as error:  # noqa: BLE001 — reported to the harness
            reply = {"error": repr(error)}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def _terminate(signum, frame):
    # Unwinds through run_child, which kills and reaps the running child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    attach()
    serve(sys.stdin, sys.stdout)
