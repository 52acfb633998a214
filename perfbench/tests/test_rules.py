"""The benchmark's accounting and failure-counting rules."""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from perfbench import checks, common
from perfbench.commands import Commands
from perfbench.batch import Batch, TINY as BATCH_TINY


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return os.getpid()


def test_cpu_and_rss_count_workers_once_reaped():
    before = common.cpu_seconds()
    pool = ProcessPoolExecutor(max_workers=1)
    worker = pool.submit(_burn, 0.4).result()
    # Like ExecPool.close: the pool is told to stop, nobody waits.
    pool.shutdown(wait=False)
    common.reap_workers(timeout_s=30)
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)
    assert common.cpu_seconds() - before >= 0.35
    assert common.peak_rss_mb(include_self=False) > 0


def test_reap_workers_gives_up_on_a_worker_that_never_exits():
    import multiprocessing

    process = multiprocessing.Process(target=time.sleep, args=(30,))
    process.start()
    try:
        with pytest.raises(RuntimeError):
            common.reap_workers(timeout_s=0.2)
    finally:
        process.kill()
        process.join(timeout=10)
    assert not process.is_alive()


@pytest.mark.parametrize("status, document, tier", [
    (429, {"error": {"kind": "queue_full"}}, 1),
    (500, {}, 0),
    (200, {"source": "model_fallback", "degraded": "deadline",
           "record": {"source": "model_fallback"}}, 2),
    (200, {"source": "model_fallback", "degraded": None,
           "record": {"source": "model_fallback"}}, 0),
    (200, {"source": "failed", "degraded": None,
           "record": {"source": "failed"}}, 2),
])
def test_failed_answers_count_as_failed(status, document, tier):
    assert checks.response_failed(status, document, tier)


def test_good_answers_do_not_count_as_failed():
    assert not checks.response_failed(
        200, {"source": "simulation", "degraded": None,
              "record": {"source": "simulation"}}, 1)
    assert not checks.response_failed(
        200, {"source": "model", "degraded": None,
              "record": {"source": "model"}}, 0)


def test_non_zero_exit_counts_as_failed(tmp_path):
    commands = Commands(1, tmp_path)
    ok = (0, "", "", 0.5)
    phase = {"rounds": [{"cold": [ok, (2, "", "error", 0.4), ok],
                         "warm": [ok, ok, (1, "", "", 0.3)]}]}
    assert commands.outcome(phase) == (6, 2)


def test_non_simulation_record_counts_as_failed(tmp_path):
    batch = Batch(1, tmp_path, BATCH_TINY)
    batch.setup(traced=False)
    good = {"source": "simulation"}
    grid = [good] * len(batch.grid)
    grid[0] = {"source": "model_fallback"}
    lookups = [{"record": good, "hit": True, "ms": 0.3}] * batch.points
    lookups[-1] = {"record": {"source": "failed"}, "hit": True, "ms": 0.3}
    lookups[-2] = {"record": good, "hit": False, "ms": 90.0}
    phase = {"rounds": [{"grid": grid, "lookups": lookups}]}
    # The points and their look-ups: a fallback grid point, a shard whose
    # record is no simulation, and a look-up the cache did not answer.
    assert batch.outcome(phase) == (2 * batch.points, 3)


def test_server_cpu_counts_its_workers(tmp_path):
    import subprocess
    import sys

    script = tmp_path / "tree.py"
    script.write_text(
        "import os, sys, time\n"
        "def burn(seconds):\n"
        "    end = time.process_time() + seconds\n"
        "    while time.process_time() < end:\n"
        "        pass\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    burn(0.4)\n"
        "    print('burnt', flush=True)\n"
        "    time.sleep(30)\n"
        "    os._exit(0)\n"
        "sys.stdin.readline()\n"
        "os.kill(pid, 9)\n"
        "os.waitpid(pid, 0)\n")
    proc = subprocess.Popen([sys.executable, str(script)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        assert proc.stdout.readline().strip() == "burnt"
        # The worker is alive and not yet reaped: counted through /proc.
        assert common.tree_cpu_seconds(proc.pid) >= 0.35
    finally:
        proc.communicate("stop\n", timeout=30)
    assert proc.returncode == 0
