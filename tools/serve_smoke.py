"""CI smoke test for the serving daemon.

Starts ``python -m repro serve`` as a real subprocess on a unix socket,
fires 32 concurrent requests from mixed tenants (many sharing one
artifact fingerprint so coalescing must engage), then SIGTERMs the
daemon and asserts a clean drain:

* every request got a response (ok or an explicit shed with
  ``retry_after_ms`` -- never a hang, never a closed socket mid-line);
* the coalescing counter is > 0 (identical concurrent requests shared
  one computation);
* the daemon exits 0 on SIGTERM within the grace period.

Exit status 0 on success; prints a one-line verdict either way.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.robustness.chaos import spawn, wait_serving  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

CONCURRENCY = 32
QUERY = "2D_Q91"


def fire(path, index, responses):
    tenant = "tenant-%d" % (index % 4)
    try:
        with ServeClient(path=path, timeout=60.0,
                         raise_errors=False) as client:
            responses[index] = client.run(
                QUERY, tenant=tenant, resolution=12,
                deadline_ms=45000)
    except Exception as exc:  # any transport failure is a verdict
        responses[index] = {"ok": False, "error": "transport",
                            "message": str(exc)}


def main():
    sock = os.path.join(tempfile.mkdtemp(prefix="repro-serve-"),
                        "smoke.sock")
    daemon = spawn(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--max-inflight", "4", "--max-queue", "64",
         "--tenant-burst", "64", "--tenant-rate", "64",
         "--default-deadline", "60000"])
    try:
        wait_serving(sock, timeout=30.0)
        responses = [None] * CONCURRENCY
        threads = [threading.Thread(target=fire,
                                    args=(sock, i, responses))
                   for i in range(CONCURRENCY)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        unanswered = sum(1 for r in responses if r is None)
        ok = sum(1 for r in responses if r and r.get("ok"))
        shed = [r for r in responses
                if r and not r.get("ok")
                and r.get("error") in ("overloaded", "draining")]
        bad = [r for r in responses
               if r and not r.get("ok")
               and r.get("error") not in ("overloaded", "draining")]
        coalesced = sum(1 for r in responses
                        if r and r.get("coalesced"))
        with ServeClient(path=sock, timeout=10.0) as client:
            stats = client.stats()
        counter = stats["coalescing"]["coalesced"]

        daemon.send_signal(signal.SIGTERM)
        try:
            exit_code = daemon.wait(30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            print("FAIL: daemon did not drain on SIGTERM")
            return 1

        failures = []
        if unanswered:
            failures.append("%d requests unanswered" % unanswered)
        if bad:
            failures.append("unexpected errors: %r" % bad[:3])
        if not ok:
            failures.append("no request succeeded")
        if counter <= 0:
            failures.append("coalescing counter is %d" % counter)
        if any(r.get("retry_after_ms") is None for r in shed):
            failures.append("shed response without retry_after_ms")
        if exit_code != 0:
            failures.append("daemon exit code %d" % exit_code)
        verdict = ("ok=%d shed=%d coalesced(client)=%d "
                   "coalesced(counter)=%d exit=%d"
                   % (ok, len(shed), coalesced, counter, exit_code))
        if failures:
            print("FAIL: %s [%s]" % ("; ".join(failures), verdict))
            return 1
        print("PASS: %s" % verdict)
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    sys.exit(main())
