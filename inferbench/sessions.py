"""Two-party sessions that serve the benchmark's requests.

A request is one two-party session carrying a workload's batch of
inputs.  ``InProcSession`` makes each request one ``nn.private_inference``
call (two threads, in-process channel pair).  ``TcpSession`` runs party 1
in one child process (``party1.py``) and keeps one loopback TCP
connection open for every request of the session; each request is one
``nn.inference_party`` run per side.
"""

import json
import socket
import subprocess
import sys
from pathlib import Path

from mpcadapter import nn, runtime

HOST = "127.0.0.1"
CHILD_TIMEOUT_S = 60.0
PARTY1 = Path(__file__).resolve().parent / "party1.py"


class InProcSession:
    def __init__(self, workload, weights):
        self.workload = workload
        self.weights = weights

    def request(self, seed, features):
        """Run one request; returns (result of party 0, meter rounds and
        bytes of party 0, and of party 1 or None if not known yet)."""
        result, (m0, m1) = nn.private_inference(self.workload.config, self.weights,
                                                features, seed)
        return result, m0.snapshot(), m1.snapshot()

    def close(self):
        """Nothing outlives a request; returns the (empty) child report."""
        return {}


def _free_port():
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class TcpSession:
    """Party 0 here, party 1 in a child; the child derives the weights and
    every request seed from the workload seed, as party 0 does."""

    def __init__(self, workload, seed, trace_path=None):
        self.workload = workload
        port = _free_port()
        cmd = [sys.executable, str(PARTY1), "--workload", workload.name,
               "--seed", str(seed), "--port", str(port)]
        if trace_path:
            cmd += ["--trace", str(trace_path)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            self.channel = runtime.tcp_channel(0, HOST, port)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def request(self, seed, features):
        snap = self.channel.meter.snapshot()
        protocol = nn.inference_party(0, self.workload.config, seed,
                                      features=features)
        try:
            result = protocol(self.channel)
        except Exception as e:
            # Let party 1 end the request too; the session serves no more.
            self.channel.abort(f"party 0: {e!r}")
            raise
        return result, self.channel.meter.since(snap), None

    def close(self):
        """Close the connection, wait for the child and return its report:
        per-request meters of party 1 for the requests it completed, its
        peak RSS and, when traced, its per-layer metrics."""
        self.channel.end.close()
        try:
            out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("party 1 did not exit after the connection closed")
        if self.proc.returncode != 0:
            raise RuntimeError(f"party 1 exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])
