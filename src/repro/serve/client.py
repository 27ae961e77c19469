"""Minimal line-protocol client for `repro serve`.

One function per op, each opening a fresh connection — the protocol is
stateless per request, so a trivial client is the honest one.  Used by
the integration tests, the CI smoke job, and the repository benchmark;
it is also the reference implementation for anyone speaking the protocol
from another language (see ``docs/serving.md``).
"""

from __future__ import annotations

import json
import socket
from pathlib import Path
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.serve.server import resolve_endpoint


def request(
    host: str,
    port: int,
    payload: Dict[str, Any],
    *,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Send one request line, read one response line."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.sendall(
                json.dumps(payload, sort_keys=True).encode("ascii") + b"\n"
            )
            with conn.makefile("rb") as reader:
                line = reader.readline()
    except OSError as exc:
        raise ReproError(
            f"serve request to {host}:{port} failed: {exc}"
        ) from exc
    if not line:
        raise ReproError(
            f"serve daemon at {host}:{port} closed the connection"
        )
    try:
        response = json.loads(line)
    except ValueError as exc:
        raise ReproError(f"malformed serve response: {line!r}") from exc
    if not isinstance(response, dict):
        raise ReproError(f"malformed serve response: {response!r}")
    return response


def verify(
    host: str,
    port: int,
    job: Dict[str, Any],
    *,
    wait: bool = True,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Submit a verify job (blocking for the verdict unless ``wait=False``)."""
    return request(
        host, port, {"op": "verify", "job": job, "wait": wait},
        timeout=timeout,
    )


def result(host: str, port: int, key: str,
           *, timeout: Optional[float] = None) -> Dict[str, Any]:
    """Fetch the memoized verdict for *key* (``pending`` if absent)."""
    return request(host, port, {"op": "result", "key": key}, timeout=timeout)


def status(host: str, port: int,
           *, timeout: Optional[float] = None) -> Dict[str, Any]:
    """Poll daemon health."""
    return request(host, port, {"op": "status"}, timeout=timeout)


def metrics(host: str, port: int,
            *, timeout: Optional[float] = None) -> str:
    """Scrape the daemon's Prometheus text exposition."""
    response = request(host, port, {"op": "metrics"}, timeout=timeout)
    if not response.get("ok"):
        raise ReproError(
            f"metrics scrape failed: {response.get('error', 'unknown error')}"
        )
    exposition = response.get("exposition")
    if not isinstance(exposition, str):
        raise ReproError(f"malformed metrics response: {response!r}")
    return exposition


def shutdown(host: str, port: int,
             *, timeout: Optional[float] = None) -> Dict[str, Any]:
    """Ask the daemon to stop gracefully (drains in-flight work, exit 0)."""
    return request(host, port, {"op": "shutdown"}, timeout=timeout)


def connect(data_dir: Path):
    """``(host, port)`` of the daemon serving *data_dir*."""
    return resolve_endpoint(Path(data_dir))
