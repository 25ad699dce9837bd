"""The four workloads: what each sets up, what one pass of it runs, and
how each result is checked.

Only ``repro.sql``, ``repro.tpch`` and ``python -m repro.serve`` are
used here — the end-to-end numbers never depend on a per-layer probe.
Every workload is a closed loop: the next statement or request is sent
when the previous one has been answered.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from benchmarks.perf import GOLDEN, engine_env, oracle
from benchmarks.perf.spans import Recorder
from benchmarks.perf.statements import (
    SERVE_CLASSES,
    SERVE_MIX,
    SERVE_ROWS,
    SERVE_WIN_LARGE,
    TPCH_SCALE,
    TPCH_SCAN_AGG,
    TPCH_SMOKE_SCALE,
    WINDOW_ROWS,
    WINDOW_STATEMENTS,
)

#: Load-generating threads/connections of serve_mixed's loaded phase.
CLIENTS = min(os.cpu_count() or 1, 4)


class Pass(NamedTuple):
    """One pass over a workload's statement set."""
    wall: float                          # seconds, whole pass
    ops: List[Tuple[str, float]]         # (statement/class, seconds)
    #: serve_mixed, traced runs only: the same sequence again, dealt to
    #: CLIENTS concurrent callers.
    loaded_wall: float = 0.0
    loaded_ops: Sequence[Tuple[str, float]] = ()
    #: Engine-side ``QueryStats`` dicts, one per op (traced passes).
    stats: Sequence[Dict[str, Any]] = ()
    #: window_build only: seconds spent opening and closing the fresh
    #: sessions — inside ``wall``, outside every statement's time.
    session_s: float = 0.0


def rows_digest(rows: Sequence[Sequence[Any]]) -> str:
    """sha256 of a result's ``to_rows()``; ``repr`` of a float is its
    shortest round-trip form, so equal digests mean equal bits."""
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


def raw_columns(table: Any) -> Dict[str, np.ndarray]:
    """A table's columns as the arrays the numpy oracle works on."""
    return {f.name: table[f.name].raw() for f in table.schema}


def _table_digest(table: Any) -> str:
    """Content hash of a table or result (every row, NULL masks too),
    computed here so that the end-to-end run needs nothing from
    ``repro.cache``."""
    h = hashlib.sha256()
    for field in table.schema:
        column = table[field.name]
        raw = column.raw()
        h.update(field.name.encode())
        h.update(raw.tobytes() if isinstance(raw, np.ndarray)
                 else repr(raw).encode())
        h.update(column.validity.tobytes())
    return h.hexdigest()


class Workload:
    """Shared bookkeeping; subclasses fill in the four hooks."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 2

    def __init__(self, seed: int, smoke: bool = False,
                 golden_dir: Optional[str] = None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.golden_dir = golden_dir
        self.attempted = 0
        self.errors: List[str] = []
        #: Seconds the last set-up spent in the seeded data generator.
        self.gen_s = 0.0

    # hooks ------------------------------------------------------------
    def setup(self) -> None:
        """Data generation + session/server start + warm-up."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Check the warm-up's results against the oracle (untimed)."""
        raise NotImplementedError

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def gateway_shed(self) -> int:
        """Queries the admission gateway has refused so far."""
        session = getattr(self, "session", None)
        return session.gateway.stats().shed if session is not None else 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # helpers ----------------------------------------------------------
    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"  FAILED {message}", file=sys.stderr)

    def _execute(self, session: Any, name: str, sql: str,
                 rec: Optional[Recorder], stats: List[Dict[str, Any]]
                 ) -> Tuple[Optional[Any], float]:
        """One statement through ``Session.execute``; traced when a
        recorder is given. An exception is a counted failure."""
        self.attempted += 1
        try:
            if rec is None:
                start = time.perf_counter()
                result = session.execute(sql)
                return result, time.perf_counter() - start
            from repro.sql import QueryOptions
            with rec.span("Session.execute", stmt=name,
                          layer="repro.sql") as span:
                start = time.perf_counter()
                result = session.execute(sql,
                                         options=QueryOptions(trace=True))
                elapsed = time.perf_counter() - start
            rec.adopt(result.trace_dict(), span)
            span["attrs"]["rows"] = result.num_rows
            stats.append(result.stats.to_dict())
            return result, elapsed
        except Exception as exc:  # boundary: count it, keep measuring
            self.fail(f"{self.name}/{name}: {type(exc).__name__}: {exc}")
            return None, 0.0


# ----------------------------------------------------------------------
# window_probe / window_build
# ----------------------------------------------------------------------
class _Window(Workload):
    """Set W over ``lineitem``; warm (one session) or cold (a fresh
    session per statement)."""

    cold = False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.rows = 2_000 if self.smoke else WINDOW_ROWS
        self.session = None
        self.table = None
        self.warm: Dict[str, Any] = {}
        self.digests: Dict[str, str] = {}

    def _open(self) -> Any:
        from repro.sql import Catalog, Session
        return Session(Catalog({"lineitem": self.table}))

    def setup(self) -> None:
        from repro.tpch import lineitem
        start = time.perf_counter()
        self.table = lineitem(self.rows, seed=self.seed)
        self.gen_s = time.perf_counter() - start
        if not self.cold:
            self.session = self._open()
        self.warm = {}
        for stmt, result in zip(WINDOW_STATEMENTS, self._results(None, [])):
            self.warm[stmt.name] = result[0]

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _results(self, rec: Optional[Recorder], stats: List[Dict[str, Any]]):
        """Run W once; yields (result, seconds, open+close seconds)."""
        for stmt in WINDOW_STATEMENTS:
            if not self.cold:
                yield (*self._execute(self.session, stmt.name, stmt.sql,
                                      rec, stats), 0.0)
                continue
            start = time.perf_counter()
            session = self._open()
            around = time.perf_counter() - start
            try:
                result, seconds = self._execute(session, stmt.name,
                                                stmt.sql, rec, stats)
            finally:
                start = time.perf_counter()
                session.close()
                around += time.perf_counter() - start
            yield result, seconds, around

    def verify(self) -> None:
        cols = raw_columns(self.table)
        sample = oracle.sample_rows(self.rows, self.seed)
        for stmt in WINDOW_STATEMENTS:
            result = self.warm.get(stmt.name)
            if result is None:
                continue  # already counted when it raised
            actual = {c: [result[c][r] for r in sample]
                      for c in stmt.outputs}
            wrong = oracle.mismatches(stmt, cols, sample, actual)
            if wrong:
                self.fail(f"{self.name}: {len(wrong)} of {len(sample)} "
                          f"sampled rows wrong, e.g. {wrong[0]}")
            self.digests[stmt.name] = _table_digest(result.table)
        self.warm = {}

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        ops, stats, seen, session_s = [], [], [], 0.0
        start = time.perf_counter()
        for stmt, (result, seconds, around) in zip(
                WINDOW_STATEMENTS, self._results(rec, stats)):
            session_s += around
            if result is not None:  # a failure has no time to report
                ops.append((stmt.name, seconds))
                seen.append((stmt.name, result))
        wall = time.perf_counter() - start
        for name, result in seen:  # checked after the clock stopped
            built = result.stats.structure_builds
            reused = result.stats.structure_reuses
            if _table_digest(result.table) != self.digests.get(name):
                self.fail(f"{self.name}/{name}: result differs from the "
                          "oracle-checked warm-up result")
            elif (reused if self.cold else built) or not (built or reused):
                # A silently warm "build" or cold "probe" workload would
                # still produce right answers; only the counters tell.
                self.fail(f"{self.name}/{name}: expected "
                          f"{'only builds' if self.cold else 'only reuses'},"
                          f" saw builds={built} reuses={reused}")
        return Pass(wall, ops, stats=stats, session_s=session_s)

    def inputs_digest(self) -> str:
        texts = "\n".join(s.sql for s in WINDOW_STATEMENTS)
        return hashlib.sha256(
            (_table_digest(self.table) + texts).encode()).hexdigest()


class WindowProbe(_Window):
    name = "window_probe"


class WindowBuild(_Window):
    name = "window_build"
    cold = True


# ----------------------------------------------------------------------
# tpch_relational
# ----------------------------------------------------------------------
class TpchRelational(Workload):
    """The 18 runnable TPC-H texts through one default session."""

    name = "tpch_relational"
    setup_repeats = 3
    #: Queries cheap enough in ``repro.tpch.REFERENCE`` to recompute in
    #: every run whose seed has no golden file.
    reference_subset = TPCH_SCAN_AGG + ("q11", "q13", "q16")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        from repro.tpch import QUERIES
        self.scale = TPCH_SMOKE_SCALE if self.smoke else TPCH_SCALE
        self.names = sorted(QUERIES, key=lambda q: int(q[1:]))
        self.queries = QUERIES
        self.session = None
        self.tables: Dict[str, Any] = {}
        self.digests: Dict[str, str] = {}

    def setup(self) -> None:
        from repro.sql import Catalog, Session
        from repro.tpch import tpch_tables
        start = time.perf_counter()
        self.tables = tpch_tables(self.scale, self.seed)
        self.gen_s = time.perf_counter() - start
        self.session = Session(Catalog(dict(self.tables)))
        # The relational half keeps no structure between statements
        # (a first full pass measured 6.50 s, the second 6.52 s), so the
        # warm-up fills the plan cache and touches the scan/aggregate
        # path instead of spending a whole pass per set-up.
        for name in self.names:
            self.session.prepare(self.queries[name])
        for name in TPCH_SCAN_AGG:
            self.session.execute(self.queries[name])

    def teardown(self) -> None:
        from repro.tpch import tpch_tables
        if self.session is not None:
            self.session.close()
            self.session = None
        # tpch_tables memoises on (scale, seed); forget, so that a
        # repeated set-up generates again.
        getattr(tpch_tables, "cache_clear", lambda: None)()

    def golden_path(self) -> str:
        name = f"tpch_sf{self.scale:g}_seed{self.seed}.json"
        return os.path.join(self.golden_dir or str(GOLDEN), name)

    def verify(self) -> None:
        """Expected digests: the golden file when this (scale, seed)
        has one, else the independent reference on a cheap subset."""
        path = self.golden_path()
        if os.path.isfile(path):
            with open(path) as handle:
                self.digests = dict(json.load(handle)["digests"])
            return
        from repro.tpch import REFERENCE
        for name in self.reference_subset:
            try:
                rows = REFERENCE[name](self.tables)
            except Exception as exc:  # the oracle itself cannot answer
                print(f"  {name}: no reference answer ({exc}); pinned to "
                      "the first pass instead", file=sys.stderr)
                continue
            self.digests[name] = rows_digest(rows)

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        ops, stats, seen = [], [], []
        start = time.perf_counter()
        for name in self.names:
            result, seconds = self._execute(self.session, name,
                                            self.queries[name], rec, stats)
            if result is not None:  # a failure has no time to report
                ops.append((name, seconds))
                seen.append((name, result))
        wall = time.perf_counter() - start
        for name, result in seen:
            digest = rows_digest(result.to_rows())
            # Queries without an oracle digest are pinned to their first
            # answer: a later pass that disagrees is an error too.
            want = self.digests.setdefault(name, digest)
            if digest != want:
                self.fail(f"{self.name}/{name}: {result.num_rows} rows, "
                          f"digest {digest[:12]} != expected {want[:12]}")
        return Pass(wall, ops, stats=stats)

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.tables):
            h.update(_table_digest(self.tables[name]).encode())
        for name in self.names:
            h.update(self.queries[name].encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    """``python -m repro.serve`` as a child process, driven over
    keep-alive HTTP connections by dashboard-style callers."""

    name = "serve_mixed"
    setup_repeats = 3

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        from repro.tpch import lineitem
        self.rows = 2_000 if self.smoke else SERVE_ROWS
        #: The table the server generates for itself (same generator,
        #: same default seed), kept here for parameters and the oracle.
        start = time.perf_counter()
        self.table = lineitem(self.rows)
        self.gen_s = time.perf_counter() - start
        rng = random.Random(self.seed)
        keys = self.table["l_orderkey"].raw()
        self.sequence: List[Tuple[str, Optional[list]]] = []
        for cls, count in SERVE_MIX.items():
            for _ in range(max(count // 5, 1) if self.smoke else count):
                self.sequence.append((cls, self._params(cls, rng, keys)))
        rng.shuffle(self.sequence)
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.startup_s = 0.0
        self.bodies: Dict[str, Tuple[Optional[list], bytes]] = {}
        self._hwm_mb = 0.0

    @staticmethod
    def _params(cls: str, rng: random.Random, keys: np.ndarray
                ) -> Optional[list]:
        if cls == "point":
            return [int(keys[rng.randrange(len(keys))])]
        if cls == "agg":
            # Late cut-off dates: the bound value differs per request but
            # the filter keeps nearly every row, so the class costs the
            # same whichever dates a seed draws.
            return [f"1998-{rng.randrange(9, 13):02d}-"
                    f"{rng.randrange(1, 29):02d}"]
        return None

    # transport --------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        return HTTPConnection("127.0.0.1", self.port, timeout=120)

    @staticmethod
    def _post(conn: HTTPConnection, cls: str, params: Optional[list],
              trace: bool = False) -> Tuple[int, bytes, float]:
        payload: Dict[str, Any] = {"sql": SERVE_CLASSES[cls]}
        if params is not None:
            payload["params"] = params
        if trace:
            payload["trace"] = True
        body = json.dumps(payload).encode()
        start = time.perf_counter()  # request write -> body fully read
        conn.request("POST", "/v1/execute", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    # hooks ------------------------------------------------------------
    def setup(self) -> None:
        start = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--rows", str(self.rows)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=engine_env(), text=True)
        line = self.server.stdout.readline()
        if "http://127.0.0.1:" not in line:
            raise RuntimeError(f"repro.serve did not start: {line!r}")
        self.port = int(line.split("http://127.0.0.1:")[1].split()[0])
        self.startup_s = time.perf_counter() - start
        # Warm-up: each class twice — the first fills the plan cache and
        # builds the window structures, the second is the checked body.
        first_of = {}
        for cls, params in self.sequence:
            first_of.setdefault(cls, params)
        conn = self._connect()
        try:
            for cls, params in first_of.items():
                for _ in range(2):
                    status, body, _s = self._post(conn, cls, params)
                    if status != 200:
                        raise RuntimeError(f"warm-up {cls}: HTTP {status}")
                self.bodies[cls] = (params, body)
        finally:
            conn.close()

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        try:
            with open(f"/proc/{server.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self._hwm_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def peak_rss_mb(self) -> float:
        """The server child's high-water mark (read at teardown)."""
        return self._hwm_mb

    def verify(self) -> None:
        """Each class's body once against in-process ``to_dict()``, and
        ``win_large``'s rows against the brute-force oracle."""
        from repro.sql import Catalog, Session
        with Session(Catalog({"lineitem": self.table})) as session:
            for cls, (params, body) in self.bodies.items():
                self.attempted += 1
                statement = session.prepare(SERVE_CLASSES[cls])
                want = json.loads(json.dumps(
                    statement.execute(params).to_dict()))
                got = json.loads(body)
                for key in ("columns", "types", "rows", "row_count"):
                    if got.get(key) != want[key]:
                        self.fail(f"{self.name}/{cls}: body field {key!r} "
                                  "differs from in-process to_dict()")
                        break
        rows = json.loads(self.bodies["win_large"][1])["rows"]
        sample = oracle.sample_rows(self.rows, self.seed)
        wrong = oracle.mismatches(SERVE_WIN_LARGE, raw_columns(self.table),
                                  sample,
                                  {"d": [rows[r][1] for r in sample]})
        if wrong:
            self.fail(f"{self.name}/win_large: {len(wrong)} sampled rows "
                      f"wrong, e.g. {wrong[0]}")

    def _drive(self, requests: Sequence[Tuple[str, Optional[list]]],
               ops: List[Tuple[str, float]], rec: Optional[Recorder] = None,
               stats: Optional[List[Dict[str, Any]]] = None) -> None:
        """One caller: send ``requests`` in order on one connection."""
        conn = self._connect()
        try:
            for cls, params in requests:
                if rec is None:
                    status, body, seconds = self._post(conn, cls, params)
                else:
                    with rec.span("POST /v1/execute", stmt=cls,
                                  layer="repro.serve") as span:
                        status, body, seconds = self._post(
                            conn, cls, params, trace=True)
                    if status == 200:
                        reply = json.loads(body)
                        rec.adopt(reply.get("trace"), span)
                        span["attrs"].update(rows=reply["row_count"],
                                             body_bytes=len(body))
                        stats.append(reply["stats"])
                ops.append((cls, seconds))
                if status != 200:
                    self.fail(f"{self.name}/{cls}: HTTP {status} "
                              f"{body[:120]!r}")
        except (OSError, ValueError) as exc:  # socket or protocol error
            self.fail(f"{self.name}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        ops: List[Tuple[str, float]] = []
        stats: List[Dict[str, Any]] = []
        self.attempted += len(self.sequence)
        start = time.perf_counter()
        self._drive(self.sequence, ops, rec, stats)
        wall = time.perf_counter() - start
        if rec is None:
            return Pass(wall, ops)
        # Traced runs add the loaded phase: the same sequence again,
        # dealt round-robin to CLIENTS callers (untraced requests).
        per_client: List[List[Tuple[str, float]]] = [
            [] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._drive,
                             args=(self.sequence[i::CLIENTS], per_client[i]))
            for i in range(CLIENTS)]
        self.attempted += len(self.sequence)
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loaded_wall = time.perf_counter() - start
        return Pass(wall, ops, loaded_wall,
                    [op for client in per_client for op in client], stats)

    def get(self, path: str) -> Tuple[bytes, float]:
        """One GET on a fresh connection (per-layer probes use it)."""
        conn = self._connect()
        try:
            start = time.perf_counter()
            conn.request("GET", path)
            data = conn.getresponse().read()
            return data, time.perf_counter() - start
        finally:
            conn.close()

    def inputs_digest(self) -> str:
        return hashlib.sha256(
            (_table_digest(self.table)
             + json.dumps(self.sequence)
             + json.dumps(SERVE_CLASSES, sort_keys=True)).encode()
        ).hexdigest()


WORKLOADS = {cls.name: cls for cls in
             (WindowProbe, WindowBuild, TpchRelational, ServeMixed)}
