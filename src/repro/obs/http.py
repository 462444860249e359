"""HTTP exposition of live telemetry (off by default, opt-in).

:class:`ObservabilityServer` wraps ``http.server`` in a daemon thread
and serves the process's live observability state:

=============== =======================================================
route           payload
=============== =======================================================
/metrics        Prometheus text exposition of the metrics registry
/metrics.json   the same metrics as JSON (the ``metrics.json`` shape)
/alerts         the AlertManager document (firing set, alerts grouped
                by source, transition history) and the drift monitor's
                state (``null`` when none is attached, never 404)
/query          instant query against the attached store:
                ``?name=...&label=k=v&at=T``
/query_range    range query: ``?name=...&start=&end=&step=&agg=&by=``
                (label matchers repeat ``label=k=v``; regex ``k=~re``)
/rules          the recording-rule engine's rules + evaluation stats,
                and the store's shard/segment summary
/windows        the windowed registry's recent windows (when attached);
                ``?last=N`` pages the newest N windows
/healthz        liveness and the AlertManager's firing set: 503 while
                any alert is critical (drift, stale node, fast burn,
                cap violation), 200 ``degraded`` on warnings alone
/attribution    the latest per-term watt decomposition (when a flight
                recorder is attached and the estimator attributes)
/flightrecorder flight-recorder status; ``?dump=1`` writes a bundle
                and returns its path
/fleet          fleet-monitor summary: width, cross-lane power/error
                aggregates, alert rollups (when a fleet is attached)
/fleet/lanes    per-lane drill-down ranked worst-first by drift EWMA;
                ``?top=K`` limits to the K worst offenders
/fleet/lane/<i> one lane's full state: streams, history, latest window
/dc             the attached datacenter's latest scenario report:
                cap/violations, EP score, per-zone budgets and power
/nodes          streaming-service per-node summary + fleet aggregate
/nodes/<id>     one node's estimates, drift and attribution drill-down
/service        shard/queue/stage/SLO state of the streaming service
/service/kill_shard  **POST** ``?shard=i``: the chaos hook CI uses;
                403 unless the server opted in with ``chaos=True``
/slo            error-budget burn state (short/long windows, fast burn)
/ingest         **POST** newline-JSON counter samples into the service;
                200 whenever anything was accepted (read the receipt's
                ``accepted``/``shed``/``errors`` counts to decide what
                to resend), 429 when everything shed, 400 when every
                line was rejected
=============== =======================================================

Nothing is served unless :meth:`ObservabilityServer.start` is called
explicitly — merely importing this module (or enabling telemetry) opens
no sockets.  Scrapes read shared state through the registry's and
windowed registry's own locks, which is why
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.tracing.Tracer` are thread-safe.

    server = ObservabilityServer(port=0)  # 0 = ephemeral port
    port = server.start()
    ...
    server.stop()
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.obs.alertmgr import AlertManager, health_status

logger = logging.getLogger(__name__)

#: Prometheus text exposition content type.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ObservabilityServer:
    """Serves live metrics, alerts and health from a background thread.

    Args:
        registry: metrics registry to expose (default: the process
            registry, ``obs.registry()``).
        drift: a :class:`~repro.obs.drift.DriftMonitor` for ``/alerts``
            (optional).
        windows: a :class:`~repro.obs.live.WindowedRegistry` for
            ``/windows`` (optional).
        flight: a :class:`~repro.obs.flight.FlightRecorder` for
            ``/attribution`` and ``/flightrecorder`` (optional).
        fleet: a :class:`~repro.obs.fleet.FleetMonitor` for the
            ``/fleet*`` routes (optional).
        service: a :class:`~repro.serve.service.EstimationService` for
            the streaming routes — ``POST /ingest``, ``/nodes``,
            ``/nodes/<id>``, ``/service``, ``/slo`` (optional).
        store: a :class:`~repro.obs.tsdb.TSDB` for ``/query`` and
            ``/query_range`` (optional; the routes answer
            ``{"store": null}`` without one).
        alerts: the :class:`~repro.obs.alertmgr.AlertManager` that
            answers ``/healthz`` and ``/alerts`` (default: a new one
            over ``drift``, ``service`` and ``dc``).
        rules: a :class:`~repro.obs.rules.RuleEngine` served on
            ``/rules`` next to the store summary (optional).
        dc: a :class:`~repro.dc.datacenter.Datacenter` (or any object
            with a ``document()``/``last_report``) for ``/dc``
            (optional).
        chaos: opt-in for the destructive ``POST /service/kill_shard``
            chaos hook; off by default so a production scrape (or a
            curious curl) can never degrade the service.
        host: bind address (default loopback only).
        port: TCP port; 0 picks an ephemeral one, :meth:`start` returns
            the bound port.
    """

    ROUTES = (
        "/metrics",
        "/metrics.json",
        "/alerts",
        "/query",
        "/query_range",
        "/rules",
        "/windows",
        "/healthz",
        "/attribution",
        "/flightrecorder",
        "/fleet",
        "/fleet/lanes",
        "/fleet/lane/<i>",
        "/dc",
        "/nodes",
        "/nodes/<id>",
        "/service",
        "/service/kill_shard (POST, chaos=True)",
        "/slo",
        "/ingest (POST)",
    )

    def __init__(
        self,
        registry=None,
        drift=None,
        windows=None,
        flight=None,
        fleet=None,
        service=None,
        dc=None,
        store=None,
        alerts=None,
        rules=None,
        chaos: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if registry is None:
            from repro import obs

            registry = obs.registry()
        self.registry = registry
        self.drift = drift
        self.windows = windows
        self.flight = flight
        self.fleet = fleet
        self.service = service
        self.dc = dc
        self.store = store
        if alerts is None:
            alerts = AlertManager()
            alerts.attach_drift(drift)
            alerts.attach_service(service)
            alerts.attach_dc(dc)
        self.alerts = alerts
        self.rules = rules
        self.chaos = bool(chaos)
        self.host = host
        self.port = int(port)
        #: Free-form lifecycle marker surfaced on ``/healthz`` (the CLI
        #: sets "training" / "running" / "done").
        self.phase = "idle"
        self._httpd: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None
        self._started_monotonic = 0.0

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port
        handler = _make_handler(self)
        try:
            self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        except OSError as exc:
            # EADDRINUSE and friends come back as a bare errno; rewrap
            # with the address and the obvious fix so the CLI surfaces
            # something actionable instead of a traceback.
            raise OSError(
                exc.errno or 0,
                f"cannot bind observability endpoint to "
                f"{self.host}:{self.port} ({exc.strerror or exc}); "
                "pick another --port, or --port 0 for an ephemeral one",
            ) from exc
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._started_monotonic = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-obs-http",
            daemon=True,
        )
        self._thread.start()
        logger.info("observability endpoint listening on %s", self.url())
        return self.port

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ObservabilityServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def url(self, path: str = "") -> str:
        """The server's base URL, optionally with a route appended."""
        return f"http://{self.host}:{self.port}{path}"

    @property
    def uptime_s(self) -> float:
        if self._httpd is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # -- route payloads ------------------------------------------------

    def payload(self, path: str, query: str = "") -> "tuple[int, str, str]":
        """(status, content-type, body) for one route."""
        if path in ("/metrics", "/metrics/"):
            return 200, _PROM_CONTENT_TYPE, self.registry.to_prometheus()
        if path == "/metrics.json":
            return 200, "application/json", _json_body(self.registry.to_json())
        if path == "/alerts":
            return 200, "application/json", _json_body(self.alerts_document())
        if path == "/query":
            return self._query_route(query)
        if path == "/query_range":
            return self._query_range_route(query)
        if path == "/rules":
            document = {
                "rules": (
                    self.rules.document() if self.rules is not None else None
                ),
                "store": (
                    self.store.document() if self.store is not None else None
                ),
            }
            return 200, "application/json", _json_body(document)
        if path == "/windows":
            if self.windows is None:
                return 200, "application/json", _json_body({"windows": []})
            last: "int | None" = 12
            raw = parse_qs(query).get("last")
            if raw:
                try:
                    last = int(raw[-1])
                except ValueError:
                    last = -1
                if last < 1:
                    return 400, "application/json", _json_body(
                        {"error": "last must be a positive integer"}
                    )
            return 200, "application/json", _json_body(
                self.windows.to_json(last=last)
            )
        if path == "/fleet":
            document = (
                self.fleet.fleet_document()
                if self.fleet is not None
                else {"fleet": None}
            )
            return 200, "application/json", _json_body(document)
        if path == "/fleet/lanes":
            if self.fleet is None:
                return 200, "application/json", _json_body({"fleet": None})
            top = 8
            raw = parse_qs(query).get("top")
            if raw:
                try:
                    top = int(raw[-1])
                except ValueError:
                    top = -1
                if top < 1:
                    return 400, "application/json", _json_body(
                        {"error": "top must be a positive integer"}
                    )
            return 200, "application/json", _json_body(
                self.fleet.lanes_document(top=top)
            )
        if path.startswith("/fleet/lane/"):
            if self.fleet is None:
                return 200, "application/json", _json_body({"fleet": None})
            try:
                lane = int(path[len("/fleet/lane/"):])
                document = self.fleet.lane_document(lane)
            except (ValueError, IndexError):
                return 404, "application/json", _json_body(
                    {"error": f"no such lane {path[len('/fleet/lane/'):]!r}"}
                )
            return 200, "application/json", _json_body(document)
        if path == "/attribution":
            document = (
                self.flight.attribution_document()
                if self.flight is not None
                else {"attribution": None}
            )
            return 200, "application/json", _json_body(document)
        if path == "/flightrecorder":
            if self.flight is None:
                return 200, "application/json", _json_body(
                    {"enabled": False, "bundles": []}
                )
            document = {"enabled": True}
            if "dump" in parse_qs(query):
                document["dumped"] = self.flight.trigger(
                    "http.request", detail={"query": query}
                )
            document.update(self.flight.to_json())
            return 200, "application/json", _json_body(document)
        if path == "/nodes":
            if self.service is None:
                return 200, "application/json", _json_body({"nodes": None})
            return 200, "application/json", _json_body(
                self.service.nodes_document()
            )
        if path == "/dc":
            # A Datacenter (serving its last_report) or anything with a
            # document() works as the attachment.
            if self.dc is None:
                return 200, "application/json", _json_body({"datacenter": None})
            report = getattr(self.dc, "last_report", self.dc)
            document = report.document() if report is not None else None
            return 200, "application/json", _json_body({"datacenter": document})
        if path.startswith("/nodes/"):
            if self.service is None:
                return 200, "application/json", _json_body({"nodes": None})
            node = path[len("/nodes/"):]
            document = self.service.node_document(node)
            if document is None:
                return 404, "application/json", _json_body(
                    {"error": f"no such node {node!r}"}
                )
            return 200, "application/json", _json_body(document)
        if path == "/service":
            if self.service is None:
                return 200, "application/json", _json_body({"service": None})
            return 200, "application/json", _json_body(
                self.service.service_document()
            )
        if path == "/slo":
            if self.service is None:
                return 200, "application/json", _json_body({"slo": None})
            return 200, "application/json", _json_body(
                self.service.slo.document()
            )
        if path in ("/healthz", "/", ""):
            alerts = self.alerts.poll()
            code, status = health_status(alerts)
            return code, "application/json", _json_body({
                "status": status,
                "phase": self.phase,
                "uptime_s": round(self.uptime_s, 3),
                "routes": list(self.ROUTES),
                "firing": [alert.key for alert in alerts],
                "alerts": [alert.to_dict() for alert in alerts],
            })
        return 404, "application/json", _json_body(
            {"error": f"unknown route {path!r}", "routes": list(self.ROUTES)}
        )

    def alerts_document(self) -> dict:
        """The ``/alerts`` payload: the AlertManager document and the
        drift monitor's state (``null`` without one)."""
        return {
            "drift": self.drift.to_json() if self.drift is not None else None,
            "alerts": self.alerts.document(),
        }

    def _query_route(self, query: str) -> "tuple[int, str, str]":
        if self.store is None:
            return 200, "application/json", _json_body({"store": None})
        params = parse_qs(query)
        name = (params.get("name") or [None])[-1]
        if not name:
            return 400, "application/json", _json_body(
                {"error": "query needs ?name=<metric>"}
            )
        from repro.obs.tsdb import parse_matchers

        try:
            matchers = parse_matchers(params.get("label"))
            at = params.get("at")
            result = self.store.query(
                name, matchers or None,
                at_s=float(at[-1]) if at else None,
            )
        except (ValueError, re.error) as exc:
            return 400, "application/json", _json_body({"error": str(exc)})
        return 200, "application/json", _json_body(
            {"name": name, "result": result}
        )

    def _query_range_route(self, query: str) -> "tuple[int, str, str]":
        if self.store is None:
            return 200, "application/json", _json_body({"store": None})
        params = parse_qs(query)
        name = (params.get("name") or [None])[-1]
        if not name:
            return 400, "application/json", _json_body(
                {"error": "query_range needs ?name=<metric>"}
            )
        from repro.obs.tsdb import parse_matchers

        def last(key, default=None):
            raw = params.get(key)
            return raw[-1] if raw else default

        try:
            matchers = parse_matchers(params.get("label"))
            by = last("by")
            step = last("step")
            result = self.store.query_range(
                name,
                matchers or None,
                start_s=float(last("start", 0.0)),
                end_s=float(last("end")) if last("end") is not None else None,
                step_s=float(step) if step is not None else None,
                agg=last("agg", "mean"),
                by=tuple(by.split(",")) if by else None,
                tier=last("tier", "auto"),
            )
        except (ValueError, re.error) as exc:
            return 400, "application/json", _json_body({"error": str(exc)})
        return 200, "application/json", _json_body(
            {"name": name, "result": result}
        )


def _json_body(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True, default=str) + "\n"


def _kill_shard(server: ObservabilityServer, query: str) -> "tuple[int, str]":
    """``POST /service/kill_shard?shard=i``: the chaos hook CI uses.

    Killing a shard is irreversible (there is no restart), so it only
    answers on an explicit POST *and* only when the server was built
    with ``chaos=True`` — a scraper following links can never trip it.
    """
    if not server.chaos:
        return 403, _json_body(
            {"error": "chaos hooks are disabled; start the server with chaos=True"}
        )
    raw = parse_qs(query).get("shard")
    try:
        index = int(raw[-1]) if raw else -1
        if index < 0:
            raise IndexError(index)
        killed = server.service.kill_shard(index)
    except (ValueError, IndexError):
        return 400, _json_body(
            {"error": f"kill_shard needs ?shard=i in [0, {len(server.service.shards)})"}
        )
    document = server.service.service_document()
    document["kill_shard"] = killed
    return 200, _json_body(document)


def _make_handler(server: ObservabilityServer):
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            path, _, query = self.path.partition("?")
            try:
                status, content_type, body = server.payload(path, query)
            except Exception:  # pragma: no cover - defensive
                logger.exception("observability route %s failed", path)
                status, content_type, body = (
                    500,
                    "application/json",
                    _json_body({"error": "internal error"}),
                )
            encoded = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            path, _, query = self.path.partition("?")
            if path == "/service/kill_shard" and server.service is not None:
                status, body = _kill_shard(server, query)
            elif path != "/ingest" or server.service is None:
                body = _json_body({"error": f"cannot POST to {path!r}"})
                status = 404
            else:
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    data = self.rfile.read(length).decode("utf-8")
                    receipt = server.service.ingest(data, transport="http")
                    # Anything accepted was already enqueued and WILL be
                    # processed (stopping the service drains the shard
                    # queues), so a non-2xx would invite a whole-body
                    # retry that duplicates those samples.  200 whenever
                    # something got in (clients resend from the receipt's
                    # counts); 429 = fully shed, back off; 400 = every
                    # line rejected.
                    if receipt["accepted"] or not (
                        receipt["shed"] or receipt["errors"]
                    ):
                        status = 200
                    elif receipt["shed"]:
                        status = 429
                    else:
                        status = 400
                    body = _json_body(receipt)
                except Exception:  # pragma: no cover - defensive
                    logger.exception("ingest POST failed")
                    status = 500
                    body = _json_body({"error": "internal error"})
            encoded = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            logger.debug("http: " + format, *args)

    return Handler
