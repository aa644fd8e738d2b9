"""A statsd-style push gateway — the road not taken.

§4 weighs push against pull and chooses pull.  The push design is
implemented anyway, for two reasons: the ablation bench quantifies the
paper's argument against a real implementation rather than a strawman,
and mixed deployments (short-lived batch jobs that cannot be scraped) are
a legitimate use the paper's "users can easily add their application
metrics" sentence covers.

:class:`PushGateway` accepts events over the simulated HTTP network
(``POST``-like pushes via :meth:`PushGateway.push`), applies per-source
rate limiting (the DoS concern §4 raises), and appends to the TSDB
immediately — every push is aggregator work, which is exactly the
burst-amplification the ablation measures.

Retry safety: a client that times out *after* the gateway accepted its
push cannot tell delivery from loss, so a naive retry double-counts.
Wire pushes therefore carry an idempotency key (a trailing ``@key``
token); the gateway remembers recently accepted keys per source and
acknowledges a replayed key without re-appending.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import TsdbError
from repro.net.http import HttpNetwork
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock, backoff_ns
from repro.simkernel.rng import DeterministicRng

#: Per-source idempotency window: how many recently accepted push keys
#: the gateway remembers for retry deduplication.  A retry arriving
#: after the key aged out re-appends — the window bounds memory, and
#: retries land within a few backoff intervals in practice.
DEDUP_WINDOW = 1024


@dataclass
class SourceQuota:
    """Token bucket for one pushing source."""

    rate_per_s: float
    burst: float
    tokens: float = 0.0
    last_refill_ns: int = 0

    def admit(self, now_ns: int, cost: float = 1.0) -> bool:
        """Whether one push is within the quota."""
        elapsed_s = max(0, now_ns - self.last_refill_ns) / NANOS_PER_SEC
        self.tokens = min(self.burst, self.tokens + elapsed_s * self.rate_per_s)
        self.last_refill_ns = now_ns
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class PushGateway:
    """Event-push ingestion endpoint."""

    def __init__(
        self,
        clock: VirtualClock,
        tsdb: Tsdb,
        default_rate_per_s: float = 100.0,
        default_burst: float = 200.0,
    ) -> None:
        if default_rate_per_s <= 0 or default_burst <= 0:
            raise TsdbError("push quota must be positive")
        self._clock = clock
        self._tsdb = tsdb
        self._default_rate = default_rate_per_s
        self._default_burst = default_burst
        self._quotas: Dict[str, SourceQuota] = {}
        self.pushes_accepted = 0
        self.pushes_rejected = 0
        self.pushes_deduped = 0
        #: Distinct timestamps are required per series; pushes landing in
        #: the same nanosecond get a +1 ns nudge (sequence within instant).
        self._last_push_ns: Dict[Labels, int] = {}
        #: source -> (insertion order, membership) of accepted push keys.
        self._seen_keys: Dict[str, Tuple[deque, set]] = {}

    def set_quota(self, source: str, rate_per_s: float, burst: float) -> None:
        """Override the quota for one source."""
        if rate_per_s <= 0 or burst <= 0:
            raise TsdbError("push quota must be positive")
        self._quotas[source] = SourceQuota(
            rate_per_s=rate_per_s, burst=burst, tokens=burst,
            last_refill_ns=self._clock.now_ns,
        )

    def _quota(self, source: str) -> SourceQuota:
        quota = self._quotas.get(source)
        if quota is None:
            quota = SourceQuota(
                rate_per_s=self._default_rate, burst=self._default_burst,
                tokens=self._default_burst, last_refill_ns=self._clock.now_ns,
            )
            self._quotas[source] = quota
        return quota

    def push(self, source: str, metric: str, value: float, **labels: str) -> bool:
        """One pushed sample; returns False when rate-limited.

        Rate-limited pushes are *dropped*, the §4 trade-off: protecting the
        aggregator costs data completeness, which the pull model gets for
        free.
        """
        now = self._clock.now_ns
        if not self._quota(source).admit(now):
            self.pushes_rejected += 1
            return False
        mapping = dict(labels)
        mapping[METRIC_NAME_LABEL] = metric
        mapping["source"] = source
        full = Labels(mapping)
        stamp = max(now, self._last_push_ns.get(full, -1) + 1)
        self._last_push_ns[full] = stamp
        self._tsdb.append(full, stamp, value)
        self.pushes_accepted += 1
        return True

    def rejection_ratio(self) -> float:
        """Fraction of pushes dropped by quotas."""
        total = self.pushes_accepted + self.pushes_rejected
        return self.pushes_rejected / total if total else 0.0

    # ------------------------------------------------------------------
    # HTTP exposure (wire format: one sample per line)
    # ------------------------------------------------------------------
    def expose(self, network: HttpNetwork, host: str = "pushgw",
               port: int = 9091, path: str = "/push") -> str:
        """Serve pushes over the simulated HTTP network.

        Registers a POST route whose body is one sample per line in the
        :func:`encode_push_line` wire format; the reply reports
        ``accepted=N rejected=M``.  Returns the gateway URL.  GETs on the
        route answer with the gateway's counters (a crude health check).
        """
        endpoint = network.register(host, port, path, self._status_body)
        endpoint.post_handler = self._handle_wire
        return endpoint.url

    def _status_body(self) -> str:
        return (f"pushgateway_accepted_total {self.pushes_accepted}\n"
                f"pushgateway_rejected_total {self.pushes_rejected}\n")

    def _handle_wire(self, body: str) -> str:
        accepted = rejected = 0
        for line in body.split("\n"):
            line = line.strip()
            if not line:
                continue
            line, key = split_push_key(line)
            source, metric, value, labels = decode_push_line(line)
            if key is not None and self._key_seen(source, key):
                # Idempotent replay: the original push was accepted, the
                # client just never saw the ack.  Ack again, append nothing.
                self.pushes_deduped += 1
                accepted += 1
                continue
            if self.push(source, metric, value, **labels):
                if key is not None:
                    self._remember_key(source, key)
                accepted += 1
            else:
                rejected += 1
        return f"accepted={accepted} rejected={rejected}"

    def _key_seen(self, source: str, key: str) -> bool:
        entry = self._seen_keys.get(source)
        return entry is not None and key in entry[1]

    def _remember_key(self, source: str, key: str) -> None:
        entry = self._seen_keys.get(source)
        if entry is None:
            entry = (deque(), set())
            self._seen_keys[source] = entry
        order, members = entry
        order.append(key)
        members.add(key)
        while len(order) > DEDUP_WINDOW:
            members.discard(order.popleft())


def encode_push_line(source: str, metric: str, value: float,
                     labels: Dict[str, str],
                     key: Optional[str] = None) -> str:
    """Wire format: ``source metric value [k=v,k=v] [@key]``.

    ``key`` is an optional idempotency token the gateway uses to
    deduplicate retries of an already-accepted push.
    """
    for token in (source, metric, *labels, *labels.values()):
        if not token or any(c in token for c in " ,=\n"):
            raise TsdbError(f"token not wire-safe: {token!r}")
    for name in labels:
        # A leading '@' on the first (sorted) label name would make the
        # labels token masquerade as a trailing idempotency key; ban it
        # on every name so sortedness never decides wire-safety.
        if name.startswith("@"):
            raise TsdbError(f"label name not wire-safe: {name!r}")
    if key is not None and (not key or any(c in key for c in " ,=@\n")):
        raise TsdbError(f"push key not wire-safe: {key!r}")
    line = f"{source} {metric} {value}"
    if labels:
        pairs = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        line += f" {pairs}"
    if key is not None:
        line += f" @{key}"
    return line


def split_push_key(line: str) -> Tuple[str, Optional[str]]:
    """Split a trailing ``@key`` idempotency token off a wire line.

    Unambiguous because keys reject `` ,=@\\n`` at encode time while the
    only other candidate trailing tokens cannot look like one: the value
    token parses as a float, and the labels token either starts with a
    non-``@`` name (encode bans ``@``-leading label names) or contains
    ``=`` — so a trailing token is a key iff it starts with ``@`` and
    carries no ``=``/``,``.
    """
    head, sep, tail = line.rpartition(" ")
    if (sep and tail.startswith("@") and len(tail) > 1
            and "=" not in tail and "," not in tail):
        return head, tail[1:]
    return line, None


def decode_push_line(line: str) -> Tuple[str, str, float, Dict[str, str]]:
    """Inverse of :func:`encode_push_line`."""
    pieces = line.split()
    if len(pieces) not in (3, 4):
        raise TsdbError(f"malformed push line: {line!r}")
    source, metric, value_text = pieces[0], pieces[1], pieces[2]
    try:
        value = float(value_text)
    except ValueError:
        raise TsdbError(f"bad push value: {value_text!r}") from None
    labels: Dict[str, str] = {}
    if len(pieces) == 4:
        for pair in pieces[3].split(","):
            key, sep, val = pair.partition("=")
            if not sep or not key or not val:
                raise TsdbError(f"malformed push labels: {pieces[3]!r}")
            labels[key] = val
    return source, metric, value, labels


class PushClient:
    """Pushes samples to an HTTP-exposed gateway with timeout and retry.

    The push path gets the same hardening as the scrape path: a response
    slower than the timeout budget counts as a timeout, and failed
    deliveries retry on the virtual clock with jittered exponential
    backoff.  A push *rejected* by the gateway's quota is not retried —
    retrying a rate-limited push would amplify exactly the burst the
    quota exists to shed (§4).
    """

    def __init__(
        self,
        clock: VirtualClock,
        network: HttpNetwork,
        url: str,
        source: str,
        timeout_budget_s: float = 1.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        backoff_jitter: float = 0.5,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        if timeout_budget_s <= 0:
            raise TsdbError(f"timeout budget must be positive, got {timeout_budget_s}")
        if max_retries < 0:
            raise TsdbError(f"negative retry count: {max_retries}")
        if backoff_base_s <= 0:
            raise TsdbError(f"backoff base must be positive, got {backoff_base_s}")
        if not 0.0 <= backoff_jitter < 1.0:
            raise TsdbError(f"backoff jitter must be in [0, 1), got {backoff_jitter}")
        self._clock = clock
        self._network = network
        self.url = url
        self.source = source
        self.timeout_budget_s = timeout_budget_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_jitter = backoff_jitter
        self._rng = (rng or DeterministicRng(0)).fork("push-backoff")
        self.pushes_sent = 0
        self.pushes_delivered = 0
        self.pushes_rejected = 0
        self.pushes_failed = 0
        self.push_timeouts_total = 0
        self.push_retries_total = 0
        self._next_key = 0

    def push(self, metric: str, value: float, **labels: str) -> bool:
        """Attempt one push now; returns True if delivered immediately.

        On timeout or transport failure a retry is scheduled on the
        virtual clock; the eventual outcome lands in
        :attr:`pushes_delivered` / :attr:`pushes_failed`.  Every push
        carries a fresh idempotency key, so a retry after a
        timeout-after-accept is acknowledged by the gateway's dedup
        window instead of double-counting.
        """
        self.pushes_sent += 1
        key = f"{self.source}-{self._next_key}"
        self._next_key += 1
        line = encode_push_line(self.source, metric, value, labels, key=key)
        return self._attempt(line, attempt=0)

    def _attempt(self, line: str, attempt: int) -> bool:
        response = self._network.post_url(self.url, line)
        latency_s = getattr(response, "latency_s", 0.0)
        timed_out = latency_s > self.timeout_budget_s
        if timed_out:
            self.push_timeouts_total += 1
        if response.ok and not timed_out:
            if "rejected=0" in response.body:
                self.pushes_delivered += 1
                return True
            # Quota rejection is a terminal, intentional drop.
            self.pushes_rejected += 1
            return False
        if attempt < self.max_retries:
            self._clock.call_later(
                backoff_ns(self.backoff_base_s, attempt, self.backoff_jitter,
                           self._rng),
                lambda: self._retry(line, attempt + 1),
            )
            return False
        self.pushes_failed += 1
        return False

    def _retry(self, line: str, attempt: int) -> None:
        self.push_retries_total += 1
        self._attempt(line, attempt)
