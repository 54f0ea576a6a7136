"""Persistent plan cache: the tuner's memory between processes.

One JSON file maps problem keys ``(m, k, n, dtype, threads)`` to the best
measured :class:`~repro.tuner.space.Plan` and its observed performance.
The schema is versioned: a file written by an incompatible release is
ignored (never half-parsed), and saving always rewrites the current
schema atomically (write to a sibling temp file, then rename).  When the
cache directory cannot be written (read-only home, sandbox), ``save``
degrades to in-memory operation instead of raising -- dispatch keeps
working, it just forgets between processes.

Every entry is stamped with the **machine fingerprint** digest
(:func:`repro.bench.machine.fingerprint_digest`) current when it was
tuned.  The paper's core finding is that the best plan depends on the
machine as much as on the shape, so an entry tuned under a different
fingerprint (other CPU, other BLAS, other core count) is *stale*: lookups
bypass it -- falling through to the cost model -- rather than trust it,
and ``invalidate()`` clears exactly those entries.

Failures feed back into the cache too: :meth:`PlanCache.record_failure`
keeps a **per-entry failure ledger** (persisted as a separate top-level
``"failures"`` dict -- old readers ignore it, so no schema bump), and a
(plan, shape, dtype) key that fails :data:`QUARANTINE_THRESHOLD` times is
*quarantined*: dispatch's resolution (``get_plan`` and the guard's
fallback pick) asks :meth:`PlanCache.plan_quarantined` before
it serves a plan and skips it, falling through to the next stage, except
for a bounded backoff probe -- every :data:`QUARANTINE_PROBE_EVERY`-th
skip lets the plan through once, so a transient failure (a since-fixed
BLAS, a freed machine) rehabilitates (:meth:`record_success` clears the
ledger) instead of being exiled forever.  Load/save failures are no
longer silent either: they are counted (``cache.load_errors`` /
``cache.save_errors``), warned once per path, and a corrupt cache file is
preserved as a ``.corrupt`` sidecar for inspection rather than
overwritten.

Untuned shapes fall back to the *nearest* tuned shape (same dtype, same
thread count, closest in log-space) -- the paper's Figure 5/6 regimes are
broad plateaus, so a plan tuned at ``3000 x 416 x 3000`` transfers to
``3200 x 400 x 3200`` essentially unchanged.  An entry tuned at another
thread count never answers: its timings say nothing about, e.g., which P'
wins here, so such a shape resolves to the cost model.  A batch of
same-shape products runs the shape's per-call entry: there is no batched
key (a key with a batch suffix, written by an older release, is dropped
on load).

Answers are memoised: what :meth:`PlanCache.get` and
:meth:`PlanCache.nearest` return is a pure function of the entries and
the fingerprint, so each distinct query parses its plan (and scans the
keys, for ``nearest``) once, and a repeat is a dictionary hit.  Every
change to the entries -- ``put``, ``drop``, ``invalidate``, ``clear``,
``load`` -- forgets the answers.  The quarantine ledger is not part of an
answer: the resolver still asks :meth:`PlanCache.plan_quarantined` on
every lookup, so backoff probes keep their cadence.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
import threading
from pathlib import Path

from repro.guard import faults
from repro.obs import telemetry
from repro.tuner.space import Plan

_log = logging.getLogger("repro.tuner.cache")

#: bump when the on-disk layout changes incompatibly -- a file of any
#: other schema loads empty and is rewritten as this one on the next save
#: (v2: entries carry a machine-fingerprint stamp; v3: timings are
#: measured on the workspace-arena serving path -- sequential plans then
#: ran the reference interpreter; v4: sequential plans are served by the
#: *generated* modules drawing from the arena, so v3 interpreter-path
#: timings no longer describe what dispatch executes and must be re-tuned;
#: v5: entries record the scheme and sub-group P' they were tuned with --
#: v4 plans never swept P', so their parallel timings do not describe the
#: enlarged candidate space and must be re-tuned;
#: v6: entries record the serving backend -- v5 plans never swept the
#: compiled C chain backend, so on hosts with a compiler their sequential
#: timings describe only half the candidate space and must be re-tuned.
#: Sequential NumPy plans run the interpreter again since the generated
#: modules left the serving path: measured within noise of them, so no
#: bump, and a v6 entry's leftover ``"strategy"``/``"backend"`` keys are
#: ignored: since the kernels serve by rule it runs no slower than timed)
SCHEMA_VERSION = 6

#: default max log-space distance for the nearest-shape fallback
#: (1.0 ~= one dimension off by a factor e)
NEAREST_RADIUS = 1.0

#: guarded-execution failures of one (plan, shape, dtype, threads) key
#: before it is quarantined -- one failure may be environmental bad luck,
#: two in a row is a pattern worth demoting
QUARANTINE_THRESHOLD = 2

#: bounded backoff: every Nth lookup that would skip a quarantined plan
#: lets it through as a probe, so recovery is possible without a manual
#: ledger clear
QUARANTINE_PROBE_EVERY = 16

#: cache paths already warned about this process (load/save problems are
#: warned once per path, counted always)
_warned_paths: set[str] = set()
_warned_lock = threading.Lock()


def _warn_once(key: str, message: str) -> None:
    with _warned_lock:
        if key in _warned_paths:
            return
        _warned_paths.add(key)
    _log.warning("%s", message)


def default_cache_path() -> Path:
    """``$REPRO_PLAN_CACHE`` if set, else ``~/.cache/repro/plan_cache.json``."""
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(base) / "repro" / "plan_cache.json"


def problem_key(m: int, k: int, n: int, dtype: str, threads: int) -> str:
    return f"{m}x{k}x{n}:{dtype}:{threads}t"


def _parse_key(key: str) -> tuple[int, int, int, str, int] | None:
    """``(m, k, n, dtype, threads)`` of a :func:`problem_key`."""
    try:
        shape, dtype, t = key.split(":")
        m, k, n = (int(x) for x in shape.split("x"))
        return m, k, n, dtype, int(t.rstrip("t"))
    except (ValueError, AttributeError):
        return None


class PlanCache:
    """Dictionary of tuned plans with JSON persistence.

    ``load`` is lazy and forgiving (missing file, bad JSON or a schema
    mismatch all yield an empty cache); ``save`` is atomic, and degrades
    to in-memory operation (``save_error`` set, ``False`` returned) when
    the cache location is unwritable.  Entries store the plan plus the
    measured seconds/GFLOPS so reports can show what the tuner believed
    when it committed to the plan, and the machine-fingerprint digest so
    entries tuned elsewhere are bypassed, not trusted.

    ``fingerprint`` defaults to this machine's digest; tests forge it to
    simulate a cache that traveled between boxes.
    """

    def __init__(self, path: str | Path | None = None,
                 fingerprint: str | None = None):
        self.path = Path(path) if path is not None else default_cache_path()
        self._fingerprint = fingerprint
        # Reentrant: public methods lock, then call other locking methods
        # (invalidate -> stale_keys, * -> _ensure).
        self._lock = threading.RLock()
        self._entries: dict[str, dict] = {}
        #: memoised get/nearest answers, keyed by query; emptied whenever
        #: the entries change.  Read without the lock (a dict read is
        #: atomic), written only under it, so an answer computed from
        #: entries a concurrent change replaced is never stored
        self._answers: dict[tuple, Plan | None] = {}
        self._failures: dict[str, dict] = {}
        self._loaded = False
        self.save_error: Exception | None = None
        self.load_error: Exception | None = None
        self.corrupt_sidecar: Path | None = None

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            from repro.bench.machine import fingerprint_digest

            self._fingerprint = fingerprint_digest()
        return self._fingerprint

    # ------------------------------------------------------------- storage
    def load(self) -> "PlanCache":
        """Read the cache file; always leaves a usable (maybe empty) cache.

        Failures are loud now, not silent: an unreadable path or
        unparsable content sets ``load_error``, bumps the
        ``cache.load_errors`` counter, and warns once per path.  An
        unparsable file is additionally preserved as a ``.corrupt``
        sidecar (``corrupt_sidecar``) so whatever a crash mid-write or
        bit-rot left behind can be inspected -- the next ``save`` would
        otherwise overwrite the evidence.
        """
        with self._lock:
            return self._load_locked()

    def _load_locked(self) -> "PlanCache":
        self._loaded = True
        self._entries = {}
        self._answers.clear()
        self._failures = {}
        self.load_error = None
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return self  # a cold cache is the normal first-run state
        except OSError as e:
            self._note_load_error(e, f"plan cache at {self.path} is "
                                      f"unreadable ({e}); running uncached")
            return self
        if faults.active and faults.should_fire("cache.corrupt"):
            text = '{"injected": "cache.corrupt'
        try:
            raw = json.loads(text)
            if not isinstance(raw, dict):
                raise ValueError(
                    f"top-level JSON value is {type(raw).__name__}, "
                    f"not an object")
        except (json.JSONDecodeError, ValueError) as e:
            sidecar = self._quarantine_corrupt_file()
            kept = (f"; original preserved at {sidecar}" if sidecar
                    else "")
            self._note_load_error(
                e, f"plan cache at {self.path} is corrupt ({e}); "
                   f"starting fresh{kept}")
            return self
        if raw.get("schema") != SCHEMA_VERSION:
            return self  # foreign, old or unknown file: start fresh
        entries = raw.get("entries", {})
        if isinstance(entries, dict):
            self._entries = {
                k: v for k, v in entries.items()
                if _parse_key(k) is not None and isinstance(v, dict)
            }
        failures = raw.get("failures", {})
        if isinstance(failures, dict):
            self._failures = {
                k: dict(v) for k, v in failures.items()
                if isinstance(v, dict)
            }
        return self

    def _note_load_error(self, exc: Exception, message: str) -> None:
        self.load_error = exc
        telemetry.incr("cache.load_errors")
        _warn_once(f"load:{self.path}", message)

    def _quarantine_corrupt_file(self) -> Path | None:
        """Move an unparsable cache file aside to ``<name>.corrupt``
        (best-effort -- a read-only directory leaves it in place)."""
        sidecar = self.path.with_name(self.path.name + ".corrupt")
        try:
            os.replace(self.path, sidecar)
        except OSError:
            return None
        self.corrupt_sidecar = sidecar
        return sidecar

    def save(self) -> bool:
        """Write the cache atomically; ``False`` when it cannot persist.

        A failure anywhere in the mkdir/write/rename sequence -- an
        unwritable location (OSError) or an unserializable entry value
        (TypeError/ValueError from ``json.dump``) -- marks the cache as
        effectively in-memory (``save_error``) instead of propagating: a
        read-only cache dir must not break dispatch.  The sibling temp
        file is removed on any failure.
        """
        with self._lock:
            # shallow-copy each record so concurrent in-place updates
            # (plan_quarantined bumps "skips") cannot race json.dump
            payload = {
                "schema": SCHEMA_VERSION,
                "entries": {k: dict(v) for k, v in self._entries.items()},
            }
            if self._failures:
                payload["failures"] = {
                    k: dict(v) for k, v in self._failures.items()
                }
        tmp = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
            tmp = None
        except (OSError, TypeError, ValueError) as e:
            self.save_error = e
            telemetry.incr("cache.save_errors")
            _warn_once(f"save:{self.path}",
                       f"plan cache at {self.path} cannot be saved ({e}); "
                       f"tuning results stay in-memory only")
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.save_error = None
        return True

    def _ensure(self) -> None:
        with self._lock:
            if not self._loaded:
                self.load()

    def _fresh(self, ent: dict) -> bool:
        return ent.get("fingerprint") == self.fingerprint

    def _answer(self, query: tuple, lookup) -> Plan | None:
        """The memoised answer to ``query``; ``lookup()`` computes it
        (under the lock, from loaded entries) on the first ask."""
        try:
            return self._answers[query]
        except KeyError:
            pass
        with self._lock:
            self._ensure()
            plan = lookup()
            if len(self._answers) >= 4096:
                # a stream of ever-new shapes must not grow the memo
                # without bound (the model stage's ranking memo holds as
                # many)
                self._answers.clear()
            self._answers[query] = plan
            return plan

    @staticmethod
    def _plan_of(ent: dict | None) -> Plan | None:
        if ent is None:
            return None
        try:
            return Plan.from_dict(ent["plan"])
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------ failure ledger
    @staticmethod
    def _ledger_key(m: int, k: int, n: int, dtype: str, threads: int,
                    plan: Plan) -> str:
        return f"{problem_key(m, k, n, dtype, threads)}|{plan.describe()}"

    def record_failure(self, m: int, k: int, n: int, dtype: str,
                       threads: int, plan: Plan, reason) -> bool:
        """Charge one guarded-execution failure to a (plan, problem) key.

        Returns ``True`` when this failure crossed
        :data:`QUARANTINE_THRESHOLD` and newly quarantined the key.  The
        ledger rides in the cache file, so quarantine survives the
        process (the caller owns the decision to ``save``).
        """
        with self._lock:
            self._ensure()
            key = self._ledger_key(m, k, n, dtype, threads, plan)
            rec = self._failures.setdefault(
                key, {"count": 0, "quarantined": False, "skips": 0})
            rec["count"] = int(rec.get("count", 0)) + 1
            rec["reason"] = str(reason)[:200]
            telemetry.incr("guard.plan_failures")
            if (not rec.get("quarantined")
                    and rec["count"] >= QUARANTINE_THRESHOLD):
                rec["quarantined"] = True
                telemetry.incr("guard.quarantines")
                _log.warning(
                    "plan [%s] quarantined for %dx%dx%d %s after %d "
                    "failure(s): %s", plan.describe(), m, k, n, dtype,
                    rec["count"], rec["reason"])
                return True
            return False

    def record_success(self, m: int, k: int, n: int, dtype: str,
                       threads: int, plan: Plan) -> None:
        """A clean guarded execution rehabilitates the key: the ledger
        entry (and any quarantine) is dropped entirely."""
        if not self._failures:      # the healthy warm path: no lock
            return
        with self._lock:
            if not self._failures:
                return
            key = self._ledger_key(m, k, n, dtype, threads, plan)
            if self._failures.pop(key, None) is not None:
                telemetry.incr("guard.rehabilitations")

    def plan_quarantined(self, m: int, k: int, n: int, dtype: str,
                         threads: int, plan: Plan) -> bool:
        """Should a lookup skip this plan for this problem?

        Each call charges the ledger one skip, so a resolver asks once
        per (problem, plan) per lookup.  ``True`` for quarantined keys --
        except every
        :data:`QUARANTINE_PROBE_EVERY`-th call, which lets the plan
        through once as a bounded retry probe (skips are tallied in the
        ledger, so backoff state persists with it).
        """
        with self._lock:
            if not self._failures:
                return False
            rec = self._failures.get(
                self._ledger_key(m, k, n, dtype, threads, plan))
            if rec is None or not rec.get("quarantined"):
                return False
            skips = int(rec.get("skips", 0)) + 1
            rec["skips"] = skips
            if skips % QUARANTINE_PROBE_EVERY == 0:
                telemetry.incr("guard.quarantine_probes")
                return False
            telemetry.incr("guard.quarantine_skips")
            return True

    def failure_ledger(self) -> dict[str, dict]:
        """A copy of the raw failure ledger (reporting/doctor tools)."""
        with self._lock:
            self._ensure()
            return {k: dict(v) for k, v in sorted(self._failures.items())}

    def quarantined_keys(self) -> list[str]:
        with self._lock:
            self._ensure()
            return sorted(k for k, v in self._failures.items()
                          if v.get("quarantined"))

    def clear_failures(self) -> int:
        """Drop the whole ledger; returns how many keys it held."""
        with self._lock:
            self._ensure()
            n = len(self._failures)
            self._failures = {}
            return n

    def drop(self, key: str) -> bool:
        """Remove one entry by raw key (doctor/repair tools)."""
        with self._lock:
            self._ensure()
            self._answers.clear()
            return self._entries.pop(key, None) is not None

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        with self._lock:
            self._ensure()
            return len(self._entries)

    def keys(self) -> list[str]:
        with self._lock:
            self._ensure()
            return sorted(self._entries)

    def items(self) -> list[tuple[str, dict]]:
        """All raw entries (including stale ones), sorted by key."""
        with self._lock:
            self._ensure()
            return sorted(self._entries.items())

    def get(self, m: int, k: int, n: int, dtype: str = "float64",
            threads: int = 1) -> Plan | None:
        """Exact-key lookup; stale (foreign-fingerprint) entries miss.
        Whether the plan is quarantined is the resolver's question
        (:meth:`plan_quarantined`), not the store's."""
        def lookup():
            ent = self._entries.get(problem_key(m, k, n, dtype, threads))
            return (self._plan_of(ent)
                    if ent is not None and self._fresh(ent) else None)

        return self._answer(("get", m, k, n, dtype, threads), lookup)

    def entry(self, m: int, k: int, n: int, dtype: str = "float64",
              threads: int = 1) -> dict | None:
        """Exact-key raw entry (plan dict + measured seconds/gflops).

        Unlike :meth:`get` this returns stale entries too (callers that
        want only this machine's plans should use ``get``); reporting
        tools inspect the ``fingerprint`` field themselves.
        """
        with self._lock:
            self._ensure()
            return self._entries.get(problem_key(m, k, n, dtype, threads))

    def put(self, m: int, k: int, n: int, dtype: str, threads: int,
            plan: Plan, seconds: float | None = None,
            gflops: float | None = None) -> None:
        """Store a tuned plan.  Besides the plan dict itself, the entry
        records the scheme and sub-group P' it was tuned with as explicit
        top-level fields -- ``cache show`` and external
        tooling read the execution configuration without decoding the
        plan."""
        with self._lock:
            self._ensure()
            self._answers.clear()
            self._entries[problem_key(m, k, n, dtype, threads)] = {
                "plan": plan.to_dict(),
                "scheme": plan.scheme,
                "subgroup": plan.subgroup,
                "seconds": seconds,
                "gflops": gflops,
                "fingerprint": self.fingerprint,
            }

    def nearest(
        self, m: int, k: int, n: int, dtype: str = "float64",
        threads: int = 1, radius: float = NEAREST_RADIUS,
    ) -> Plan | None:
        """Closest *other* tuned shape with the same dtype and thread
        count; ``None`` when nothing tuned (and fingerprint-fresh) lies
        within ``radius``.  The queried key itself never answers: that is
        :meth:`get`'s, and a lookup that skipped it there must not be
        handed it back here.

        Distance is Euclidean in log-dimension space.  Ties are broken
        deterministically: candidates are scanned in sorted key order and
        a new candidate must be *strictly* closer to displace the
        incumbent, so equidistant tuned shapes resolve to the
        lexicographically smallest key no matter what order the cache file
        listed them in -- identical calls pick identical plans.
        """
        def lookup():
            own = problem_key(m, k, n, dtype, threads)
            best, d_best = None, radius
            for key in sorted(self._entries):
                ent = self._entries[key]
                parsed = _parse_key(key)
                if key == own or parsed is None or not self._fresh(ent):
                    continue
                em, ek, en, edtype, et = parsed
                if edtype != dtype or et != threads:
                    continue
                d = math.sqrt(
                    math.log(em / m) ** 2
                    + math.log(ek / k) ** 2
                    + math.log(en / n) ** 2
                )
                if d < d_best or (best is None and d <= radius):
                    best, d_best = ent, d
            return self._plan_of(best)

        return self._answer(("nearest", m, k, n, dtype, threads, radius),
                            lookup)

    # -------------------------------------------------------- invalidation
    def stale_keys(self) -> list[str]:
        """Keys whose entries were tuned under a different fingerprint."""
        with self._lock:
            self._ensure()
            return sorted(k for k, v in self._entries.items()
                          if not self._fresh(v))

    def invalidate(self, stale_only: bool = True) -> list[str]:
        """Drop stale entries (or, with ``stale_only=False``, everything).

        Returns the removed keys; the caller decides whether to ``save``.
        Fresh entries are untouched in the default mode -- re-tuning work
        done on *this* machine is never thrown away by an invalidation
        sweep.
        """
        with self._lock:
            self._ensure()
            doomed = (self.stale_keys() if stale_only
                      else sorted(self._entries))
            for key in doomed:
                del self._entries[key]
            if doomed:
                self._answers.clear()
            return doomed

    def clear(self) -> None:
        with self._lock:
            self._entries = {}
            self._answers.clear()
            self._failures = {}
            self._loaded = True
