"""The versioned wire contract for every payload crossing a boundary.

Every ``to_dict()`` payload that leaves the process — CLI ``--json``
output, the ``/v1`` HTTP API of :mod:`repro.serve`, entries in the
content-addressed result store (:mod:`repro.store`) — carries a
``schema_version`` field, and every ``from_dict()`` checks it before
touching the rest of the payload.

Versioning policy (documented for consumers in ``docs/api.md``):

- the version is ``"<major>.<minor>"``;
- **major** bumps are breaking: a reader raises
  :class:`SchemaVersionError` on a major it does not know, instead of
  misparsing the payload silently;
- **minor** bumps are additive (new optional fields): a reader accepts
  any minor within a known major and ignores fields it does not know;
- payloads with *no* ``schema_version`` are grandfathered as the
  pre-versioning wire format (the PR 1 ``to_dict`` shapes) and parsed
  with the legacy defaults — old dumps stay loadable forever.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: The current wire-format version, stamped into every payload.
#: 1.1 (additive): fuzz-campaign payloads (``FuzzConfig``/``FuzzResult``
#: summaries, ``Deviation`` artifacts) and the ``kind``/``result``
#: fields on serve job records.
#: 1.2 (additive): service resilience — the ``timeout`` job status and
#: ``deadline_seconds`` on job records, journal entries
#: (:mod:`repro.serve.journal`), and the ``live``/``ready``/
#: ``draining``/``queue_full``/``journal`` fields in the ``/v1/health``
#: body.  The body's ``leaked_threads`` field went with the thread
#: fleet (serve jobs run in worker processes); no reader parsed it.
SCHEMA_VERSION = "1.2"

#: The field name carrying the version in every payload.
SCHEMA_KEY = "schema_version"


class SchemaVersionError(ValueError):
    """A payload declared a wire-format major this reader cannot parse."""


def parse_version(text: str) -> Tuple[int, int]:
    """``"1.0"`` → ``(1, 0)``; raises :class:`SchemaVersionError`."""
    major, _, minor = str(text).partition(".")
    try:
        return int(major), int(minor or 0)
    except ValueError:
        raise SchemaVersionError(
            f"malformed schema_version {text!r}; expected "
            f"'<major>.<minor>'") from None


#: The major this reader understands, derived from the current version.
CURRENT_MAJOR = parse_version(SCHEMA_VERSION)[0]


def stamp(payload: Dict) -> Dict:
    """Stamp the current version into ``payload`` (returned for chaining)."""
    payload[SCHEMA_KEY] = SCHEMA_VERSION
    return payload


def check(payload: Dict, kind: str = "payload") -> Optional[Tuple[int, int]]:
    """Validate a payload's declared version before parsing it.

    Returns the parsed ``(major, minor)`` — or ``None`` for a legacy
    payload that predates versioning — and raises
    :class:`SchemaVersionError` for a malformed version or an unknown
    major.  ``kind`` names the payload type in the error message.
    """
    declared = payload.get(SCHEMA_KEY)
    if declared is None:
        return None
    version = parse_version(declared)
    if version[0] != CURRENT_MAJOR:
        raise SchemaVersionError(
            f"{kind} payload declares schema_version {declared!r} "
            f"(major {version[0]}); this reader understands major "
            f"{CURRENT_MAJOR} ({SCHEMA_VERSION})")
    return version
