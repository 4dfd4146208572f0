"""Home Subscriber Server: subscriber database and authentication vectors.

Holds the permanent keys and the per-subscriber SQN generators (TS 33.102
Annex C network side).  The MME requests authentication vectors from here;
the P1 capture phase works precisely because every ``attach_request`` —
including one from the attacker's own malicious UE — makes the HSS mint a
fresh, valid ``authentication_request`` for the claimed IMSI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .identifiers import Subscriber
from .security import AuthVector, generate_auth_vector
from .sqn import Sqn, SqnError, SqnGenerator


class HssError(Exception):
    """Raised for unknown subscribers and for an SQN that cannot move
    forward (an exhausted SEQ space or a resync that would exhaust it)."""


@dataclass
class HssEntry:
    subscriber: Subscriber
    generator: SqnGenerator = field(default_factory=SqnGenerator)
    vectors_issued: int = 0


class Hss:
    """The subscriber database shared by all MME instances."""

    def __init__(self):
        self._entries: Dict[str, HssEntry] = {}

    def provision(self, subscriber: Subscriber) -> None:
        self._entries[str(subscriber.imsi)] = HssEntry(subscriber)

    def subscribers(self) -> List[str]:
        return sorted(self._entries)

    def _entry(self, imsi: str) -> HssEntry:
        try:
            return self._entries[imsi]
        except KeyError:
            raise HssError(f"unknown IMSI {imsi}") from None

    def get_auth_vector(self, imsi: str) -> AuthVector:
        """Mint a fresh authentication vector (increments SEQ and IND)."""
        entry = self._entry(imsi)
        try:
            sqn = entry.generator.next()
        except SqnError as exc:
            raise HssError(str(exc)) from None
        entry.vectors_issued += 1
        return generate_auth_vector(entry.subscriber.permanent_key, sqn)

    def resynchronise(self, imsi: str, resync_seq: int) -> None:
        """Handle an auth_sync_failure AUTS: jump SEQ past the UE's view.

        A ``resync_seq`` that leaves no fresh SEQ in the 48-bit SQN is
        rejected with :class:`HssError`: no vector could follow it.
        """
        entry = self._entry(imsi)
        if resync_seq >= entry.generator.max_seq:
            raise HssError(f"resync SEQ {resync_seq} leaves no fresh SQN")
        current_seq, current_ind = entry.generator.current
        if resync_seq >= current_seq:
            entry.generator = SqnGenerator(
                ind_bits=entry.generator.ind_bits,
                start_seq=resync_seq, start_ind=current_ind)

    def vector_history(self, imsi: str) -> List[Sqn]:
        """All SQNs ever issued for the subscriber (trace analysis)."""
        return list(self._entry(imsi).generator.generated)

    def permanent_key(self, imsi: str) -> bytes:
        return self._entry(imsi).subscriber.permanent_key
