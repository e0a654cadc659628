"""System-event records captured by the (simulated) kernel tracer.

Each event carries the two identifiers the paper uses for filtering and
causality:

- the **context identifier** ``<hostIP, programName, processID,
  threadID>`` filters noise from unrelated processes and establishes
  intra-Servpod causality, and
- the **message identifier** ``<senderIP, senderPort, receiverIP,
  receiverPort, messageSize>`` filters unrelated communications and
  establishes inter-Servpod causality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class EventType(enum.Enum):
    """The four kernel events the tracer records (§3.3)."""

    ACCEPT = "ACCEPT"   # syscall_accept — acceptance of a request
    RECV = "RECV"       # tcp_rcvmsg — receiving a data package
    SEND = "SEND"       # tcp_sendmsg — sending a data package
    CLOSE = "CLOSE"     # syscall_close — close of a request call


@dataclass(frozen=True)
class ContextId:
    """``<hostIP, programName, processID, threadID>``."""

    host_ip: str
    program: str
    pid: int
    tid: int


@dataclass(frozen=True)
class MessageId:
    """``<senderIP, senderPort, receiverIP, receiverPort, messageSize>``."""

    sender_ip: str
    sender_port: int
    receiver_ip: str
    receiver_port: int
    size: int

    def reversed(self) -> "MessageId":
        """The reply direction of this flow (size not preserved)."""
        return MessageId(
            sender_ip=self.receiver_ip,
            sender_port=self.receiver_port,
            receiver_ip=self.sender_ip,
            receiver_port=self.sender_port,
            size=self.size,
        )

    @property
    def flow(self) -> tuple:
        """The 4-tuple identifying the connection direction (ignores size)."""
        return (self.sender_ip, self.sender_port, self.receiver_ip, self.receiver_port)


@dataclass(frozen=True)
class SysEvent:
    """One captured kernel event.

    ``timestamp`` is in milliseconds since the capture started. ``request_id``
    is ground truth carried only for test assertions — the matcher never
    reads it (the whole point of the tracer is that the kernel does not
    know which request an event belongs to).
    """

    etype: EventType
    timestamp: float
    context: ContextId
    message: Optional[MessageId] = None
    request_id: int = -1

    def __post_init__(self) -> None:
        if self.etype in (EventType.RECV, EventType.SEND) and self.message is None:
            raise ValueError(f"{self.etype.value} events must carry a message id")

    def sort_key(self) -> tuple:
        """Stable global ordering: by time, then context, then type."""
        return (self.timestamp, self.context.host_ip, self.context.tid, self.etype.value)
